"""Periodically modulated Jacobi parameters and their phase classification.

A half-line Jacobi operator with parameters asymptotic to

    a_n ~ alpha_(n mod N) * sqrt((n + t)(n + s)),   b_n = beta_(n mod N) * n + gamma_(n mod N)

is classified by the trace of the one-period product of transfer matrices
evaluated at spectral parameter zero:

    |trace| > 2  ->  empty essential spectrum (purely discrete),
    |trace| < 2  ->  absolutely continuous spectrum filling the real line,
    |trace| = 2, monodromy not diagonalizable  ->  critical phase: the
                 essential spectrum is a half-line, located as the closure
                 of the negativity set of an affine indicator polynomial.

This module holds the modulation data, the transfer and monodromy matrices,
the classification rules, the indicator polynomial and its half-line, and a
finite-sample diagnostic for summable period-step increments (the Stolz
regularity hypothesis under which the classification applies).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tridiag import _eval_rule, _readonly


class UnsupportedRegimeError(ValueError):
    """Parameter regime outside the classification's hypotheses."""


class DegenerateIndicatorError(ValueError):
    """Affine indicator with zero slope: no half-line can be extracted."""


class PhaseStateError(RuntimeError):
    """Operation requires a critical-phase input and got something else."""


@dataclass(frozen=True)
class PeriodicModulation:
    """Period-N modulation data (alpha_n), (beta_n), (gamma_n) with offsets t, s.

    Encodes Jacobi parameters of the exact form

        a_n = alpha_(n mod N) * sqrt((n + t)(n + s)),
        b_n = beta_(n mod N) * n + gamma_(n mod N),

    with every entry finite, all alpha positive and t, s > 0 (a ValueError
    otherwise).  Subscripts are read modulo N throughout, so alpha_(-1) means
    alpha_(N-1).
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    t: float
    s: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _readonly(self.alpha))
        object.__setattr__(self, "beta", _readonly(self.beta))
        object.__setattr__(self, "gamma", _readonly(self.gamma))
        if self.alpha.ndim != 1 or self.alpha.size < 1:
            raise ValueError("alpha must be a non-empty 1-d sequence")
        if self.beta.shape != self.alpha.shape or self.gamma.shape != self.alpha.shape:
            raise ValueError("alpha, beta, gamma must share one period length")
        # finite data, checked on Python floats (a NaN fails every comparison)
        if not all(0.0 < a < math.inf for a in self.alpha.tolist()):
            raise ValueError(f"alpha entries must be strictly positive and finite, "
                             f"got {self.alpha.tolist()}")
        if not all(map(math.isfinite, self.beta.tolist() + self.gamma.tolist())):
            raise ValueError(f"beta and gamma entries must be finite, got "
                             f"{self.beta.tolist()} and {self.gamma.tolist()}")
        if not (0.0 < self.t < math.inf and 0.0 < self.s < math.inf):
            raise ValueError(f"square-root offsets t and s must be positive and finite, "
                             f"got {self.t!r} and {self.s!r}")

    @property
    def period(self) -> int:
        return int(self.alpha.size)

    def sqrt_growth(self, n):
        """The common growth factor sqrt((n + t)(n + s))."""
        n = np.asarray(n, dtype=float)
        return np.sqrt((n + self.t) * (n + self.s))

    def a(self, n):
        """Off-diagonal rule a_n = alpha_(n mod N) sqrt((n + t)(n + s))."""
        return self.alpha[np.asarray(n, dtype=np.int64) % self.period] * self.sqrt_growth(n)

    def b(self, n):
        """Diagonal rule b_n = beta_(n mod N) n + gamma_(n mod N)."""
        r = np.asarray(n, dtype=np.int64) % self.period
        return self.beta[r] * np.asarray(n, dtype=float) + self.gamma[r]


def _transfer_rows(alpha, beta) -> list[tuple]:
    """Each step's transfer-matrix row (p_n, q_n) = (-alpha_(n-1)/alpha_n, -beta_n/alpha_n).

    The other row is (0, 1).  ``alpha`` and ``beta`` are lists of Python
    floats (a quotient that overflows is inf, without a warning) or of
    ``Fraction``s.
    """
    return [(-alpha[n - 1] / alpha[n], -beta[n] / alpha[n]) for n in range(len(alpha))]


def _period_product(rows, i: int) -> tuple[tuple, tuple]:
    """The one-period product T_(i+N-1) ... T_(i+1) T_i of ``_transfer_rows``, as nested tuples.

    From the integer identity, each step multiplies T = ((0, 1), (p, q)) on
    the left.  An entry, row (u, v) of T times column (x, y), is (0 + u*x) + v*y:
    no fused multiply-add, and summed from +0.0, so a -0.0 sum is +0.0 and
    0 * inf is NaN.  Overflow makes inf or NaN without a warning; callers
    check what they report.  Python floats round alike whatever BLAS numpy
    links, and ``Fraction`` rows give the exact product.
    """
    N = len(rows)
    x00, x01, x10, x11 = 1, 0, 0, 1
    for n in range(i, i + N):
        p, q = rows[n % N]
        x00, x01, x10, x11 = ((0 + 0 * x00) + 1 * x10, (0 + 0 * x01) + 1 * x11,
                              (0 + p * x00) + q * x10, (0 + p * x01) + q * x11)
    return (x00, x01), (x10, x11)


def transfer_matrix(mod: PeriodicModulation, n: int) -> np.ndarray:
    """One-step transfer matrix at spectral parameter zero.

    Rows ((0, 1), (-alpha_(n-1)/alpha_n, -beta_n/alpha_n)); its determinant
    is alpha_(n-1)/alpha_n, which telescopes to 1 over a period.
    """
    p, q = _transfer_rows(mod.alpha.tolist(), mod.beta.tolist())[n % mod.period]
    return np.array([[0.0, 1.0], [p, q]])


def cyclic_monodromies(mod: PeriodicModulation) -> np.ndarray:
    """All N cyclic one-period products, shape (N, 2, 2); index i starts at step i."""
    rows = _transfer_rows(mod.alpha.tolist(), mod.beta.tolist())
    return np.array([_period_product(rows, i) for i in range(mod.period)], dtype=float)


@dataclass(frozen=True)
class Monodromy:
    """One-period ordered transfer-matrix product at spectral parameter zero.

    ``trace_sign`` is the sign of the trace, zero inside (-2, 2).  When a
    caller certifies |trace| = 2 through an exact parameter predicate it
    passes ``critical_trace`` (+2.0 or -2.0); the sign is then taken from
    that value rather than from floating point, and the computed trace is
    cross-checked against it.  ``diagonalizable_at_pm2`` is meaningful only
    at |trace| = 2, where diagonalizable means the matrix is +-identity.
    """

    matrix: np.ndarray
    trace: float
    trace_sign: int
    diagonalizable_at_pm2: bool
    critical_trace: float | None = None


def monodromy(mod: PeriodicModulation, critical_trace: float | None = None) -> Monodromy:
    """Ordered product of the period's transfer matrices, with trace data.

    ``critical_trace``: exact +-2.0 certifying criticality symbolically;
    the floating-point trace must agree within 1e-9 or a ValueError is
    raised.  Criticality is a measure-zero condition, so it is never
    inferred from the floating-point trace alone.
    """
    rows = _transfer_rows(mod.alpha.tolist(), mod.beta.tolist())
    (x00, x01), (x10, x11) = X0 = _period_product(rows, 0)
    trace = x00 + x11
    if critical_trace is not None:
        critical_trace = float(critical_trace)
        if critical_trace not in (2.0, -2.0):
            raise ValueError("critical_trace must be exactly +2.0 or -2.0")
        # a NaN trace (overflowed products) disagrees too
        if not abs(trace - critical_trace) <= 1e-9:
            raise ValueError(
                f"certified critical trace {critical_trace:+g} disagrees with the "
                f"computed trace {trace!r}"
            )
        sign = 1 if critical_trace > 0 else -1
    elif abs(trace) < 2.0:
        sign = 0
    else:
        sign = 1 if trace > 0 else -1
    # +-identity within 1e-12 entrywise; a NaN entry fails every comparison
    scalar = abs(x01) <= 1e-12 and abs(x10) <= 1e-12 and any(
        abs(x00 - e) <= 1e-12 and abs(x11 - e) <= 1e-12 for e in (1.0, -1.0)
    )
    return Monodromy(np.array(X0, dtype=float), trace, sign, scalar, critical_trace)


class PhaseKind(enum.Enum):
    EMPTY_ESSENTIAL = "empty-essential"
    FULL_LINE_AC = "full-line-ac"
    CRITICAL_HALF_LINE = "critical-half-line"


def classify(mono: Monodromy) -> PhaseKind:
    """Spectral phase from the monodromy trace.

    |trace| < 2 gives line-filling absolutely continuous spectrum, |trace| > 2
    purely discrete spectrum, and |trace| = 2 the critical half-line phase,
    provided the monodromy is not diagonalizable.  A diagonalizable monodromy
    with trace +-2 (a multiple of the identity) falls outside the
    classification's hypotheses and raises UnsupportedRegimeError.
    """
    critical = mono.critical_trace is not None or abs(mono.trace) == 2.0
    if critical:
        if mono.diagonalizable_at_pm2:
            raise UnsupportedRegimeError(
                "monodromy trace is +-2 but the matrix is a multiple of the identity; "
                "the critical half-line rule requires a non-diagonalizable monodromy"
            )
        return PhaseKind.CRITICAL_HALF_LINE
    if abs(mono.trace) < 2.0:
        return PhaseKind.FULL_LINE_AC
    return PhaseKind.EMPTY_ESSENTIAL


def limit_sequences(mod: PeriodicModulation) -> tuple[np.ndarray, np.ndarray]:
    """Period-N limits of the Jacobi-parameter corrections.

    For the exact modulated form, (alpha_(n-1)/alpha_n) a_n - a_(n-1)
    converges along residues to s_n = alpha_(n-1), and
    (beta_n/alpha_n) a_n - b_n converges to r_n = (beta_n/2)(t+s) - gamma_n.
    Returns (s, r) for n = 0..N-1.
    """
    alpha = mod.alpha.tolist()
    s = np.array(alpha[-1:] + alpha[:-1])
    r = 0.5 * mod.beta * (mod.t + mod.s) - mod.gamma
    return s, r


@dataclass(frozen=True)
class EdgeIndicator:
    """Affine polynomial c1*x + c0 locating the critical essential spectrum.

    In the critical phase the essential spectrum equals the closure of the
    set where this polynomial is negative.  ``terms`` keeps the per-period
    (slope, constant) summands for audit.
    """

    c1: float
    c0: float
    terms: tuple[tuple[float, float], ...] = ()

    def __call__(self, x):
        return self.c1 * np.asarray(x, dtype=float) + self.c0


def edge_indicator(
    mod: PeriodicModulation,
    mono: Monodromy,
    s: np.ndarray,
    r: np.ndarray,
) -> EdgeIndicator:
    """Affine indicator from the cyclic monodromies and correction limits.

    Sums, over one period, the contributions

        (s_i / alpha_(i-1)) (1 - sign * M_i[1,1]) - ((x + r_i)/alpha_(i-1)) sign * M_i[2,1]

    where M_i is the cyclic monodromy starting at step i and sign is the
    trace sign of ``mono``, which is ``monodromy(mod, ...)``.  Only defined
    in the critical phase.
    """
    s, r = np.asarray(s, dtype=float), np.asarray(r, dtype=float)
    if s.shape != (mod.period,) or r.shape != (mod.period,):
        raise ValueError("limit sequences must have one entry per period step")
    alpha, beta = mod.alpha.tolist(), mod.beta.tolist()
    c1, c0, terms = _indicator_sums(mono, alpha, beta, s.tolist(), r.tolist())
    return EdgeIndicator(c1, c0, tuple(terms))


def _indicator_sums(mono: Monodromy, alpha, beta, s, r) -> tuple:
    """``edge_indicator``'s (c1, c0, terms) over lists of Python floats or of ``Fraction``s.

    Each start i's (slope, constant) comes from its cyclic product
    ``_period_product``; the coefficients sum the terms in start order.
    """
    if classify(mono) is not PhaseKind.CRITICAL_HALF_LINE:
        raise PhaseStateError("edge indicator is defined only in the critical phase")
    rows, eps = _transfer_rows(alpha, beta), mono.trace_sign
    terms = []
    for i in range(len(alpha)):
        (x00, _), (x10, _) = _period_product(rows, i)
        terms.append((-eps * x10 / alpha[i - 1],
                      (s[i] / alpha[i - 1]) * (1 - eps * x00) - eps * (r[i] / alpha[i - 1]) * x10))
    return sum(t for t, _ in terms), sum(c for _, c in terms), terms


@dataclass(frozen=True)
class HalfLine:
    """Closed half-line: [endpoint, inf) when direction is "up",
    (-inf, endpoint] when "down"."""

    endpoint: float
    direction: str

    def __post_init__(self):
        if self.direction not in ("up", "down"):
            raise ValueError('direction must be "up" or "down"')

    def contains(self, x: float) -> bool:
        return x >= self.endpoint if self.direction == "up" else x <= self.endpoint

    def __str__(self) -> str:
        if self.direction == "up":
            return f"[{self.endpoint:g}, inf)"
        return f"(-inf, {self.endpoint:g}]"


def essential_halfline(indicator: EdgeIndicator) -> HalfLine:
    """Closure of the indicator's negativity set.

    Negative slope gives [-c0/c1, inf); positive slope gives (-inf, -c0/c1].
    Zero slope is degenerate and reported, never silently ignored.
    """
    if indicator.c1 == 0.0:
        raise DegenerateIndicatorError(
            "indicator polynomial has zero slope; its negativity set is not a half-line"
        )
    endpoint = -indicator.c0 / indicator.c1
    return HalfLine(float(endpoint), "up" if indicator.c1 < 0 else "down")


def exact_edge_indicator(mod: PeriodicModulation, mono: Monodromy) -> tuple[EdgeIndicator, HalfLine]:
    """``edge_indicator`` at the limits of ``limit_sequences``, and its half-line, summed exactly.

    The monodromies, limits and sums run in ``Fraction`` over the float
    alpha, beta, gamma, t and s, so only the coefficients, the terms and the
    endpoint -c0/c1 are rounded, each once.  Where the float sum cancels
    (the anisotropic model at a mean coupling of 1e6 and up) this keeps the
    endpoint; what the float data itself lost stays lost.
    """
    # imported here: only a failed float check comes here, and the import
    # (decimal with it) would add about 4 ms to every start-up
    from fractions import Fraction

    alpha, beta, gamma = ([Fraction(x) for x in v.tolist()] for v in (mod.alpha, mod.beta, mod.gamma))
    half_ts = (Fraction(mod.t) + Fraction(mod.s)) / 2
    # limit_sequences: s_i = alpha_(i-1) and r_i = (beta_i / 2)(t + s) - gamma_i
    s = alpha[-1:] + alpha[:-1]
    r = [b * half_ts - g for b, g in zip(beta, gamma)]
    c1, c0, terms = _indicator_sums(mono, alpha, beta, s, r)
    halfline = essential_halfline(EdgeIndicator(c1, c0))
    terms = tuple((float(t), float(c)) for t, c in terms)
    return EdgeIndicator(float(c1), float(c0), terms), halfline


@dataclass(frozen=True)
class PhaseReport:
    """Classification outcome for one Jacobi operator.

    ``indicator`` and ``essential_spectrum`` are populated only in the
    critical phase; otherwise the kind alone describes the spectrum (empty
    essential spectrum, or absolutely continuous spectrum covering the
    line).  ``notes`` names the parameter-regime clause that fired.
    """

    kind: PhaseKind
    trace: float
    indicator: EdgeIndicator | None = None
    essential_spectrum: HalfLine | None = None
    notes: str = ""


def stolz_increment_sums(x: Callable, period: int, n_terms: int) -> np.ndarray:
    """Partial sums T_k = sum_{n=1}^{k} |x(n+period) - x(n)| for k = 1..n_terms.

    A flattening trend is finite-sample evidence that the period-step
    increments are summable (membership in the Stolz regularity class).  No
    boolean verdict is returned: convergence cannot be decided from finitely
    many terms.
    """
    period = int(period)
    if period < 1:
        raise ValueError("period must be a positive integer")
    if n_terms < 2 * period:
        raise ValueError("n_terms must be at least twice the period")
    idx = np.arange(1, n_terms + period + 1, dtype=float)
    vals = _eval_rule(x, idx)
    return np.cumsum(np.abs(vals[period:] - vals[:-period]))
