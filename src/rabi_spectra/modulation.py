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

    with all alpha positive and t, s > 0.  Subscripts are read modulo N
    throughout, so alpha_(-1) means alpha_(N-1).
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
        if not np.all(self.alpha > 0.0):
            raise ValueError("alpha entries must be strictly positive")
        if not (self.t > 0.0 and self.s > 0.0):
            raise ValueError("square-root offsets t and s must be strictly positive")

    @property
    def period(self) -> int:
        return int(self.alpha.size)

    def sqrt_growth(self, n):
        """The common growth factor sqrt((n + t)(n + s))."""
        n = np.asarray(n, dtype=float)
        return np.sqrt((n + self.t) * (n + self.s))

    def a(self, n):
        """Off-diagonal rule a_n = alpha_(n mod N) sqrt((n + t)(n + s))."""
        return self._a(np.asarray(n, dtype=np.int64) % self.period, self.sqrt_growth(n))

    def b(self, n):
        """Diagonal rule b_n = beta_(n mod N) n + gamma_(n mod N)."""
        return self._b(np.asarray(n, dtype=np.int64) % self.period, np.asarray(n, dtype=float))

    # the closed forms for residues r (an array, or one residue's int), from
    # the growth factor at the indices and the float indices themselves
    def _a(self, r, growth):
        return self.alpha[r] * growth

    def _b(self, r, n):
        return self.beta[r] * n + self.gamma[r]

    def leading(self, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """b_0 .. b_(n_max - 1) and a_0 .. a_(n_max - 2), the leading section's entries.

        Each residue class is evaluated on its strided slice of the indices
        and of one growth factor, with no modulo or gather: the same IEEE
        operations per entry as ``a`` and ``b``, so the same bits.
        """
        n, step = np.arange(n_max, dtype=float), self.period
        growth = self.sqrt_growth(n[:-1])
        b, a = np.empty(n_max), np.empty(n_max - 1)
        for r in range(step):
            b[r::step] = self._b(r, n[r::step])
            a[r::step] = self._a(r, growth[r::step])
        return b, a


def transfer_matrix(mod: PeriodicModulation, n: int) -> np.ndarray:
    """One-step transfer matrix at spectral parameter zero.

    Rows ((0, 1), (-alpha_(n-1)/alpha_n, -beta_n/alpha_n)); its determinant
    is alpha_(n-1)/alpha_n, which telescopes to 1 over a period.
    """
    N = mod.period
    a_prev = mod.alpha[(n - 1) % N]
    a_cur = mod.alpha[n % N]
    return np.array([[0.0, 1.0], [-a_prev / a_cur, -mod.beta[n % N] / a_cur]])


def _one_period_product(mod: PeriodicModulation, start: int) -> np.ndarray:
    out = np.eye(2)
    for n in range(start, start + mod.period):
        out = transfer_matrix(mod, n) @ out
    return out


def cyclic_monodromies(mod: PeriodicModulation) -> np.ndarray:
    """All N cyclic one-period products, shape (N, 2, 2); index i starts at step i."""
    return np.array([_one_period_product(mod, i) for i in range(mod.period)])


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
    X0 = _one_period_product(mod, 0)
    trace = float(X0[0, 0] + X0[1, 1])
    if critical_trace is not None:
        critical_trace = float(critical_trace)
        if critical_trace not in (2.0, -2.0):
            raise ValueError("critical_trace must be exactly +2.0 or -2.0")
        if abs(trace - critical_trace) > 1e-9:
            raise ValueError(
                f"certified critical trace {critical_trace:+g} disagrees with the "
                f"computed trace {trace!r}"
            )
        sign = 1 if critical_trace > 0 else -1
    elif abs(trace) < 2.0:
        sign = 0
    else:
        sign = 1 if trace > 0 else -1
    scalar = min(
        float(np.max(np.abs(X0 - np.eye(2)))),
        float(np.max(np.abs(X0 + np.eye(2)))),
    ) <= 1e-12
    return Monodromy(X0, trace, sign, bool(scalar), critical_trace)


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
    s = np.roll(mod.alpha, 1)
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
    trace sign.  Only defined in the critical phase.
    """
    if classify(mono) is not PhaseKind.CRITICAL_HALF_LINE:
        raise PhaseStateError("edge indicator is defined only in the critical phase")
    eps = mono.trace_sign
    N = mod.period
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    if s.shape != (N,) or r.shape != (N,):
        raise ValueError("limit sequences must have one entry per period step")
    terms = []
    for i, Xi in enumerate(cyclic_monodromies(mod)):
        a_prev = mod.alpha[(i - 1) % N]
        slope = -eps * Xi[1, 0] / a_prev
        const = (s[i] / a_prev) * (1.0 - eps * Xi[0, 0]) - eps * (r[i] / a_prev) * Xi[1, 0]
        terms.append((float(slope), float(const)))
    c1 = float(sum(t for t, _ in terms))
    c0 = float(sum(c for _, c in terms))
    return EdgeIndicator(c1, c0, tuple(terms))


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

    if classify(mono) is not PhaseKind.CRITICAL_HALF_LINE:
        raise PhaseStateError("edge indicator is defined only in the critical phase")
    eps, N = mono.trace_sign, mod.period
    alpha, beta, gamma = ([Fraction(x) for x in v.tolist()] for v in (mod.alpha, mod.beta, mod.gamma))
    half_ts = (Fraction(mod.t) + Fraction(mod.s)) / 2
    terms = []
    for i in range(N):
        # the cyclic monodromy from step i; each transfer matrix has first row (0, 1)
        x = ((1, 0), (0, 1))
        for n in range(i, i + N):
            t10, t11 = -alpha[(n - 1) % N] / alpha[n % N], -beta[n % N] / alpha[n % N]
            x = (x[1], (t10 * x[0][0] + t11 * x[1][0], t10 * x[0][1] + t11 * x[1][1]))
        a_prev = alpha[(i - 1) % N]
        # s_i = alpha_(i-1), so s_i / alpha_(i-1) = 1; r_i = (beta_i / 2)(t + s) - gamma_i
        r = beta[i] * half_ts - gamma[i]
        terms.append((-eps * x[1][0] / a_prev, (1 - eps * x[0][0]) - eps * (r / a_prev) * x[1][0]))
    c1, c0 = sum(t for t, _ in terms), sum(c for _, c in terms)
    if c1 == 0:
        raise DegenerateIndicatorError(
            "indicator polynomial has zero slope; its negativity set is not a half-line"
        )
    indicator = EdgeIndicator(float(c1), float(c0), tuple((float(t), float(c)) for t, c in terms))
    return indicator, HalfLine(float(-c0 / c1), "up" if c1 < 0 else "down")


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
