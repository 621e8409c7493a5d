"""Rabi-type Hamiltonians and their reductions to half-line Jacobi operators.

Four models of a two-level system coupled to a single bosonic mode are
supported, written on C^2 (x) l^2(N_0) with number operator N, annihilator a
and creator a+ (so a+ e_n = sqrt(n+1) e_(n+1), N e_n = n e_n):

  intensity-dependent :  N + (D/2) sz + g sx ((N+2k)^(1/2) a + a+ (N+2k)^(1/2))
  two-photon          :  N + (D/2) sz + g sx (a^2 + a+^2)
  anisotropic         :  N + (D/2) sz + (g- s- + g+ s+) a+^2 + (g+ s- + g- s+) a^2
  two-photon + Stark  :  N + sz (k N + D/2) + g sx (a^2 + a+^2)

Each Hamiltonian leaves a family of chains in the product basis invariant:
flipping the spin while stepping the photon number by one (intensity-
dependent) or two (the rest) closes on subspaces labelled by a sign and,
for the two-photon models, the photon-number parity mu.  Restricted to one
such chain the Hamiltonian is a Jacobi matrix whose parameters carry an
exact period-2 modulation, which is what the phase classification in
:mod:`.modulation` consumes.

Coupling regimes are decided symbolically (criticality is a measure-zero
condition, useless to detect in floating point); the critical half-line is
computed from the indicator polynomial and cross-checked against the known
closed-form endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar, NamedTuple, Sequence, Union

import numpy as np

from .modulation import (
    HalfLine,
    Monodromy,
    PeriodicModulation,
    PhaseKind,
    PhaseReport,
    edge_indicator,
    essential_halfline,
    exact_edge_indicator,
    limit_sequences,
    monodromy,
)
from .tridiag import SymTridiag

# criticality predicate tolerance, relative: users probing the transition
# type 0.5 and expect the critical branch
_CRIT_RTOL = 1e-12


class DegenerateParameterError(ValueError):
    """Parameters produce a degenerate Jacobi matrix (zero off-diagonal)."""


class IndicatorMismatchError(RuntimeError):
    """The indicator's half-line disagrees with the closed form beyond its tolerance.

    Both derive from the same modulation data, and neither the float
    indicator nor its exact sum over that data confirms the closed form at
    these parameters: the float data has lost it, as for the two-photon
    model in sectors mu = 1 at |delta| of 1e100.
    """


def _positive(name: str, value: float) -> float:
    value = float(value)
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _critically_equal(value: float, target: float) -> bool:
    return abs(value - target) <= _CRIT_RTOL * abs(target)


class Regime(NamedTuple):
    """Symbolic regime clause of a model's parameters.

    ``halfline`` (the closed-form essential half-line) and ``trace`` (the
    certified monodromy trace, exactly +2.0 or -2.0) are set in critical
    regimes only.
    """

    clause: str
    kind: PhaseKind
    halfline: HalfLine | None = None
    trace: float | None = None


def _coupling_regime(g: float, endpoint: float) -> Regime:
    """Regime of a single coupling g whose critical value is 1/2."""
    if _critically_equal(g, 0.5):
        return Regime("g=1/2", PhaseKind.CRITICAL_HALF_LINE, HalfLine(endpoint, "up"), 2.0)
    if g < 0.5:
        return Regime("0<g<1/2", PhaseKind.EMPTY_ESSENTIAL)
    return Regime("g>1/2", PhaseKind.FULL_LINE_AC)


def _two_photon_chain(sgn: float, mu: float, delta: float, alpha,
                      kappa: float = 0.0) -> PeriodicModulation:
    """Sector modulation of the two-photon family; kappa is the Stark term (0 without)."""
    return PeriodicModulation(
        alpha=alpha,
        beta=(2.0 * (1.0 + sgn * kappa), 2.0 * (1.0 - sgn * kappa)),
        gamma=((1.0 + sgn * kappa) * mu + sgn * delta / 2.0,
               (1.0 - sgn * kappa) * mu - sgn * delta / 2.0),
        t=0.5 + mu / 2.0,
        s=1.0 + mu / 2.0,
    )


class _Model:
    """Everything specific to one model lives on its class.

    ``name`` is the CLI name and ``step`` (1 or 2) the photon-number step of
    the sector chains, which alone fixes the sector labels, the chain basis
    index and the chain length.  ``modulation`` builds the exact sector
    modulation, ``diagonal`` and ``coupling`` are the Hamiltonian's own
    product-basis terms (kept apart from ``modulation`` so that the
    decomposition check compares two independent constructions), ``regime``
    is the symbolic regime clause and ``with_coupling`` varies the coupling
    that ``collapse`` scans.  The defaults here are the two-photon forms.
    """

    name: ClassVar[str]
    step: ClassVar[int] = 2

    def diagonal(self, nu: int, m: np.ndarray) -> np.ndarray:
        """Diagonal entries of spin block nu at photon numbers m."""
        return m + nu * self.delta / 2.0

    def coupling(self, nu: int, m: np.ndarray) -> np.ndarray:
        """Entries coupling (nu, m) to (-nu, m + step)."""
        return self.g * np.sqrt((m + 1.0) * (m + 2.0))

    def with_coupling(self, g: float):
        """The same model with its scanned coupling set to g."""
        return replace(self, g=g)


@dataclass(frozen=True)
class IntensityDependent(_Model):
    """Intensity-dependent Rabi model.

    H = N + (delta/2) sz + g sx ((N + 2 kappa)^(1/2) a + a+ (N + 2 kappa)^(1/2)),
    with coupling g > 0, level splitting delta and intensity offset kappa >= 0.
    kappa = 0 is constructible but degenerate for the Jacobi reduction: the
    first off-diagonal entry vanishes and decouples the vacuum.
    """

    name: ClassVar[str] = "intensity"
    step: ClassVar[int] = 1

    g: float
    delta: float
    kappa: float

    def __post_init__(self):
        _positive("g", self.g)
        _finite("delta", self.delta)
        if not (np.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ValueError(f"kappa must be non-negative, got {self.kappa!r}")

    def modulation(self, sgn: float, mu: float) -> PeriodicModulation:
        if self.kappa == 0.0:
            raise DegenerateParameterError(
                "kappa = 0 makes the first off-diagonal entry vanish; the chain "
                "decouples and is not a Jacobi matrix with positive off-diagonal"
            )
        return PeriodicModulation(
            alpha=(self.g, self.g),
            beta=(1.0, 1.0),
            gamma=(sgn * self.delta / 2.0, -sgn * self.delta / 2.0),
            t=1.0,
            s=2.0 * self.kappa,
        )

    def coupling(self, nu: int, m: np.ndarray) -> np.ndarray:
        return self.g * np.sqrt((m + 1.0) * (m + 2.0 * self.kappa))

    def regime(self) -> Regime:
        return _coupling_regime(self.g, -self.kappa)


@dataclass(frozen=True)
class TwoPhoton(_Model):
    """Two-photon Rabi model: H = N + (delta/2) sz + g sx (a^2 + a+^2)."""

    name: ClassVar[str] = "two-photon"

    g: float
    delta: float

    def __post_init__(self):
        _positive("g", self.g)
        _finite("delta", self.delta)

    def modulation(self, sgn: float, mu: float) -> PeriodicModulation:
        return _two_photon_chain(sgn, mu, self.delta, (2.0 * self.g, 2.0 * self.g))

    def regime(self) -> Regime:
        return _coupling_regime(self.g, -0.5)


@dataclass(frozen=True)
class AnisotropicTwoPhoton(_Model):
    """Anisotropic two-photon Rabi model with distinct co/counter-rotating couplings.

    H = N + (delta/2) sz + (g_minus s- + g_plus s+) a+^2 + (g_plus s- + g_minus s+) a^2.
    Both couplings are positive and distinct; the mean (g_plus+g_minus)/2 and
    half-difference (g_plus-g_minus)/2 control the spectral phase.
    """

    name: ClassVar[str] = "anisotropic"

    g_plus: float
    g_minus: float
    delta: float

    def __post_init__(self):
        _positive("g_plus", self.g_plus)
        _positive("g_minus", self.g_minus)
        _finite("delta", self.delta)
        if self.g_plus == self.g_minus:
            raise ValueError("g_plus and g_minus must differ (the isotropic point "
                             "is the plain two-photon model)")

    @property
    def g_mean(self) -> float:
        """Mean coupling (g_plus + g_minus)/2; always exceeds |g_diff|."""
        return (self.g_plus + self.g_minus) / 2.0

    @property
    def g_diff(self) -> float:
        """Half-difference (g_plus - g_minus)/2."""
        return (self.g_plus - self.g_minus) / 2.0

    def modulation(self, sgn: float, mu: float) -> PeriodicModulation:
        alpha = (2.0 * (self.g_mean - sgn * self.g_diff), 2.0 * (self.g_mean + sgn * self.g_diff))
        return _two_photon_chain(sgn, mu, self.delta, alpha)

    def coupling(self, nu: int, m: np.ndarray) -> np.ndarray:
        return (self.g_mean - nu * self.g_diff) * np.sqrt((m + 1.0) * (m + 2.0))

    def with_coupling(self, g: float) -> "AnisotropicTwoPhoton":
        """Vary the mean coupling, holding the anisotropy g_diff fixed."""
        return AnisotropicTwoPhoton(g_plus=g + self.g_diff, g_minus=g - self.g_diff,
                                    delta=self.delta)

    def regime(self) -> Regime:
        g, gd = self.g_mean, abs(self.g_diff)
        if _critically_equal(g, 0.5):
            return Regime("g=1/2", PhaseKind.CRITICAL_HALF_LINE, HalfLine(-0.5, "up"), 2.0)
        if _critically_equal(gd, 0.5):
            return Regime("|g'|=1/2", PhaseKind.CRITICAL_HALF_LINE, HalfLine(-0.5, "down"), -2.0)
        if g < 0.5:
            return Regime("g<1/2", PhaseKind.EMPTY_ESSENTIAL)
        if gd > 0.5:
            return Regime("|g'|>1/2", PhaseKind.EMPTY_ESSENTIAL)
        return Regime("|g'|<1/2<g", PhaseKind.FULL_LINE_AC)


@dataclass(frozen=True)
class TwoPhotonRabiStark(_Model):
    """Two-photon Rabi model with a Stark term:
    H = N + sz (kappa N + delta/2) + g sx (a^2 + a+^2)."""

    name: ClassVar[str] = "rabi-stark"

    g: float
    delta: float
    kappa: float

    def __post_init__(self):
        _positive("g", self.g)
        _finite("delta", self.delta)
        _finite("kappa", self.kappa)

    def modulation(self, sgn: float, mu: float) -> PeriodicModulation:
        return _two_photon_chain(sgn, mu, self.delta, (2.0 * self.g, 2.0 * self.g), self.kappa)

    def diagonal(self, nu: int, m: np.ndarray) -> np.ndarray:
        return m + nu * (self.kappa * m + self.delta / 2.0)

    def regime(self) -> Regime:
        kap, g = self.kappa, self.g
        if _critically_equal(abs(kap), 1.0):
            return Regime("|kappa|=1", PhaseKind.CRITICAL_HALF_LINE,
                          HalfLine(-kap * self.delta / 2.0, "down"), -2.0)
        if abs(kap) > 1.0:
            return Regime("|kappa|>1", PhaseKind.EMPTY_ESSENTIAL)
        # products, not **: a float ** raises OverflowError where g * g is inf
        circle = kap * kap + 4.0 * (g * g)
        if _critically_equal(circle, 1.0):
            endpoint = (kap**2 - 1.0 - kap * self.delta) / 2.0
            return Regime("kappa^2+4g^2=1", PhaseKind.CRITICAL_HALF_LINE,
                          HalfLine(endpoint, "up"), 2.0)
        if circle > 1.0:
            return Regime("|kappa|<1, kappa^2+4g^2>1", PhaseKind.FULL_LINE_AC)
        return Regime("kappa^2+4g^2<1", PhaseKind.EMPTY_ESSENTIAL)


ModelSpec = Union[IntensityDependent, TwoPhoton, AnisotropicTwoPhoton, TwoPhotonRabiStark]

# the model table, in CLI order
MODEL_TYPES = (IntensityDependent, TwoPhoton, AnisotropicTwoPhoton, TwoPhotonRabiStark)


@dataclass(frozen=True)
class SectorLabel:
    """Invariant-chain label: a sign, plus the photon parity mu for the
    two-photon family (absent for the intensity-dependent model)."""

    sign: int
    mu: int | None = None

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if self.mu not in (None, 0, 1):
            raise ValueError("mu must be 0, 1 or None")

    def __str__(self) -> str:
        sign = "+" if self.sign > 0 else "-"
        return sign if self.mu is None else f"{self.mu}{sign}"

    @classmethod
    def parse(cls, text: str) -> "SectorLabel":
        text = text.strip()
        if text in ("+", "-"):
            return cls(1 if text == "+" else -1)
        if len(text) == 2 and text[0] in "01" and text[1] in "+-":
            return cls(1 if text[1] == "+" else -1, int(text[0]))
        raise ValueError(f"cannot parse sector label {text!r} (expected +, -, 0+, 0-, 1+ or 1-)")


# the sector labels of each chain step, in enumeration order
_SECTORS = {
    step: tuple(SectorLabel(sign, mu) for mu in ((None,) if step == 1 else range(step))
                for sign in (-1, 1))
    for step in (1, 2)
}


def sectors(model: ModelSpec) -> tuple[SectorLabel, ...]:
    """Invariant sectors in fixed enumeration order.

    Two sectors (-, +) for step-1 chains (intensity-dependent); four
    (0-, 0+, 1-, 1+) for step-2 chains (the two-photon family).
    """
    return _SECTORS[model.step]


def _check_sector(model: ModelSpec, sector: SectorLabel) -> None:
    if (sector.mu is None) != (model.step == 1):
        need = "carry no parity label mu" if model.step == 1 else "require a parity label mu"
        raise ValueError(f"{model.name} sectors {need}")


@dataclass(frozen=True)
class JacobiParams:
    """Evaluable Jacobi parameters of one sector, with their exact modulation.

    ``a(n)`` and ``b(n)`` accept integers or integer arrays and evaluate the
    modulated closed forms directly (never recurrences), so truncations here
    and the dense Hamiltonian agree to rounding wherever the same expression
    appears.
    """

    modulation: PeriodicModulation
    label: SectorLabel
    model: ModelSpec

    def a(self, n):
        return self.modulation.a(n)

    def b(self, n):
        return self.modulation.b(n)

    def truncation(self, n_max: int) -> SymTridiag:
        """Leading n_max x n_max finite section, entries b(0 .. n_max - 1) and a(0 .. n_max - 2).

        An entry that overflows is inf, without a warning: ``SymTridiag`` rejects it.
        """
        n_max = int(n_max)
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        n = np.arange(n_max)
        with np.errstate(over="ignore"):
            return SymTridiag(self.b(n), self.a(n[:-1]))


def jacobi_params(model: ModelSpec, sector: SectorLabel) -> JacobiParams:
    """Jacobi parameters of the Hamiltonian restricted to one sector chain.

    The returned modulation is exact, not asymptotic: a(n) and b(n) equal
    alpha[n mod 2] sqrt((n+t)(n+s)) and beta[n mod 2] n + gamma[n mod 2]
    entry for entry.
    """
    _check_sector(model, sector)
    mod = model.modulation(float(sector.sign), float(sector.mu or 0))
    return JacobiParams(mod, sector, model)


def sector_basis_index(model: ModelSpec, sector: SectorLabel, n: int) -> tuple[int, int]:
    """Product-basis coordinates (spin nu, photon index) of the sector's n-th vector.

    The chains alternate spin while stepping the photon number by the
    model's step: (sign (-1)^n, n) for the intensity-dependent model,
    (sign (-1)^n, 2n + mu) for the two-photon family.
    """
    _check_sector(model, sector)
    if n < 0:
        raise ValueError("n must be non-negative")
    nu = sector.sign * (-1 if n % 2 else 1)
    return nu, model.step * int(n) + (sector.mu or 0)


def _product_index(nu, m, cutoff):
    # spin block nu=-1 first, then nu=+1; photon index within the block
    return (0 if nu == -1 else 1) * cutoff + m


def hamiltonian_matrix(model: ModelSpec, cutoff: int) -> np.ndarray:
    """Finite section of the Hamiltonian on span{e^nu_m : m < cutoff}.

    Product-basis layout: spin nu = -1 occupies rows 0..cutoff-1, spin
    nu = +1 rows cutoff..2*cutoff-1, photon index m within each block.
    Creation terms that would leave the cutoff are dropped, which makes the
    matrix symmetric by construction (finite-section compression).
    """
    cutoff = int(cutoff)
    if cutoff < 4:
        raise ValueError("cutoff must be at least 4")
    H = np.zeros((2 * cutoff, 2 * cutoff))
    m = np.arange(cutoff, dtype=float)
    step = model.step
    for nu in (-1, 1):
        rows = _product_index(nu, np.arange(cutoff), cutoff)
        H[rows, rows] = model.diagonal(nu, m)
        src = _product_index(nu, np.arange(cutoff - step), cutoff)
        dst = _product_index(-nu, np.arange(step, cutoff), cutoff)
        H[dst, src] = H[src, dst] = model.coupling(nu, m[:-step])
    return H


@dataclass(frozen=True)
class DecompositionCheck:
    """Entrywise comparison of the Hamiltonian's sector chain blocks with their truncations.

    ``max_block`` covers all in-block entries except the final chain row and
    column of each sector (the truncation band, whose out-of-cutoff coupling
    was dropped on both sides); that band is reported separately as
    ``max_boundary``.  ``max_cross`` covers every entry outside the chain
    blocks, which the exact sector invariance forces to zero.
    """

    max_block: float
    max_boundary: float
    max_cross: float

    @property
    def max_deviation(self) -> float:
        """Deviation over interior block entries and all cross-sector entries."""
        return max(self.max_block, self.max_cross)


def decomposition_check(model: ModelSpec, cutoff: int) -> DecompositionCheck:
    """Compare each sector's chain block of the dense finite section with its truncation.

    The sector map is a bijection of the product-basis index set, so the
    dense matrix must vanish outside the chain blocks, and each block, read
    where it sits, must equal the truncated sector Jacobi matrix.
    """
    cutoff = int(cutoff)
    if cutoff < 8:
        raise ValueError("cutoff must be at least 8")
    # truncations first: they refuse entries float64 cannot hold before H computes them
    sections = {sector: jacobi_params(model, sector).truncation(
        (cutoff - (sector.mu or 0) + model.step - 1) // model.step) for sector in sectors(model)}
    # a term such as kappa m can overflow where the entry it sums into is finite:
    # the deviation is then inf, which the caller refuses, with no warning here
    with np.errstate(over="ignore"):
        H = hamiltonian_matrix(model, cutoff)
    cross = np.ones(H.shape, dtype=bool)
    max_block = max_boundary = 0.0
    tiled = 0
    for sector, section in sections.items():
        L = section.n_max
        chain = [_product_index(*sector_basis_index(model, sector, n), cutoff) for n in range(L)]
        block = np.ix_(chain, chain)
        dev = np.abs(H[block] - section.dense())
        max_block = np.maximum(max_block, dev[:-1, :-1].max(initial=0.0))
        max_boundary = np.maximum(max_boundary, np.maximum(dev[-1].max(), dev[:, -1].max()))
        cross[block] = False
        tiled += L
    assert tiled == H.shape[0] and not cross.diagonal().any(), \
        "sector chains must tile the product basis exactly"
    # |.| in place over the gathered entries: no second full-size temporary
    outside = H[cross]
    del H, cross
    return DecompositionCheck(
        max_block=float(max_block),
        max_boundary=float(max_boundary),
        max_cross=float(np.abs(outside, out=outside).max(initial=0.0)),
    )


def critical_trace(model: ModelSpec) -> float | None:
    """Exact monodromy trace (+2.0 or -2.0) if the parameters are critical, else None.

    Read off the model's regime clause.  Criticality predicates: coupling
    mean at 1/2 (intensity-dependent, two-photon, anisotropic), coupling
    half-difference at 1/2 (anisotropic), kappa^2 + 4 g^2 = 1 or |kappa| = 1
    (Stark).  All are evaluated with relative tolerance 1e-12 on the
    user-supplied parameters.
    """
    return model.regime().trace


def predicted_phase(model: ModelSpec, sector: SectorLabel) -> PhaseReport:
    """Spectral phase of one sector: ``predicted_phases(model, (sector,))[0]``."""
    return predicted_phases(model, (sector,))[0]


def predicted_phases(model: ModelSpec, labels: Sequence[SectorLabel]) -> list[PhaseReport]:
    """Spectral phase of each sector in ``labels`` from the symbolic regime conditions.

    The regime clause is evaluated once per call.  The monodromy is formed
    once per distinct pair of the modulation's alpha and beta values, all
    that its transfer matrices read: sectors whose alpha and beta agree
    (both photon parities of the two-photon family, and both signs of the
    two-photon and intensity models) share one product, with the bits each
    would form.  Every sector's modulation is still built and validated, in the
    order given, so the first error raised is the one a call per sector
    raises.

    In critical regimes the essential half-line is computed from the edge
    indicator polynomial and cross-checked against the closed-form endpoint
    within 1e-9 relative to the largest correction limit |r_i| (at least 1),
    since both derive from the same modulation data.  The indicator sums
    terms of the size of r, which grows with delta and kappa, so its
    rounding error does too even where the endpoint stays small
    (anisotropic: endpoint -1/2, error about 1e-17 delta).  The tolerance is
    capped at 1e-6 relative to the closed-form endpoint (at least 1), so
    that a huge delta cannot pass any endpoint.  Where the float indicator
    fails the check, or its endpoint misses the closed form by more than
    1e-9 relative to the closed endpoint, it is summed again exactly over
    the same float data (``exact_edge_indicator``), which keeps the
    anisotropic endpoint at large mean couplings and a small endpoint next
    to a large delta; if the check fails then, ``IndicatorMismatchError`` (a
    RuntimeError) is raised.  A float indicator whose coefficients overflow
    (inf or NaN) raises ValueError.  The trace of a non-critical sector is
    reported as computed, and may be inf or NaN where the products overflow.
    """
    regime = model.regime()
    monos, reports = {}, []
    for sector in labels:
        mod = jacobi_params(model, sector).modulation
        key = (mod.alpha.tobytes(), mod.beta.tobytes())
        if key not in monos:
            monos[key] = monodromy(mod, critical_trace=regime.trace)
        mono = monos[key]
        if regime.kind is PhaseKind.CRITICAL_HALF_LINE:
            reports.append(_critical_report(model, sector, mod, mono, regime))
        else:
            reports.append(PhaseReport(regime.kind, mono.trace, notes=regime.clause))
    return reports


def _critical_report(model: ModelSpec, sector: SectorLabel, mod: PeriodicModulation,
                     mono: Monodromy, regime: Regime) -> PhaseReport:
    """One critical sector's report: its indicator, half-line and closed-form check."""
    closed = regime.halfline
    s, r = limit_sequences(mod)
    indicator = edge_indicator(mod, mono, s, r)
    if not (math.isfinite(indicator.c1) and math.isfinite(indicator.c0)):
        raise ValueError(
            f"the edge indicator of {model.name} sector {sector} overflows float64 "
            f"(c1 {indicator.c1!r}, c0 {indicator.c0!r})"
        )
    halfline = essential_halfline(indicator)
    tol = min(1e-9 * max(1.0, float(np.abs(r).max())), 1e-6 * max(1.0, abs(closed.endpoint)))

    def disagrees(h: HalfLine) -> bool:
        return h.direction != closed.direction or abs(h.endpoint - closed.endpoint) > tol

    if disagrees(halfline) or abs(halfline.endpoint - closed.endpoint) > 1e-9 * abs(closed.endpoint):
        # the float sum may have cancelled: sum it exactly over the same data
        indicator, halfline = exact_edge_indicator(mod, mono)
    if disagrees(halfline):
        raise IndicatorMismatchError(
            f"indicator half-line {halfline} disagrees with the closed form {closed} "
            f"for {model.name} sector {sector}"
        )
    return PhaseReport(regime.kind, mono.trace, indicator, halfline, regime.clause)


def carleman_growth_constant(params: JacobiParams, n_probe: int = 10_000) -> float:
    """A constant c > 0 with a(n) >= c (n+1) for every n.

    The probed minimum of a(n)/(n+1) covers the head of the sequence; the
    period minimum of alpha covers the tail, where the ratio approaches the
    alpha values monotonically past the single interior extremum of the
    growth factor.
    """
    idx = np.arange(int(n_probe))
    ratios = params.a(idx) / (idx + 1.0)
    return float(min(np.min(ratios), np.min(params.modulation.alpha)))


def carleman_lower_bound(params: JacobiParams, n_terms: int) -> np.ndarray:
    """Logarithmic lower bound for the Carleman partial sums S_k, k < n_terms.

    From a(n) <= max(alpha) (n + (t+s)/2) (arithmetic-geometric mean) and an
    integral comparison: S_k >= (1/max(alpha)) log((k + 1 + h)/h) with
    h = (t+s)/2.
    """
    mod = params.modulation
    h = 0.5 * (mod.t + mod.s)
    k = np.arange(int(n_terms), dtype=float)
    return np.log((k + 1.0 + h) / h) / float(np.max(mod.alpha))
