"""Numerical experiments on truncated sector operators.

Connects the phase predictions to finite-section data: windowed spectrum
scans, gap statistics along a coupling grid (spectral collapse: spacings of
the discrete spectrum shrink as the coupling approaches its critical
value), and eigenvalue-count growth near a predicted essential-spectrum
edge.

No claim of spectral convergence is made inside a critical half-line; only
counting-function growth along a cutoff ladder is reported there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .modulation import PhaseKind, PhaseReport, PhaseStateError
from .models import JacobiParams, ModelSpec, SectorLabel, jacobi_params, predicted_phase
from .tridiag import (
    SymTridiag,
    TruncatedSpectrum,
    _bisect_sections,
    _Stack,
    _sturm_counts,
    default_bisect_tol,
    eigenvalues_bisect,
    sturm_count,  # noqa: F401  (spectra.sturm_count is a name the benchmark tracer rebinds)
)


def spectrum_scan(
    params: JacobiParams,
    cutoff: int,
    window: tuple[float, float] | None = None,
    tol: float | None = None,
) -> TruncatedSpectrum:
    """Eigenvalues of the cutoff x cutoff finite section inside ``window``."""
    cutoff = int(cutoff)
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    return eigenvalues_bisect(params.truncation(cutoff), window=window, tol=tol)


def lowest_eigenvalues(
    params: JacobiParams, cutoff: int, k: int, tol: float | None = None
) -> np.ndarray:
    """The k smallest eigenvalues of the finite section.

    Expands a window upward from the Gershgorin lower bound until the Sturm
    count reaches k, then bisects only the lowest k eigenvalues inside it.
    """
    cutoff = int(cutoff)
    k = int(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_lowest_k(k, cutoff)
    m = params.truncation(cutoff)
    return _lowest_sections([m], k, [default_bisect_tol(m) if tol is None else tol])[0]


def _check_lowest_k(k: int, cutoff: int) -> None:
    if k > cutoff:
        raise ValueError(f"cannot take {k} eigenvalues from a {cutoff}x{cutoff} section")


def _lowest_sections(sections: Sequence[SymTridiag], k: int, tols) -> list[np.ndarray]:
    """The k smallest eigenvalues of each of the equal-size ``sections``, in lockstep.

    Each section's window grows upward from its Gershgorin lower bound,
    doubling until its Sturm count reaches k; one Sturm pass per doubling
    counts the whole stack, and only the sections still growing read it.
    The bisection then runs all sections at once (``_bisect_sections``).
    Each result is bit for bit the one a solve of that section alone gives.
    """
    tols = np.asarray(tols, dtype=float)
    if not np.all((tols > 0.0) & (tols < np.inf)):
        raise ValueError("tol must be strictly positive and finite")
    glo, ghi = np.array([m.gershgorin() for m in sections]).T
    pad = 1e-9 * np.maximum(1.0, np.maximum(np.abs(glo), np.abs(ghi)))
    lo, hi, top = glo - pad, np.minimum(glo + 1.0, ghi) + pad, ghi + pad
    # every pass of the solve reuses what the stack derives from the sections
    stack = _Stack(sections)
    first, end = _sturm_counts(stack, np.stack((lo, hi), axis=1)).T
    grow = np.flatnonzero((end < k) & (hi < top))
    while grow.size:
        hi[grow] = np.minimum(lo[grow] + 2.0 * (hi[grow] - lo[grow]), top[grow])
        end[grow] = _sturm_counts(stack, hi[:, None])[grow, 0]
        grow = grow[(end[grow] < k) & (hi[grow] < top[grow])]
    return _bisect_sections(stack, lo, hi, first, np.minimum(end, first + k), tols)


@dataclass(frozen=True)
class CollapseScan:
    """Gap statistics of the lowest-k eigenvalues along a coupling grid.

    ``nondiscrete`` flags grid points whose predicted phase is not purely
    discrete; truncated gaps there do not measure spacings of a discrete
    spectrum and are reported for context only.
    """

    couplings: np.ndarray
    sector: SectorLabel
    cutoff: int
    k: int
    spectra: tuple[TruncatedSpectrum, ...]
    mean_gaps: np.ndarray
    min_gaps: np.ndarray
    nondiscrete: np.ndarray


def collapse_scan(
    model_factory: Callable[[float], ModelSpec],
    grid: Sequence[float],
    sector: SectorLabel,
    cutoff: int,
    k: int,
    tol: float | None = None,
) -> CollapseScan:
    """Scan a coupling grid and record consecutive-gap statistics.

    ``model_factory`` maps a coupling value to a full model; the grid must
    be strictly increasing and k at least 2.  The min-gap trend toward the
    critical coupling is the collapse diagnostic; no monotonicity is
    enforced here (finite-cutoff gap statistics are not provably monotone).
    """
    grid_arr = np.asarray(grid, dtype=float)
    if grid_arr.ndim != 1 or grid_arr.size < 1:
        raise ValueError("grid must be a non-empty 1-d sequence")
    if grid_arr.size > 1 and np.any(np.diff(grid_arr) <= 0):
        raise ValueError("grid must be strictly increasing")
    k = int(k)
    if k < 2:
        raise ValueError("k must be at least 2 to form gaps")

    # a grid point fails where a point-by-point scan would: points after a
    # failing model build are not solved, and its error waits for the checks
    # of the points before it
    models, sections, failure = [], [], None
    for g in grid_arr:
        try:
            model = model_factory(float(g))
            sections.append(jacobi_params(model, sector).truncation(cutoff))
        except Exception as exc:
            failure = exc
            break
        models.append(model)
    spectra, flags = [], []
    if sections:
        _check_lowest_k(k, int(cutoff))
        tols = [tol if tol is not None else default_bisect_tol(m) for m in sections]
        lowest = _lowest_sections(sections, k, tols)
        for g, model, section, eigs, applied_tol in zip(grid_arr, models, sections, lowest, tols):
            # the top tenth of the Gershgorin range holds truncation artifacts;
            # keep them out of the gap statistics
            glo, ghi = section.gershgorin()
            eigs = eigs[eigs <= glo + 0.9 * (ghi - glo)]
            if eigs.size < 2:
                raise ValueError(
                    f"fewer than two of the lowest {k} eigenvalues lie below the "
                    f"spurious-edge cut at coupling {float(g)!r}; lower k or raise the cutoff"
                )
            spectra.append(TruncatedSpectrum(eigs, cutoff, applied_tol))
            flags.append(predicted_phase(model, sector).kind is not PhaseKind.EMPTY_ESSENTIAL)
    if failure is not None:
        raise failure
    gaps = [np.diff(spec.eigenvalues) for spec in spectra]
    return CollapseScan(
        couplings=grid_arr,
        sector=sector,
        cutoff=int(cutoff),
        k=k,
        spectra=tuple(spectra),
        mean_gaps=np.array([float(np.mean(g)) for g in gaps]),
        min_gaps=np.array([float(np.min(g)) for g in gaps]),
        nondiscrete=np.array(flags, dtype=bool),
    )


@dataclass(frozen=True)
class EdgeDensityReport:
    """Eigenvalue counts in the width-W windows flanking a predicted edge.

    For each cutoff: the count inside the window on the essential-spectrum
    side of the endpoint, and inside the mirrored window on the
    complementary side.  Accumulation on the essential side with a bounded
    complementary side is the finite-section signature of the half-line.
    """

    endpoint: float
    direction: str
    window_width: float
    cutoffs: tuple[int, ...]
    essential_counts: tuple[int, ...]
    complementary_counts: tuple[int, ...]


def edge_density(
    params: JacobiParams,
    report_from: PhaseReport,
    cutoffs: Sequence[int],
    W: float,
) -> EdgeDensityReport:
    """Count truncated eigenvalues near the predicted essential-spectrum edge.

    Pure Sturm counting, no bisection: one recurrence pass over the largest
    section counts the whole ladder.  Requires a critical-phase report;
    window conventions are half-open away from the endpoint, so W = 0 gives
    zero counts on both sides.
    """
    if report_from.kind is not PhaseKind.CRITICAL_HALF_LINE or report_from.essential_spectrum is None:
        raise PhaseStateError("edge density requires a critical half-line phase report")
    W = float(W)
    if not 0.0 <= W < np.inf:
        raise ValueError(f"window width W must be finite and non-negative, got {W!r}")
    cutoffs = tuple(int(c) for c in cutoffs)
    if len(cutoffs) < 1 or any(c < 2 for c in cutoffs):
        raise ValueError("cutoffs must contain integers >= 2")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be strictly increasing")

    halfline = report_from.essential_spectrum
    ep = halfline.endpoint

    # one pass over the largest section counts every leading section: the
    # closed-form entries make truncation(c) the leading block of it
    m = params.truncation(cutoffs[-1])
    below, at, above = _sturm_counts(m, [ep - W, ep, ep + W], sizes=cutoffs).T
    # [ep-W, ep) and [ep, ep+W)
    lower, upper = tuple((at - below).tolist()), tuple((above - at).tolist())
    essential, complementary = (upper, lower) if halfline.direction == "up" else (lower, upper)
    return EdgeDensityReport(
        endpoint=ep,
        direction=halfline.direction,
        window_width=W,
        cutoffs=cutoffs,
        essential_counts=essential,
        complementary_counts=complementary,
    )
