"""Symmetric tridiagonal kernel.

Provides the matrix type used for finite sections of half-line Jacobi
operators, Sturm-sequence eigenvalue counting, a windowed bisection
eigensolver, and partial-sum diagnostics for the Carleman condition
(divergence of sum 1/a_n, the standard essential-self-adjointness test).

Eigenvalue extraction is bisection-only: the dominant workload is windowed
queries (counts near a spectral edge, lowest-k eigenvalues), for which
Sturm counts are the natural primitive.  Dense QR-style solvers are used
only as independent oracles in the test suite.

``_sturm_counts`` is the one Sturm recurrence.  It has two paths with
bit-identical results, chosen by the number of shifts alone.  The numpy
path steps rows in blocks of ``_BLOCK_ELEMS = 2**15`` rows x shifts (256 KB
of float64): one ``subtract.outer`` forms the block's diag_i - lam, each
row then takes two in-place ufunc calls, and the block's signs and zero
pivots are read once at its end.  A numpy step so costs a fixed 1.5-3 us
of call overhead per row however few shifts it carries, about as much as
20 Python-float steps (one per row and shift).  On a shared 2-core x86 host
(Python 3.11, numpy 2.4) the scalar/numpy time ratio was 0.84-1.16 at 16
shifts, 1.03-1.30 at 20, 1.26-1.38 at 24 and 1.56-2.20 at 32 (medians of 7
on sections of 300, 1000 and 3000 rows, two sessions), so fewer than
``_SCALAR_MAX_SHIFTS = 20`` shifts run as per-shift Python loops and the
rest as one numpy pass.  Bisection for a few eigenvalues, window ends and edge
counts fall on the scalar side, full spectra and solves for 20 or more
eigenvalues on the numpy side.  Given leading-section sizes, one pass also
returns the counts of every nested leading section (a cutoff ladder), since
their pivots are prefixes of the largest section's.

Bisection halves every bracket once per iteration, and a numpy pass over
4000 shifts costs about twice one over 1000, so each pass of a solve
whose passes run on the numpy path is speculative: it carries the
midpoints of the next few levels below every distinct bracket, and the
iterations read their counts by tree position.  The midpoints are the
floats one-level bisection would pass, so the eigenvalues keep every bit.
On the same host a numpy pass over 1000 rows took 3.0 / 7.3 / 12.2 / 12.5 /
15.4 / 21.8 / 28.9 ms for 60 / 1000 / 2000 / 3000 / 4000 / 6000 / 8000
shifts (medians of 7), and two full 1000-row spectra took 441-477 ms in 80
passes one level at a time, 366-439 ms in 62-64 passes with budgets of
1000-2000 shifts per pass, 340-374 ms in 32 passes with 3000-4000 (a tie
in an alternating run), 379-399 ms with 6000 and 501-507 ms in 22 passes
with 8000 (medians of 5, two sessions); ``_SPECULATIVE_MAX_SHIFTS = 4000``
sits in the best band.
The first pass has one bracket, so it settles 11 levels with 2047 shifts.
Solves with fewer than ``_SCALAR_MAX_SHIFTS`` targets stay one level per
pass, since a scalar shift costs its full step, but still send one shift
per distinct bracket rather than one per target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_EPS = float(np.finfo(float).eps)

# shift count from which one numpy pass beats per-shift Python-float loops
# (the measured crossover in the module docstring)
_SCALAR_MAX_SHIFTS = 20

# shifts one speculative bisection pass may carry on the numpy path (the
# measured curve in the module docstring)
_SPECULATIVE_MAX_SHIFTS = 4000

# elements of one numpy block of rows x shifts (256 KB of float64)
_BLOCK_ELEMS = 1 << 15


def _readonly(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _eval_rule(rule: Callable, idx: np.ndarray) -> np.ndarray:
    """Evaluate a sequence rule on an index array, tolerating scalar-only rules."""
    try:
        vals = np.asarray(rule(idx), dtype=float)
        if vals.shape == idx.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(rule(int(i))) for i in idx], dtype=float)


@dataclass(frozen=True)
class SymTridiag:
    """Real symmetric tridiagonal matrix with strictly positive off-diagonal.

    The positivity requirement matches the Jacobi-matrix convention and
    guarantees simple eigenvalues.  Instances are immutable and safe to
    share across threads.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", _readonly(self.diag))
        object.__setattr__(self, "offdiag", _readonly(self.offdiag))
        if self.diag.ndim != 1 or self.diag.size < 1:
            raise ValueError("diag must be a non-empty 1-d sequence")
        if self.offdiag.shape != (self.diag.size - 1,):
            raise ValueError("offdiag must have length len(diag) - 1")
        if not np.all(np.isfinite(self.diag)):
            raise ValueError("diag entries must be finite")
        if self.offdiag.size and not (
            np.all(np.isfinite(self.offdiag)) and np.all(self.offdiag > 0.0)
        ):
            raise ValueError("offdiag entries must be finite and strictly positive")

    @property
    def n_max(self) -> int:
        return int(self.diag.size)

    def gershgorin(self) -> tuple[float, float]:
        """Interval guaranteed to contain every eigenvalue (row-sum discs)."""
        radius = np.zeros(self.diag.size)
        if self.offdiag.size:
            radius[:-1] += self.offdiag
            radius[1:] += self.offdiag
        return float(np.min(self.diag - radius)), float(np.max(self.diag + radius))

    def dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        if self.offdiag.size:
            idx = np.arange(self.diag.size - 1)
            out[idx, idx + 1] = self.offdiag
            out[idx + 1, idx] = self.offdiag
        return out


@dataclass(frozen=True)
class TruncatedSpectrum:
    """Eigenvalues of a finite truncation located inside a window.

    ``eigenvalues`` is sorted ascending; each entry was bracketed by
    bisection to half-width at most ``tol``.
    """

    eigenvalues: np.ndarray
    n_max: int
    tol: float
    window: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))
        if self.eigenvalues.size > 1 and np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be sorted ascending")

    def __len__(self) -> int:
        return int(self.eigenvalues.size)


def _sturm_counts(m: SymTridiag, lams, sizes=None) -> np.ndarray:
    """Eigenvalue counts of ``m`` strictly below each shift in ``lams``.

    Runs the shift-safe LDL^T recurrence d_i = (diag_i - lam) - off_(i-1)^2 / d_(i-1);
    the number of negative d_i equals the number of eigenvalues below the
    shift.  Callers pass every shift they need on one section in one call.

    The path follows ``len(lams)`` alone: below ``_SCALAR_MAX_SHIFTS`` (the
    measured crossover, see the module docstring) each shift runs as a
    Python-float loop, otherwise one numpy pass carries all shifts.  Both
    make the same IEEE operations in the same order, so their counts (and
    every bisection bracket built on them) are identical.

    The numpy pass steps rows in blocks of ``_BLOCK_ELEMS // len(lams)``
    rows (at least one), and a block never crosses a ``sizes`` stop.  Zero
    pivots are looked for once per block: the first one gets the scalar
    path's nudge, and the rows after it, which divided by zero, are dropped
    and stepped again as the next block.

    With ``sizes=None`` the result has one count per shift.  Otherwise
    ``sizes`` is a strictly increasing sequence in [1, m.n_max] and the
    result has one row per size: row j holds the counts of the leading
    sizes[j] x sizes[j] section, whose pivots are a prefix of the full one's.
    """
    # a zero coupling into row 0 and d_(-1) = inf give d_0 = diag_0 - lam
    # exactly, so row 0 runs through the same step as every other row
    diag, off_sq = m.diag, np.concatenate(([0.0], m.offdiag**2))
    lams = np.asarray(lams, dtype=float)
    stops = [m.n_max] if sizes is None else [int(s) for s in sizes]
    if not stops or stops[0] < 1 or stops[-1] > m.n_max or any(
        b <= a for a, b in zip(stops, stops[1:])
    ):
        raise ValueError(f"sizes must increase strictly within [1, {m.n_max}]")

    counts = np.empty((len(stops), lams.size), dtype=np.int64)
    if lams.size < _SCALAR_MAX_SHIFTS:
        # memoryviews yield Python floats without a list copy of the section
        diag_v, off_v = memoryview(diag), memoryview(off_sq)
        for k, lam in enumerate(lams.tolist()):
            d, count, start = np.inf, 0, 0
            for j, stop in enumerate(stops):
                for b, q in zip(diag_v[start:stop], off_v[start:stop]):
                    d = (b - lam) - q / d
                    if d == 0.0:
                        d = _nudge(b, lam)
                    if d < 0.0:
                        count += 1
                counts[j, k] = count
                start = stop
    else:
        off = off_sq.tolist()
        # no block outgrows the section, so neither does the buffer
        buf = np.empty((max(1, min(stops[-1], _BLOCK_ELEMS // lams.size)), lams.size))
        row_views = list(buf)  # once per pass, not once per block
        carry, t = np.full(lams.shape, np.inf), np.empty(lams.shape)
        count, start = np.zeros(lams.shape, np.int64), 0
        # q / d overflows where a shift sits a subnormal step from a pivot,
        # and rows after a zero pivot divide by it until the block is checked
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for j, stop in enumerate(stops):
                while start < stop:
                    block = buf[: stop - start]
                    end = start + len(block)
                    np.subtract.outer(diag[start:end], lams, out=block)
                    d = carry
                    # zip stops at the block's last row
                    for row, q in zip(row_views, off[start:end]):
                        np.divide(q, d, out=t)
                        np.subtract(row, t, out=row)
                        d = row
                    zero = block == 0.0
                    if zero.any():
                        # nudge the first zero pivot, drop the rows after it
                        z = int(np.argmax(zero.any(axis=1)))
                        block[z] = np.where(zero[z], _nudge(diag[start + z], lams), block[z])
                        block = block[: z + 1]
                    # uint16 holds the sum: a block has at most _BLOCK_ELEMS < 2**16 rows
                    count += (block < 0).sum(axis=0, dtype=np.uint16)
                    np.copyto(carry, block[-1])
                    start += len(block)
                counts[j] = count
    return counts[0] if sizes is None else counts


def _nudge(b, lam):
    # exact zero pivots would blow up the next division; pivots decrease in
    # lam, so nudging them positive counts at lam - 0, i.e. strictly below
    return (abs(b) + abs(lam) + 1.0) * _EPS


def sturm_count(m: SymTridiag, lam: float) -> int:
    """Number of eigenvalues of ``m`` strictly less than ``lam``."""
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValueError("lam must be finite")
    return int(_sturm_counts(m, [lam])[0])


def default_bisect_tol(m: SymTridiag) -> float:
    """Default bisection half-width: 1e-12 relative to the spectral radius.

    Keeps relative accuracy near the large eigenvalues of unbounded-growth
    truncations while staying absolute for order-one spectra.
    """
    lo, hi = m.gershgorin()
    return 1e-12 * max(1.0, abs(lo), abs(hi))


def eigenvalues_bisect(
    m: SymTridiag,
    window: tuple[float, float] | None = None,
    tol: float | None = None,
    *,
    k: int | None = None,
) -> TruncatedSpectrum:
    """All eigenvalues of ``m`` inside ``window``, each bisected to half-width <= tol.

    The half-open convention matches Sturm counting: the result holds the
    eigenvalues in [window[0], window[1]), and its length always equals
    sturm_count(m, hi) - sturm_count(m, lo).  ``window=None`` solves over a
    padded Gershgorin interval, returning the full spectrum.  An empty
    window yields an empty spectrum, not an error.  With ``k`` only the
    lowest k eigenvalues in the window are bisected and returned (LAPACK's
    ``select='i'``), so the length is min(k, sturm_count(m, hi) -
    sturm_count(m, lo)).  They are the full solve's first k bit for bit,
    except where the full solve runs a level longer for a bracket above
    them; that takes a tol within a few ulps of the float spacing, and
    moves an eigenvalue by an ulp, still within tol.

    Every bracket is halved once per iteration until all are done or stuck.
    A Sturm pass counts at the midpoints of the next levels of every
    distinct bracket (``_speculative_counts``), and the iterations read
    their counts by tree position.  Those are the floats a pass per level
    would count at, so every bracket keeps its bits; a full spectrum of
    1000 rows takes about 16 passes instead of 40.
    """
    if tol is None:
        tol = default_bisect_tol(m)
    tol = float(tol)
    if not tol > 0.0:
        raise ValueError("tol must be strictly positive")
    if k is not None and k < 1:
        raise ValueError("k must be at least 1")
    if window is None:
        glo, ghi = m.gershgorin()
        pad = 64.0 * _EPS * max(1.0, abs(glo), abs(ghi))
        window = (glo - pad, ghi + pad)
    lo, hi = float(window[0]), float(window[1])
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("window bounds must be finite")
    if hi <= lo:
        return TruncatedSpectrum(np.empty(0), m.n_max, tol, (lo, hi))

    first, end = _sturm_counts(m, [lo, hi])
    targets = np.arange(first, end if k is None else min(end, first + k))
    if targets.size == 0:
        return TruncatedSpectrum(np.empty(0), m.n_max, tol, (lo, hi))

    los = np.full(targets.size, lo)
    his = np.full(targets.size, hi)
    level_counts = []
    while True:
        mids = 0.5 * (los + his)
        done = (his - los) <= 2.0 * tol
        stuck = (mids <= los) | (mids >= his)
        if np.all(done | stuck):
            break
        if not level_counts:
            level_counts, node = _speculative_counts(
                m, los, his, deep=targets.size >= _SCALAR_MAX_SHIFTS
            )
        counts = level_counts.pop(0)[node]
        below = counts >= targets + 1
        his = np.where(below, mids, his)
        los = np.where(below, los, mids)
        # the bracket just taken is child 2*node (down) or 2*node + 1 (up)
        node = 2 * node + ~below
    eigs = 0.5 * (los + his)
    # brackets for consecutive indices can overlap at tol scale; the true
    # spectrum is simple, so restore (weak) monotonicity
    eigs = np.maximum.accumulate(eigs)
    return TruncatedSpectrum(eigs, m.n_max, tol, (lo, hi))


def _speculative_counts(
    m: SymTridiag, los: np.ndarray, his: np.ndarray, deep: bool
) -> tuple[list[np.ndarray], np.ndarray]:
    """Sturm counts at the midpoints of the next bisection levels of each bracket.

    Targets sharing a bracket are adjacent (a lower target's path never
    passes a higher one's), so they group without a sort.  Each distinct
    bracket roots a tree; level l holds its 2**l descendants, child
    ``2*node`` taking the lower half and ``2*node + 1`` the upper.  With
    ``deep`` the tree is as deep as ``_SPECULATIVE_MAX_SHIFTS`` allows,
    else one level.  Returns the counts of each level, in that order, and
    each target's node on the first.
    """
    new = np.empty(los.size, dtype=bool)
    new[0] = True
    new[1:] = (los[1:] != los[:-1]) | (his[1:] != his[:-1])
    node = np.cumsum(new) - 1
    lows, highs = los[new], his[new]
    depth = 1
    if deep:
        # the largest depth whose 2**depth - 1 shifts per bracket fit the budget
        depth = max(1, (_SPECULATIVE_MAX_SHIFTS // lows.size + 1).bit_length() - 1)
    mids = [0.5 * (lows + highs)]
    for _ in range(1, depth):
        # interleave the children so that node j's lie at 2*j and 2*j + 1
        lows = np.stack((lows, mids[-1]), axis=1).ravel()
        highs = np.stack((mids[-1], highs), axis=1).ravel()
        mids.append(0.5 * (lows + highs))
    counts = _sturm_counts(m, np.concatenate(mids))
    return np.split(counts, np.cumsum([level.size for level in mids[:-1]])), node


def carleman_partial_sums(a: Callable, n_terms: int) -> np.ndarray:
    """Partial sums S_k = sum_{n=0}^{k} 1/a(n) for k < n_terms.

    Divergence of the full series is the Carleman condition: it guarantees
    essential self-adjointness of the Jacobi operator built from (a_n).
    Only the finite trend is computed here; callers inspect its growth.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    idx = np.arange(n_terms, dtype=float)
    vals = _eval_rule(a, idx)
    nonpos = ~(vals > 0.0)
    if nonpos.any():
        i = int(np.argmax(nonpos))
        raise ValueError(f"off-diagonal rule must be strictly positive; a({i}) = {vals[i]!r}")
    return np.cumsum(1.0 / vals)
