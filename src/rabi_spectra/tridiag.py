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
bit-identical results, chosen by the total number of shifts alone.  The
numpy path steps rows in blocks of ``_BLOCK_ELEMS = 2**15`` rows x shifts
(256 KB of float64): one ``subtract`` forms the block's diag_i - lam, each
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

A pass can stack G sections of equal size, each with its own row of S
shifts: a numpy row of pivots is then (G, S), and the row's couplings
divide as a (G, 1) column.  A stacked row costs more per shift than a
one-section row, whose couplings divide as Python floats: per row over
400 rows (G = 20) the stacked pass took 6.2 / 8.6 / 11.4 / 16.4 / 26.7 us
for 60 / 500 / 1000 / 2000 / 4000 shifts in all, against 3.1 / 4.6 / 6.8
/ 10.6 / 14.6 us for one 1000-row section (medians of 15).  The crossover
stays at 20 shifts in all: the scalar/numpy time ratio was 1.02 / 1.24 /
1.66 at 20 / 24 / 32 shifts for one 300-row section, 1.01 at 20 and 1.21
at 40 for 20 stacked 400-row sections, and 0.75-0.80 / 0.85-0.92 / 1.22 at
20 / 24 / 32 for 2 stacked sections of 300 or 1000 rows (medians of 7).
Two stacked sections would cross later, but their passes seldom carry
20-31 shifts: a window doubling carries one shift per section still
growing, and a speculative numpy pass a few hundred or more.

A numpy pass stops at the block boundary after which every remaining
pivot is provably positive.  Per section it walks the same recurrence in
Python floats at the largest shift, from the least carried pivot
(``_pivot_floor``).  Rounded - and / are monotone, so each shift's pivot
stays at or above the walk's, row by row; while the walk stays positive
no shift gains a negative or zero pivot, and every later count equals
the current one.  A section is walked only where every section not yet
certified has a positive carried pivot at its largest shift, so a pass
that never certifies (a full spectrum's) reads one float per block, and
a walk that fails waits for the pass to step past its failing row and
then goes first, so the walks read about one tail per section and pass.
Certified sections stay in the stack: per-row ufunc overhead, not the
shift count, dominates a stacked row, so only rows no section steps save
time.  On the bench ``collapse`` ops (cutoff 300, 2 sections x 225
shifts) 68 % of numpy-pass rows are skipped, for about 4,000 walk steps
per op; the golden run skips 23 %.  Blocks keep their height: capping
them at 16 / 24 / 32 / 48 rows gave 11.4-13.3 / 11.8-12.8 / 11.8-13.2 /
12.1-13.2 ms per ``collapse`` op against 12.1-13.6 uncapped (3-5 seeds,
medians of 9-15, within this host's noise), and the golden run took 98 /
96 ms at 16 / 32 rows against 92 uncapped.

The passes of one solve (a window growth and a bisection, one section or
a lockstep grid) share a ``_Stack``: each section's squared couplings and
Gershgorin bounds are built once, on the section; the memoryviews, the
stacked rows per live subset and the certificates once per solve.  A walk
that certifies section g from row s0 at shift L0 keeps its bounds P[0] (the
least carried pivot), P[1], ... to the stop row n.  A later pass of the
solve that reaches a block end s >= s0 with the same n, a largest shift
<= L0 and a least carried pivot >= P[s - s0] certifies g with no walk:

    rounded (b - lam) - q / d is nondecreasing in d > 0 and nonincreasing in lam,
    so from d >= P[s - s0] at lam <= L0 each pivot stays >= P[s - s0 + 1], ...,
    and those are positive: the walk from s0 proved it.

Anything else walks as before, and a walk that certifies replaces the kept
one.  On the bench ``collapse`` ops of seed 961 this took the walks from
17.3 to 4.4 per op and their steps from 3,443 to 645 (golden run: 405 to
181 walks, 36,326 to 9,636 steps), and with the built-once arrays and the
memoized depth a seeded op to 0.86x and the golden run to 0.81x of the
time (in-process, alternating, medians of 7-21); every count is the same.

Bisection halves every bracket once per iteration, and each pass is
speculative: it carries the midpoints of the next d levels below every
distinct bracket, brackets * (2**d - 1) shifts, and the iterations read
their counts by tree position.  The midpoints are the floats one-level
bisection would pass, so the eigenvalues keep every bit.  A numpy pass
costs per row about ``_NUMPY_ROW_STEPS`` shift-steps plus one per shift:
the secant of the curves above from 500 to 4000 shifts gives 1130-1150
for one section (300 and 1000 rows) and for 20 stacked ones, 800 for 2.
A level runs on the scalar path instead where that is cheaper, a scalar
step costing what makes the paths tie at ``_SCALAR_MAX_SHIFTS``.  The
bracket count doubles per level up to the number of targets, and
``_speculative_depth`` takes the first depth of the passes of least total
cost until it gets there; from there on that is the depth of least cost
per level.  So with a bracket per target 1 or 2 brackets take a scalar
level, 4 take 6 levels, 15-30 take 4-5 levels and 1000 take 2, while a
full spectrum's one bracket over 1000 targets takes 12 levels at once.
In-process, the 2-point bench grids of ``collapse`` (cutoff 300, k 15)
took 22.3-22.5 ms per grid with the constant at 800-1200 and 24.7-24.9 ms
at 1500-2000, and four full 1000-row spectra averaged 208 / 203 / 204 ms
at 1200 / 1500 / 2000 but 246 ms at 1000, where 1000 brackets drop to
one level per pass (medians of 9-13); 1200 keeps both near their best.
A full 1000-row spectrum takes 16 passes (20 when the depth held the
bracket count fixed), a collapse grid of 20 points (cutoff 400, k 20)
solved in lockstep 21.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

_EPS = float(np.finfo(float).eps)

# shift count from which one numpy pass beats per-shift Python-float loops
# (the measured crossover in the module docstring)
_SCALAR_MAX_SHIFTS = 20

# per-row cost of one numpy pass beyond its shifts, in numpy shift-steps
# (the measured curve in the module docstring); sets the speculative depth
_NUMPY_ROW_STEPS = 1200

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
    share across threads; what Sturm passes derive from them (the squared
    couplings, the Gershgorin bounds) is built on first use, read-only.
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
        return self._gershgorin

    @functools.cached_property
    def _gershgorin(self) -> tuple[float, float]:
        radius = np.zeros(self.diag.size)
        if self.offdiag.size:
            radius[:-1] += self.offdiag
            radius[1:] += self.offdiag
        return float(np.min(self.diag - radius)), float(np.max(self.diag + radius))

    @functools.cached_property
    def _off_sq(self) -> np.ndarray:
        # a zero coupling into row 0 and d_(-1) = inf give d_0 = diag_0 - lam
        # exactly, so row 0 runs through the same Sturm step as every other row
        off_sq = np.concatenate(([0.0], self.offdiag**2))
        off_sq.setflags(write=False)
        return off_sq

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


class _Certificate(NamedTuple):
    """A tail walk that certified a section: from row ``start`` to ``stop`` at shift ``lam``.

    ``bounds[0]`` is the least carried pivot the walk started from and
    ``bounds[i]`` its bound on the pivots of row start + i - 1, every one
    positive and finite.
    """

    start: int
    stop: int
    lam: float
    bounds: list

    def covers(self, start: int, stop: int, floor: float, lam: float) -> bool:
        """Whether this walk certifies the section again, with no walk.

        That is at row ``start`` of a pass to ``stop`` whose least carried
        pivot is ``floor`` and largest shift ``lam``: a walk from there would
        stay at or above this one row by row, since rounded - and / are
        monotone in the previous pivot and in the shift.  An earlier row,
        another stop, a larger shift, a lower pivot, NaN or inf refuse.
        """
        return (
            stop == self.stop
            and self.start <= start <= stop
            and -np.inf < lam <= self.lam
            and self.bounds[start - self.start] <= floor < np.inf
        )


class _Stack(tuple):
    """Equal-size sections counted by the Sturm passes of one solve.

    It is the tuple of its sections, so it goes wherever a sequence of
    sections does, ``_sturm_counts`` included.  It keeps what the passes of
    the solve would otherwise rebuild each time: memoryviews of each
    section's diagonal and squared couplings, the numpy pass's stacked rows
    (``numpy_rows``) and the tail certificates, at most one per section.
    ``subset`` gives the stack of some of the sections, sharing this one's
    views and certificates; the last subset built is kept.  All of it lives
    as long as the solve holds its stack.
    """

    def __new__(cls, sections, views=None, certificates=None, index=None):
        stack = super().__new__(cls, sections)
        if views is None:
            # memoryviews yield Python floats without a list copy of the section
            views = [(memoryview(s.diag), memoryview(s._off_sq)) for s in stack]
            certificates, index = [None] * len(stack), range(len(stack))
        stack.views, stack.certificates, stack.index = views, certificates, index
        stack._rows = stack._last = None
        return stack

    def subset(self, keep: list[int]) -> "_Stack":
        """The stack of sections ``keep`` (increasing positions) of this one."""
        if len(keep) == len(self):
            return self
        index = [self.index[g] for g in keep]
        if self._last is None or self._last.index != index:
            self._last = _Stack([self[g] for g in keep], [self.views[g] for g in keep],
                                self.certificates, index)
        return self._last

    def numpy_rows(self):
        """Diagonal and squared couplings as a numpy pass steps them, built on its first call.

        One section gives an (n, 1) diagonal column and Python-float
        couplings, G sections an (n, G, 1) diagonal and (G, 1) coupling
        columns, one per row; the arrays are read-only.
        """
        if self._rows is None:
            if len(self) == 1:
                self._rows = self[0].diag[:, None], self[0]._off_sq.tolist()
            else:
                diag = np.stack([s.diag for s in self], axis=1)[:, :, None]
                off = np.stack([s._off_sq for s in self], axis=1)[:, :, None]
                diag.setflags(write=False)
                off.setflags(write=False)
                self._rows = diag, list(off)
        return self._rows


def _sturm_counts(m, lams, sizes=None) -> np.ndarray:
    """Eigenvalue counts of ``m`` strictly below each shift in ``lams``.

    Runs the shift-safe LDL^T recurrence d_i = (diag_i - lam) - off_(i-1)^2 / d_(i-1);
    the number of negative d_i equals the number of eigenvalues below the
    shift.  Callers pass every shift they need in one call.

    ``m`` is one section with a 1-d ``lams``, or a sequence of G sections
    of equal size with ``lams`` of shape (G, S): row g holds the shifts of
    section g, and the result gains a section axis before the shift axis.
    Each section sees the same IEEE operations in the same order as when
    counted alone.

    The path follows the total number of shifts alone: below
    ``_SCALAR_MAX_SHIFTS`` (the measured crossover, see the module
    docstring) each shift runs as a Python-float loop, otherwise one numpy
    pass carries all shifts of all sections.  Both make the same IEEE
    operations in the same order, so their counts (and every bisection
    bracket built on them) are identical.

    The numpy pass steps rows in blocks of ``_BLOCK_ELEMS // lams.size``
    rows (at least one), and a block never crosses a ``sizes`` stop.  Zero
    pivots are looked for once per block: the first row holding one gets
    the scalar path's nudge there, and the rows after it, which divided by
    zero, are dropped and stepped again as the next block.

    The pass stops at a block's end once every section is certified: the
    recurrence walked at the section's largest shift from its least
    carried pivot (``_pivot_floor``) stays positive to the last row, and
    by monotone rounding so do all its shifts' pivots, so no later count
    changes.  A section is certified once and stays in the stack.  Walks
    run only where every section not yet certified has a positive carried
    pivot at its largest shift, and a section whose walk failed waits
    until the pass has stepped past the failing row.

    ``m`` may be a ``_Stack``, as every pass of one solve passes it: its
    rows are then built once for the solve, and a section that an earlier
    pass certified from row s0 at shift L0, with bounds P, is certified
    again with no walk at a block end s >= s0 of a pass to the same stop
    row whose largest shift is <= L0 and least carried pivot >= P[s - s0]
    (``_Certificate.covers``): from there, by the same monotone rounding,
    every pivot stays at or above the kept walk's, which stayed positive.
    Otherwise the section is walked, and a walk that certifies replaces the
    kept one.  On the bench ``collapse`` ops this cut the walks per op from
    17.3 to 4.4 (see the module docstring).

    With ``sizes=None`` the result has one count per shift.  Otherwise
    ``sizes`` is a strictly increasing sequence in [1, n_max] and the
    result has one row per size: row j holds the counts of the leading
    sizes[j] x sizes[j] section, whose pivots are a prefix of the full one's.
    """
    stacked = not isinstance(m, SymTridiag)
    stack = m if isinstance(m, _Stack) else _Stack(m if stacked else (m,))
    lams = np.asarray(lams, dtype=float)
    n_max = stack[0].n_max
    if lams.shape[:-1] != ((len(stack),) if stacked else ()) or any(
        s.n_max != n_max for s in stack
    ):
        raise ValueError("stacked sections need equal sizes and one row of shifts each")
    lams = lams.reshape(len(stack), -1)
    stops = [n_max] if sizes is None else [int(s) for s in sizes]
    if not stops or stops[0] < 1 or stops[-1] > n_max or any(
        b <= a for a, b in zip(stops, stops[1:])
    ):
        raise ValueError(f"sizes must increase strictly within [1, {n_max}]")

    counts = np.empty((len(stops), *lams.shape), dtype=np.int64)
    if lams.size < _SCALAR_MAX_SHIFTS:
        for g, (diag_v, off_v) in enumerate(stack.views):
            for k, lam in enumerate(lams[g].tolist()):
                d, count, start = np.inf, 0, 0
                for j, stop in enumerate(stops):
                    for b, q in zip(diag_v[start:stop], off_v[start:stop]):
                        d = (b - lam) - q / d
                        if d == 0.0:
                            d = _nudge(b, lam)
                        if d < 0.0:
                            count += 1
                    counts[j, g, k] = count
                    start = stop
    else:
        # a row of pivots is (G, S), and its couplings divide as a (G, 1)
        # column; one section keeps 1-d rows and divides by Python floats,
        # which costs less per row
        diag, off = stack.numpy_rows()
        shifts = lams[0] if len(stack) == 1 else lams
        # no block outgrows the section, so neither does the buffer
        buf = np.empty((max(1, min(stops[-1], _BLOCK_ELEMS // lams.size)), *shifts.shape))
        row_views = list(buf)  # once per pass, not once per block
        carry, t = np.full(shifts.shape, np.inf), np.empty(shifts.shape)
        count, start, n = np.zeros(shifts.shape, np.int64), 0, stops[-1]
        # per section: its carried pivots, the flat index of its largest
        # shift (in lams and carry alike) and the row from which its tail may
        # be checked again
        carries = carry.reshape(lams.shape)
        tops = (lams.argmax(axis=1) + lams.shape[1] * np.arange(len(stack))).tolist()
        retry, uncertified = [0] * len(stack), list(range(len(stack)))
        # q / d overflows where a shift sits a subnormal step from a pivot,
        # and rows after a zero pivot divide by it until the block is checked
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for j, stop in enumerate(stops):
                while start < stop:
                    block = buf[: stop - start]
                    end = start + len(block)
                    np.subtract(diag[start:end], shifts, out=block)
                    d = carry
                    # zip stops at the block's last row
                    for row, q in zip(row_views, off[start:end]):
                        np.divide(q, d, out=t)
                        np.subtract(row, t, out=row)
                        d = row
                    zero = block == 0.0
                    if zero.any():
                        # nudge the first zero pivot row, drop the rows after it
                        z = int(np.argmax(zero.reshape(len(zero), -1).any(axis=1)))
                        block[z] = np.where(zero[z], _nudge(diag[start + z], shifts), block[z])
                        block = block[: z + 1]
                    # uint16 holds the sum: a block has at most _BLOCK_ELEMS < 2**16 rows
                    count += (block < 0).sum(axis=0, dtype=np.uint16)
                    np.copyto(carry, block[-1])
                    start += len(block)
                    # check tails only where the pass could stop: every section
                    # not yet certified is due and has a positive pivot at its
                    # largest shift, which its certificate needs
                    if start < n and all(
                        retry[g] <= start and carry.item(tops[g]) > 0.0 for g in uncertified
                    ):
                        while uncertified:
                            g = uncertified.pop()
                            floor, lam = carries[g].min().item(), lams.item(tops[g])
                            kept = stack.certificates[stack.index[g]]
                            if kept is not None and kept.covers(start, n, floor, lam):
                                continue
                            diag_v, off_v = stack.views[g]
                            bounds = [floor]
                            walked, bound = _pivot_floor(
                                zip(diag_v[start:n], off_v[start:n]), floor, lam, bounds
                            )
                            if not 0.0 < bound < np.inf:
                                # checked again, and first, once past the failing row
                                retry[g] = start + walked
                                uncertified.append(g)
                                break
                            stack.certificates[stack.index[g]] = _Certificate(start, n, lam, bounds)
                        else:
                            start = n  # every count stays as it is
                counts[j] = count
    if not stacked:
        counts = counts[:, 0]
    return counts[0] if sizes is None else counts


def _pivot_floor(rows, d, lam, bounds=None):
    """Walk a lower bound on the pivots of every shift <= ``lam`` over ``rows``.

    ``rows`` yields (diag_i, off_(i-1)^2) from the row after the carried
    pivots, whose least is ``d``.  The walk runs the recurrence at ``lam``
    from ``d``: rounded - and / are monotone, so while its bound stays
    positive every shift <= lam keeps a pivot at or above it, row by row.
    Stops at the first bound that is not positive and finite, having
    checked ``d`` first.  Each bound walked is appended to the list
    ``bounds``, if given.  Returns the rows walked and the last bound (``d``
    if none).
    """
    if bounds is None:
        bounds = []
    before = len(bounds)
    if 0.0 < d < np.inf:
        append = bounds.append
        for b, q in rows:
            d = (b - lam) - q / d
            append(d)
            if not 0.0 < d < np.inf:
                break
    return len(bounds) - before, d


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
    1000 rows takes 16 passes instead of 40.
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
    stop = end if k is None else min(end, first + k)
    eigs = _bisect_sections([m], [lo], [hi], [first], [stop], [tol])[0]
    return TruncatedSpectrum(eigs, m.n_max, tol, (lo, hi))


def _bisect_sections(ms, lo, hi, first, stop, tol) -> list[np.ndarray]:
    """Eigenvalues first[g] .. stop[g] - 1 of each section ms[g], bisected in lockstep.

    Section g's targets start bracketed by [lo[g], hi[g]) and are halved to
    half-width tol[g].  Every iteration halves each bracket of every section
    still running, and a section stops once all of its targets are done or
    stuck, where a solve of it alone would break.  So each section gets the
    bytes a solve of it alone gives, while each Sturm pass counts the next
    levels of all sections at once (``_speculative_counts``).  ``ms`` may be
    the solve's ``_Stack``; other sequences are stacked here.
    """
    ms = ms if isinstance(ms, _Stack) else _Stack(ms)
    sizes = np.maximum(np.asarray(stop) - np.asarray(first), 0)
    sec = np.repeat(np.arange(len(ms)), sizes)
    offset = np.repeat(np.asarray(first) - (np.cumsum(sizes) - sizes), sizes)
    targets = np.arange(sec.size) + offset
    los = np.asarray(lo, dtype=float)[sec]
    his = np.asarray(hi, dtype=float)[sec]
    tols = np.asarray(tol, dtype=float)[sec]
    level_counts = []
    while True:
        mids = 0.5 * (los + his)
        done = (his - los) <= 2.0 * tols
        stuck = (mids <= los) | (mids >= his)
        live = np.bincount(sec[~(done | stuck)], minlength=len(ms)) > 0
        if not live.any():
            break
        if not level_counts:
            level_counts, row, node = _speculative_counts(ms, los, his, sec, live)
        below = level_counts.pop(0)[row, node] >= targets + 1
        move = live[sec]
        his = np.where(move & below, mids, his)
        los = np.where(move & ~below, mids, los)
        # the bracket just taken is child 2*node (down) or 2*node + 1 (up)
        node = 2 * node + ~below
    eigs = np.split(0.5 * (los + his), np.cumsum(sizes)[:-1])
    # brackets for consecutive indices can overlap at tol scale; the true
    # spectrum is simple, so restore (weak) monotonicity
    return [np.maximum.accumulate(e) for e in eigs]


def _speculative_depth(brackets: int, targets: int) -> int:
    """Bisection levels one Sturm pass should settle for ``brackets`` brackets.

    Settling d levels takes brackets * (2**d - 1) shifts and leaves up to
    brackets * 2**d brackets, never more than ``targets``.  Per row, a numpy
    pass costs ``_NUMPY_ROW_STEPS`` plus one step per shift, and a scalar
    pass (fewer than ``_SCALAR_MAX_SHIFTS`` shifts) a scalar step per shift,
    where a scalar step costs what makes the two paths tie at the
    crossover.  Once the brackets reach ``targets`` their count stays, and
    a level costs at least ``steady``, the least cost per level of a pass
    there.  Returns the first depth of the passes of least total cost up to
    that point, each level they settle priced down by ``steady``; with as
    many brackets as targets this is the depth of least cost per level.
    Past 2**d > _NUMPY_ROW_STEPS deeper passes only cost more.  The rule is
    memoized, keyed by the two constants too.
    """
    return _least_cost_depth(brackets, max(targets, brackets), _NUMPY_ROW_STEPS, _SCALAR_MAX_SHIFTS)


@functools.lru_cache(maxsize=256)
def _least_cost_depth(brackets: int, targets: int, row_steps: int, scalar_max: int) -> int:
    """``_speculative_depth`` for targets >= brackets, at the given cost constants."""
    scalar_step = (row_steps + scalar_max) / scalar_max
    depths = range(1, row_steps.bit_length() + 2)

    def costs(b: int) -> list[float]:
        # one pass from b brackets, per depth
        shifts = [b * (2**d - 1) for d in depths]
        return [s * scalar_step if s < scalar_max else row_steps + s for s in shifts]

    top = costs(targets)
    steady = min(c / d for d, c in zip(depths, top))
    grow = 0  # levels until the brackets may reach the targets
    while brackets << grow < targets:
        grow += 1
    # least cost from k levels down until the targets are reached, net of steady
    ahead = [0.0] * (grow + 1)
    for k in reversed(range(grow + 1)):
        net = [c - d * steady + ahead[min(k + d, grow)]
               for d, c in zip(depths, top if k == grow else costs(brackets << k))]
        if k < grow:
            ahead[k] = min(net)
    return depths[net.index(min(net))]


def _speculative_counts(ms, los, his, sec, live):
    """Sturm counts at the midpoints of the next bisection levels of each bracket.

    Covers the targets of the ``live`` sections; ``sec`` gives each
    target's section.  Targets sharing a bracket are adjacent (a lower
    target's path never passes a higher one's), so they group without a
    sort.  Each distinct bracket roots a tree; level l holds its 2**l
    descendants, child ``2*node`` taking the lower half and ``2*node + 1``
    the upper.  Each live section gets one row of shifts, padded to equal
    length by repeating its last bracket, and one stacked pass counts them
    all, ``_speculative_depth`` levels deep.  Returns the counts of each
    level (live section x node), in that order, and each target's row and
    node on the first; both are 0 for targets of other sections.
    """
    pick = np.flatnonzero(live[sec])
    lo, hi, s = los[pick], his[pick], sec[pick]
    new = np.empty(pick.size, dtype=bool)
    new[0] = True
    new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]) | (s[1:] != s[:-1])
    bracket = np.cumsum(new) - 1
    row = (np.cumsum(live) - 1)[s]
    widths = np.bincount(row[new])
    starts = np.cumsum(widths) - widths
    pad = starts[:, None] + np.minimum(np.arange(widths.max()), widths[:, None] - 1)
    lows, highs = lo[new][pad], hi[new][pad]
    mids = [0.5 * (lows + highs)]
    # no row of brackets outgrows its section's target count
    targets = len(pad) * int(np.bincount(row).max())
    for _ in range(1, _speculative_depth(lows.size, targets)):
        # interleave the children so that node j's lie at 2*j and 2*j + 1
        lows = np.stack((lows, mids[-1]), axis=2).reshape(len(pad), -1)
        highs = np.stack((mids[-1], highs), axis=2).reshape(len(pad), -1)
        mids.append(0.5 * (lows + highs))
    counts = _sturm_counts(ms.subset(np.flatnonzero(live).tolist()), np.concatenate(mids, axis=1))
    levels = np.split(counts, np.cumsum([level.shape[1] for level in mids[:-1]]), axis=1)
    rows, nodes = np.zeros(sec.size, dtype=np.int64), np.zeros(sec.size, dtype=np.int64)
    rows[pick], nodes[pick] = row, bracket - starts[row]
    return levels, rows, nodes


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
