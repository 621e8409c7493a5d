"""Symmetric tridiagonal kernel.

The matrix type for finite sections of half-line Jacobi operators, Sturm
counts, a windowed bisection eigensolver (windowed queries are the
workload; dense solvers are test oracles only), and Carleman partial sums
(divergence of sum 1/a_n, the standard essential-self-adjointness test).

``_sturm_counts`` is the one Sturm recurrence.  It counts eigenvalues
strictly below each shift: an exact zero pivot is nudged positive
(``_nudge``), which counts at lam - 0.  Its scalar path, which steps three
shifts per row loop, then a pair, then one, its numpy path and a pass
stacking equal-size sections make for each shift the same IEEE operations
in the same order, so their counts are identical.  The scalar path does
not step a shift at or outside the Gershgorin interval whose every pivot a
float-exact bound decides (``_gershgorin_certifies``): it counts 0 below
the section and every row above it, as stepping would.  So do both paths of a derivative pass,
which also carries the pivots' lam-derivatives; its slope differs between
them only in the order of summation.

A numpy pass stops at a block end once each section's tail is certified:
the recurrence walked in Python floats at its largest shift from its
least carried pivot (``_pivot_floor``) stays positive to the stop row.
Rounded (b - lam) - q / d is nondecreasing in d > 0 and nonincreasing in
lam, so every shift's pivot stays at or above the walk's and no later
count changes.

Bisection keeps the bits of the one-level loop, which counts at every
bracket's midpoint, by one rule.  Counts are monotone in the shift, so for
target i (0-based) there is a least float tau_i whose count reaches i + 1,
and count(mid) >= i + 1 exactly when mid >= tau_i.  Every count a solve
takes narrows an interval (A, B] around each tau_i, where count(A) <= i <
count(B): a midpoint >= B goes down and one <= A goes up, as the one-level
loop would send it.  Only a midpoint inside (A, B) takes a pass, which
counts the next levels below every distinct bracket or, once a solve that
``_newton_pays`` for has located each tau_i by derivative passes on
det(T - lam) and certified it by a count either side, the midpoints the
remaining levels may still meet inside (A, B).  A derivative pass steps
each iterate by the secular-equation fit psi ~ 1 / (lam - mu) + c through
it and the target's previous iterate (``_secular_step``), or by Newton's
step where there is none or the fit fails; either way the located bounds
only choose which midpoints to count, so the bytes stay the one-level
loop's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_EPS = float(np.finfo(float).eps)

# shift count from which one numpy pass beats per-shift loops (timings in CHANGES.md)
_SCALAR_MAX_SHIFTS = 20

# per-row cost of a numpy pass beyond its shifts, in shift-steps; sets the speculative depth
_NUMPY_ROW_STEPS = 1200

# elements of one numpy block of rows x shifts (256 KB of float64)
_BLOCK_ELEMS = 1 << 15

# derivative passes of a located solve and their shifts per target (medians
# 6.5 and 3.65 on full 1000-row spectra when priced; CHANGES.md), and the most passes it takes
_NEWTON_PASSES = 7
_NEWTON_SHIFTS = 4
_NEWTON_MAX_PASSES = 12

# cost of a derivative pass against a count pass with as many shifts
_SLOPE_COST = 2.5


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

    Positive couplings make the eigenvalues simple.  Immutable and safe to share
    across threads; the squared couplings and Gershgorin bounds are built on first use.
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
        # the Sturm recurrence squares them: the bound keeps every square finite
        if not np.all((self.offdiag > 0.0) & (self.offdiag <= np.sqrt(np.finfo(float).max))):
            raise ValueError("offdiag entries must be strictly positive and at most "
                             "sqrt(float max) ~ 1.341e154, whose square is finite")

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
    """Ascending eigenvalues of a truncation in a window, each bisected to half-width <= tol."""

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


class _Stack(tuple):
    """The tuple of equal-size sections that every Sturm pass of one solve counts.

    It keeps what the passes would rebuild: memoryviews of each section's rows
    and ``numpy_rows``.
    """

    def __new__(cls, sections):
        stack = super().__new__(cls, sections)
        # memoryviews yield Python floats without a list copy of the section
        stack.views = [(memoryview(s.diag), memoryview(s._off_sq)) for s in stack]
        return stack

    @functools.cached_property
    def numpy_rows(self):
        """Read-only diagonal and squared couplings as a numpy pass steps them.

        One section gives an (n, 1) diagonal and Python-float couplings, G
        sections an (n, G, 1) diagonal and a (G, 1) coupling column per row.
        """
        if len(self) == 1:
            return self[0].diag[:, None], self[0]._off_sq.tolist()
        diag = np.stack([s.diag for s in self], axis=1)[:, :, None]
        off = np.stack([s._off_sq for s in self], axis=1)[:, :, None]
        diag.setflags(write=False)
        off.setflags(write=False)
        return diag, list(off)


def _sturm_counts(m, lams, sizes=None, slopes=False):
    """Eigenvalue counts of ``m`` strictly below each shift in ``lams``.

    Runs the LDL^T recurrence d_i = (diag_i - lam) - off_(i-1)^2 / d_(i-1) and
    counts the negative d_i.  ``m`` is one section with a 1-d ``lams``, or G
    sections of equal size (the solve's ``_Stack`` keeps their rows across
    passes) with ``lams`` of shape (G, S), one row per
    section; the result then gains a section axis.  With ``sizes`` (strictly
    increasing in [1, n_max]) row j counts the leading sizes[j] x sizes[j] section.
    Fewer than ``_SCALAR_MAX_SHIFTS`` shifts run as Python-float loops.  A
    shift at or outside the section's Gershgorin bounds that
    ``_gershgorin_certifies`` decides is not stepped: it counts 0 at every
    stop below the section and the stop's size above it.  The others step
    three per row loop (``_three_lanes``), a pair left over in one loop
    (``_two_lanes``) and a single one alone (``_one_lane``); the first two
    test the row's pivots once for a sign <= 0 before nudging or counting
    any.  More shifts run as one numpy pass over blocks of ``_BLOCK_ELEMS // lams.size`` rows, none
    crossing a ``sizes`` stop.  At a block end the first zero-pivot row is
    nudged and the rows after it are stepped again, and tails are checked
    once each uncertified section has a positive pivot at its largest shift
    and is past the row its last walk failed on.

    With ``slopes`` the pass also returns d/dlam log|det(T - lam)| = sum of
    d'_i / d_i of the section (of sizes[-1] rows) at each shift, shaped like
    the counts of one stop.  Fewer than ``_SCALAR_MAX_SHIFTS`` shifts run as
    Python-float loops beside the count loops, more as numpy with the
    derivative rows sharing the block budget; neither checks tails.  Both
    make the count pass's IEEE operations for the pivots, so its counts, and
    the same ones for each ratio; the loops sum a slope row by row, numpy
    block by block.
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
    if lams.size < _SCALAR_MAX_SHIFTS and not slopes:
        for g, (section, (diag_v, off_v)) in enumerate(zip(stack, stack.views)):
            glo, ghi = section.gershgorin()
            out, lanes = counts[:, g], []
            for k, lam in enumerate(lams[g].tolist()):
                # a shift below the section counts nothing at every stop, one above it every row
                if lam <= glo and _gershgorin_certifies(section, lam, above=False):
                    out[:, k] = 0
                elif lam >= ghi and _gershgorin_certifies(section, lam, above=True):
                    out[:, k] = stops
                else:
                    lanes += k, lam
            # three lanes per row loop, then a pair, then one, each filling its columns of out
            for i in range(0, len(lanes), 6):
                group = lanes[i : i + 6]  # (column, shift) pairs
                loop = (_one_lane, _two_lanes, _three_lanes)[len(group) // 2 - 1]
                loop(diag_v, off_v, stops, out, *group)
    elif lams.size < _SCALAR_MAX_SHIFTS:
        # the numpy derivative row loop's operations, one shift at a time
        slope = np.empty(lams.shape)
        for g, (diag_v, off_v) in enumerate(stack.views):
            for k, lam in enumerate(lams[g].tolist()):
                d, r, total, count, start = np.inf, 0.0, 0.0, 0, 0
                for j, stop in enumerate(stops):
                    for b, q in zip(diag_v[start:stop], off_v[start:stop]):
                        t = q / d
                        d = (b - lam) - t
                        if d == 0.0:
                            d = _nudge(b, lam)
                        r = (t * r - 1.0) / d
                        total += r
                        if d < 0.0:
                            count += 1
                    counts[j, g, k] = count
                    start = stop
                slope[g, k] = total
    else:
        # a row of pivots is (G, S) and divides by a (G, 1) coupling column; one
        # section keeps 1-d rows and divides by Python floats, cheaper per row
        diag, off = stack.numpy_rows
        shifts = lams[0] if len(stack) == 1 else lams
        # no block outgrows the section, so neither does the buffer; derivative
        # rows share the block budget with the pivots
        rows = max(1, min(stops[-1], _BLOCK_ELEMS // (lams.size * (2 if slopes else 1))))
        height = 2 * rows + 4 if slopes else rows + 2
        # the blocks, the carried rows and the quotient rows share one allocation
        # that starts on a 64-byte boundary: where the block started moved the
        # time of a pass by up to 7 % from one process to the next
        raw = np.empty(height * lams.size + 7)
        work = raw[(-raw.ctypes.data % 64) // 8 :][: height * lams.size]
        work = work.reshape(height, *shifts.shape)
        buf, carry, t = work[:rows], work[rows], work[rows + 1]
        carry.fill(np.inf)
        row_views = list(buf)  # once per pass, not once per block
        if slopes:
            # ratios r_i = d'_i / d_i of the pivots' lam-derivatives, from
            # d'_i = t_i r_(i-1) - 1 with t_i = q_i / d_(i-1) and r_(-1) = 0
            rbuf, rcarry, w = work[rows + 2 : 2 * rows + 2], work[-2], work[-1]
            rcarry.fill(0.0)
            ratio_views, slope = list(rbuf), np.zeros(shifts.shape)
        count, start, n = np.zeros(shifts.shape, np.int64), 0, stops[-1]
        # per section: its carried pivots, the flat index of its largest shift
        # (in lams and carry alike) and the row from which its tail may be checked
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
                    if slopes:
                        r = rcarry
                        for row, ratio, q in zip(row_views, ratio_views, off[start:end]):
                            np.divide(q, d, out=t)
                            np.subtract(row, t, out=row)
                            np.multiply(t, r, out=w)
                            np.subtract(w, 1.0, out=w)
                            np.divide(w, row, out=ratio)
                            d, r = row, ratio
                    else:
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
                        if slopes:  # the ratio of the nudged row, as the row loop forms it
                            d, r = (buf[z - 1], rbuf[z - 1]) if z else (carry, rcarry)
                            rbuf[z] = ((off[start + z] / d) * r - 1.0) / block[z]
                    # uint16 holds the sum: a block has at most _BLOCK_ELEMS < 2**16 rows
                    count += (block < 0).sum(axis=0, dtype=np.uint16)
                    np.copyto(carry, block[-1])
                    if slopes:
                        np.copyto(rcarry, rbuf[len(block) - 1])
                        slope += rbuf[: len(block)].sum(axis=0)
                    start += len(block)
                    # check tails only where the pass could stop: every uncertified
                    # section is due and has a positive pivot at its largest shift;
                    # a slope needs every row
                    if start < n and not slopes and all(
                        retry[g] <= start and carry.item(tops[g]) > 0.0 for g in uncertified
                    ):
                        while uncertified:
                            g = uncertified.pop()
                            diag_v, off_v = stack.views[g]
                            walked, bound = _pivot_floor(zip(diag_v[start:n], off_v[start:n]),
                                                         carries[g].min().item(), lams.item(tops[g]))
                            if not 0.0 < bound < np.inf:
                                # checked again, and first, once past the failing row
                                retry[g] = start + walked
                                uncertified.append(g)
                                break
                        else:
                            start = n  # every count stays as it is
                counts[j] = count
    if not stacked:
        counts = counts[:, 0]
    counts = counts[0] if sizes is None else counts
    return (counts, slope.reshape(lams.shape if stacked else -1)) if slopes else counts


def _three_lanes(diag_v, off_v, stops, out, k0, l0, k1, l1, k2, l2):
    """Count shifts l0, l1 and l2 into columns k0, k1 and k2 of ``out`` (one row per stop).

    One row loop steps all three, each making the one-shift loop's
    operations (``_one_lane``); the row's pivots are tested once for a
    sign <= 0 before any is nudged or counted.
    """
    d0 = d1 = d2 = np.inf
    c0 = c1 = c2 = start = 0
    for j, stop in enumerate(stops):
        for b, q in zip(diag_v[start:stop], off_v[start:stop]):
            d0 = (b - l0) - q / d0
            d1 = (b - l1) - q / d1
            d2 = (b - l2) - q / d2
            # a nudged pivot is positive; NaN neither nudges nor counts
            if d0 <= 0.0 or d1 <= 0.0 or d2 <= 0.0:
                if d0 == 0.0:
                    d0 = _nudge(b, l0)
                elif d0 < 0.0:
                    c0 += 1
                if d1 == 0.0:
                    d1 = _nudge(b, l1)
                elif d1 < 0.0:
                    c1 += 1
                if d2 == 0.0:
                    d2 = _nudge(b, l2)
                elif d2 < 0.0:
                    c2 += 1
        out[j, k0], out[j, k1], out[j, k2] = c0, c1, c2
        start = stop


def _two_lanes(diag_v, off_v, stops, out, k0, l0, k1, l1):
    """``_three_lanes`` for two shifts."""
    d0 = d1 = np.inf
    c0 = c1 = start = 0
    for j, stop in enumerate(stops):
        for b, q in zip(diag_v[start:stop], off_v[start:stop]):
            d0 = (b - l0) - q / d0
            d1 = (b - l1) - q / d1
            if d0 <= 0.0 or d1 <= 0.0:
                if d0 == 0.0:
                    d0 = _nudge(b, l0)
                elif d0 < 0.0:
                    c0 += 1
                if d1 == 0.0:
                    d1 = _nudge(b, l1)
                elif d1 < 0.0:
                    c1 += 1
        out[j, k0], out[j, k1] = c0, c1
        start = stop


def _one_lane(diag_v, off_v, stops, out, k, lam):
    """Count shift ``lam`` into column k of ``out``: the Sturm recurrence in Python floats."""
    d, count, start = np.inf, 0, 0
    for j, stop in enumerate(stops):
        for b, q in zip(diag_v[start:stop], off_v[start:stop]):
            d = (b - lam) - q / d
            if d == 0.0:
                d = _nudge(b, lam)
            if d < 0.0:
                count += 1
        out[j, k] = count
        start = stop


def _gershgorin_certifies(m, lam, above):
    """Whether every pivot of ``m`` at ``lam`` is provably positive (``lam``
    below the section: nothing counts) or, ``above``, negative (every row counts).

    Let gap = diag - lam, or lam - diag ``above``: negating the recurrence's
    pivots makes the second case the first for -T at -lam, bit for bit.
    With a_i the coupling of rows i and i + 1 and q_i = fl(a_(i-1)^2), and
    as rounding is monotone, a pivot d_(i-1) >= a_(i-1) > 0 gives
    fl(q_i / d_(i-1)) <= fl(q_i / a_(i-1)) and d_i >= u_i =
    fl(gap_i - fl(q_i / a_(i-1))), with u_0 = gap_0 = d_0.  So u_i >= a_i on
    every row but the last and u > 0 on it prove every pivot at least
    a_i > 0, with neither a count nor a nudge: the loops' own counts,
    without stepping them.
    """
    # an overflowing bound rounds to inf, which still bounds the pivot
    with np.errstate(over="ignore"):
        u = lam - m.diag if above else m.diag - lam
        u[1:] -= m._off_sq[1:] / m.offdiag
    return bool(u[-1] > 0.0 and (u[:-1] >= m.offdiag).all())


def _pivot_floor(rows, d, lam):
    """Walk a lower bound on the pivots of every shift <= ``lam`` over ``rows``.

    ``rows`` yields (diag_i, off_(i-1)^2) after the carried pivots, whose least
    is ``d``.  Stops at the first bound (``d`` included) that is not positive
    and finite; returns the rows walked and the last bound.
    """
    # a local inf: the loop is the walk's whole cost, and np.inf is two lookups a row
    walked, inf = 0, math.inf
    if 0.0 < d < inf:
        for b, q in rows:
            d = (b - lam) - q / d
            walked += 1
            if not 0.0 < d < inf:
                break
    return walked, d


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
    """Default bisection half-width: 1e-12 relative to the spectral radius, at least 1e-12."""
    lo, hi = m.gershgorin()
    return 1e-12 * max(1.0, abs(lo), abs(hi))


def eigenvalues_bisect(m: SymTridiag, window: tuple[float, float] | None = None,
                       tol: float | None = None, *, k: int | None = None) -> TruncatedSpectrum:
    """All eigenvalues of ``m`` inside ``window``, each bisected to half-width <= tol.

    The window is half-open like Sturm counts: the result holds the
    eigenvalues in [lo, hi), sturm_count(m, hi) - sturm_count(m, lo) of
    them.  ``window=None`` takes a padded Gershgorin interval (the full
    spectrum); an empty window gives an empty spectrum.  With ``k`` only
    the lowest k are bisected (LAPACK's ``select='i'``); they are the full
    solve's first k bit for bit, except that a tol within a few ulps of the
    float spacing can move one by an ulp, still within tol.
    """
    tol = float(default_bisect_tol(m) if tol is None else tol)
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be strictly positive and finite")
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

    Section g's brackets start at [lo[g], hi[g]) and halve to half-width tol[g].
    They stop moving once all are done or stuck, as a solve of it alone would,
    so it keeps that solve's bytes; each pass counts the whole stack.  Each
    target's (A, B] starts at (lo[g], hi[g]], as count(lo) <= i < count(hi),
    and every count narrows it (``_tighten``).  A step sends each midpoint
    down where it is >= B and up where it is <= A.  While a moving midpoint
    lies inside (A, B), one pass is taken first: the next levels
    (``_speculative_shifts``) or, where ``_newton_pays`` (priced once, after
    the first pass) and ``_locate`` has run, the replay's (``_replay_shifts``).
    """
    ms = ms if isinstance(ms, _Stack) else _Stack(ms)
    sizes = np.maximum(np.asarray(stop) - np.asarray(first), 0)
    sec = np.repeat(np.arange(len(ms)), sizes)
    offset = np.repeat(np.asarray(first) - (np.cumsum(sizes) - sizes), sizes)
    targets = np.arange(sec.size) + offset
    los, his, tols = (np.asarray(x, dtype=float)[sec] for x in (lo, hi, tol))
    bounds = low, high = los.copy(), his.copy()
    passes, located = 0, False
    while True:
        mids = 0.5 * (los + his)
        done = (his - los) <= 2.0 * tols
        stuck = (mids <= los) | (mids >= his)
        live = np.bincount(sec[~(done | stuck)], minlength=len(ms)) > 0
        if not live.any():
            break
        move = live[sec]
        if (move & (low < mids) & (mids < high)).any():
            if passes == 1 and not located and _newton_pays(
                ms, los[move], his[move], tols[move], sec[move]
            ):
                _locate(ms, los, his, bounds, sec, targets, tols, move)
                located = True
                continue
            if located:
                shifts = _replay_shifts(len(ms), *(v[move] for v in (los, his, low, high, tols, sec)))
            else:
                shifts = _speculative_shifts(ms, los, his, sec)
            _count_at(ms, bounds, sec, targets, shifts)
            passes += 1
            continue
        # every moving midpoint lies at or below A (up) or at or above B (down)
        below = mids >= high
        his = np.where(move & below, mids, his)
        los = np.where(move & ~below, mids, los)
    eigs = np.split(0.5 * (los + his), np.cumsum(sizes)[:-1])
    # brackets for consecutive indices can overlap at tol scale; the true
    # spectrum is simple, so restore (weak) monotonicity
    return [np.maximum.accumulate(e) for e in eigs]


def _newton_pays(ms, los, his, tols, sec) -> bool:
    """Whether locating count transitions (``_locate``) costs less than bisecting on.

    Bisection takes ``_level_cost`` per level until the widest bracket is
    done or stuck.  The located solve takes ``_NEWTON_PASSES`` derivative
    passes with ``_NEWTON_SHIFTS`` shifts per target in all, each shift-step
    and row priced ``_SLOPE_COST`` times a count pass's, and a certifying
    pass with two shifts per target; its few other shifts are left out.
    Derivative passes under ``_SCALAR_MAX_SHIFTS`` shifts (the Newton tail)
    run as Python-float loops and cost less than this prices them.  The
    price is left as it is on purpose: the golden ``collapse`` solve sits
    at its margin, and a cheaper tail would move its route.
    """
    # a bracket is done at 2 tol and stuck at about eps |lam|
    spacing = np.maximum(2.0 * tols, _EPS * np.maximum(np.abs(los), np.abs(his)))
    levels = math.log2(float(np.max((his - los) / spacing)))
    targets = len(ms) * int(np.bincount(sec).max())
    newton = _NEWTON_PASSES * _NUMPY_ROW_STEPS + _NEWTON_SHIFTS * targets
    return _SLOPE_COST * newton + _pass_cost(2 * targets) < levels * _level_cost(targets)


def _locate(ms, los, his, bounds, sec, targets, tols, active):
    """Narrow the solve's ``bounds`` (A, B] on each target's transition tau_i, for the replay.

    tau_i is the least float whose count reaches target i + 1; after the
    first pass (A, B] is the bracket (los, his].  A speculative pass splits
    the brackets ``active`` targets still share.  Safeguarded derivative
    passes on det(T - lam) then approach each tau_i: the first steps by
    Newton, each later one by the rational fit through the target's previous
    iterate (``_secular_step``), which falls back to Newton's step where the
    fit fails.  A step counts only toward tau_i and inside (A, B), else the
    iterate falls back to (A, B)'s midpoint.  Once every iterate has settled
    a count pass at delta = tols / 100 (at least two float spacings) either
    side of each certifies it: (A, B] shrinks to about 2 delta.  An iterate
    that fails iterates again, keeping its previous iterate for the fit and
    its last step for the settle test, within ``_NEWTON_MAX_PASSES``
    derivative passes in all.  Every count narrows every target's bounds
    (``_tighten``).  On the full 1000-row spectra of the Rabi models this
    takes 5-8 derivative passes (median 6), where Newton's step alone took
    7-12.
    """
    low, high = bounds
    same = (los[1:] == los[:-1]) & (his[1:] == his[:-1]) & (sec[1:] == sec[:-1])
    shared = active & (np.append(same, False) | np.insert(same, 0, False))
    if shared.any():
        shifts = _speculative_shifts(ms, los[shared], his[shared], sec[shared])
        _count_at(ms, bounds, sec, targets, shifts)
    # x +- delta must be distinct floats
    delta = np.maximum(1e-2 * tols, 2.0 * _EPS * np.maximum(np.abs(los), np.abs(his)))
    x, last = 0.5 * (low + high), np.full(sec.size, np.nan)
    # each target's previous iterate and its slope; NaN until it has one
    x_prev, psi_prev = np.full(sec.size, np.nan), np.full(sec.size, np.nan)
    # (A, B] of width up to 3 delta counts as certified: x +- delta round
    go = active & (high - low > 3.0 * delta)
    newton, passes = go.copy(), 0
    while go.any():
        if newton.any() and passes < _NEWTON_MAX_PASSES:
            passes += 1
            idx = np.flatnonzero(newton)
            (shifts,), col = _shift_rows(sec[idx], len(ms), x[idx])
            counts, slopes = _sturm_counts(ms, shifts, slopes=True)
            _tighten(bounds, sec, targets, shifts, counts)
            # a slope of 0, inf or NaN gives a step whose iterate falls back below
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                psi = slopes[sec[idx], col]
                step = _secular_step(x[idx], psi, x_prev[idx], psi_prev[idx])
                x_prev[idx], psi_prev[idx] = x[idx], psi
                # an iterate heads for tau_i only from a count of i (upward) or i + 1
                over = counts[sec[idx], col] - targets[idx]
                toward = ((over == 0) & (step <= 0.0)) | ((over == 1) & (step >= 0.0))
                # quadratic convergence leaves about step**3 / last**2 after this step
                size = np.abs(step)
                settled = toward & ((size <= delta[idx])
                                    | (size * size * size <= 0.5 * delta[idx] * last[idx] * last[idx]))
                new = x[idx] - step
            # any other iterate outside (A, B), NaN included, falls back to its midpoint
            ok = settled | (toward & (low[idx] < new) & (new < high[idx]))
            x[idx] = np.where(ok, new, 0.5 * (low[idx] + high[idx]))
            last[idx] = np.where(ok, size, np.nan)
            newton[idx[settled]] = False
        else:
            # count delta either side of each settled iterate, where inside its (A, B)
            ends = np.stack((x - delta, x + delta), axis=1)
            keep = go[:, None] & (low[:, None] < ends) & (ends < high[:, None])
            if keep.any():
                (shifts,), _ = _shift_rows(np.repeat(sec, 2)[keep.ravel()], len(ms), ends[keep])
                _count_at(ms, bounds, sec, targets, shifts)
            if passes == _NEWTON_MAX_PASSES:
                break
            newton = go.copy()
        go &= high - low > 3.0 * delta
        newton &= go


def _secular_step(x, psi, x_prev, psi_prev):
    """Each iterate's step (x - step is the next), from its slope and the previous iterate's.

    ``psi`` = d/dlam log|det(T - lam)| = sum_j 1 / (lam - lam_j) at ``x``.
    Newton's step 1 / psi models psi by its nearest pole alone; the fit
    psi ~ 1 / (lam - mu) + c through both iterates (Bunch, Nielsen &
    Sorensen 1978; R.-C. Li, LAPACK Working Note 89, as in ``dlaed4``)
    steps to mu.  With h = x_prev - x and D = psi_prev - psi, u = psi_prev - c
    solves h u^2 - h D u + D = 0; the root nearer psi_prev gives the step
    1 / (u - D).  Newton's step stands where there is no previous iterate
    (NaN), the discriminant is not positive, or the fitted step is not
    finite or has another sign.
    """
    newton = 1.0 / psi
    h, dpsi = x_prev - x, psi_prev - psi
    hd = h * dpsi
    disc = hd * (hd - 4.0)
    # both roots without cancellation: q / h, and D / q since their product is D / h
    q = 0.5 * (hd + np.copysign(np.sqrt(disc), hd))
    one, other = q / h, dpsi / q
    u = np.where(np.abs(one - psi_prev) <= np.abs(other - psi_prev), one, other)
    fit = 1.0 / (u - dpsi)
    return np.where((disc > 0.0) & np.isfinite(fit) & (fit * newton > 0.0), fit, newton)


def _replay_shifts(sections, los, his, low, high, tols, sec):
    """The midpoints inside (A, B) that bisection below each bracket may still meet, one row per section.

    A bracket's midpoint m sends the replay down where m >= B, up where
    m <= A and either way where A < m < B, which records m.  A bracket is
    followed while it is neither done nor stuck and is wider than B - A: at
    most two per level, one of them undecided.  A section that stays live
    longer can leave a midpoint for a later pass.
    """
    found = []
    while los.size:
        mids = 0.5 * (los + his)
        inside = (low < mids) & (mids < high)
        found.append((sec[inside], mids[inside]))
        up, down = inside | (mids <= low), inside | (mids >= high)
        los, his = np.concatenate((mids[up], los[down])), np.concatenate((his[up], mids[down]))
        low, high, tols, sec = (np.concatenate((v[up], v[down])) for v in (low, high, tols, sec))
        mids = 0.5 * (los + his)
        follow = (his - los > np.maximum(2.0 * tols, high - low)) & (los < mids) & (mids < his)
        los, his, low, high, tols, sec = (v[follow] for v in (los, his, low, high, tols, sec))
    at_sec, at = (np.concatenate(v) for v in zip(*found))
    order = np.argsort(at_sec, kind="stable")
    (shifts,), _ = _shift_rows(at_sec[order], sections, at[order])
    return shifts


def _count_at(ms, bounds, sec, targets, shifts):
    """Count the stack at ``shifts`` (one row per section) and narrow every (A, B]."""
    _tighten(bounds, sec, targets, shifts, _sturm_counts(ms, shifts))


def _tighten(bounds, sec, targets, shifts, counts):
    """Narrow each target's (A, B] in place by the counts of a pass at ``shifts``.

    Per section, B becomes the least shift counting target + 1 or more and A
    the greatest counting fewer, where tighter: in one flat (section x count)
    table a least shift per count, then a running minimum from the top, and
    a greatest one, then a running maximum from the bottom.
    """
    low, high = bounds
    width = int(max(counts.max(), targets.max() + 1)) + 1
    cells = (counts + width * np.arange(len(counts))[:, None]).ravel()
    least, most = np.full(len(counts) * width, np.inf), np.full(len(counts) * width, -np.inf)
    np.minimum.at(least, cells, shifts.ravel())
    np.maximum.at(most, cells, shifts.ravel())
    least, most = least.reshape(-1, width), most.reshape(-1, width)
    np.minimum(high, np.minimum.accumulate(least[:, ::-1], axis=1)[sec, -targets - 2], out=high)
    np.maximum(low, np.maximum.accumulate(most, axis=1)[sec, targets], out=low)


def _pass_cost(shifts: int) -> float:
    """Per-row cost of a count pass in shift-steps: ``_NUMPY_ROW_STEPS`` plus
    one step per shift on numpy, a scalar step (priced so that the paths tie
    at ``_SCALAR_MAX_SHIFTS``) per shift below it.

    The scalar price is that of one shift at a time, so it overstates passes
    of two or more shifts, which step three per row loop or a pair in one,
    and shifts the Gershgorin check answers without stepping.  It is left as
    it is on purpose: a cheaper price would move routes and speculative depths.
    """
    if shifts < _SCALAR_MAX_SHIFTS:
        return shifts * (_NUMPY_ROW_STEPS + _SCALAR_MAX_SHIFTS) / _SCALAR_MAX_SHIFTS
    return _NUMPY_ROW_STEPS + shifts


def _level_cost(targets: int) -> float:
    """Least per-row cost per bisection level of a pass from ``targets`` brackets."""
    top = _NUMPY_ROW_STEPS.bit_length() + 1
    return min([_pass_cost(targets * (2**d - 1)) / d for d in range(1, top + 1)])


def _speculative_depth(brackets: int, targets: int) -> int:
    """Bisection levels one Sturm pass should settle for ``brackets`` <= ``targets`` brackets.

    d levels take brackets * (2**d - 1) shifts and leave up to brackets * 2**d
    brackets, at most ``targets``; passes are priced by ``_pass_cost``.  With
    ``steady`` the least cost per level of a pass from ``targets`` brackets,
    the depth is 1 where that is a one-level scalar pass, else the deepest
    d <= _NUMPY_ROW_STEPS.bit_length() + 1 whose last level (brackets *
    2**(d - 1) shifts) costs strictly less than ``steady``: the first depth of
    the passes of least total cost until every target has a bracket, net of
    ``steady`` per level, unless targets exceed about 3,000 x brackets (the cap).
    """
    top = _NUMPY_ROW_STEPS.bit_length() + 1
    steady = _level_cost(targets)
    if targets < _SCALAR_MAX_SHIFTS and _pass_cost(targets) <= steady:
        return 1
    # brackets << (d - 1) <= ceil(steady) - 1, the greatest integer below steady;
    # d = 1 passes, as steady > targets >= brackets
    return min(top, ((math.ceil(steady) - 1) // brackets).bit_length())


def _speculative_shifts(ms, los, his, sec):
    """The midpoints of the next bisection levels below each distinct bracket, one row per section.

    Targets sharing a bracket are adjacent (``sec`` gives their sections),
    so they group without a sort.  Every section gets a row of shifts,
    padded by repeating its last bracket, for one pass over the whole
    stack; the counts narrow (A, B], so where a shift lies in its row does
    not matter.
    """
    new = np.empty(sec.size, dtype=bool)
    new[0] = True
    new[1:] = (los[1:] != los[:-1]) | (his[1:] != his[:-1]) | (sec[1:] != sec[:-1])
    (lows, highs), _ = _shift_rows(sec[new], len(ms), los[new], his[new])
    mids = [0.5 * (lows + highs)]
    # no row of brackets outgrows its section's target count
    targets = len(ms) * int(np.bincount(sec).max())
    for _ in range(1, _speculative_depth(lows.size, targets)):
        lows = np.concatenate((lows, mids[-1]), axis=1)
        highs = np.concatenate((mids[-1], highs), axis=1)
        mids.append(0.5 * (lows + highs))
    return np.concatenate(mids, axis=1)


def _shift_rows(sec, sections, *values):
    """Each of ``values`` (grouped by section ``sec``) as one row per section, and each entry's column.

    Rows are padded by repeating their last entry; a section without entries
    repeats the one before its start (the last one if it is first): counts
    at any finite shift are true of the section, so padding narrows (A, B]
    soundly.
    """
    widths = np.bincount(sec, minlength=sections)
    starts = np.cumsum(widths) - widths
    pad = starts[:, None] + np.minimum(np.arange(widths.max()), widths[:, None] - 1)
    return [v[pad] for v in values], np.arange(sec.size) - starts[sec]


def carleman_partial_sums(a: Callable, n_terms: int) -> np.ndarray:
    """Partial sums S_k = sum_{n=0}^{k} 1/a(n) for k < n_terms.

    Divergence of the series (the Carleman condition) makes the Jacobi
    operator essentially self-adjoint; callers inspect the finite trend.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    vals = _eval_rule(a, np.arange(n_terms, dtype=float))
    nonpos = ~(vals > 0.0)
    if nonpos.any():
        i = int(np.argmax(nonpos))
        raise ValueError(f"off-diagonal rule must be strictly positive; a({i}) = {vals[i]!r}")
    return np.cumsum(1.0 / vals)
