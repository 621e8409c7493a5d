"""Tests for the symmetric tridiagonal kernel.

Expected values are either closed forms (2x2 matrices, harmonic numbers,
geometric series) or come from the dense LAPACK oracle in conftest, which
shares no code with the library's Sturm/bisection path; shifts that land
exactly on an eigenvalue are judged by 50-digit mpmath eigenvalues.
"""

import functools
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rabi_spectra import (
    IntensityDependent,
    SectorLabel,
    SymTridiag,
    TwoPhoton,
    carleman_partial_sums,
    eigenvalues_bisect,
    jacobi_params,
    sturm_count,
)

from rabi_spectra import tridiag
from rabi_spectra.spectra import spectrum_scan
from rabi_spectra.tridiag import _SCALAR_MAX_SHIFTS, _sturm_counts, default_bisect_tol

from conftest import dense_eigenvalues, random_sym_tridiag


def numpy_path_counts(m, lams, sizes=None):
    """``_sturm_counts`` with the shift list padded onto the numpy path."""
    counts = _sturm_counts(m, list(lams) + [0.0] * _SCALAR_MAX_SHIFTS, sizes)
    return counts[..., : len(lams)]


class TestSymTridiag:
    def test_requires_positive_offdiag(self):
        with pytest.raises(ValueError, match="strictly positive"):
            SymTridiag(diag=[1.0, 2.0], offdiag=[0.0])
        with pytest.raises(ValueError, match="strictly positive"):
            SymTridiag(diag=[1.0, 2.0], offdiag=[-0.5])

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError, match="length"):
            SymTridiag(diag=[1.0, 2.0, 3.0], offdiag=[1.0])

    def test_requires_finite_entries(self):
        with pytest.raises(ValueError):
            SymTridiag(diag=[np.nan], offdiag=[])

    def test_rejects_couplings_whose_squares_overflow(self):
        # the largest accepted coupling squares to a finite float, its successor to inf
        limit = np.sqrt(np.finfo(float).max)
        m = SymTridiag(diag=[0.0, 0.0], offdiag=[limit])
        assert sturm_count(m, 0.0) == 1
        for big in (np.nextafter(limit, np.inf), 1e200):
            with pytest.raises(ValueError, match="sqrt"):
                SymTridiag(diag=[0.0, 0.0, 0.0], offdiag=[big, big])

    def test_gershgorin_contains_spectrum(self, rng):
        m = random_sym_tridiag(rng, 9)
        lo, hi = m.gershgorin()
        ev = dense_eigenvalues(m)
        assert lo <= ev[0] and ev[-1] <= hi

    def test_immutable(self):
        m = SymTridiag(diag=[1.0, 2.0], offdiag=[0.5])
        with pytest.raises(ValueError):
            m.diag[0] = 7.0


class TestSturmCount:
    def test_near_diagonal_matrix(self):
        # offdiag 1e-3 barely perturbs eigenvalues {1, 2, 3}
        m = SymTridiag(diag=[1.0, 2.0, 3.0], offdiag=[1e-3, 1e-3])
        assert sturm_count(m, 2.5) == 2

    def test_below_gershgorin_is_zero(self, rng):
        m = random_sym_tridiag(rng, 7)
        lo, hi = m.gershgorin()
        assert sturm_count(m, lo - 1.0) == 0
        assert sturm_count(m, hi + 1.0) == m.n_max

    def test_model_truncation_median(self):
        # [DERIVED] dense-oracle median of the 50x50 two-photon section splits
        # the spectrum in half
        params = jacobi_params(TwoPhoton(g=0.1, delta=1.0), SectorLabel(1, 0))
        m = params.truncation(50)
        median = float(np.median(dense_eigenvalues(m)))
        assert sturm_count(m, median) == 25

    def test_rejects_non_finite(self):
        m = SymTridiag(diag=[0.0], offdiag=[])
        with pytest.raises(ValueError, match="finite"):
            sturm_count(m, np.inf)
        with pytest.raises(ValueError, match="finite"):
            sturm_count(m, np.nan)

    @given(st.integers(2, 12), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_lambda(self, n, seed):
        rng = np.random.default_rng(seed)
        m = random_sym_tridiag(rng, n)
        lams = np.sort(rng.uniform(*m.gershgorin(), size=4))
        counts = [sturm_count(m, lam) for lam in lams]
        assert counts == sorted(counts)

    def test_matches_sorted_list_counts(self, rng):
        m = random_sym_tridiag(rng, 11)
        ev = dense_eigenvalues(m)
        for lam in rng.uniform(*m.gershgorin(), size=20):
            assert sturm_count(m, lam) == int(np.sum(ev < lam))


class TestKernelPaths:
    """The scalar and numpy paths of ``_sturm_counts`` count bit for bit alike."""

    @given(st.integers(1, 40), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_paths_agree_on_random_sections(self, n, seed):
        rng = np.random.default_rng(seed)
        m = random_sym_tridiag(rng, n)
        lo, hi = m.gershgorin()
        # diagonal entries as shifts put a zero pivot on the first row
        lams = [*rng.uniform(lo - 1.0, hi + 1.0, size=8), *m.diag[:3]]
        assert numpy_path_counts(m, lams).tolist() == [sturm_count(m, lam) for lam in lams]

    @pytest.mark.parametrize(
        "diag, offdiag, lams",
        [([1.0], [], [1.0]), ([0.0, 0.0], [1.0], [-1.0, 0.0, 1.0, 2.0])],
    )
    def test_paths_agree_on_exact_hits(self, diag, offdiag, lams):
        m = SymTridiag(diag=diag, offdiag=offdiag)
        assert numpy_path_counts(m, lams).tolist() == [sturm_count(m, lam) for lam in lams]

    def test_subnormal_shift_warns_nothing(self):
        # a shift a subnormal step above the eigenvalue 0 overflows q / d
        m = SymTridiag(diag=[0.0, 0.0, 0.0], offdiag=[1.0, 1.0])
        lam = 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert numpy_path_counts(m, [lam]).tolist() == [sturm_count(m, lam)]

    @given(
        st.sampled_from(["float", "integer", "zero-pivot"]),
        st.integers(1, 30),
        # G sections of up to 19 // G shifts each stay on the scalar path
        st.integers(1, 4).flatmap(lambda g: st.tuples(st.just(g), st.integers(1, 19 // g))),
        st.integers(0, 2),
        st.booleans(),
        st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_three_lane_loop(self, kind, n, stack, lane, ladder, seed):
        # shift rows of every width mod 3; in each group of three the shift in
        # ``lane`` hits a zero pivot, so a nudge lands in that lane alone.  The
        # shifts the Gershgorin check decides are not stepped; the others go
        # three to a loop, and a width of 2 mod 3 among them leaves a pair for
        # the two-lane loop
        (sections, width), rng = stack, np.random.default_rng(seed)
        if kind == "zero-pivot":
            n = min(n, len(_PIVOTS))
            starts = rng.integers(len(_PIVOTS) - n + 1, size=sections).tolist()
            ms = [_zero_pivot_section(_PIVOTS[start : start + n]) for start in starts]
        else:
            make = random_sym_tridiag if kind == "float" else _integer_sym_tridiag
            ms = [make(rng, n) for _ in range(sections)]
        lams = np.empty((sections, width))
        for m, row in zip(ms, lams):
            lo, hi = m.gershgorin()
            row[:] = rng.uniform(lo - 1.0, hi + 1.0, size=width)
            # diag[0] zeroes the first pivot; 0.0 and integers zero inner ones
            inner = {"float": [], "integer": np.arange(np.floor(lo), hi).tolist(), "zero-pivot": [0.0]}
            row[lane::3] = rng.choice([m.diag[0], *inner[kind]], size=row[lane::3].size)
        sizes = sorted({n, *rng.integers(1, n + 1, size=3).tolist()}) if ladder else None
        stops = [n] if sizes is None else sizes
        stacked = sections > 1
        calls = {1: 0, 2: 0, 3: 0}
        with pytest.MonkeyPatch.context() as mp:
            for name, lanes in [("_one_lane", 1), ("_two_lanes", 2), ("_three_lanes", 3)]:
                mp.setattr(tridiag, name, _counting(getattr(tridiag, name), calls, lanes))
            got = _sturm_counts(ms if stacked else ms[0], lams if stacked else lams[0], sizes)
        stepped = [sum(not _decided(m, lam) for lam in row.tolist()) for m, row in zip(ms, lams)]
        assert calls == {1: sum(w % 3 == 1 for w in stepped), 2: sum(w % 3 == 2 for w in stepped),
                         3: sum(w // 3 for w in stepped)}
        got = np.reshape(got, (len(stops), sections, width))
        for g, (m, row) in enumerate(zip(ms, lams)):
            want = np.array([_one_shift_counts(m, lam, stops) for lam in row.tolist()]).T
            assert got[:, g].tolist() == want.tolist()
            assert got[:, g].tolist() == np.reshape(numpy_path_counts(m, row, sizes), want.shape).tolist()

    @pytest.mark.parametrize("lane", [0, 1])
    def test_pair_loop_nudges_either_lane(self, lane):
        # pivots 0, 1, -2, 0, ... at shift 0: both zeros nudge in ``lane`` alone
        m = _zero_pivot_section(_PIVOTS)
        lams = [0.5, 0.5]
        lams[lane] = 0.0
        calls = {1: 0, 2: 0, 3: 0}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tridiag, "_two_lanes", _counting(tridiag._two_lanes, calls, 2))
            got = _sturm_counts(m, lams, [4, len(_PIVOTS)])
        assert calls[2] == 1
        want = np.array([_one_shift_counts(m, lam, [4, len(_PIVOTS)]) for lam in lams]).T
        assert got.tolist() == want.tolist()
        assert got.tolist() == numpy_path_counts(m, lams, [4, len(_PIVOTS)]).tolist()


def _counting(loop, calls, lanes):
    """``loop``, adding one to ``calls[lanes]`` on each call."""
    def counted(*args):
        calls[lanes] += 1
        return loop(*args)
    return counted


def _decided(m, lam):
    """Whether the Gershgorin check answers ``lam`` for ``m`` without a step."""
    lo, hi = m.gershgorin()
    return (lam <= lo and tridiag._gershgorin_certifies(m, lam, above=False)) or (
        lam >= hi and tridiag._gershgorin_certifies(m, lam, above=True))


class TestGershgorinCertificate:
    """A count pass answers a shift the Gershgorin check decides without stepping it.

    Counts must be those of the stepped path, taken with the check switched
    off, and those of the one-shift Python loop.
    """

    @given(
        st.sampled_from(["float", "integer", "kac", "zero-pivot", "huge", "tiny"]),
        st.integers(1, 30),
        st.integers(1, 3),
        # ulps from the lower and the upper Gershgorin bound
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
        st.booleans(),
        st.integers(0, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_equal_the_stepped_counts(self, kind, n, sections, below, above, ladder, seed):
        rng = np.random.default_rng(seed)
        n = min(n, len(_PIVOTS)) if kind == "zero-pivot" else n
        ms = [_bounded_section(kind, n, rng) for _ in range(sections)]
        lams = []
        for m in ms:
            lo, hi = m.gershgorin()
            # and one shift each side up to a section's scale beyond its bounds
            reach = rng.uniform(0.0, 1.0, size=2) * (hi - lo + abs(lo) + abs(hi))
            lams.append([*(_ulps(lo, k) for k in below), *(_ulps(hi, k) for k in above),
                         lo - reach[0], hi + reach[1]])
        lams = np.array(lams)
        sizes = sorted({n, *rng.integers(1, n + 1, size=3).tolist()}) if ladder else None
        stops = [n] if sizes is None else sizes
        stacked = sections > 1
        args = (ms if stacked else ms[0], lams if stacked else lams[0], sizes)
        got = _sturm_counts(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tridiag, "_gershgorin_certifies", lambda *_, **__: False)
            assert got.tolist() == _sturm_counts(*args).tolist()
        got = np.reshape(got, (len(stops), sections, lams.shape[1]))
        for g, (m, row) in enumerate(zip(ms, lams)):
            want = np.array([_one_shift_counts(m, lam, stops) for lam in row.tolist()]).T
            assert got[:, g].tolist() == want.tolist()

    def test_integer_section_is_decided_at_its_bounds(self, monkeypatch):
        # diag 2, off 1: Gershgorin gives [0, 4] exactly, and the pivots at 0
        # are (i + 2) / (i + 1), at 4 their negatives
        m = SymTridiag(diag=np.full(50, 2.0), offdiag=np.ones(49))
        assert m.gershgorin() == (0.0, 4.0)
        stepped = []
        one_lane = tridiag._one_lane
        monkeypatch.setattr(tridiag, "_one_lane", lambda *a: stepped.append(a[-1]) or one_lane(*a))
        # eigenvalues 2 + 2 cos(k pi / (n + 1)): 5 of 10 and 25 of 50 lie below 2
        assert _sturm_counts(m, [0.0, 2.0, 4.0], [10, 50]).tolist() == [[0, 5, 10], [0, 25, 50]]
        assert stepped == [2.0]

    def test_zero_pivot_at_a_bound_is_stepped(self):
        # a 1 x 1 section has both bounds at diag[0], where its pivot is 0
        m = SymTridiag(diag=[3.0], offdiag=[])
        assert m.gershgorin() == (3.0, 3.0)
        assert not tridiag._gershgorin_certifies(m, 3.0, above=False)
        assert not tridiag._gershgorin_certifies(m, 3.0, above=True)
        assert _sturm_counts(m, [3.0]).tolist() == [0]


def _bounded_section(kind, n, rng):
    """A section for ``TestGershgorinCertificate`` of the given kind."""
    if kind == "integer":
        return SymTridiag(diag=np.full(n, 2.0), offdiag=np.ones(n - 1))
    if kind == "kac":
        return _kac(n)
    if kind == "zero-pivot":
        start = int(rng.integers(len(_PIVOTS) - n + 1))
        return _zero_pivot_section(_PIVOTS[start : start + n])
    m = random_sym_tridiag(rng, n)
    scale = {"float": 1.0, "huge": 1e150, "tiny": 1e-150}[kind]
    return SymTridiag(diag=m.diag * scale, offdiag=m.offdiag * scale)


def _ulps(x, k):
    """``x`` moved by k floats (down for negative k)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.copysign(np.inf, k))
    return float(x)


def _one_shift_counts(m, lam, stops):
    """Counts at each of ``stops`` of the Python-float Sturm loop at one shift."""
    d, count, out = float("inf"), 0, []
    for i, (b, q) in enumerate(zip(m.diag.tolist(), [0.0, *(m.offdiag**2).tolist()])):
        d = (b - lam) - q / d
        if d == 0.0:
            d = tridiag._nudge(b, lam)
        if d < 0.0:
            count += 1
        if i + 1 in stops:
            out.append(count)
    return out


class TestPrefixLadder:
    """Row j of ``_sturm_counts(m, lams, sizes)`` counts the leading sizes[j] section."""

    @given(st.integers(1, 30), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_rows_equal_leading_sections(self, n, seed):
        rng = np.random.default_rng(seed)
        m = random_sym_tridiag(rng, n)
        lo, hi = m.gershgorin()
        lams = [*rng.uniform(lo - 1.0, hi + 1.0, size=4), m.diag[0]]
        sizes = sorted({1, n, *rng.integers(1, n + 1, size=3).tolist()})
        scalar_rows = _sturm_counts(m, lams, sizes)
        numpy_rows = numpy_path_counts(m, lams, sizes)
        assert scalar_rows.shape == numpy_rows.shape == (len(sizes), len(lams))
        for size, scalar_row, numpy_row in zip(sizes, scalar_rows, numpy_rows):
            lead = SymTridiag(diag=m.diag[:size], offdiag=m.offdiag[: size - 1])
            assert scalar_row.tolist() == _sturm_counts(lead, lams).tolist()
            assert numpy_row.tolist() == numpy_path_counts(lead, lams).tolist()

    @pytest.mark.parametrize("sizes", [[], [0, 3], [2, 2], [3, 2], [2, 6]])
    def test_rejects_bad_sizes(self, sizes):
        m = SymTridiag(diag=np.zeros(5), offdiag=np.ones(4))
        with pytest.raises(ValueError, match="sizes"):
            _sturm_counts(m, [0.0], sizes)


class TestMonotoneCounts:
    """Computed counts never decrease as the shift grows.

    Bisection stands on this: a count that fell between two shifts could
    cross brackets.  Every eigenvalue (dense oracle) is taken as a shift with
    its float neighbours on either side, on both kernel paths and on every
    row of a cutoff ladder.
    """

    @staticmethod
    def assert_monotone(m, extra_points=()):
        points = np.concatenate([dense_eigenvalues(m), extra_points])
        lams = np.unique(np.concatenate([
            np.nextafter(points, -np.inf), points, np.nextafter(points, np.inf),
        ]))
        chunk = _SCALAR_MAX_SHIFTS - 1
        for sizes in (None, sorted({1, m.n_max // 2 or 1, m.n_max})):
            scalar = np.concatenate([
                _sturm_counts(m, lams[i : i + chunk], sizes) for i in range(0, lams.size, chunk)
            ], axis=-1)
            assert scalar.tolist() == numpy_path_counts(m, lams, sizes).tolist()
            assert np.all(np.diff(scalar, axis=-1) >= 0)

    @given(st.integers(1, 40), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_float_sections(self, n, seed):
        self.assert_monotone(random_sym_tridiag(np.random.default_rng(seed), n))

    @given(
        st.integers(1, 10).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_integer_sections(self, entries):
        # integer shifts land on zero pivots and on exact integer eigenvalues
        m = SymTridiag(diag=entries[0], offdiag=entries[1])
        lo, hi = m.gershgorin()
        self.assert_monotone(m, np.arange(np.floor(lo) - 1, np.ceil(hi) + 2))

    @pytest.mark.parametrize("n", [2, 7, 16])
    def test_kac_matrices(self, n):
        # every eigenvalue of a Kac matrix is an integer
        self.assert_monotone(_kac(n), np.arange(-n, n + 1.0))


class TestEigenvaluesBisect:
    def test_two_by_two_sigma_x(self):
        m = SymTridiag(diag=[0.0, 0.0], offdiag=[1.0])
        spec = eigenvalues_bisect(m, tol=1e-14)
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-13)

    def test_one_by_one(self):
        m = SymTridiag(diag=[5.0], offdiag=[])
        spec = eigenvalues_bisect(m)
        np.testing.assert_allclose(spec.eigenvalues, [5.0], atol=1e-12)

    def test_model_truncation_vs_oracle(self):
        # 200x200 intensity-dependent section over the full window
        params = jacobi_params(
            IntensityDependent(g=0.25, delta=2.0, kappa=1.0), SectorLabel(1)
        )
        m = params.truncation(200)
        spec = eigenvalues_bisect(m, tol=1e-12)
        assert len(spec) == 200
        np.testing.assert_allclose(spec.eigenvalues, dense_eigenvalues(m), atol=1e-10)

    def test_empty_window_is_not_an_error(self):
        m = SymTridiag(diag=[0.0, 0.0], offdiag=[1.0])
        assert len(eigenvalues_bisect(m, window=(3.0, 2.0))) == 0
        assert len(eigenvalues_bisect(m, window=(5.0, 6.0))) == 0

    def test_rejects_bad_tol_and_window(self):
        m = SymTridiag(diag=[0.0, 0.0], offdiag=[1.0])
        with pytest.raises(ValueError, match="tol"):
            eigenvalues_bisect(m, tol=0.0)
        with pytest.raises(ValueError, match="tol"):
            eigenvalues_bisect(m, tol=-1e-3)
        with pytest.raises(ValueError, match="tol"):
            eigenvalues_bisect(m, tol=np.inf)
        with pytest.raises(ValueError, match="finite"):
            eigenvalues_bisect(m, window=(-np.inf, 0.0))

    def test_count_matches_sturm_difference(self, rng):
        m = random_sym_tridiag(rng, 10)
        lo, hi = m.gershgorin()
        for _ in range(10):
            a, b = np.sort(rng.uniform(lo - 1, hi + 1, size=2))
            spec = eigenvalues_bisect(m, window=(a, b), tol=1e-12)
            assert len(spec) == sturm_count(m, b) - sturm_count(m, a)

    @given(st.integers(2, 12), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_oracle_equivalence_small(self, n, seed):
        rng = np.random.default_rng(seed)
        m = random_sym_tridiag(rng, n)
        spec = eigenvalues_bisect(m, tol=1e-13)
        assert len(spec) == n
        np.testing.assert_allclose(spec.eigenvalues, dense_eigenvalues(m), atol=1e-10)

    @given(st.integers(3, 12), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_leading_principal_interlacing(self, n, seed):
        rng = np.random.default_rng(seed)
        m = random_sym_tridiag(rng, n)
        sub = SymTridiag(diag=m.diag[:-1], offdiag=m.offdiag[:-1])
        big = eigenvalues_bisect(m, tol=1e-13).eigenvalues
        small = eigenvalues_bisect(sub, tol=1e-13).eigenvalues
        # positive off-diagonal makes the interlacing strict
        assert np.all(big[:-1] < small + 1e-11)
        assert np.all(small < big[1:] + 1e-11)


def _reference_bisect(m, window=None, tol=None):
    """The one-level-per-pass bisection loop that speculative passes replay.

    Each pass counts at the midpoint of every target's bracket, so a full
    spectrum takes one pass per level; ``eigenvalues_bisect`` must return
    these bytes.
    """
    tol = default_bisect_tol(m) if tol is None else tol
    if window is None:
        glo, ghi = m.gershgorin()
        pad = 64.0 * np.finfo(float).eps * max(1.0, abs(glo), abs(ghi))
        window = (glo - pad, ghi + pad)
    lo, hi = window
    targets = np.arange(*_sturm_counts(m, [lo, hi]))
    los, his = np.full(targets.size, lo), np.full(targets.size, hi)
    while True:
        mids = 0.5 * (los + his)
        done = (his - los) <= 2.0 * tol
        stuck = (mids <= los) | (mids >= his)
        if np.all(done | stuck):
            break
        below = _sturm_counts(m, mids) >= targets + 1
        his = np.where(below, mids, his)
        los = np.where(below, los, mids)
    return np.maximum.accumulate(0.5 * (los + his))


def _integer_sym_tridiag(rng, n):
    return SymTridiag(diag=rng.integers(-5, 6, n), offdiag=rng.integers(1, 4, n - 1))


def _kac(n):
    """Kac matrix: zero diagonal, eigenvalues exactly -(n-1), -(n-3), ..., n-1."""
    i = np.arange(1, n)
    return SymTridiag(diag=np.zeros(n), offdiag=np.sqrt(i * (n - i)))


class TestSpeculativeBisection:
    """Speculative passes give the one-level loop's eigenvalues bit for bit."""

    # 12 targets stay on the scalar path, 20 and 150 put every pass on the
    # numpy path
    @pytest.mark.parametrize("n", [12, 20, 150])
    @pytest.mark.parametrize("make", [random_sym_tridiag, _integer_sym_tridiag])
    def test_full_spectrum_bytes(self, n, make):
        rng = np.random.default_rng(n)
        for _ in range(3):
            m = make(rng, n)
            assert eigenvalues_bisect(m).eigenvalues.tobytes() == _reference_bisect(m).tobytes()

    @pytest.mark.parametrize("n", [12, 20, 150])
    def test_random_window_bytes(self, n):
        rng = np.random.default_rng(n + 1)
        for _ in range(5):
            m = random_sym_tridiag(rng, n)
            lo, hi = m.gershgorin()
            window = tuple(np.sort(rng.uniform(lo - 1.0, hi + 1.0, size=2)))
            got = eigenvalues_bisect(m, window=window).eigenvalues
            assert got.tobytes() == _reference_bisect(m, window).tobytes()

    @pytest.mark.parametrize("n, window", [(9, (-4.0, 6.0)), (101, (-79.0, 79.0)), (101, (0.0, 100.0))])
    def test_window_ends_on_exact_eigenvalues(self, n, window):
        m = _kac(n)
        got = eigenvalues_bisect(m, window=window).eigenvalues
        assert got.tobytes() == _reference_bisect(m, window).tobytes()

    @pytest.mark.parametrize("n", [12, 20, 150])
    def test_stuck_brackets_bytes(self, n):
        # tol far below float spacing: every bracket ends stuck, not done
        rng = np.random.default_rng(n + 2)
        m = random_sym_tridiag(rng, n)
        got = eigenvalues_bisect(m, tol=1e-300).eigenvalues
        assert got.tobytes() == _reference_bisect(m, tol=1e-300).tobytes()

    # k = 15 of 200 runs the k solve on the scalar path, the full one on numpy
    @pytest.mark.parametrize("n, k", [(40, 7), (200, 15), (200, 30), (200, 150)])
    def test_k_is_prefix_of_full_solve(self, n, k):
        rng = np.random.default_rng(n + k)
        m = random_sym_tridiag(rng, n)
        lo, hi = m.gershgorin()
        window = (lo - 1.0, hi + 1.0)
        full = eigenvalues_bisect(m, window=window).eigenvalues
        got = eigenvalues_bisect(m, window=window, k=k).eigenvalues
        assert got.tobytes() == full[:k].tobytes()

    def test_k_above_count_returns_whole_window(self, rng):
        m = random_sym_tridiag(rng, 30)
        lo, hi = m.gershgorin()
        window = (lo - 1.0, 0.5 * (lo + hi))
        full = eigenvalues_bisect(m, window=window).eigenvalues
        got = eigenvalues_bisect(m, window=window, k=len(full) + 5).eigenvalues
        assert got.tobytes() == full.tobytes()

    @pytest.mark.parametrize("k", [0, -3])
    def test_rejects_k_below_one(self, k):
        m = SymTridiag(diag=[0.0, 0.0], offdiag=[1.0])
        with pytest.raises(ValueError, match="k must be at least 1"):
            eigenvalues_bisect(m, k=k)

    def test_full_spectrum_pass_count(self, sturm_passes):
        # counts passes, not time: the one-level loop takes 40 here, and a
        # derivative pass counts as one
        params = jacobi_params(TwoPhoton(g=0.3, delta=1.0), SectorLabel(1, 0))
        assert len(spectrum_scan(params, 1000)) == 1000
        # the window count, the first pass, 5 derivative passes (1000, 1000,
        # 987, 574 and 47 shifts), a certifying pass and one replay pass
        derivative = sum(p.slopes for p in sturm_passes)
        assert derivative <= 5 and len(sturm_passes) <= 9
        assert sum(p.shifts for p in sturm_passes) <= 9_545

    def test_small_derivative_passes_in_a_full_spectrum(self, sturm_passes):
        # sector 0-: three iterates fail certification and iterate again, in
        # derivative passes of 3 shifts that run on the Python-float loop
        params = jacobi_params(TwoPhoton(g=0.3, delta=1.0), SectorLabel(-1, 0))
        assert len(spectrum_scan(params, 1000)) == 1000
        assert any(p.slopes and p.shifts < _SCALAR_MAX_SHIFTS for p in sturm_passes)


class TestLocatedBisection:
    """Solves that locate count transitions keep the one-level loop's bytes.

    ``_SLOPE_COST`` at -inf prices the located route below any bisection, so
    every solve takes it after its first pass, on sections far too small to
    pay for it, and replays every level from the bounds it located.
    """

    @pytest.fixture(autouse=True)
    def derivative_passes(self, monkeypatch, sturm_passes):
        monkeypatch.setattr(tridiag, "_SLOPE_COST", -np.inf)
        yield
        assert any(p.slopes for p in sturm_passes)

    @pytest.mark.parametrize("n", [12, 20, 150])
    @pytest.mark.parametrize("make", [random_sym_tridiag, _integer_sym_tridiag])
    def test_full_spectrum_bytes(self, n, make):
        rng = np.random.default_rng(n)
        for _ in range(3):
            m = make(rng, n)
            assert eigenvalues_bisect(m).eigenvalues.tobytes() == _reference_bisect(m).tobytes()

    @pytest.mark.parametrize("n", [12, 20, 150])
    def test_random_window_bytes(self, n):
        rng = np.random.default_rng(n + 1)
        for _ in range(5):
            m = random_sym_tridiag(rng, n)
            lo, hi = m.gershgorin()
            window = tuple(np.sort(rng.uniform(lo - 1.0, hi + 1.0, size=2)))
            got = eigenvalues_bisect(m, window=window).eigenvalues
            assert got.tobytes() == _reference_bisect(m, window).tobytes()

    @pytest.mark.parametrize("n, window", [(9, (-4.0, 6.0)), (101, (-79.0, 79.0)), (101, (0.0, 100.0))])
    def test_window_ends_on_exact_eigenvalues(self, n, window):
        m = _kac(n)
        got = eigenvalues_bisect(m, window=window).eigenvalues
        assert got.tobytes() == _reference_bisect(m, window).tobytes()

    @pytest.mark.parametrize("n", [12, 20, 150])
    def test_stuck_brackets_bytes(self, n):
        # tol far below float spacing: every bracket ends stuck, not done
        rng = np.random.default_rng(n + 2)
        m = random_sym_tridiag(rng, n)
        got = eigenvalues_bisect(m, tol=1e-300).eigenvalues
        assert got.tobytes() == _reference_bisect(m, tol=1e-300).tobytes()

    @pytest.mark.parametrize("n, k", [(40, 7), (200, 15), (200, 30), (200, 150)])
    def test_k_is_prefix_of_full_solve(self, n, k):
        rng = np.random.default_rng(n + k)
        m = random_sym_tridiag(rng, n)
        lo, hi = m.gershgorin()
        window = (lo - 1.0, hi + 1.0)
        full = eigenvalues_bisect(m, window=window).eigenvalues
        assert full.tobytes() == _reference_bisect(m, window).tobytes()
        got = eigenvalues_bisect(m, window=window, k=k).eigenvalues
        assert got.tobytes() == full[:k].tobytes()

    @pytest.fixture
    def fitted_steps(self, monkeypatch):
        """Records how many iterates of each derivative pass took the rational step, not Newton's."""
        taken, step = [], tridiag._secular_step

        def spy(x, psi, x_prev, psi_prev):
            out = step(x, psi, x_prev, psi_prev)
            taken.append(int(np.count_nonzero(out != 1.0 / psi)))
            return out

        monkeypatch.setattr(tridiag, "_secular_step", spy)
        return taken

    # eigenvalue pairs of W+ agree to about 1e-13 at n 21 and to float
    # spacing from n 101; tol 1e-300 leaves every bracket stuck
    @pytest.mark.parametrize("n", [21, 101, 1001])
    @pytest.mark.parametrize("tol", [None, 1e-14, 1e-300])
    def test_wilkinson_pairs_bytes(self, fitted_steps, n, tol):
        m = _wilkinson(n)
        got = eigenvalues_bisect(m, tol=tol).eigenvalues
        assert got.tobytes() == _reference_bisect(m, tol=tol).tobytes()
        assert sum(fitted_steps) > 0

    @pytest.mark.parametrize("tol", [None, 1e-300])
    def test_glued_clusters_bytes(self, fitted_steps, tol):
        # eight W+ 21 blocks joined by couplings of 1e-8: each eigenvalue of
        # the block becomes a cluster of eight within about 1e-13, and the
        # top pair sixteen within about 1e-8
        block = _wilkinson(21)
        glue = np.append(block.offdiag, 1e-8)
        m = SymTridiag(diag=np.tile(block.diag, 8), offdiag=np.tile(glue, 8)[:-1])
        got = eigenvalues_bisect(m, tol=tol).eigenvalues
        assert got.tobytes() == _reference_bisect(m, tol=tol).tobytes()
        assert sum(fitted_steps) > 0


def _wilkinson(n):
    """Wilkinson's W+ of odd order n: diagonal |-k|, ..., |k| with k = (n - 1) / 2, couplings 1."""
    k = n // 2
    return SymTridiag(diag=np.abs(np.arange(-k, k + 1.0)), offdiag=np.ones(n - 1))


def test_secular_step_and_its_fallbacks():
    # psi = 1 / lam + c through iterates 0.25 and 1: the fit steps from 1 onto
    # the pole at 0 (step 1).  With c = -2 Newton's step is -1, of the other
    # sign, and stands; so it does without history and where psi rises from
    # 1 to 3 (h D = 1, no real fit)
    x_prev, x = np.array([0.25, 0.25, np.nan, 0.5]), np.ones(4)
    c = np.array([0.5, -2.0, 0.5, 0.0])
    psi_prev, psi = 1.0 / x_prev + c, 1.0 / x + c
    psi_prev[3], psi[3] = 1.0, 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        step = tridiag._secular_step(x, psi, x_prev, psi_prev)
    assert step[0] == pytest.approx(1.0, rel=1e-14)
    assert step[1:].tolist() == (1.0 / psi[1:]).tolist() == [-1.0, 1.0 / 1.5, 1.0 / 3.0]


def test_tighten_reads_each_count_transition():
    # counts 0, 1, 1, 3 at shifts 0, 1, 2, 3, given out of order
    low, high = np.full(3, -9.0), np.full(3, 9.0)
    shifts, counts = np.array([[2.0, 0.0, 3.0, 1.0]]), np.array([[1, 0, 3, 1]])
    tridiag._tighten((low, high), np.zeros(3, dtype=int), np.arange(3), shifts, counts)
    assert low.tolist() == [0.0, 2.0, 2.0] and high.tolist() == [1.0, 3.0, 3.0]


@given(st.integers(1, 4), st.integers(2, 12), st.booleans(), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_tighten_keeps_each_transition_inside(sections, n, integer, seed):
    # targets start at a valid (lo, hi]; passes at unordered shifts with
    # duplicates and padding must keep count(A) <= i < count(B) and leave A
    # and B the tightest shifts of their sides
    rng = np.random.default_rng(seed)
    make = _integer_sym_tridiag if integer else random_sym_tridiag
    ms = [make(rng, n) for _ in range(sections)]
    stack = tridiag._Stack(ms)
    windows = np.sort(rng.integers(-12, 13, (sections, 2)), axis=1).astype(float)
    if not integer:
        windows = np.sort(rng.uniform(-6.0, 6.0, (sections, 2)), axis=1)
    # some sections get a window below their spectrum, hence no targets
    for g in np.flatnonzero(rng.random(sections) < 0.3):
        windows[g] = ms[g].gershgorin()[0] - np.array([2.0, 1.0])
    first, end = _sturm_counts(stack, windows).T
    sec = np.repeat(np.arange(sections), end - first)
    targets = np.concatenate([np.arange(a, b) for a, b in zip(first, end)])
    assume(sec.size)
    low, high = windows[sec, 0].copy(), windows[sec, 1].copy()
    for _ in range(3):
        width = int(rng.integers(1, 9))
        rows = []
        for lo, hi in windows:
            pool = (np.arange(np.floor(lo) - 2.0, np.ceil(hi) + 2.5, 0.5) if integer
                    else np.append(rng.uniform(lo - 1.0, hi + 1.0, 6), (lo, hi)))
            row = rng.choice(pool, int(rng.integers(1, width + 1)))
            rows.append(rng.permutation(np.append(row, [row[-1]] * (width - row.size))))
        shifts = np.array(rows)
        counts = _sturm_counts(stack, shifts)
        want_low = [max([low[t]] + [x for x, c in zip(shifts[g], counts[g]) if c <= i])
                    for t, (g, i) in enumerate(zip(sec, targets))]
        want_high = [min([high[t]] + [x for x, c in zip(shifts[g], counts[g]) if c > i])
                     for t, (g, i) in enumerate(zip(sec, targets))]
        tridiag._tighten((low, high), sec, targets, shifts, counts)
        assert low.tolist() == want_low and high.tolist() == want_high
        for g, i, a, b in zip(sec, targets, low, high):
            below_a, below_b = _sturm_counts(ms[g], [a, b])
            assert below_a <= i < below_b


def _reference_pivots(m, lams):
    """Pivots of the per-row numpy loop that the blocked pass replays, one row per section row.

    One numpy step per row over all shifts, zero pivots nudged as the
    kernel does.
    """
    diag, off_sq = m.diag, np.concatenate(([0.0], m.offdiag**2))
    lams = np.asarray(lams, dtype=float)
    pivots = np.empty((m.n_max, lams.size))
    d = np.full(lams.shape, np.inf)
    for i in range(m.n_max):
        d = (diag[i] - lams) - off_sq[i] / d
        zero = d == 0.0
        if zero.any():
            d = np.where(zero, tridiag._nudge(diag[i], lams), d)
        pivots[i] = d
    return pivots


def _reference_counts(m, lams, sizes=None):
    """Counts of the per-row numpy loop; ``_sturm_counts`` must return these on its numpy path."""
    below = np.cumsum(_reference_pivots(m, lams) < 0, axis=0, dtype=np.int64)
    stops = [m.n_max] if sizes is None else list(sizes)
    counts = below[np.array(stops) - 1]
    return counts[0] if sizes is None else counts


def _zero_pivot_section(pivots):
    """Section whose LDL^T pivots at shift 0 are exactly ``pivots``.

    Entries are 0, +-1 or +-2, and no two zeros are adjacent.  Behind a
    nonzero pivot p a unit coupling keeps the next pivot exact (1/p is +-1
    or +-1/2).  Behind a zero pivot a coupling of 2**-100 does, since its
    square over the nudged pivot (about 2**-148) is far below an ulp of the
    next diagonal entry.
    """
    diag, off = [float(pivots[0])], []
    for prev, p in zip(pivots, pivots[1:]):
        off.append(2.0**-100 if prev == 0 else 1.0)
        diag.append(float(p) if prev == 0 else p + 1.0 / prev)
    return SymTridiag(diag=diag, offdiag=off)


# with blocks of 3 rows: zeros on the first row of the first block (0), on
# a block's last row (3), twice in one block (7 and 9) and on the section's
# last row (14)
_PIVOTS = [0, 1, -2, 0, -1, 2, 1, 0, -1, 0, 2, -2, 1, -1, 0]


class TestBlockedPass:
    """The numpy pass steps rows in blocks and counts like the per-row loop.

    ``_BLOCK_ELEMS`` is set to 1-4 rows' worth of shifts, so a section spans
    many blocks and zero pivots land on chosen rows of a block.
    """

    @staticmethod
    def blocked_counts(monkeypatch, rows, m, lams, sizes=None):
        lams = np.concatenate([lams, np.zeros(max(0, _SCALAR_MAX_SHIFTS - len(lams)))])
        monkeypatch.setattr(tridiag, "_BLOCK_ELEMS", rows * lams.size)
        return _sturm_counts(m, lams, sizes), _reference_counts(m, lams, sizes)

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    @pytest.mark.parametrize("make", [random_sym_tridiag, _integer_sym_tridiag])
    def test_sections_spanning_many_blocks(self, monkeypatch, rows, make):
        rng = np.random.default_rng(rows)
        for n in (1, 2, 5, 37):
            m = make(rng, n)
            lo, hi = m.gershgorin()
            # diagonal entries and integers put zero pivots on inner rows
            lams = [*rng.uniform(lo - 1.0, hi + 1.0, size=40), *m.diag,
                    *np.arange(np.floor(lo), np.ceil(hi) + 1.0)]
            got, want = self.blocked_counts(monkeypatch, rows, m, lams)
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    def test_sizes_stop_inside_and_on_block_ends(self, monkeypatch, rows):
        rng = np.random.default_rng(10 + rows)
        m = random_sym_tridiag(rng, 23)
        lo, hi = m.gershgorin()
        lams = rng.uniform(lo - 1.0, hi + 1.0, size=70)
        # multiples of rows end blocks; the others stop inside one
        sizes = sorted({1, rows, 2 * rows + 1, 3 * rows, 4 * rows + 2, 22, 23})
        got, want = self.blocked_counts(monkeypatch, rows, m, lams, sizes)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    @pytest.mark.parametrize("sizes", [None, [1, 4, 8, 10, 15]])
    def test_zero_pivots(self, monkeypatch, rows, sizes):
        m = _zero_pivot_section(_PIVOTS)
        rng = np.random.default_rng(20 + rows)
        lams = [0.0, *rng.uniform(*m.gershgorin(), size=70)]
        got, want = self.blocked_counts(monkeypatch, rows, m, lams, sizes)
        assert got.tolist() == want.tolist()
        # nudged zero pivots count as positive
        stops = [m.n_max] if sizes is None else sizes
        expect = [sum(p < 0 for p in _PIVOTS[:stop]) for stop in stops]
        assert np.reshape(got, (len(stops), -1))[:, 0].tolist() == expect


class TestStackedPass:
    """G stacked sections count as each section counts alone, on both paths."""

    @staticmethod
    def sections(rng, n):
        # float, integer and zero-pivot sections of one size
        pivots = (_PIVOTS * (n // len(_PIVOTS) + 1))[:n]
        return [random_sym_tridiag(rng, n), _integer_sym_tridiag(rng, n),
                _zero_pivot_section(pivots), random_sym_tridiag(rng, n)]

    @pytest.mark.parametrize("shifts", [1, 4, 30])
    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("sizes", [None, [1, 4, 8, 10, 15]])
    def test_rows_equal_sections_alone(self, monkeypatch, shifts, rows, sizes):
        # 4 sections x 1 or 4 shifts run scalar, x 30 on numpy; rows=None
        # keeps the default block size
        rng = np.random.default_rng(shifts)
        ms = self.sections(rng, 15)
        lams = np.stack([[0.0, *rng.uniform(*m.gershgorin(), size=shifts - 1)] for m in ms])
        lams[1, -1] = 1.0  # an integer shift on the integer section
        if rows is not None:
            monkeypatch.setattr(tridiag, "_BLOCK_ELEMS", rows * lams.size)
        got = _sturm_counts(ms, lams, sizes)
        alone = [_reference_counts(m, row, sizes) for m, row in zip(ms, lams)]
        assert got.tolist() == np.stack(alone, axis=-2).tolist()

    def test_one_section_stack_is_the_plain_call(self):
        m = random_sym_tridiag(np.random.default_rng(5), 30)
        lams = np.linspace(-4.0, 4.0, 50)
        assert _sturm_counts([m], lams[None]).tolist() == [_sturm_counts(m, lams).tolist()]

    @pytest.mark.parametrize("lams", [np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(3)])
    def test_rejects_unequal_sections_or_shift_rows(self, lams):
        ms = [random_sym_tridiag(np.random.default_rng(6), 4), SymTridiag(np.zeros(5), np.ones(4))]
        with pytest.raises(ValueError, match="equal sizes"):
            _sturm_counts(ms, lams)


def _assert_oracle_slopes(m, lams, slopes):
    """Slopes match sum over eigenvalues e of 1 / (lam - e) (dense oracle) at shifts 1e-3 from every e.

    That sum is d/dlam log|det(T - lam)|; the error allowed is 1e-8 of the sum of its magnitudes.
    """
    with np.errstate(divide="ignore"):
        terms = 1.0 / (np.asarray(lams, dtype=float)[:, None] - dense_eigenvalues(m)[None, :])
    away = np.all(np.abs(terms) < 1e3, axis=1)
    assert away.sum() >= len(lams) // 2
    err = np.abs(np.asarray(slopes)[away] - terms[away].sum(axis=1))
    assert np.all(err <= 1e-8 * np.abs(terms[away]).sum(axis=1))


def _assert_same_ratio_sums(m, lams, slopes, other):
    """Slopes that sum the same ratios d'_i / d_i in another order agree within 2 n eps sum |d'_i / d_i|.

    An exact zero pivot, nudged, leaves ratios near +-1 / eps that cancel, so
    only that scale bounds the difference.
    """
    pivots, off_sq = _reference_pivots(m, lams), np.concatenate(([0.0], m.offdiag**2))
    prev, r, scale = np.inf, np.zeros(np.size(lams)), np.zeros(np.size(lams))
    for q, d in zip(off_sq, pivots):
        r = (q / prev * r - 1.0) / d
        scale += np.abs(r)
        prev = d
    assert np.shape(slopes) == np.shape(other) == np.shape(lams)
    assert np.all(np.abs(np.asarray(slopes) - other) <= 2 * m.n_max * tridiag._EPS * scale)


class TestSlopePass:
    """A derivative pass counts as a count pass does and sums 1 / (lam - e).

    Its pivots are the count pass's IEEE operations, on both kernel paths;
    its slopes are checked against the dense oracle away from eigenvalues.
    """

    @given(st.integers(1, 40), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_counts_equal_count_pass(self, n, seed):
        rng = np.random.default_rng(seed)
        for m in (random_sym_tridiag(rng, n), _integer_sym_tridiag(rng, n)):
            lo, hi = m.gershgorin()
            # diagonal entries and integers put zero pivots on inner rows
            lams = [*rng.uniform(lo - 1.0, hi + 1.0, size=30), *m.diag[:3],
                    *np.arange(np.floor(lo), np.ceil(hi) + 1.0)]
            # 5 shifts run on the Python-float loops, 30 and more on numpy
            for shifts in (lams[:5], lams):
                counts, slopes = _sturm_counts(m, shifts, slopes=True)
                assert counts.tolist() == _sturm_counts(m, shifts).tolist()
                assert counts.tolist() == _reference_counts(m, shifts).tolist()
                assert slopes.shape == counts.shape
            # nudging a zero pivot keeps the slope finite
            _, slopes = _sturm_counts(m, [m.diag[0]], slopes=True)
            assert np.all(np.isfinite(slopes))

    @pytest.mark.parametrize("shifts", [5, 40])
    def test_slopes_match_oracle(self, shifts):
        rng = np.random.default_rng(shifts)
        for m in (random_sym_tridiag(rng, 30), _integer_sym_tridiag(rng, 30),
                  _zero_pivot_section(_PIVOTS)):
            lams = rng.uniform(m.gershgorin()[0] - 1.0, m.gershgorin()[1] + 1.0, size=shifts)
            _assert_oracle_slopes(m, lams, _sturm_counts(m, lams, slopes=True)[1])

    # _BLOCK_ELEMS at 2 x rows x shifts: the derivative rows share the block
    # budget, so the pass steps blocks of 1-4 rows
    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    @pytest.mark.parametrize("sizes", [None, [1, 4, 8, 10, 15]])
    def test_blocks_and_zero_pivots(self, monkeypatch, rows, sizes):
        m = _zero_pivot_section(_PIVOTS)
        rng = np.random.default_rng(30 + rows)
        lams = np.array([0.0, *rng.uniform(*m.gershgorin(), size=70)])
        monkeypatch.setattr(tridiag, "_BLOCK_ELEMS", 2 * rows * lams.size)
        counts, slopes = _sturm_counts(m, lams, sizes, slopes=True)
        assert counts.tolist() == _reference_counts(m, lams, sizes).tolist()
        # nudged zero pivots count as positive
        stops = [m.n_max] if sizes is None else sizes
        expect = [sum(p < 0 for p in _PIVOTS[:stop]) for stop in stops]
        assert np.reshape(counts, (len(stops), -1))[:, 0].tolist() == expect
        # shift 0 meets every zero pivot, which the pass nudges to finite slopes
        assert np.all(np.isfinite(slopes))
        _assert_oracle_slopes(m, lams, slopes)

    def test_stacked_rows_equal_sections_alone(self):
        rng = np.random.default_rng(7)
        ms = TestStackedPass.sections(rng, 15)
        lams = np.stack([[0.0, *rng.uniform(*m.gershgorin(), size=29)] for m in ms])
        counts, slopes = _sturm_counts(ms, lams, slopes=True)
        for m, row, c, s in zip(ms, lams, counts, slopes):
            alone = _sturm_counts(m, row, slopes=True)
            assert c.tolist() == alone[0].tolist()
            np.testing.assert_allclose(s, alone[1], rtol=1e-12)

    def test_derivative_rows_share_the_block_budget(self):
        # numpy allocations are traced: a derivative pass holds no more than a count pass
        m = random_sym_tridiag(np.random.default_rng(8), 300)
        lams = np.linspace(*m.gershgorin(), 1000)
        peaks = []
        for slopes in (False, True):
            tracemalloc.start()
            _sturm_counts(m, lams, slopes=slopes)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    @staticmethod
    def both_paths(monkeypatch, *args, **kwargs):
        """``_sturm_counts(..., slopes=True)`` on the numpy pass, then on the Python-float loop."""
        out = []
        for scalar_max in (1, 10**9):
            monkeypatch.setattr(tridiag, "_SCALAR_MAX_SHIFTS", scalar_max)
            out.append(_sturm_counts(*args, slopes=True, **kwargs))
        return out

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sizes", [None, [1, 4, 8, 10, 15]])
    def test_paths_agree(self, monkeypatch, seed, sizes):
        # float, integer and _PIVOTS sections; shift 0 meets every zero pivot
        # of the last, a diagonal entry nudges row 0
        rng = np.random.default_rng(80 + seed)
        for m in TestStackedPass.sections(rng, 15)[:3]:
            lo, hi = m.gershgorin()
            lams = np.array([0.0, 1.0, *m.diag[:3], *rng.uniform(lo - 1.0, hi + 1.0, size=25)])
            (counts, slopes), (loop_counts, loop_slopes) = self.both_paths(monkeypatch, m, lams, sizes)
            assert loop_counts.tolist() == counts.tolist() == _reference_counts(m, lams, sizes).tolist()
            # the paths sum the same ratios, blockwise against one at a time
            _assert_same_ratio_sums(m, lams, loop_slopes, slopes)
            # the uniform shifts meet no zero pivot, whose nudge costs the slope its accuracy
            for s in (slopes, loop_slopes):
                _assert_oracle_slopes(m, lams[5:], s[5:])

    @pytest.mark.parametrize("sizes", [None, [1, 4, 8, 10, 15]])
    def test_paths_agree_on_a_small_stack(self, monkeypatch, sizes):
        # 4 sections x 4 shifts, fewer than _SCALAR_MAX_SHIFTS in all
        rng = np.random.default_rng(90)
        ms = TestStackedPass.sections(rng, 15)
        lams = np.stack([[0.0, *rng.uniform(*m.gershgorin(), size=3)] for m in ms])
        assert lams.size < _SCALAR_MAX_SHIFTS
        (counts, slopes), (loop_counts, loop_slopes) = self.both_paths(monkeypatch, ms, lams, sizes)
        alone = [_reference_counts(m, row, sizes) for m, row in zip(ms, lams)]
        assert loop_counts.tolist() == counts.tolist() == np.stack(alone, axis=-2).tolist()
        assert loop_slopes.shape == slopes.shape == lams.shape
        for m, row, s, loop_s in zip(ms, lams, slopes, loop_slopes):
            _assert_same_ratio_sums(m, row, loop_s, s)
            # shift 0 meets zero pivots of the integer and _PIVOTS sections
            _assert_oracle_slopes(m, row[1:], s[1:])
            _assert_oracle_slopes(m, row[1:], loop_s[1:])

    # 1 sends the pass to numpy, 10**9 to the Python-float loop, where a
    # missed nudge would raise ZeroDivisionError
    @pytest.mark.parametrize("scalar_max", [1, 10**9])
    def test_subnormal_shift_warns_nothing(self, monkeypatch, scalar_max):
        # a shift a subnormal step above the eigenvalue 0 overflows q / d
        m = SymTridiag(diag=[0.0, 0.0, 0.0], offdiag=[1.0, 1.0])
        lam = 5e-324
        monkeypatch.setattr(tridiag, "_SCALAR_MAX_SHIFTS", scalar_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts, _ = _sturm_counts(m, [lam], slopes=True)
            assert counts[0] == sturm_count(m, lam)


def _growing_section(rng, n, slope=3.0, integer=False):
    """Section whose diagonal grows by ``slope`` per row, so low shifts certify a tail early."""
    if integer:
        return SymTridiag(diag=slope * np.arange(n) + rng.integers(-2, 3, n),
                          offdiag=rng.integers(1, 3, n - 1))
    return SymTridiag(diag=slope * np.arange(n) + rng.uniform(-1.0, 1.0, n),
                      offdiag=rng.uniform(0.5, 1.5, n - 1))


def _low_shifts(rng, m, k=4, extra=()):
    """The lowest k eigenvalues (dense oracle), their float neighbours, and uniform shifts below them."""
    ev = dense_eigenvalues(m)[:k]
    return np.concatenate([ev, np.nextafter(ev, -np.inf), np.nextafter(ev, np.inf),
                           rng.uniform(m.gershgorin()[0] - 1.0, ev[-1], 12), extra])


class _Walks:
    """Records each tail check of a pass: its inputs, the rows it read and its result."""

    def __init__(self, monkeypatch):
        self.calls = []
        check = tridiag._pivot_floor

        def spy(rows, d, lam):
            rows, read = list(rows), []

            def feed():
                for row in rows:
                    read.append(row)
                    yield row

            walked, bound = check(feed(), d, lam)
            self.calls.append({"rows": rows, "d": d, "lam": lam, "read": len(read),
                               "walked": walked, "certified": 0.0 < bound < np.inf})
            return walked, bound

        monkeypatch.setattr(tridiag, "_pivot_floor", spy)

    def certified(self):
        return [c for c in self.calls if c["certified"]]


class TestCertifiedTail:
    """A numpy pass stops once every section's remaining pivots are provably positive.

    ``_BLOCK_ELEMS`` is set to 1-4 rows' worth of shifts, so the tail check
    runs at many rows, and the counts must still equal the per-row loop's.
    """

    @staticmethod
    def patch_blocks(monkeypatch, rows, lams):
        monkeypatch.setattr(tridiag, "_BLOCK_ELEMS", rows * np.size(lams))

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    @pytest.mark.parametrize("integer", [False, True])
    def test_counts_equal_the_full_pass(self, monkeypatch, rows, integer):
        rng = np.random.default_rng(30 + rows)
        walks = _Walks(monkeypatch)
        for n in (6, 25, 60):
            m = _growing_section(rng, n, integer=integer)
            # integers hit zero pivots and exact eigenvalues of integer sections
            lams = _low_shifts(rng, m, extra=np.arange(-2.0, 6.0))
            self.patch_blocks(monkeypatch, rows, lams)
            assert _sturm_counts(m, lams).tolist() == _reference_counts(m, lams).tolist()
        assert walks.certified()

    @pytest.mark.parametrize("rows", [1, 3])
    def test_zero_pivots_before_the_cut(self, monkeypatch, rows):
        # _PIVOTS at shift 0, then pivots of exactly 2 there; shifts up to 0
        m = _zero_pivot_section(_PIVOTS + [2] * 25)
        rng = np.random.default_rng(40 + rows)
        lams = [0.0, *rng.uniform(m.gershgorin()[0], 0.0, 30)]
        self.patch_blocks(monkeypatch, rows, lams)
        walks = _Walks(monkeypatch)
        got = _sturm_counts(m, lams)
        assert got.tolist() == _reference_counts(m, lams).tolist()
        assert got[0] == sum(p < 0 for p in _PIVOTS)
        # every zero pivot lies in rows the pass stepped
        assert min(m.n_max - len(c["rows"]) for c in walks.certified()) >= len(_PIVOTS)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_sizes_around_the_cut(self, monkeypatch, rows):
        rng = np.random.default_rng(50 + rows)
        m = _growing_section(rng, 40)
        lams = _low_shifts(rng, m)
        self.patch_blocks(monkeypatch, rows, lams)
        walks = _Walks(monkeypatch)
        _sturm_counts(m, lams)
        cut = m.n_max - len(walks.certified()[0]["rows"])
        # every row a stop, then stops before, on and after the cut row
        for sizes in (range(1, m.n_max + 1), [1, cut - 1, cut, cut + 1, m.n_max - 1, m.n_max]):
            sizes = sorted(set(sizes) & set(range(1, m.n_max + 1)))
            assert _sturm_counts(m, lams, sizes).tolist() == _reference_counts(m, lams, sizes).tolist()

    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_stacked_sections_certify_at_different_rows(self, monkeypatch, rows):
        rng = np.random.default_rng(60 + rows)
        ms = [_growing_section(rng, 50, slope) for slope in (0.5, 3.0, 12.0)]
        # each section's largest shift, its own eigenvalue's neighbour, tells
        # its checks apart
        lams = np.stack([_low_shifts(rng, m)[:24] for m in ms])
        self.patch_blocks(monkeypatch, rows, lams)
        walks = _Walks(monkeypatch)
        got = _sturm_counts(ms, lams)
        alone = [_reference_counts(m, row) for m, row in zip(ms, lams)]
        assert got.tolist() == np.stack(alone).tolist()
        starts = {c["lam"]: 50 - len(c["rows"]) for c in walks.certified()}
        assert len(starts) == 3 and len(set(starts.values())) > 1

    @pytest.mark.parametrize("rows", [1, 3])
    def test_bound_holds_row_by_row(self, monkeypatch, rows):
        # at a certified row every column's pivots stay at or above the check's
        rng = np.random.default_rng(70 + rows)
        walks = _Walks(monkeypatch)
        for m in (_growing_section(rng, 40), _growing_section(rng, 40, 1.0),
                  _zero_pivot_section(_PIVOTS + [2] * 25)):
            lams = _low_shifts(rng, m, extra=[0.0])
            self.patch_blocks(monkeypatch, rows, lams)
            walks.calls.clear()
            _sturm_counts(m, lams)
            pivots = _reference_pivots(m, lams)
            assert walks.certified()
            for call in walks.certified():
                start = m.n_max - len(call["rows"])
                assert pivots[start - 1].min() >= call["d"]
                assert np.max(lams) <= call["lam"]
                for i in range(1, len(call["rows"]) + 1):
                    _, bound = tridiag._pivot_floor(call["rows"][:i], call["d"], call["lam"])
                    assert pivots[start + i - 1].min() >= bound > 0.0

    @pytest.mark.parametrize("d", [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_refuses_bad_carried_pivots(self, d):
        walked, bound = tridiag._pivot_floor(iter([(5.0, 1.0)] * 3), d, 0.0)
        assert walked == 0 and not 0.0 < bound < np.inf

    def test_refuses_a_zero_bound(self):
        # (2 - 1) - 1 / 1 is exactly 0 on the second row
        walked, bound = tridiag._pivot_floor(iter([(3.0, 1.0), (2.0, 1.0), (9.0, 1.0)]), 1.0, 1.0)
        assert (walked, bound) == (2, 0.0)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_refuses_a_plunging_tail(self, monkeypatch, rows):
        # the diagonal plunges in the last rows: a pass there gains negative pivots
        rng = np.random.default_rng(80 + rows)
        m = _growing_section(rng, 40)
        lams = _low_shifts(rng, m)
        m = SymTridiag(diag=np.concatenate([m.diag[:-2], [-1e3, -1e3]]), offdiag=m.offdiag)
        self.patch_blocks(monkeypatch, rows, lams)
        walks = _Walks(monkeypatch)
        got = _sturm_counts(m, lams)
        assert got.tolist() == _reference_counts(m, lams).tolist()
        assert walks.calls and not walks.certified()
        # a check that reaches the plunge fails on its first row
        assert 38 in [m.n_max - len(c["rows"]) + c["walked"] - 1 for c in walks.calls]

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_check_reads_each_row_about_once(self, monkeypatch, rows):
        # a failed check waits for the pass to step past the row it failed on
        rng = np.random.default_rng(90 + rows)
        grown = _growing_section(rng, 60)
        plunge = SymTridiag(diag=np.concatenate([grown.diag[:-3], [-1e3] * 3]), offdiag=grown.offdiag)
        for ms in ([plunge], [_growing_section(rng, 60, 0.5), plunge, _growing_section(rng, 60)]):
            lams = np.stack([_low_shifts(rng, grown) for _ in ms])
            lams[:, 0] = lams.max() + np.arange(len(ms))  # distinct largest shifts
            self.patch_blocks(monkeypatch, rows, lams)
            walks = _Walks(monkeypatch)
            _sturm_counts(ms, lams)
            for lam in set(c["lam"] for c in walks.calls):
                mine = [c for c in walks.calls if c["lam"] == lam]
                assert sum(c["read"] for c in mine) <= 60 + len(mine)
            assert any(c["read"] > 5 for c in walks.calls)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("integer", [False, True])
    def test_counts_over_passes_of_one_stack(self, monkeypatch, rows, integer):
        # passes over one whole stack, with shifts that fall and rise as a
        # bisection's do, count like the per-row loop
        rng = np.random.default_rng(110 + rows)
        ms = [_growing_section(rng, 50, slope, integer) for slope in (0.5, 3.0, 12.0)]
        stack = tridiag._Stack(ms)
        walks = _Walks(monkeypatch)
        # integers hit zero pivots and exact eigenvalues of integer sections,
        # and whole offsets keep them integers
        base = [_low_shifts(rng, m, extra=np.arange(-2.0, 3.0)) for m in ms]
        for _ in range(12):
            lams = np.stack([b + rng.choice([-1.0, -0.5, 0.0, 0.5]) for b in base])
            self.patch_blocks(monkeypatch, rows, lams)
            got = _sturm_counts(stack, lams)
            want = [_reference_counts(m, row) for m, row in zip(ms, lams)]
            assert got.tolist() == np.stack(want).tolist()
        assert walks.certified()


class TestSpeculativeDepth:
    """The depth rule: least total cost of the passes until every target has a bracket."""

    def test_documented_depths(self):
        depth = tridiag._speculative_depth
        # with a bracket per target: a lone bracket or two run one scalar
        # level, a handful speculate deep, 15-30 brackets 4-5 levels and 1000
        # brackets two
        assert [depth(b, b) for b in (1, 2)] == [1, 1]
        assert depth(4, 4) >= 6
        assert all(depth(b, b) in (4, 5) for b in range(15, 31))
        assert depth(1000, 1000) == 2
        # levels 2 and 3 cost the same per level here; the shallower one is taken
        assert depth(240, 240) == 2
        # a full spectrum's one bracket reaches all 1000 targets in one pass
        assert 2 ** depth(1, 1000) >= 1000

    def test_depth_minimises_modelled_cost(self):
        c, x = tridiag._NUMPY_ROW_STEPS, _SCALAR_MAX_SHIFTS
        depths = range(1, 40)

        def cost(b, d):
            shifts = b * (2**d - 1)
            return shifts * (c + x) / x if shifts < x else c + shifts

        # the passes the workloads start: collapse grids, golden run, full spectra
        cases = [(2, 30), (30, 30), (20, 400), (400, 400), (1, 1000), (1000, 1000)]
        cases += [(1, 1), (3, 3), (7, 7), (20, 20), (64, 64), (300, 300), (5000, 5000),
                  (1, 15), (3, 7), (300, 5000)]
        # every small bracket count, up to 40 targets more than brackets
        cases += [(b, t) for b in range(1, 41) for t in range(b, b + 41)]
        for brackets, targets in cases:
            # past the targets the bracket count stays, and a level costs at
            # least the least cost per level there
            steady = min(cost(targets, d) / d for d in depths)

            @functools.cache
            def least(b):
                # least cost of any sequence of passes until the brackets
                # reach the targets, each level priced down by steady
                if b >= targets:
                    return 0.0
                return min(cost(b, d) - d * steady + least(min(targets, b << d)) for d in depths)

            d = tridiag._speculative_depth(brackets, targets)
            chosen = cost(brackets, d) - d * steady + least(min(targets, brackets << d))
            assert chosen <= least(brackets) + 1e-9 * steady

    def test_depth_follows_the_constants(self, monkeypatch):
        assert tridiag._speculative_depth(1, 1) == 1
        # every pass on numpy: a lone bracket then speculates deep
        monkeypatch.setattr(tridiag, "_SCALAR_MAX_SHIFTS", 1)
        assert tridiag._speculative_depth(1, 1) > 1


class TestExactHits:
    """Shifts and window ends that land exactly on an eigenvalue.

    The count is strictly below the shift and windows are half-open
    [lo, hi), so an eigenvalue at a shift belongs to the window above it.
    """

    def test_one_by_one_count_at_its_eigenvalue(self):
        assert sturm_count(SymTridiag(diag=[1.0], offdiag=[]), 1.0) == 0

    def test_sigma_x_count_at_top_eigenvalue(self):
        assert sturm_count(SymTridiag(diag=[0.0, 0.0], offdiag=[1.0]), 1.0) == 1

    def test_sigma_x_window_ending_on_eigenvalue_excludes_it(self):
        m = SymTridiag(diag=[0.0, 0.0], offdiag=[1.0])
        assert len(eigenvalues_bisect(m, window=(0.0, 1.0))) == 0

    def test_sigma_x_window_starting_on_eigenvalue_includes_it(self):
        m = SymTridiag(diag=[0.0, 0.0], offdiag=[1.0])
        spec = eigenvalues_bisect(m, window=(1.0, 2.0), tol=1e-14)
        np.testing.assert_allclose(spec.eigenvalues, [1.0], atol=1e-13)

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1),
            )
        ),
        st.lists(st.integers(-8, 8), min_size=2, max_size=2, unique=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_matrices_vs_extended_precision(self, entries, shifts):
        # integer shifts hit zero pivots (shift = diag[0]) and, for some
        # matrices, exact eigenvalues; 50-digit eigenvalues decide the count
        diag, offdiag = entries
        m = SymTridiag(diag=diag, offdiag=offdiag)
        with mpmath.workdps(50):
            oracle = mpmath.eigsy(mpmath.matrix(m.dense().tolist()), eigvals_only=True)
            # the oracle judges the scalar path; the numpy path must agree
            counts = [sturm_count(m, lam) for lam in shifts]
            assert numpy_path_counts(m, shifts).tolist() == counts
            for lam, count in zip(shifts, counts):
                below = sum(ev < lam - mpmath.mpf("1e-30") for ev in oracle)
                hits = sum(abs(ev - lam) <= mpmath.mpf("1e-30") for ev in oracle)
                if _float_exact_pivots(diag, offdiag, lam):
                    assert count == below
                else:
                    # a rounded pivot of order eps can take either sign at a hit
                    assert below <= count <= below + hits
        a, b = sorted(shifts)
        assert len(eigenvalues_bisect(m, window=(a, b))) == sturm_count(m, b) - sturm_count(m, a)


def _float_exact_pivots(diag, offdiag, lam) -> bool:
    """Whether float64 forms every LDL^T pivot at ``lam`` without rounding.

    Each quotient and pivot, computed in rationals, must be a float64 value;
    a zero pivot may only come last, where no nudged division follows it.
    """
    d = Fraction(diag[0] - lam)
    for i in range(1, len(diag)):
        if d == 0:
            return False
        q = Fraction(offdiag[i - 1] ** 2) / d
        d = diag[i] - lam - q
        if Fraction(float(q)) != q or Fraction(float(d)) != d:
            return False
    return True


class TestCarlemanPartialSums:
    def test_harmonic(self):
        sums = carleman_partial_sums(lambda n: n + 1.0, 10)
        h10 = float(np.sum(1.0 / np.arange(1, 11)))
        assert sums[-1] == pytest.approx(h10, abs=1e-14)
        assert sums[-1] == pytest.approx(2.928968, abs=1e-6)

    def test_geometric_is_bounded(self):
        sums = carleman_partial_sums(lambda n: 2.0**n, 60)
        assert np.all(sums <= 2.0)
        assert sums[-1] == pytest.approx(2.0, abs=1e-12)

    def test_model_rule_dominated_by_harmonic(self):
        # [DERIVED by direct summation] a_n = sqrt((n+1)(n+2)) <= n+2, so the
        # sums dominate the shifted harmonic series
        params = jacobi_params(
            IntensityDependent(g=1.0, delta=0.0, kappa=1.0), SectorLabel(1)
        )
        k = 100_000
        sums = carleman_partial_sums(params.a, k)
        harmonic = np.cumsum(1.0 / np.arange(1, k + 2))  # H_1 .. H_(k+1)
        assert np.all(sums >= harmonic[1:] - 1.0)

    def test_rejects_non_positive_naming_index(self):
        with pytest.raises(ValueError, match=r"a\(3\)"):
            carleman_partial_sums(lambda n: 3.0 - np.asarray(n, dtype=float), 10)

    def test_scalar_only_rule_supported(self):
        def rule(n):
            if not isinstance(n, int):
                raise TypeError("scalar only")
            return float(n + 1)

        sums = carleman_partial_sums(rule, 5)
        assert sums[-1] == pytest.approx(1 + 1 / 2 + 1 / 3 + 1 / 4 + 1 / 5)
