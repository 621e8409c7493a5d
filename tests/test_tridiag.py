"""Tests for the symmetric tridiagonal kernel.

Expected values are either closed forms (2x2 matrices, harmonic numbers,
geometric series) or come from the dense LAPACK oracle in conftest, which
shares no code with the library's Sturm/bisection path; shifts that land
exactly on an eigenvalue are judged by 50-digit mpmath eigenvalues.
"""

import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    def test_full_spectrum_pass_count(self, monkeypatch):
        # counts passes, not time: the one-level loop takes 40 here
        calls = []

        def counting(m, lams, sizes=None):
            calls.append(len(lams))
            return _sturm_counts(m, lams, sizes)

        monkeypatch.setattr(tridiag, "_sturm_counts", counting)
        params = jacobi_params(TwoPhoton(g=0.3, delta=1.0), SectorLabel(1, 0))
        assert len(spectrum_scan(params, 1000)) == 1000
        assert len(calls) <= 20


def _reference_counts(m, lams, sizes=None):
    """The per-row numpy loop that the blocked pass replays.

    One numpy step per row over all shifts; ``_sturm_counts`` must return
    these counts on its numpy path.
    """
    diag, off_sq = m.diag, np.concatenate(([0.0], m.offdiag**2))
    lams = np.asarray(lams, dtype=float)
    stops = [m.n_max] if sizes is None else list(sizes)
    counts = np.empty((len(stops), lams.size), dtype=np.int64)
    d, count, start = np.full(lams.shape, np.inf), np.zeros(lams.shape, np.int64), 0
    for j, stop in enumerate(stops):
        for i in range(start, stop):
            d = (diag[i] - lams) - off_sq[i] / d
            zero = d == 0.0
            if zero.any():
                d = np.where(zero, tridiag._nudge(diag[i], lams), d)
            count += d < 0
        counts[j] = count
        start = stop
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
