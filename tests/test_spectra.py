"""Tests for the finite-section experiments: scans, collapse and edge counts."""

import functools

import numpy as np
import pytest

from rabi_spectra import (
    AnisotropicTwoPhoton,
    DegenerateParameterError,
    IntensityDependent,
    PhaseStateError,
    SectorLabel,
    SymTridiag,
    TwoPhoton,
    TwoPhotonRabiStark,
    cli,
    collapse_scan,
    edge_density,
    eigenvalues_bisect,
    jacobi_params,
    lowest_eigenvalues,
    predicted_phase,
    spectrum_scan,
    sturm_count,
)
from rabi_spectra import spectra, tridiag
from rabi_spectra.models import JacobiParams
from rabi_spectra.spectra import _lowest_sections
from rabi_spectra.tridiag import _bisect_sections, default_bisect_tol

from conftest import dense_eigenvalues, random_sym_tridiag


class TestSpectrumScan:
    def test_two_by_two_closed_form(self):
        params = jacobi_params(TwoPhoton(g=0.1, delta=0.0), SectorLabel(1, 0))
        spec = spectrum_scan(params, 2, tol=1e-14)
        # section ((0, 0.1 sqrt 2), (0.1 sqrt 2, 2)) has eigenvalues 1 -+ sqrt(1.02)
        expected = np.array([1.0 - np.sqrt(1.02), 1.0 + np.sqrt(1.02)])
        np.testing.assert_allclose(spec.eigenvalues, expected, atol=1e-13)

    def test_lowest_ten_match_oracle(self):
        params = jacobi_params(
            IntensityDependent(g=0.25, delta=0.0, kappa=1.0), SectorLabel(1)
        )
        got = lowest_eigenvalues(params, 100, 10, tol=1e-12)
        expected = dense_eigenvalues(params.truncation(100))[:10]
        np.testing.assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, np.inf, np.nan])
    def test_lowest_rejects_bad_tol(self, tol):
        params = jacobi_params(TwoPhoton(g=0.3, delta=1.0), SectorLabel(1, 0))
        with pytest.raises(ValueError, match="tol"):
            lowest_eigenvalues(params, 30, 5, tol=tol)

    def test_window_below_spectrum_is_empty(self):
        params = jacobi_params(TwoPhoton(g=0.4, delta=0.0), SectorLabel(1, 0))
        lo, _ = params.truncation(50).gershgorin()
        spec = spectrum_scan(params, 50, window=(lo - 10.0, lo - 1.0))
        assert len(spec) == 0

    def test_counts_agree_with_sturm_at_window_ends(self):
        params = jacobi_params(TwoPhoton(g=0.45, delta=1.0), SectorLabel(-1, 1))
        m = params.truncation(80)
        window = (-1.0, 30.0)
        spec = spectrum_scan(params, 80, window=window)
        assert len(spec) == sturm_count(m, window[1]) - sturm_count(m, window[0])

    def test_cutoff_floor(self):
        params = jacobi_params(TwoPhoton(g=0.4, delta=0.0), SectorLabel(1, 0))
        with pytest.raises(ValueError, match="cutoff"):
            spectrum_scan(params, 1)


class TestCollapseScan:
    def test_two_photon_mean_gap_decreases(self):
        scan = collapse_scan(
            lambda g: TwoPhoton(g=g, delta=1.0),
            [0.30, 0.35, 0.40, 0.45, 0.49],
            SectorLabel(1, 0),
            cutoff=400,
            k=20,
        )
        assert np.all(np.diff(scan.mean_gaps) < 0)
        assert not scan.nondiscrete.any()
        assert scan.dropped.tolist() == [0] * 5

    def test_intensity_dependent_mean_gap_decreases(self):
        scan = collapse_scan(
            lambda g: IntensityDependent(g=g, delta=0.0, kappa=1.0),
            [0.30, 0.40, 0.49],
            SectorLabel(1),
            cutoff=400,
            k=20,
        )
        assert np.all(np.diff(scan.mean_gaps) < 0)

    def test_single_point_grid(self):
        scan = collapse_scan(
            lambda g: TwoPhoton(g=g, delta=1.0), [0.4], SectorLabel(1, 0), cutoff=100, k=5
        )
        assert scan.mean_gaps.shape == (1,) and len(scan.spectra) == 1

    def test_nondiscrete_points_are_flagged(self):
        scan = collapse_scan(
            lambda g: TwoPhoton(g=g, delta=1.0),
            [0.4, 0.8],
            SectorLabel(1, 0),
            cutoff=60,
            k=4,
        )
        assert scan.nondiscrete.tolist() == [False, True]

    def test_dropped_counts_the_spurious_edge_cut(self):
        # at k = cutoff every eigenvalue is taken, and the top of the
        # spectrum lies above 90 % of the Gershgorin range
        grid, sector = [0.1, 0.3], SectorLabel(1, 0)
        scan = collapse_scan(lambda g: TwoPhoton(g=g, delta=1.0), grid, sector, cutoff=20, k=20)
        for g, spec, dropped in zip(grid, scan.spectra, scan.dropped.tolist()):
            m = jacobi_params(TwoPhoton(g=g, delta=1.0), sector).truncation(20)
            glo, ghi = m.gershgorin()
            above = int(np.sum(dense_eigenvalues(m) > glo + 0.9 * (ghi - glo)))
            assert dropped == above > 0
            assert len(spec) + dropped == 20

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            collapse_scan(
                lambda g: TwoPhoton(g=g, delta=1.0), [0.4, 0.4], SectorLabel(1, 0), 50, 4
            )

    def test_k_floor(self):
        with pytest.raises(ValueError, match="k"):
            collapse_scan(
                lambda g: TwoPhoton(g=g, delta=1.0), [0.4], SectorLabel(1, 0), 50, 1
            )


class TestEdgeDensity:
    def test_two_photon_critical_accumulation(self):
        model = TwoPhoton(g=0.5, delta=1.0)
        sector = SectorLabel(1, 0)
        report = predicted_phase(model, sector)
        density = edge_density(jacobi_params(model, sector), report, (200, 400, 800), 5.0)
        assert density.endpoint == pytest.approx(-0.5, abs=1e-12)
        assert density.direction == "up"
        ess = density.essential_counts
        assert ess[0] < ess[1] < ess[2]
        assert max(density.complementary_counts) <= 5

    @pytest.mark.parametrize(
        "model, sector",
        [
            (TwoPhoton(g=0.5, delta=1.0), SectorLabel(1, 0)),
            (AnisotropicTwoPhoton(g_plus=1.3, g_minus=0.3, delta=1.0), SectorLabel(-1, 1)),
        ],
    )
    def test_ladder_equals_single_cutoff_calls(self, model, sector):
        # one "up" and one "down" half-line
        params, report = jacobi_params(model, sector), predicted_phase(model, sector)
        ladder = edge_density(params, report, (200, 400, 800), 5.0)
        singles = [edge_density(params, report, (c,), 5.0) for c in (200, 400, 800)]
        assert ladder.essential_counts == tuple(s.essential_counts[0] for s in singles)
        assert ladder.complementary_counts == tuple(s.complementary_counts[0] for s in singles)

    @pytest.mark.parametrize(
        "model, sector",
        [
            (TwoPhoton(g=0.5, delta=1.0), SectorLabel(1, 0)),
            (IntensityDependent(g=0.5, delta=1.0, kappa=1.0), SectorLabel(-1)),
            (AnisotropicTwoPhoton(g_plus=0.8, g_minus=0.2, delta=1.0), SectorLabel(-1, 1)),
            (AnisotropicTwoPhoton(g_plus=1.3, g_minus=0.3, delta=1.0), SectorLabel(1, 1)),
            (TwoPhotonRabiStark(g=0.4, delta=1.0, kappa=0.6), SectorLabel(-1, 0)),
            (TwoPhotonRabiStark(g=0.7, delta=1.0, kappa=-1.0), SectorLabel(1, 0)),
        ],
    )
    def test_bench_ladder_counts_equal_the_numpy_path(self, monkeypatch, model, sector):
        # the critical half-lines of the edge benchmark at its cutoffs: the
        # three-shift scalar pass counts as a numpy pass over the same section
        cutoffs, W = (10_000, 20_000), 5.0
        params, report = jacobi_params(model, sector), predicted_phase(model, sector)
        density = edge_density(params, report, cutoffs, W)
        ep = density.endpoint
        with monkeypatch.context() as patched:
            patched.setattr(tridiag, "_SCALAR_MAX_SHIFTS", 1)
            below, at, above = tridiag._sturm_counts(
                params.truncation(cutoffs[-1]), [ep - W, ep, ep + W], sizes=cutoffs
            ).T
        lower, upper = tuple((at - below).tolist()), tuple((above - at).tolist())
        want = (upper, lower) if density.direction == "up" else (lower, upper)
        assert (density.essential_counts, density.complementary_counts) == want
        empty = edge_density(params, report, cutoffs, 0.0)
        assert empty.essential_counts == empty.complementary_counts == (0, 0)

    def test_zero_width_windows_are_empty(self):
        model = TwoPhoton(g=0.5, delta=1.0)
        sector = SectorLabel(1, 0)
        report = predicted_phase(model, sector)
        density = edge_density(jacobi_params(model, sector), report, (50, 100), 0.0)
        assert density.essential_counts == (0, 0)
        assert density.complementary_counts == (0, 0)

    @pytest.mark.parametrize("W", [-1.0, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_width(self, W):
        model = TwoPhoton(g=0.5, delta=1.0)
        sector = SectorLabel(1, 0)
        report = predicted_phase(model, sector)
        with pytest.raises(ValueError, match="window width"):
            edge_density(jacobi_params(model, sector), report, (50, 100), W)

    def test_rejects_non_critical_report(self):
        model = TwoPhoton(g=0.3, delta=1.0)
        sector = SectorLabel(1, 0)
        report = predicted_phase(model, sector)
        with pytest.raises(PhaseStateError, match="critical"):
            edge_density(jacobi_params(model, sector), report, (50, 100), 5.0)

    def test_cutoffs_must_increase(self):
        model = TwoPhoton(g=0.5, delta=1.0)
        sector = SectorLabel(1, 0)
        report = predicted_phase(model, sector)
        with pytest.raises(ValueError, match="increasing"):
            edge_density(jacobi_params(model, sector), report, (400, 200), 5.0)


class TestDiscreteRegimeConvergence:
    def test_lowest_ten_converge_in_cutoff(self):
        # purely discrete phase: the lowest eigenvalues settle well before
        # cutoff 400 at desk-scale parameters
        params = jacobi_params(TwoPhoton(g=0.3, delta=1.0), SectorLabel(1, 0))
        at_400 = lowest_eigenvalues(params, 400, 10, tol=1e-10)
        at_800 = lowest_eigenvalues(params, 800, 10, tol=1e-10)
        assert np.max(np.abs(at_800 - at_400)) <= 1e-6


class TestCutoffMonotonicity:
    def test_lowest_eigenvalues_non_increasing_in_cutoff(self):
        # leading principal compressions: each lambda_j can only move down
        # as the section grows
        params = jacobi_params(TwoPhoton(g=0.42, delta=1.0), SectorLabel(1, 0))
        ladder = [100, 200, 400]
        lows = [lowest_eigenvalues(params, c, 10, tol=1e-13) for c in ladder]
        for smaller, larger in zip(lows, lows[1:]):
            assert np.all(larger <= smaller + 1e-12)

    def test_interlacing_on_adjacent_cutoffs(self):
        params = jacobi_params(TwoPhoton(g=0.42, delta=1.0), SectorLabel(1, 0))
        big = lowest_eigenvalues(params, 120, 12, tol=1e-13)
        small = lowest_eigenvalues(params, 119, 12, tol=1e-13)
        assert np.all(big[:11] <= small[:11] + 1e-12)
        assert np.all(small[:11] <= big[1:] + 1e-12)


def _lowest_alone(m, k, tol):
    """One section's lowest k as ``lowest_eigenvalues`` solved it before lockstep.

    Grows the window with one ``sturm_count`` per doubling, then bisects
    the section alone; the lockstep solve must return these bytes.
    """
    glo, ghi = m.gershgorin()
    pad = 1e-9 * max(1.0, abs(glo), abs(ghi))
    lo, hi = glo - pad, min(glo + 1.0, ghi) + pad
    while sturm_count(m, hi) < k and hi < ghi + pad:
        hi = min(lo + 2.0 * (hi - lo), ghi + pad)
    return eigenvalues_bisect(m, window=(lo, hi), tol=tol, k=k).eigenvalues


def _discrete_grid(rng, family, size):
    """A coupling grid inside the purely discrete regime of one model family."""
    delta = float(rng.uniform(-2.0, 2.0))
    if family == "two-photon":
        make, g_max = (lambda g: TwoPhoton(g=g, delta=delta)), 0.47
    elif family == "intensity":
        kappa = float(rng.uniform(0.2, 2.0))
        make, g_max = (lambda g: IntensityDependent(g=g, delta=delta, kappa=kappa)), 0.47
    elif family == "anisotropic":
        half = float(rng.uniform(0.02, 0.09))
        make, g_max = (lambda g: AnisotropicTwoPhoton(g_plus=g + half, g_minus=g - half, delta=delta)), 0.47
    else:
        kappa = float(rng.uniform(-0.8, 0.8))
        make, g_max = (lambda g: TwoPhotonRabiStark(g=g, delta=delta, kappa=kappa)), 0.97 * np.sqrt(1 - kappa**2) / 2
    return make, np.sort(rng.uniform(0.12, g_max, size))


_FAMILIES = ["two-photon", "intensity", "anisotropic", "rabi-stark"]


class TestLockstep:
    """Grid points solved in lockstep keep the bytes of solves one section at a time."""

    @staticmethod
    def grid_sections(rng, family, cutoff):
        make, grid = _discrete_grid(rng, family, int(rng.integers(1, 21)))
        sign = int(rng.choice([-1, 1]))
        sector = SectorLabel(sign) if family == "intensity" else SectorLabel(sign, int(rng.integers(0, 2)))
        return [jacobi_params(make(float(g)), sector).truncation(cutoff) for g in grid]

    def check(self, ms, k, tols, reference=None):
        want = reference or [_lowest_alone(m, k, tol).tobytes() for m, tol in zip(ms, tols)]
        got = [e.tobytes() for e in _lowest_sections(ms, k, tols)]
        assert got == want

    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("cutoff", [100, 300])
    def test_random_grids_bytes(self, family, cutoff):
        rng = np.random.default_rng(cutoff + _FAMILIES.index(family))
        for _ in range(2):
            ms = self.grid_sections(rng, family, cutoff)
            self.check(ms, int(rng.integers(2, 21)), [default_bisect_tol(m) for m in ms])

    # 1 sends every pass to numpy, 10**9 every pass to the scalar loop; blocks
    # of a few rows put many block ends inside each pass
    @pytest.mark.parametrize("scalar_max, block_rows", [(1, 3), (1, None), (10**9, None)])
    def test_both_kernel_paths(self, monkeypatch, scalar_max, block_rows):
        rng = np.random.default_rng(scalar_max)
        ms = self.grid_sections(rng, "two-photon", 100)[:6]
        tols = [default_bisect_tol(m) for m in ms]
        want = [_lowest_alone(m, 12, tol).tobytes() for m, tol in zip(ms, tols)]
        monkeypatch.setattr(tridiag, "_SCALAR_MAX_SHIFTS", scalar_max)
        if block_rows is not None:
            monkeypatch.setattr(tridiag, "_BLOCK_ELEMS", block_rows)
        self.check(ms, 12, tols, want)

    @staticmethod
    def located(monkeypatch, sturm_passes):
        """Price the located route below any bisection and count passes from here on."""
        monkeypatch.setattr(tridiag, "_SLOPE_COST", -np.inf)
        sturm_passes.clear()

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_located_route_bytes(self, monkeypatch, sturm_passes, family):
        # every lockstep solve locates count transitions after its first pass
        rng = np.random.default_rng(40 + _FAMILIES.index(family))
        ms = self.grid_sections(rng, family, 100)
        tols, k = [default_bisect_tol(m) for m in ms], int(rng.integers(2, 21))
        want = [_lowest_alone(m, k, tol).tobytes() for m, tol in zip(ms, tols)]
        self.located(monkeypatch, sturm_passes)
        self.check(ms, k, tols, want)
        assert any(p.slopes for p in sturm_passes)

    def test_located_route_with_uneven_sections(self, monkeypatch, sturm_passes):
        # sections without targets, k above some counts and tolerances from
        # loose to stuck, as in test_sections_with_different_target_counts
        rng = np.random.default_rng(12)
        ms = [random_sym_tridiag(rng, 40) for _ in range(6)]
        windows = [(-9.0, -8.0), (-1.0, 0.0), (-5.0, 5.0), (0.0, 2.5), (-2.0, 9.0), (1.0, 1.5)]
        tols, k = [1e-3, 1e-12, 1e-300, 1e-9, 1e-12, 1e-6], 7
        want = [eigenvalues_bisect(m, window=w, tol=t, k=k).eigenvalues.tobytes()
                for m, w, t in zip(ms, windows, tols)]
        lo, hi = np.array(windows).T
        first, end = np.array([tridiag._sturm_counts(m, w) for m, w in zip(ms, windows)]).T
        self.located(monkeypatch, sturm_passes)
        got = _bisect_sections(ms, lo, hi, first, np.minimum(end, first + k), tols)
        assert [g.tobytes() for g in got] == want
        assert any(p.slopes for p in sturm_passes)

    def test_stuck_brackets_bytes(self):
        # tol far below float spacing: every bracket ends stuck, not done
        rng = np.random.default_rng(11)
        ms = self.grid_sections(rng, "intensity", 100)
        self.check(ms, 8, [1e-300] * len(ms))

    # window 0 lies below every Gershgorin interval, so its section has no
    # targets: first, in the middle, last, and in every section but one.  A
    # pass over the whole stack gives such a section a row nobody reads
    @pytest.mark.parametrize("order", [
        [0, 1, 2, 3, 4, 5], [1, 2, 0, 3, 4, 5], [1, 2, 3, 4, 5, 0], [0, 0, 2, 0, 0, 0],
    ], ids=["empty-first", "empty-middle", "empty-last", "one-with-targets"])
    def test_sections_with_different_target_counts(self, order):
        # windows holding 0, a few and many eigenvalues, k above some counts,
        # and tolerances from loose to stuck
        rng = np.random.default_rng(12)
        ms = [random_sym_tridiag(rng, 40) for _ in range(6)]
        windows = [(-9.0, -8.0), (-1.0, 0.0), (-5.0, 5.0), (0.0, 2.5), (-2.0, 9.0), (1.0, 1.5)]
        tols = [1e-3, 1e-12, 1e-300, 1e-9, 1e-12, 1e-6]
        ms, windows, tols = ([x[i] for i in order] for x in (ms, windows, tols))
        k = 7
        lo, hi = np.array(windows).T
        first, end = np.array([tridiag._sturm_counts(m, w) for m, w in zip(ms, windows)]).T
        got = _bisect_sections(ms, lo, hi, first, np.minimum(end, first + k), tols)
        want = [eigenvalues_bisect(m, window=w, tol=t, k=k).eigenvalues
                for m, w, t in zip(ms, windows, tols)]
        counts = [len(w) for w in want]
        assert [c == 0 for c in counts] == [i == 0 for i in order]
        assert k in counts and len(set(counts)) >= (2 if order.count(0) > 1 else 4)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_bracket_shared_across_sections(self):
        # after one level both sections hold a target in [0, 2): the last of
        # the first section and the first of the second, whose other target
        # lies in [2, 4)
        ms = [SymTridiag(diag=[0.5, 1.0, 10.0, 11.0], offdiag=[1e-3] * 3),
              SymTridiag(diag=[1.5, 3.0, 10.0, 11.0], offdiag=[1e-3] * 3)]
        got = _bisect_sections(ms, [0.0, 0.0], [4.0, 4.0], [0, 0], [2, 2], [1e-12, 1e-12])
        want = [eigenvalues_bisect(m, window=(0.0, 4.0), tol=1e-12).eigenvalues for m in ms]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_one_truncation_per_grid_point(self, monkeypatch):
        calls = []
        truncation = JacobiParams.truncation

        def counting(self, n_max):
            calls.append(n_max)
            return truncation(self, n_max)

        monkeypatch.setattr(JacobiParams, "truncation", counting)
        grid = [0.30, 0.35, 0.40, 0.45]
        collapse_scan(lambda g: TwoPhoton(g=g, delta=1.0), grid, SectorLabel(1, 0), 100, 10)
        assert calls == [100] * len(grid)

    def test_golden_grid_pass_count(self, sturm_passes):
        # counts passes, not time: a solve per grid point took 236 here; the
        # window growth passes are counted too
        grid = np.round(np.arange(0.30, 0.495, 0.01), 2)
        scan = collapse_scan(lambda g: TwoPhoton(g=g, delta=1.0), grid, SectorLabel(1, 0), 400, 20)
        assert len(scan.spectra) == 20
        assert len(sturm_passes) <= 40
        assert len(sturm_passes) <= 14 and sum(p.slopes for p in sturm_passes) <= 5
        assert sum(p.shifts for p in sturm_passes) <= 3_940
        # its least derivative pass has 120 stacked shifts and stays on numpy
        assert not any(p.slopes and p.shifts < tridiag._SCALAR_MAX_SHIFTS for p in sturm_passes)
        # every pass of the solve gets its one stack of all 20 sections
        stack = sturm_passes[0].stack
        assert all(p.stack is stack for p in sturm_passes) and len(stack) == 20

    def test_speculative_route_pass_count(self, sturm_passes, capsys):
        # two grid points of 15 targets never price the located route: every
        # pass counts the next levels of their brackets
        argv = ["collapse", "--model", "two-photon", "--delta", "1",
                "--grid", "0.30,0.35", "--cutoff", "300", "-k", "15"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert not any(p.slopes for p in sturm_passes)
        assert len(sturm_passes) <= 14 and sum(p.shifts for p in sturm_passes) <= 3_674

    def test_golden_run_walk_steps(self, monkeypatch, capsys):
        # counts rows, not time: tail walks read 36,326 rows here before the
        # located solve (1,833 since)
        steps = []
        walk = tridiag._pivot_floor

        def counting(rows, d, lam):
            walked, bound = walk(rows, d, lam)
            steps.append(walked)
            return walked, bound

        monkeypatch.setattr(tridiag, "_pivot_floor", counting)
        argv = ["collapse", "--model", "two-photon", "--delta", "1",
                "--grid", "0.30:0.49:0.01", "--cutoff", "400", "-k", "20"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert steps and sum(steps) <= 12_000

    def test_derived_arrays_once_per_section(self, monkeypatch, sturm_passes):
        # however many passes the solve takes, each section's squared couplings
        # and Gershgorin bounds are built once, and the stack's numpy rows once
        built = []
        for owner, name in ((SymTridiag, "_off_sq"), (SymTridiag, "_gershgorin"),
                            (tridiag._Stack, "numpy_rows")):
            derive = vars(owner)[name].func

            def counting(m, derive=derive, name=name):
                built.append((name, id(m)))
                return derive(m)

            prop = functools.cached_property(counting)
            prop.__set_name__(owner, name)
            monkeypatch.setattr(owner, name, prop)
        grid = [0.30, 0.35, 0.40, 0.45]
        collapse_scan(lambda g: TwoPhoton(g=g, delta=1.0), grid, SectorLabel(1, 0), 200, 12)
        assert len(sturm_passes) > 2 * len(grid)
        assert len(set(built)) == len(built) == 2 * len(grid) + 1
        # the one stack's numpy passes after the first reuse its rows
        assert sum(p.shifts >= tridiag._SCALAR_MAX_SHIFTS for p in sturm_passes) > 1


class TestCollapseErrors:
    """The lockstep scan raises the error of the first failing grid point."""

    # g = 0.05 fails the spurious-edge cut at cutoff 2, k 2; the others pass it
    @staticmethod
    def factory(fail_factory=()):
        def make(g):
            if g in fail_factory:
                raise DegenerateParameterError(f"factory failed at {g}")
            return TwoPhoton(g=g, delta=1.0)
        return make

    @pytest.fixture
    def phase_fails_at(self, monkeypatch):
        failing = set()

        def checked(model, sector):
            if model.g in failing:
                raise RuntimeError(f"phase failed at {model.g}")
            return predicted_phase(model, sector)

        monkeypatch.setattr(spectra, "predicted_phase", checked)
        return failing

    def scan(self, grid, fail_factory=()):
        return collapse_scan(self.factory(fail_factory), grid, SectorLabel(1, 0), 2, 2)

    def test_cut_before_later_failures(self, phase_fails_at):
        phase_fails_at.add(0.3)
        with pytest.raises(ValueError, match=r"spurious-edge cut at coupling 0\.05;"):
            self.scan([0.05, 0.3, 0.4], fail_factory={0.4})

    def test_phase_before_later_factory_failure(self, phase_fails_at):
        phase_fails_at.add(0.3)
        with pytest.raises(RuntimeError, match="phase failed at 0.3"):
            self.scan([0.3, 0.4], fail_factory={0.4})

    def test_factory_before_later_cut_failure(self):
        with pytest.raises(DegenerateParameterError, match="factory failed at 0.04"):
            self.scan([0.04, 0.05, 0.3], fail_factory={0.04})
        with pytest.raises(DegenerateParameterError, match="factory failed at 0.35"):
            self.scan([0.3, 0.35, 0.4], fail_factory={0.35})

    @pytest.mark.parametrize(
        "grid, code, message",
        [("0.05,0.3", 1, "spurious-edge cut at coupling"), ("0.3,0.4", 0, "")],
    )
    def test_cli_exit_codes(self, capsys, grid, code, message):
        argv = ["collapse", "--model", "two-photon", "--delta", "1", "--grid", grid,
                "--cutoff", "2", "-k", "2", "--sector", "0+"]
        assert cli.main(argv) == code
        assert message in capsys.readouterr().err
