"""Tests for the finite-section experiments: scans, collapse and edge counts."""

import numpy as np
import pytest

from rabi_spectra import (
    AnisotropicTwoPhoton,
    IntensityDependent,
    PhaseStateError,
    SectorLabel,
    TwoPhoton,
    collapse_scan,
    edge_density,
    jacobi_params,
    lowest_eigenvalues,
    predicted_phase,
    spectrum_scan,
    sturm_count,
)

from conftest import dense_eigenvalues


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

    def test_zero_width_windows_are_empty(self):
        model = TwoPhoton(g=0.5, delta=1.0)
        sector = SectorLabel(1, 0)
        report = predicted_phase(model, sector)
        density = edge_density(jacobi_params(model, sector), report, (50, 100), 0.0)
        assert density.essential_counts == (0, 0)
        assert density.complementary_counts == (0, 0)

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
