"""Tests for the model reductions: sector Jacobi parameters, dense finite
sections, block-diagonalisation, and the symbolic phase prediction."""

import numpy as np
import pytest

import rabi_spectra.models as models
from rabi_spectra import (
    AnisotropicTwoPhoton,
    DegenerateParameterError,
    HalfLine,
    IntensityDependent,
    PhaseKind,
    SectorLabel,
    TwoPhoton,
    TwoPhotonRabiStark,
    UnsupportedRegimeError,
    carleman_growth_constant,
    carleman_lower_bound,
    carleman_partial_sums,
    classify,
    critical_trace,
    decomposition_check,
    hamiltonian_matrix,
    jacobi_params,
    monodromy,
    predicted_phase,
    sector_basis_index,
    sectors,
)
from rabi_spectra.modulation import PeriodicModulation, exact_edge_indicator

ALL_SECTOR_LABELS = {
    "intensity": ("-", "+"),
    "two-photon": ("0-", "0+", "1-", "1+"),
}


def sample_models():
    return [
        IntensityDependent(g=0.5, delta=0.7, kappa=1.5),
        TwoPhoton(g=0.7, delta=1.3),
        AnisotropicTwoPhoton(g_plus=0.8, g_minus=0.2, delta=2.0),
        TwoPhotonRabiStark(g=0.4, delta=1.0, kappa=0.6),
    ]


class TestConstruction:
    def test_positivity(self):
        with pytest.raises(ValueError, match="g must be"):
            TwoPhoton(g=0.0, delta=1.0)
        with pytest.raises(ValueError, match="g must be"):
            IntensityDependent(g=-1.0, delta=0.0, kappa=1.0)
        with pytest.raises(ValueError, match="g_minus"):
            AnisotropicTwoPhoton(g_plus=1.0, g_minus=0.0, delta=0.0)
        with pytest.raises(ValueError, match="kappa"):
            IntensityDependent(g=1.0, delta=0.0, kappa=-0.1)

    def test_anisotropic_rejects_equal_couplings(self):
        with pytest.raises(ValueError, match="differ"):
            AnisotropicTwoPhoton(g_plus=0.5, g_minus=0.5, delta=1.0)

    def test_anisotropic_mean_dominates_half_difference(self):
        m = AnisotropicTwoPhoton(g_plus=1.3, g_minus=0.3, delta=0.0)
        assert abs(m.g_diff) < m.g_mean

    def test_kappa_zero_constructible_but_degenerate_for_jacobi(self):
        m = IntensityDependent(g=1.0, delta=0.0, kappa=0.0)
        with pytest.raises(DegenerateParameterError, match="kappa = 0"):
            jacobi_params(m, SectorLabel(1))


class TestSectors:
    def test_counts_and_order(self):
        assert [str(s) for s in sectors(IntensityDependent(g=1, delta=0, kappa=1))] == ["-", "+"]
        for model in (TwoPhoton(g=1, delta=0),
                      TwoPhotonRabiStark(g=1, delta=0, kappa=0.0)):
            assert [str(s) for s in sectors(model)] == ["0-", "0+", "1-", "1+"]

    def test_sector_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mu"):
            jacobi_params(TwoPhoton(g=1, delta=0), SectorLabel(1))
        with pytest.raises(ValueError, match="no parity"):
            jacobi_params(IntensityDependent(g=1, delta=0, kappa=1), SectorLabel(1, 0))

    def test_parse_round_trip(self):
        for text in ("+", "-", "0+", "0-", "1+", "1-"):
            assert str(SectorLabel.parse(text)) == text
        with pytest.raises(ValueError):
            SectorLabel.parse("2+")


class TestJacobiParams:
    def test_intensity_dependent_values(self):
        params = jacobi_params(
            IntensityDependent(g=1.0, delta=2.0, kappa=1.0), SectorLabel(1)
        )
        assert params.a(0) == pytest.approx(np.sqrt(2.0), abs=0)
        assert params.b(0) == 1.0
        assert params.b(1) == 0.0

    def test_two_photon_values(self):
        params = jacobi_params(TwoPhoton(g=0.5, delta=0.0), SectorLabel(1, 0))
        assert params.a(0) == pytest.approx(0.5 * np.sqrt(2.0), abs=0)
        n = np.arange(6)
        np.testing.assert_array_equal(params.b(n), 2.0 * n)

    @pytest.mark.parametrize("model", sample_models(), ids=lambda m: m.name)
    def test_truncation_is_leading_block_of_larger(self, model):
        # the edge-count ladder reads every cutoff off the largest section
        for sector in sectors(model):
            params = jacobi_params(model, sector)
            small, big = params.truncation(300), params.truncation(600)
            assert small.diag.tobytes() == big.diag[:300].tobytes()
            assert small.offdiag.tobytes() == big.offdiag[:299].tobytes()

    @pytest.mark.parametrize("model", sample_models(), ids=lambda m: m.name)
    @pytest.mark.parametrize("n_max", [1, 2, 3, 1000, 20001])
    def test_truncation_entries_are_the_rules_bit_for_bit(self, model, n_max):
        # the section is built per residue class, a(n) and b(n) by index arrays
        idx = np.arange(n_max)
        for sector in sectors(model):
            params = jacobi_params(model, sector)
            m = params.truncation(n_max)
            assert m.diag.tobytes() == params.b(idx).tobytes()
            assert m.offdiag.tobytes() == params.a(idx[:-1]).tobytes()

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 1000, 20001])
    def test_period_three_leading_entries_are_the_rules(self, n_max):
        mod = PeriodicModulation(alpha=(0.3, 1.7, 0.9), beta=(1.0, -2.5, 0.1),
                                 gamma=(0.25, -1.0 / 3.0, 7.0), t=0.7, s=2.9)
        b, a = mod.leading(n_max)
        idx = np.arange(n_max)
        assert b.tobytes() == mod.b(idx).tobytes()
        assert a.tobytes() == mod.a(idx[:-1]).tobytes()

    def test_closed_forms_match_modulated_forms(self):
        # the evaluable rules are the modulated forms; the per-model closed
        # forms must agree to rounding
        n = np.arange(250, dtype=float)
        alt = (-1.0) ** n

        p = jacobi_params(IntensityDependent(g=0.7, delta=1.1, kappa=0.9), SectorLabel(-1))
        np.testing.assert_array_equal(p.a(n), 0.7 * np.sqrt((n + 1) * (n + 1.8)))
        np.testing.assert_allclose(p.b(n), n - alt * 1.1 / 2, atol=0)

        for mu in (0, 1):
            p = jacobi_params(TwoPhoton(g=0.7, delta=1.3), SectorLabel(1, mu))
            np.testing.assert_array_equal(
                p.a(n), 0.7 * np.sqrt((2 * n + 1 + mu) * (2 * n + 2 + mu))
            )
            np.testing.assert_allclose(p.b(n), 2 * n + mu + alt * 1.3 / 2, atol=0)

            m = AnisotropicTwoPhoton(g_plus=0.9, g_minus=0.4, delta=0.6)
            for sign in (1, -1):
                p = jacobi_params(m, SectorLabel(sign, mu))
                expect = (m.g_mean - sign * alt * m.g_diff) * np.sqrt(
                    (2 * n + 1 + mu) * (2 * n + 2 + mu)
                )
                np.testing.assert_allclose(p.a(n), expect, rtol=1e-15)

            st = TwoPhotonRabiStark(g=0.45, delta=0.8, kappa=1.7)
            for sign in (1, -1):
                p = jacobi_params(st, SectorLabel(sign, mu))
                expect_b = (2 * n + mu) * (1 + sign * alt * st.kappa) + sign * alt * st.delta / 2
                np.testing.assert_allclose(p.b(n), expect_b, atol=1e-12)

    def test_delta_swap_symmetry(self):
        # flipping delta exchanges the +- diagonals entry for entry
        n = np.arange(40)
        p_plus = jacobi_params(TwoPhoton(g=0.6, delta=1.9), SectorLabel(1, 1))
        p_minus = jacobi_params(TwoPhoton(g=0.6, delta=-1.9), SectorLabel(-1, 1))
        np.testing.assert_array_equal(p_plus.b(n), p_minus.b(n))

        p_plus = jacobi_params(IntensityDependent(g=0.6, delta=1.9, kappa=1.0), SectorLabel(1))
        p_minus = jacobi_params(IntensityDependent(g=0.6, delta=-1.9, kappa=1.0), SectorLabel(-1))
        np.testing.assert_array_equal(p_plus.b(n), p_minus.b(n))

        # the Stark term ties the swap to kappa -> -kappa as well
        p_plus = jacobi_params(TwoPhotonRabiStark(g=0.6, delta=1.9, kappa=0.4), SectorLabel(1, 0))
        p_minus = jacobi_params(TwoPhotonRabiStark(g=0.6, delta=-1.9, kappa=-0.4), SectorLabel(-1, 0))
        np.testing.assert_array_equal(p_plus.b(n), p_minus.b(n))

    def test_delta_zero_makes_signs_agree(self):
        n = np.arange(30)
        m = TwoPhoton(g=0.8, delta=0.0)
        np.testing.assert_array_equal(
            jacobi_params(m, SectorLabel(1, 0)).b(n),
            jacobi_params(m, SectorLabel(-1, 0)).b(n),
        )

    def test_anisotropic_reduces_to_two_photon_on_formula_level(self):
        # with zero half-difference the anisotropic formulas reproduce the
        # plain two-photon ones entry for entry (asserted on the formula
        # level; the constructor itself rejects equal couplings)
        n = np.arange(100, dtype=float)
        g, mu = 0.65, 1
        two_photon = jacobi_params(TwoPhoton(g=g, delta=0.9), SectorLabel(1, mu))
        alt = (-1.0) ** n
        aniso_a = (g - alt * 0.0) * np.sqrt((2 * n + 1 + mu) * (2 * n + 2 + mu))
        np.testing.assert_array_equal(two_photon.a(n), aniso_a)

    def test_positive_offdiag_everywhere(self):
        n = np.arange(2000)
        for model in sample_models():
            for sector in sectors(model):
                assert np.all(jacobi_params(model, sector).a(n) > 0)

    def test_truncation_shapes(self):
        params = jacobi_params(TwoPhoton(g=0.5, delta=0.0), SectorLabel(1, 0))
        m = params.truncation(7)
        assert m.n_max == 7 and m.offdiag.size == 6


class TestSectorBasisIndex:
    def test_intensity_dependent_alternation(self):
        m = IntensityDependent(g=1, delta=0, kappa=1)
        assert sector_basis_index(m, SectorLabel(1), 3) == (-1, 3)
        assert sector_basis_index(m, SectorLabel(1), 0) == (1, 0)
        assert sector_basis_index(m, SectorLabel(-1), 2) == (-1, 2)

    def test_two_photon_strides(self):
        m = TwoPhoton(g=1, delta=0)
        assert sector_basis_index(m, SectorLabel(-1, 1), 0) == (-1, 1)
        assert sector_basis_index(m, SectorLabel(1, 0), 0) == (1, 0)
        assert sector_basis_index(m, SectorLabel(1, 1), 2) == (1, 5)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            sector_basis_index(TwoPhoton(g=1, delta=0), SectorLabel(1, 0), -1)


class TestHamiltonianMatrix:
    def test_two_photon_coupling_entries(self):
        g, delta, cutoff = 0.8, 1.3, 12
        H = hamiltonian_matrix(TwoPhoton(g=g, delta=delta), cutoff)
        # spin block nu=-1 first; coupling flips spin and steps photons by two
        for n in range(cutoff - 2):
            row_minus, col_plus = n + 2, cutoff + n
            assert H[row_minus, col_plus] == pytest.approx(
                g * np.sqrt((n + 1.0) * (n + 2.0)), abs=0
            )

    def test_diagonal_entries(self):
        delta, cutoff = 2.4, 10
        H = hamiltonian_matrix(TwoPhoton(g=0.3, delta=delta), cutoff)
        for m in range(cutoff):
            assert H[m, m] == m + (-1) * delta / 2
            assert H[cutoff + m, cutoff + m] == m + delta / 2

    def test_stark_diagonal(self):
        kappa, delta, cutoff = 0.7, 1.0, 8
        H = hamiltonian_matrix(TwoPhotonRabiStark(g=0.3, delta=delta, kappa=kappa), cutoff)
        for m in range(cutoff):
            assert H[cutoff + m, cutoff + m] == pytest.approx(
                m + kappa * m + delta / 2, abs=1e-15
            )

    def test_symmetric(self):
        for model in sample_models():
            H = hamiltonian_matrix(model, 24)
            np.testing.assert_array_equal(H, H.T)

    def test_weak_coupling_spectrum_is_nearly_diagonal(self):
        # with the coupling entries negligible, the spectrum collapses to the
        # level-split oscillator ladder {m + nu delta/2}
        delta, cutoff = 1.0, 16
        H = hamiltonian_matrix(TwoPhoton(g=1e-9, delta=delta), cutoff)
        expected = np.sort(
            np.concatenate([np.arange(cutoff) - delta / 2, np.arange(cutoff) + delta / 2])
        )
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(H)), expected, atol=1e-7)

    def test_cutoff_floor(self):
        with pytest.raises(ValueError, match="cutoff"):
            hamiltonian_matrix(TwoPhoton(g=1, delta=0), 3)


class TestDecomposition:
    @pytest.mark.parametrize(
        "model",
        [
            TwoPhoton(g=0.7, delta=1.3),
            AnisotropicTwoPhoton(g_plus=0.8, g_minus=0.2, delta=2.0),
            IntensityDependent(g=0.5, delta=0.7, kappa=1.5),
            TwoPhotonRabiStark(g=0.45, delta=1.1, kappa=0.8),
        ],
        ids=["two-photon", "anisotropic", "intensity", "rabi-stark"],
    )
    def test_block_diagonalisation_at_200(self, model):
        check = decomposition_check(model, 200)
        assert check.max_deviation <= 1e-12
        assert check.max_boundary <= 1e-12
        assert check.max_cross == 0.0

    def test_cutoff_floor(self):
        with pytest.raises(ValueError, match="cutoff"):
            decomposition_check(TwoPhoton(g=1, delta=0), 4)

    @pytest.mark.parametrize("where", ["max_block", "max_boundary", "max_cross"])
    def test_seeded_fault_lands_in_its_field(self, monkeypatch, where):
        # one wrong entry of H must be reported in the field that covers it,
        # and only there
        model, cutoff = TwoPhoton(g=0.7, delta=1.3), 16

        def chain(sector):
            # product-basis rows of the sector's chain (hamiltonian_matrix
            # layout: spin -1 rows first, photon index within each spin block)
            rows, n = [], 0
            while True:
                nu, m = sector_basis_index(model, sector, n)
                if m >= cutoff:
                    return rows
                rows.append((0 if nu == -1 else 1) * cutoff + m)
                n += 1

        first, second = (chain(s) for s in sectors(model)[:2])
        entry = {
            "max_block": (first[1], first[2]),
            "max_boundary": (first[-1], first[-2]),
            "max_cross": (first[0], second[0]),
        }[where]
        exact = models.hamiltonian_matrix

        def faulty(model, cutoff):
            H = exact(model, cutoff)
            H[entry] += 1.0
            return H

        monkeypatch.setattr(models, "hamiltonian_matrix", faulty)
        check = decomposition_check(model, cutoff)
        for field in ("max_block", "max_boundary", "max_cross"):
            value = getattr(check, field)
            if field == where:
                assert value == pytest.approx(1.0, abs=1e-12)
            else:
                assert value <= 1e-12


class TestCriticalTrace:
    def test_predicates(self):
        assert critical_trace(TwoPhoton(g=0.5, delta=1.0)) == 2.0
        assert critical_trace(TwoPhoton(g=0.49, delta=1.0)) is None
        assert critical_trace(IntensityDependent(g=0.5, delta=0, kappa=1)) == 2.0
        assert critical_trace(AnisotropicTwoPhoton(g_plus=0.8, g_minus=0.2, delta=0)) == 2.0
        assert critical_trace(AnisotropicTwoPhoton(g_plus=1.3, g_minus=0.3, delta=0)) == -2.0
        assert critical_trace(TwoPhotonRabiStark(g=0.7, delta=0, kappa=1.0)) == -2.0
        assert critical_trace(TwoPhotonRabiStark(g=0.4, delta=0, kappa=0.6)) == 2.0
        assert critical_trace(TwoPhotonRabiStark(g=0.7, delta=0, kappa=0.5)) is None

    def test_relative_tolerance(self):
        # a near-miss from decimal entry still counts as critical
        assert critical_trace(TwoPhoton(g=0.5 * (1 + 1e-13), delta=0)) == 2.0
        assert critical_trace(TwoPhoton(g=0.5 * (1 + 1e-9), delta=0)) is None


class TestPredictedPhase:
    def test_subcritical_two_photon(self):
        report = predicted_phase(TwoPhoton(g=0.3, delta=5.0), SectorLabel(1, 0))
        assert report.kind is PhaseKind.EMPTY_ESSENTIAL
        assert report.notes == "0<g<1/2"
        assert report.essential_spectrum is None

    def test_supercritical_two_photon(self):
        report = predicted_phase(TwoPhoton(g=0.8, delta=5.0), SectorLabel(-1, 1))
        assert report.kind is PhaseKind.FULL_LINE_AC

    def test_critical_endpoints(self):
        cases = [
            (IntensityDependent(g=0.5, delta=1.0, kappa=2.0), HalfLine(-2.0, "up")),
            (TwoPhoton(g=0.5, delta=3.0), HalfLine(-0.5, "up")),
            (AnisotropicTwoPhoton(g_plus=0.8, g_minus=0.2, delta=3.0), HalfLine(-0.5, "up")),
            (AnisotropicTwoPhoton(g_plus=1.3, g_minus=0.3, delta=3.0), HalfLine(-0.5, "down")),
            (TwoPhotonRabiStark(g=0.7, delta=3.0, kappa=1.0), HalfLine(-1.5, "down")),
        ]
        for model, expected in cases:
            for sector in sectors(model):
                report = predicted_phase(model, sector)
                assert report.kind is PhaseKind.CRITICAL_HALF_LINE
                hl = report.essential_spectrum
                assert hl.direction == expected.direction
                assert hl.endpoint == pytest.approx(expected.endpoint, abs=1e-12)

    def test_stark_on_circle(self):
        kappa, delta = 0.6, 1.0
        g = float(np.sqrt(1.0 - kappa**2) / 2.0)
        report = predicted_phase(
            TwoPhotonRabiStark(g=g, delta=delta, kappa=kappa), SectorLabel(1, 0)
        )
        assert report.kind is PhaseKind.CRITICAL_HALF_LINE
        assert report.essential_spectrum.direction == "up"
        assert report.essential_spectrum.endpoint == pytest.approx(
            (kappa**2 - 1.0 - kappa * delta) / 2.0, abs=1e-12
        )
        # the spelled-out example: kappa=0.6, delta=1 gives endpoint -0.62
        assert report.essential_spectrum.endpoint == pytest.approx(-0.62, abs=1e-12)

    def test_stark_regimes(self):
        assert predicted_phase(
            TwoPhotonRabiStark(g=0.7, delta=0.0, kappa=2.0), SectorLabel(1, 0)
        ).kind is PhaseKind.EMPTY_ESSENTIAL
        assert predicted_phase(
            TwoPhotonRabiStark(g=0.7, delta=0.0, kappa=0.5), SectorLabel(1, 0)
        ).kind is PhaseKind.FULL_LINE_AC
        assert predicted_phase(
            TwoPhotonRabiStark(g=0.2, delta=0.0, kappa=0.5), SectorLabel(1, 0)
        ).kind is PhaseKind.EMPTY_ESSENTIAL

    def test_randomised_critical_endpoints_match_closed_forms(self, rng):
        for _ in range(60):
            delta = float(rng.uniform(-4, 4))
            kappa = float(rng.uniform(0.05, 3.0))
            mu = int(rng.integers(0, 2))
            sign = int(rng.choice([-1, 1]))
            model_cases = [
                (IntensityDependent(g=0.5, delta=delta, kappa=kappa),
                 SectorLabel(sign), -kappa, "up"),
                (TwoPhoton(g=0.5, delta=delta), SectorLabel(sign, mu), -0.5, "up"),
            ]
            gd = float(rng.uniform(0.01, 0.49))
            model_cases.append((
                AnisotropicTwoPhoton(g_plus=0.5 + gd, g_minus=0.5 - gd, delta=delta),
                SectorLabel(sign, mu), -0.5, "up",
            ))
            gm = float(rng.uniform(0.51, 2.0))
            model_cases.append((
                AnisotropicTwoPhoton(g_plus=gm + 0.5, g_minus=gm - 0.5, delta=delta),
                SectorLabel(sign, mu), -0.5, "down",
            ))
            kap = float(rng.uniform(-0.95, 0.95))
            g_circ = float(np.sqrt(1.0 - kap**2) / 2.0)
            model_cases.append((
                TwoPhotonRabiStark(g=g_circ, delta=delta, kappa=kap),
                SectorLabel(sign, mu), (kap**2 - 1 - kap * delta) / 2.0, "up",
            ))
            sk = float(rng.choice([-1.0, 1.0]))
            model_cases.append((
                TwoPhotonRabiStark(g=float(rng.uniform(0.1, 2.0)), delta=delta, kappa=sk),
                SectorLabel(sign, mu), -sk * delta / 2.0, "down",
            ))
            for model, sector, endpoint, direction in model_cases:
                hl = predicted_phase(model, sector).essential_spectrum
                assert hl is not None and hl.direction == direction
                assert hl.endpoint == pytest.approx(endpoint, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
    def test_critical_points_at_scaled_parameters(self, scale):
        # the absolute tolerances in monodromy and predicted_phase must hold
        # however large or small delta (and a free kappa) are
        cases = [
            (TwoPhoton(g=0.5, delta=scale), -0.5, "up"),
            (AnisotropicTwoPhoton(g_plus=0.75, g_minus=0.25, delta=scale), -0.5, "up"),
            (AnisotropicTwoPhoton(g_plus=1.5, g_minus=0.5, delta=-scale), -0.5, "down"),
        ]
        for kappa in [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9]:
            cases.append((IntensityDependent(g=0.5, delta=scale, kappa=kappa), -kappa, "up"))
        for kappa in [-0.999, -1e-6, 1e-3, 0.6]:
            g = float(np.sqrt(1.0 - kappa**2) / 2.0)
            cases.append((TwoPhotonRabiStark(g=g, delta=scale, kappa=kappa),
                          (kappa**2 - 1.0 - kappa * scale) / 2.0, "up"))
        for kappa in [-1.0, 1.0]:
            cases.append((TwoPhotonRabiStark(g=0.7, delta=scale, kappa=kappa),
                          -kappa * scale / 2.0, "down"))
            # the free coupling at |kappa| = 1
            cases.append((TwoPhotonRabiStark(g=scale, delta=1.0, kappa=kappa), -kappa / 2.0, "down"))
        self.check_critical(cases, scale)

    @staticmethod
    def check_critical(cases, scale):
        for model, endpoint, direction in cases:
            for sector in sectors(model):
                mono = monodromy(jacobi_params(model, sector).modulation,
                                 critical_trace=critical_trace(model))
                assert classify(mono) is PhaseKind.CRITICAL_HALF_LINE
                report = predicted_phase(model, sector)
                assert report.kind is PhaseKind.CRITICAL_HALF_LINE
                hl = report.essential_spectrum
                assert hl.direction == direction
                assert hl.endpoint == pytest.approx(endpoint, rel=1e-12, abs=1e-12 * max(1.0, scale))

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
    def test_anisotropic_critical_points_at_scaled_mean(self, scale):
        # |g'| = 1/2 with the smaller coupling from 1e-6 to 1e9 (positive
        # couplings keep the mean above 1/2); the float indicator's endpoint
        # drifts from -1/2 from a mean of 1e6 (by about 1e-4 there, 110 at
        # 1e9), and its exact sum restores it
        cases = [(AnisotropicTwoPhoton(g_plus=scale + 1.0, g_minus=scale, delta=1.0), -0.5, "down"),
                 (AnisotropicTwoPhoton(g_plus=scale, g_minus=scale + 1.0, delta=1.0), -0.5, "down")]
        self.check_critical(cases, scale)

    def test_exact_indicator_agrees_where_the_float_one_is_confirmed(self):
        for model in (TwoPhoton(g=0.5, delta=1.3), IntensityDependent(g=0.5, delta=0.7, kappa=1.5),
                      AnisotropicTwoPhoton(g_plus=0.8, g_minus=0.2, delta=2.0),
                      AnisotropicTwoPhoton(g_plus=0.3, g_minus=1.3, delta=-1.0),
                      TwoPhotonRabiStark(g=0.4, delta=1.0, kappa=0.6),
                      TwoPhotonRabiStark(g=0.7, delta=2.0, kappa=-1.0)):
            for sector in sectors(model):
                report = predicted_phase(model, sector)
                mono = monodromy(jacobi_params(model, sector).modulation,
                                 critical_trace=critical_trace(model))
                indicator, halfline = exact_edge_indicator(jacobi_params(model, sector).modulation, mono)
                assert halfline.direction == report.essential_spectrum.direction
                assert halfline.endpoint == pytest.approx(report.essential_spectrum.endpoint, rel=1e-12, abs=1e-12)
                assert (indicator.c1, indicator.c0) == pytest.approx(
                    (report.indicator.c1, report.indicator.c0), rel=1e-12, abs=1e-12)

    def test_kappa_zero_propagates_degeneracy(self):
        with pytest.raises(DegenerateParameterError):
            predicted_phase(IntensityDependent(g=0.5, delta=0, kappa=0.0), SectorLabel(1))


class TestCarlemanHelpers:
    def test_growth_constant_bounds_sequence(self):
        n = np.arange(10_000)
        for model in sample_models():
            for sector in sectors(model):
                params = jacobi_params(model, sector)
                c = carleman_growth_constant(params)
                assert c > 0
                assert np.all(params.a(n) >= c * (n + 1.0) - 1e-12)

    def test_lower_bound_holds(self):
        for model in sample_models():
            params = jacobi_params(model, sectors(model)[0])
            sums = carleman_partial_sums(params.a, 20_000)
            bound = carleman_lower_bound(params, 20_000)
            assert np.all(sums >= bound - 1e-12)
