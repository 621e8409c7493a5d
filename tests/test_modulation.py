"""Tests for transfer matrices, monodromy classification and the edge indicator.

The expected matrices, traces and indicator coefficients are the closed
forms the period-2 model reductions produce; they are asserted digit for
digit at 1e-12 scale.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rabi_spectra import (
    DegenerateIndicatorError,
    EdgeIndicator,
    HalfLine,
    Monodromy,
    PeriodicModulation,
    PhaseKind,
    PhaseStateError,
    UnsupportedRegimeError,
    classify,
    cyclic_monodromies,
    edge_indicator,
    essential_halfline,
    limit_sequences,
    monodromy,
    stolz_increment_sums,
    transfer_matrix,
)
from rabi_spectra.models import (
    AnisotropicTwoPhoton,
    IntensityDependent,
    TwoPhoton,
    TwoPhotonRabiStark,
    jacobi_params,
    sectors,
)
from rabi_spectra.modulation import exact_edge_indicator


def period2(alpha, beta, gamma=(0.0, 0.0), t=1.0, s=1.0) -> PeriodicModulation:
    return PeriodicModulation(alpha=alpha, beta=beta, gamma=gamma, t=t, s=s)


def intensity_modulation(g, kappa=1.0, delta=0.0, sign=1.0) -> PeriodicModulation:
    return period2(
        (g, g), (1.0, 1.0), (sign * delta / 2.0, -sign * delta / 2.0), t=1.0, s=2.0 * kappa
    )


class TestPeriodicModulation:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            period2((1.0, -1.0), (0.0, 0.0))
        with pytest.raises(ValueError, match="offsets"):
            period2((1.0, 1.0), (0.0, 0.0), t=0.0)
        with pytest.raises(ValueError, match="period"):
            PeriodicModulation(alpha=(1.0,), beta=(0.0, 0.0), gamma=(0.0,), t=1.0, s=1.0)

    def test_rules_wrap_modulo_period(self):
        mod = period2((1.0, 3.0), (2.0, 5.0), (0.5, -0.5), t=1.0, s=2.0)
        n = np.array([0, 1, 2, 3])
        np.testing.assert_array_equal(
            mod.a(n), np.array([1.0, 3.0, 1.0, 3.0]) * np.sqrt((n + 1.0) * (n + 2.0))
        )
        np.testing.assert_array_equal(
            mod.b(n), np.array([2.0, 5.0, 2.0, 5.0]) * n + np.array([0.5, -0.5, 0.5, -0.5])
        )


class TestTransferMatrix:
    def test_constant_modulation(self):
        # alpha = g, beta = 1 collapses to ((0, 1), (-1, -1/g))
        for g in (0.25, 0.5, 1.7):
            mod = intensity_modulation(g)
            expected = np.array([[0.0, 1.0], [-1.0, -1.0 / g]])
            for n in (0, 1, 5):
                np.testing.assert_allclose(transfer_matrix(mod, n), expected, atol=0)

    def test_two_photon_data_gives_same_matrix(self):
        # alpha = 2g, beta = 2 produces the identical one-step matrix
        g = 0.35
        mod = period2((2 * g, 2 * g), (2.0, 2.0), t=0.5, s=1.0)
        np.testing.assert_allclose(
            transfer_matrix(mod, 0), np.array([[0.0, 1.0], [-1.0, -1.0 / g]]), atol=0
        )

    def test_free_case_is_quarter_turn(self):
        mod = period2((1.0, 1.0), (0.0, 0.0))
        np.testing.assert_array_equal(
            transfer_matrix(mod, 0), np.array([[0.0, 1.0], [-1.0, 0.0]])
        )


class TestMonodromy:
    def test_intensity_dependent_closed_form(self):
        for g in (0.25, 0.5, 0.9, 2.0):
            mono = monodromy(intensity_modulation(g))
            expected = np.array([[-1.0, -1.0 / g], [1.0 / g, -1.0 + 1.0 / g**2]])
            np.testing.assert_allclose(mono.matrix, expected, atol=1e-14)
            assert mono.trace == pytest.approx(-2.0 + 1.0 / g**2, abs=1e-12)

    def test_stark_trace_identity(self):
        for g in (0.2, 0.4, 0.9):
            for kappa in (0.3, 1.0, 2.0):
                for sign in (1.0, -1.0):
                    mod = period2(
                        (2 * g, 2 * g),
                        (2 * (1 + sign * kappa), 2 * (1 - sign * kappa)),
                        t=0.5,
                        s=1.0,
                    )
                    assert monodromy(mod).trace == pytest.approx(
                        -2.0 + (1.0 - kappa**2) / g**2, abs=1e-12
                    )

    def test_quarter_turn_squared_is_minus_identity(self):
        mono = monodromy(period2((1.0, 1.0), (0.0, 0.0)))
        np.testing.assert_array_equal(mono.matrix, -np.eye(2))
        assert mono.trace == -2.0
        assert mono.diagonalizable_at_pm2

    def test_trace_sign_values(self):
        assert monodromy(intensity_modulation(0.25)).trace_sign == 1   # trace 14
        assert monodromy(intensity_modulation(2.0)).trace_sign == 0    # trace in (-2, 2)
        assert monodromy(intensity_modulation(0.5)).trace_sign == 1    # trace exactly 2

    def test_certified_trace_cross_check(self):
        mono = monodromy(intensity_modulation(0.5), critical_trace=2.0)
        assert mono.trace_sign == 1 and mono.critical_trace == 2.0
        with pytest.raises(ValueError, match="disagrees"):
            monodromy(intensity_modulation(0.7), critical_trace=2.0)
        with pytest.raises(ValueError, match="exactly"):
            monodromy(intensity_modulation(0.5), critical_trace=1.5)

    def test_determinant_is_one(self, rng):
        for _ in range(20):
            N = int(rng.integers(1, 5))
            mod = PeriodicModulation(
                alpha=rng.uniform(0.1, 3.0, N),
                beta=rng.uniform(-2.0, 2.0, N),
                gamma=rng.uniform(-1.0, 1.0, N),
                t=rng.uniform(0.1, 3.0),
                s=rng.uniform(0.1, 3.0),
            )
            assert np.linalg.det(monodromy(mod).matrix) == pytest.approx(1.0, abs=1e-10)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_cyclic_traces_agree(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(1, 5))
        mod = PeriodicModulation(
            alpha=rng.uniform(0.1, 3.0, N),
            beta=rng.uniform(-2.0, 2.0, N),
            gamma=np.zeros(N),
            t=1.0,
            s=1.0,
        )
        traces = [float(np.trace(X)) for X in cyclic_monodromies(mod)]
        assert max(traces) - min(traces) <= 1e-12 * max(1.0, abs(traces[0]))


def _identity_started(mod: PeriodicModulation, start: int) -> np.ndarray:
    # the reference product: from np.eye(2), each transfer matrix divided as
    # numpy scalars and multiplied on by elementwise ufuncs in the documented
    # order, entry (r, c) = (0 + T[r, 0] X[0, c]) + T[r, 1] X[1, c], so no BLAS
    # kernel and no fused multiply-add takes part
    N, out = mod.period, np.eye(2)
    for n in range(start, start + N):
        a_prev, a_cur = mod.alpha[(n - 1) % N], mod.alpha[n % N]
        T = np.array([[0.0, 1.0], [-a_prev / a_cur, -mod.beta[n % N] / a_cur]])
        out = np.add(np.add(0.0, np.multiply(T[:, :1], out[:1])), np.multiply(T[:, 1:], out[1:]))
    return out


def _reference_indicator(mod: PeriodicModulation, eps: int) -> tuple[float, float, list]:
    # edge_indicator's sum over the identity-started cyclic products
    N = mod.period
    s, r = np.roll(mod.alpha, 1), 0.5 * mod.beta * (mod.t + mod.s) - mod.gamma
    terms = []
    for i in range(N):
        Xi, a_prev = _identity_started(mod, i), mod.alpha[(i - 1) % N]
        slope = -eps * Xi[1, 0] / a_prev
        const = (s[i] / a_prev) * (1.0 - eps * Xi[0, 0]) - eps * (r[i] / a_prev) * Xi[1, 0]
        terms.append((float(slope), float(const)))
    return float(sum(t for t, _ in terms)), float(sum(c for _, c in terms)), terms


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _same_bits(x, ref) -> bool:
    """NaN where ``ref`` is NaN, and the bits of ``ref`` everywhere else."""
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    nan = np.isnan(ref)
    return bool((np.isnan(x) == nan).all()) and _bits(x[~nan]) == _bits(ref[~nan])


def assert_products_match_identity_started(mod: PeriodicModulation) -> None:
    """Every product entry and the trace have the reference's bits, or are
    NaN where it is; where the products are finite, so do the indicator
    terms and the endpoint."""
    N = mod.period
    with np.errstate(all="ignore"):
        refs = [_identity_started(mod, i) for i in range(N)]
        ref_trace = refs[0][0, 0] + refs[0][1, 1]
        for n in range(N + 1):
            ref = np.array([[0.0, 1.0], [-mod.alpha[(n - 1) % N] / mod.alpha[n % N],
                                         -mod.beta[n % N] / mod.alpha[n % N]]])
            assert _bits(transfer_matrix(mod, n)) == _bits(ref)
    mono = monodromy(mod)
    for X, ref in zip([mono.matrix, *cyclic_monodromies(mod)], [refs[0], *refs]):
        assert _same_bits(X, ref)
    assert _same_bits(mono.trace, ref_trace)
    np.testing.assert_array_equal(limit_sequences(mod)[0], np.roll(mod.alpha, 1))
    if not all(np.isfinite(ref).all() for ref in refs):
        return
    for eps in (1, -1):
        critical = replace(mono, trace_sign=eps, critical_trace=2.0 * eps,
                           diagonalizable_at_pm2=False)
        with np.errstate(all="ignore"):
            c1, c0, terms = _reference_indicator(mod, eps)
        ind = edge_indicator(mod, critical, *limit_sequences(mod))
        assert _bits([ind.c1, ind.c0]) == _bits([c1, c0])
        assert _bits(ind.terms) == _bits(terms)
        if c1 != 0.0 and math.isfinite(c1) and math.isfinite(c0):
            assert _bits(essential_halfline(ind).endpoint) == _bits(-c0 / c1)


def _random_modulations(seed: int) -> tuple[PeriodicModulation, PeriodicModulation]:
    """A random modulation of period 1 to 4, and the same steps with couplings near 1."""
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 5))
    # couplings log-uniform in [1e-300, 1e154]; beta is 0 at a quarter of the steps
    alpha = 10.0 ** rng.uniform(-300.0, 154.0, N)
    beta = rng.uniform(-3.0, 3.0, N) * 10.0 ** rng.uniform(-3.0, 3.0, N)
    beta[rng.random(N) < 0.25] = 0.0
    mod = PeriodicModulation(alpha=alpha, beta=beta, gamma=rng.uniform(-2.0, 2.0, N),
                             t=rng.uniform(0.1, 3.0), s=rng.uniform(0.1, 3.0))
    # where the products stay finite
    return mod, replace(mod, alpha=rng.uniform(0.2, 3.0, N))


class TestIdentityStartedBits:
    """The period products start from the identity and form every entry in
    one documented order; the monodromy's matrix is the product for start 0."""

    def test_period_one_zero_entry_is_positive(self):
        # beta = 0: T[1, 1] = -0.0, which a product with the identity makes +0.0
        mod = PeriodicModulation(alpha=(1.0,), beta=(0.0,), gamma=(0.0,), t=1.0, s=1.0)
        assert _bits(monodromy(mod).matrix) == _bits([[0.0, 1.0], [-1.0, 0.0]])
        assert_products_match_identity_started(mod)

    @pytest.mark.parametrize("g", [1e-300, 1e-150, 1e-8, 0.3, 0.5, 1e6, 1e154])
    @pytest.mark.parametrize("kappa", [1.0, -1.0, 0.6, 0.5000000000000001])
    def test_stark_sectors(self, g, kappa):
        # |kappa| = 1 puts a beta entry of 0 in every sector
        model = TwoPhotonRabiStark(g=g, delta=1.3, kappa=kappa)
        for sector in sectors(model):
            assert_products_match_identity_started(jacobi_params(model, sector).modulation)

    @pytest.mark.parametrize("scale", [1e-300, 1e-8, 1.0, 1e8, 1e154])
    def test_model_sectors_at_scaled_couplings(self, scale):
        for model in (IntensityDependent(g=0.5 * scale, delta=1.0, kappa=scale),
                      TwoPhoton(g=0.5 * scale, delta=-2.0),
                      AnisotropicTwoPhoton(g_plus=scale, g_minus=0.25 * scale, delta=3.0),
                      AnisotropicTwoPhoton(g_plus=0.25 * scale, g_minus=scale, delta=0.5)):
            for sector in sectors(model):
                assert_products_match_identity_started(jacobi_params(model, sector).modulation)

    @given(st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_random_modulations(self, seed):
        for mod in _random_modulations(seed):
            assert_products_match_identity_started(mod)


_U = 2.0 ** -53      # unit roundoff of float64
_ETA = 2.0 ** -1074  # spacing of the subnormals


def _mp_product(factors) -> list[list]:
    """factors[-1] ... factors[1] factors[0] in mpmath, the 2 x 2 factors as nested lists."""
    out = [[mpmath.mpf(1), mpmath.mpf(0)], [mpmath.mpf(0), mpmath.mpf(1)]]
    for F in factors:
        out = [[F[r][0] * out[0][c] + F[r][1] * out[1][c] for c in (0, 1)] for r in (0, 1)]
    return out


class TestProductOracle:
    """Every product entry and trace lies within a written-out bound of the
    exact product of the same float factors, formed by mpmath at 50 digits.

    Each step forms an entry as (0 + a x) + b y: two rounded products and one
    rounded sum, so its error is at most gamma_2 (|a| |x| + |b| |y|) + 2 eta,
    with gamma_2 = 2u / (1 - 2u), u = 2^-53, and eta = 2^-1074 for each
    product that underflows.  By induction over the N steps of a period, with
    A = |T_N| ... |T_1|, B_j = |T_N| ... |T_(j+1)| and J the all-ones matrix,

        |X - P| <= ((1 + gamma_2)^N - 1) A + 2 (1 + gamma_2)^N eta sum_j B_j J.

    For N <= 4 the two factors are below (2N + 1) u and 3 eta, which also
    covers the 50-digit rounding of P.  The trace adds one rounded sum:
    |trace - tr P| <= E_00 + E_11 + u |x_00 + x_11|.  The bound holds where an
    entry is finite: an inf never becomes finite again, and 0 * inf is NaN.
    The modulations are those of ``TestIdentityStartedBits``.
    """

    @staticmethod
    def assert_within_bound(mod: PeriodicModulation) -> None:
        N = mod.period
        steps = [[[mpmath.mpf(x) for x in row] for row in transfer_matrix(mod, n).tolist()]
                 for n in range(N)]
        mono = monodromy(mod)
        for i, X in enumerate(cyclic_monodromies(mod)):
            factors = [steps[n % N] for n in range(i, i + N)]
            absolute = [[[abs(x) for x in row] for row in F] for F in factors]
            P, A = _mp_product(factors), _mp_product(absolute)
            # row r of sum_j B_j J: the row sums of each tail product
            tails = [_mp_product(absolute[j:]) for j in range(1, N + 1)]
            under = [sum(B[r][0] + B[r][1] for B in tails) for r in (0, 1)]
            E = [[(2 * N + 1) * _U * A[r][c] + 3 * _ETA * under[r] for c in (0, 1)] for r in (0, 1)]
            for r in (0, 1):
                for c in (0, 1):
                    if math.isfinite(X[r, c]):
                        assert abs(mpmath.mpf(float(X[r, c])) - P[r][c]) <= E[r][c], (i, r, c)
            if i == 0:
                assert _bits(mono.matrix) == _bits(X)
                if math.isfinite(mono.trace):
                    error = abs(mpmath.mpf(mono.trace) - (P[0][0] + P[1][1]))
                    assert error <= E[0][0] + E[1][1] + _U * abs(mono.trace)

    @given(st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_random_modulations(self, seed):
        with mpmath.workdps(50):
            for mod in _random_modulations(seed):
                self.assert_within_bound(mod)


class TestClassify:
    def test_interior_trace_is_ac(self):
        mono = Monodromy(np.array([[0.0, 1.0], [-1.0, 0.0]]), 0.0, 0, False)
        assert classify(mono) is PhaseKind.FULL_LINE_AC

    def test_large_trace_is_empty(self):
        # intensity-dependent data at g = 0.25 has trace -2 + 16 = 14
        mono = monodromy(intensity_modulation(0.25))
        assert mono.trace == 14.0
        assert classify(mono) is PhaseKind.EMPTY_ESSENTIAL

    def test_critical_non_diagonalizable(self):
        mono = Monodromy(np.array([[-1.0, -2.0], [2.0, 3.0]]), 2.0, 1, False)
        assert classify(mono) is PhaseKind.CRITICAL_HALF_LINE

    def test_scalar_monodromy_rejected(self):
        mono = monodromy(period2((1.0, 1.0), (0.0, 0.0)))  # -identity
        with pytest.raises(UnsupportedRegimeError, match="identity"):
            classify(mono)


class TestLimitSequences:
    def test_intensity_dependent_critical(self):
        # g = 1/2, t + s = 2 kappa + 1: r_n = kappa + 1/2 -+ (-1)^n delta/2
        kappa, delta = 0.8, 1.4
        for sign in (1.0, -1.0):
            mod = intensity_modulation(0.5, kappa=kappa, delta=delta, sign=sign)
            s, r = limit_sequences(mod)
            np.testing.assert_allclose(s, [0.5, 0.5], atol=0)
            np.testing.assert_allclose(
                r,
                [kappa + 0.5 - sign * delta / 2.0, kappa + 0.5 + sign * delta / 2.0],
                atol=1e-15,
            )

    def test_two_photon_critical(self):
        # g = 1/2, t + s = mu + 3/2: s_n = 1, r_n = 3/2 -+ (-1)^n delta/2
        delta = 2.2
        for mu in (0, 1):
            for sign in (1.0, -1.0):
                mod = period2(
                    (1.0, 1.0),
                    (2.0, 2.0),
                    (mu + sign * delta / 2.0, mu - sign * delta / 2.0),
                    t=0.5 + mu / 2.0,
                    s=1.0 + mu / 2.0,
                )
                s, r = limit_sequences(mod)
                np.testing.assert_allclose(s, [1.0, 1.0], atol=0)
                np.testing.assert_allclose(
                    r, [1.5 - sign * delta / 2.0, 1.5 + sign * delta / 2.0], atol=1e-15
                )

    def test_all_zero(self):
        mod = period2((1.0, 1.0), (0.0, 0.0), (0.0, 0.0), t=1.0, s=1.0)
        s, r = limit_sequences(mod)
        np.testing.assert_array_equal(r, [0.0, 0.0])


class TestEdgeIndicator:
    def test_intensity_dependent(self):
        for kappa in (0.5, 1.0, 2.0):
            for delta in (0.0, 1.0, 3.7):
                mod = intensity_modulation(0.5, kappa=kappa, delta=delta)
                mono = monodromy(mod, critical_trace=2.0)
                ind = edge_indicator(mod, mono, *limit_sequences(mod))
                assert ind.c1 == pytest.approx(-8.0, abs=1e-12)
                assert ind.c0 == pytest.approx(-8.0 * kappa, abs=1e-12)

    def test_two_photon(self):
        for mu in (0, 1):
            mod = period2(
                (1.0, 1.0), (2.0, 2.0), (mu + 0.5, mu - 0.5),
                t=0.5 + mu / 2.0, s=1.0 + mu / 2.0,
            )
            mono = monodromy(mod, critical_trace=2.0)
            ind = edge_indicator(mod, mono, *limit_sequences(mod))
            assert ind.c1 == pytest.approx(-4.0, abs=1e-12)
            assert ind.c0 == pytest.approx(-2.0, abs=1e-12)

    def test_anisotropic_counter_rotating_critical(self):
        # |half-difference| = 1/2: indicator (4x + 2)/(alpha_0 alpha_1)
        g_mean, g_diff = 0.8, 0.5
        a0, a1 = 2 * (g_mean - g_diff), 2 * (g_mean + g_diff)
        mod = period2((a0, a1), (2.0, 2.0), (0.5, -0.5), t=0.5, s=1.0)
        mono = monodromy(mod, critical_trace=-2.0)
        ind = edge_indicator(mod, mono, *limit_sequences(mod))
        assert ind.c1 == pytest.approx(4.0 / (a0 * a1), abs=1e-12)
        assert ind.c0 == pytest.approx(2.0 / (a0 * a1), abs=1e-12)

    def test_requires_critical_phase(self):
        mod = intensity_modulation(0.7)
        mono = monodromy(mod)
        with pytest.raises(PhaseStateError, match="critical"):
            edge_indicator(mod, mono, *limit_sequences(mod))

    def test_terms_sum_to_coefficients(self):
        mod = intensity_modulation(0.5, kappa=1.3, delta=0.9)
        mono = monodromy(mod, critical_trace=2.0)
        ind = edge_indicator(mod, mono, *limit_sequences(mod))
        assert sum(t for t, _ in ind.terms) == pytest.approx(ind.c1, abs=1e-14)
        assert sum(c for _, c in ind.terms) == pytest.approx(ind.c0, abs=1e-14)

    @given(
        st.integers(1, 4).flatmap(lambda N: st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-8, 8), st.integers(-8, 8)),
            min_size=N, max_size=N)),
        st.integers(1, 12),
        st.integers(1, 12),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_exact_sum_is_the_float_sum_on_dyadic_data(self, steps, t, s, eps):
        # alpha powers of two, beta, gamma, t and s multiples of 1/4: every
        # product, quotient and sum the float indicator takes is exact, so
        # the Fraction one must give its numbers term for term
        mod = PeriodicModulation(alpha=[2.0**k for k, _, _ in steps],
                                 beta=[b / 4 for _, b, _ in steps],
                                 gamma=[g / 4 for _, _, g in steps], t=t / 4, s=s / 4)
        mono = replace(monodromy(mod), trace_sign=eps, critical_trace=2.0 * eps,
                       diagonalizable_at_pm2=False)
        ind = edge_indicator(mod, mono, *limit_sequences(mod))
        if ind.c1 == 0.0:
            with pytest.raises(DegenerateIndicatorError, match="zero slope"):
                exact_edge_indicator(mod, mono)
            return
        exact, halfline = exact_edge_indicator(mod, mono)
        assert exact.terms == ind.terms
        assert (exact.c1, exact.c0) == (ind.c1, ind.c0)
        assert halfline == essential_halfline(ind)


class TestEssentialHalfline:
    def test_upward(self):
        hl = essential_halfline(EdgeIndicator(c1=-8.0, c0=-8.0))
        assert hl == HalfLine(-1.0, "up")
        assert hl.contains(0.0) and not hl.contains(-2.0)

    def test_two_photon_endpoint(self):
        assert essential_halfline(EdgeIndicator(c1=-4.0, c0=-2.0)) == HalfLine(-0.5, "up")

    def test_downward(self):
        a0a1 = 0.6 * 2.6
        hl = essential_halfline(EdgeIndicator(c1=4.0 / a0a1, c0=2.0 / a0a1))
        assert hl.direction == "down"
        assert hl.endpoint == pytest.approx(-0.5, abs=1e-15)
        assert hl.contains(-1.0) and not hl.contains(0.0)

    def test_zero_slope_is_degenerate(self):
        with pytest.raises(DegenerateIndicatorError, match="slope"):
            essential_halfline(EdgeIndicator(c1=0.0, c0=1.0))


class TestStolzIncrementSums:
    def test_telescoping(self):
        sums = stolz_increment_sums(lambda n: 1.0 / np.asarray(n, dtype=float), 1, 50)
        ks = np.arange(1, 51)
        np.testing.assert_allclose(sums, 1.0 - 1.0 / (ks + 1.0), atol=1e-14)

    def test_alternating_diverges_linearly(self):
        sums = stolz_increment_sums(lambda n: (-1.0) ** np.asarray(n), 1, 40)
        np.testing.assert_allclose(sums, 2.0 * np.arange(1, 41), atol=0)

    def test_two_photon_coupling_increments_flatten(self):
        # [DERIVED by direct summation] period-2 increments of a_n - a_(n-1)
        # at critical coupling stay far below 2 and flatten by n = 1e4
        g = 0.5
        a = lambda n: g * np.sqrt((2 * n + 1.0) * (2 * n + 2.0))
        sums = stolz_increment_sums(lambda n: a(n) - a(n - 1), 2, 10_000)
        assert sums[-1] < 2.0
        assert sums[-1] - sums[999] < 1e-3

    def test_input_validation(self):
        with pytest.raises(ValueError, match="period"):
            stolz_increment_sums(lambda n: n, 0, 10)
        with pytest.raises(ValueError, match="twice"):
            stolz_increment_sums(lambda n: n, 4, 6)
