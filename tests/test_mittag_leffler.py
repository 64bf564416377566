import itertools
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfc, rgamma

from abcfde import ml_one, ml_prabhakar, ml_two
from abcfde.errors import NonConvergence
from abcfde.mittag_leffler import MAX_CORRECTIONS, _contour


def log_peak_term(alpha, beta, rho, z):
    """Largest log|term_k| of the power series at z."""
    best, k = 0.0, 0
    while True:
        k += 1
        log_term = (
            math.lgamma(rho + k)
            - math.lgamma(rho)
            - math.lgamma(alpha * k + beta)
            + k * math.log(abs(z))
            - math.lgamma(k + 1)
        )
        best = max(best, log_term)
        if k > 10 and log_term < best - 50.0:
            return best


def mp_series(alpha, beta, rho, z):
    """Extended-precision oracle: the power series, with 30 digits more
    than its largest term needs, summed until the terms fall below
    1e-30 of the leading one."""
    peak = log_peak_term(alpha, beta, rho, z) if z != 0.0 else 0.0
    with mp.workdps(int(max(peak, 0.0) / math.log(10.0)) + 30):
        za, aa, bb, rr = mp.mpf(z), mp.mpf(alpha), mp.mpf(beta), mp.mpf(rho)
        total = 1 / mp.gamma(bb)
        u = mp.mpf(1)
        for k in itertools.count(1):
            u *= za * (rr + k - 1) / k
            term = u / mp.gamma(aa * k + bb)
            total += term
            if k > 5 and abs(term) * max(1, abs(z) / (k + 1)) < 1e-30:
                return float(total)


def mp_talbot(alpha, beta, rho, z):
    """Second oracle for z < 0 where the series would need hundreds of
    digits: mpmath's Talbot inversion, at 30 digits, of the Laplace
    transform s^(alpha rho - beta) / (s^alpha - z)^rho at t = 1."""
    with mp.workdps(30):
        a, b, r, za = mp.mpf(alpha), mp.mpf(beta), mp.mpf(rho), mp.mpf(z)
        F = lambda s: s ** (a * r - b) / (s**a - za) ** r  # noqa: E731
        return float(mp.invertlaplace(F, 1, method="talbot"))


def oracle(alpha, beta, rho, z):
    if z == 0.0 or log_peak_term(alpha, beta, rho, z) <= 60.0:
        return mp_series(alpha, beta, rho, z)
    return mp_talbot(alpha, beta, rho, z)


class TestPrabhakar:
    def test_z_zero(self):
        assert ml_prabhakar(0.7, 1.3, 1.0, 0.0) == pytest.approx(
            1.0 / math.gamma(1.3), abs=1e-15
        )

    def test_collapses_to_exp_times(self):
        # E^2_{1,1}(z) = e^z (1 + z); partial-sum oracle at z = 1
        exact = mp_series(1.0, 1.0, 2.0, 1.0)
        assert exact == pytest.approx(2.0 * math.e, abs=1e-13)
        assert ml_prabhakar(1.0, 1.0, 2.0, 1.0) == pytest.approx(exact, abs=1e-12)

    def test_half_order_erfc_identity(self):
        # E_{1/2}(z) = exp(z^2) erfc(-z), evaluated independently
        expected = math.e * erfc(1.0)
        assert ml_prabhakar(0.5, 1.0, 1.0, -1.0) == pytest.approx(expected, abs=1e-12)

    def test_invalid_params(self):
        for alpha, beta, rho in [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -1.0)]:
            with pytest.raises(ValueError):
                ml_prabhakar(alpha, beta, rho, 0.5)

    @pytest.mark.parametrize(
        "alpha,beta,rho,match",
        [
            (0.5, math.inf, 1.0, "beta must be finite"),
            (math.inf, 1.0, 1.0, "alpha must be finite"),
            (0.5, 1.0, math.inf, "rho must be finite"),
            (0.5, 1.0, math.nan, "rho must be finite"),
            (0.5, 1e300, 1.0, "Gamma\\(beta\\) overflows"),
            (0.5, 171.7, 1.0, "Gamma\\(beta\\) overflows"),
        ],
    )
    def test_non_finite_params_rejected(self, alpha, beta, rho, match):
        # beta = inf hung in the contour set-up; 1e300 overflowed Gamma
        with pytest.raises(ValueError, match=match):
            ml_prabhakar(alpha, beta, rho, np.array([0.5, -3.0]))

    def test_rho_zero_is_constant(self):
        assert ml_prabhakar(0.5, 1.5, 0.0, 3.0) == pytest.approx(
            1.0 / math.gamma(1.5), abs=1e-15
        )

    def test_large_argument_raises(self):
        with pytest.raises(NonConvergence):
            ml_prabhakar(0.5, 1.0, 1.0, 101.0)


class TestTwoParameter:
    def test_exp_minus_one(self):
        assert ml_two(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-13)

    def test_cosine_zero(self):
        x = math.pi / 2.0
        assert ml_two(2.0, 1.0, -(x**2)) == pytest.approx(0.0, abs=1e-10)

    def test_leading_term(self):
        assert ml_two(0.9, 1.1, 0.0) == pytest.approx(1.0 / math.gamma(1.1), abs=1e-15)


class TestOneParameter:
    def test_exponential(self):
        assert ml_one(1.0, 1.0) == pytest.approx(math.e, abs=1e-13)

    def test_at_zero(self):
        assert ml_one(0.5, 0.0) == 1.0

    def test_against_extended_precision(self):
        exact = mp_series(0.6, 1.0, 1.0, -2.0)
        value = ml_one(0.6, -2.0)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(exact, abs=1e-12)


class TestProperties:
    ALPHAS = [0.3, 0.7, 1.1, 1.5, 1.9]
    BETAS = [0.3, 0.7, 1.1, 1.5, 1.9]
    ZS = [-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0]

    def test_reduction_chain(self):
        for a in self.ALPHAS:
            for b in self.BETAS:
                for z in self.ZS:
                    assert abs(ml_prabhakar(a, b, 1.0, z) - ml_two(a, b, z)) <= 1e-12
            for z in self.ZS:
                assert abs(ml_two(a, 1.0, z) - ml_one(a, z)) <= 1e-12

    def test_recurrence(self):
        # E_{a,b}(z) = z E_{a,a+b}(z) + 1/Gamma(b)
        for a in self.ALPHAS:
            for b in self.BETAS:
                for z in self.ZS:
                    lhs = ml_two(a, b, z)
                    rhs = z * ml_two(a, a + b, z) + 1.0 / math.gamma(b)
                    # values reach ~1e92 at small alpha and z = 5, so the
                    # tolerance has to be relative there
                    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_exponential_case(self):
        for z in np.linspace(-10.0, 10.0, 21):
            assert abs(ml_one(1.0, z) - math.exp(z)) <= 1e-11

    def test_complete_monotonicity_proxy(self):
        # the series needs ~|z|^(1/alpha) terms, so the sampled range
        # shrinks with alpha
        for a, tmax in [(0.3, 2.0), (0.5, 8.0), (0.8, 15.0), (1.0, 20.0)]:
            ts = np.linspace(0.0, tmax, 81)
            vals = [ml_one(a, -t) for t in ts]
            assert all(v > 0.0 for v in vals)
            assert all(v1 <= v0 + 1e-13 for v0, v1 in zip(vals, vals[1:]))


class TestEngine:
    """Series near 0 and the parabolic contour on the negative axis."""

    # both sides of the series/contour switch at |z| = 0.5, out to -20
    ZS = [-1e-3, -0.1, -0.5, -0.75, -1.0, -2.0, -5.0, -10.0, -15.0, -20.0]

    def test_oracles_agree(self):
        # where the series needs few extra digits, Talbot inversion gives
        # the same double
        for args in [(0.5, 2.0, 1.0, -5.0), (0.9, 1.5, 2.0, -20.0), (0.3, 2.0, 2.0, -3.0)]:
            assert mp_talbot(*args) == pytest.approx(mp_series(*args), rel=1e-15)

    @pytest.mark.parametrize(
        "alpha,beta,rho",
        list(itertools.product([0.3, 0.5, 0.7, 0.9, 0.99], [1.0, 1.5, 2.0], [1.0, 2.0])),
    )
    def test_relative_error_against_oracle(self, alpha, beta, rho):
        zs = np.array(self.ZS)
        exact = np.array([oracle(alpha, beta, rho, z) for z in zs])
        got = ml_prabhakar(alpha, beta, rho, zs)
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-12

    def test_array_equals_per_element_calls(self):
        zs = np.linspace(-30.0, 3.0, 67).reshape(67, 1)
        got = ml_prabhakar(0.7, 1.3, 2.0, zs)
        assert got.shape == zs.shape
        scalar = [ml_prabhakar(0.7, 1.3, 2.0, float(z)) for z in zs.ravel()]
        np.testing.assert_array_equal(got.ravel(), scalar)

    @pytest.mark.parametrize("z", [-35.0, -50.0])
    def test_large_negative_argument_in_bounded_time(self, z):
        start = time.perf_counter()
        value = ml_two(0.5, 2.0, z)
        assert time.perf_counter() - start < 0.1
        assert math.isfinite(value)
        # asymptotic series -sum_k z^-k / Gamma(beta - alpha k); its
        # terms keep falling past k = 30 at |z| >= 35
        k = np.arange(1, 31)
        asymptotic = -np.sum(z ** (-k) * rgamma(2.0 - 0.5 * k))
        assert value == pytest.approx(asymptotic, rel=1e-13)

    def test_strong_branch_point_at_zero(self):
        # beta - alpha rho > 1: the contour corrects its own error on the
        # terms of the expansion at s = 0 stronger than 1/s; with more
        # than two of them it leaves |z| <= 1, where they outgrow the
        # transform, to the series.  The last case takes MAX_CORRECTIONS.
        cases = [(0.3, 2.2, 1.0), (0.1, 2.0, 1.0), (0.3, 3.0, 2.0), (0.02, 2.0, 1.0),
                 (0.01, 3.005, 1.0)]
        assert len(_contour(*cases[-1])[2]) == MAX_CORRECTIONS
        for alpha, beta, rho in cases:
            for z in (-0.51, -0.99, -1.01, -2.0, -20.0):
                exact = mp_talbot(alpha, beta, rho, z)
                assert ml_prabhakar(alpha, beta, rho, z) == pytest.approx(exact, rel=1e-12)

    def test_correction_cap(self):
        # (beta - 1)/alpha - rho = 200.5 asks for one correction too many
        with pytest.raises(NonConvergence, match=r"\(alpha=0.01, beta=3.015, rho=1.0\)"):
            ml_prabhakar(0.01, 3.015, 1.0, -3.0)
        # the series, which needs no contour, still serves |z| <= 1 there
        for z in (0.5, -0.9):
            exact = mp_series(0.01, 3.015, 1.0, z)
            assert ml_prabhakar(0.01, 3.015, 1.0, z) == pytest.approx(exact, rel=1e-12)

    def test_cancelling_series_raises_quickly(self):
        # alpha > 1 has poles the contour does not take; the series at
        # z = -100 cancels terms of 1e8
        start = time.perf_counter()
        with pytest.raises(NonConvergence):
            ml_one(1.5, -100.0)
        assert time.perf_counter() - start < 0.1
