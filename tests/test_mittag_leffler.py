import itertools
import math
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, rgamma

from abcfde import ml_one, ml_prabhakar, ml_two
from abcfde.errors import NonConvergence
from abcfde.mittag_leffler import (
    CANCELLATION_LIMIT,
    DEFAULT_TOL,
    MAX_CONTOUR_RHO,
    MAX_CORRECTIONS,
    MAX_TERMS,
    _contour,
    _disc_coefficients,
    _horner,
    _series_sum,
)


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


def complex_power_rule(alpha, beta, rho, z):
    """The engine's contour rule with numpy's complex power at every node,
    as it took every rho before an integer one took products."""
    s_alpha, weights, corrections = _contour(alpha, beta, rho)
    acc = np.zeros(z.shape, dtype=complex)
    for s_a, weight in zip(s_alpha, weights):
        acc += weight * (s_a - z) ** -rho
    out = acc.real
    lead = (-z) ** -rho
    for j, c in enumerate(corrections):
        out += c * lead * z**-j
    return out


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def per_term_series(alpha, beta, rho, z):
    """The power series summed one term at a time over the whole array,
    as the engine summed it before its table of terms: the oracle that
    _series_sum must match bitwise, errors included."""
    out = np.empty(z.size)
    lead = 1.0 / math.gamma(beta)
    live = np.arange(z.size)
    total = np.full(z.size, lead)
    comp = np.zeros(z.size)
    u = np.ones(z.size)
    log_u = np.zeros(z.size)
    peak = np.full(z.size, abs(lead))
    z_max = float(np.max(np.abs(z), initial=0.0))
    u_bound = 1.0  # >= max |u| while no log_u is set
    for k in range(1, MAX_TERMS):
        if live.size == 0:
            return out
        u = u * (z * (rho + k - 1.0) / k)
        u_bound *= z_max * abs(rho + k - 1.0) / k
        if u_bound > 1e290:
            big = np.abs(u) > 1e290
            log_u[big] += np.log(np.abs(u[big]))
            u[big] = np.sign(u[big])
        x = alpha * k + beta
        if x <= 170.0 and u_bound <= 1e290:
            term = u / math.gamma(x)
        else:
            term = np.sign(u) * np.exp(np.log(np.abs(u)) + log_u - math.lgamma(x))
            if x <= 170.0:
                term = np.where(log_u == 0.0, u / math.gamma(x), term)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if u_bound > 1e290 and np.isinf(total).any():
            bad = z[np.argmax(np.isinf(total))]
            raise NonConvergence(
                f"series overflow at k={k} for "
                f"(alpha={alpha}, beta={beta}, rho={rho}, z={bad})"
            )
        size = np.abs(term)
        peak = np.maximum(peak, size)
        if z_max > k + 1:
            size = size * np.maximum(1.0, np.abs(z) / (k + 1))
        done = size < DEFAULT_TOL
        if done.any():
            cancelled = done & (z < 0.0) & (peak > CANCELLATION_LIMIT)
            if cancelled.any():
                bad = np.argmax(cancelled)
                raise NonConvergence(
                    f"series terms up to {peak[bad]:.3g} cancel for "
                    f"(alpha={alpha}, beta={beta}, rho={rho}, z={z[bad]})"
                )
            out[live[done]] = total[done]
            keep = ~done
            live, z, total, comp, u, log_u, peak = (
                a[keep] for a in (live, z, total, comp, u, log_u, peak)
            )
    if live.size == 0:
        return out
    raise NonConvergence(
        f"series did not meet tol={DEFAULT_TOL} within {MAX_TERMS} terms for "
        f"(alpha={alpha}, beta={beta}, rho={rho}, z={z[0]})"
    )


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

    # an integer rho takes its power by products, a non-integer one by
    # numpy's complex power; both are gated
    # rho = 3 (beta > 1) comes from two rho = 2 rules by the Prabhakar
    # recurrence
    @pytest.mark.parametrize(
        "alpha,beta,rho",
        list(
            itertools.product(
                [0.3, 0.5, 0.7, 0.9, 0.99], [1.0, 1.5, 2.0], [0.5, 1.0, 1.5, 2.0]
            )
        )
        + list(itertools.product([0.3, 0.5, 0.7, 0.9, 0.99], [1.5, 2.0], [3.0])),
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

    @pytest.mark.parametrize("alpha,beta,rho", [(0.5, 1.5, 1.0), (0.5, 1.5, 2.0), (0.7, 1.3, 1.5)])
    def test_contour_array_equals_per_element_calls(self, alpha, beta, rho):
        # numpy's vectorized complex loops must give each element the value
        # it gets alone, at any array length; an in-place ``p *= r`` for the
        # power moved mlf3(0.5, 1.5, 2, z) by 2 ulps with its lane
        zs = -np.linspace(0.6, 50.0, 1000)
        scalar = np.array([ml_prabhakar(alpha, beta, rho, float(z)) for z in zs])
        for n in [*range(1, 41), 1000]:
            np.testing.assert_array_equal(ml_prabhakar(alpha, beta, rho, zs[:n]), scalar[:n])

    @pytest.mark.parametrize("alpha,beta", [(0.3, 1.0), (0.5, 1.5), (0.9, 2.0), (0.99, 1.0)])
    def test_products_match_the_complex_power(self, alpha, beta):
        zs = -np.linspace(0.6, 50.0, 400)
        for rho in (1.0, 2.0):
            ref = complex_power_rule(alpha, beta, rho, zs)
            got = ml_prabhakar(alpha, beta, rho, zs)
            # a few ulps per node over 28 nodes
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        np.testing.assert_array_equal(
            ml_prabhakar(alpha, beta, 1.5, zs), complex_power_rule(alpha, beta, 1.5, zs)
        )

    @pytest.mark.parametrize(
        "alpha,beta,rho,pinned",
        [
            (0.5, 1.5, 1.5, ["0x1.fa93e84650b99p-2", "0x1.02555adda3aecp-3", "0x1.230f0748c229fp-7"]),
            (0.9, 2.0, 0.5, ["0x1.aa30dd71b5a37p-1", "0x1.26be3a73397d1p-1", "0x1.fad8190079160p-3"]),
        ],
    )
    def test_non_integer_rho_values_pinned(self, alpha, beta, rho, pinned):
        # a non-integer rho keeps numpy's complex power per node: these are
        # the values it gave before integer powers took products (numpy 2.4,
        # x86-64 Linux)
        got = ml_prabhakar(alpha, beta, rho, np.array([-0.75, -3.0, -20.0]))
        assert [v.hex() for v in got] == pinned

    @pytest.mark.parametrize("beta,rho", [(1.0, 3.0), (0.5, 3.0), (1.5, 2.5), (1.5, 4.0)])
    def test_rho_cap(self, beta, rho):
        # the contour's error grows with rho: 6.4e-12 relative at rho = 3
        # (alpha = 0.99, beta = 2, z = -2), so its rule stops at rho = 2; the
        # recurrence to rho = 3 needs beta > 1.  The CLI tests take rho =
        # 200, 1000
        assert MAX_CONTOUR_RHO < 3.0
        with pytest.raises(NonConvergence, match=rf"\(alpha=0.5, beta={beta}, rho={rho}\)"):
            ml_prabhakar(0.5, beta, rho, np.array([-0.1, -3.0]))

    def test_rho_three_keeps_the_series_radius_of_its_rules(self):
        # at alpha = 0.22, beta = 2 the rho = 2 rule at beta needs three
        # corrections, so the series serves |z| <= 1 for rho = 3 too
        assert len(_contour(0.22, 2.0, 2.0)[2]) == 3
        for z in (-0.6, -0.99):
            (series,) = _series_sum(0.22, [(2.0, 3.0, np.array([z]))])
            assert ml_prabhakar(0.22, 2.0, 3.0, z) == series[0]
            assert series[0] == pytest.approx(mp_series(0.22, 2.0, 3.0, z), rel=1e-12)
        exact = mp_talbot(0.22, 2.0, 3.0, -1.5)
        assert ml_prabhakar(0.22, 2.0, 3.0, -1.5) == pytest.approx(exact, rel=1e-12)

    def test_series_serves_above_the_rho_cap(self):
        for z in (0.5, -0.1, -0.5):
            exact = mp_series(0.5, 1.5, 3.0, z)
            assert ml_prabhakar(0.5, 1.5, 3.0, z) == pytest.approx(exact, rel=1e-12)
        assert math.isfinite(ml_prabhakar(0.5, 1.5, MAX_CONTOUR_RHO, -3.0))

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


def outcome(call):
    """call()'s value, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def per_pair(alpha, pairs, z):
    """The calls of ml_prabhakar for each (beta, rho) in pairs alone: the
    list of their values, or what the first failing one raises."""
    values = []
    for beta, rho in pairs:
        got = outcome(lambda: ml_prabhakar(alpha, beta, rho, z))
        if isinstance(got, tuple):
            return got
        values.append(got)
    return values


def assert_same_as_per_pair(alpha, pairs, z):
    want = per_pair(alpha, pairs, z)
    betas, rhos = [b for b, _ in pairs], [r for _, r in pairs]
    got = outcome(lambda: ml_prabhakar(alpha, betas, rhos, z))
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, list) and len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        # bitwise, NaN included
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


class TestSeveralPairs:
    """ml_prabhakar with sequences of beta and rho against one call per pair."""

    @given(
        alpha=st.one_of(st.just(1.0), st.floats(0.05, 1.0), st.floats(1.0, 1.6)),
        pairs=st.lists(
            st.tuples(
                st.floats(0.2, 3.5),
                st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 2.5)),
            ),
            min_size=1,
            max_size=4,
        ),
        z=st.one_of(
            st.floats(-40.0, 3.0),
            st.lists(
                st.one_of(st.floats(-40.0, 3.0), st.sampled_from([0.0, -0.0, math.nan])),
                min_size=1,
                max_size=30,
            ).map(np.array),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_pair_calls(self, alpha, pairs, z):
        assert_same_as_per_pair(alpha, pairs, z)

    @pytest.mark.parametrize(
        "alpha,pairs",
        [
            # the compare triple: calibration pair and kernel
            (0.65, [(1.5, 1.0), (1.5, 2.0), (2.0, 1.0)]),
            # series radius 1 beside radius 0.5, in both orders
            (0.2, [(2.5, 1.0), (1.5, 1.0)]),
            (0.2, [(1.5, 2.0), (2.5, 1.0), (1.5, 1.0)]),
            # alpha = 1, a non-integer rho
            (1.0, [(1.0, 1.0), (2.0, 2.0), (1.5, 0.5)]),
            (0.7, [(1.3, 1.5), (1.3, 2.0), (1.3, 0.5)]),
            # rho = 0 is the constant 1/Gamma(beta), NaN z included
            (0.5, [(1.5, 0.0), (2.0, 1.0), (1.5, 0.0)]),
            # alpha > 1: series only
            (1.4, [(1.5, 1.0), (2.0, 2.0)]),
        ],
    )
    def test_cases(self, alpha, pairs):
        zs = -np.linspace(-1.0, 30.0, 311)
        zs[[0, 17, 101]] = [np.nan, 0.0, -0.0]
        assert_same_as_per_pair(alpha, pairs, zs)
        assert_same_as_per_pair(alpha, pairs, zs.reshape(1, -1, 1))
        for z in (-3.0, -0.75, 0.0, 0.4, math.nan):
            assert_same_as_per_pair(alpha, pairs, z)

    def test_per_element_values_at_any_length(self):
        alpha, betas, rhos = 0.5, (1.5, 1.5, 2.0), (1.0, 2.0, 1.0)
        zs = -np.linspace(0.1, 50.0, 500)
        scalar = [[ml_prabhakar(alpha, b, r, float(z)) for z in zs] for b, r in zip(betas, rhos)]
        for n in [*range(1, 41), 500]:
            got = ml_prabhakar(alpha, betas, rhos, zs[:n])
            for row, want in zip(got, scalar):
                np.testing.assert_array_equal(row, want[:n])

    @pytest.mark.parametrize(
        "alpha,pairs,z,message",
        [
            # more than 200 corrections, in the first pair or the second
            (1e-3, [(2.0, 1.0), (1.5, 1.0)], [-3.0, 0.2],
             "more than 200 corrections for (alpha=0.001, beta=2.0, rho=1.0)"),
            (1e-3, [(1.1, 1.0), (1.5, 1.0)], [0.2, -3.0],
             "more than 200 corrections for (alpha=0.001, beta=1.5, rho=1.0)"),
            # the contour refuses rho = 3 at beta <= 1
            (0.5, [(1.5, 1.0), (1.0, 3.0)], [-0.1, -3.0],
             "accurate only up to rho=2.0 for (alpha=0.5, beta=1.0, rho=3.0)"),
            # a series that overflows before a later pair's refusal, and after
            (0.5, [(1.5, 1.0), (1.0, 3.0)], [1000.0, -3.0],
             "series overflow at k=135 for (alpha=0.5, beta=1.5, rho=1.0, z=1000.0)"),
            (0.5, [(1.0, 3.0), (1.5, 1.0)], [1000.0, -3.0],
             "accurate only up to rho=2.0 for (alpha=0.5, beta=1.0, rho=3.0)"),
            # the series of a later pair overflows first, at a smaller k
            (0.5, [(1.5, 1.0), (1.5, 3.0)], [1000.0, -3.0],
             "series overflow at k=135 for (alpha=0.5, beta=1.5, rho=1.0, z=1000.0)"),
            # a bad parameter after a pair that needs the contour
            (0.5, [(1.5, 1.0), (-1.0, 1.0)], [-3.0], "beta must be > 0, got -1.0"),
        ],
    )
    def test_raises_what_the_first_failing_pair_raises(self, alpha, pairs, z, message):
        want = per_pair(alpha, pairs, np.array(z))
        assert isinstance(want, tuple) and message in want[1]
        assert_same_as_per_pair(alpha, pairs, np.array(z))

    @pytest.mark.parametrize("beta,rho", [((1.5, 2.0), (1.0,)), ((1.5, 2.0), 1.0), (1.5, [1.0])])
    def test_pairs_need_two_sequences_of_one_length(self, beta, rho):
        with pytest.raises(ValueError, match="sequences of one length"):
            ml_prabhakar(0.5, beta, rho, -1.0)


def assert_series_as_per_term(alpha, jobs):
    """_series_sum on the jobs (beta, rho, z) gives bitwise what summing
    each job alone term by term gives, or what the first failing job
    raises."""
    want = []
    for beta, rho, z in jobs:
        got = outcome(lambda: per_term_series(alpha, beta, rho, z))
        if isinstance(got, tuple):
            want = got
            break
        want.append(got)
    got = outcome(lambda: _series_sum(alpha, jobs))
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def series_jobs(z, max_jobs=3):
    """Hypothesis jobs (beta, rho, z) on the arrays drawn by z."""
    return st.lists(
        st.tuples(
            st.floats(0.2, 3.5),
            st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.floats(0.0, 3.0)),
            z,
        ),
        min_size=1,
        max_size=max_jobs,
    )


def arrays(elements, min_size, max_size):
    return st.lists(elements, min_size=min_size, max_size=max_size).map(
        lambda xs: np.array(xs, dtype=float)
    )


class TestSeriesTable:
    """The series runs on a table of terms, a block of rows at a time, for
    the elements of one (beta, rho) job at a time, the jobs in order; each
    value and each error is bitwise that of the term-by-term loop on the
    job alone."""

    ALPHAS = st.one_of(st.just(1.0), st.floats(0.05, 1.0), st.floats(1.0, 2.0))

    @given(
        alpha=ALPHAS,
        jobs=series_jobs(
            arrays(
                st.one_of(st.floats(-6.0, 6.0), st.sampled_from([0.0, -0.0, 0.5, -0.5])), 0, 40
            )
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_arrays_of_length_up_to_40(self, alpha, jobs):
        assert_series_as_per_term(alpha, jobs)

    @given(
        alpha=st.floats(0.3, 0.7),
        n=st.integers(4096, 6000),
        jobs=series_jobs(st.floats(-4.0, 4.0), max_jobs=2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_sums_cross_block_boundaries(self, alpha, n, jobs, seed):
        # a block holds at most 2^16 table entries, so 16 rows here, and a
        # sum at |z| = 4 needs more
        rng = np.random.default_rng(seed)
        drawn = []
        for beta, rho, edge in jobs:
            z = rng.uniform(-abs(edge), abs(edge), n)
            z[:2] = -4.0, 4.0
            drawn.append((beta, rho, z))
        assert_series_as_per_term(alpha, drawn)

    @given(
        alpha=st.floats(0.4, 1.3),
        jobs=series_jobs(arrays(st.floats(300.0, 1000.0), 1, 6), max_jobs=2),
    )
    @settings(max_examples=20, deadline=None)
    def test_large_positive_z_hands_over_to_the_overflow_safe_step(self, alpha, jobs):
        # past u_bound = 1e290 and alpha k + beta = 170 each row takes the
        # step that carries log|u|; some sums end, some overflow
        assert_series_as_per_term(alpha, jobs)

    @pytest.mark.parametrize(
        "alpha,jobs",
        [
            # u_bound passes 1e290, then alpha k + beta 170, while the sums
            # at 700 and 650 run on; E_1(700) = e^700 is finite
            (1.0, [(1.0, 1.0, np.array([700.0, 650.0, 2.0]))]),
            # the first job overflows, the second would not
            (0.5, [(1.5, 2.0, np.array([500.0])), (1.5, 1.0, np.array([100.0, -0.3]))]),
            # below |z| = k + 1 the stop rule scales |term_k| by |z|/(k+1):
            # the first terms here are below DEFAULT_TOL, but not so scaled
            (1.5, [(17.5, 1.0, np.array([40.0, -40.0, 25.0, 3.0]))]),
            # a NaN never stops: its sum runs through every safe row to MAX_TERMS
            (2.0, [(1.5, 1.0, np.array([0.3, np.nan, -0.0]))]),
            (0.01, [(1.5, 1.0, np.array([np.nan, 0.0]))]),
        ],
    )
    def test_overflow_safe_cases(self, alpha, jobs):
        assert_series_as_per_term(alpha, jobs)

    @pytest.mark.parametrize(
        "alpha,jobs,message",
        [
            # alpha > 1 cancels terms of 1e8 at z = -100
            (1.5, [(1.0, 1.0, np.array([-0.5, -100.0, -90.0]))], "cancel for (alpha=1.5"),
            # the first job's error: the jobs run in order, so the second,
            # which would fail at a smaller k, never runs
            (1.5, [(1.0, 1.0, np.array([0.2, -100.0])), (1.0, 1.0, np.array([-60.0]))],
             "z=-100.0"),
            (0.5, [(1.5, 1.0, np.array([1000.0, 3.0]))], "series overflow at k=135"),
            (0.5, [(1.5, 1.0, np.array([3.0])), (1.5, 1.0, np.array([-3.0, 1000.0]))],
             "series overflow at k=135"),
            # in one job and one block, whichever of an overflow and a
            # cancellation comes first
            (0.7, [(1.0, 1.0, np.array([-12.5, 800.0]))], "series overflow at k=178"),
            (0.7, [(1.0, 1.0, np.array([-12.5, 700.0]))], "cancel for (alpha=0.7"),
            (2.0, [(1.0, 1.0, np.array([np.nan]))], "within 10000 terms"),
            # a NaN beside a cancelling sum does not hide it
            (1.5, [(1.0, 1.0, np.array([np.nan, -100.0]))], "cancel for (alpha=1.5"),
        ],
    )
    def test_errors(self, alpha, jobs, message):
        with pytest.raises(NonConvergence) as info:
            _series_sum(alpha, jobs)
        assert message in str(info.value)
        assert_series_as_per_term(alpha, jobs)

    @pytest.mark.parametrize("z", [1000.0, 3000.0])
    def test_overflow_raises_quickly(self, z):
        # past u_bound = 1e290 a block ends every 64 rows, so a sum that
        # overflows raises soon after; one block to MAX_TERMS took 0.4 s
        ml_one(0.5, 0.1)
        start = time.perf_counter()
        with pytest.raises(NonConvergence, match="series overflow"):
            ml_one(0.5, z)
        assert time.perf_counter() - start < 0.1

    def test_empty(self):
        assert _series_sum(0.5, []) == []
        got = _series_sum(0.5, [(1.5, 1.0, np.empty(0)), (1.5, 2.0, np.empty(0))])
        assert [g.shape for g in got] == [(0,), (0,)]
        assert_series_as_per_term(0.5, [(1.5, 1.0, np.empty(0)), (2.0, 1.0, np.array([0.3]))])

    def test_signed_zeros(self):
        zs = np.array([0.0, -0.0, 1e-300, -1e-300])
        assert_series_as_per_term(0.7, [(1.5, 1.0, zs), (1.0, 0.0, zs)])
        (got,) = _series_sum(0.7, [(1.5, 1.0, zs)])
        assert np.all(got == 1.0 / math.gamma(1.5))

    def test_table_memory_is_bounded(self):
        # a block holds at most 2^16 table entries: one row at 65536
        # elements, where a whole sum of 20 rows would take 10 MB a table
        z = np.random.default_rng(5).uniform(-0.5, 0.5, 65536)
        _series_sum(0.5, [(1.5, 1.0, z[:64])])
        tracemalloc.start()
        try:
            _series_sum(0.5, [(1.5, 1.0, z)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * z.size


def disc_radius(alpha, beta, rho):
    """The radius of the disc the engine gives (alpha, beta, rho): 1 where
    the contour rule it takes needs more than two corrections, else 0.5."""
    rule_rho = 2.0 if rho == 3.0 and beta > 1.0 else rho
    return 1.0 if alpha * (rule_rho + 2) - beta < -1.0 else 0.5


def assert_same_outcome(call, want_call):
    """call() gives bitwise the array want_call() gives, or raises what it
    raises."""
    got, want = outcome(call), outcome(want_call)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert got.tobytes() == want.tobytes()


class TestDisc:
    """|z| <= r takes Horner's rule on coefficients cached per (alpha,
    beta, rho, r) where its rounding bound is within DEFAULT_TOL; a pair
    the bound refuses keeps the table."""

    @given(
        alpha=st.floats(0.0, 2.0, exclude_min=True),
        beta=st.floats(0.0, 3.0, exclude_min=True),
        rho=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        unit=st.lists(
            st.one_of(st.floats(-1.0, 1.0), st.sampled_from([1.0, -1.0, 0.0, -0.0, math.nan])),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_disc(self, alpha, beta, rho, unit):
        radius = disc_radius(alpha, beta, rho)
        zs = radius * np.array(unit)
        want = [outcome(lambda: ml_prabhakar(alpha, beta, rho, float(z))) for z in zs]
        errors = [w for w in want if isinstance(w, tuple)]
        # the array gives each element's value, or raises what the first
        # failing element raises
        assert_same_outcome(
            lambda: ml_prabhakar(alpha, beta, rho, zs),
            lambda: errors[0] if errors else np.array(want),
        )
        # beside pairs of the other radius and of the contour
        assert_same_as_per_pair(alpha, [(beta, rho), (1.5, 1.0), (2.5, 1.0)], zs)
        assert_same_as_per_pair(alpha, [(2.0, 2.0), (beta, rho)], zs)
        if errors and errors[0][0] is ValueError:
            return  # Gamma(beta) overflows
        finite = zs[~np.isnan(zs)]
        coefficients = _disc_coefficients(alpha, beta, rho, radius)
        if coefficients is None:
            assert_same_outcome(
                lambda: ml_prabhakar(alpha, beta, rho, finite),
                lambda: per_term_series(alpha, beta, rho, finite),
            )
            return
        got = ml_prabhakar(alpha, beta, rho, finite)
        inside = finite != 0.0
        assert got[inside].tobytes() == _horner(coefficients, finite[inside]).tobytes()
        for z, value in zip(finite, got):
            exact = mp_series(alpha, beta, rho, z)
            assert abs(value - exact) <= max(1e-12 * abs(exact), DEFAULT_TOL)

    @pytest.mark.parametrize(
        "alpha,beta,rho",
        [
            # sum |c_k| is 758 at r = 1 over K = 346 terms: a bound of 5.8e-11
            (0.05, 1.5, 2.0),
            # (rho)_k / k! outgrows 2^k
            (0.5, 1.5, 200.0),
        ],
    )
    def test_refused_pair_keeps_the_table(self, alpha, beta, rho):
        radius = disc_radius(alpha, beta, rho)
        assert _disc_coefficients(alpha, beta, rho, radius) is None
        zs = radius * np.linspace(-1.0, 1.0, 41)
        assert_same_outcome(
            lambda: ml_prabhakar(alpha, beta, rho, zs),
            lambda: per_term_series(alpha, beta, rho, zs),
        )

    def test_coefficients_end_where_the_table_stops_on_the_rim(self):
        alpha, beta, rho = 0.65, 2.0, 1.0
        coefficients = _disc_coefficients(alpha, beta, rho, 0.5)
        K = len(coefficients) - 1
        terms = [abs(c) * 0.5 ** (K - i) for i, c in enumerate(coefficients)]
        assert terms[0] < DEFAULT_TOL <= min(terms[1:])
        assert coefficients[-1] == 1.0 / math.gamma(beta)
        # the bench kernel: the disc serves its |z| <= 0.5
        z = -np.linspace(0.0, 0.5, 257)
        np.testing.assert_array_equal(
            ml_two(alpha, beta, z)[1:], _horner(coefficients, z[1:])
        )
