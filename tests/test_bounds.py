import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp

from rainbowgraphs import bounds
from rainbowgraphs.bounds import (
    chernoff_bound,
    log_L,
    riordan_condition,
    theorem1_threshold,
    theta,
)
from rainbowgraphs.graphs import split_probability

mpmath.mp.dps = 60


def log_l_oracle(n, d, kappa, eps, p1, s):
    """High-precision direct evaluation of the summand, independent of the
    log-gamma path."""
    r = kappa - s
    need = math.ceil(r / d)
    exponent = mpmath.mpf(r) * (1 - mpmath.mpf(eps)) * n * mpmath.mpf(p1) / d
    val = (
        2
        * mpmath.binomial(kappa, s)
        * mpmath.binomial(n, need)
        * (mpmath.mpf(r) / kappa) ** exponent
    )
    return float(mpmath.log(val))


def theta_oracle(n, d, kappa, eps, p1):
    total = mpmath.mpf(n) * mpmath.exp(-mpmath.mpf(eps) ** 2 * n * mpmath.mpf(p1) / 2)
    for s in range(kappa - d * n + 1, kappa):
        total += mpmath.exp(log_l_oracle(n, d, kappa, eps, p1, s))
    return float(mpmath.log(total))


class TestTheorem1Threshold:
    def test_known_point(self):
        # n=1e4, delta=2, eps=0.5: m=2000, structural (10 ln 2000 / 2000)^(1/2)
        rep = theorem1_threshold(10**4, 2, 0.5)
        m = 2000
        structural = (10 * math.log(m) / m) ** 0.5
        colour = 80 * math.log(10**4) / 10**4
        assert rep.eq1_term_structural == pytest.approx(structural, rel=1e-12)
        assert rep.eq1_term_structural == pytest.approx(0.195, abs=5e-4)
        assert rep.eq1_term_colour == pytest.approx(colour, rel=1e-12)
        assert rep.eq1_term_colour == pytest.approx(0.0737, abs=5e-4)
        assert rep.eq1_p_min == pytest.approx(structural)
        assert rep.hypothesis_ok

    def test_p_min_nonincreasing_along_powers_of_two(self):
        values = [theorem1_threshold(2**k, 2, 0.5).eq1_p_min for k in range(7, 21)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_large_eps_kills_colour_term(self):
        rep = theorem1_threshold(10**4, 2, 1e9)
        assert rep.eq1_term_colour < 1e-12
        assert rep.eq1_p_min == rep.eq1_term_structural

    def test_terms_cross(self):
        # colour term dominates at small n, structural at large n
        reports = [theorem1_threshold(2**k, 2, 0.5) for k in range(7, 21)]
        colour_dom = [r.eq1_term_colour > r.eq1_term_structural for r in reports]
        assert colour_dom[0] and not colour_dom[-1]

    def test_hypothesis_flag(self):
        assert not theorem1_threshold(20, 2, 0.5).hypothesis_ok

    @pytest.mark.parametrize("eps", [0.0, -0.5, math.nan])
    def test_rejects_eps_that_is_not_positive(self, eps):
        # NaN once gave NaN colour terms, which JSON cannot hold
        with pytest.raises(ValueError, match="bad parameters"):
            theorem1_threshold(4096, 2, eps)

    def test_alt_parse(self):
        rep = theorem1_threshold(10**4, 2, 0.5, alt_parse=True)
        m2 = 10**4 // 4 + 1
        assert rep.eq1_term_structural_alt == pytest.approx(
            (10 * math.log(m2) / m2) ** 0.5, rel=1e-12
        )


class TestAlonFuredi:
    def test_equals_structural_term(self):
        for n, delta in [(10**4, 2), (500, 3), (10**6, 4)]:
            assert theorem1_threshold(n, delta, 1.0).eq2_p_min == pytest.approx(
                theorem1_threshold(n, delta, 0.7).eq1_term_structural
            )

    def test_known_point(self):
        assert theorem1_threshold(10**4, 2, 1.0).eq2_p_min == pytest.approx(0.195, abs=5e-4)

    def test_delta_one(self):
        n = 1000
        m = n // 2
        assert theorem1_threshold(n, 1, 1.0).eq2_p_min == pytest.approx(10 * math.log(m) / m)


class TestChernoffBound:
    def test_vacuous_at_p1_zero(self):
        assert chernoff_bound(100, 0.0, 0.5) == 100

    def test_known_point(self):
        assert chernoff_bound(100, 0.1, 0.5) == pytest.approx(
            100 * math.exp(-1.25), rel=1e-12
        )
        assert chernoff_bound(100, 0.1, 0.5) == pytest.approx(28.65, abs=5e-3)

    def test_monotone_in_eps_and_p1(self):
        vals_eps = [chernoff_bound(100, 0.1, e) for e in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(a > b for a, b in zip(vals_eps, vals_eps[1:]))
        vals_p1 = [chernoff_bound(100, p, 0.5) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a > b for a, b in zip(vals_p1, vals_p1[1:]))

    def test_finite_at_scale(self):
        assert math.isfinite(chernoff_bound(10**9, 1e-7, 0.5))


class TestLogL:
    def test_collapsed_binomials_at_s_max(self):
        n, d, kappa, eps, p1 = 12, 2, 20, 0.5, 0.4
        s = kappa - 1
        expected = (
            math.log(2)
            + math.log(kappa)
            + math.log(n)  # C(n, ceil(1/d)) = C(n, 1)
            + (1 - eps) * n * p1 / d * math.log(1 / kappa)
        )
        assert log_L(n, d, kappa, eps, p1, s) == pytest.approx(expected, rel=1e-12)

    def test_matches_high_precision_oracle_point(self):
        got = log_L(10, 1, 15, 0.5, 0.3, 10)
        want = log_l_oracle(10, 1, 15, 0.5, 0.3, 10)
        assert got == pytest.approx(want, rel=1e-9)

    def test_oracle_grid(self):
        for n in (4, 8, 12):
            for d in (1, 2):
                for kappa in (d * n, d * n + 3, 30):
                    if kappa < d * n or kappa > 30:
                        continue
                    for eps in (0.25, 0.5):
                        for p1 in (0.0, 0.3, 0.9):
                            for s in range(kappa - d * n + 1, kappa):
                                got = log_L(n, d, kappa, eps, p1, s)
                                want = log_l_oracle(n, d, kappa, eps, p1, s)
                                assert math.isfinite(got)
                                assert got == pytest.approx(
                                    want, rel=1e-9, abs=1e-9
                                ), (n, d, kappa, eps, p1, s)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            log_L(10, 1, 15, 0.5, 0.3, 15)
        with pytest.raises(ValueError):
            log_L(10, 1, 15, 0.5, 0.3, 5)

    def test_finite_at_scale(self):
        assert math.isfinite(log_L(10**9, 2, 10**10, 0.5, 1e-6, 10**10 - 10**9))


class TestTheta:
    def test_empty_sum_when_dn_is_one(self):
        rep = theta(1, 1, 5, 0.5, 0.3)
        assert rep.theta_raw == pytest.approx(rep.chernoff_term, rel=1e-12)
        assert rep.s_range == (5, 4)

    def test_matches_direct_summation(self):
        rep = theta(6, 1, 9, 0.5, 0.3)
        want = theta_oracle(6, 1, 9, 0.5, 0.3)
        assert rep.log_theta == pytest.approx(want, rel=1e-9)

    def test_oracle_grid(self):
        for n, d, kappa, eps, p1 in [
            (4, 1, 6, 0.5, 0.3),
            (8, 1, 10, 0.25, 0.5),
            (12, 2, 30, 0.5, 0.2),
            (6, 2, 15, 0.5, 0.9),
            (10, 1, 12, 0.25, 0.0),
        ]:
            got = theta(n, d, kappa, eps, p1).log_theta
            want = theta_oracle(n, d, kappa, eps, p1)
            assert got == pytest.approx(want, rel=1e-9), (n, d, kappa, eps, p1)

    def test_dominates_chernoff_term(self):
        for n, d, kappa, eps, p1 in [
            (6, 1, 9, 0.5, 0.3),
            (12, 2, 30, 0.5, 0.2),
            (50, 1, 80, 0.5, 0.4),
        ]:
            rep = theta(n, d, kappa, eps, p1)
            assert rep.theta_raw >= rep.chernoff_term

    def test_strictly_decreasing_along_sweep(self):
        prev = math.inf
        for k in range(10, 19):
            n = 2**k
            d, eps = 2, 0.5
            kappa = int((1 + eps) * d * n)
            p1 = 5 * d * eps**-2 * math.log(n) / n
            val = theta(n, d, kappa, eps, p1).log_theta
            assert val < prev
            prev = val

    def test_clamped_output(self):
        rep = theta(6, 1, 9, 0.5, 0.3)
        assert rep.theta == min(1.0, rep.theta_raw)
        assert rep.theta <= 1.0

    def test_log_theta_sums_chernoff_and_log_l_terms(self):
        rep = theta(6, 1, 9, 0.5, 0.3)
        assert rep.s_range == (4, 8)
        terms = [math.log(chernoff_bound(6, 0.3, 0.5))]
        terms += [log_L(6, 1, 9, 0.5, 0.3, s) for s in range(4, 9)]
        assert rep.log_theta == pytest.approx(float(logsumexp(terms)), rel=1e-12)

    def test_rejects_small_kappa(self):
        with pytest.raises(ValueError):
            theta(10, 2, 19, 0.5, 0.3)


def _theta_configs(count, seed, n_max):
    """Seeded (n, d, kappa, eps, p1) with n log-uniform in [10, n_max],
    kappa in [d*n, 4n] and p1 log-uniform in [0.01, 1]."""
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(count):
        n = int(round(10 ** rng.uniform(1, math.log10(n_max))))
        d = int(rng.integers(1, 4))
        kappa = int(rng.integers(d * n, 4 * n + 1))
        eps = float(rng.uniform(0.05, 1.0))
        p1 = float(10 ** rng.uniform(-2, 0))
        configs.append((n, d, kappa, eps, p1))
    return configs


@pytest.fixture
def l_calls(monkeypatch):
    """The length of each array theta passes to _log_l_array."""
    calls = []
    real = bounds._log_l_array

    def spy(n, d, kappa, eps, p1, s):
        calls.append(len(s))
        return real(n, d, kappa, eps, p1, s)

    monkeypatch.setattr(bounds, "_log_l_array", spy)
    return calls


class TestThetaShortCut:
    """theta takes L(kappa-1) alone when _others_negligible shows the rest
    cannot count; every field must equal the full evaluation's, bit for bit."""

    PINNED = [
        # log_theta from the full evaluation, before the short cut existed
        ((10**6, 2, 3_000_000, 0.5), "-608988.684728537"),
        ((10**6, 2, 3_000_013, 0.5), "-608988.8616754552"),
        ((10**7, 2, 3 * 10**7, 0.5), "-7030407.517121997"),
    ]

    @pytest.mark.parametrize("args, want", PINNED)
    def test_pinned_log_theta(self, args, want):
        assert repr(theta(*args, split_probability(0.3).p1).log_theta) == want

    def test_matches_full_evaluation_on_seeded_configs(self, monkeypatch):
        configs = _theta_configs(400, seed=28, n_max=10**4)
        short = [bounds._others_negligible(*c) for c in configs]
        fast = [dataclasses.astuple(theta(*c)) for c in configs]
        monkeypatch.setattr(bounds, "_others_negligible", lambda *args: False)
        full = [dataclasses.astuple(theta(*c)) for c in configs]
        for config, got, want in zip(configs, fast, full):
            assert repr(got) == repr(want), config
        live = [rep[0] > 0 for rep in full]  # a Chernoff term that did not underflow
        assert 0 < sum(short) < len(configs)
        assert any(s and c for s, c in zip(short, live))
        assert any(not s and c for s, c in zip(short, live))

    def test_short_cut_only_where_the_rest_is_negligible(self):
        # the bound's claim, checked against every term of each config it passes
        passed = 0
        for n, d, kappa, eps, p1 in _theta_configs(400, seed=28, n_max=10**4):
            if not bounds._others_negligible(n, d, kappa, eps, p1):
                continue
            s = np.arange(kappa - d * n + 1, kappa, dtype=np.float64)
            terms = bounds._log_l_array(n, d, kappa, eps, p1, s)
            assert terms[:-1].max(initial=-math.inf) < terms[-1] - bounds._NEGLIGIBLE
            passed += 1
        assert passed >= 50

    @pytest.mark.parametrize("n", [10**6, 10**9])
    def test_short_cut_evaluates_one_term(self, l_calls, n):
        theta(n, 2, 3 * n, 0.5, split_probability(0.3).p1)
        assert l_calls == [1]

    def test_golden_config_takes_the_full_sum(self, l_calls):
        # tests/golden/bounds_theta.json keeps covering the chunk loop
        theta(4096, 2, 24576, 0.5, split_probability(0.05).p1)
        assert l_calls == [2 * 4096 - 1]


class TestRiordanCondition:
    def test_known_point(self):
        rep = riordan_condition(10**6, 0.3, 2, 4, 2 * 10**6)
        assert rep.riordan_value == pytest.approx(10**6 * 0.09 / 256)
        assert rep.riordan_value == pytest.approx(351.6, abs=0.1)

    def test_grid_family_scaling(self):
        # gamma=2, delta=4: value n p^2 / 256 grows like omega^2 along
        # p = omega / sqrt(n)
        n = 10**6
        vals = [
            riordan_condition(n, w / math.sqrt(n), 2, 4, 2 * n).riordan_value
            for w in (2.0, 4.0, 8.0)
        ]
        assert vals[1] == pytest.approx(4 * vals[0], rel=1e-9)
        assert vals[2] == pytest.approx(16 * vals[0], rel=1e-9)

    def test_p_one_side_condition(self):
        rep = riordan_condition(100, 1.0, 2, 3, 200)
        assert rep.side_condition_sparsity == 0.0
        assert rep.side_condition_edges == 200.0

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            riordan_condition(100, 0.5, 0.0, 2, 100)

    @pytest.mark.parametrize(
        "p, gamma, message",
        [(0.5, math.nan, "gamma"), (math.nan, 2.0, "p in"), (1.5, 2.0, "p in"), (-0.1, 2.0, "p in")],
    )
    def test_rejects_nan_and_p_outside_the_unit_interval(self, p, gamma, message):
        with pytest.raises(ValueError, match=message):
            riordan_condition(4096, p, gamma, 2, 4096)
