import math
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import binom, chisquare

from rainbowgraphs.coupling import (
    chernoff_success_estimate,
    couple,
    regime_out_degree,
    truncate,
    truncation_counts,
)
from rainbowgraphs.graphs import ColouredDigraph, sample_coloured_digraph, sample_d_out, split_probability
from rainbowgraphs.rng import substream


class TestCouple:
    def test_p_zero_empty_inner(self):
        out = couple(10, 3, 0.0, 0.5, substream(0))
        assert out.success
        assert out.inner.arcs.shape == (0, 3)
        assert out.counts == (0,) * 10

    def test_containment_every_trial(self):
        for t in range(200):
            out = couple(12, 4, 0.3, 0.5, substream(1, t))
            if out.success:
                d_out = {tuple(a) for a in out.d_out.arcs.tolist()}
                assert all(tuple(a) in d_out for a in out.inner.arcs.tolist())
                for v, k in enumerate(out.counts):
                    assert sum(1 for a in out.inner.arcs if a[0] == v) == k
            else:
                assert out.inner is None
                assert out.k_max > 4

    def test_inner_mean_arc_count(self):
        # d=55 makes all k_v <= d near-certain, so successful trials carry
        # the unconditioned binomial marginal
        n, d, eps = 200, 55, 0.5
        p_target = (2 - eps) * 40 / n  # 0.3
        p1 = split_probability(p_target).p1
        sizes = []
        for t in range(500):
            out = couple(n, d, p_target, eps, substream(2, t))
            if out.success:
                sizes.append(len(out.inner.arcs))
        assert len(sizes) >= 495
        mean = n * (n - 1) * p1
        var = n * (n - 1) * p1 * (1 - p1)
        se = math.sqrt(var / len(sizes))
        assert abs(np.mean(sizes) - mean) < 3 * se

    def test_count_histogram_matches_binomial(self):
        # unconditional k_v marginal at n=50, chi-square at significance 0.001
        n, d, p_target = 50, 49, 0.19
        p1 = split_probability(p_target).p1
        samples = []
        for t in range(2000):
            samples.extend(couple(n, d, p_target, 0.5, substream(3, t)).counts)
        samples = np.asarray(samples)
        assert len(samples) == 100000
        hi = int(samples.max())
        observed = np.bincount(samples, minlength=hi + 1)
        expected = binom.pmf(np.arange(hi + 1), n - 1, p1) * len(samples)
        # pool the sparse upper tail so every expected cell is >= 5
        tail = expected < 5
        obs = np.append(observed[~tail], observed[tail].sum())
        exp = np.append(expected[~tail], expected[tail].sum())
        exp_rest = len(samples) - exp.sum()
        obs_rest = len(samples) - obs.sum()
        obs[-1] += obs_rest
        exp[-1] += exp_rest
        _, pvalue = chisquare(obs, exp)
        assert pvalue > 0.001

    def test_truncation_uniform_subsets(self):
        # first-2 truncation of a 3-choice ordering at n=6: each 2-subset of
        # the 5 candidates equally likely, chi-square over C(5,2)=10 cells
        cats = {frozenset(c): i for i, c in enumerate(combinations(range(1, 6), 2))}
        counts = np.zeros(10)
        for t in range(100000):
            out = couple(6, 3, 0.0, 0.5, substream(4, t))
            arcs = out.d_out.arcs
            first_two = frozenset(arcs[arcs[:, 0] == 0][:2, 1].tolist())
            counts[cats[first_two]] += 1
        _, pvalue = chisquare(counts)
        assert pvalue > 0.001

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            couple(10, 3, 1.0, 0.5, substream(0))
        with pytest.raises(ValueError):
            couple(10, 3, 0.5, 0.0, substream(0))
        with pytest.raises(ValueError):
            couple(10, 10, 0.5, 0.5, substream(0))


class TestChernoffSuccessEstimate:
    def test_d_max_always_succeeds(self):
        freq, _ = chernoff_success_estimate(20, 19, 0.9, 200, substream(5))
        assert freq == 1.0

    def test_p1_zero_always_succeeds(self):
        freq, _ = chernoff_success_estimate(20, 1, 0.0, 200, substream(5))
        assert freq == 1.0

    def test_matches_exact_binomial_oracle(self):
        # exact success probability is cdf(d; n-1, p1)^n
        for n, d, p1 in [(200, 40, 0.15), (50, 10, 0.12), (100, 30, 0.2)]:
            exact = binom.cdf(d, n - 1, p1) ** n
            trials = 4000
            freq, half = chernoff_success_estimate(n, d, p1, trials, substream(6, n))
            se = math.sqrt(max(exact * (1 - exact), 1e-6) / trials)
            assert abs(freq - exact) < max(4 * se, 0.01)
            assert 0 <= half <= 1

    def test_comfortable_regime_high_success(self):
        # d well above (1+eps/2) n p1: success should be near-certain
        freq, _ = chernoff_success_estimate(200, 55, 0.1633, 1000, substream(7))
        assert freq >= 0.9


class TestRegimeOutDegree:
    def test_formula(self):
        assert regime_out_degree(100, 1.0) == math.ceil(20 * math.log(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            regime_out_degree(1, 0.5)


def test_truncate_matches_loop():
    # rows in a random order, so the routine must group them by tail itself
    n, d, p = 12, 4, 0.3
    for t in range(60):
        d_out = sample_d_out(n, d, substream(55, t))
        rows = d_out.arcs[substream(56, t).permutation(len(d_out.arcs))].tolist()
        counts = truncation_counts(n, p, substream(57, t))
        inner = truncate(ColouredDigraph(n, 0, rows), d, counts)
        want = substream(57, t).binomial(n - 1, split_probability(p).p1, size=n)
        assert counts.tolist() == want.tolist()
        if inner is None:
            assert counts.max() > d
            continue
        by_tail: list[list[list[int]]] = [[] for _ in range(n)]
        for arc in rows:
            by_tail[arc[0]].append(arc)
        assert inner.arcs.tolist() == [a for v in range(n) for a in by_tail[v][: counts[v]]]


def test_truncate_uneven_groups():
    # tails with no arcs, fewer arcs than d, and counts above a group's size
    n, d = 15, 4
    for t in range(60):
        rows = sample_coloured_digraph(n, 0.15, 5, substream(58, t)).arcs.tolist()
        counts = substream(59, t).integers(0, d + 1, size=n)
        inner = truncate(ColouredDigraph(n, 5, rows), d, counts)
        by_tail: list[list[list[int]]] = [[] for _ in range(n)]
        for arc in rows:
            by_tail[arc[0]].append(arc)
        assert inner.arcs.tolist() == [a for v in range(n) for a in by_tail[v][: counts[v]]]
    assert truncate(ColouredDigraph(n, 5, rows), d, np.full(n, d + 1)) is None
