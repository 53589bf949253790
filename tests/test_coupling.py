import math
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import binom, chisquare

from rainbowgraphs.coupling import couple, truncate, truncation_counts
from rainbowgraphs.graphs import ColouredDigraph, sample_coloured_digraph, sample_d_out, split_probability
from rainbowgraphs.harness import ExperimentConfig, run_trials
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

    @pytest.mark.parametrize(
        "d, p_target, eps, make, message",
        [
            (3, 1.0, 0.5, substream, "p must lie"),
            (3, -0.1, 0.5, substream, "p must lie"),
            (3, math.nan, 0.5, substream, "p must lie"),
            (3, 0.5, 0.0, substream, "eps"),
            (3, 0.5, math.nan, substream, "eps"),
            (10, 0.5, 0.5, substream, "d <= n-1"),
            (3, 0.5, 0.5, lambda seed: np.random.Generator(np.random.MT19937(seed)), "PCG64"),
        ],
    )
    def test_rejects_before_moving_the_generator(self, d, p_target, eps, make, message):
        # a bad p_target used to raise only after the d-out's keys were skipped
        rng, twin = make(61), make(61)
        rng.integers(1, 1000, 1), twin.integers(1, 1000, 1)  # with a cached half
        with pytest.raises(ValueError, match=message):
            couple(10, d, p_target, eps, rng)
        assert rng.integers(1, 1000, 3).tolist() == twin.integers(1, 1000, 3).tolist()
        assert rng.random(3).tolist() == twin.random(3).tolist()


class TestLazyOutcome:
    @pytest.mark.parametrize("n, d, p_target", [(6, 3, 0.3), (6, 2, 0.9), (1000, 55, 0.06), (1000, 2, 0.06)])
    def test_matches_eager_draw(self, n, d, p_target):
        for t in range(3):
            rng, ref = substream(60, n, d, t), substream(60, n, d, t)
            if t == 1:
                # a buffered 32-bit half word must survive the skipped keys
                rng.integers(10, dtype=np.int32), ref.integers(10, dtype=np.int32)
            out = couple(n, d, p_target, 0.5, rng)
            # the eager reference: the d-out, then the counts, then the cut
            d_out = sample_d_out(n, d, ref)
            counts = truncation_counts(n, p_target, ref)
            inner = truncate(d_out, d, counts)
            assert rng.bit_generator.state == ref.bit_generator.state
            # the caller's generator moves on before the lazy fields are read
            assert rng.random(5).tolist() == ref.random(5).tolist()
            assert out.counts == tuple(counts.tolist()) and out.success == (inner is not None)
            assert out.d_out == d_out
            assert out.inner == inner if inner is not None else out.inner is None
            assert out.d_out is out.d_out

    def test_rejects_other_bit_generators(self):
        with pytest.raises(ValueError, match="PCG64"):
            couple(10, 3, 0.3, 0.5, np.random.Generator(np.random.MT19937(0)))

    def test_record_arc_count_is_sum_of_counts(self):
        config = ExperimentConfig(n=40, p=0.3, kappa=1, eps=0.5, d=9, trials=120, seed=8, mode="lemma4")
        records = run_trials(config)
        assert 0 < sum(r.success for r in records) < len(records)
        for rec in records:
            out = couple(config.n, config.d, config.p, config.eps, substream(config.seed, rec.trial, "lemma4"))
            if rec.success:
                assert rec.inner_arc_count == sum(out.counts) == len(out.inner.arcs)
            else:
                assert rec.inner_arc_count is None and out.inner is None


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


def test_truncate_rejects_counts_not_one_per_vertex():
    # a length-1 array would broadcast and cut every tail at its count
    dgr = ColouredDigraph(3, 2, ((0, 1, 1), (0, 2, 2), (1, 0, 1), (2, 0, 2)))
    for counts in (np.array([1]), np.array([1, 1]), np.ones(4, np.int64), np.ones((3, 1), np.int64)):
        with pytest.raises(ValueError, match="counts of shape"):
            truncate(dgr, 2, counts)


@pytest.mark.parametrize("counts", [np.array([-1, 1, 1]), np.array([0.5, 1, 1]), np.array([1.0, 1.0, 1.0]), np.array([True, True, False])])
def test_truncate_rejects_counts_that_are_not_counts(counts):
    # a negative count kept no arcs and 0.5 kept one, silently
    dgr = ColouredDigraph(3, 2, ((0, 1, 1), (0, 2, 2), (1, 0, 1), (2, 0, 2)))
    with pytest.raises(ValueError, match="counts"):
        truncate(dgr, 2, counts)
