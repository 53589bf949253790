import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from rainbowgraphs.graphs import (
    ColouredDigraph,
    ColouredGraph,
    PermutationFamily,
    apply_permutations,
    coalesce_orientation,
    identity_permutation_family,
    random_permutation_family,
    sample_coloured_digraph,
    sample_coloured_graph,
    sample_d_out,
    split_probability,
)
from rainbowgraphs.rng import substream


class TestSplitProbability:
    def test_identity_case(self):
        assert split_probability(0.0).p1 == 0.0

    def test_closed_form_examples(self):
        assert split_probability(0.75).p1 == pytest.approx(0.5, abs=1e-12)
        assert split_probability(0.19).p1 == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("p", [i / 10 for i in range(10)])
    def test_split_invariant(self, p):
        s = split_probability(p)
        assert abs((1 - s.p1) ** 2 - (1 - p)) < 1e-12
        assert p / 2 <= s.p1 <= p

    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
    def test_rejects_out_of_domain(self, p):
        with pytest.raises(ValueError):
            split_probability(p)

    @given(st.floats(min_value=0.0, max_value=0.999999))
    def test_split_invariant_hypothesis(self, p):
        s = split_probability(p)
        assert abs((1 - s.p1) ** 2 - (1 - p)) < 1e-12


class TestSampleColouredGraph:
    def test_p_one_forces_edge(self):
        g = sample_coloured_graph(2, 1.0, 5, substream(0))
        assert len(g.edges) == 1
        assert 1 <= g.edges[0][2] <= 5

    def test_p_zero_empty(self):
        g = sample_coloured_graph(10, 0.0, 3, substream(0))
        assert g.edges.shape == (0, 3)

    def test_mean_edge_count(self):
        # Binomial(4950, 0.5): mean 2475, sd sqrt(1237.5)
        counts = [
            len(sample_coloured_graph(100, 0.5, 7, substream(1, t, "edges")).edges)
            for t in range(1000)
        ]
        se = math.sqrt(4950 * 0.25 / 1000)
        assert abs(np.mean(counts) - 2475) < 3 * se

    def test_deterministic_given_seed(self):
        a = sample_coloured_graph(30, 0.4, 9, substream(5, "g"))
        b = sample_coloured_graph(30, 0.4, 9, substream(5, "g"))
        assert a == b


class TestSampleColouredDigraph:
    def test_p1_one_both_arcs(self):
        d = sample_coloured_digraph(2, 1.0, 2, substream(0))
        assert {(t, h) for t, h, _ in d.arcs} == {(0, 1), (1, 0)}

    def test_p1_zero_empty(self):
        assert sample_coloured_digraph(5, 0.0, 2, substream(0)).arcs.shape == (0, 3)

    def test_mean_arc_count(self):
        counts = [
            len(sample_coloured_digraph(50, 0.2, 4, substream(2, t)).arcs)
            for t in range(1000)
        ]
        mean = 50 * 49 * 0.2
        se = math.sqrt(50 * 49 * 0.2 * 0.8 / 1000)
        assert abs(np.mean(counts) - mean) < 3 * se


class TestCoalesceOrientation:
    def test_single_arc_keeps_colour(self):
        d = ColouredDigraph(n=2, kappa=3, arcs=((0, 1, 3),))
        g = coalesce_orientation(d, substream(0))
        assert g.edges.tolist() == [[0, 1, 3]]

    def test_empty(self):
        d = ColouredDigraph(n=4, kappa=2, arcs=())
        assert coalesce_orientation(d, substream(0)).edges.shape == (0, 3)

    def test_two_cycle_uniform_choice(self):
        d = ColouredDigraph(n=2, kappa=2, arcs=((0, 1, 1), (1, 0, 2)))
        hits = sum(
            coalesce_orientation(d, substream(3, t)).edges[0][2] == 1
            for t in range(10000)
        )
        se = math.sqrt(0.25 / 10000)
        assert abs(hits / 10000 - 0.5) < 3 * se

    def test_support_preserved(self):
        d = sample_coloured_digraph(20, 0.3, 5, substream(4))
        g = coalesce_orientation(d, substream(5))
        assert {(u, v) for u, v, _ in g.edges.tolist()} == {
            (min(t, h), max(t, h)) for t, h, _ in d.arcs.tolist()
        }


class TestSampleDOut:
    def test_complete_when_d_is_n_minus_1(self):
        d = sample_d_out(4, 3, substream(0))
        assert {(t, h) for t, h, _ in d.arcs} == {
            (t, h) for t in range(4) for h in range(4) if t != h
        }

    def test_out_degree_sequence(self):
        d = sample_d_out(10, 2, substream(1))
        assert d.out_degrees().tolist() == [2] * 10

    def test_rejects_large_d(self):
        with pytest.raises(ValueError):
            sample_d_out(5, 5, substream(0))

    def test_head_frequencies_uniform(self):
        # n=6, d=1: vertex 0's single head is uniform over the 5 others
        counts = np.zeros(6)
        for t in range(60000):
            d = sample_d_out(6, 1, substream(6, t))
            counts[d.arcs[0][1]] += 1
        freqs = counts[1:] / 60000
        se = math.sqrt(0.2 * 0.8 / 60000)
        assert np.all(np.abs(freqs - 0.2) < 3 * se)


class TestApplyPermutations:
    def test_identity(self):
        d = sample_coloured_digraph(8, 0.5, 4, substream(7))
        assert apply_permutations(d, identity_permutation_family(8)) == d

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_involution(self, seed):
        d = sample_coloured_digraph(7, 0.5, 4, substream(seed, "d"))
        f = random_permutation_family(7, substream(seed, "f"))
        assert apply_permutations(apply_permutations(d, f), f.inverse()) == d

    def test_out_degrees_preserved(self):
        for t in range(100):
            d = sample_coloured_digraph(9, 0.4, 5, substream(8, t, "d"))
            f = random_permutation_family(9, substream(8, t, "f"))
            assert apply_permutations(d, f).out_degrees().tolist() == d.out_degrees().tolist()

    def test_permuted_d_out_stays_uniform(self):
        # chi-square on vertex 0's out-neighbour pair, n=6, d=2, over the
        # C(5,2)=10 possible sets, significance 0.001
        from itertools import combinations

        cats = {frozenset(c): i for i, c in enumerate(combinations(range(1, 6), 2))}
        counts = np.zeros(10)
        for t in range(100000):
            d = sample_d_out(6, 2, substream(9, t, "d"))
            f = random_permutation_family(6, substream(9, t, "f"))
            out = apply_permutations(d, f)
            heads = frozenset(h for tt, h, _ in out.arcs[:2])
            counts[cats[heads]] += 1
        _, pvalue = chisquare(counts)
        assert pvalue > 0.001


class TestValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            ColouredGraph(n=3, kappa=1, edges=((1, 1, 1),))

    def test_rejects_duplicate_arc(self):
        with pytest.raises(ValueError):
            ColouredDigraph(n=3, kappa=1, arcs=((0, 1, 1), (0, 1, 1)))

    def test_rejects_bad_colour(self):
        with pytest.raises(ValueError):
            ColouredGraph(n=3, kappa=2, edges=((0, 1, 3),))

    @pytest.mark.parametrize("arc", [(0, 3, 1), (3, 0, 1), (-1, 0, 1), (0, -1, 1)])
    def test_rejects_out_of_range_endpoint(self, arc):
        with pytest.raises(ValueError):
            ColouredDigraph(n=3, kappa=1, arcs=((0, 1, 1), arc))
        with pytest.raises(ValueError):
            ColouredGraph(n=3, kappa=1, edges=(arc,))

    def test_rejects_undirected_edge_with_u_not_below_v(self):
        with pytest.raises(ValueError):
            ColouredGraph(n=3, kappa=1, edges=((2, 1, 1),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            ColouredGraph(n=3, kappa=2, edges=((0, 1, 1), (1, 2, 1), (0, 1, 2)))

    def test_rejects_negative_colour_and_accepts_uncoloured(self):
        with pytest.raises(ValueError):
            ColouredDigraph(n=3, kappa=2, arcs=((0, 1, -1),))
        assert ColouredDigraph(n=3, kappa=2, arcs=((0, 1, 0),)).arcs.tolist() == [[0, 1, 0]]

    @pytest.mark.parametrize("rows", [[(0, 1), (1, 2), (2, 0)], [0, 1, 1], [(0, 1, 1, 1)]])
    def test_rejects_rows_that_are_not_triples(self, rows):
        with pytest.raises(ValueError):
            ColouredDigraph(n=3, kappa=1, arcs=rows)

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            ColouredDigraph(n=0, kappa=1, arcs=())

    @pytest.mark.parametrize(
        "perms",
        [
            ((0, 1, 1), (0, 1, 2), (0, 1, 2)),  # row 0 repeats 1
            ((0, 1, 2), (0, 1, 2), (0, 1, 5)),  # row 2 maps outside [0, 3)
            ((1, 0, 2), (0, 1, 2), (0, 1, 2)),  # row 0 does not fix 0
            ((0, 1, 2), (0, 1, 2)),  # not one row per vertex
        ],
    )
    def test_rejects_non_bijective_permutation_row(self, perms):
        with pytest.raises(ValueError):
            PermutationFamily(perms)


class TestRepresentation:
    def test_rows_are_read_only(self):
        d = sample_coloured_digraph(6, 0.5, 4, substream(40))
        g = coalesce_orientation(d, substream(41))
        f = random_permutation_family(6, substream(42))
        for rows in (d.arcs, g.edges, f.perms):
            with pytest.raises(ValueError):
                rows[0, 0] = 1

    def test_graph_owns_a_copy_of_its_rows(self):
        rows = np.array([[0, 1, 1], [1, 2, 2]])
        d = ColouredDigraph(n=3, kappa=2, arcs=rows)
        rows[0, 2] = 2
        assert d.arcs.tolist() == [[0, 1, 1], [1, 2, 2]]
        assert rows.flags.writeable

    def test_rows_are_int64_with_three_columns(self):
        for g in (
            ColouredGraph(n=3, kappa=2, edges=()),
            ColouredGraph(n=3, kappa=2, edges=[(0, 2, 1)]),
            sample_coloured_digraph(5, 0.5, 3, substream(43)),
        ):
            rows = g.edges if isinstance(g, ColouredGraph) else g.arcs
            assert rows.dtype == np.int64 and rows.ndim == 2 and rows.shape[1] == 3

    def test_equality_is_value_equality(self):
        a = ColouredDigraph(n=3, kappa=2, arcs=((0, 1, 1), (1, 2, 2)))
        b = ColouredDigraph(n=3, kappa=2, arcs=np.array([[0, 1, 1], [1, 2, 2]]))
        assert a == b and hash(a) == hash(b)
        assert a != ColouredDigraph(n=3, kappa=3, arcs=a.arcs)
        assert a != ColouredDigraph(n=4, kappa=2, arcs=a.arcs)
        assert a != ColouredDigraph(n=3, kappa=2, arcs=a.arcs[::-1])  # row order counts
        assert a != ColouredGraph(n=3, kappa=2, edges=a.arcs)
        f = random_permutation_family(5, substream(44))
        assert f == PermutationFamily(f.perms.tolist()) and f != f.inverse()
        assert f.inverse().inverse() == f


class TestLoopReferences:
    """The vectorised samplers and transforms against the per-row loops
    they replaced: same draws, same rows, same order."""

    def test_sample_coloured_graph_matches_loop(self):
        n, p, kappa = 9, 0.4, 5
        rng = substream(54)
        want = []
        for u in range(n - 1):
            heads = np.nonzero(rng.random(n - 1 - u) < p)[0] + u + 1
            if len(heads):
                colours = rng.integers(1, kappa + 1, size=len(heads))
                want.extend([u, int(v), int(c)] for v, c in zip(heads, colours))
        assert sample_coloured_graph(n, p, kappa, substream(54)).edges.tolist() == want

    @pytest.mark.parametrize("n, d", [(2, 1), (6, 2), (9, 8)])
    def test_sample_d_out_matches_loop(self, n, d):
        order = np.argsort(substream(53, n).random((n, n - 1)), axis=1)[:, :d]
        want = [[v, int(i) if i < v else int(i) + 1, 0] for v in range(n) for i in order[v]]
        assert sample_d_out(n, d, substream(53, n)).arcs.tolist() == want

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_random_permutation_family_matches_loop(self, n):
        order = np.argsort(substream(50, n).random((n, n - 1)), axis=1)
        want = []
        for v in range(n):
            others = [w for w in range(n) if w != v]
            pi = [v] * n
            for w, idx in zip(others, order[v]):
                pi[w] = others[idx]
            want.append(pi)
        assert random_permutation_family(n, substream(50, n)).perms.tolist() == want

    def test_coalesce_orientation_matches_loop(self):
        for t in range(50):
            d = sample_coloured_digraph(9, 0.5, 6, substream(51, t))
            by_pair: dict[tuple[int, int], list[int]] = {}
            for a, b, c in d.arcs.tolist():
                by_pair.setdefault((min(a, b), max(a, b)), []).append(c)
            rng = substream(52, t)
            want = [
                [u, v, cs[1] if len(cs) == 2 and rng.random() < 0.5 else cs[0]]
                for (u, v), cs in sorted(by_pair.items())
            ]
            assert coalesce_orientation(d, substream(52, t)).edges.tolist() == want
