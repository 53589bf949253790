import numpy as np
import pytest
from scipy.stats import chisquare

from rainbowgraphs.flow import (
    RainbowDOut,
    build_network,
    check_hall_bruteforce,
    extract_rainbow_dout,
    extract_via_permutation,
    max_flow,
)
from rainbowgraphs.graphs import (
    ColouredDigraph,
    apply_permutations,
    identity_permutation_family,
    random_permutation_family,
    sample_coloured_digraph,
)
from rainbowgraphs.rng import substream


def random_instance(seed, n, kappa, p1):
    return sample_coloured_digraph(n, p1, kappa, substream(seed, "inst"))


class TestBuildNetwork:
    def test_single_arc(self):
        d_in = ColouredDigraph(n=2, kappa=3, arcs=((0, 1, 3),))
        net = build_network(d_in, 1)
        assert net.num_nodes == 3 + 2 + 2
        assert net.middle_arcs.tolist() == [[3, 0]]
        caps = net.capacity_matrix()
        assert caps[net.source, net.colour_node(1)] == 1
        assert caps[net.colour_node(3), net.vertex_node(0)] == 2  # d*n surrogate
        assert caps[net.vertex_node(0), net.sink] == 1
        assert caps[net.vertex_node(1), net.sink] == 1

    def test_empty_digraph(self):
        net = build_network(ColouredDigraph(n=3, kappa=2, arcs=()), 1)
        assert net.middle_arcs.shape == (0, 2)
        assert max_flow(net)[0] == 0

    def test_middle_arc_count_matches_distinct_pairs(self):
        for seed in range(20):
            d_in = random_instance(seed, 7, 6, 0.5)
            net = build_network(d_in, 2)
            expected = {(c, t) for t, _, c in d_in.arcs}
            assert len(net.middle_arcs) == len(expected)
            assert {(c, t) for c, t in net.middle_arcs.tolist()} == expected


class TestMaxFlow:
    def test_two_cycle_value(self):
        d_in = ColouredDigraph(n=2, kappa=2, arcs=((0, 1, 1), (1, 0, 2)))
        assert max_flow(build_network(d_in, 1))[0] == 2

    def test_flow_conservation_and_capacities(self):
        for seed in range(30):
            d_in = random_instance(seed, 6, 8, 0.5)
            net = build_network(d_in, 1)
            caps = net.capacity_matrix()
            value, flow = max_flow(net)
            inflow = {v: 0 for v in range(net.num_nodes)}
            outflow = {v: 0 for v in range(net.num_nodes)}
            coo = flow.tocoo()
            for i, j, f in zip(coo.row, coo.col, coo.data):
                if f > 0:
                    assert f <= caps[i, j]
                    outflow[i] += f
                    inflow[j] += f
                else:  # the reverse entry of a used arc
                    assert flow[j, i] == -f
            for v in range(net.num_nodes):
                if v not in (net.source, net.sink):
                    assert inflow[v] == outflow[v]
            assert outflow[net.source] == value == inflow[net.sink]

    def test_monotone_under_arc_addition(self):
        for seed in range(20):
            full = random_instance(seed, 6, 6, 0.6)
            k = len(full.arcs) // 2
            sub = ColouredDigraph(n=6, kappa=6, arcs=full.arcs[:k])
            v_sub = max_flow(build_network(sub, 1))[0]
            v_full = max_flow(build_network(full, 1))[0]
            assert v_full >= v_sub


class TestHallBruteforce:
    def test_empty_set_condition(self):
        # kappa >= d*n and every vertex owning arcs of all colours: holds
        d_in = ColouredDigraph(
            n=2, kappa=3, arcs=((0, 1, 1), (1, 0, 2))
        )
        holds, witness = check_hall_bruteforce(d_in, 1)
        assert holds and witness is None

    def test_missing_colour_witness(self):
        # kappa = d*n with colour 3 absent: S={3} has deficiency 1
        d_in = ColouredDigraph(
            n=3, kappa=3, arcs=((0, 1, 1), (1, 2, 2), (2, 0, 2))
        )
        holds, witness = check_hall_bruteforce(d_in, 1)
        assert not holds
        assert witness.deficiency >= 1
        assert 3 in witness.colours

    def test_witness_validity(self):
        for seed in range(200):
            d_in = random_instance(seed, 5, 5, 0.3)
            holds, witness = check_hall_bruteforce(d_in, 1)
            if holds:
                continue
            tails = {
                t for t, _, c in d_in.arcs if c in set(witness.colours)
            }
            assert set(witness.neighbours) == tails
            assert witness.deficiency == 5 - (
                5 - len(witness.colours) + len(tails)
            )
            assert witness.deficiency > 0

    def test_kappa_cap(self):
        d_in = ColouredDigraph(n=2, kappa=23, arcs=())
        with pytest.raises(ValueError):
            check_hall_bruteforce(d_in, 1)

    def test_agrees_with_max_flow(self):
        rng = substream(11)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            kappa = int(rng.integers(max(1, n - 2), 10))
            d = int(rng.integers(1, 3))
            p1 = float(rng.choice([0.2, 0.5, 0.8]))
            d_in = sample_coloured_digraph(n, p1, kappa, rng)
            value = max_flow(build_network(d_in, d))[0]
            holds, _ = check_hall_bruteforce(d_in, d)
            assert (value == d * n) == holds


class TestExtraction:
    def test_two_cycle(self):
        d_in = ColouredDigraph(n=2, kappa=2, arcs=((0, 1, 1), (1, 0, 2)))
        rainbow = extract_rainbow_dout(d_in, 1)
        rainbow.check(d_in)
        assert rainbow.digraph.arcs.tolist() == [[0, 1, 1], [1, 0, 2]]

    def test_empty_absent(self):
        assert extract_rainbow_dout(ColouredDigraph(n=2, kappa=2, arcs=()), 1) is None

    def test_invariants_on_feasible_instances(self):
        successes = 0
        for seed in range(300):
            d_in = random_instance(seed, 8, 20, 0.7)
            res = extract_rainbow_dout(d_in, 2)
            if res is None:
                continue
            res.check(d_in)
            assert res.digraph.out_degrees().tolist() == [2] * 8
            source = d_in.arcs.tolist()
            for t, h, c in res.digraph.arcs.tolist():
                # the smallest head among the tail's arcs of that colour
                assert h == min(b for a, b, x in source if (a, x) == (t, c))
            successes += 1
        assert successes > 200

    def test_assignment_colours_globally_distinct(self):
        for seed in range(50):
            d_in = random_instance(seed, 6, 15, 0.8)
            res = extract_rainbow_dout(d_in, 2)
            if res is None:
                continue
            colours = res.digraph.arcs[:, 2].tolist()
            assert len(set(colours)) == len(colours)


class TestExtractViaPermutation:
    def test_identity_family_matches_plain(self):
        d_in = random_instance(3, 6, 12, 0.8)
        plain = extract_rainbow_dout(d_in, 1)
        via = extract_via_permutation(
            d_in, 1, substream(0), family=identity_permutation_family(6)
        )
        assert plain is not None and via is not None
        assert via.digraph == plain.digraph

    def test_matches_relabel_extract_and_map_back(self):
        # the round trip the head ranking replaces: relabel every head by
        # pi, extract, then map the heads back through pi^-1
        successes = 0
        for seed in range(100):
            d_in = random_instance(seed, 7, 20, 0.8)
            f = random_permutation_family(7, substream(seed, "f"))
            via = extract_via_permutation(d_in, 2, substream(0), family=f)
            plain = extract_rainbow_dout(apply_permutations(d_in, f), 2)
            assert (via is None) == (plain is None)
            if via is not None:
                assert via.digraph == apply_permutations(plain.digraph, f.inverse())
                successes += 1
        assert successes > 50

    def test_output_subgraph_of_input(self):
        for seed in range(50):
            d_in = random_instance(seed, 6, 12, 0.7)
            via = extract_via_permutation(d_in, 1, substream(seed, "p"))
            if via is not None:
                via.check(d_in)

    def test_head_distribution_less_biased_than_tiebreak(self):
        # fixed dense feasible input with few colours, so colour classes at
        # each tail have several heads; plain extraction always picks the
        # smallest head, permuted extraction picks uniformly within a class
        d_in = sample_coloured_digraph(5, 1.0, 5, substream(3))
        assert extract_rainbow_dout(d_in, 1) is not None
        trials = 20000
        # plain extraction is deterministic: one run counted trials times
        plain = extract_rainbow_dout(d_in, 1)
        plain_counts = {(v, h): trials for v, h, _ in plain.digraph.arcs.tolist()}
        perm_counts: dict[tuple[int, int], int] = {}
        for t in range(trials):
            via = extract_via_permutation(d_in, 1, substream(3, t, "perm"))
            for v, h, _ in via.digraph.arcs.tolist():
                perm_counts[(v, h)] = perm_counts.get((v, h), 0) + 1

        cats: dict[int, set[int]] = {}
        for v, h in {*plain_counts, *perm_counts}:
            cats.setdefault(v, set()).add(h)

        def chisq_against_uniform(counts):
            total = 0.0
            for v, heads in cats.items():
                expected = trials / len(heads)
                total += sum(
                    (counts.get((v, h), 0) - expected) ** 2 / expected
                    for h in heads
                )
            return total

        # plain is deterministic, so any tail with a multi-head colour class
        # concentrates all mass on one head
        assert chisq_against_uniform(perm_counts) < chisq_against_uniform(plain_counts)
        multi = [v for v in perm_counts if v not in plain_counts]
        assert multi, "instance should have at least one multi-head colour class"


class TestRainbowDOutCheck:
    def test_rejects_arc_missing_from_source(self):
        source = ColouredDigraph(n=3, kappa=3, arcs=((0, 1, 1), (1, 2, 2), (2, 0, 3)))
        RainbowDOut(source, 1).check(source)
        other = ColouredDigraph(n=3, kappa=3, arcs=((0, 2, 1), (1, 2, 2), (2, 0, 3)))
        with pytest.raises(AssertionError, match="not present"):
            RainbowDOut(other, 1).check(source)

    def test_rejects_arc_whose_colour_differs_in_the_source(self):
        source = ColouredDigraph(n=3, kappa=4, arcs=((0, 1, 1), (1, 2, 2), (2, 0, 3)))
        recoloured = ColouredDigraph(n=3, kappa=4, arcs=((0, 1, 4), (1, 2, 2), (2, 0, 3)))
        with pytest.raises(AssertionError, match="not present"):
            RainbowDOut(recoloured, 1).check(source)

    def test_containment_key_does_not_wrap_at_huge_colours(self):
        # With kappa + 1 = 2**62 a combined key (t*n + h) * (kappa + 1) + c
        # wraps modulo 2**64, and (1, 2, c) gets the key of (0, 1, c); the
        # check must still see that (0, 1) is not a source arc.
        kappa = 2**62 - 1
        source = ColouredDigraph(n=3, kappa=kappa, arcs=((1, 2, 7), (1, 0, 8), (2, 0, 9)))
        rainbow = ColouredDigraph(n=3, kappa=kappa, arcs=((0, 1, 7), (1, 0, 8), (2, 0, 9)))
        with pytest.raises(AssertionError, match="not present"):
            RainbowDOut(rainbow, 1).check(source)
