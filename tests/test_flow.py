import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow
from scipy.stats import chisquare

from rainbowgraphs.flow import (
    HallWitness,
    RainbowDOut,
    build_network,
    extract_rainbow_dout,
    extract_via_permutation,
    hall_witness,
    max_flow,
)
from rainbowgraphs.graphs import (
    ColouredDigraph,
    PermutationFamily,
    apply_permutations,
    random_permutation_family,
    sample_coloured_digraph,
    sample_d_out,
)
from rainbowgraphs.rng import substream


def identity_permutation_family(n):
    """The family with every pi_v the identity on [n] \\ {v}."""
    return PermutationFamily(np.tile(np.arange(n), (n, 1)))


def inverse(f):
    """The family of the inverse permutations pi_v^-1."""
    return PermutationFamily(np.argsort(f.perms, axis=1))


HALL_KAPPA_CAP = 22


def check_hall_bruteforce(d_in, d):
    """Reference oracle: enumerate every colour subset S and test the cut
    condition kappa - |S| + d*|N(S)| >= d*n.

    Returns (True, None) when all subsets pass; otherwise a maximally
    deficient witness, ties broken by smaller |S| then lexicographic S.
    """
    kappa = d_in.kappa
    if kappa > HALL_KAPPA_CAP:
        raise ValueError(f"kappa={kappa} exceeds enumeration cap {HALL_KAPPA_CAP}")
    n, target = d_in.n, d * d_in.n
    tail_mask = [0] * (kappa + 1)
    for t, _, c in d_in.arcs.tolist():
        tail_mask[c] |= 1 << t
    best = None  # (-deficiency, |S|, S, N(S) bitmask)
    neigh = [0] * (1 << kappa)
    for mask in range(1, 1 << kappa):
        low = mask & -mask
        neigh[mask] = neigh[mask ^ low] | tail_mask[low.bit_length()]
    for mask in range(1 << kappa):
        size = mask.bit_count()
        deficiency = target - (kappa - size + d * neigh[mask].bit_count())
        if deficiency > 0:
            s = tuple(x for x in range(1, kappa + 1) if mask >> (x - 1) & 1)
            cand = (-deficiency, size, s, neigh[mask])
            if best is None or cand < best:
                best = cand
    if best is None:
        return True, None
    neg_def, _, s, nmask = best
    neighbours = tuple(v for v in range(n) if nmask >> v & 1)
    return False, HallWitness(colours=s, neighbours=neighbours, deficiency=-neg_def)


def coo_capacity_matrix(net):
    """Reference: the capacity matrix assembled from (row, col) triples
    with int64 capacities, which scipy's max-flow casts to int32."""
    colours, vertices = net.middle_arcs.T
    n, d, m, k = net.n, net.d, net.num_nodes, len(colours)
    colour_nodes, vertex_nodes = np.arange(1, net.kappa + 1), net.vertex_node(np.arange(n))
    rows = np.concatenate([np.zeros_like(colour_nodes), colours, vertex_nodes])
    cols = np.concatenate([colour_nodes, net.vertex_node(vertices), np.full(n, net.sink)])
    caps = np.concatenate([np.ones_like(colour_nodes), np.full(k, d * n), np.full(n, d)])
    return csr_matrix((caps, (rows, cols)), shape=(m, m))


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

    def test_rejects_sizes_beyond_int32(self):
        # scipy's max-flow takes int32: d*n = 2**31 would wrap to a
        # negative capacity, and so would a sink node past 2**31 - 1
        one_arc = ColouredDigraph(n=2**30, kappa=1, arcs=((0, 1, 1),))
        with pytest.raises(ValueError, match="exceeds int32"):
            build_network(one_arc, 2)
        many_colours = ColouredDigraph(n=2, kappa=2**31, arcs=((0, 1, 1),))
        with pytest.raises(ValueError, match="exceeds int32"):
            build_network(many_colours, 1)

    def test_rejects_uncoloured_arcs(self):
        # colour 0 would be the source node: each uncoloured arc would
        # become a source->vertex arc of capacity d*n
        with pytest.raises(ValueError, match="uncoloured arc"):
            build_network(sample_d_out(5, 2, substream(0)), 2)
        mixed = ColouredDigraph(n=3, kappa=2, arcs=((0, 1, 0), (1, 0, 1), (2, 0, 2)))
        with pytest.raises(ValueError, match="uncoloured arc with tail 0"):
            build_network(mixed, 1)


class TestCapacityMatrix:
    @staticmethod
    def assert_same_csr(a, b):
        assert a.shape == b.shape
        for field in ("indptr", "indices", "data"):
            assert getattr(a, field).tolist() == getattr(b, field).tolist(), field

    def assert_matches_reference(self, net):
        caps = net.capacity_matrix()
        assert caps.dtype == np.int32
        assert caps.indices.dtype == caps.indptr.dtype == np.int32
        self.assert_same_csr(caps, coo_capacity_matrix(net))
        # column indices ascend within every row, as scipy's solver needs
        rows = np.repeat(np.arange(net.num_nodes), np.diff(caps.indptr))
        assert (np.diff(caps.indices)[np.diff(rows) == 0] > 0).all()
        want = maximum_flow(coo_capacity_matrix(net), net.source, net.sink)
        value, flow = max_flow(net)
        assert value == want.flow_value
        self.assert_same_csr(flow, want.flow)

    def test_empty_middle_arcs(self):
        self.assert_matches_reference(build_network(ColouredDigraph(n=3, kappa=2, arcs=()), 1))

    def test_colours_without_arcs(self):
        # colours 1, 3 and 6 carry no arc: their rows are empty
        d_in = ColouredDigraph(n=3, kappa=6, arcs=((0, 1, 2), (1, 2, 4), (2, 0, 5), (2, 1, 2)))
        net = build_network(d_in, 2)
        assert np.diff(net.capacity_matrix().indptr)[[1, 3, 6]].tolist() == [0, 0, 0]
        self.assert_matches_reference(net)

    def test_random_instances(self):
        for seed in range(60):
            n = 2 + seed % 13
            d_in = random_instance(seed, n, 1 + seed % 3 * n, 0.1 + seed % 5 * 0.2)
            self.assert_matches_reference(build_network(d_in, 1 + seed % 4))
        self.assert_matches_reference(build_network(random_instance(0, 300, 900, 0.01), 2))


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
            holds, witness = check_hall_bruteforce(d_in, d)
            assert (value == d * n) == holds
            assert hall_witness(d_in, d) == witness


class TestHallWitness:
    def test_checks_at_scale(self):
        # far past the enumeration cap: n=1000, kappa=3000, d=2
        d_in = sample_coloured_digraph(1000, 0.004, 3000, substream(5, "hall-scale"))
        value = max_flow(build_network(d_in, 2))[0]
        witness = hall_witness(d_in, 2)
        assert value < 2000
        witness.check(d_in, 2)
        assert witness.deficiency == 2000 - value

    def test_none_exactly_when_flow_is_full_above_cap(self):
        infeasible = 0
        for seed in range(60):
            rng = substream(seed, "hall-above-cap")
            n, d = int(rng.integers(3, 12)), int(rng.integers(1, 3))
            kappa = int(rng.integers(23, 45))
            d_in = sample_coloured_digraph(n, float(rng.choice([0.2, 0.5])), kappa, rng)
            value = max_flow(build_network(d_in, d))[0]
            witness = hall_witness(d_in, d)
            assert (witness is None) == (value == d * n)
            if witness is not None:
                witness.check(d_in, d)
                assert witness.deficiency == d * n - value
                infeasible += 1
        assert 10 < infeasible < 60


class TestHallWitnessCheck:
    SOURCE = ColouredDigraph(n=3, kappa=4, arcs=((0, 1, 1), (1, 2, 1), (2, 0, 2)))

    def test_accepts_oracle_witness(self):
        holds, witness = check_hall_bruteforce(self.SOURCE, 1)
        assert not holds
        witness.check(self.SOURCE, 1)
        assert hall_witness(self.SOURCE, 1) == witness

    def test_rejects_dropped_neighbour(self):
        # S={2,3,4} has N(S)={2} and deficiency 1; without the neighbour the
        # stated deficiency 2 matches the count, so only N(S) is wrong
        HallWitness(colours=(2, 3, 4), neighbours=(2,), deficiency=1).check(self.SOURCE, 1)
        witness = HallWitness(colours=(2, 3, 4), neighbours=(), deficiency=2)
        with pytest.raises(AssertionError, match="not the tails"):
            witness.check(self.SOURCE, 1)

    def test_rejects_wrong_deficiency(self):
        HallWitness(colours=(3, 4), neighbours=(), deficiency=1).check(self.SOURCE, 1)
        with pytest.raises(AssertionError, match="deficiency 2, recomputed 1"):
            HallWitness(colours=(3, 4), neighbours=(), deficiency=2).check(self.SOURCE, 1)

    def test_rejects_non_deficient_set(self):
        # S={1}: kappa - |S| + d*|{0, 1}| = 5 >= d*n = 3, deficiency -2;
        # S={1,3,4} meets the condition with equality, deficiency 0
        for colours, deficiency in [((1,), -2), ((1, 3, 4), 0)]:
            witness = HallWitness(colours=colours, neighbours=(0, 1), deficiency=deficiency)
            with pytest.raises(AssertionError, match="not > 0"):
                witness.check(self.SOURCE, 1)

    def test_rejects_colours_out_of_order_or_range(self):
        for colours in [(4, 3), (3, 3, 4), (0, 3, 4), (3, 4, 5)]:
            with pytest.raises(AssertionError, match="not ascending"):
                HallWitness(colours, (), 2).check(self.SOURCE, 1)


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
                assert via.digraph == apply_permutations(plain.digraph, inverse(f))
                successes += 1
        assert successes > 50

    def test_drawn_relabelling_is_random_permutation_family(self):
        # relabelling the input's heads only gives the extraction under
        # the whole family drawn from the same generator
        instances, feasible, tied = [], 0, 0
        for seed in range(320):
            r = substream(seed, "shape")
            n = int(r.integers(5, 41))
            d = 1 if seed % 3 else 2
            instances.append((seed, n, d, int(r.integers(d * n, 2 * n + 1)), r.uniform(0.3, 0.95)))
        instances += [(1000 + s, 400, 1, 400 + 20 * s, 0.5) for s in range(3)]
        for seed, n, d, kappa, p1 in instances:
            d_in = random_instance(seed, n, kappa, p1)
            via = extract_via_permutation(d_in, d, substream(seed, "p"))
            family = random_permutation_family(n, substream(seed, "p"))
            assert via == extract_via_permutation(d_in, d, substream(0), family=family)
            if via is not None:
                feasible += 1
                tied += via.digraph != extract_rainbow_dout(d_in, d).digraph
        assert feasible > 250 and tied > 200

    @pytest.mark.parametrize("n, kappa, p1", [(2, 2, 0.0), (12, 80, 0.7), (40, 60, 0.8)])
    def test_draws_only_the_key_matrix(self, n, kappa, p1):
        # drawn before the max-flow, whether or not the extraction succeeds
        d_in = random_instance(n, n, kappa, p1)
        rng, twin = substream(58, n), substream(58, n)
        extract_via_permutation(d_in, 1, rng)
        twin.random((n, n - 1))
        assert rng.bit_generator.state == twin.bit_generator.state

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
