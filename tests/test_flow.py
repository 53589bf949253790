import sys
from types import ModuleType

import numpy as np
import pytest
import scipy.sparse.csgraph
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow
from scipy.stats import chisquare

import rainbowgraphs.flow
from rainbowgraphs.flow import (
    HallWitness,
    RainbowDOut,
    build_network,
    extract_rainbow_dout,
    extract_via_permutation,
    max_flow,
)
from rainbowgraphs.graphs import (
    ColouredDigraph,
    PermutationFamily,
    apply_permutations,
    random_permutation_family,
    sample_coloured_digraph,
    sample_d_out,
    split_probability,
)
from rainbowgraphs.rng import substream


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
    """Reference: the network as the CSR matrix scipy's max-flow takes,
    assembled from (row, col) triples with int64 capacities, which scipy
    casts to int32.  Node 0 is the source, node c colour c, node
    kappa+1+v vertex v and node kappa+n+1 the sink."""
    colours, vertices = net.middle_arcs.T
    n, kappa, d, k = net.n, net.kappa, net.d, len(colours)
    colour_nodes, vertex_nodes = np.arange(1, kappa + 1), kappa + 1 + np.arange(n)
    rows = np.concatenate([np.zeros_like(colour_nodes), colours, vertex_nodes])
    cols = np.concatenate([colour_nodes, kappa + 1 + vertices, np.full(n, kappa + n + 1)])
    caps = np.concatenate([np.ones_like(colour_nodes), np.full(k, d * n), np.full(n, d)])
    return csr_matrix((caps, (rows, cols)), shape=(kappa + n + 2, kappa + n + 2))


def first_phase(net):
    """Reference: Dinic's first phase on the three-layer network as a plain
    loop, colours ascending, each taking the smallest adjacent vertex with
    room.  Returns the owners and whether every vertex is saturated."""
    room = [net.d] * net.n
    owner = [-1] * (net.kappa + 1)
    for c, v in net.middle_arcs.tolist():  # sorted by colour, then vertex
        if owner[c] < 0 and room[v]:
            room[v] -= 1
            owner[c] = v
    return owner, not any(room)


def precheck_rejects(net):
    """Reference: fewer than d*n colours, or a vertex adjacent to fewer
    than d colours, leave a vertex short under any flow.  `max_flow`
    solves these networks like any other; the tests count them as a
    class of their own."""
    degrees = np.bincount(net.middle_arcs[:, 1], minlength=net.n)
    return net.kappa < net.d * net.n or degrees.min() < net.d


def scipy_max_flow_calls(monkeypatch):
    """A list that grows by one on every call of scipy's `maximum_flow`
    looked up through scipy's modules.  No module of the package may hold
    the function itself, so the package has no other way to call it; the
    oracles here call it through this module's own name, and are not
    counted."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rainbowgraphs":
            assert all(value is not maximum_flow for value in vars(module).values()), name
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return maximum_flow(*args, **kwargs)

    for module in (scipy.sparse.csgraph, scipy.sparse.csgraph._flow):
        monkeypatch.setattr(module, "maximum_flow", counted)
    return calls


def owner_flow(net, owner):
    """The flow `owner` implies, one entry per arc: source->c and
    c->owner[c] carry 1 for every assigned colour c, v->sink the number
    of colours v owns; nodes are numbered as in `coo_capacity_matrix`."""
    colours, n, kappa = np.flatnonzero(owner >= 0), net.n, net.kappa
    rows = np.concatenate([np.zeros_like(colours), colours, kappa + 1 + np.arange(n)])
    cols = np.concatenate([colours, kappa + 1 + owner[colours], np.full(n, kappa + n + 1)])
    units = np.concatenate([np.ones(2 * len(colours), int), np.bincount(owner[colours], minlength=n)])
    return csr_matrix((units, (rows, cols)), shape=(kappa + n + 2, kappa + n + 2))


def assert_flow_is_scipys(net, value, owner):
    """The flow `owner` implies respects the capacities and equals scipy's
    max-flow on the reference capacity matrix arc for arc (scipy stores
    each arc's flow negated at its reverse entry)."""
    assert owner.shape == (net.kappa + 1,) and owner[0] == -1
    assert ((owner >= -1) & (owner < net.n)).all()
    forward, caps = owner_flow(net, owner), coo_capacity_matrix(net)
    assert ((caps - forward).data >= 0).all()
    want = maximum_flow(caps, 0, net.kappa + net.n + 1)  # from the source to the sink
    assert value == want.flow_value == forward[0].sum()
    assert (forward - forward.T - want.flow).count_nonzero() == 0


def scipy_hall_witness(d_in, d):
    """Reference: the witness read off the residual of scipy's flow matrix."""
    net = build_network(d_in, d)
    caps, vertex_0 = coo_capacity_matrix(net), net.kappa + 1  # vertex 0's node
    res = maximum_flow(caps, 0, net.kappa + net.n + 1)
    if res.flow_value >= d * d_in.n:
        return None
    residual = (caps - res.flow) > 0
    reached = np.sort(breadth_first_order(residual, 0, return_predecessors=False))
    split = np.searchsorted(reached, vertex_0)
    neighbours = reached[split:] - vertex_0
    return HallWitness(
        tuple(reached[1:split].tolist()), tuple(neighbours.tolist()), d * d_in.n - res.flow_value
    )


def extracted_witness(d_in, d):
    """The extraction's witness, or None when it extracts a rainbow d-out."""
    res = extract_rainbow_dout(d_in, d)
    return res if isinstance(res, HallWitness) else None


def random_instance(seed, n, kappa, p1):
    return sample_coloured_digraph(n, p1, kappa, substream(seed, "inst"))


def test_package_import_loads_no_scipy_sparse(run_python):
    # the package solves its flows itself; only the tests' oracle
    # networks are scipy.sparse matrices
    code = "import sys, rainbowgraphs; print([m for m in sys.modules if m.startswith('scipy.sparse')])"
    res = run_python("-c", code)
    assert (res.returncode, res.stdout, res.stderr) == (0, "[]\n", "")


def test_flow_holds_nothing_from_scipy():
    for name, value in vars(rainbowgraphs.flow).items():
        origin = value.__name__ if isinstance(value, ModuleType) else getattr(value, "__module__", None)
        assert not (origin or "").startswith("scipy"), name


class TestBuildNetwork:
    def test_single_arc(self):
        d_in = ColouredDigraph(n=2, kappa=3, arcs=((0, 1, 3),))
        net = build_network(d_in, 1)
        assert (net.n, net.kappa, net.d) == (2, 3, 1)
        assert net.middle_arcs.tolist() == [[3, 0]]
        assert net.capacity_matrix().tolist() == [0, 0, 0, 1]  # colour 3's run is row 0
        caps = coo_capacity_matrix(net)  # nodes: source, colours 1-3, vertices 0-1, sink
        assert caps.shape == (3 + 2 + 2, 3 + 2 + 2) and caps.nnz == 3 + 1 + 2
        assert caps[0, 1] == 1  # source -> colour 1
        assert caps[3, 4] == 2  # colour 3 -> vertex 0: the d*n surrogate
        assert caps[4, 6] == 1
        assert caps[5, 6] == 1

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

    def test_middle_arcs_are_the_unique_colour_tail_pairs(self):
        # sampled rows come sorted by pair; coloured d-out rows come in
        # choice order, and with few colours repeat (colour, tail) pairs
        for seed in range(30):
            rng = substream(seed, "unique")
            n, kappa, d = int(rng.integers(1, 40)), int(rng.integers(1, 12)), int(rng.integers(1, 4))
            sampled = random_instance(seed, n, kappa, float(rng.random()))
            graphs = [sampled]
            if n > 1:
                out = sample_d_out(n, int(rng.integers(1, n)), rng)
                colours = rng.integers(1, kappa + 1, len(out.arcs))
                graphs.append(ColouredDigraph(n, kappa, np.column_stack([out.arcs[:, :2], colours])))
            for d_in in graphs:
                net = build_network(d_in, d)
                want = np.unique(d_in.arcs[:, [2, 0]], axis=0).reshape(-1, 2)
                assert net.middle_arcs.tolist() == want.tolist(), seed
                assert net.middle_arcs.dtype == np.int64 and not net.middle_arcs.flags.writeable

    def test_rejects_sizes_beyond_int32(self):
        # scipy's max-flow, the tests' oracle, takes int32 capacities and
        # node numbers: d*n = 2**31 would wrap to a negative capacity, and
        # so would a sink node past 2**31 - 1
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
        mixed = ColouredDigraph(n=3, kappa=2, arcs=((2, 1, 0), (0, 1, 0), (1, 0, 1), (2, 0, 2)))
        with pytest.raises(ValueError, match="^uncoloured arc with tail 0 has no colour node$"):
            build_network(mixed, 1)


class TestCapacityMatrix:
    def assert_matches_reference(self, net, scipy_calls):
        """Checks the colour runs against the reference CSR's colour rows,
        then the flow against scipy's; `max_flow` itself never calls
        scipy's solver.  Returns "rejected" (by the precheck), "saturated"
        (by the first phase) or "short" (after it)."""
        ends, coo, kappa = net.capacity_matrix(), coo_capacity_matrix(net), net.kappa
        assert ends.dtype == np.int64
        assert ends.tolist() == (coo.indptr[1 : kappa + 2] - kappa).tolist()
        # the runs hold the colour rows' vertices, ascending within every
        # run, in the order scipy's solver scans them
        colours, vertices = net.middle_arcs.T
        assert (vertices + kappa + 1).tolist() == coo.indices[kappa : coo.indptr[kappa + 1]].tolist()
        assert (np.diff(vertices)[np.diff(colours) == 0] > 0).all()
        value, owner = max_flow(net)
        assert not scipy_calls
        rejected = precheck_rejects(net)
        phase_owner, saturated = first_phase(net)
        if saturated:
            assert owner.tolist() == phase_owner
        assert_flow_is_scipys(net, value, owner)
        return "rejected" if rejected else "saturated" if saturated else "short"

    @pytest.fixture
    def scipy_calls(self, monkeypatch):
        return scipy_max_flow_calls(monkeypatch)

    def test_empty_middle_arcs(self, scipy_calls):
        net = build_network(ColouredDigraph(n=3, kappa=2, arcs=()), 1)
        assert self.assert_matches_reference(net, scipy_calls) == "rejected"

    def test_colours_without_arcs(self, scipy_calls):
        # colours 1, 3 and 6 carry no arc: their runs are empty
        d_in = ColouredDigraph(n=3, kappa=6, arcs=((0, 1, 2), (1, 2, 4), (2, 0, 5), (2, 1, 2)))
        net = build_network(d_in, 2)
        runs = np.diff(net.capacity_matrix(), prepend=0)  # run c is colour c's rows
        assert runs[[1, 3, 6]].tolist() == [0, 0, 0]
        assert runs.tolist() == [0, 0, 2, 0, 1, 1, 0]
        self.assert_matches_reference(net, scipy_calls)

    def test_random_instances(self, scipy_calls):
        rng = substream(0, "flow-vs-scipy")
        kinds = []
        for seed in range(2000):
            n = int(rng.integers(2, 41))
            kappa = int(rng.integers(1, 4 * n + 1))
            p1 = float(rng.choice([0.05, 0.1, 0.3, 0.5, 0.7, 0.9]))
            net = build_network(random_instance(seed, n, kappa, p1), int(rng.integers(1, 5)))
            kinds.append(self.assert_matches_reference(net, scipy_calls))
        # every kind: the first phase alone, the later phases, and the
        # networks no flow fills
        assert 100 < kinds.count("saturated") < 1900
        assert kinds.count("short") > 100 and kinds.count("rejected") > 1000
        net = build_network(random_instance(0, 300, 900, 0.01), 2)
        assert self.assert_matches_reference(net, scipy_calls) == "rejected"
        # rejected near the threshold at n=300 and n=1000, d=2
        for n, kappa, p in [(300, 700, 0.03), (1000, 3000, 0.008)]:
            net = build_network(random_instance(0, n, kappa, split_probability(p).p1), 2)
            assert self.assert_matches_reference(net, scipy_calls) == "rejected"
        # the lemma3 benchmark's size: n=1000, d=2, p=0.3, kappa=3000
        p1 = split_probability(0.3).p1
        net = build_network(random_instance(1, 1000, 3000, p1), 2)
        assert self.assert_matches_reference(net, scipy_calls) == "saturated"

    def test_later_phases_match_scipy(self, scipy_calls):
        # kappa from d*n to 1.5*d*n: the first phase often leaves a vertex
        # short although the precheck passes
        rng = substream(0, "later-phases")
        short = reassigned = infeasible = 0
        for seed in range(800):
            n, d = int(rng.integers(2, 31)), int(rng.integers(1, 4))
            kappa = int(rng.integers(d * n, 3 * d * n // 2 + 1))
            p1 = float(rng.choice([0.2, 0.3, 0.5, 0.7, 0.9]))
            net = build_network(random_instance(seed, n, kappa, p1), d)
            if self.assert_matches_reference(net, scipy_calls) != "short":
                continue
            short += 1
            phase_owner = np.array(first_phase(net)[0])
            value, owner = max_flow(net)
            # some path ran through a colour the first phase had assigned
            reassigned += bool(((phase_owner >= 0) & (owner != phase_owner)).any())
            infeasible += value < d * n
        assert short >= 300 and reassigned >= 250 and infeasible >= 50
        # short networks at n=1000, d=2: kappa=2000 at p=0.3, 2500 at
        # p=0.05 and 5000 at p=0.02
        for seed, kappa, p in [(0, 2000, 0.3), (0, 2500, 0.05), (0, 5000, 0.02)]:
            net = build_network(random_instance(seed, 1000, kappa, split_probability(p).p1), 2)
            assert self.assert_matches_reference(net, scipy_calls) == "short"


class TestMaxFlow:
    def test_two_cycle_value(self):
        d_in = ColouredDigraph(n=2, kappa=2, arcs=((0, 1, 1), (1, 0, 2)))
        assert max_flow(build_network(d_in, 1))[0] == 2

    def test_flow_conservation_and_capacities(self):
        for seed in range(30):
            d_in = random_instance(seed, 6, 8, 0.5)
            net = build_network(d_in, 1)
            caps, sink = coo_capacity_matrix(net), net.kappa + net.n + 1
            value, owner = max_flow(net)
            inflow = {v: 0 for v in range(sink + 1)}
            outflow = {v: 0 for v in range(sink + 1)}
            coo = owner_flow(net, owner).tocoo()
            for i, j, f in zip(coo.row, coo.col, coo.data):
                assert 0 <= f <= caps[i, j]
                outflow[i] += f
                inflow[j] += f
            for v in range(1, sink):  # every node but the source 0 and the sink
                assert inflow[v] == outflow[v]
            assert outflow[0] == value == inflow[sink]
            assert_flow_is_scipys(net, value, owner)

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
            assert extracted_witness(d_in, d) == witness


class TestHallWitness:
    def test_checks_at_scale(self):
        # far past the enumeration cap: n=1000, kappa=3000, d=2
        d_in = sample_coloured_digraph(1000, 0.004, 3000, substream(5, "hall-scale"))
        value = max_flow(build_network(d_in, 2))[0]
        witness = extract_rainbow_dout(d_in, 2)
        assert value < 2000
        witness.check(d_in, 2)
        assert witness.deficiency == 2000 - value
        assert witness == scipy_hall_witness(d_in, 2)

    def test_none_exactly_when_flow_is_full_above_cap(self):
        infeasible = 0
        for seed in range(60):
            rng = substream(seed, "hall-above-cap")
            n, d = int(rng.integers(3, 12)), int(rng.integers(1, 3))
            kappa = int(rng.integers(23, 45))
            d_in = sample_coloured_digraph(n, float(rng.choice([0.2, 0.5])), kappa, rng)
            value = max_flow(build_network(d_in, d))[0]
            witness = extracted_witness(d_in, d)
            assert (witness is None) == (value == d * n)
            if witness is not None:
                witness.check(d_in, d)
                assert witness.deficiency == d * n - value
                infeasible += 1
        assert 10 < infeasible < 60

    def test_matches_scipy_residual_reference(self):
        # kappa from 23 up, past what the 2**kappa oracle can enumerate
        rng = substream(0, "hall-vs-scipy")
        infeasible = 0
        for _ in range(300):
            n, d = int(rng.integers(3, 41)), int(rng.integers(1, 4))
            kappa = int(rng.integers(HALL_KAPPA_CAP + 1, max(HALL_KAPPA_CAP + 2, 3 * d * n)))
            d_in = sample_coloured_digraph(n, float(rng.choice([0.05, 0.2, 0.5])), kappa, rng)
            witness = extracted_witness(d_in, d)
            assert witness == scipy_hall_witness(d_in, d)
            infeasible += witness is not None
        assert 50 < infeasible < 250
        # kappa = d*n >= 23, where one colour without arcs is a violation
        # that the precheck's two counts do not see
        rng = substream(0, "hall-vs-scipy-tight")
        beyond_precheck = 0
        for _ in range(400):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(-(-(HALL_KAPPA_CAP + 1) // d), 41))
            d_in = sample_coloured_digraph(n, float(rng.choice([0.3, 0.5])), d * n, rng)
            witness = extracted_witness(d_in, d)
            assert witness == scipy_hall_witness(d_in, d)
            beyond_precheck += witness is not None and not precheck_rejects(build_network(d_in, d))
        assert beyond_precheck >= 100


class TestHallWitnessCheck:
    SOURCE = ColouredDigraph(n=3, kappa=4, arcs=((0, 1, 1), (1, 2, 1), (2, 0, 2)))

    def test_accepts_oracle_witness(self):
        holds, witness = check_hall_bruteforce(self.SOURCE, 1)
        assert not holds
        witness.check(self.SOURCE, 1)
        assert extract_rainbow_dout(self.SOURCE, 1) == witness

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
        d_in = ColouredDigraph(n=2, kappa=2, arcs=())
        witness = extract_rainbow_dout(d_in, 1)
        assert isinstance(witness, HallWitness) and witness == scipy_hall_witness(d_in, 1)
        witness.check(d_in, 1)

    def test_invariants_on_feasible_instances(self):
        successes = 0
        for seed in range(300):
            d_in = random_instance(seed, 8, 20, 0.7)
            res = extract_rainbow_dout(d_in, 2)
            if isinstance(res, HallWitness):
                assert res == scipy_hall_witness(d_in, 2)
                res.check(d_in, 2)
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
            if isinstance(res, HallWitness):
                assert res == scipy_hall_witness(d_in, 2)
                res.check(d_in, 2)
                continue
            colours = res.digraph.arcs[:, 2].tolist()
            assert len(set(colours)) == len(colours)


class TestExtractViaPermutation:
    def test_matches_relabel_extract_and_map_back(self):
        # the round trip the head ranking replaces: relabel every head by
        # pi, extract, then map the heads back through pi^-1
        successes = 0
        for seed in range(100):
            d_in = random_instance(seed, 7, 20, 0.8)
            f = random_permutation_family(7, substream(seed, "f"))
            via = extract_via_permutation(d_in, 2, substream(seed, "f"))
            plain = extract_rainbow_dout(apply_permutations(d_in, f), 2)
            assert isinstance(via, HallWitness) == isinstance(plain, HallWitness)
            if isinstance(via, HallWitness):
                assert via == scipy_hall_witness(d_in, 2)
                via.check(d_in, 2)
            else:
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
            plain = extract_rainbow_dout(apply_permutations(d_in, family), d)
            assert isinstance(via, HallWitness) == isinstance(plain, HallWitness)
            if isinstance(via, HallWitness):
                assert via == scipy_hall_witness(d_in, d)
                via.check(d_in, d)
            else:
                assert via.digraph == apply_permutations(plain.digraph, inverse(family))
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
            if isinstance(via, HallWitness):
                assert via == scipy_hall_witness(d_in, 1)
                via.check(d_in, 1)
            else:
                via.check(d_in)

    def test_head_distribution_less_biased_than_tiebreak(self):
        # fixed dense feasible input with few colours, so colour classes at
        # each tail have several heads; plain extraction always picks the
        # smallest head, permuted extraction picks uniformly within a class
        d_in = sample_coloured_digraph(5, 1.0, 5, substream(3))
        assert not isinstance(extract_rainbow_dout(d_in, 1), HallWitness)
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
        # every arc is in the wider source, whose vertices 3 and 4 have none
        wider = ColouredDigraph(n=5, kappa=3, arcs=source.arcs)
        with pytest.raises(AssertionError, match="covers 3 vertices, source has 5"):
            RainbowDOut(source, 1).check(wider)

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
