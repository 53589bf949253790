import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from rainbowgraphs import graphs, harness
from rainbowgraphs.coupling import truncate, truncation_counts
from rainbowgraphs.flow import RainbowDOut, extract_rainbow_dout, extract_via_permutation
from rainbowgraphs.graphs import (
    ColouredDigraph,
    ColouredGraph,
    PermutationFamily,
    _frozen_rows,
    apply_permutations,
    coalesce_orientation,
    random_permutation_family,
    sample_coloured_digraph,
    sample_coloured_graph,
    sample_d_out,
    split_probability,
)
from rainbowgraphs.rng import substream


def identity_permutation_family(n):
    """The family with every pi_v the identity on [n] \\ {v}."""
    return PermutationFamily(np.tile(np.arange(n), (n, 1)))


def inverse(f):
    """The family of the inverse permutations pi_v^-1."""
    return PermutationFamily(np.argsort(f.perms, axis=1))


def other_vertex_heads(order):
    """Heads of a d-out sample whose row v picks the order[v, j]-th
    smallest vertex other than v, row by row."""
    return [int(i) + (i >= v) for v in range(len(order)) for i in order[v]]


def loop_digraph_rows(n, p1, kappa, rng):
    """The rows of `sample_coloured_digraph`, drawn by the per-row loop
    whose Generator calls define its stream."""
    rows = []
    for t in range(n):
        mask = rng.random(n) < p1
        mask[t] = False
        heads = np.flatnonzero(mask)
        if len(heads):
            colours = rng.integers(1, kappa + 1, size=len(heads))
            rows.extend([t, int(h), int(c)] for h, c in zip(heads, colours))
    return rows


def loop_graph_rows(n, p, kappa, rng):
    """The rows of `sample_coloured_graph`, drawn by its per-row loop."""
    rows = []
    for u in range(n - 1):
        heads = np.flatnonzero(rng.random(n - 1 - u) < p) + u + 1
        if len(heads):
            colours = rng.integers(1, kappa + 1, size=len(heads))
            rows.extend([u, int(v), int(c)] for v, c in zip(heads, colours))
    return rows


def frozen_rows_reference(rows, n, kappa, undirected):
    """`_frozen_rows` written plainly: np.array converts the rows and the
    (u, v) pairs are sorted as Python tuples."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
    u, v = a[:, 0], a[:, 1]
    outside = a.view(np.uint64) >= np.array([n, n, kappa + 1], dtype=np.uint64)
    loops = u >= v if undirected else u == v
    pairs = sorted(zip(u.tolist(), v.tolist()))
    repeats = [pair for pair, after in zip(pairs, pairs[1:]) if pair == after]
    kind = "edge" if undirected else "arc"
    if np.count_nonzero(outside) or np.count_nonzero(loops):
        row = a[np.argmax(outside.any(axis=1) | loops)].tolist()
        raise ValueError(f"bad {kind} {tuple(row)} for n={n}, kappa={kappa}")
    if repeats:
        raise ValueError(f"duplicate {kind} {repeats[0]}")
    a.flags.writeable = False
    return a


# the sampler sweep: kappa at the edges of Lemire's 32-bit path (1 reads
# no words, 2**32 is a plain 32-bit draw, about half of all draws are
# redrawn just above 2**31) and p at both ends
SWEEP_KAPPAS = (1, 2, 3, 7, 80, 3000, 2**31 - 1, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 2, 2**32 - 1, 2**32)
SWEEP_PS = (0.0, 0.05, 0.3, 0.5, 0.9, 1.0)


def sweep_configs(count, seed):
    """(n, p, kappa, halves drawn before the sampler) per config: 1 leaves
    a cached half, 2 a used one, so a third start with a cached half."""
    r = np.random.default_rng(seed)
    for i in range(count):
        n = int(r.integers(1, 40))
        p = SWEEP_PS[i % 7] if i % 7 < 6 else float(r.random())
        kappa = SWEEP_KAPPAS[i % 13] if i % 13 < 12 else int(r.integers(1, 2**32 + 1))
        yield n, p, kappa, i % 3


def assert_built_valid(g):
    """g's rows are what the public constructor makes of a copy of them:
    valid int64 (m, 3) C-contiguous rows, read-only, as is every array in
    their `.base` chain."""
    rows = g.arcs if isinstance(g, ColouredDigraph) else g.edges
    assert type(g)(g.n, g.kappa, rows.copy()) == g
    assert rows.dtype == np.int64 and rows.shape == (len(rows), 3) and rows.flags.c_contiguous
    a = rows
    while a is not None:
        assert not a.flags.writeable
        a = a.base


def assert_draw_for_draw(sampler, loop, n, p, kappa, warm, *keys):
    """The sampler's rows, the generator state it leaves and the next draws
    of the reused generator are the loop's."""
    rng, twin = substream(*keys), substream(*keys)
    rng.integers(1, 1000, warm), twin.integers(1, 1000, warm)
    g = sampler(n, p, kappa, rng)
    rows = g.arcs if isinstance(g, ColouredDigraph) else g.edges
    assert rows.tolist() == loop(n, p, kappa, twin), (n, p, kappa, warm)
    assert rng.bit_generator.state == twin.bit_generator.state, (n, p, kappa, warm)
    assert rng.integers(1, 7, 5).tolist() == twin.integers(1, 7, 5).tolist()
    assert rng.random(3).tolist() == twin.random(3).tolist()


class StubGenerator:
    """Stands in for a Generator whose next `random` draw is `keys`."""

    def __init__(self, keys):
        self.keys = keys

    def random(self, shape):
        assert shape == self.keys.shape
        return self.keys.copy()


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

    def test_pairs_past_int64_keys_are_distinct(self):
        # u * n + v wraps in int64 here, and (2**31, 2**31 + 5) keyed as
        # (0, 2**31 + 5): two edges, and no uniform drawn for a pair
        d = ColouredDigraph(n=2**33, kappa=2, arcs=[(0, 2**31 + 5, 1), (2**31, 2**31 + 5, 2)])
        rng = substream(0)
        state = rng.bit_generator.state
        g = coalesce_orientation(d, rng)
        assert g.edges.tolist() == [[0, 2**31 + 5, 1], [2**31, 2**31 + 5, 2]]
        assert rng.bit_generator.state == state

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
        assert apply_permutations(apply_permutations(d, f), inverse(f)) == d

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

    def test_pairs_past_int64_keys_are_distinct(self):
        # u * n + v wraps in int64 here, and (2**31, 1) keyed as (0, 1)
        g = ColouredDigraph(n=2**33, kappa=1, arcs=[(0, 1, 1), (2**31, 1, 1)])
        assert g.arcs.tolist() == [[0, 1, 1], [2**31, 1, 1]]
        with pytest.raises(ValueError, match=r"duplicate edge \(2147483648, 4294967296\)"):
            ColouredGraph(n=2**33, kappa=1, edges=[(2**31, 2**32, 1), (0, 1, 1), (2**31, 2**32, 1)])

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

    @pytest.mark.parametrize("n, kappa", [(3, -1), (3, -2), (2**63, 2), (3, 2**63)])
    def test_rejects_headers_no_graph_can_hold(self, n, kappa):
        # kappa = -1 with no rows was accepted; the others overflowed the
        # uint64 bounds with an OverflowError
        for cls, field in [(ColouredDigraph, "arcs"), (ColouredGraph, "edges")]:
            with pytest.raises(ValueError, match="need n"):
                cls(n=n, kappa=kappa, **{field: ()})
        # kappa = 0 holds the uncoloured rows of a d-out sample
        assert ColouredDigraph(n=3, kappa=0, arcs=((0, 1, 0),)).arcs.tolist() == [[0, 1, 0]]
        assert ColouredDigraph(n=2**63 - 1, kappa=2**63 - 1, arcs=()).n == 2**63 - 1

    @pytest.mark.parametrize(
        "rows, entry",
        [
            ([(0, 1.9, 1), (2, 0, 2.99)], "1.9"),  # not truncated to (0, 1, 1), (2, 0, 2)
            ([("0", "1", "1")], "<U1"),  # strings are not parsed
            (np.array([[0, 1, 1e19]]), "1e+19"),  # beyond int64, not wrapped to -2**63
            ([(0, 1, float("nan"))], "nan"),
            (np.array([[0, 1, 2**63]], dtype=np.uint64), "9223372036854775808"),
            ([(0, 1, 2**70)], "object"),
        ],
    )
    def test_rejects_entries_that_are_not_int64_integers(self, rows, entry):
        for graph in (ColouredDigraph, ColouredGraph):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # and no cast warning
                with pytest.raises(ValueError, match="rows must hold") as info:
                    graph(3, 2, rows)
            assert entry in str(info.value)

    @pytest.mark.parametrize(
        "rows",
        [[(0, 1.0, 1), (2, 0, 2.0)], np.array([[0, 1, 1], [2, 0, 2]], dtype=np.uint8),
         np.array([[0, 1, 1], [2, 0, 2]], dtype=">i8"), [(0, True, True), (2, False, 2)]],
    )
    def test_accepts_integral_entries_of_any_numeric_type(self, rows):
        d = ColouredDigraph(n=3, kappa=2, arcs=rows)
        assert d.arcs.dtype == np.int64 and d.arcs.tolist() == [[0, 1, 1], [2, 0, 2]]

    @settings(max_examples=400, deadline=None)
    @given(n=st.integers(0, 5), kappa=st.integers(1, 3), undirected=st.booleans(), data=st.data())
    def test_accepts_and_rejects_as_the_sorting_reference(self, n, kappa, undirected, data):
        # entries one past each end: negative endpoints and colours, v = n
        # and colour kappa + 1; small ranges make repeats and loops common
        triple = st.tuples(st.integers(-1, n), st.integers(-1, n), st.integers(-1, kappa + 1))
        rows = data.draw(st.lists(triple, max_size=10))
        if data.draw(st.booleans()):
            rows = sorted(rows)  # increasing pairs, the samplers' order, when valid

        def outcome(validate, rows):
            try:
                a = validate(rows, n, kappa, undirected)
            except ValueError as exc:
                return str(exc)
            assert not a.flags.writeable and a.dtype == np.int64
            return a.tolist()

        want = outcome(frozen_rows_reference, rows)
        assert outcome(_frozen_rows, rows) == want
        # the same rows as a read-only array, which the graph copies too
        frozen = np.array(rows, dtype=np.int64).reshape(-1, 3).copy()
        frozen.flags.writeable = False
        assert outcome(_frozen_rows, frozen) == want
        if not isinstance(want, str):
            assert not np.shares_memory(_frozen_rows(frozen, n, kappa, undirected), frozen)

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
        assert d.arcs.base is None  # so nothing can write to the graph's rows

    def test_read_only_view_of_writable_rows_is_copied(self):
        base = np.array([[0, 1, 1], [1, 2, 2]])
        view = base[:]
        view.flags.writeable = False
        for g in (ColouredDigraph(n=3, kappa=2, arcs=view), ColouredGraph(n=3, kappa=2, edges=view)):
            rows = g.arcs if isinstance(g, ColouredDigraph) else g.edges
            assert not np.shares_memory(rows, base)
        base[0, 2] = 2
        assert rows.tolist() == [[0, 1, 1], [1, 2, 2]]

    def test_read_only_rows_are_copied(self):
        # a caller's rows are copied even when nothing can write to them:
        # an owned read-only array, a read-only slice, an ndarray subclass
        rows = np.array([[0, 1, 1], [1, 2, 2]])
        rows.flags.writeable = False
        for given in (rows, rows[1:], rows.view(type("Rows", (np.ndarray,), {}))):
            for g in (ColouredDigraph(n=3, kappa=2, arcs=given), ColouredGraph(n=3, kappa=2, edges=given)):
                kept = g.arcs if isinstance(g, ColouredDigraph) else g.edges
                assert type(kept) is np.ndarray and not np.shares_memory(kept, rows)
                assert kept.tolist() == given.tolist()

    def test_rows_are_int64_with_three_columns(self):
        for g in (
            ColouredGraph(n=3, kappa=2, edges=()),
            ColouredGraph(n=3, kappa=2, edges=[(0, 2, 1)]),
            sample_coloured_digraph(5, 0.5, 3, substream(43)),
        ):
            rows = g.edges if isinstance(g, ColouredGraph) else g.arcs
            assert rows.dtype == np.int64 and rows.ndim == 2 and rows.shape[1] == 3

    def test_producers_build_valid_read_only_rows(self, monkeypatch):
        # every graph the package builds through `_trusted` has rows the
        # public constructor accepts as they are
        for n, p, kappa, _ in [*sweep_configs(200, 66), (1, 0.0, 1, 0), (1, 1.0, 2**32, 0), (2, 1.0, 1, 0)]:
            for sampler in (sample_coloured_digraph, sample_coloured_graph):
                assert_built_valid(sampler(n, p, kappa, substream(67, n, p, kappa)))
        feasible = 0
        for t in range(20):
            digraph = sample_coloured_digraph(12, split_probability(0.9).p1, 80, substream(68, t))
            assert_built_valid(coalesce_orientation(digraph, substream(69, t)))
            assert_built_valid(apply_permutations(digraph, random_permutation_family(12, substream(70, t))))
            for rainbow in (extract_rainbow_dout(digraph, 3), extract_via_permutation(digraph, 3, substream(71, t))):
                if isinstance(rainbow, RainbowDOut):
                    feasible += 1
                    assert_built_valid(rainbow.digraph)
        assert feasible
        for n, d in [(2, 1), (6, 2), (9, 8), (50, 7)]:
            d_out = sample_d_out(n, d, substream(72, n))
            assert_built_valid(d_out)
            assert_built_valid(apply_permutations(d_out, random_permutation_family(n, substream(73, n))))
            for counts in (np.zeros(n, np.int64), np.full(n, d), np.minimum(truncation_counts(n, 0.5, substream(74, n)), d)):
                assert_built_valid(truncate(d_out, d, counts))
        # the pipeline's shuffled copy of the extraction, and its truncation
        built = []
        monkeypatch.setattr(harness, "truncate", lambda dgr, d, counts: built.append(dgr) or truncate(dgr, d, counts))
        config = harness.ExperimentConfig(
            n=12, p=0.9, kappa=80, eps=1.0, d=3, trials=20, seed=0, mode="pipeline",
            target_family="cycle", target_size=12,
        )
        records = harness.run_trials(config)
        assert len(built) == sum(r.inner_arc_count is not None for r in records) > 0
        for g in built:
            assert_built_valid(g)
            assert_built_valid(truncate(g, 3, np.ones(12, np.int64)))

    def test_equality_is_value_equality(self):
        a = ColouredDigraph(n=3, kappa=2, arcs=((0, 1, 1), (1, 2, 2)))
        b = ColouredDigraph(n=3, kappa=2, arcs=np.array([[0, 1, 1], [1, 2, 2]]))
        assert a == b and hash(a) == hash(b)
        assert a != ColouredDigraph(n=3, kappa=3, arcs=a.arcs)
        assert a != ColouredDigraph(n=4, kappa=2, arcs=a.arcs)
        assert a != ColouredDigraph(n=3, kappa=2, arcs=a.arcs[::-1])  # row order counts
        assert a != ColouredGraph(n=3, kappa=2, edges=a.arcs)
        f = random_permutation_family(5, substream(44))
        assert f == PermutationFamily(f.perms.tolist()) and f != inverse(f)
        assert inverse(inverse(f)) == f


class TestLoopReferences:
    """The vectorised samplers and transforms against the per-row loops
    they replaced: same draws, same rows, same order."""

    def test_sample_coloured_graph_matches_loop(self):
        n, p, kappa = 9, 0.4, 5
        want = loop_graph_rows(n, p, kappa, substream(54))
        assert sample_coloured_graph(n, p, kappa, substream(54)).edges.tolist() == want

    @pytest.mark.parametrize("n, d", [(2, 1), (6, 2), (9, 8)])
    def test_sample_d_out_matches_loop(self, n, d):
        order = np.argsort(substream(53, n).random((n, n - 1)), axis=1)[:, :d]
        want = [[v, int(i) if i < v else int(i) + 1, 0] for v in range(n) for i in order[v]]
        assert sample_d_out(n, d, substream(53, n)).arcs.tolist() == want

    def test_sample_d_out_matches_full_argsort(self):
        # the heads are the first d of argsorting every row of the keys
        for n in range(2, 61):
            for d in sorted({1, 2, n // 2, n - 2, n - 1} & set(range(1, n))):
                for seed in range(3):
                    keys = substream(55, n, d, seed).random((n, n - 1))
                    want = other_vertex_heads(np.argsort(keys, axis=1)[:, :d])
                    got = sample_d_out(n, d, substream(55, n, d, seed)).arcs[:, 1]
                    assert got.tolist() == want, (n, d, seed)

    @pytest.mark.parametrize("levels", [2, 3, 8])
    def test_sample_d_out_matches_full_argsort_with_tied_keys(self, levels):
        # keys from a few levels tie within most rows, inside and outside
        # the d+1 smallest; the heads are still the full argsort's.  At
        # n=300 sorting only the d+1 smallest would order the ties otherwise.
        for n, d in [(2, 1), (6, 2), (9, 3), (9, 8), (20, 1), (30, 5), (40, 20),
                     (300, 150), (300, 298), (300, 299)]:
            keys = substream(56, n, levels).integers(0, levels, (n, n - 1)) / levels
            want = other_vertex_heads(np.argsort(keys, axis=1)[:, :d])
            assert sample_d_out(n, d, StubGenerator(keys)).arcs[:, 1].tolist() == want

    @pytest.mark.parametrize("n, d", [(6, 2), (50, 7), (300, 55), (9, 8)])
    def test_sample_d_out_is_the_start_of_the_permutation_family(self, n, d):
        # one ordering of the other vertices per vertex: a d-out sample's
        # heads are the first d off-diagonal entries of each row of the
        # permutation family drawn from the same substream
        heads = sample_d_out(n, d, substream(58, n)).arcs[:, 1].reshape(n, d)
        perms = random_permutation_family(n, substream(58, n)).perms
        off_diagonal = perms[~np.eye(n, dtype=bool)].reshape(n, n - 1)
        assert heads.tolist() == off_diagonal[:, :d].tolist()

    @pytest.mark.parametrize("n, d", [(2, 1), (6, 2), (50, 7), (50, 49)])
    def test_sample_d_out_draws_only_the_key_matrix(self, n, d):
        rng, twin = substream(57, n), substream(57, n)
        sample_d_out(n, d, rng)
        twin.random((n, n - 1))
        assert rng.bit_generator.state == twin.bit_generator.state

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

    @pytest.mark.parametrize(
        "sampler, loop", [(sample_coloured_digraph, loop_digraph_rows), (sample_coloured_graph, loop_graph_rows)]
    )
    def test_samplers_match_loop_on_config_sweep(self, sampler, loop):
        for i, (n, p, kappa, warm) in enumerate(sweep_configs(1500, 60)):
            assert_draw_for_draw(sampler, loop, n, p, kappa, warm, 61, i)

    @pytest.mark.parametrize(
        "sampler, loop, n, p, kappa, seed, redraws",
        [
            # substream(62, 0)'s sample redraws one colour, in a word-by-word row
            (sample_coloured_digraph, loop_digraph_rows, 1000, split_probability(0.3).p1, 3000, 0, True),
            (sample_coloured_digraph, loop_digraph_rows, 12, split_probability(0.9).p1, 80, 4, False),
            # about half of all draws redrawn; a numpy kappa, whose products need 64 bits
            (sample_coloured_digraph, loop_digraph_rows, 400, 0.3, np.int64(2**31 + 1), 5, True),
            (sample_coloured_graph, loop_graph_rows, 400, 0.3, 2**31 + 1, 6, True),
            # rows of every width, across several blocks
            (sample_coloured_graph, loop_graph_rows, 700, 0.5, 3, 7, False),
        ],
    )
    def test_samplers_match_loop_on_large_instances(self, sampler, loop, n, p, kappa, seed, redraws, monkeypatch):
        redrawn, draw = [], graphs._lemire_draws
        monkeypatch.setattr(graphs, "_lemire_draws", lambda *a: redrawn.append(a) or draw(*a))
        for warm in (0, 1):
            assert_draw_for_draw(sampler, loop, n, p, kappa, warm, 62, seed)
        assert bool(redrawn) == redraws

    @pytest.mark.parametrize("capacity", [0, 1])
    @pytest.mark.parametrize(
        "sampler, loop", [(sample_coloured_digraph, loop_digraph_rows), (sample_coloured_graph, loop_graph_rows)]
    )
    def test_samplers_match_loop_when_the_output_grows(self, sampler, loop, capacity, monkeypatch):
        monkeypatch.setattr(graphs, "_row_capacity", lambda pairs, p: min(pairs, capacity))
        for i, (n, p, kappa, warm) in enumerate(sweep_configs(100, 64)):
            assert_draw_for_draw(sampler, loop, n, p, kappa, warm, 65, i)
        # several blocks, with a redrawn colour
        assert_draw_for_draw(sampler, loop, 400, 0.3, 2**31 + 1, 0, 62, 5)

    @pytest.mark.parametrize("sampler", [sample_coloured_digraph, sample_coloured_graph])
    def test_samplers_reject_other_generators_and_wide_kappa_before_drawing(self, sampler):
        for make, n, kappa, message in [
            (lambda: np.random.Generator(np.random.MT19937(63)), 6, 5, "PCG64"),
            (lambda: substream(63), 6, 2**32 + 1, "kappa <= 2"),
            (lambda: substream(63), 0, 5, "need n >= 1, got 0"),
        ]:
            rng, twin = make(), make()
            rng.integers(1, 1000, 1), twin.integers(1, 1000, 1)  # with a cached half
            with pytest.raises(ValueError, match=message):
                sampler(n, 0.5, kappa, rng)
            assert rng.integers(1, 1000, 3).tolist() == twin.integers(1, 1000, 3).tolist()
            assert rng.random(3).tolist() == twin.random(3).tolist()

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
