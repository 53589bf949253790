from itertools import combinations, permutations

import pytest

from rainbowgraphs.graphs import ColouredGraph, sample_coloured_graph
from rainbowgraphs.rng import substream
from rainbowgraphs.search import (
    RainbowEmbedding,
    find_rainbow_copy_exact,
    find_rainbow_spanning_tree,
    max_rainbow_forest,
    tree_target_from_embedding,
    verify_embedding,
)
from rainbowgraphs.targets import (
    TargetGraph,
    make_cycle,
    make_matching,
    make_path,
    random_tree,
)


def rainbow_copy_oracle(g, h):
    """Try every vertex bijection; a copy exists iff some bijection maps all
    target edges onto host edges with pairwise-distinct colours."""
    lookup = {(u, v): c for u, v, c in g.edges}
    for perm in permutations(range(g.n)):
        used = set()
        for a, b in h.edges:
            u, v = sorted((perm[a], perm[b]))
            c = lookup.get((u, v))
            if c is None or c in used:
                break
            used.add(c)
        else:
            return True
    return False


def rainbow_tree_oracle(g):
    """Enumerate all (n-1)-edge subsets; accept any spanning tree with
    pairwise-distinct colours."""
    n = g.n
    if n == 1:
        return True
    for subset in combinations(range(len(g.edges)), n - 1):
        colours = {g.edges[i][2] for i in subset}
        if len(colours) < n - 1:
            continue
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i in subset:
            u, v, _ = g.edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            return True
    return False


def rainbow_k4(kappa=6):
    edges = tuple(
        (u, v, i + 1) for i, (u, v) in enumerate(combinations(range(4), 2))
    )
    return ColouredGraph(n=4, kappa=kappa, edges=edges)


class TestFindRainbowCopyExact:
    def test_matching_in_rainbow_k4(self):
        g = rainbow_k4()
        h = make_matching(4)
        emb = find_rainbow_copy_exact(g, h)
        assert emb is not None
        assert verify_embedding(g, h, emb)

    def test_monochromatic_host_fails(self):
        g = ColouredGraph(
            n=4,
            kappa=1,
            edges=tuple((u, v, 1) for u, v in combinations(range(4), 2)),
        )
        assert find_rainbow_copy_exact(g, make_matching(4)) is None

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            find_rainbow_copy_exact(rainbow_k4(), make_cycle(3))

    def test_matches_factorial_oracle(self):
        rng = substream(31)
        checked = 0
        for trial in range(300):
            n = int(rng.integers(4, 9))
            kappa = int(rng.integers(2, 2 * n))
            p = float(rng.choice([0.3, 0.5, 0.8]))
            g = sample_coloured_graph(n, p, kappa, rng)
            pick = trial % 3
            if pick == 0:
                h = make_cycle(n)
            elif pick == 1:
                h = make_path(n)
            else:
                h = random_tree(n, rng)
            emb = find_rainbow_copy_exact(g, h)
            assert (emb is not None) == rainbow_copy_oracle(g, h)
            if emb is not None:
                assert verify_embedding(g, h, emb)
            checked += 1
        assert checked == 300

    def test_deterministic_output(self):
        g = sample_coloured_graph(7, 0.7, 12, substream(32))
        h = make_cycle(7)
        assert find_rainbow_copy_exact(g, h) == find_rainbow_copy_exact(g, h)

    def test_monotone_under_fresh_colour_addition(self):
        rng = substream(33)
        for trial in range(40):
            g = sample_coloured_graph(6, 0.5, 8, rng)
            h = make_path(6)
            before = find_rainbow_copy_exact(g, h) is not None
            missing = [
                (u, v)
                for u, v in combinations(range(6), 2)
                if (u, v) not in {(a, b) for a, b, _ in g.edges.tolist()}
            ]
            if not missing:
                continue
            u, v = missing[int(rng.integers(len(missing)))]
            g2 = ColouredGraph(
                n=6, kappa=g.kappa + 1, edges=[*g.edges.tolist(), (u, v, g.kappa + 1)]
            )
            after = find_rainbow_copy_exact(g2, h) is not None
            assert after >= before


class TestFindRainbowSpanningTree:
    def test_rainbow_triangle(self):
        g = ColouredGraph(
            n=3, kappa=3, edges=((0, 1, 1), (0, 2, 2), (1, 2, 3))
        )
        emb = find_rainbow_spanning_tree(g)
        assert emb is not None
        assert verify_embedding(g, tree_target_from_embedding(g, emb), emb)

    def test_monochromatic_triangle_fails(self):
        g = ColouredGraph(
            n=3, kappa=1, edges=((0, 1, 1), (0, 2, 1), (1, 2, 1))
        )
        assert find_rainbow_spanning_tree(g) is None

    def test_needs_greedy_exchange(self):
        # a case where the colour-greedy choice must be revised: colours
        # force one specific tree
        g = ColouredGraph(
            n=4,
            kappa=3,
            edges=((0, 1, 1), (1, 2, 1), (2, 3, 2), (0, 2, 3), (1, 3, 3)),
        )
        emb = find_rainbow_spanning_tree(g)
        assert emb is not None
        assert verify_embedding(g, tree_target_from_embedding(g, emb), emb)

    def test_matches_enumeration_oracle(self):
        rng = substream(34)
        verdicts = {True: 0, False: 0}
        for _ in range(200):
            n = int(rng.integers(3, 8))
            kappa = int(rng.integers(2, n + 2))
            p = float(rng.choice([0.4, 0.6, 0.9]))
            g = sample_coloured_graph(n, p, kappa, rng)
            emb = find_rainbow_spanning_tree(g)
            want = rainbow_tree_oracle(g)
            assert (emb is not None) == want
            if emb is not None:
                assert verify_embedding(g, tree_target_from_embedding(g, emb), emb)
            verdicts[want] += 1
        assert verdicts[True] > 20 and verdicts[False] > 20

    def test_max_forest_partial(self):
        # disconnected host: the best common independent set is smaller
        # than n-1
        g = ColouredGraph(
            n=4, kappa=2, edges=((0, 1, 1), (2, 3, 1))
        )
        assert len(max_rainbow_forest(g)) == 1
        assert find_rainbow_spanning_tree(g) is None


class TestVerifyEmbedding:
    def test_detects_duplicated_colour(self):
        g = rainbow_k4()
        h = make_matching(4)
        emb = find_rainbow_copy_exact(g, h)
        lookup = dict(emb.edge_images)
        (e0, img0), (e1, img1) = emb.edge_images
        forged = RainbowEmbedding(
            vertex_map=emb.vertex_map,
            edge_images=((e0, img0), (e1, (img1[0], img1[1], img0[2]))),
        )
        assert not verify_embedding(g, h, forged)

    def test_detects_vertex_swap(self):
        rng = substream(35)
        flips = 0
        for trial in range(100):
            g = sample_coloured_graph(6, 0.7, 10, rng)
            h = make_path(6)
            emb = find_rainbow_copy_exact(g, h)
            if emb is None:
                continue
            vm = list(emb.vertex_map)
            i, j = 0, 3
            vm[i], vm[j] = vm[j], vm[i]
            mutated = RainbowEmbedding(
                vertex_map=tuple(vm), edge_images=emb.edge_images
            )
            # recheck-from-scratch oracle: rebuild the verdict directly
            lookup = {(u, v): c for u, v, c in g.edges}
            ok = True
            used = set()
            for a, b in h.edges:
                u, v = sorted((vm[a], vm[b]))
                img = dict(mutated.edge_images)[(a, b)]
                if img[:2] != (u, v) or lookup.get((u, v)) != img[2] or img[2] in used:
                    ok = False
                    break
                used.add(img[2])
            assert verify_embedding(g, h, mutated) == ok
            flips += ok != (emb is not None)
        assert flips > 0  # the swap usually breaks the embedding
