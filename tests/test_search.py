from itertools import combinations, permutations

import pytest

from rainbowgraphs.graphs import ColouredGraph, sample_coloured_graph
from rainbowgraphs.rng import substream
from rainbowgraphs.search import (
    RainbowEmbedding,
    find_rainbow_copy_exact,
    find_rainbow_spanning_tree,
    max_rainbow_forest,
)
from rainbowgraphs.targets import (
    TargetGraph,
    make_cycle,
    make_grid,
    make_matching,
    make_path,
    pad_target,
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


def unpruned_rainbow_copy(g, h):
    """The backtracking search without prefilters or the degree filter:
    target vertices in descending-degree order, every host vertex tried in
    ascending index.  Its first embedding is the one the pruned search must
    return."""
    n = g.n
    colour_of = {}
    for u, v, c in g.edges.tolist():
        colour_of[(u, v)] = c
        colour_of[(v, u)] = c
    h_adj = [[] for _ in range(n)]
    for a, b in h.edges:
        h_adj[a].append(b)
        h_adj[b].append(a)
    order = sorted(range(n), key=lambda v: -len(h_adj[v]))
    pos = {v: i for i, v in enumerate(order)}
    placed_nbrs = [[b for b in h_adj[a] if pos[b] < pos[a]] for a in order]
    vmap = [-1] * n
    used_hosts = [False] * n
    used_colours = set()

    def rec(i):
        if i == n:
            return True
        a = order[i]
        for cand in range(n):
            if used_hosts[cand]:
                continue
            new_colours = []
            ok = True
            for b in placed_nbrs[i]:
                c = colour_of.get((cand, vmap[b]))
                if c is None or c in used_colours or c in new_colours:
                    ok = False
                    break
                new_colours.append(c)
            if not ok:
                continue
            vmap[a] = cand
            used_hosts[cand] = True
            used_colours.update(new_colours)
            if rec(i + 1):
                return True
            vmap[a] = -1
            used_hosts[cand] = False
            used_colours.difference_update(new_colours)
        return False

    if not rec(0):
        return None
    images = []
    for a, b in h.edges:
        u, v = sorted((vmap[a], vmap[b]))
        images.append(((a, b), (u, v, colour_of[(u, v)])))
    return RainbowEmbedding(vertex_map=tuple(vmap), edge_images=tuple(images))


def with_low_degree_vertex(g, v, keep):
    """g with all but the first `keep` edges at v removed: v becomes
    isolated (keep=0) or pendant (keep=1)."""
    at_v = [row for row in g.edges.tolist() if v in row[:2]][:keep]
    rest = [row for row in g.edges.tolist() if v not in row[:2]]
    return ColouredGraph(n=g.n, kappa=g.kappa, edges=sorted(rest + at_v))


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


def tree_target_from_embedding(g, emb):
    """The spanning tree found by `find_rainbow_spanning_tree`, as a target
    graph, so the embedding can be audited with `RainbowEmbedding.check`."""
    return TargetGraph(
        name=f"tree{g.n}",
        n_H=g.n,
        edges=tuple(sorted(e for e, _ in emb.edge_images)),
    )


def union_find_rainbow_forest(g):
    """The matroid-intersection search with a fresh union-find for every
    candidate exchange: the BFS visits sources, then forest arcs y -> z and
    colour arcs in the same order as `max_rainbow_forest`, so its index
    list is the one the tree-path exchange graph must give."""
    edges = g.edges.tolist()
    m = len(edges)
    in_set = [False] * m

    def is_forest_with(edge_idxs, extra):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in [*edge_idxs, extra]:
            ru, rv = find(edges[i][0]), find(edges[i][1])
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    while True:
        current = [i for i in range(m) if in_set[i]]
        colours_used = {edges[i][2] for i in current}
        colour_of_in = {edges[i][2]: i for i in current}
        sources = [i for i in range(m) if not in_set[i] and is_forest_with(current, i)]
        sinks = {i for i in range(m) if not in_set[i] and edges[i][2] not in colours_used}
        if not sources:
            break
        prev = {i: None for i in sources}
        queue = list(sources)
        found = next((i for i in sources if i in sinks), None)
        while queue and found is None:
            x = queue.pop(0)
            if in_set[x]:
                rest = [i for i in current if i != x]
                for z in range(m):
                    if in_set[z] or z in prev:
                        continue
                    if is_forest_with(rest, z):
                        prev[z] = x
                        if z in sinks:
                            found = z
                            break
                        queue.append(z)
            else:
                y = colour_of_in.get(edges[x][2])
                if y is not None and y not in prev:
                    prev[y] = x
                    queue.append(y)
        if found is None:
            break
        node = found
        while node is not None:
            in_set[node] = not in_set[node]
            node = prev[node]
    return [i for i in range(m) if in_set[i]]


def two_component_host(n, kappa, rng):
    """A random host whose vertices [0, n//2) and [n//2, n) share no edge."""
    g = sample_coloured_graph(n, 0.7, kappa, rng)
    half = n // 2
    keep = [row for row in g.edges.tolist() if (row[0] < half) == (row[1] < half)]
    return ColouredGraph(n=n, kappa=kappa, edges=keep)


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
        emb.check(g, h)

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
                emb.check(g, h)
            checked += 1
        assert checked == 300

    def test_first_embedding_matches_unpruned_search(self):
        rng = substream(36)
        found = {True: 0, False: 0}
        for trial in range(400):
            n = int(rng.integers(4, 11))
            kappa = int(rng.integers(n - 1, 3 * n))
            p = float(rng.choice([0.4, 0.6, 0.8]))
            g = sample_coloured_graph(n, p, kappa, rng)
            if trial % 4 == 1:
                g = with_low_degree_vertex(g, int(rng.integers(n)), keep=0)
            elif trial % 4 == 2:
                g = with_low_degree_vertex(g, int(rng.integers(n)), keep=1)
            pick = trial % 7
            if pick == 0:
                h = make_cycle(n)
            elif pick == 1:
                h = make_path(n)
            elif pick == 2:
                h = random_tree(n, rng)
            elif pick == 3:
                h = make_matching(n - n % 2)
            elif pick == 4:
                h = make_grid(3) if n >= 9 else make_cycle(n - 1)
            elif pick == 5:
                h = make_path(int(rng.integers(2, n)))
            else:
                h = random_tree(int(rng.integers(2, n)), rng)
            h = pad_target(h, n)
            emb = find_rainbow_copy_exact(g, h)
            assert emb == unpruned_rainbow_copy(g, h)
            if emb is not None:
                emb.check(g, h)
            found[emb is not None] += 1
        assert found[True] > 80 and found[False] > 80

    def test_degree_prefilter_rejects_isolated_vertex(self):
        # rainbow K15 plus an isolated vertex: no Hamilton cycle, and the
        # unpruned search would try every rainbow path on 15 vertices
        edges = [(u, v, 1 + i) for i, (u, v) in enumerate(combinations(range(15), 2))]
        g = ColouredGraph(n=16, kappa=len(edges), edges=edges)
        assert find_rainbow_copy_exact(g, make_cycle(16)) is None

    def test_colour_prefilter_rejects_too_few_colours(self):
        # K16 with 15 colours cannot carry 16 distinct edge colours
        edges = [
            (u, v, 1 + i % 15) for i, (u, v) in enumerate(combinations(range(16), 2))
        ]
        g = ColouredGraph(n=16, kappa=15, edges=edges)
        assert find_rainbow_copy_exact(g, make_cycle(16)) is None
        assert find_rainbow_copy_exact(g, make_path(16)) is not None

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
        emb.check(g, tree_target_from_embedding(g, emb))

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
        emb.check(g, tree_target_from_embedding(g, emb))

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
                emb.check(g, tree_target_from_embedding(g, emb))
            verdicts[want] += 1
        assert verdicts[True] > 20 and verdicts[False] > 20

    def test_max_forest_matches_union_find_reference(self):
        rng = substream(37)
        kinds = {"empty": 0, "one colour": 0, "two components": 0, "random": 0}
        hosts = []
        for trial in range(400):
            n = int(rng.integers(1, 17))
            kind = trial % 8
            if kind == 0:
                hosts.append(("empty", ColouredGraph(n=n, kappa=3, edges=[])))
            elif kind == 1:
                hosts.append(("one colour", sample_coloured_graph(n, 0.6, 1, rng)))
            elif kind == 2:
                hosts.append(("two components", two_component_host(n, int(rng.integers(1, 2 * n + 1)), rng)))
            else:
                p = float(rng.choice([0.1, 0.3, 0.5, 0.8]))
                kappa = int(rng.integers(max(1, n - 3), n + 4))
                hosts.append(("random", sample_coloured_graph(n, p, kappa, rng)))
        for n in (30, 35, 40):
            hosts.append(("random", sample_coloured_graph(n, 0.5, n - 1, rng)))
            hosts.append(("two components", two_component_host(n, n - 1, rng)))
        sizes = set()
        for kind, g in hosts:
            chosen = max_rainbow_forest(g)
            assert chosen == union_find_rainbow_forest(g)
            kinds[kind] += 1
            sizes.add(len(chosen))
        assert min(kinds.values()) >= 50 and len(sizes) > 15

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
        with pytest.raises(AssertionError):
            forged.check(g, h)

    def test_detects_each_broken_field(self):
        g = rainbow_k4()
        h = make_matching(4)
        emb = find_rainbow_copy_exact(g, h)
        emb.check(g, h)
        vm, images = emb.vertex_map, emb.edge_images
        (e0, img0), (e1, img1) = images
        broken = {
            "no injection": [
                RainbowEmbedding((vm[0], vm[0], *vm[2:]), images),
                RainbowEmbedding((*vm[:3], 4), images),
                RainbowEmbedding(vm[:3], images),
            ],
            "not keyed by the target's edges": [
                RainbowEmbedding(vm, images[:1]),
                RainbowEmbedding(vm, ((e0, img0), ((1, 0), img1))),
            ],
            "is not host edge": [
                RainbowEmbedding(vm, ((e0, img0), (e1, (*img1[:2], img1[2] % 6 + 1)))),
                RainbowEmbedding(vm, ((e0, img0), (e1, img0))),
            ],
        }
        for message, embeddings in broken.items():
            for bad in embeddings:
                with pytest.raises(AssertionError, match=message):
                    bad.check(g, h)
        # a host with both matching edges in colour 1
        mono = ColouredGraph(n=4, kappa=6, edges=((0, 1, 1), (2, 3, 1)))
        copy = RainbowEmbedding((0, 1, 2, 3), (((0, 1), (0, 1, 1)), ((2, 3), (2, 3, 1))))
        with pytest.raises(AssertionError, match="^repeated edge colour$"):
            copy.check(mono, h)

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
            if ok:
                mutated.check(g, h)
            else:
                with pytest.raises(AssertionError):
                    mutated.check(g, h)
            flips += ok != (emb is not None)
        assert flips > 0  # the swap usually breaks the embedding
