"""Exact rainbow-subgraph search at desk scale.

Two finders: a complete backtracking search for a spanning rainbow copy
of a fixed target graph (n <= 16), and a rainbow spanning tree decision
by matroid intersection (graphic matroid x one-edge-per-colour partition
matroid), which is exact where greedy colour exchange is not.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import ColouredGraph
from .targets import TargetGraph

EXACT_SEARCH_CAP = 16


@dataclass(frozen=True)
class RainbowEmbedding:
    """An injection of target vertices into host vertices together with the
    host edge (and its colour) carrying each target edge."""

    vertex_map: tuple[int, ...]
    edge_images: tuple[tuple[tuple[int, int], tuple[int, int, int]], ...]


def verify_embedding(
    g: ColouredGraph, h: TargetGraph, emb: RainbowEmbedding
) -> bool:
    """Audit the three embedding invariants: injectivity, edge presence,
    pairwise-distinct colours."""
    if len(emb.vertex_map) != h.n_H or len(set(emb.vertex_map)) != h.n_H:
        return False
    if not all(0 <= v < g.n for v in emb.vertex_map):
        return False
    lookup = {(u, v): c for u, v, c in g.edges.tolist()}
    images = dict(emb.edge_images)
    if set(images) != set(h.edges):
        return False
    colours = []
    for a, b in h.edges:
        u, v = emb.vertex_map[a], emb.vertex_map[b]
        gu, gv, c = images[(a, b)]
        if (gu, gv) != (min(u, v), max(u, v)):
            return False
        if lookup.get((gu, gv)) != c:
            return False
        colours.append(c)
    return len(set(colours)) == len(colours)


def _embedding_from_map(
    g: ColouredGraph, h: TargetGraph, vmap: list[int]
) -> RainbowEmbedding:
    lookup = {(u, v): c for u, v, c in g.edges.tolist()}
    images = []
    for a, b in h.edges:
        u, v = sorted((vmap[a], vmap[b]))
        images.append(((a, b), (u, v, lookup[(u, v)])))
    return RainbowEmbedding(vertex_map=tuple(vmap), edge_images=tuple(images))


def find_rainbow_copy_exact(
    g: ColouredGraph, h: TargetGraph
) -> RainbowEmbedding | None:
    """Complete backtracking search for a spanning rainbow copy of h in g.

    Target vertices are placed in descending-degree order, candidates in
    ascending index, colours tracked in a used-set; the first embedding in
    that order is returned, so output is deterministic.
    """
    if g.n != h.n_H:
        raise ValueError(f"spanning search needs n(G) = n(H), got {g.n} != {h.n_H}")
    if g.n > EXACT_SEARCH_CAP:
        raise ValueError(f"n={g.n} exceeds search cap {EXACT_SEARCH_CAP}")
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
    # neighbours already placed when a vertex comes up in the order
    placed_nbrs = [[b for b in h_adj[a] if pos[b] < pos[a]] for a in order]

    vmap = [-1] * n
    used_hosts = [False] * n
    used_colours: set[int] = set()

    def rec(i: int) -> bool:
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

    if rec(0):
        return _embedding_from_map(g, h, vmap)
    return None


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


def _is_forest_with(n: int, edge_idxs: list[int], edges, extra: int | None) -> bool:
    uf = _UnionFind(n)
    for i in edge_idxs:
        u, v, _ = edges[i]
        if not uf.union(u, v):
            return False
    if extra is not None:
        u, v, _ = edges[extra]
        return uf.union(u, v)
    return True


def max_rainbow_forest(g: ColouredGraph) -> list[int]:
    """Maximum common independent set of the graphic matroid of g and the
    partition matroid of its colour classes, as edge indices.

    Standard matroid-intersection augmentation: repeatedly BFS a shortest
    path in the exchange digraph from the edges addable to the forest to
    the edges addable colour-wise, and flip the path.
    """
    edges = g.edges.tolist()
    m = len(edges)
    in_set = [False] * m

    while True:
        current = [i for i in range(m) if in_set[i]]
        colours_used = {edges[i][2] for i in current}
        colour_of_in = {edges[i][2]: i for i in current}
        sources = [
            i for i in range(m)
            if not in_set[i] and _is_forest_with(g.n, current, edges, i)
        ]
        sinks = {
            i for i in range(m)
            if not in_set[i] and edges[i][2] not in colours_used
        }
        if not sources:
            break
        # BFS over the exchange digraph; shortest augmenting path is valid
        prev: dict[int, int | None] = {i: None for i in sources}
        queue = list(sources)
        found = None
        for i in sources:
            if i in sinks:
                found = i
                break
        while queue and found is None:
            x = queue.pop(0)
            if in_set[x]:
                # y in I -> z not in I with I - y + z a forest
                rest = [i for i in current if i != x]
                for z in range(m):
                    if in_set[z] or z in prev:
                        continue
                    if _is_forest_with(g.n, rest, edges, z):
                        prev[z] = x
                        if z in sinks:
                            found = z
                            break
                        queue.append(z)
            else:
                # z not in I -> y in I with I - y + z colour-independent
                y = colour_of_in.get(edges[x][2])
                if y is not None and y not in prev:
                    prev[y] = x
                    queue.append(y)
        if found is None:
            break
        path = []
        node: int | None = found
        while node is not None:
            path.append(node)
            node = prev[node]
        for i in path:
            in_set[i] = not in_set[i]
    return [i for i in range(m) if in_set[i]]


def find_rainbow_spanning_tree(g: ColouredGraph) -> RainbowEmbedding | None:
    """Exact decision: a spanning tree of g whose n-1 edge colours are all
    distinct, or None when no such tree exists."""
    chosen = max_rainbow_forest(g)
    if len(chosen) != g.n - 1:
        return None
    edges = g.edges.tolist()  # rows have u < v: each edge is its own target pair
    images = [((u, v), (u, v, c)) for u, v, c in (edges[i] for i in sorted(chosen))]
    # the found tree is its own target: identity vertex map
    return RainbowEmbedding(
        vertex_map=tuple(range(g.n)),
        edge_images=tuple(images),
    )


def tree_target_from_embedding(g: ColouredGraph, emb: RainbowEmbedding) -> TargetGraph:
    """The spanning tree found by `find_rainbow_spanning_tree`, as a target
    graph, so the embedding can be audited with `verify_embedding`."""
    return TargetGraph(
        name=f"tree{g.n}",
        n_H=g.n,
        edges=tuple(sorted(e for e, _ in emb.edge_images)),
    )
