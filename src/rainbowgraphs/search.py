"""Exact rainbow-subgraph search at desk scale.

Two finders: a complete backtracking search for a spanning rainbow copy
of a fixed target graph (n <= 16), and a rainbow spanning tree decision
by matroid intersection (graphic matroid x one-edge-per-colour partition
matroid), which is exact where greedy colour exchange is not.  Each
augmentation roots the current forest once; an edge outside it may then
replace a forest edge exactly when that forest edge lies on the tree path
between the edge's endpoints.

The copy search rejects a host without searching it when its sorted
degree sequence does not dominate the target's, or when it has fewer
distinct colours than the target has edges.  While it searches, it
tries for each target vertex only host vertices of at least that
vertex's degree.  Every host and branch so skipped holds no copy, so
the search returns the same first embedding as one without them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graphs import ColouredGraph
from .targets import TargetGraph

EXACT_SEARCH_CAP = 16


@dataclass(frozen=True)
class RainbowEmbedding:
    """An injection of target vertices into host vertices together with the
    host edge (and its colour) carrying each target edge."""

    vertex_map: tuple[int, ...]
    edge_images: tuple[tuple[tuple[int, int], tuple[int, int, int]], ...]

    def check(self, g: ColouredGraph, h: TargetGraph) -> None:
        """Assert the three embedding invariants against the host g:
        injectivity, edge presence, pairwise-distinct colours."""
        vmap, images = self.vertex_map, dict(self.edge_images)
        if len(vmap) != h.n_H or len(set(vmap)) != h.n_H or not all(0 <= v < g.n for v in vmap):
            raise AssertionError(f"vertex map {vmap} is no injection of {h.n_H} vertices into {g.n}")
        if set(images) != set(h.edges):
            raise AssertionError("edge images are not keyed by the target's edges")
        lookup = {(u, v): c for u, v, c in g.edges.tolist()}
        for a, b in h.edges:
            u, v = sorted((vmap[a], vmap[b]))
            if (u, v) not in lookup or tuple(images[(a, b)]) != (u, v, lookup[(u, v)]):
                raise AssertionError(f"image {images[(a, b)]} of {(a, b)} is not host edge ({u}, {v})")
        colours = [images[e][2] for e in h.edges]
        if len(set(colours)) != len(colours):
            raise AssertionError("repeated edge colour")


def _embedding_from_map(
    h: TargetGraph, vmap: list[int], colour_of: dict[tuple[int, int], int]
) -> RainbowEmbedding:
    images = []
    for a, b in h.edges:
        u, v = sorted((vmap[a], vmap[b]))
        images.append(((a, b), (u, v, colour_of[(u, v)])))
    return RainbowEmbedding(vertex_map=tuple(vmap), edge_images=tuple(images))


def find_rainbow_copy_exact(
    g: ColouredGraph, h: TargetGraph
) -> RainbowEmbedding | None:
    """Complete backtracking search for a spanning rainbow copy of h in g.

    Target vertices are placed in descending-degree order, candidates in
    ascending index, colours tracked in a used-set; the first embedding in
    that order is returned, so output is deterministic.

    Two prefilters return None before any search: a spanning copy maps
    vertices bijectively, so g's sorted degree sequence must dominate h's,
    and its e(h) edges need e(h) distinct colours in g.  At each level only
    host vertices of degree at least the target vertex's degree are tried
    (Ullmann's degree filter).  Every branch these skip fails, so the first
    embedding is the one the unpruned search finds.
    """
    if g.n != h.n_H:
        raise ValueError(f"spanning search needs n(G) = n(H), got {g.n} != {h.n_H}")
    if g.n > EXACT_SEARCH_CAP:
        raise ValueError(f"n={g.n} exceeds search cap {EXACT_SEARCH_CAP}")
    n = g.n
    h_adj = [[] for _ in range(n)]
    for a, b in h.edges:
        h_adj[a].append(b)
        h_adj[b].append(a)
    h_deg = [len(nbrs) for nbrs in h_adj]
    g_deg = np.bincount(g.edges[:, :2].ravel(), minlength=n).tolist()
    if any(x < y for x, y in zip(sorted(g_deg), sorted(h_deg))):
        return None
    if len(np.unique(g.edges[:, 2])) < h.e_total:
        return None
    colour_of = {}
    for u, v, c in g.edges.tolist():
        colour_of[(u, v)] = c
        colour_of[(v, u)] = c
    order = sorted(range(n), key=lambda v: -h_deg[v])
    pos = {v: i for i, v in enumerate(order)}
    # neighbours already placed when a vertex comes up in the order
    placed_nbrs = [[b for b in h_adj[a] if pos[b] < pos[a]] for a in order]
    candidates = [[v for v in range(n) if g_deg[v] >= h_deg[a]] for a in order]

    vmap = [-1] * n
    used_hosts = [False] * n
    used_colours: set[int] = set()

    def rec(i: int) -> bool:
        if i == n:
            return True
        a = order[i]
        for cand in candidates[i]:
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
        return _embedding_from_map(h, vmap, colour_of)
    return None


def _rooted_forest(n: int, ends: np.ndarray, forest: np.ndarray):
    """Root every tree of the forest given by the edge indices `forest`
    into the (m, 2) endpoint rows `ends`, by a DFS from its least vertex.

    Returns tree[v], the root of v's tree; first[v] and last[v], so that
    v's subtree is the vertices w with first[v] <= first[w] < last[v]; and
    below, mapping each forest edge to its endpoint farther from the root.
    """
    adj = [[] for _ in range(n)]
    for e, (a, b) in zip(forest.tolist(), ends[forest].tolist()):
        adj[a].append((b, e))
        adj[b].append((a, e))
    tree = [-1] * n
    parent = [-1] * n
    below = {}
    order = []  # preorder: each subtree is a run starting at its root
    for root in range(n):
        if tree[root] >= 0:
            continue
        tree[root] = root
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for y, e in adj[x]:
                if tree[y] < 0:
                    tree[y], parent[y], below[e] = root, x, y
                    stack.append(y)
    size = [1] * n
    for x in reversed(order):
        if parent[x] >= 0:
            size[parent[x]] += size[x]
    first = np.empty(n, dtype=np.int64)
    first[order] = np.arange(n)
    return np.array(tree), first, first + size, below


def max_rainbow_forest(g: ColouredGraph) -> list[int]:
    """Maximum common independent set of the graphic matroid of g and the
    partition matroid of its colour classes, as edge indices.

    Standard matroid-intersection augmentation: repeatedly BFS a shortest
    path in the exchange digraph from the edges addable to the forest I to
    the edges addable colour-wise, and flip the path.  The forest side of
    the exchange digraph is read off one rooting of I per augmentation
    (Cunningham 1986): z not in I is a source when its endpoints lie in
    different trees of I, and otherwise closes one cycle with I, so
    I - y + z is a forest exactly when y lies on the tree path between
    z's endpoints, that is, when exactly one endpoint of z lies in the
    subtree below y.  Every source is reached before the BFS starts, so
    only the second kind of z is left to find from a forest edge y.
    """
    ends, colour = g.edges[:, :2], g.edges[:, 2]
    in_set = np.zeros(len(ends), dtype=bool)

    while True:
        forest = np.flatnonzero(in_set)
        tree, first, last, below = _rooted_forest(g.n, ends, forest)
        holder = np.full(g.kappa + 1, -1)  # the forest edge of each colour
        holder[colour[forest]] = forest
        outside = ~in_set
        sources = outside & (tree[ends[:, 0]] != tree[ends[:, 1]])
        sinks = outside & (holder[colour] < 0)
        if not sources.any():
            break
        # BFS over the exchange digraph; shortest augmenting path is valid
        prev = np.where(sources, -1, -2)  # -1: a source, -2: not reached
        queue = deque(np.flatnonzero(sources).tolist())
        hits = np.flatnonzero(sources & sinks)
        found = int(hits[0]) if len(hits) else None
        pos = first[ends]
        while queue and found is None:
            x = queue.popleft()
            if in_set[x]:
                # y in I -> z not in I with I - y + z a forest
                lo, hi = first[below[x]], last[below[x]]
                inside = (lo <= pos) & (pos < hi)
                crossing = outside & (inside[:, 0] != inside[:, 1])
                for z in np.flatnonzero(crossing & (prev == -2)).tolist():
                    prev[z] = x
                    if sinks[z]:
                        found = z
                        break
                    queue.append(z)
            else:
                # z not in I -> y in I with I - y + z colour-independent
                y = int(holder[colour[x]])
                if y >= 0 and prev[y] == -2:
                    prev[y] = x
                    queue.append(y)
        if found is None:
            break
        node = found
        while node >= 0:
            in_set[node] = not in_set[node]
            node = prev[node]
    return np.flatnonzero(in_set).tolist()


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
