"""Rainbow d-out extraction via max-flow.

The network has a source, one node per colour, one node per vertex, and a
sink.  Source->colour arcs have capacity 1, colour->vertex arcs exist when
some arc of the input digraph with that tail carries that colour, and
vertex->sink arcs have capacity d.  A flow of value d*n decomposes into
d*n unit paths, each assigning a colour to a vertex; picking one input arc
per assignment yields a digraph with out-degree d everywhere and globally
distinct arc colours.  Each colour is assigned to at most one vertex, so
`max_flow` describes a flow by `owner`, the vertex each colour's unit
reaches (-1 for none), and one lookup indexed by colour finds the arcs of
the assignments.  `max_flow` runs Dinic's algorithm itself and, on every
network, returns the flow of scipy's Dinic solver.  Where a vertex has
several arcs of its assigned colour, the decomposition keeps the head of
least rank: the head itself in `extract_rainbow_dout`, its image under a
random per-vertex relabelling in `extract_via_permutation`.  The network
depends only on the (colour, tail) pairs, so the relabelling changes
that tie-break and nothing else.

The flow value equals d*n exactly when every colour set S satisfies the
cut condition kappa - |S| + d*|N(S)| >= d*n, where N(S) is the set of
tails carrying a colour of S.  When the value falls short, the nodes
that `_levels` reaches from the source in the residual network form the
smallest source side of a minimum cut; its colour nodes are a colour set
S of maximum deficiency, contained in every other one.  An extraction
returns that set as its certificate, read off the flow it solved, at any
kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import ColouredDigraph, _trusted, relabel


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """Layered colour/vertex network with integer capacities: 1 on each
    source->colour arc, d*n on colour->vertex for each pair in
    `middle_arcs`, d on each vertex->sink arc.  The "infinite" middle
    capacity is d*n, which no feasible flow can exceed, so the
    substitution is exact.
    """

    n: int
    kappa: int
    d: int
    middle_arcs: np.ndarray  # (k, 2) rows (colour, vertex), sorted

    def capacity_matrix(self) -> np.ndarray:
        """The rows of `middle_arcs` that `max_flow` scans, colour by
        colour: an int64 array `ends` of length kappa+1 whose entry c is
        the end of colour c's run of rows, so colour c's vertices are
        middle_arcs[ends[c-1]:ends[c], 1], ascending (ends[0] = 0: colour
        0 has no arcs)."""
        return np.bincount(self.middle_arcs[:, 0], minlength=self.kappa + 1).cumsum()


@dataclass(frozen=True)
class HallWitness:
    """A colour set violating the cut condition.

    deficiency = d*n - (kappa - |S| + d*|N(S)|) > 0 exactly when S is a
    violation.
    """

    colours: tuple[int, ...]
    neighbours: tuple[int, ...]
    deficiency: int

    def check(self, source: ColouredDigraph, d: int) -> None:
        """Assert, in linear time, that the neighbours are the tails of the
        source's arcs with a colour in S and the deficiency is right and > 0."""
        s, n, kappa = np.array(self.colours, dtype=np.int64), source.n, source.kappa
        if len(s) and (s[0] < 1 or s[-1] > kappa or (np.diff(s) <= 0).any()):
            raise AssertionError(f"colours {self.colours} not ascending in [1, {kappa}]")
        deficiency = d * n - (kappa - len(s) + d * len(self.neighbours))
        if self.deficiency != deficiency or deficiency <= 0:
            raise AssertionError(f"deficiency {self.deficiency}, recomputed {deficiency}, not > 0")
        # a positive deficiency bounds kappa by |S| + d*n
        in_s = np.zeros(kappa + 1, dtype=bool)
        in_s[s] = True
        tails = np.bincount(source.arcs[in_s[source.arcs[:, 2]], 0], minlength=n)
        if np.flatnonzero(tails).tolist() != list(self.neighbours):
            raise AssertionError(f"neighbours {self.neighbours} are not the tails of S's arcs")


@dataclass(frozen=True)
class RainbowDOut:
    """A d-out digraph all of whose arc colours are pairwise distinct."""

    digraph: ColouredDigraph
    d: int

    def check(self, source: ColouredDigraph) -> None:
        """Assert the three defining invariants against the source digraph,
        on the source's vertex set."""
        if self.digraph.n != source.n:
            raise AssertionError(f"covers {self.digraph.n} vertices, source has {source.n}")
        arcs = self.digraph.arcs
        degs = self.digraph.out_degrees()
        if (degs != self.d).any():
            raise AssertionError(f"out-degrees {degs.tolist()} not all {self.d}")
        if len(np.unique(arcs[:, 2])) != len(arcs):
            raise AssertionError("repeated arc colour")
        # find each arc's (tail, head) among the source's, then its colour
        n = source.n
        src = source.arcs[np.argsort(source.arcs[:, 0] * n + source.arcs[:, 1])]
        pos = np.searchsorted(src[:, 0] * n + src[:, 1], arcs[:, 0] * n + arcs[:, 1])
        found = pos < len(src)
        found[found] = (src[pos[found]] == arcs[found]).all(axis=1)
        if not found.all():
            raise AssertionError("extracted arc not present in source digraph")


def check_network_size(n: int, kappa: int, d: int) -> None:
    """Raise ValueError unless the network of an n-vertex, kappa-colour
    digraph keeps d*n and kappa+n+1 within int32.  Within that bound
    `build_network`'s int64 pair key colour*n + tail cannot wrap, and the
    network fits scipy's int32 max-flow, the tests' oracle, whose node
    numbers run from source 0 to sink kappa+n+1."""
    if max(d * n, kappa + n + 1) > np.iinfo(np.int32).max:
        raise ValueError(f"d*n = {d * n} or sink node {kappa + n + 1} exceeds int32")


def build_network(d_in: ColouredDigraph, d: int) -> FlowNetwork:
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    check_network_size(d_in.n, d_in.kappa, d)
    n, (tails, _, colours) = d_in.n, d_in.arcs.T
    # sort and drop repeats in place: numpy 2's hash-table np.unique is ~30x slower
    keys = colours * n
    keys += tails
    keys.sort()
    if len(keys) and keys[0] < n:  # colour 0 would be the source node
        raise ValueError(f"uncoloured arc with tail {keys[0]} has no colour node")
    first = np.empty(len(keys), bool)  # each pair's first key
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    pairs = np.empty((len(keys), 2), np.int64)
    np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
    pairs.flags.writeable = False
    return FlowNetwork(n=d_in.n, kappa=d_in.kappa, d=d, middle_arcs=pairs)


def max_flow(net: FlowNetwork) -> tuple[int, np.ndarray]:
    """Exact integer max-flow; returns the value and `owner`, indexed by
    colour: owner[c] is the vertex that colour c's unit of flow reaches,
    or -1 when c carries none (owner[0], the source's slot, is -1).
    Source caps of 1 let each colour carry at most one unit, so `owner`
    fixes the whole flow: source->c and c->owner[c] carry 1, and v->sink
    carries the number of colours v owns.

    Dinic's algorithm runs here, scanning arcs in the order of scipy's
    Dinic solver, so on every network `owner` is the flow that solver
    returns.  The first phase sends each colour's unit, colours
    ascending, to the smallest adjacent vertex that still has room;
    `_later_phases` continues from its owners while a vertex is short.
    """
    owner, room = _first_phase(net, net.capacity_matrix())
    return _later_phases(net, owner, np.array(room)), owner


def _first_phase(net: FlowNetwork, ends: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The owners and the list of each vertex's room (d minus the number
    of colours it owns) after Dinic's first phase: one blocking-flow path
    source->c->v->sink per colour c, in the order of `middle_arcs`, whose
    runs end at `ends`, so c takes the smallest adjacent vertex with room."""
    kappa, d = net.kappa, net.d
    ptr, vertices = ends.tolist(), memoryview(np.ascontiguousarray(net.middle_arcs[:, 1]))
    room = [d] * net.n
    owner = [-1] * (kappa + 1)
    left = d * net.n
    for c in range(1, kappa + 1):
        for v in vertices[ptr[c - 1] : ptr[c]]:
            if room[v]:
                break
        else:
            continue
        room[v] -= 1
        owner[c] = v
        left -= 1
        if not left:
            break
    return np.array(owner), room


def _levels(net: FlowNetwork, owner: np.ndarray, room: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Dinic's level search from the source in the residual network of
    `owner`, whose vertices have `room` left.  That network has the arcs
    source -> each unassigned colour, colour -> every adjacent vertex (a
    middle arc carries at most 1, below its capacity d*n unless the flow
    is full), vertex -> each colour it owns, and vertex -> sink while it
    has room.  Nodes are levelled by BFS distance, one vectorised step per
    layer, up to the first vertex layer that holds a vertex with room;
    returns those layers and `unseen`, the mask of vertices not reached
    (slot n is what owner -1 reads).  When no vertex with room is
    reachable, returns no layers, and `unseen` is the complement of the
    reached set.
    """
    n = net.n
    arc_colours, arc_vertices = net.middle_arcs.T
    # layers[i]: the middle arcs from colour layer i into the vertices first
    # reached there.  The colours of earlier layers have no arc into unseen
    # vertices (nor has colour 0, the source's slot, any arc).
    unseen = np.ones(n + 1, bool)
    in_layer = owner < 0
    layers = []
    while True:
        # take() gathers faster than indexing here
        arcs = np.flatnonzero(in_layer.take(arc_colours) & unseen.take(arc_vertices))
        if not len(arcs):
            return [], unseen
        layers.append(arcs)
        vertices = arc_vertices[arcs]
        if room[vertices].any():
            return layers, unseen
        unseen[vertices] = False
        in_layer = ~unseen[owner]


def _later_phases(net: FlowNetwork, owner: np.ndarray, room: np.ndarray) -> int:
    """Dinic's phases after the first, from its `owner` and `room`, which
    are updated in place; returns the flow value.

    Each phase takes the layers of `_levels`, and a backward pass drops
    the nodes that cannot reach the sink inside that level graph.  A DFS
    then scans the arcs left in the order of scipy's solver (roots
    ascending, a colour's vertices ascending, a vertex's colours
    ascending and then the sink), and keeps each node's progress pointer
    for the whole phase; the arcs it no longer sees lead only to dead
    ends, so it finds scipy's paths.  Every path carries one unit from an
    unassigned colour c0 through v1, c1, v2, ..., vk: augmenting gives c0
    to v1, c1 to v2 and so on, and takes one unit of vk's room.
    """
    n = net.n
    arc_colours, arc_vertices = net.middle_arcs.T
    left = int(room.sum())
    while left:
        layers, _ = _levels(net, owner, room)
        if not layers:
            return net.d * n - left  # the sink is out of reach: the flow is maximum
        # Backward pass: keep the arcs into live vertices, first those with
        # room, then the owners of live colours one layer further on.
        live = np.zeros(n + 1, bool)
        live[:n] = room > 0
        kept = []
        for arcs in reversed(layers):
            arcs = arcs[live[arc_vertices[arcs]]]
            kept.append(arcs)
            live[owner[arc_colours[arcs]]] = True
        # Each live colour's live vertices, and each vertex's live colours
        # (under -1, the unassigned colours that root the DFS), ascending; a
        # colour's arcs lie together, in one layer.
        arcs = np.concatenate(kept)
        colours, vertices = arc_colours[arcs], arc_vertices[arcs].tolist()
        starts = [0, *(np.flatnonzero(colours[1:] != colours[:-1]) + 1).tolist(), len(vertices)]
        live_colours = colours[starts[:-1]]
        heads = {c: vertices[a:b] for c, a, b in zip(live_colours.tolist(), starts, starts[1:])}
        owned = {}
        for c, u in zip(live_colours.tolist(), owner[live_colours].tolist()):
            owned.setdefault(u, []).append(c)
        cptr, vptr = dict.fromkeys(heads, 0), dict.fromkeys(owned, 0)
        for root in owned.pop(-1):
            path = [root]  # colours at even positions, vertices at odd ones
            while path:
                x = path[-1]
                if len(path) % 2:
                    if cptr[x] < len(heads[x]):
                        path.append(heads[x][cptr[x]])
                        continue
                elif x in owned and vptr[x] < len(owned[x]):
                    path.append(owned[x][vptr[x]])
                    continue
                elif room[x]:
                    owner[path[0::2]] = path[1::2]
                    room[x] -= 1
                    left -= 1
                    for v in path[1:-1:2]:
                        vptr[v] += 1  # its arc to the colour it gave up is empty
                    break
                # a dead end: retreat, and move the node below past it
                path.pop()
                if len(path) % 2:
                    cptr[path[-1]] += 1
                elif path:
                    vptr[path[-1]] += 1
            if not left:
                break  # every vertex is full, so no path is left
    return net.d * n


def _witness(net: FlowNetwork, owner: np.ndarray) -> HallWitness:
    """The witness of a maximum flow `owner` short of d*n.  No vertex with
    room is reachable, so `_levels` returns the reached set: S is the
    unassigned colours and those the reached vertices own, N(S) is the
    reached vertices, and the deficiency is d*n minus the flow value.
    The reached set is the same for every maximum flow."""
    assigned = owner >= 0
    _, unseen = _levels(net, owner, net.d - np.bincount(owner[assigned], minlength=net.n))
    colours = np.flatnonzero(~assigned[1:] | ~unseen[owner[1:]]) + 1
    neighbours = np.flatnonzero(~unseen[: net.n])
    deficiency = net.d * net.n - int(assigned.sum())
    return HallWitness(tuple(colours.tolist()), tuple(neighbours.tolist()), deficiency)


def _decompose(owner: np.ndarray, d_in: ColouredDigraph, d: int, head_rank: np.ndarray) -> RainbowDOut:
    # Each colour is assigned to at most one tail, so one lookup per arc
    # finds the arcs of the assigned (colour, tail) pairs.
    used = np.flatnonzero(owner[d_in.arcs[:, 2]] == d_in.arcs[:, 0])
    tails, _, colours = d_in.arcs[used].T
    # Sorting by (tail, colour, head rank) puts each assigned pair's arc of
    # least head rank first; the output keeps that arc, tail by tail and
    # colour by colour.
    order = np.lexsort((head_rank[used], colours, tails))
    arcs = d_in.arcs[used[order[np.diff(colours[order], prepend=-1) != 0]]]
    return RainbowDOut(_trusted(ColouredDigraph, d_in.n, d_in.kappa, arcs), d)


def _extract(d_in: ColouredDigraph, d: int, head_rank: np.ndarray) -> RainbowDOut | HallWitness:
    net = build_network(d_in, d)
    value, owner = max_flow(net)
    return _witness(net, owner) if value < d * d_in.n else _decompose(owner, d_in, d, head_rank)


def extract_rainbow_dout(d_in: ColouredDigraph, d: int) -> RainbowDOut | HallWitness:
    """Extract a rainbow d-out subgraph or, when the max-flow value falls
    short of d*n, return the `HallWitness` of that flow: the smallest
    colour set of maximum deficiency, with its neighbours, in ascending order.

    Where several heads carry the assigned colour from a vertex, the
    smallest head is chosen; `extract_via_permutation` removes that bias.
    """
    return _extract(d_in, d, d_in.arcs[:, 1])


def extract_via_permutation(
    d_in: ColouredDigraph, d: int, rng: np.random.Generator
) -> RainbowDOut | HallWitness:
    """Extraction whose tie-break keeps, among a vertex v's heads of the
    assigned colour, the head h of least pi_v(h) under a uniform random
    per-vertex relabelling pi, so the decomposition's deterministic
    tie-break does not bias which heads appear in the output.

    This is the extraction of the relabelled digraph mapped back through
    pi^{-1}: the network, and so the flow, does not depend on the heads.
    pi is `random_permutation_family(n, rng)`, read at the input's arcs
    only: the same rng.random((n, n-1)) keys are drawn and no (n, n)
    family is built.
    """
    tails, heads, _ = d_in.arcs.T
    return _extract(d_in, d, relabel(rng.random((d_in.n, d_in.n - 1)), tails, heads))
