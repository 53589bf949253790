"""Rainbow d-out extraction via max-flow.

The network has a source, one node per colour, one node per vertex, and a
sink.  Source->colour arcs have capacity 1, colour->vertex arcs exist when
some arc of the input digraph with that tail carries that colour, and
vertex->sink arcs have capacity d.  A flow of value d*n decomposes into
d*n unit paths, each assigning a colour to a vertex; picking one input arc
per assignment yields a digraph with out-degree d everywhere and globally
distinct arc colours.  Each colour is assigned to at most one vertex, so
one lookup indexed by colour finds the arcs of the assignments.  Where a
vertex has several arcs of its assigned colour, the decomposition keeps
the head of least rank: the head itself in `extract_rainbow_dout`, its
image under a random per-vertex relabelling in
`extract_via_permutation`.  The network depends only on the (colour,
tail) pairs, so the relabelling changes that tie-break and nothing else.

The flow value equals d*n exactly when every colour set S satisfies the
cut condition kappa - |S| + d*|N(S)| >= d*n, where N(S) is the set of
tails carrying a colour of S.  When the value falls short, the nodes
reachable from the source in the residual network form the smallest
source side of a minimum cut; its colour nodes are a colour set S of
maximum deficiency, contained in every other one, and `hall_witness`
returns it as the certificate, at any kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .graphs import ColouredDigraph, PermutationFamily, relabel


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """Layered colour/vertex network with integer capacities.

    Node indexing: 0 = source, 1..kappa = colours, kappa+1..kappa+n =
    vertices, kappa+n+1 = sink.  The "infinite" middle capacity is d*n,
    which no feasible flow can exceed, so the substitution is exact.
    """

    n: int
    kappa: int
    d: int
    middle_arcs: np.ndarray  # (k, 2) rows (colour, vertex), sorted

    @property
    def num_nodes(self) -> int:
        return self.kappa + self.n + 2

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return self.kappa + self.n + 1

    def colour_node(self, x: int) -> int:
        return x

    def vertex_node(self, v: int) -> int:
        return self.kappa + 1 + v

    def capacity_matrix(self) -> csr_matrix:
        """The int32 CSR matrix scipy's max-flow takes, built row by row:
        the source's arcs to the colours, each colour's arcs to vertices
        (middle_arcs is sorted, so column indices ascend in every row),
        then each vertex's arc to the sink."""
        colours, vertices = self.middle_arcs.T
        n, kappa = self.n, self.kappa
        # row sizes after indptr's leading 0; the sink's row is empty
        row_sizes = np.concatenate(
            [[0, kappa], np.bincount(colours, minlength=kappa + 1)[1:], np.ones(n, np.int64), [0]]
        )
        indptr = np.cumsum(row_sizes, dtype=np.int32)
        indices = np.concatenate(
            [np.arange(1, kappa + 1), self.vertex_node(vertices), np.full(n, self.sink)],
            dtype=np.int32,
        )
        caps = np.repeat(np.array([1, self.d * n, self.d], np.int32), [kappa, len(colours), n])
        return csr_matrix((caps, indices, indptr), shape=(self.num_nodes, self.num_nodes))


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
        """Assert the three defining invariants against the source digraph."""
        arcs = self.digraph.arcs
        degs = self.digraph.out_degrees()
        if (degs != self.d).any():
            raise AssertionError(f"out-degrees {degs.tolist()} not all {self.d}")
        if len(np.unique(arcs[:, 2])) != len(arcs):
            raise AssertionError("repeated arc colour")
        # find each arc's (tail, head) among the source's, then its colour
        n = max(self.digraph.n, source.n)
        src = source.arcs[np.argsort(source.arcs[:, 0] * n + source.arcs[:, 1])]
        pos = np.searchsorted(src[:, 0] * n + src[:, 1], arcs[:, 0] * n + arcs[:, 1])
        found = pos < len(src)
        found[found] = (src[pos[found]] == arcs[found]).all(axis=1)
        if not found.all():
            raise AssertionError("extracted arc not present in source digraph")


def build_network(d_in: ColouredDigraph, d: int) -> FlowNetwork:
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    # scipy's max-flow takes int32 capacities and node indices
    if max(d * d_in.n, d_in.kappa + d_in.n + 1) > np.iinfo(np.int32).max:
        raise ValueError(f"d*n = {d * d_in.n} or sink node {d_in.kappa + d_in.n + 1} exceeds int32")
    tails, _, colours = d_in.arcs.T
    # sort and drop repeats: numpy 2's hash-table np.unique is ~30x slower here
    keys = np.sort(colours * d_in.n + tails)
    if len(keys) and keys[0] < d_in.n:  # colour 0 would be the source node
        raise ValueError(f"uncoloured arc with tail {keys[0]} has no colour node")
    pairs = np.column_stack(np.divmod(keys[np.diff(keys, prepend=-1) != 0], d_in.n))
    pairs.flags.writeable = False
    return FlowNetwork(n=d_in.n, kappa=d_in.kappa, d=d, middle_arcs=pairs)


def max_flow(net: FlowNetwork) -> tuple[int, csr_matrix]:
    """Exact integer max-flow; returns the value and the node-by-node flow
    matrix (an arc's reverse entry holds its flow negated)."""
    res = maximum_flow(net.capacity_matrix(), net.source, net.sink)
    return int(res.flow_value), res.flow


def hall_witness(d_in: ColouredDigraph, d: int) -> HallWitness | None:
    """The colour set of maximum deficiency that lies inside all others, so
    the smallest, or None when the max-flow value reaches d*n.  Colours
    and neighbours come in ascending order."""
    net = build_network(d_in, d)
    value, flow = max_flow(net)
    if value >= d * d_in.n:
        return None
    residual = (net.capacity_matrix() - flow) > 0
    # sorted: the source, colours, then vertices (a maximum flow cuts off the sink)
    reached = np.sort(breadth_first_order(residual, net.source, return_predecessors=False))
    split = np.searchsorted(reached, net.vertex_node(0))
    neighbours = reached[split:] - net.vertex_node(0)
    return HallWitness(tuple(reached[1:split].tolist()), tuple(neighbours.tolist()), d * d_in.n - value)


def _decompose(
    net: FlowNetwork, flow: csr_matrix, d_in: ColouredDigraph, d: int, head_rank: np.ndarray
) -> RainbowDOut:
    # Source caps of 1 force every middle arc's flow into {0, 1}, so each
    # unit path is just a saturated (colour, vertex) middle arc, and each
    # colour is assigned to at most one tail.  Positive entries in colour
    # rows are the flows on middle arcs (the reverse entries of source arcs
    # are negative).
    n, ptr, first, last = d_in.n, flow.indptr, net.colour_node(1), net.vertex_node(0)
    span = slice(ptr[first], ptr[last])
    row_colours = np.repeat(np.arange(1, net.kappa + 1), np.diff(ptr[first : last + 1]))
    positive = flow.data[span] > 0
    # owner[c] is the tail colour c is assigned to, -1 when unassigned; one
    # lookup per arc finds the arcs of the assigned (colour, tail) pairs
    owner = np.full(net.kappa + 1, -1)
    owner[row_colours[positive]] = flow.indices[span][positive] - last
    used = np.flatnonzero(owner[d_in.arcs[:, 2]] == d_in.arcs[:, 0])
    tails, _, colours = d_in.arcs[used].T
    # Sorting by (tail, colour, head rank) puts each assigned pair's arc of
    # least head rank first; the output keeps that arc, tail by tail and
    # colour by colour.
    order = np.lexsort((head_rank[used], colours, tails))
    used = used[order[np.diff(colours[order], prepend=-1) != 0]]
    return RainbowDOut(ColouredDigraph(n, d_in.kappa, d_in.arcs[used]), d)


def _extract(d_in: ColouredDigraph, d: int, head_rank: np.ndarray) -> RainbowDOut | None:
    net = build_network(d_in, d)
    value, flow = max_flow(net)
    if value < d * d_in.n:
        return None
    return _decompose(net, flow, d_in, d, head_rank)


def extract_rainbow_dout(d_in: ColouredDigraph, d: int) -> RainbowDOut | None:
    """Extract a rainbow d-out subgraph, or None when the max-flow value
    falls short of d*n.

    Where several heads carry the assigned colour from a vertex, the
    smallest head is chosen; `extract_via_permutation` removes that bias.
    """
    return _extract(d_in, d, d_in.arcs[:, 1])


def extract_via_permutation(
    d_in: ColouredDigraph,
    d: int,
    rng: np.random.Generator,
    family: PermutationFamily | None = None,
) -> RainbowDOut | None:
    """Extraction whose tie-break keeps, among a vertex v's heads of the
    assigned colour, the head h of least pi_v(h) under a uniform random
    per-vertex relabelling pi, so the decomposition's deterministic
    tie-break does not bias which heads appear in the output.

    This is the extraction of the relabelled digraph mapped back through
    pi^{-1}: the network, and so the flow, does not depend on the heads.
    pi is `random_permutation_family(n, rng)`, read at the input's arcs
    only: the same rng.random((n, n-1)) keys are drawn and no (n, n)
    family is built.  A given `family` is used instead, and then nothing
    is drawn.
    """
    tails, heads, _ = d_in.arcs.T
    if family is None:
        return _extract(d_in, d, relabel(rng.random((d_in.n, d_in.n - 1)), tails, heads))
    if family.n != d_in.n:
        raise ValueError(f"family covers {family.n} vertices, digraph has {d_in.n}")
    return _extract(d_in, d, family.perms[tails, heads])
