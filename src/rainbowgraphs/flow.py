"""Rainbow d-out extraction via max-flow.

The network has a source, one node per colour, one node per vertex, and a
sink.  Source->colour arcs have capacity 1, colour->vertex arcs exist when
some arc of the input digraph with that tail carries that colour, and
vertex->sink arcs have capacity d.  A flow of value d*n decomposes into
d*n unit paths, each assigning a colour to a vertex; picking one input arc
per assignment yields a digraph with out-degree d everywhere and globally
distinct arc colours.  Where a vertex has several arcs of its assigned
colour, the decomposition keeps the head of least rank: the head itself
in `extract_rainbow_dout`, its image under a random per-vertex
relabelling in `extract_via_permutation`.  The network depends only on
the (colour, tail) pairs, so the relabelling changes that tie-break and
nothing else.

The flow value equals d*n exactly when every colour set S satisfies the
cut condition kappa - |S| + d*|N(S)| >= d*n, where N(S) is the set of
tails carrying a colour of S; `check_hall_bruteforce` verifies this by
enumeration and produces a violating witness when the condition fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .graphs import ColouredDigraph, PermutationFamily, random_permutation_family

HALL_KAPPA_CAP = 22


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
        """Source->colour, then colour->vertex, then vertex->sink arcs."""
        colours, vertices = self.middle_arcs.T
        n, d, m, k = self.n, self.d, self.num_nodes, len(colours)
        colour_nodes, vertex_nodes = np.arange(1, self.kappa + 1), self.vertex_node(np.arange(n))
        rows = np.concatenate([np.zeros_like(colour_nodes), colours, vertex_nodes])
        cols = np.concatenate([colour_nodes, self.vertex_node(vertices), np.full(n, self.sink)])
        caps = np.concatenate([np.ones_like(colour_nodes), np.full(k, d * n), np.full(n, d)])
        return csr_matrix((caps, (rows, cols)), shape=(m, m))


@dataclass(frozen=True)
class HallWitness:
    """A colour set violating the cut condition.

    deficiency = d*n - (kappa - |S| + d*|N(S)|) > 0 exactly when S is a
    violation.
    """

    colours: tuple[int, ...]
    neighbours: tuple[int, ...]
    deficiency: int


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
    tails, _, colours = d_in.arcs.T
    # sort and drop repeats: numpy 2's hash-table np.unique is ~30x slower here
    keys = np.sort(colours * d_in.n + tails)
    pairs = np.column_stack(np.divmod(keys[np.diff(keys, prepend=-1) != 0], d_in.n))
    pairs.flags.writeable = False
    return FlowNetwork(n=d_in.n, kappa=d_in.kappa, d=d, middle_arcs=pairs)


def max_flow(net: FlowNetwork) -> tuple[int, csr_matrix]:
    """Exact integer max-flow; returns the value and the node-by-node flow
    matrix (an arc's reverse entry holds its flow negated)."""
    res = maximum_flow(net.capacity_matrix(), net.source, net.sink)
    return int(res.flow_value), res.flow


def check_hall_bruteforce(
    d_in: ColouredDigraph, d: int, kappa: int | None = None
) -> tuple[bool, HallWitness | None]:
    """Enumerate every colour subset S and test the cut condition.

    Returns (True, None) when all subsets pass; otherwise a maximally
    deficient witness, ties broken by smaller |S| then lexicographic S.
    """
    if kappa is None:
        kappa = d_in.kappa
    if kappa > HALL_KAPPA_CAP:
        raise ValueError(f"kappa={kappa} exceeds enumeration cap {HALL_KAPPA_CAP}")
    n, target = d_in.n, d * d_in.n
    tail_mask = [0] * (kappa + 1)
    for t, _, c in d_in.arcs.tolist():
        tail_mask[c] |= 1 << t
    best: tuple[int, int, tuple[int, ...], int] | None = None  # (-def, |S|, S, N)
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


def _decompose(
    net: FlowNetwork, flow: csr_matrix, d_in: ColouredDigraph, d: int, head_rank: np.ndarray
) -> RainbowDOut:
    # Source caps of 1 force every middle arc's flow into {0, 1}, so each
    # unit path is just a saturated (colour, vertex) middle arc.  Positive
    # entries in colour rows are the flows on middle arcs (the reverse
    # entries of source arcs are negative).
    n, ptr, first, last = d_in.n, flow.indptr, net.colour_node(1), net.vertex_node(0)
    span = slice(ptr[first], ptr[last])
    row_colours = np.repeat(np.arange(1, net.kappa + 1), np.diff(ptr[first : last + 1]))
    positive = flow.data[span] > 0
    # colour * n + tail, as in build_network
    saturated = np.sort(row_colours[positive] * n + flow.indices[span][positive] - last)
    tails, _, colours = d_in.arcs.T
    keys = colours * n + tails
    # a search position past the end wraps to 0, where the key cannot match
    found = saturated[np.searchsorted(saturated, keys) % len(saturated)]
    used = np.flatnonzero(found == keys)
    # Sorting by (tail, colour, head rank) puts each assigned pair's arc of
    # least head rank first; the output keeps that arc, tail by tail and
    # colour by colour.
    used = used[np.lexsort((head_rank[used], colours[used], tails[used]))]
    used = used[np.diff(keys[used], prepend=-1) != 0]
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
    """
    fam = random_permutation_family(d_in.n, rng) if family is None else family
    if fam.n != d_in.n:
        raise ValueError(f"family covers {fam.n} vertices, digraph has {d_in.n}")
    tails, heads, _ = d_in.arcs.T
    return _extract(d_in, d, fam.perms[tails, heads])
