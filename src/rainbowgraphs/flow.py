"""Rainbow d-out extraction via max-flow.

The network has a source, one node per colour, one node per vertex, and a
sink.  Source->colour arcs have capacity 1, colour->vertex arcs exist when
some arc of the input digraph with that tail carries that colour, and
vertex->sink arcs have capacity d.  A flow of value d*n decomposes into
d*n unit paths, each assigning a colour to a vertex; picking one input arc
per assignment yields a digraph with out-degree d everywhere and globally
distinct arc colours.

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

from .graphs import ColouredDigraph, PermutationFamily, apply_permutations, random_permutation_family

HALL_KAPPA_CAP = 22


@dataclass(frozen=True)
class FlowNetwork:
    """Layered colour/vertex network with integer capacities.

    Node indexing: 0 = source, 1..kappa = colours, kappa+1..kappa+n =
    vertices, kappa+n+1 = sink.  The "infinite" middle capacity is d*n,
    which no feasible flow can exceed, so the substitution is exact.
    """

    n: int
    kappa: int
    d: int
    middle_arcs: tuple[tuple[int, int], ...]  # (colour, vertex) pairs

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
        rows, cols, caps = [], [], []
        for x in range(1, self.kappa + 1):
            rows.append(self.source)
            cols.append(self.colour_node(x))
            caps.append(1)
        inf_cap = self.d * self.n
        for x, v in self.middle_arcs:
            rows.append(self.colour_node(x))
            cols.append(self.vertex_node(v))
            caps.append(inf_cap)
        for v in range(self.n):
            rows.append(self.vertex_node(v))
            cols.append(self.sink)
            caps.append(self.d)
        m = self.num_nodes
        return csr_matrix(
            (np.asarray(caps, dtype=np.int64), (rows, cols)), shape=(m, m)
        )


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
class ColourAssignment:
    """Per-vertex tuple of exactly d (colour, head) pairs, colours globally
    distinct across all vertices."""

    per_vertex: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class RainbowDOut:
    """A d-out digraph all of whose arc colours are pairwise distinct."""

    digraph: ColouredDigraph
    d: int

    def check(self, source: ColouredDigraph) -> None:
        """Assert the three defining invariants against the source digraph."""
        degs = self.digraph.out_degrees()
        if any(deg != self.d for deg in degs):
            raise AssertionError(f"out-degrees {degs} not all {self.d}")
        colours = [c for _, _, c in self.digraph.arcs]
        if len(set(colours)) != len(colours):
            raise AssertionError("repeated arc colour")
        if not self.digraph.arc_set <= source.arc_set:
            raise AssertionError("extracted arc not present in source digraph")


def build_network(d_in: ColouredDigraph, d: int) -> FlowNetwork:
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    pairs = sorted({(c, t) for t, _, c in d_in.arcs})
    return FlowNetwork(n=d_in.n, kappa=d_in.kappa, d=d, middle_arcs=tuple(pairs))


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
    for t, _, c in d_in.arcs:
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
    net: FlowNetwork, flow: csr_matrix, d_in: ColouredDigraph, d: int
) -> tuple[ColourAssignment, RainbowDOut]:
    # Source caps of 1 force every middle arc's flow into {0, 1}, so each
    # unit path is just a saturated (colour, vertex) middle arc.
    heads_by: dict[tuple[int, int], list[int]] = {}
    for t, h, c in d_in.arcs:
        heads_by.setdefault((t, c), []).append(h)
    assigned: list[list[tuple[int, int]]] = [[] for _ in range(d_in.n)]
    # Positive entries in colour rows are the flows on middle arcs (the
    # reverse entries of source arcs are negative).
    entries = flow.tocoo()
    rows, first = entries.row, net.colour_node(1)
    middle = (entries.data > 0) & (rows >= first) & (rows < net.vertex_node(0))
    colours = (rows[middle] - first + 1).tolist()
    for x, v in zip(colours, (entries.col[middle] - net.vertex_node(0)).tolist()):
        assigned[v].append((x, min(heads_by[(v, x)])))
    per_vertex = tuple(tuple(sorted(pairs)) for pairs in assigned)
    arcs = tuple(
        (v, h, x) for v in range(d_in.n) for x, h in per_vertex[v]
    )
    out = RainbowDOut(
        digraph=ColouredDigraph(n=d_in.n, kappa=d_in.kappa, arcs=arcs), d=d
    )
    return ColourAssignment(per_vertex=per_vertex), out


def extract_rainbow_dout(
    d_in: ColouredDigraph, d: int
) -> tuple[ColourAssignment, RainbowDOut] | None:
    """Extract a rainbow d-out subgraph, or None when the max-flow value
    falls short of d*n.

    Where several heads carry the assigned colour from a vertex, the
    smallest head is chosen; `extract_via_permutation` removes that bias.
    """
    net = build_network(d_in, d)
    value, flow = max_flow(net)
    if value < d * d_in.n:
        return None
    return _decompose(net, flow, d_in, d)


def extract_via_permutation(
    d_in: ColouredDigraph,
    d: int,
    rng: np.random.Generator,
    family: PermutationFamily | None = None,
) -> RainbowDOut | None:
    """Extraction preceded by a per-vertex head relabelling and followed by
    its inverse, so the deterministic tie-break of the decomposition does
    not bias which heads appear in the output."""
    fam = random_permutation_family(d_in.n, rng) if family is None else family
    transformed = apply_permutations(d_in, fam)
    res = extract_rainbow_dout(transformed, d)
    if res is None:
        return None
    _, rainbow = res
    restored = apply_permutations(rainbow.digraph, fam, invert=True)
    return RainbowDOut(digraph=restored, d=d)
