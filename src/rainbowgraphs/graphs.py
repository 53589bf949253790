"""Randomly coloured random graphs and digraphs.

Vertices are 0-indexed.  Colours are integers in [1, kappa]; the sentinel
colour 0 marks an uncoloured arc (used by d-out samples before colouring).
Edge probability p splits into an arc probability p1 with
(1 - p1)**2 = 1 - p, so that sampling each ordered pair with probability
p1 and forgetting orientation reproduces the undirected model.

Every coloured graph is one read-only (m, 3) int64 array of rows:
(tail, head, colour) for a digraph, (u, v, colour) with u < v for a
graph, validated once when the graph is built.  Samplers keep their
per-row draws, so a seed gives the same graph whatever the storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

UNCOLOURED = 0


def _frozen_rows(rows, n: int, kappa: int, undirected: bool) -> np.ndarray:
    """Rows (u, v, colour) as a read-only (m, 3) int64 copy, after checking
    n >= 1, endpoints in [0, n), no self-loop (u < v for an undirected
    graph), no repeated pair and colour 0 or in [1, kappa]."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a = np.array(rows, dtype=np.int64).reshape(len(rows), 3)  # raises unless m triples
    u, v = a[:, 0], a[:, 1]
    # negative entries wrap to huge unsigned values, so one comparison
    # bounds every column from both sides
    outside = a.view(np.uint64) >= np.array([n, n, kappa + 1], dtype=np.uint64)
    loops = u >= v if undirected else u == v
    keys = u * n + v
    keys.sort()
    repeats = keys[1:] == keys[:-1]
    kind = "edge" if undirected else "arc"
    if np.count_nonzero(outside) or np.count_nonzero(loops):
        row = a[np.argmax(outside.any(axis=1) | loops)].tolist()
        raise ValueError(f"bad {kind} {tuple(row)} for n={n}, kappa={kappa}")
    if np.count_nonzero(repeats):
        key = keys[np.argmax(repeats)]
        raise ValueError(f"duplicate {kind} ({key // n}, {key % n})")
    a.flags.writeable = False
    return a


class _ArrayFields:
    """Value equality and hashing for a frozen dataclass with array fields."""

    def _values(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(map(np.array_equal, self._values(), other._values()))

    def __hash__(self) -> int:
        return hash(tuple(np.asarray(x).tobytes() for x in self._values()))


@dataclass(frozen=True, eq=False)
class ColouredGraph(_ArrayFields):
    """Undirected edge-coloured graph: edges is a read-only (m, 3) int64
    array of rows (u, v, colour) with u < v."""

    n: int
    kappa: int
    edges: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", _frozen_rows(self.edges, self.n, self.kappa, True))


@dataclass(frozen=True, eq=False)
class ColouredDigraph(_ArrayFields):
    """Directed edge-coloured graph: arcs is a read-only (m, 3) int64
    array of rows (tail, head, colour).

    Row order is kept, so samplers can preserve a meaningful order (d-out
    samples keep each vertex's choices in choice order).
    """

    n: int
    kappa: int
    arcs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", _frozen_rows(self.arcs, self.n, self.kappa, False))

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.arcs[:, 0], minlength=self.n)


@dataclass(frozen=True)
class ProbabilitySplit:
    """Edge probability p and the arc probability p1 with (1-p1)^2 = 1-p."""

    p: float
    p1: float

    def __post_init__(self) -> None:
        if abs((1.0 - self.p1) ** 2 - (1.0 - self.p)) > 1e-12:
            raise ValueError(f"inconsistent split p={self.p}, p1={self.p1}")


@dataclass(frozen=True, eq=False)
class PermutationFamily(_ArrayFields):
    """One bijection pi_v of [n] \\ {v} per vertex v.

    perms is a read-only (n, n) int64 array whose row v has perms[v, v] == v
    (a fixed point standing in for the excluded element); the other
    entries of the row are a permutation of the remaining vertices.
    """

    perms: np.ndarray

    def __post_init__(self) -> None:
        perms = np.array(self.perms, dtype=np.int64)
        ids = np.arange(len(perms))
        if perms.shape != (len(ids), len(ids)):
            raise ValueError(f"perms must be an (n, n) array, got shape {perms.shape}")
        bad = (np.sort(perms, axis=1) != ids).any(axis=1) | (perms[ids, ids] != ids)
        if bad.any():
            v = int(np.argmax(bad))
            raise ValueError(f"perms[{v}] is not a bijection fixing {v}")
        perms.flags.writeable = False
        object.__setattr__(self, "perms", perms)

    @property
    def n(self) -> int:
        return len(self.perms)

    def inverse(self) -> "PermutationFamily":
        return PermutationFamily(np.argsort(self.perms, axis=1))


def split_probability(p: float) -> ProbabilitySplit:
    """Solve (1 - p1)^2 = 1 - p for p1 in [0, 1).

    p = 1 is rejected: no p1 < 1 satisfies the identity.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    p1 = 1.0 - math.sqrt(1.0 - p)
    return ProbabilitySplit(p=p, p1=p1)


def _check_colour_params(kappa: int) -> None:
    if kappa < 1:
        raise ValueError(f"need kappa >= 1, got {kappa}")


_NO_ROWS = np.zeros(0, dtype=np.int64)


def _stacked(heads: list[np.ndarray], colours: list[np.ndarray]) -> np.ndarray:
    """Rows (i, h, colour) for the heads h of heads[i] and their colours,
    row block by row block, with one concatenate per column."""
    tails = np.repeat(np.arange(len(heads)), [len(h) for h in heads])
    return np.column_stack(
        [tails, np.concatenate([_NO_ROWS, *heads]), np.concatenate([_NO_ROWS, *colours])]
    )


def sample_coloured_graph(
    n: int, p: float, kappa: int, rng: np.random.Generator
) -> ColouredGraph:
    """Each unordered pair appears independently with probability p; each
    present edge gets an independent uniform colour from [1, kappa]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    _check_colour_params(kappa)
    heads, colours = [], []
    for u in range(n - 1):
        heads.append(np.flatnonzero(rng.random(n - 1 - u) < p) + u + 1)
        if len(heads[-1]):
            colours.append(rng.integers(1, kappa + 1, size=len(heads[-1])))
    return ColouredGraph(n=n, kappa=kappa, edges=_stacked(heads, colours))


def sample_coloured_digraph(
    n: int, p1: float, kappa: int, rng: np.random.Generator
) -> ColouredDigraph:
    """Each of the n(n-1) ordered pairs is an arc independently with
    probability p1, coloured uniformly from [1, kappa]."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")
    _check_colour_params(kappa)
    heads, colours = [], []
    for t in range(n):
        mask = rng.random(n) < p1
        mask[t] = False
        heads.append(np.flatnonzero(mask))
        if len(heads[-1]):
            colours.append(rng.integers(1, kappa + 1, size=len(heads[-1])))
    return ColouredDigraph(n=n, kappa=kappa, arcs=_stacked(heads, colours))


def coalesce_orientation(
    d: ColouredDigraph, rng: np.random.Generator
) -> ColouredGraph:
    """Forget orientation.  Where both (u,v) and (v,u) are present the edge
    colour is a uniform choice between the two arc colours."""
    t, h, c = d.arcs.T
    u, v = np.minimum(t, h), np.maximum(t, h)
    # a stable sort on the pair keeps each pair's arcs in stored order
    order = np.argsort(u * d.n + v, kind="stable")
    pick = np.flatnonzero(np.diff((u * d.n + v)[order], prepend=-1))  # pairs' first arcs
    twins = np.diff(pick, append=len(order)) == 2
    # one uniform per pair with two arcs, in pair order: below 1/2 takes
    # the colour of the pair's second stored arc
    pick[twins] += rng.random(np.count_nonzero(twins)) < 0.5
    rows = order[pick]
    return ColouredGraph(d.n, d.kappa, np.column_stack([u[rows], v[rows], c[rows]]))


def sample_d_out(n: int, d: int, rng: np.random.Generator) -> ColouredDigraph:
    """Every vertex picks d distinct uniform out-neighbours from the other
    n-1 vertices.  Heads are stored in choice order (arcs grouped by tail);
    the coupling module consumes that order.  Arcs are uncoloured."""
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got d={d}, n={n}")
    # A random key argsort per row is a uniform random ordering of the
    # n-1 candidate heads; the first d entries are a uniform d-arrangement.
    heads = _other_vertex(np.argsort(rng.random((n, n - 1)), axis=1)[:, :d]).ravel()
    arcs = np.column_stack([np.repeat(np.arange(n), d), heads, np.full(n * d, UNCOLOURED)])
    return ColouredDigraph(n=n, kappa=0, arcs=arcs)


def _other_vertex(idx: np.ndarray) -> np.ndarray:
    """The idx[v, j]-th smallest vertex other than v, for every entry."""
    return idx + (idx >= np.arange(len(idx))[:, None])


def random_permutation_family(n: int, rng: np.random.Generator) -> PermutationFamily:
    """Independent uniform permutations pi_v of [n] \\ {v}."""
    # one argsort per vertex row gives a uniform permutation of its n-1
    # candidate images, written row by row into the off-diagonal entries
    images = _other_vertex(np.argsort(rng.random((n, n - 1)), axis=1))
    perms = np.tile(np.arange(n), (n, 1))
    perms[~np.eye(n, dtype=bool)] = images.ravel()
    return PermutationFamily(perms)


def identity_permutation_family(n: int) -> PermutationFamily:
    return PermutationFamily(np.tile(np.arange(n), (n, 1)))


def apply_permutations(d: ColouredDigraph, f: PermutationFamily) -> ColouredDigraph:
    """Map every arc (v, w, c) to (v, pi_v(w), c).

    Colours and out-degrees are unchanged; arc order is preserved.  Apply
    `f.inverse()` to map back.
    """
    if f.n != d.n:
        raise ValueError(f"family covers {f.n} vertices, digraph has {d.n}")
    t, h, c = d.arcs.T
    return ColouredDigraph(d.n, d.kappa, np.column_stack([t, f.perms[t, h], c]))
