"""Target graph families and their density profiles.

The density profile of H tabulates e_H(x), the largest number of edges
spanned by any x-vertex subset, for x = 3 .. v(H), and the density
exponent gamma = max_x e_H(x) / (x - 2).  Profiles are computed exactly:
branch-and-bound subset enumeration up to 24 vertices, closed forms for
grids, hypercubes and cycles at any size.  Each constructor tags its
graph with its family, and only a tagged graph gets a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rng import substream

EXACT_PROFILE_CAP = 24


@dataclass(frozen=True)
class TargetGraph:
    name: str
    n_H: int
    edges: tuple[tuple[int, int], ...]
    family: str | None = None  # a key of FAMILIES, set by its constructor

    def __post_init__(self) -> None:
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v < self.n_H):
                raise ValueError(f"bad edge ({u}, {v}) for n_H={self.n_H}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @property
    def e_total(self) -> int:
        return len(self.edges)

    @property
    def delta(self) -> int:
        degs = [0] * self.n_H
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return max(degs, default=0)


@dataclass(frozen=True)
class DensityProfile:
    """table[x] = e_H(x) for 3 <= x <= n_H; gamma = max e_H(x)/(x-2),
    argmax_x the smallest maximiser."""

    table: dict[int, int]
    gamma: float
    argmax_x: int


def make_grid(m: int) -> TargetGraph:
    """m x m square grid: m^2 vertices, 2m(m-1) edges."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    edges = []
    for i in range(m):
        for j in range(m):
            v = i * m + j
            if j + 1 < m:
                edges.append((v, v + 1))
            if i + 1 < m:
                edges.append((v, v + m))
    return TargetGraph(
        name=f"grid{m}x{m}", n_H=m * m, edges=tuple(sorted(edges)), family="grid"
    )


def make_hypercube(dim: int) -> TargetGraph:
    """dim-dimensional hypercube: 2^dim vertices, dim * 2^(dim-1) edges."""
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    edges = []
    for v in range(1 << dim):
        for b in range(dim):
            w = v ^ (1 << b)
            if v < w:
                edges.append((v, w))
    return TargetGraph(
        name=f"Q{dim}", n_H=1 << dim, edges=tuple(sorted(edges)), family="hypercube"
    )


def make_cycle(n: int) -> TargetGraph:
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return TargetGraph(name=f"C{n}", n_H=n, edges=tuple(sorted(edges)), family="cycle")


def make_path(n: int) -> TargetGraph:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return TargetGraph(
        name=f"P{n}", n_H=n, edges=tuple((i, i + 1) for i in range(n - 1)), family="path"
    )


def make_matching(n: int) -> TargetGraph:
    """Perfect matching on n vertices (n even): n/2 disjoint edges."""
    if n < 2 or n % 2:
        raise ValueError(f"need even n >= 2, got {n}")
    return TargetGraph(
        name=f"M{n}",
        n_H=n,
        edges=tuple((2 * i, 2 * i + 1) for i in range(n // 2)),
        family="matching",
    )


def random_tree(n: int, rng: np.random.Generator) -> TargetGraph:
    """Uniform labelled tree via Pruefer-sequence decoding."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n == 2:
        return TargetGraph(name="tree2", n_H=2, edges=((0, 1),), family="tree")
    seq = [int(x) for x in rng.integers(0, n, size=n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (v for v in range(n) if degree[v] == 1)
    edges.append((u, v))
    return TargetGraph(name=f"tree{n}", n_H=n, edges=tuple(sorted(edges)), family="tree")


FAMILIES = {
    "grid": make_grid,
    "hypercube": make_hypercube,
    "cycle": make_cycle,
    "path": make_path,
    "matching": make_matching,
    "tree": random_tree,
}


def build_target(family: str, size: int, seed: int) -> TargetGraph:
    """The family's graph at `size` (side for grids, dimension for
    hypercubes, vertex count otherwise); a random tree draws from the
    seed's "target-tree" substream."""
    if family not in FAMILIES:
        raise ValueError(f"unknown target family {family!r}")
    if family == "tree":
        return random_tree(size, substream(seed, "target-tree"))
    return FAMILIES[family](size)


def pad_target(h: TargetGraph, n: int) -> TargetGraph:
    """h with isolated vertices added up to n vertices, so the spanning
    search applies.  The padded graph has no family tag: no family's
    closed form describes it."""
    if h.n_H > n:
        raise ValueError(f"target has {h.n_H} vertices but host has {n}")
    if h.n_H == n:
        return h
    return TargetGraph(name=h.name, n_H=n, edges=h.edges)


def _max_edges_per_size(h: TargetGraph) -> list[int]:
    """best[x] = max edges inside an x-vertex subset, by enumeration over
    vertices in descending-degree order with a degree-sum bound."""
    n = h.n_H
    adj = [0] * n
    degs = [0] * n
    for u, v in h.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        degs[u] += 1
        degs[v] += 1
    order = sorted(range(n), key=lambda v: -degs[v])
    adj_o = [0] * n
    for i, v in enumerate(order):
        for j, w in enumerate(order):
            if adj[v] >> w & 1:
                adj_o[i] |= 1 << j
    deg_o = [degs[v] for v in order]
    # suffix_bound[pos] caps the extra edges any completion from pos can add
    suffix_bound = [0] * (n + 1)
    for pos in range(n - 1, -1, -1):
        suffix_bound[pos] = suffix_bound[pos + 1] + deg_o[pos]
    best = [-1] * (n + 1)
    best[0] = 0

    def rec(pos: int, chosen: int, size: int, edges_in: int) -> None:
        if edges_in > best[size]:
            best[size] = edges_in
        if pos == n:
            return
        if edges_in + suffix_bound[pos] <= min(best[size : n + 1]):
            return  # no completion can improve any larger size
        gained = (adj_o[pos] & chosen).bit_count()
        rec(pos + 1, chosen | (1 << pos), size + 1, edges_in + gained)
        rec(pos + 1, chosen, size, edges_in)

    rec(0, 0, 0, 0)
    return best


def _closed_form_table(h: TargetGraph) -> dict[int, int] | None:
    n = h.n_H
    if h.family == "cycle":
        # proper subsets induce unions of paths: at most x-1 edges
        return {x: (x - 1 if x < n else n) for x in range(3, n + 1)}
    if h.family == "grid":
        # densest x-vertex grid polyomino: floor(2x - 2 sqrt(x))
        table = {}
        for x in range(3, n + 1):
            k = math.isqrt(4 * x)
            if k * k < 4 * x:
                k += 1
            table[x] = 2 * x - k
        return table
    if h.family == "hypercube":
        # edge-isoperimetric optimum: first x vertices in binary order
        def g(x: int) -> int:
            if x <= 1:
                return 0
            k = x.bit_length() - 1
            if x == 1 << k:
                return k << (k - 1)
            rest = x - (1 << k)
            return (k << (k - 1)) + rest + g(rest)

        return {x: g(x) for x in range(3, n + 1)}
    return None


def density_profile(h: TargetGraph, exact: bool = False) -> DensityProfile:
    """Exact e_H(x) table and gamma.

    Uses the closed form for a graph tagged cycle, grid or hypercube unless
    subset enumeration is forced; other graphs require n_H <= 24.
    """
    if h.n_H < 3:
        raise ValueError(f"profile needs n_H >= 3, got {h.n_H}")
    table = None if exact else _closed_form_table(h)
    if table is None:
        if h.n_H > EXACT_PROFILE_CAP:
            raise ValueError(
                f"no closed form for {h.name} and n_H={h.n_H} exceeds "
                f"enumeration cap {EXACT_PROFILE_CAP}"
            )
        best = _max_edges_per_size(h)
        table = {x: best[x] for x in range(3, h.n_H + 1)}
    gamma = Fraction(-1)
    argmax_x = 3
    for x in range(3, h.n_H + 1):
        ratio = Fraction(table[x], x - 2)
        if ratio > gamma:
            gamma, argmax_x = ratio, x
    return DensityProfile(table=table, gamma=float(gamma), argmax_x=argmax_x)
