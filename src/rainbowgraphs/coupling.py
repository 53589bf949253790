"""Coupling a d-out digraph with a binomial random digraph.

Each vertex of a d-out sample keeps its d choices in choice order, so
truncating vertex v's list after k_v entries, with k_v drawn from
Binomial(n-1, p1), leaves a uniform k_v-subset.  When every k_v <= d the
truncated digraph is therefore distributed exactly as the digraph where
each arc appears independently with probability p1, and it sits inside
the d-out sample by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import ColouredDigraph, _trusted, sample_d_out, split_probability


@dataclass(frozen=True)
class CouplingOutcome:
    d_out: ColouredDigraph
    counts: tuple[int, ...]
    inner: ColouredDigraph | None
    success: bool

    @property
    def k_max(self) -> int:
        return max(self.counts)


def truncation_counts(n: int, p_target: float, rng: np.random.Generator) -> np.ndarray:
    """Per-vertex Binomial(n-1, p1) counts, where p1 solves
    (1-p1)^2 = 1-p_target, so forgetting orientation of the truncated
    digraph gives the undirected model at p_target."""
    return rng.binomial(n - 1, split_probability(p_target).p1, size=n)


def truncate(dgr: ColouredDigraph, d: int, counts: np.ndarray) -> ColouredDigraph | None:
    """Keep the first counts[v] arcs of each vertex v, in stored arc order,
    grouped by tail; None when some count exceeds d.  counts must have
    shape (n,)."""
    if np.shape(counts) != (dgr.n,):
        raise ValueError(f"need counts of shape ({dgr.n},), one per vertex, got {np.shape(counts)}")
    if counts.max(initial=0) > d:
        return None
    tails = dgr.arcs[:, 0]
    order = np.argsort(tails, kind="stable")
    sizes = np.bincount(tails, minlength=dgr.n)
    # position i of the tail-sorted order is kept when it falls before its
    # group's offset plus its tail's count
    limit = np.repeat(np.cumsum(sizes) - sizes + counts, sizes)
    return _trusted(ColouredDigraph, dgr.n, dgr.kappa, dgr.arcs[order[np.arange(len(order)) < limit]])


def couple(
    n: int, d: int, p_target: float, eps: float, rng: np.random.Generator
) -> CouplingOutcome:
    """Sample d-out and truncate it at Binomial(n-1, p1) counts; fails
    (inner absent) when some count exceeds d."""
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {eps}")
    d_out = sample_d_out(n, d, rng)
    counts = truncation_counts(n, p_target, rng)
    inner = truncate(d_out, d, counts)
    return CouplingOutcome(
        d_out=d_out,
        counts=tuple(counts.tolist()),
        inner=inner,
        success=inner is not None,
    )
