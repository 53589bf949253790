"""Coupling a d-out digraph with a binomial random digraph.

Each vertex of a d-out sample keeps its d choices in choice order, so
truncating vertex v's list after k_v entries, with k_v drawn from
Binomial(n-1, p1), leaves a uniform k_v-subset.  When every k_v <= d the
truncated digraph is therefore distributed exactly as the digraph where
each arc appears independently with probability p1, and it sits inside
the d-out sample by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import ColouredDigraph, sample_d_out, split_probability


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
    grouped by tail; None when some count exceeds d."""
    if counts.max(initial=0) > d:
        return None
    tails = dgr.arcs[:, 0]
    order = np.argsort(tails, kind="stable")
    sizes = np.bincount(tails, minlength=dgr.n)
    # position i of the tail-sorted order is kept when it falls before its
    # group's offset plus its tail's count
    limit = np.repeat(np.cumsum(sizes) - sizes + counts, sizes)
    return ColouredDigraph(dgr.n, dgr.kappa, dgr.arcs[order[np.arange(len(order)) < limit]])


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


def regime_out_degree(n: int, eps: float) -> int:
    """Default d making the per-vertex Chernoff condition comfortable at
    desk scale: ceil(20 * eps^-2 * ln n)."""
    if n < 2 or eps <= 0:
        raise ValueError(f"need n >= 2 and eps > 0, got n={n}, eps={eps}")
    return math.ceil(20.0 * eps**-2 * math.log(n))


def chernoff_success_estimate(
    n: int, d: int, p1: float, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo frequency of the event max_v Binomial(n-1, p1) <= d,
    with a 95% normal-approximation confidence half-width."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    counts = rng.binomial(n - 1, p1, size=(trials, n))
    freq = float(np.mean(counts.max(axis=1) <= d))
    half_width = 1.96 * math.sqrt(freq * (1.0 - freq) / trials)
    return freq, half_width
