"""Coupling a d-out digraph with a binomial random digraph.

Each vertex of a d-out sample keeps its d choices in choice order, so
truncating vertex v's list after k_v entries, with k_v drawn from
Binomial(n-1, p1), leaves a uniform k_v-subset.  When every k_v <= d the
truncated digraph is therefore distributed exactly as the digraph where
each arc appears independently with probability p1, and it sits inside
the d-out sample by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .graphs import ColouredDigraph, _trusted, sample_d_out, split_probability


@dataclass(frozen=True)
class CouplingOutcome:
    """The counts of a coupling, and its d-out and inner digraphs built on
    first read from the generator state the d-out's keys start at, so a
    caller that reads only the counts never samples the d-out."""

    n: int
    d: int
    counts: tuple[int, ...]
    success: bool
    d_out_state: dict = field(hash=False)

    @property
    def k_max(self) -> int:
        return max(self.counts)

    @functools.cached_property
    def d_out(self) -> ColouredDigraph:
        rng = np.random.Generator(np.random.PCG64(0))  # seeded only to be overwritten
        rng.bit_generator.state = self.d_out_state
        return sample_d_out(self.n, self.d, rng)

    @functools.cached_property
    def inner(self) -> ColouredDigraph | None:
        """The d-out cut at the counts; None when the coupling failed."""
        return truncate(self.d_out, self.d, np.array(self.counts)) if self.success else None


def truncation_counts(n: int, p_target: float, rng: np.random.Generator) -> np.ndarray:
    """Per-vertex Binomial(n-1, p1) counts, where p1 solves
    (1-p1)^2 = 1-p_target, so forgetting orientation of the truncated
    digraph gives the undirected model at p_target."""
    return rng.binomial(n - 1, split_probability(p_target).p1, size=n)


def truncate(dgr: ColouredDigraph, d: int, counts: np.ndarray) -> ColouredDigraph | None:
    """Keep the first counts[v] arcs of each vertex v, in stored arc order,
    grouped by tail; None when some count exceeds d.  counts must be an
    integer array of shape (n,) with no negative entry."""
    if np.shape(counts) != (dgr.n,):
        raise ValueError(f"need counts of shape ({dgr.n},), one per vertex, got {np.shape(counts)}")
    if not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(f"need integer counts, got dtype {counts.dtype}")
    if counts.min(initial=0) < 0:
        raise ValueError(f"need counts >= 0, got {counts.min()}")
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
    (inner None) when some count exceeds d.  rng must run on PCG64: the
    d-out's n(n-1) keys, one 64-bit word each, are skipped with
    `advance`, so rng ends where drawing them would leave it.  Every
    argument is checked before rng moves."""
    if not eps > 0:  # NaN fails too
        raise ValueError(f"need eps > 0, got {eps}")
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got d={d}, n={n}")
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise ValueError(f"couple needs a PCG64 generator, got {type(bits).__name__}")
    split_probability(p_target)
    state = bits.state
    bits.advance(n * (n - 1))
    if state["has_uint32"]:
        # advance drops a buffered 32-bit half word, which drawing keys keeps
        bits.state = {**bits.state, "has_uint32": 1, "uinteger": state["uinteger"]}
    counts = tuple(truncation_counts(n, p_target, rng).tolist())
    return CouplingOutcome(n=n, d=d, counts=counts, success=max(counts) <= d, d_out_state=state)
