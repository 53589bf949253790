"""Output checks made apart from the program.

Nothing here imports `rainbowgraphs`.  Each check either recomputes the
answer by another method (a bipartite matching instead of the program's
max-flow network, a vectorised log-sum-exp, an exhaustive Hamilton-cycle
search) or tests a property the method's output must have.  Checks take
plain tuples and arrays and raise `CheckFailed` with a reason.
"""

from __future__ import annotations

import math
import zlib

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.special import gammaln, logsumexp


class CheckFailed(Exception):
    """An output of the program is wrong."""


class KnownFault(CheckFailed):
    """An output is wrong in the way a fault of the program, named in the
    benchmark's README, makes it wrong on every input of the workload."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def arc_probability(p: float) -> float:
    """The p1 with (1 - p1)^2 = 1 - p."""
    return 1.0 - math.sqrt(1.0 - p)


def trial_rng(seed: int, trial: int, tag: str) -> np.random.Generator:
    """The generator the harness documents for (master seed, trial, tag)."""
    return np.random.default_rng([seed, trial, zlib.crc32(tag.encode("utf-8"))])


def sample_arcs(n: int, p1: float, kappa: int, rng: np.random.Generator) -> np.ndarray:
    """Replay the documented draw order of a coloured random digraph: per
    tail, n uniforms (the self pair masked out), then one colour draw for
    the present heads.  Returns an (m, 3) array of (tail, head, colour)."""
    rows = []
    for t in range(n):
        mask = rng.random(n) < p1
        mask[t] = False
        heads = np.flatnonzero(mask)
        if len(heads):
            colours = rng.integers(1, kappa + 1, size=len(heads))
            rows.append(np.column_stack([np.full(len(heads), t), heads, colours]))
    if not rows:
        return np.zeros((0, 3), dtype=np.int64)
    return np.concatenate(rows).astype(np.int64)


def colour_vertex_flow(n: int, kappa: int, d: int, arcs: np.ndarray) -> int:
    """Largest number of colours that can be handed out, each colour to at
    most one tail that carries it and each tail at most d colours.

    This is the max-flow value of the colour/vertex network, computed as a
    maximum bipartite matching (Hopcroft-Karp) between colours and d slots
    per vertex, with no flow network built.
    """
    arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 3)
    pairs = np.unique(arcs[:, 2] * n + arcs[:, 0])
    colours, tails = np.divmod(pairs, n)
    rows = np.repeat(colours, d)
    cols = (tails[:, None] * d + np.arange(d)[None, :]).ravel()
    graph = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(kappa + 1, n * d)
    )
    match = maximum_bipartite_matching(graph, perm_type="column")
    return int(np.count_nonzero(match >= 0))


def check_flow_record(success: bool, flow_value: int | None, own_flow: int, target: int) -> None:
    """A lemma3 record: the flow value is the independent one and success
    means it reached d*n."""
    require(flow_value == own_flow, f"flow_value {flow_value} != independent {own_flow}")
    require(success == (own_flow == target), f"success={success} with flow {own_flow}/{target}")


def check_coupling(
    d_out_arcs, counts, inner_arcs, success: bool, k_max: int, n: int, d: int
) -> None:
    """The binomial-truncation coupling's defining properties."""
    out = np.asarray(d_out_arcs, dtype=np.int64).reshape(-1, 3)
    counts = np.asarray(counts, dtype=np.int64)
    require(len(counts) == n, "one count per vertex")
    require(k_max == int(counts.max()), f"k_max {k_max} != max count {counts.max()}")
    require(success == (k_max <= d), f"success={success} with k_max={k_max}, d={d}")
    require(len(out) == n * d, f"d-out sample has {len(out)} arcs, not {n * d}")
    order = np.argsort(out[:, 0], kind="stable")
    heads = out[order, 1].reshape(n, d)
    require(bool(np.all(out[order, 0].reshape(n, d) == np.arange(n)[:, None])), "not d arcs per vertex")
    require(bool(np.all(heads != np.arange(n)[:, None])), "d-out head equals its tail")
    sorted_heads = np.sort(heads, axis=1)
    require(bool(np.all(sorted_heads[:, 1:] != sorted_heads[:, :-1])), "repeated d-out head")
    if not success:
        require(inner_arcs is None, "failed coupling returned an inner digraph")
        return
    require(inner_arcs is not None, "successful coupling without an inner digraph")
    inner = np.asarray(inner_arcs, dtype=np.int64).reshape(-1, 3)
    require(bool(np.all(np.isin(inner[:, 0] * n + inner[:, 1], out[:, 0] * n + out[:, 1]))),
            "inner arc not in the d-out sample")
    kept = np.arange(d)[None, :] < counts[:, None]
    inner_sorted = inner[np.argsort(inner[:, 0], kind="stable")]
    require(len(inner_sorted) == int(kept.sum()), "inner arc count != sum of counts")
    require(bool(np.all(inner_sorted[:, 0] == np.repeat(np.arange(n), counts))),
            "inner out-degrees differ from the counts")
    require(bool(np.all(inner_sorted[:, 1] == heads[kept])),
            "a vertex does not keep the first counts[v] of its choices")


def is_rainbow_hamilton_cycle(n: int, edges, cycle) -> bool:
    """Whether `cycle` visits every vertex once along edges of pairwise
    distinct colours, closing back to its start."""
    colour = {(min(u, v), max(u, v)): c for u, v, c in edges}
    if sorted(cycle) != list(range(n)) or n < 3:
        return False
    used = [colour.get((min(a, b), max(a, b))) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    return None not in used and len(set(used)) == n


def rainbow_hamilton_cycle(n: int, edges) -> list[int] | None:
    """Exhaustive search for a Hamilton cycle whose n edges carry pairwise
    distinct colours.  Every such cycle passes vertex 0, so paths start
    there; returns the cycle's vertex order or None."""
    if n < 3:
        return None
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, c in edges:
        adj[u].append((v, c))
        adj[v].append((u, c))
    path = [0]
    on_path = [False] * n
    on_path[0] = True
    used: set[int] = set()

    def extend(v: int) -> bool:
        if len(path) == n:
            return any(w == 0 and c not in used for w, c in adj[v])
        for w, c in adj[v]:
            if on_path[w] or c in used:
                continue
            path.append(w)
            on_path[w] = True
            used.add(c)
            if extend(w):
                return True
            path.pop()
            on_path[w] = False
            used.discard(c)
        return False

    return list(path) if extend(0) else None


def log_theta_terms(n: int, d: int, kappa: int, eps: float, p1: float) -> tuple[float, float]:
    """The two parts of log theta, computed apart from the program: the
    log-sum-exp of L(s) over s = kappa-d*n+1 .. kappa-1 in one vectorised
    pass, and the log of the Chernoff term n*exp(-eps^2 n p1 / 2), taken
    in log space so that it counts even where it underflows as a float."""
    s = np.arange(kappa - d * n + 1, kappa, dtype=np.float64)
    r = kappa - s
    k = np.ceil(r / d)
    log_l = (
        math.log(2.0)
        + gammaln(kappa + 1.0) - gammaln(s + 1.0) - gammaln(r + 1.0)
        + gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
        + r * (1.0 - eps) * n * p1 / d * np.log(r / kappa)
    )
    return float(logsumexp(log_l)), math.log(n) - eps**2 * n * p1 / 2.0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * abs(b)


def check_theta(log_theta: float, chernoff_term: float, log_sum_l: float, log_chernoff: float) -> None:
    """log theta is log(chernoff + sum of L(s)), so it is at least the log
    Chernoff term and equals the log-sum-exp of both parts.

    A result that is the L-sum alone, with the program's Chernoff term
    0.0 where its log says otherwise, is the known underflow fault of
    `bounds.theta`: it fails with `KnownFault`.
    """
    reference = float(np.logaddexp(log_sum_l, log_chernoff))
    if log_theta < log_chernoff and chernoff_term == 0.0 and _close(log_theta, log_sum_l):
        raise KnownFault(
            f"Chernoff term underflowed to 0.0 and was dropped: log_theta {log_theta!r} "
            f"is the L-sum alone; log Chernoff term {log_chernoff!r}, reference {reference!r}"
        )
    require(log_theta >= log_chernoff,
            f"log_theta {log_theta!r} below the log Chernoff term {log_chernoff!r}")
    require(_close(log_theta, reference), f"log_theta {log_theta!r} != reference {reference!r}")


def check_pipeline_verdict(
    verdict: str,
    k_max: int | None,
    n: int,
    d: int,
    own_flow: int,
    own_k_max: int,
    sampled: np.ndarray,
    host_edges=None,
    cycle: list[int] | None = None,
) -> None:
    """A pipeline trial's verdict against independent recomputations: the
    flow of the sampled digraph, the truncation counts of the trial's
    stream, and an exhaustive rainbow Hamilton-cycle search of the host."""
    if verdict == "extraction-failed":
        require(own_flow < d * n, f"extraction failed, yet independent flow is {own_flow}")
        return
    require(own_flow == d * n, f"{verdict} after an extraction, yet flow is {own_flow}")
    require(k_max == own_k_max, f"k_max {k_max} != independent {own_k_max}")
    if verdict == "coupling-failed":
        require(own_k_max > d, f"coupling failed with k_max={own_k_max} <= d={d}")
        return
    require(verdict in ("found", "no-embedding"), f"unknown verdict {verdict!r}")
    require(own_k_max <= d, f"{verdict} with k_max={own_k_max} > d={d}")
    require(host_edges is not None, f"{verdict} without a search of the host")
    sample_edges = {(min(t, h), max(t, h), c) for t, h, c in sampled.tolist()}
    require(all((u, v, c) in sample_edges for u, v, c in host_edges),
            "host edge not in the sampled digraph")
    if verdict == "found":
        require(cycle is not None and is_rainbow_hamilton_cycle(n, host_edges, cycle),
                "found, but the host has no rainbow Hamilton cycle")
    else:
        require(cycle is None, "no-embedding, but the host has a rainbow Hamilton cycle")
