"""Randomly coloured random graphs and digraphs.

Vertices are 0-indexed.  Colours are integers in [1, kappa]; the sentinel
colour 0 marks an uncoloured arc (used by d-out samples before colouring).
Edge probability p splits into an arc probability p1 with
(1 - p1)**2 = 1 - p, so that sampling each ordered pair with probability
p1 and forgetting orientation reproduces the undirected model.

Every coloured graph is one read-only (m, 3) int64 array of rows:
(tail, head, colour) for a digraph, (u, v, colour) with u < v for a
graph.  Where the rows come from decides how a graph takes them: the
public constructors copy and check the rows they are given, and the
package's own samplers and transforms, whose rows are valid by
construction, hand them over through `_trusted` with no copy and no
check.

Per-row Generator calls define the coloured samplers' streams: for each
tail t, `sample_coloured_digraph` draws rng.random(n) < p1 with slot t
dropped, then rng.integers(1, kappa + 1, k) for the row's k heads; for
each u < n - 1, `sample_coloured_graph` draws rng.random(n - 1 - u) < p
over the vertices above u, then the same colour call.  Both read those
draws from blocks of the generator's raw words, so rng must be a PCG64
Generator (as `rng.substream` and numpy's default_rng return) and
kappa <= 2**32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

UNCOLOURED = 0


def _int64_rows(rows) -> np.ndarray:
    """A new (m, 3) int64 array, owning its data, of the triples in rows,
    whose entries must be integers that int64 holds."""
    a = np.asarray(rows)
    if a.dtype != np.int64:
        if a.dtype.kind not in "biuf":
            raise ValueError(f"rows must hold integers, got {a.dtype} entries")
        with np.errstate(invalid="ignore"):  # a float beyond int64 casts to a junk value
            b = a.astype(np.int64)
        wrong = b != a
        if np.count_nonzero(wrong):
            raise ValueError(f"rows must hold int64 integers, got {a[wrong][0].item()!r}")
        a = b
    return np.array(a.reshape(len(a), 3))  # raises unless m triples


def _frozen_rows(rows, n: int, kappa: int, undirected: bool) -> np.ndarray:
    """A read-only (m, 3) int64 copy of the rows (u, v, colour), after
    checking 1 <= n < 2**63, 0 <= kappa < 2**63, endpoints in [0, n), no
    self-loop (u < v for an undirected graph), no repeated pair and colour
    0 or in [1, kappa]."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n >= 2**63 or not 0 <= kappa < 2**63:
        raise ValueError(f"need n < 2**63 and 0 <= kappa < 2**63, got n={n}, kappa={kappa}")
    a = _int64_rows(rows)
    u, v = a[:, 0], a[:, 1]
    # negative entries wrap to huge unsigned values, so one comparison
    # bounds every column from both sides
    outside = a.view(np.uint64) >= np.array([n, n, kappa + 1], dtype=np.uint64)
    loops = u >= v if undirected else u == v
    kind = "edge" if undirected else "arc"
    if np.count_nonzero(outside) or np.count_nonzero(loops):
        row = a[np.argmax(outside.any(axis=1) | loops)].tolist()
        raise ValueError(f"bad {kind} {tuple(row)} for n={n}, kappa={kappa}")
    # sorting the pairs themselves, not a key u * n + v that wraps in
    # int64 once n * n passes 2**63
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    repeats = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
    if np.count_nonzero(repeats):
        i = np.argmax(repeats)
        raise ValueError(f"duplicate {kind} ({u[i]}, {v[i]})")
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


def _trusted(cls, n: int, kappa: int, rows: np.ndarray):
    """A `cls` graph of rows the package built valid: an int64 (m, 3)
    C-contiguous array that owns its data or is a view of a read-only
    array.  The rows are frozen and kept, with no copy and no check."""
    rows.flags.writeable = False
    graph = object.__new__(cls)
    for field, value in zip(fields(cls), (n, kappa, rows)):
        object.__setattr__(graph, field.name, value)
    return graph


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


def split_probability(p: float) -> ProbabilitySplit:
    """Solve (1 - p1)^2 = 1 - p for p1 in [0, 1).

    p = 1 is rejected: no p1 < 1 satisfies the identity.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    p1 = 1.0 - math.sqrt(1.0 - p)
    return ProbabilitySplit(p=p, p1=p1)


def _check_sample_params(n: int, kappa: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if kappa < 1:
        raise ValueError(f"need kappa >= 1, got {kappa}")


# rows per block of `_coloured_rows`: about 1.1 MB of words at n=1000.
# Of 32, 64, 128 and 256 rows, 128 gave lemma3 runs at n=1000 the lowest
# peak resident set.
_BLOCK_ROWS = 128


def _row_capacity(pairs: int, p: float) -> int:
    """Rows to allocate for a sample of `pairs` pairs, each present with
    probability p: at most `pairs`, and 8 sqrt(mu) + 16 above the mean mu."""
    mu = pairs * p
    return min(pairs, math.floor(mu + 8 * math.sqrt(mu) + 16))


def _lemire_draws(bg, k: int, kappa: int, reject: int, has: int, uint: int):
    """k colours of `integers(1, kappa + 1, k)`, read word by word from bg
    with the cached half (has, uint) first, and the cache they leave."""
    colours = []
    while len(colours) < k:
        if has:
            x, has = uint, 0
        else:
            word = bg.random_raw()
            x, has, uint = word & 0xFFFFFFFF, 1, word >> 32
        if x * kappa & 0xFFFFFFFF >= reject:
            colours.append(1 + (x * kappa >> 32))
    return colours, has, uint


def _coloured_rows(rng: np.random.Generator, n: int, p: float, kappa: int, directed: bool) -> np.ndarray:
    """The rows (t, head, colour) that the loop

        for t in range(n if directed else n - 1):
            mask = rng.random(n if directed else n - 1 - t) < p
            if directed:
                mask[t] = False
            heads = np.flatnonzero(mask) + (0 if directed else t + 1)
            if len(heads):
                colours = rng.integers(1, kappa + 1, len(heads))

    draws, read from blocks of rng's raw PCG64 words, with rng left where
    the loop leaves it.  A word w gives the uniform (w >> 11) / 2**53.  A
    colour reads a 32-bit half x, the low half of a fresh word first (the
    high half stays cached in the generator, across calls), and is
    Lemire's 1 + (x * kappa >> 32), with x redrawn while x * kappa % 2**32
    is below (2**32 - kappa) % kappa.  So the draws of a block of rows
    read, in order, the halves of the words between the rows' windows.  A
    walk over the rows counts each row's hits to find those words; heads
    and colours are then read with array operations.  A block ends at its
    first redrawn colour, whose row is drawn word by word.  Every block
    writes its rows into one array of `_row_capacity` rows, which grows
    only when a sample has more; the filled prefix comes back read-only.
    """
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64:
        raise ValueError(f"need a PCG64 generator, got {type(bg).__name__}")
    if kappa > 2**32:
        raise ValueError(f"need kappa <= 2**32, got {kappa}")
    kappa = int(kappa)  # a numpy integer would overflow x * kappa below
    mark = bg.state  # buf[0] is word `base` of the stream from here
    has, uint = mark["has_uint32"], mark["uinteger"]
    cut = math.ceil(p * 2**53)  # (w >> 11) / 2**53 < p  iff  w < cut << 11
    reject = (2**32 - kappa) % kappa
    reads = int(kappa > 1)  # integers(1, 2) reads no words
    rows = n if directed else n - 1
    out = np.empty((_row_capacity(n * (n - 1) // (1 if directed else 2), p), 3), np.int64)
    filled, buf, base, row = 0, np.zeros(0, np.uint64), 0, 0
    while row < rows:
        window = [n if directed else n - 1 - t for t in range(row, min(row + _BLOCK_ROWS, rows))]
        # the rows' expected words (a hit reads half a colour word), and
        # room for the first row at its longest
        need = int(sum(window) * (1 + p / 2)) + 2 * window[0]
        if len(buf) < need:
            buf = np.concatenate([buf, bg.random_raw(need - len(buf))])
        hit = buf < np.uint64(cut << 11) if cut < 2**53 else np.ones(len(buf), bool)
        # per row: tail, hits, window start, and the cache (has, the word
        # whose high half is `uint`, -1 before buf) at its first colour
        walk, heads, spans, at, src, entry = [], [], [], 0, -1, has
        for t, width in zip(range(row, rows), window):
            if at + width > len(buf):
                break
            if directed and hit[at + t]:
                hit[at + t] = False  # no loop at t
            slots = hit[at : at + width].nonzero()[0]
            fresh = max(len(slots) - has, 0) * reads
            end = at + width + (fresh + 1) // 2  # past the row's colour words
            if end > len(buf):
                break
            walk += (t, len(slots), at, has, src)
            heads.append(slots if directed else slots + t + 1)
            if end > at + width:
                spans.append(buf[at + width : end])
                src = end - 1
            has = fresh & 1 if len(slots) and reads else has
            at = end
        tails, counts = np.fromiter(walk, np.int64).reshape(-1, 5)[:, :2].T
        size = sum(walk[1::5])
        if filled + size > len(out):
            out = np.concatenate([out[:filled], np.empty((max(len(out), size), 3), np.int64)])
        block = out[filled : filled + size]
        block[:, 0] = np.repeat(tails, counts)
        block[:, 1] = np.concatenate(heads)
        last = len(tails) - 1
        if reads:
            halves = np.concatenate([buf[:0], *spans]).astype("<u8", copy=False).view("<u4")
            x = np.concatenate([np.full(entry, uint, np.uint32), halves])[: len(block)]
            m = x * np.uint64(kappa)
            block[:, 2] = (m >> 32) + 1
            redrawn = np.flatnonzero((m & 0xFFFFFFFF) < reject)
            if len(redrawn):
                last = int(np.searchsorted(np.cumsum(counts), redrawn[0], "right"))
                t, k, at, has, src = walk[5 * last : 5 * last + 5]
                block = block[: counts[: last + 1].sum()]
                bg.state = mark
                bg.advance(base + at + window[t - row])
                uint = int(buf[src] >> 32) if src >= 0 else uint
                block[len(block) - k :, 2], has, uint = _lemire_draws(bg, k, kappa, reject, has, uint)
                mark, buf, base, at = bg.state, buf[:0], 0, 0
            elif src >= 0:
                uint = int(buf[src] >> 32)
        else:
            block[:, 2] = 1
        filled += len(block)
        buf, base, row = buf[at:], base + at, int(tails[last]) + 1
    bg.state = mark
    bg.advance(base)
    bg.state = {**bg.state, "has_uint32": has, "uinteger": uint}
    out.flags.writeable = False
    return out[:filled]


def sample_coloured_graph(
    n: int, p: float, kappa: int, rng: np.random.Generator
) -> ColouredGraph:
    """Each unordered pair appears independently with probability p; each
    present edge gets an independent uniform colour from [1, kappa]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    _check_sample_params(n, kappa)
    return _trusted(ColouredGraph, n, kappa, _coloured_rows(rng, n, p, kappa, directed=False))


def sample_coloured_digraph(
    n: int, p1: float, kappa: int, rng: np.random.Generator
) -> ColouredDigraph:
    """Each of the n(n-1) ordered pairs is an arc independently with
    probability p1, coloured uniformly from [1, kappa]."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")
    _check_sample_params(n, kappa)
    return _trusted(ColouredDigraph, n, kappa, _coloured_rows(rng, n, p1, kappa, directed=True))


def coalesce_orientation(
    d: ColouredDigraph, rng: np.random.Generator
) -> ColouredGraph:
    """Forget orientation.  Where both (u,v) and (v,u) are present the edge
    colour is a uniform choice between the two arc colours."""
    t, h, c = d.arcs.T
    u, v = np.minimum(t, h), np.maximum(t, h)
    # a stable sort on the pairs, not on a key u * n + v that wraps in int64,
    # keeps each pair's arcs in stored order; pick holds each pair's first
    order = np.lexsort((v, u))
    pick = np.flatnonzero(np.diff(u[order], prepend=-1) | np.diff(v[order], prepend=-1))
    twins = np.diff(pick, append=len(order)) == 2
    # one uniform per pair with two arcs, in pair order: below 1/2 takes
    # the colour of the pair's second stored arc
    pick[twins] += rng.random(np.count_nonzero(twins)) < 0.5
    rows = order[pick]
    return _trusted(ColouredGraph, d.n, d.kappa, np.column_stack([u[rows], v[rows], c[rows]]))


def _other_vertex(idx: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The idx-th smallest vertex other than v, entrywise (v broadcasts)."""
    return idx + (idx >= v)


def _vertex_orders(n: int, rng: np.random.Generator) -> np.ndarray:
    """An (n, n-1) array whose row v lists the vertices other than v in
    uniform random order: the argsort of row v of rng.random((n, n-1)),
    whose entry j keys the j-th smallest vertex other than v."""
    return _other_vertex(np.argsort(rng.random((n, n - 1)), axis=1), np.arange(n)[:, None])


def sample_d_out(n: int, d: int, rng: np.random.Generator) -> ColouredDigraph:
    """Every vertex picks d distinct uniform out-neighbours from the other
    n-1 vertices: the first d of its `_vertex_orders` row.  Heads are
    stored in choice order (arcs grouped by tail); the coupling module
    consumes that order.  Arcs are uncoloured."""
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got d={d}, n={n}")
    heads = _vertex_orders(n, rng)[:, :d].ravel()
    arcs = np.column_stack([np.repeat(np.arange(n), d), heads, np.full(n * d, UNCOLOURED)])
    return _trusted(ColouredDigraph, n, 0, arcs)


def random_permutation_family(n: int, rng: np.random.Generator) -> PermutationFamily:
    """Independent uniform permutations pi_v of [n] \\ {v}: pi_v maps the
    j-th smallest vertex other than v to entry j of v's `_vertex_orders`
    row, drawn from the same keys as a d-out sample."""
    perms = np.diag(np.arange(n))
    perms[~np.eye(n, dtype=bool)] = _vertex_orders(n, rng).ravel()
    return PermutationFamily(perms)


def relabel(keys: np.ndarray, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """pi_v(h) for every pair (v, h) = (tails[i], heads[i]) with h != v,
    where pi is the family `random_permutation_family` draws from the
    (n, n-1) keys: h is entry j = h - [h > v] of row v, and pi_v(h) is
    entry j of v's `_vertex_orders` row, gathered only at the given pairs."""
    return _other_vertex(np.argsort(keys, axis=1)[tails, heads - (heads > tails)], tails)


def apply_permutations(d: ColouredDigraph, f: PermutationFamily) -> ColouredDigraph:
    """Map every arc (v, w, c) to (v, pi_v(w), c).

    Colours and out-degrees are unchanged; arc order is preserved.
    """
    if f.n != d.n:
        raise ValueError(f"family covers {f.n} vertices, digraph has {d.n}")
    t, h, c = d.arcs.T
    return _trusted(ColouredDigraph, d.n, d.kappa, np.column_stack([t, f.perms[t, h], c]))
