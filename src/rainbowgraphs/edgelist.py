"""Edge-list text format shared by the CLI.

First line: `n kappa`.  Then one line per edge or arc: `u v colour`
(0-indexed vertices, colour >= 1, or 0 for uncoloured; arcs are written
tail head).
"""

from __future__ import annotations

from typing import TextIO

from .graphs import ColouredDigraph, ColouredGraph


def write_graph(g: ColouredGraph | ColouredDigraph, out: TextIO) -> None:
    out.write(f"{g.n} {g.kappa}\n")
    items = g.edges if isinstance(g, ColouredGraph) else g.arcs
    for u, v, c in items.tolist():
        out.write(f"{u} {v} {c}\n")


def _parse(text: str) -> tuple[int, int, list[tuple[int, int, int]]]:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    try:
        n, kappa = map(int, lines[0].split())
        rows = [tuple(map(int, ln.split())) for ln in lines[1:]]
    except ValueError as exc:
        raise ValueError(f"malformed edge list: {exc}") from exc
    if any(len(r) != 3 for r in rows):
        raise ValueError("each edge line must be `u v colour`")
    return n, kappa, rows  # type: ignore[return-value]


def read_graph(text: str) -> ColouredGraph:
    n, kappa, rows = _parse(text)
    edges = [(min(u, v), max(u, v), c) for u, v, c in rows]
    return ColouredGraph(n=n, kappa=kappa, edges=edges)


def read_digraph(text: str) -> ColouredDigraph:
    n, kappa, rows = _parse(text)
    return ColouredDigraph(n=n, kappa=kappa, arcs=rows)
