"""Per-layer spans for the traced run, recorded from outside the package.

The package binds names with from-imports (`harness.max_flow` is the same
object as `flow.max_flow`), so a function is replaced wherever a module of
the package holds it: as a module attribute, as a value of a module-level
dict (the harness's mode table) or as a method of a class.  `replaced`
restores every site on exit, so untimed code paths see the original
objects again and untraced runs contain no wrappers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

PACKAGE = "rainbowgraphs"


def _sites(original: Callable) -> list[tuple[object, object]]:
    """(container, key) pairs of the package that hold `original`."""
    sites: list[tuple[object, object]] = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in vars(module).items():
            if value is original:
                sites.append((module, key))
            elif isinstance(value, dict):
                sites.extend((value, k) for k, v in value.items() if v is original)
            elif isinstance(value, type) and value.__module__ == name:
                sites.extend((value, k) for k, v in vars(value).items() if v is original)
    return sites


def _set(container: object, key: object, value: object) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


@contextmanager
def replaced(replacements: dict[Callable, Callable]) -> Iterator[None]:
    """Swap each original function for its replacement at every site of
    the package that holds it; fails if a function is held nowhere."""
    swapped: list[tuple[object, object, Callable]] = []
    try:
        for original, replacement in replacements.items():
            sites = _sites(original)
            if not sites:
                raise LookupError(f"{original.__qualname__} is not bound in {PACKAGE}")
            for container, key in sites:
                _set(container, key, replacement)
                swapped.append((container, key, original))
        yield
    finally:
        for container, key, original in reversed(swapped):
            _set(container, key, original)


def layer_functions(rg) -> dict[str, list[Callable]]:
    """The wrapped public functions, by metric prefix.  `harness.trial`
    covers the per-mode trial functions the harness dispatches to."""
    return {
        "graphs.sample_coloured_digraph": [rg.graphs.sample_coloured_digraph],
        "graphs.sample_d_out": [rg.graphs.sample_d_out],
        "graphs.random_permutation_family": [rg.graphs.random_permutation_family],
        "graphs.apply_permutations": [rg.graphs.apply_permutations],
        "graphs.coalesce_orientation": [rg.graphs.coalesce_orientation],
        "flow.build_network": [rg.flow.build_network],
        "flow.capacity_matrix": [rg.flow.FlowNetwork.capacity_matrix],
        "flow.max_flow": [rg.flow.max_flow],
        "flow.extract_rainbow_dout": [rg.flow.extract_rainbow_dout],
        "flow.extract_via_permutation": [rg.flow.extract_via_permutation],
        "coupling.couple": [rg.coupling.couple],
        "search.find_rainbow_copy_exact": [rg.search.find_rainbow_copy_exact],
        "bounds.theta": [rg.bounds.theta],
        "rng.substream": [rg.rng.substream],
        "harness.build_target": [rg.harness.build_target],
        "harness.trial": list(dict.fromkeys(rg.harness._TRIAL_FN.values())),
    }


def network_arcs(net) -> int:
    """Arcs of a colour/vertex flow network: source->colour, the middle
    (colour, vertex) arcs, and vertex->sink."""
    return net.kappa + len(net.middle_arcs) + net.n


class Tracer:
    """Self time and call counts per layer.

    Each span's duration is added to its parent's child total, so a
    layer's self time is its span minus the wrapped calls made inside it.
    """

    def __init__(self, layers: dict[str, list[Callable]]) -> None:
        self.layers = layers
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.network_arcs: list[int] = []
        self._children: list[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "flow.max_flow":
                self.network_arcs.append(network_arcs(args[0]))
            children.append(0)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter_ns() - start
                self.self_ns[name] += span - children.pop()
                self.calls[name] += 1
                if children:
                    children[-1] += span

        return traced

    def active(self):
        """Context in which every layer function is wrapped."""
        return replaced(
            {fn: self._wrap(name, fn) for name, fns in self.layers.items() for fn in fns}
        )

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation self time and calls for every layer, 0 for a layer
        the workload never calls, plus the median network size."""
        out: dict[str, tuple[float, str]] = {}
        for name in self.layers:
            out[f"{name}.ms"] = (self.self_ns[name] / 1e6 / ops, "ms")
            out[f"{name}.calls"] = (self.calls[name] / ops, "count")
        arcs = sorted(self.network_arcs)
        out["flow.network_arcs"] = (float(arcs[len(arcs) // 2]) if arcs else 0.0, "count")
        return out
