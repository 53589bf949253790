"""The traced run's wrappers: where they go, what they count, and that
they come off again."""

from __future__ import annotations

import time

import pytest

import spans
import rainbowgraphs
from rainbowgraphs import flow, harness


def _lemma3(trials: int) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        n=30, p=0.5, kappa=90, eps=0.5, d=2, trials=trials, seed=4, mode="lemma3"
    )


def test_wrappers_cover_every_lookup_site_and_come_off():
    original = flow.max_flow
    tracer = spans.Tracer(spans.layer_functions(rainbowgraphs))
    with tracer.active():
        assert harness.max_flow is flow.max_flow is rainbowgraphs.max_flow
        assert flow.max_flow is not original
        assert harness._TRIAL_FN["lemma3"] is not harness._lemma3_trial.__wrapped__
    assert harness.max_flow is flow.max_flow is rainbowgraphs.max_flow is original
    assert all(not hasattr(f, "__wrapped__") for f in harness._TRIAL_FN.values())


def test_traced_run_counts_calls_and_self_time():
    config = _lemma3(5)
    tracer = spans.Tracer(spans.layer_functions(rainbowgraphs))
    start = time.perf_counter()
    with tracer.active():
        traced = harness.run_trials(config)
    wall_ms = 1e3 * (time.perf_counter() - start)
    assert [r.to_json() for r in traced] == [r.to_json() for r in harness.run_trials(config)]
    m = tracer.metrics(ops=5)
    for name in ("harness.trial", "flow.max_flow", "flow.build_network",
                 "flow.capacity_matrix", "graphs.sample_coloured_digraph", "rng.substream"):
        assert m[f"{name}.calls"] == (1.0, "count")
    assert m["coupling.couple.calls"] == (0.0, "count")
    assert m["flow.network_arcs"][0] > 90 + 30
    self_ms = [v for k, (v, _) in m.items() if k.endswith(".ms")]
    assert min(self_ms) >= 0 and 5 * sum(self_ms) <= wall_ms


def test_replacing_an_unbound_function_fails():
    with pytest.raises(LookupError):
        with spans.replaced({time.sleep: time.sleep}):
            pass
