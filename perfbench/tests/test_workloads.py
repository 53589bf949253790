"""Each workload's check, end to end on small configs: real trials pass,
a corrupted record or output is reported as a failed operation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import checks
import workloads as w


def _run(configs):
    return [w._trial(c) for c in configs]


def test_lemma3_check():
    configs = [replace(w.LEMMA3, n=40, kappa=120, seed=s) for s in range(3)]
    records = _run(configs)
    assert w._check_lemma3(configs, records) == [None] * 3
    records[1] = replace(records[1], flow_value=records[1].flow_value - 1)
    assert w._check_lemma3(configs, records)[1][0] == w.WRONG


def test_lemma4_check():
    configs = [replace(w.LEMMA4, n=60, d=12, p=0.1, seed=s) for s in range(3)]
    records = _run(configs)
    assert w._check_lemma4(configs, records) == [None] * 3
    records[0] = replace(records[0], success=not records[0].success)
    assert w._check_lemma4(configs, records)[0][0] == w.WRONG


def test_pipeline_check_covers_every_verdict():
    # d=4 makes all four verdicts common; the check is the same at any d
    configs = [replace(w.PIPELINE, d=4, seed=s) for s in range(40)]
    records = _run(configs)
    verdicts = {r.pipeline_verdict for r in records}
    assert verdicts == {"found", "no-embedding", "extraction-failed", "coupling-failed"}
    assert w._check_pipeline(configs, records) == [None] * 40
    flip = {"found": "no-embedding", "no-embedding": "found"}
    i = next(i for i, r in enumerate(records) if r.pipeline_verdict in flip)
    records[i] = replace(records[i], pipeline_verdict=flip[records[i].pipeline_verdict])
    assert w._check_pipeline(configs, records)[i][0] == w.WRONG


def test_theta_check_fails_every_op_on_the_known_fault():
    inputs = w._theta_inputs(0, 2)
    assert inputs == w._theta_inputs(7, 2)  # the seed does not change theta's inputs
    outputs = [w._theta(inp) for inp in inputs]
    assert [f[0] for f in w._check_theta(inputs, outputs)] == [w.KNOWN_FAULT] * 2
    log_sum_l, log_chernoff = checks.log_theta_terms(
        w.THETA_N, w.THETA_D, inputs[0][0], w.THETA_EPS, inputs[0][1]
    )
    right = float(np.logaddexp(log_sum_l, log_chernoff))
    assert w._check_theta(inputs[:1], [(right, 0.0)]) == [None]
    kind, _ = w._check_theta(inputs[:1], [(right + 1e-3, 0.0)])[0]
    assert kind == w.WRONG


def test_raised_operation_is_a_failure():
    err = w.OpError(ValueError("boom"))
    assert w._check_theta([None], [err]) == [(w.RAISED, "raised ValueError('boom')")]
