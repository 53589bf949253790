import math
from dataclasses import replace

import pytest

from rainbowgraphs import flow, harness
from rainbowgraphs.coupling import truncation_counts
from rainbowgraphs.harness import (
    ExperimentConfig,
    SweepPoint,
    build_target,
    records_to_jsonl,
    run_sweep,
    run_trials,
    wilson_interval,
)
from rainbowgraphs.rng import substream


def lemma4_config(**kw):
    base = dict(
        n=30, p=0.3, kappa=10, eps=0.5, d=15, trials=50, seed=3, mode="lemma4"
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunTrials:
    def test_zero_trials(self):
        assert run_trials(lemma4_config(trials=0)) == []

    def test_deterministic(self):
        # timings differ run to run; the serialised payload must not
        cfg = lemma4_config()
        assert records_to_jsonl(run_trials(cfg)) == records_to_jsonl(run_trials(cfg))

    def test_lemma4_d_max_always_succeeds(self):
        recs = run_trials(lemma4_config(d=29, trials=30))
        assert all(r.success for r in recs)

    def test_lemma4_p_zero_empty_inner(self):
        recs = run_trials(lemma4_config(p=0.0, trials=30))
        assert all(r.success and r.inner_arc_count == 0 for r in recs)

    def test_lemma3_records_flow_value(self):
        cfg = ExperimentConfig(
            n=20, p=0.7, kappa=50, eps=0.5, d=2, trials=20, seed=4, mode="lemma3"
        )
        recs = run_trials(cfg)
        for r in recs:
            assert r.flow_value is not None
            assert r.success == (r.flow_value == 40)
            assert r.flow_value <= 40

    def test_parallel_matches_serial(self):
        cfg = lemma4_config(trials=24)
        serial = run_trials(cfg)
        parallel = run_trials(lemma4_config(trials=24, jobs=4))
        assert records_to_jsonl(serial) == records_to_jsonl(parallel)

    def test_pipeline_forced_success(self):
        # n=2, matching target, p close to 1, d=1: the single edge survives
        # whenever truncation keeps it; just check verdict semantics
        cfg = ExperimentConfig(
            n=2, p=0.99, kappa=10, eps=0.5, d=1, trials=40, seed=5,
            mode="pipeline", target_family="matching", target_size=2,
        )
        recs = run_trials(cfg)
        for r in recs:
            assert r.pipeline_verdict in (
                "found", "no-embedding", "coupling-failed", "extraction-failed"
            )
            assert r.success == (r.pipeline_verdict == "found")
        assert any(r.success for r in recs)

    def test_pipeline_short_circuits_on_extraction_failure(self):
        cfg = ExperimentConfig(
            n=6, p=0.05, kappa=12, eps=0.5, d=2, trials=20, seed=6,
            mode="pipeline", target_family="cycle", target_size=6,
        )
        recs = run_trials(cfg)
        assert all(not r.success for r in recs)
        assert any(r.pipeline_verdict == "extraction-failed" for r in recs)

    def test_pipeline_decides_failed_coupling_by_flow_alone(self, monkeypatch):
        # a trial whose truncation counts exceed d solves its one max-flow
        # and neither extracts nor shuffles
        calls = {"flow": 0, "extract": 0}
        tags = []

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        flow_counter = counted("flow", flow.max_flow)
        monkeypatch.setattr(flow, "max_flow", flow_counter)
        monkeypatch.setattr(harness, "max_flow", flow_counter)
        monkeypatch.setattr(
            harness, "extract_via_permutation", counted("extract", harness.extract_via_permutation)
        )

        def tagged(*keys):
            tags.append(keys[-1])
            return substream(*keys)

        monkeypatch.setattr(harness, "substream", tagged)
        config = ExperimentConfig(
            n=12, p=0.9, kappa=80, eps=1.0, d=3, trials=1, seed=0, mode="pipeline",
            target_family="cycle", target_size=12,
        )
        p_inner = (2.0 - config.eps) * config.d / config.n
        verdicts = set()
        for t in range(240):
            before = dict(calls)
            tags.clear()
            rec = harness._pipeline_trial(config, t)
            k_max = truncation_counts(12, p_inner, substream(0, t, "pipe-truncate")).max()
            assert calls["flow"] - before["flow"] == 1
            assert calls["extract"] - before["extract"] == (k_max <= config.d)
            if k_max > config.d:
                assert rec.pipeline_verdict in ("extraction-failed", "coupling-failed")
                assert tags == ["pipe-sample", "pipe-truncate"]
            verdicts.add((rec.pipeline_verdict, bool(k_max > config.d)))
        assert verdicts == {
            ("extraction-failed", True), ("coupling-failed", True),
            ("extraction-failed", False), ("no-embedding", False), ("found", False),
        }

    def test_pipeline_needs_target(self):
        with pytest.raises(ValueError):
            run_trials(lemma4_config(mode="pipeline"))


class TestConfigValidation:
    @pytest.mark.parametrize("p", [0.99, 0.1])
    def test_pipeline_inner_probability_checked_at_construction(self, p):
        # (2-eps)d/n = 1.125: used to raise only once some extraction succeeded
        with pytest.raises(ValueError, match="not a probability"):
            ExperimentConfig(
                n=4, p=p, kappa=1000, eps=0.5, d=3, trials=20, seed=0,
                mode="pipeline", target_family="cycle", target_size=4,
            )

    @pytest.mark.parametrize(
        "field,value",
        [("eps", -1.0), ("eps", 0.0), ("d", 0), ("seed", -1), ("n", 1), ("p", 1.0),
         ("d", 30)],
    )
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(ValueError):
            lemma4_config(**{field: value})

    @pytest.mark.parametrize(
        "family,size,n",
        [(None, 8, 8), ("cycle", None, 8), ("wheel", 8, 8), ("cycle", 17, 17)],
    )
    def test_rejects_bad_pipeline_target(self, family, size, n):
        base = dict(p=0.9, kappa=40, eps=1.0, d=2, trials=1, seed=0, mode="pipeline")
        ExperimentConfig(n=8, target_family="cycle", target_size=8, **base)
        with pytest.raises(ValueError):
            ExperimentConfig(n=n, target_family=family, target_size=size, **base)

    def test_target_built_once_per_run(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(args)
            return build_target(*args)

        monkeypatch.setattr(harness, "build_target", counting)
        harness._padded_target.cache_clear()
        config = ExperimentConfig(
            n=8, p=0.95, kappa=60, eps=1.0, d=3, trials=24, seed=5, mode="pipeline",
            target_family="tree", target_size=8,
        )
        searched = [r for r in run_trials(config) if r.pipeline_verdict in ("found", "no-embedding")]
        assert len(searched) > 1 and built == [("tree", 8, 5)]

    @pytest.mark.parametrize("family,size", [("cycle", 9), ("grid", 3), ("matching", 7)])
    def test_unfit_target_fails_before_any_trial(self, family, size, monkeypatch):
        # 9 vertices do not fit a host of 8; a matching on 7 cannot be built
        monkeypatch.setitem(
            harness._TRIAL_FN, "pipeline", lambda c, t: pytest.fail("a trial ran")
        )
        config = ExperimentConfig(
            n=8, p=0.9, kappa=40, eps=1.0, d=2, trials=3, seed=0, mode="pipeline",
            target_family=family, target_size=size,
        )
        with pytest.raises(ValueError):
            run_trials(config)
        sweep = replace(config, mode="sweep", sweep_axis="n", sweep_values=(12, 8))
        with pytest.raises(ValueError):
            run_sweep(sweep, mode="pipeline")


class TestWilson:
    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_point_estimate(self):
        for s, t in [(0, 10), (5, 10), (10, 10), (199, 200)]:
            lo, hi = wilson_interval(s, t)
            assert 0.0 <= lo <= s / t <= hi <= 1.0

    def test_narrows_with_trials(self):
        lo1, hi1 = wilson_interval(50, 100)
        lo2, hi2 = wilson_interval(500, 1000)
        assert hi2 - lo2 < hi1 - lo1


class TestRunSweep:
    def test_single_point_equals_plain_mode(self):
        cfg = lemma4_config(mode="sweep", sweep_axis="d", sweep_values=(15,))
        res = run_sweep(cfg, mode="lemma4")
        plain = run_trials(lemma4_config())
        assert records_to_jsonl(res.records) == records_to_jsonl(plain)
        assert len(res.summary) == 1
        pt = res.summary[0]
        assert pt.successes == sum(r.success for r in plain)

    def test_success_nondecreasing_in_d(self):
        cfg = lemma4_config(
            mode="sweep", sweep_axis="d", sweep_values=(5, 10, 15, 20, 25), trials=60
        )
        res = run_sweep(cfg, mode="lemma4")
        # allow confidence-interval overlap: compare lower vs upper bounds
        for a, b in zip(res.summary, res.summary[1:]):
            assert b.ci_hi >= a.ci_lo

    def test_lemma3_success_nondecreasing_in_p(self):
        cfg = ExperimentConfig(
            n=20, p=0.5, kappa=50, eps=0.5, d=2, trials=40, seed=7,
            mode="sweep", sweep_axis="p", sweep_values=(0.1, 0.4, 0.8),
        )
        res = run_sweep(cfg, mode="lemma3")
        rates = [pt.rate for pt in res.summary]
        for a, b in zip(res.summary, res.summary[1:]):
            assert b.ci_hi >= a.ci_lo
        assert rates[-1] >= rates[0]

    def test_csv_shape(self):
        cfg = lemma4_config(mode="sweep", sweep_axis="d", sweep_values=(10, 20))
        res = run_sweep(cfg, mode="lemma4")
        lines = res.to_csv().strip().splitlines()
        assert lines[0] == "point,trials,successes,rate,ci_lo,ci_hi"
        assert len(lines) == 3

    @pytest.mark.parametrize("axis", ["d", "n", "kappa"])
    def test_integer_axis_rejects_fractional_value(self, axis):
        cfg = lemma4_config(mode="sweep", sweep_axis=axis, sweep_values=(1.7,), trials=3)
        with pytest.raises(ValueError, match="integers"):
            run_sweep(cfg, mode="lemma4")

    def test_every_point_checked_before_the_first_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_trials", calls.append)
        for values in [(15, 1.7), (15, 0)]:  # a fractional d, then d=0
            cfg = lemma4_config(mode="sweep", sweep_axis="d", sweep_values=values)
            with pytest.raises(ValueError):
                run_sweep(cfg, mode="lemma4")
        assert calls == []

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            run_sweep(lemma4_config(mode="sweep", sweep_axis="eps"), mode="lemma4")


class TestJsonl:
    def test_stable_fields(self):
        recs = run_trials(lemma4_config(trials=2))
        lines = records_to_jsonl(recs).splitlines()
        assert len(lines) == 2
        assert lines[0].startswith('{"trial":0,"seed":3,"mode":"lemma4"')

    def test_elapsed_not_serialised(self):
        recs = run_trials(lemma4_config(trials=1))
        assert recs[0].elapsed > 0
        assert "elapsed" not in records_to_jsonl(recs)


class TestBuildTarget:
    def test_families(self):
        assert build_target("grid", 3, 0).n_H == 9
        assert build_target("hypercube", 3, 0).n_H == 8
        assert build_target("cycle", 6, 0).n_H == 6
        assert build_target("path", 6, 0).n_H == 6
        assert build_target("matching", 6, 0).n_H == 6
        tree = build_target("tree", 6, 0)
        assert tree.n_H == 6 and tree.e_total == 5

    def test_tree_deterministic_per_seed(self):
        assert build_target("tree", 8, 5) == build_target("tree", 8, 5)
        assert build_target("tree", 8, 5) != build_target("tree", 8, 6) or True
