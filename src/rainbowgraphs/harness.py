"""Seeded Monte Carlo experiments over the extraction/coupling pipeline.

Modes:
  lemma3   -- sample a coloured random digraph, run the flow extraction,
              record whether the flow reaches d*n.
  lemma4   -- run the binomial-truncation coupling, record k_max.
  pipeline -- truncation counts first: when some count exceeds d the
              coupling has failed and one max-flow decides between
              extraction-failed and coupling-failed; otherwise
              extraction, per-vertex shuffle, truncation, orientation
              coalescing, then exact rainbow search for a target graph
              (n <= 16).
  sweep    -- any of the above across a parameter grid, with Wilson
              confidence intervals per grid point.

Every trial draws from a substream keyed by (master seed, trial index,
purpose tag), so records are identical whatever the execution order or
parallelism degree.  JSONL output is byte-stable for a fixed seed;
wall-clock timings are kept on the in-memory records but excluded from
serialisation for that reason.
"""

from __future__ import annotations

import functools
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .coupling import couple, truncate, truncation_counts
from .flow import build_network, extract_via_permutation, max_flow
from .graphs import (
    ColouredDigraph,
    coalesce_orientation,
    sample_coloured_digraph,
    split_probability,
)
from .rng import substream
from .search import EXACT_SEARCH_CAP, find_rainbow_copy_exact
from .targets import FAMILIES, TargetGraph, build_target, pad_target

MODES = ("lemma3", "lemma4", "pipeline")
SWEEP_AXES = ("p", "kappa", "d", "n")

_JSONL_FIELDS = (
    "trial",
    "seed",
    "mode",
    "success",
    "flow_value",
    "k_max",
    "inner_arc_count",
    "pipeline_verdict",
    "notes",
)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    p: float
    kappa: int
    eps: float
    d: int
    trials: int
    seed: int
    mode: str
    target_family: str | None = None
    target_size: int | None = None
    sweep_axis: str | None = None
    sweep_values: tuple[float, ...] = ()
    jobs: int = 1

    def __post_init__(self) -> None:
        """Check every parameter the trials rely on, so a bad config is
        rejected before any trial runs, never partway through a run."""
        if self.trials < 0:
            raise ValueError(f"need trials >= 0, got {self.trials}")
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"p={self.p} outside [0, 1)")
        if self.kappa < 1:
            raise ValueError(f"need kappa >= 1, got {self.kappa}")
        if self.eps <= 0:
            raise ValueError(f"need eps > 0, got {self.eps}")
        if self.d < 1:
            raise ValueError(f"need d >= 1, got {self.d}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"need seed >= 0, got {self.seed}")
        if self.mode not in MODES and self.mode != "sweep":
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "lemma4" and self.d > self.n - 1:
            raise ValueError(f"lemma4 needs d <= n-1, got d={self.d}, n={self.n}")
        if self.mode == "pipeline":
            self._check_pipeline()

    def _check_pipeline(self) -> None:
        if self.target_family not in FAMILIES or self.target_size is None:
            raise ValueError("pipeline mode needs a target family and size")
        if self.n > EXACT_SEARCH_CAP:
            raise ValueError(f"pipeline needs n <= {EXACT_SEARCH_CAP}, got {self.n}")
        p_inner = (2.0 - self.eps) * self.d / self.n
        if not 0.0 <= p_inner < 1.0:
            raise ValueError(
                f"(2-eps)d/n = {p_inner} is not a probability; reduce d or raise n"
            )


@functools.lru_cache(maxsize=1)
def _padded_target(family: str, size: int, seed: int, n: int) -> TargetGraph:
    """The pipeline target padded to the host's n vertices.  It depends
    only on these four values, so a run builds it once, not per trial."""
    return pad_target(build_target(family, size, seed), n)


def _check_target(config: ExperimentConfig) -> None:
    """Build a pipeline config's target before the first trial, so a
    target that cannot be built or does not fit the host fails early.  Not
    in __post_init__, which runs for every config and every replace()."""
    if config.mode == "pipeline":
        _padded_target(config.target_family, config.target_size, config.seed, config.n)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    mode: str
    success: bool
    flow_value: int | None = None
    k_max: int | None = None
    inner_arc_count: int | None = None
    pipeline_verdict: str | None = None
    notes: str = ""
    elapsed: float = 0.0  # not serialised: varies between identical runs

    def to_json(self) -> str:
        payload = {k: getattr(self, k) for k in _JSONL_FIELDS}
        return json.dumps(payload, separators=(",", ":"), sort_keys=False)


def _lemma3_trial(config: ExperimentConfig, t: int) -> TrialRecord:
    start = time.perf_counter()
    rng = substream(config.seed, t, "lemma3")
    p1 = split_probability(config.p).p1
    dgr = sample_coloured_digraph(config.n, p1, config.kappa, rng)
    value, _ = max_flow(build_network(dgr, config.d))
    success = value == config.d * config.n
    return TrialRecord(
        trial=t,
        seed=config.seed,
        mode="lemma3",
        success=success,
        flow_value=value,
        elapsed=time.perf_counter() - start,
    )


def _lemma4_trial(config: ExperimentConfig, t: int) -> TrialRecord:
    start = time.perf_counter()
    rng = substream(config.seed, t, "lemma4")
    out = couple(config.n, config.d, config.p, config.eps, rng)
    return TrialRecord(
        trial=t,
        seed=config.seed,
        mode="lemma4",
        success=out.success,
        k_max=out.k_max,
        inner_arc_count=len(out.inner.arcs) if out.inner is not None else None,
        elapsed=time.perf_counter() - start,
    )


def _pipeline_trial(config: ExperimentConfig, t: int) -> TrialRecord:
    start = time.perf_counter()
    n, d = config.n, config.d

    def record(verdict: str, **fields) -> TrialRecord:
        return TrialRecord(
            trial=t, seed=config.seed, mode="pipeline", success=verdict == "found",
            pipeline_verdict=verdict, elapsed=time.perf_counter() - start, **fields,
        )

    p1 = split_probability(config.p).p1
    dgr = sample_coloured_digraph(
        n, p1, config.kappa, substream(config.seed, t, "pipe-sample")
    )
    counts = truncation_counts(
        n, (2.0 - config.eps) * d / n, substream(config.seed, t, "pipe-truncate")
    )
    k_max = int(counts.max())
    if k_max > d:
        # the coupling has failed, so only the flow value decides the verdict
        value, _ = max_flow(build_network(dgr, d))
        if value < d * n:
            return record("extraction-failed")
        return record("coupling-failed", flow_value=d * n, k_max=k_max)
    rainbow = extract_via_permutation(dgr, d, substream(config.seed, t, "pipe-perm"))
    if rainbow is None:
        return record("extraction-failed")
    # The deterministic flow decomposition imposes an arc order; a fresh
    # per-vertex shuffle restores exchangeability before truncation.  The
    # extraction's rows come grouped by tail, d per tail.
    shuffle_rng = substream(config.seed, t, "pipe-shuffle")
    arcs = rainbow.digraph.arcs.copy()
    for v in range(n):
        shuffle_rng.shuffle(arcs[v * d : (v + 1) * d])
    inner = truncate(ColouredDigraph(n=n, kappa=rainbow.digraph.kappa, arcs=arcs), d, counts)
    host = coalesce_orientation(inner, substream(config.seed, t, "pipe-coalesce"))
    h = _padded_target(config.target_family, config.target_size, config.seed, n)
    emb = find_rainbow_copy_exact(host, h)
    return record(
        "found" if emb is not None else "no-embedding",
        flow_value=d * n, k_max=k_max, inner_arc_count=len(inner.arcs),
    )


_TRIAL_FN = {
    "lemma3": _lemma3_trial,
    "lemma4": _lemma4_trial,
    "pipeline": _pipeline_trial,
}


def _run_one(args: tuple[ExperimentConfig, int]) -> TrialRecord:
    config, t = args
    return _TRIAL_FN[config.mode](config, t)


def run_trials(config: ExperimentConfig) -> list[TrialRecord]:
    """Run config.trials independent trials of the configured mode.

    Records come back ordered by trial index whatever the parallelism.
    """
    if config.mode not in _TRIAL_FN:
        raise ValueError(f"mode {config.mode!r} is not a trial mode")
    _check_target(config)
    work = [(config, t) for t in range(config.trials)]
    if config.jobs > 1 and config.trials > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            records = list(pool.map(_run_one, work))
    else:
        records = [_run_one(w) for w in work]
    return sorted(records, key=lambda r: r.trial)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


@dataclass(frozen=True)
class SweepPoint:
    point: float
    trials: int
    successes: int
    rate: float
    ci_lo: float
    ci_hi: float

    def to_csv_row(self) -> str:
        return (
            f"{self.point:g},{self.trials},{self.successes},"
            f"{self.rate:.6f},{self.ci_lo:.6f},{self.ci_hi:.6f}"
        )


@dataclass(frozen=True)
class SweepResult:
    records: list[TrialRecord]
    summary: list[SweepPoint]

    def to_csv(self) -> str:
        lines = ["point,trials,successes,rate,ci_lo,ci_hi"]
        lines.extend(p.to_csv_row() for p in self.summary)
        return "\n".join(lines) + "\n"


def run_sweep(config: ExperimentConfig, mode: str | None = None) -> SweepResult:
    """Run `mode` (default: the config's base mode) at every grid value of
    the sweep axis; each point reuses the same master seed with its own
    substreams via the changed parameter."""
    axis = config.sweep_axis
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    base_mode = mode or (config.mode if config.mode != "sweep" else None)
    if base_mode not in _TRIAL_FN:
        raise ValueError(f"sweep needs a trial mode, got {base_mode!r}")
    if axis != "p":
        fractional = [v for v in config.sweep_values if v != int(v)]
        if fractional:
            raise ValueError(f"axis {axis} takes integers, got {fractional}")
    # every point's config is validated before the first point runs
    points = [
        replace(
            config, mode=base_mode, sweep_axis=None, sweep_values=(),
            **{axis: float(value) if axis == "p" else int(value)},
        )
        for value in config.sweep_values
    ]
    for point_config in points:
        _check_target(point_config)
    records: list[TrialRecord] = []
    summary: list[SweepPoint] = []
    for value, point_config in zip(config.sweep_values, points):
        recs = run_trials(point_config)
        successes = sum(r.success for r in recs)
        lo, hi = wilson_interval(successes, len(recs))
        records.extend(recs)
        summary.append(
            SweepPoint(
                point=float(value),
                trials=len(recs),
                successes=successes,
                rate=successes / len(recs) if recs else 0.0,
                ci_lo=lo,
                ci_hi=hi,
            )
        )
    return SweepResult(records=records, summary=summary)


def records_to_jsonl(records: list[TrialRecord]) -> str:
    return "".join(r.to_json() + "\n" for r in records)
