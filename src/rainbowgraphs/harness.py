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

run_sweep runs one mode across a grid of one parameter, with Wilson
confidence intervals per grid point.

Every trial draws from a substream keyed by (master seed, trial index,
purpose tag), so records are identical whatever the execution order or
parallelism degree, and JSONL output is byte-stable for a fixed seed.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .coupling import couple, truncate, truncation_counts
from .flow import HallWitness, build_network, check_network_size, extract_via_permutation, max_flow
from .graphs import (
    ColouredDigraph,
    _trusted,
    coalesce_orientation,
    sample_coloured_digraph,
    split_probability,
)
from .rng import substream
from .search import EXACT_SEARCH_CAP, find_rainbow_copy_exact
from .targets import FAMILIES, TargetGraph, build_target, pad_target

# the config fields each mode's trials read
MODE_FIELDS = {
    "lemma3": ("n", "p", "kappa", "d"),
    "lemma4": ("n", "p", "d"),
    "pipeline": ("n", "p", "kappa", "eps", "d", "target_family", "target_size"),
}
MODES = tuple(MODE_FIELDS)
SWEEP_AXES = ("p", "kappa", "d", "n")
_INTEGER_FIELDS = ("n", "kappa", "d", "trials", "seed", "jobs", "target_size")


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
    jobs: int = 1

    def __post_init__(self) -> None:
        """Check every parameter the trials rely on, so a bad config is
        rejected before any trial runs, never partway through a run.  An
        integer field takes an int, a numpy integer or a whole float, and
        keeps it as a plain int; target_size may also be None."""
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            # a plain int, the common case, is kept
            if type(value) is not int and (value is not None or name != "target_size"):
                whole = isinstance(value, float) and value.is_integer()
                if not (whole or isinstance(value, numbers.Integral)):
                    raise ValueError(f"{name} takes integers, got {value}")
                object.__setattr__(self, name, int(value))
        if self.trials < 0:
            raise ValueError(f"need trials >= 0, got {self.trials}")
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"p={self.p} outside [0, 1)")
        if self.kappa < 1:
            raise ValueError(f"need kappa >= 1, got {self.kappa}")
        if not self.eps > 0:  # NaN fails too
            raise ValueError(f"need eps > 0, got {self.eps}")
        if self.d < 1:
            raise ValueError(f"need d >= 1, got {self.d}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"need seed >= 0, got {self.seed}")
        if self.jobs < 1:
            raise ValueError(f"need jobs >= 1, got {self.jobs}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "lemma4" and self.d > self.n - 1:
            raise ValueError(f"lemma4 needs d <= n-1, got d={self.d}, n={self.n}")
        if "kappa" in MODE_FIELDS[self.mode]:
            check_network_size(self.n, self.kappa, self.d)
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

    def to_json(self) -> str:
        return json.dumps(vars(self), separators=(",", ":"))


def _lemma3_trial(config: ExperimentConfig, t: int) -> TrialRecord:
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
    )


def _lemma4_trial(config: ExperimentConfig, t: int) -> TrialRecord:
    rng = substream(config.seed, t, "lemma4")
    out = couple(config.n, config.d, config.p, config.eps, rng)
    return TrialRecord(
        trial=t,
        seed=config.seed,
        mode="lemma4",
        success=out.success,
        k_max=out.k_max,
        inner_arc_count=sum(out.counts) if out.success else None,
    )


def _pipeline_trial(config: ExperimentConfig, t: int) -> TrialRecord:
    n, d = config.n, config.d

    def record(verdict: str, **fields) -> TrialRecord:
        return TrialRecord(
            trial=t, seed=config.seed, mode="pipeline", success=verdict == "found",
            pipeline_verdict=verdict, **fields,
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
    if isinstance(rainbow, HallWitness):
        return record("extraction-failed")
    # The deterministic flow decomposition imposes an arc order; a fresh
    # per-vertex shuffle restores exchangeability before truncation.  The
    # extraction's rows come grouped by tail, d per tail.
    shuffle_rng = substream(config.seed, t, "pipe-shuffle")
    arcs = rainbow.digraph.arcs.copy()
    for v in range(n):
        shuffle_rng.shuffle(arcs[v * d : (v + 1) * d])
    inner = truncate(_trusted(ColouredDigraph, n, rainbow.digraph.kappa, arcs), d, counts)
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


def _run_work(work: list[tuple[ExperimentConfig, int]], jobs: int) -> list[TrialRecord]:
    """The records of the (config, trial index) pairs, in the order of the
    work whatever the parallelism: pool.map, like the serial loop, yields
    them in that order.  More than one job runs one process pool, which
    gets about 16 chunks of trials per worker, so a cheap trial does not
    pay a round trip of its own."""
    if jobs > 1 and len(work) > 1:
        chunksize = -(-len(work) // (16 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_one, work, chunksize=chunksize))
    return [_run_one(w) for w in work]


def run_trials(config: ExperimentConfig) -> list[TrialRecord]:
    """Run config.trials independent trials of the configured mode, with
    records ordered by trial index."""
    _check_target(config)
    return _run_work([(config, t) for t in range(config.trials)], config.jobs)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at 95%."""
    if trials == 0:
        return 0.0, 1.0
    z = 1.96
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
        # an integral point prints as an integer, any other point in full
        point = int(self.point) if self.point.is_integer() else repr(self.point)
        return (
            f"{point},{self.trials},{self.successes},"
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


def run_sweep(config: ExperimentConfig, axis: str, values: Sequence[float]) -> SweepResult:
    """Run the config's mode with `axis` set to each of `values` in turn;
    each point reuses the same master seed with its own substreams via
    the changed parameter.  Every point's trials go to one shared run, so
    a sweep starts at most one process pool."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    # every point's config is validated before the first point runs
    points = [replace(config, **{axis: value}) for value in values]
    if axis not in MODE_FIELDS[config.mode]:
        raise ValueError(f"axis {axis} is not used by mode {config.mode}")
    for point_config in points:
        _check_target(point_config)
    trials = config.trials  # the same at every point: trials is no sweep axis
    records = _run_work([(c, t) for c in points for t in range(trials)], config.jobs)
    summary: list[SweepPoint] = []
    for i, value in enumerate(values):
        recs = records[i * trials:(i + 1) * trials]
        successes = sum(r.success for r in recs)
        lo, hi = wilson_interval(successes, len(recs))
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
