"""The four workloads: how each makes its inputs from a seed, what one
operation is, and how its outputs are checked.

Every operation gets distinct inputs.  Harness trials get distinct master
seeds `seed * SEED_STRIDE + i`; theta evaluations get distinct kappa.
Operation `count` (one past the last timed one) is the untimed warm-up.
The program is called through module attributes (`bounds.theta`, not a
from-import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from rainbowgraphs import bounds, coupling, graphs, harness, search

import checks
import spans

SEED_STRIDE = 100_000


class OpError:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.reason = f"raised {exc!r}"


# A failed operation's kind: it raised, its output shows a known fault of
# the program (`checks.KnownFault`), or its output is wrong in another way.
RAISED, KNOWN_FAULT, WRONG = "raised", "known-fault", "wrong"
Failure = tuple[str, str]  # (kind, reason)


@dataclass(frozen=True)
class Workload:
    name: str
    # Operations per second of --seconds: the size of the fixed work list.
    ops_per_second: float
    make_inputs: Callable[[int, int], list]
    run: Callable[[Any], Any]
    # Per-operation failure (None when the output passes), given the inputs
    # and the timed outputs.
    check: Callable[[list, list], list[Failure | None]]

    def op_count(self, seconds: int) -> int:
        return max(3, round(self.ops_per_second * seconds))


def _each(inputs: list, outputs: list, check_one: Callable[[Any, Any], None]) -> list[Failure | None]:
    failures: list[Failure | None] = []
    for inp, out in zip(inputs, outputs):
        if isinstance(out, OpError):
            failures.append((RAISED, out.reason))
            continue
        try:
            check_one(inp, out)
            failures.append(None)
        except checks.KnownFault as exc:
            failures.append((KNOWN_FAULT, str(exc)))
        except Exception as exc:  # a check that cannot run rejects the output
            failures.append((WRONG, f"{type(exc).__name__}: {exc}"))
    return failures


# --- harness trial workloads -------------------------------------------------

LEMMA3 = harness.ExperimentConfig(
    n=1000, p=0.3, kappa=3000, eps=0.5, d=2, trials=1, seed=0, mode="lemma3"
)
LEMMA4 = harness.ExperimentConfig(
    n=1000, p=0.06, kappa=3000, eps=0.5, d=55, trials=1, seed=0, mode="lemma4"
)
PIPELINE = harness.ExperimentConfig(
    n=12, p=0.9, kappa=80, eps=1.0, d=3, trials=1, seed=0, mode="pipeline",
    target_family="cycle", target_size=12,
)


def _configs(base: harness.ExperimentConfig) -> Callable[[int, int], list]:
    def make(seed: int, count: int) -> list:
        return [replace(base, seed=seed * SEED_STRIDE + i) for i in range(count)]

    return make


def _trial(config: harness.ExperimentConfig) -> harness.TrialRecord:
    return harness.run_trials(config)[0]


def _check_lemma3(configs: list, records: list) -> list[Failure | None]:
    def one(c: harness.ExperimentConfig, rec: harness.TrialRecord) -> None:
        arcs = checks.sample_arcs(
            c.n, checks.arc_probability(c.p), c.kappa, checks.trial_rng(c.seed, 0, "lemma3")
        )
        own = checks.colour_vertex_flow(c.n, c.kappa, c.d, arcs)
        checks.check_flow_record(rec.success, rec.flow_value, own, c.d * c.n)

    return _each(configs, records, one)


def _rerun(config: harness.ExperimentConfig, record: harness.TrialRecord) -> None:
    """Run the trial again and require the same record: the checks below
    inspect intermediate objects of this second run."""
    again = _trial(config)
    checks.require(again.to_json() == record.to_json(), "trial is not reproducible")


def _check_lemma4(configs: list, records: list) -> list[Failure | None]:
    outcomes: list = []
    original = coupling.couple

    def capture(*args, **kwargs):
        outcomes.append(original(*args, **kwargs))
        return outcomes[-1]

    def one(c: harness.ExperimentConfig, rec: harness.TrialRecord) -> None:
        outcomes.clear()
        _rerun(c, rec)
        checks.require(len(outcomes) == 1, "trial did not run the coupling once")
        out = outcomes.pop()
        rng = checks.trial_rng(c.seed, 0, "lemma4")
        rng.random((c.n, c.n - 1))  # the d-out sample's keys come first
        counts = rng.binomial(c.n - 1, checks.arc_probability(c.p), size=c.n)
        checks.require(list(out.counts) == counts.tolist(), "counts are not the trial's binomial draws")
        inner = None if out.inner is None else out.inner.arcs
        checks.check_coupling(out.d_out.arcs, out.counts, inner, rec.success, rec.k_max, c.n, c.d)
        arcs = None if inner is None else len(inner)
        checks.require(rec.inner_arc_count == arcs, "inner_arc_count does not match")

    with spans.replaced({original: capture}):
        return _each(configs, records, one)


def _check_pipeline(configs: list, records: list) -> list[Failure | None]:
    searches: list = []

    def oracle(g, h):
        """Stands in for the program's search during the re-run: the
        benchmark's own exhaustive rainbow Hamilton-cycle search."""
        cycle_edges = {(min(i, (i + 1) % h.n_H), max(i, (i + 1) % h.n_H)) for i in range(h.n_H)}
        checks.require(set(h.edges) == cycle_edges, "target is not a spanning cycle")
        cycle = checks.rainbow_hamilton_cycle(g.n, g.edges)
        searches.append((g.edges, cycle))
        return cycle

    def one(c: harness.ExperimentConfig, rec: harness.TrialRecord) -> None:
        n, d = c.n, c.d
        sample = checks.sample_arcs(
            n, checks.arc_probability(c.p), c.kappa, checks.trial_rng(c.seed, 0, "pipe-sample")
        )
        p_inner = (2.0 - c.eps) * d / n
        counts = checks.trial_rng(c.seed, 0, "pipe-truncate").binomial(
            n - 1, checks.arc_probability(p_inner), size=n
        )
        searches.clear()
        _rerun(c, rec)
        host, cycle = searches[0] if searches else (None, None)
        checks.check_pipeline_verdict(
            rec.pipeline_verdict, rec.k_max, n, d,
            own_flow=checks.colour_vertex_flow(n, c.kappa, d, sample),
            own_k_max=int(counts.max()), sampled=sample, host_edges=host, cycle=cycle,
        )

    with spans.replaced({search.find_rainbow_copy_exact: oracle}):
        return _each(configs, records, one)


# --- bounds --------------------------------------------------------------------

THETA_N, THETA_D, THETA_EPS, THETA_KAPPA = 10**6, 2, 0.5, 3_000_000


def _theta_inputs(seed: int, count: int) -> list:
    """kappa steps by one per operation from THETA_KAPPA.  The seed is not
    used: every evaluation at n=10^6 fails on the same known fault (see
    `checks.check_theta`), and inputs that do not depend on the seed keep
    the failed share the same on every seed."""
    p1 = graphs.split_probability(0.3).p1
    return [(THETA_KAPPA + i, p1) for i in range(count)]


def _theta(inp) -> tuple[float, float]:
    kappa, p1 = inp
    rep = bounds.theta(THETA_N, THETA_D, kappa, THETA_EPS, p1)
    return rep.log_theta, rep.chernoff_term  # drop the log_l table before the next call


def _check_theta(inputs: list, outputs: list) -> list[Failure | None]:
    def one(inp, out) -> None:
        kappa, p1 = inp
        log_sum_l, log_chernoff = checks.log_theta_terms(THETA_N, THETA_D, kappa, THETA_EPS, p1)
        checks.check_theta(out[0], out[1], log_sum_l, log_chernoff)

    return _each(inputs, outputs, one)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lemma3_n1000", 1.15, _configs(LEMMA3), _trial, _check_lemma3),
        Workload("lemma4_n1000", 6.5, _configs(LEMMA4), _trial, _check_lemma4),
        Workload("pipeline_n12", 220.0, _configs(PIPELINE), _trial, _check_pipeline),
        Workload("theta_n1e6", 0.8, _theta_inputs, _theta, _check_theta),
    )
}
