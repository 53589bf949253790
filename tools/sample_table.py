"""Per-call cost of `graphs.sample_coloured_digraph` at two benchmark
configs, and of a whole trial's work at three, per checkout.

    python3 tools/sample_table.py [--seed N] [CHECKOUT ...]

A CHECKOUT is a source tree with the package under `src/`; the default is
the one holding this script.  The checkouts are imported as
`solve_table.py` imports them, in reverse order on an odd seed.  Each
config samples as the benchmark workload of its name does, with
p1 = split_probability(p).p1 inside the timed call, from one substream
of the seed per call.  The `lemma3_n1000 trial` row then solves the
sample's network, as a lemma3 trial does at d=2:
`max_flow(build_network(sample, 2))`.  Set against the sample row of the
same workload, it shows how a change splits between sampling and the
network and solve.  The `lemma4_n1000 trial` row runs `coupling.couple`
(d=55, eps=0.5) and reads its truncated rows, or its d-out when it
fails, so it times the d-out draw a lemma4 record does not need.  The
`lemma4_n1000 record` row runs one lemma4 trial of the benchmark's
config, and the `pipeline_n12 trial` row one pipeline trial of the
benchmark's config (eps=1.0, d=3, a 12-cycle target), each through
`harness.run_trials`, seeded from the call's substream.  Every checkout
runs each substream once, the checkouts taking turns call by call in
alternating order, and the outputs (the sample's rows, the solve's
owners, the coupling's rows, the trial's JSON record) must be equal.  The table gives per checkout the
median ms of a call.  With two or more checkouts, `slower` counts the
calls slower in the last checkout than in the first (a tie counts for
neither); a config is marked when that count reaches nine tenths of its
calls, and the script exits 1 if one is.
Nothing is written to disk.  The table counts no page faults: glibc's
heap is shared by every checkout imported here, so one checkout's frees
decide where the next one's arrays land, and page faults only compare
when each checkout is counted in its own process.
"""

from __future__ import annotations

import argparse
import statistics
import time
from pathlib import Path

import numpy as np
from solve_table import MIN_MARKED, load_all


def sample(package, n: int, p: float, kappa: int, rng) -> np.ndarray:
    p1 = package.graphs.split_probability(p).p1
    return package.graphs.sample_coloured_digraph(n, p1, kappa, rng).arcs


def trial(package, n: int, p: float, kappa: int, rng) -> np.ndarray:
    graph = package.graphs.sample_coloured_digraph(n, package.graphs.split_probability(p).p1, kappa, rng)
    return package.flow.max_flow(package.flow.build_network(graph, 2))[1]


def couple(package, n: int, p: float, kappa: int | None, rng) -> np.ndarray:
    out = package.coupling.couple(n, 55, p, 0.5, rng)
    return out.inner.arcs if out.success else out.d_out.arcs


def record(package, n: int, p: float, kappa: int | None, rng) -> str:
    config = package.harness.ExperimentConfig(
        n=n, p=p, kappa=1, eps=0.5, d=55, trials=1, seed=int(rng.integers(2**62)), mode="lemma4",
    )
    return package.harness.run_trials(config)[0].to_json()


def pipeline(package, n: int, p: float, kappa: int, rng) -> str:
    config = package.harness.ExperimentConfig(
        n=n, p=p, kappa=kappa, eps=1.0, d=3, trials=1, seed=int(rng.integers(2**62)),
        mode="pipeline", target_family="cycle", target_size=12,
    )
    return package.harness.run_trials(config)[0].to_json()


# (row, operation, n, p, kappa, calls)
CONFIGS = (
    ("lemma3_n1000", sample, 1000, 0.3, 3000, 40),
    ("pipeline_n12", sample, 12, 0.9, 80, 2000),
    ("lemma3_n1000 trial", trial, 1000, 0.3, 3000, 40),
    ("lemma4_n1000 trial", couple, 1000, 0.06, None, 40),
    ("lemma4_n1000 record", record, 1000, 0.06, None, 200),
    ("pipeline_n12 trial", pipeline, 12, 0.9, 80, 1000),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[Path(__file__).resolve().parents[1]])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    packages = load_all(args.checkouts, args.seed)
    heads = [f"{checkout} ms" for checkout in args.checkouts]
    print("\t".join(["config", "calls", "slower", *heads]))
    slower = 0
    for index, (name, operation, n, p, kappa, calls) in enumerate(CONFIGS):
        times = [[0.0] * len(packages) for _ in range(calls)]
        for call in range(calls + 1):  # call 0 warms every checkout up
            turn = range(len(packages)) if call % 2 == 0 else reversed(range(len(packages)))
            outputs = []
            for k in turn:
                rng = packages[k].rng.substream(args.seed, index, call, "sample-table")
                start = time.perf_counter()
                output = operation(packages[k], n, p, kappa, rng)
                elapsed = time.perf_counter() - start
                if call:
                    times[call - 1][k] = elapsed
                outputs.append(output)
            if any(not np.array_equal(outputs[0], output) for output in outputs[1:]):
                raise SystemExit(f"{name}: the checkouts' outputs differ at call {call}")
        medians = [statistics.median(row[k] for row in times) * 1e3 for k in range(len(packages))]
        paired = sum(row[-1] > row[0] for row in times)
        mark = " slower" if calls >= MIN_MARKED and paired >= 0.9 * calls else ""
        slower += bool(mark)
        config = f"{name} n={n} p={p}" + (f" kappa={kappa}" if kappa else "")
        cells = [config, str(calls), f"{paired}/{calls}" if len(packages) > 1 else "-"]
        cells += [f"{ms:.3f}" for ms in medians]
        print("\t".join(cells) + mark, flush=True)
    return 1 if slower else 0


if __name__ == "__main__":
    raise SystemExit(main())
