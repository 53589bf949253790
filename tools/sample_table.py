"""Per-call cost of `graphs.sample_coloured_digraph` at two benchmark
configs, per checkout.

    python3 tools/sample_table.py [--seed N] [CHECKOUT ...]

A CHECKOUT is a source tree with the package under `src/`; the default is
the one holding this script.  The checkouts are imported as
`solve_table.py` imports them, in reverse order on an odd seed.  Each
config samples as the benchmark workload of its name does, with
p1 = split_probability(p).p1, from one substream of the seed per call.
Every checkout samples each substream once, the checkouts taking turns
call by call in alternating order, and the samples must be equal.  The
table gives per checkout the median ms of a call and its minor page
faults per call (`resource.getrusage`).  With two or more checkouts,
`slower` counts the calls slower in the last checkout than in the first
(a tie counts for neither); a config is marked when that count reaches
nine tenths of its calls, and the script exits 1 if one is.  Nothing is
written to disk.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import time
from pathlib import Path

import numpy as np
from solve_table import MIN_MARKED, load_all

# (workload, n, p, kappa, calls)
CONFIGS = (
    ("lemma3_n1000", 1000, 0.3, 3000, 40),
    ("pipeline_n12", 12, 0.9, 80, 2000),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[Path(__file__).resolve().parents[1]])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    packages = load_all(args.checkouts, args.seed)
    heads = [f"{checkout} {unit}" for checkout in args.checkouts for unit in ("ms", "faults")]
    print("\t".join(["config", "calls", "slower", *heads]))
    slower = 0
    for index, (name, n, p, kappa, calls) in enumerate(CONFIGS):
        p1 = packages[0].graphs.split_probability(p).p1
        times = [[0.0] * len(packages) for _ in range(calls)]
        faults = [0] * len(packages)
        for call in range(calls + 1):  # call 0 warms every checkout up
            turn = range(len(packages)) if call % 2 == 0 else reversed(range(len(packages)))
            samples = []
            for k in turn:
                rng = packages[k].rng.substream(args.seed, index, call, "sample-table")
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.perf_counter()
                g = packages[k].graphs.sample_coloured_digraph(n, p1, kappa, rng)
                elapsed = time.perf_counter() - start
                if call:
                    times[call - 1][k] = elapsed
                    faults[k] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
                samples.append(g.arcs)
            if any(not np.array_equal(samples[0], arcs) for arcs in samples[1:]):
                raise SystemExit(f"{name}: the checkouts' samples differ at call {call}")
        medians = [statistics.median(row[k] for row in times) * 1e3 for k in range(len(packages))]
        paired = sum(row[-1] > row[0] for row in times)
        mark = " slower" if calls >= MIN_MARKED and paired >= 0.9 * calls else ""
        slower += bool(mark)
        cells = [f"{name} n={n} p={p} kappa={kappa}", str(calls), f"{paired}/{calls}" if len(packages) > 1 else "-"]
        cells += [f"{ms:.3f}\t{faults[k] / calls:.1f}" for k, ms in enumerate(medians)]
        print("\t".join(cells) + mark, flush=True)
    return 1 if slower else 0


if __name__ == "__main__":
    raise SystemExit(main())
