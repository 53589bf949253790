"""One workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --role full|setup

Set-up runs from just before `import rainbowgraphs` to the first timed
operation: the import, making the inputs and one untimed warm-up
operation.  With --role setup the worker stops there.  Otherwise it times
every operation of the fixed work list, records the process's peak
resident set, repeats the list under the span wrappers when --trace 1,
and finally checks every output.  The last line of stdout is one JSON
object; `run.py` turns it into metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def timed_pass(run, inputs: list, op_error) -> tuple[list, list[float], float]:
    """Run every operation once; per-operation and total wall times."""
    outputs, times = [], []
    begin = time.perf_counter()
    for inp in inputs:
        start = time.perf_counter()
        try:
            out = run(inp)
        except Exception as exc:  # a raising operation counts as failed
            out = op_error(exc)
        times.append(time.perf_counter() - start)
        outputs.append(out)
    return outputs, times, time.perf_counter() - begin


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("full", "setup"), default="full")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rainbowgraphs

    if not Path(rainbowgraphs.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"rainbowgraphs imported from {rainbowgraphs.__file__}, not {SRC}")
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed, wl.op_count(args.seconds) + 1)
    wl.run(inputs.pop())
    setup_s = time.perf_counter() - start
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    gc.collect()
    outputs, times, total_s = timed_pass(wl.run, inputs, workloads.OpError)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "setup_s": setup_s,
        "op_s": times,
        "total_s": total_s,
        "raised": sum(isinstance(o, workloads.OpError) for o in outputs),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        tracer = spans.Tracer(spans.layer_functions(rainbowgraphs))
        gc.collect()
        with tracer.active():
            traced, _, traced_s = timed_pass(wl.run, inputs, workloads.OpError)
        del traced
        result["layers"] = tracer.metrics(len(inputs))
        result["traced_total_s"] = traced_s
    result["failures"] = [
        {"op": i, "kind": f[0], "reason": f[1]}
        for i, f in enumerate(wl.check(inputs, outputs)) if f is not None
    ]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
