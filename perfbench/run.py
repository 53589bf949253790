"""Benchmark of the rainbow d-out pipeline, layer by layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  Each workload runs in a fresh worker process on a fixed list of
`round(ops_per_second * S)` operations made from the seed, so the work
never depends on how fast the machine is.  With --trace 0 the last line
of stdout is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics ops_per_s, op_ms_p50, setup_s (the median of
three set-ups, each in its own process) and peak_rss_mb.  With --trace 1
a single worker repeats the work under per-layer wrappers and the metrics
are each layer's self time and calls per operation, flow.network_arcs and
trace.overhead_pct.  `failed` counts the operations that raised or whose
output failed its check; `correct` is false when an output is wrong in
any way other than the known fault named in perfbench/README.md.  A copy
of each result, with the raw per-operation times, goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lemma3_n1000", "lemma4_n1000", "pipeline_n12", "theta_n1e6")
SETUP_SAMPLES = 3
BUDGET_S = 170.0  # per workload, inside the 180 s a run may take


class BenchError(Exception):
    pass


def _worker(args: argparse.Namespace, workload: str, role: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--role", role,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before the {role} worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: {role} worker exceeded {BUDGET_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload}: {role} worker exited {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args: argparse.Namespace, workload: str) -> tuple[dict, dict]:
    """The result line for one workload and the record kept on disk."""
    deadline = time.monotonic() + BUDGET_S
    full = _worker(args, workload, "full", deadline)
    attempted = len(full["op_s"])
    failed = len(full["failures"])
    # Raised operations and the known fault count as failed; any other
    # wrong output makes the run incorrect.
    wrong = sum(f["kind"] == "wrong" for f in full["failures"])
    if args.trace:
        overhead = 100.0 * (full["traced_total_s"] / full["total_s"] - 1.0)
        metrics = {k: _metric(v, u) for k, (v, u) in full["layers"].items()}
        metrics["trace.overhead_pct"] = _metric(overhead, "%")
        setups = [full["setup_s"]]
    else:
        setups = [full["setup_s"]] + [
            _worker(args, workload, "setup", deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        completed = attempted - full["raised"]
        metrics = {
            "ops_per_s": _metric(completed / full["total_s"], "1/s"),
            "op_ms_p50": _metric(1e3 * statistics.median(full["op_s"]), "ms"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(full["peak_rss_mb"], "MB"),
        }
    line = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "result": line,
        "setup_s_samples": setups,
        "op_ms": [1e3 * t for t in full["op_s"]],
        "failures": full["failures"],
    }
    return line, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "rainbowgraphs" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    try:
        for name in names:
            line, record = run_workload(args, name)
            lines[name] = line
            path = out_dir / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
            for failure in record["failures"]:
                print(f"{name}: op {failure['op']} failed ({failure['kind']}): {failure['reason']}",
                      file=sys.stderr)
            if len(names) > 1:
                print(json.dumps({"workload": name, **line}))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {
                f"{name}.{k}": v for name, r in lines.items() for k, v in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
