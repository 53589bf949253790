"""Per-solve cost of `flow.max_flow` on twelve network configs, per checkout.

    python3 tools/solve_table.py [--seed N] [CHECKOUT ...]

A CHECKOUT is a source tree with the package under `src/`; the default
is the one holding this script.  Each checkout's package is imported
into this one process under its own name, in reverse order on an odd
seed, so two runs can show whether the import order favours a copy.
Each config's networks are sampled from the seed (as a lemma3 trial
does, with p1 = split_probability(p).p1) and sorted into those Dinic's
first phase saturates and the short ones; `rejected` counts the short
networks with fewer than d*n colours or a vertex adjacent to fewer than
d.  Every checkout solves each network 3 times, the checkouts taking
turns call by call in alternating order, so drift in the machine's speed
favours none of them.  The table gives, per checkout, the median over
the networks of each kind of the network's best call in ms.  With two or
more checkouts, `slower` counts the row's networks whose best call in
the last checkout is slower than in the first (a tie counts for
neither); a row of at least 10 networks is marked when that count
reaches nine tenths of them, and the script exits 1 if one is.  Nothing
is written to disk.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# (n, kappa, d, p, networks)
CONFIGS = (
    (12, 80, 3, 0.9, 300),
    (12, 40, 2, 0.5, 300),
    (30, 90, 2, 0.5, 200),
    (30, 90, 2, 0.15, 200),
    (300, 900, 2, 0.3, 20),
    (300, 700, 2, 0.03, 20),
    (1000, 3000, 2, 0.3, 10),
    (1000, 2000, 2, 0.3, 10),
    (1000, 2500, 2, 0.05, 10),
    (1000, 5000, 2, 0.02, 10),
    (1000, 3000, 2, 0.008, 10),
    (10_000, 30_000, 2, 0.0012, 3),
)
CALLS = 3
MIN_MARKED = 10  # networks a row needs before it can be marked


def load(checkout: Path, name: str):
    """The package under `checkout/src`, imported as `name`."""
    root = checkout.resolve() / "src" / "rainbowgraphs"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def load_all(checkouts: list[Path], seed: int) -> list:
    """The packages of the checkouts, in their order, imported in reverse
    order when the seed is odd."""
    packages = [None] * len(checkouts)
    for i in reversed(range(len(checkouts))) if seed % 2 else range(len(checkouts)):
        packages[i] = load(checkouts[i], f"checkout{i}")
    return packages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[Path(__file__).resolve().parents[1]])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    packages = load_all(args.checkouts, args.seed)
    sample = packages[0]
    print("\t".join(["config", "kind", "count", "rejected", "slower", *map(str, args.checkouts)]))
    slower = 0
    for index, (n, kappa, d, p, count) in enumerate(CONFIGS):
        p1 = sample.graphs.split_probability(p).p1
        best = {"saturated": [], "short": []}
        rejected = 0
        for i in range(count):
            d_in = sample.graphs.sample_coloured_digraph(
                n, p1, kappa, sample.rng.substream(args.seed, index, i, "solve-table")
            )
            nets = [package.flow.build_network(d_in, d) for package in packages]
            room, owner = [d] * n, [-1] * (kappa + 1)  # Dinic's first phase, as a plain loop
            for c, v in nets[0].middle_arcs.tolist():
                if owner[c] < 0 and room[v]:
                    room[v] -= 1
                    owner[c] = v
            degrees = np.bincount(nets[0].middle_arcs[:, 1], minlength=n)
            rejected += bool(kappa < d * n or degrees.min() < d)
            times = [float("inf")] * len(packages)
            for call in range(CALLS):
                turn = range(len(packages)) if (i + call) % 2 == 0 else reversed(range(len(packages)))
                for k in turn:
                    start = time.perf_counter()
                    packages[k].flow.max_flow(nets[k])
                    times[k] = min(times[k], time.perf_counter() - start)
            best["short" if any(room) else "saturated"].append(times)
        for kind, rows in best.items():
            if not rows:
                continue
            medians = [statistics.median(row[k] for row in rows) * 1e3 for k in range(len(packages))]
            paired = sum(row[-1] > row[0] for row in rows)
            mark = " slower" if len(rows) >= MIN_MARKED and paired >= 0.9 * len(rows) else ""
            slower += bool(mark)
            cells = [f"n={n} kappa={kappa} d={d} p={p}", kind, str(len(rows)), str(rejected if kind == "short" else 0)]
            cells.append(f"{paired}/{len(rows)}" if len(packages) > 1 else "-")
            print("\t".join(cells + [f"{ms:.3f}" for ms in medians]) + mark, flush=True)
    return 1 if slower else 0


if __name__ == "__main__":
    raise SystemExit(main())
