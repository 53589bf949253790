"""Per-call cost of `bounds.theta` on seeded configs, per checkout, with
every report field compared across checkouts.

    python3 tools/theta_table.py [--seed N] [CHECKOUT ...]

A CHECKOUT is a source tree with the package under `src/`; the default is
the one holding this script.  The checkouts are imported as
`solve_table.py` imports them, in reverse order on an odd seed.  The seed
draws 250 configs per decade of n from 10^2 to 10^6: n log-uniform in the
decade, d in 1..3, kappa uniform in [d*n, 4n], eps uniform in
[0.05, 1] and p1 log-uniform in [0.01, 1].  Each checkout evaluates each
config once untimed, and every field of the `BoundReport`s must be equal
to the bit (compared by repr), or the script exits 1.  That call also
counts the L terms the checkout evaluated: a config took the short cut in
a checkout when it evaluated fewer than d*n-1 of them.  Then every
checkout evaluates the config 3 times, the checkouts taking turns call by
call in alternating order, so drift in the machine's speed favours none
of them.  The table gives, per decade, the number of configs whose fields
differ, per checkout the median over the configs of each config's best
call in ms and the configs that took the short cut.  With two or more
checkouts, `slower` counts the configs whose best call in the last
checkout is slower than in the first (a tie counts for neither); a row is
marked when that count reaches nine tenths of its configs, and the script
exits 1 if one is.  Nothing is written to disk.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import statistics
import time
from pathlib import Path

import numpy as np
from solve_table import MIN_MARKED, load_all

DECADES = (2, 3, 4, 5)  # rows: n in [10^k, 10^(k+1)]
PER_DECADE = 250
CALLS = 3


def configs(seed: int, decade: int) -> list[tuple[int, int, int, float, float]]:
    """The decade's seeded (n, d, kappa, eps, p1)."""
    rng = np.random.default_rng([seed, decade])
    out = []
    for _ in range(PER_DECADE):
        n = int(round(10 ** rng.uniform(decade, decade + 1)))
        d = int(rng.integers(1, 4))
        kappa = int(rng.integers(d * n, 4 * n + 1))
        eps = float(rng.uniform(0.05, 1.0))
        p1 = float(10 ** rng.uniform(-2, 0))
        out.append((n, d, kappa, eps, p1))
    return out


def counted_theta(package, config) -> tuple[str, int]:
    """The repr of the config's report fields and the number of L terms
    the package's theta evaluated for it."""
    bounds = package.bounds
    real = bounds._log_l_array
    terms = 0

    def spy(n, d, kappa, eps, p1, s):
        nonlocal terms
        terms += len(s)
        return real(n, d, kappa, eps, p1, s)

    bounds._log_l_array = spy
    try:
        report = bounds.theta(*config)
    finally:
        bounds._log_l_array = real
    return repr(dataclasses.astuple(report)), terms


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[Path(__file__).resolve().parents[1]])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    packages = load_all(args.checkouts, args.seed)
    names = [str(c) for c in args.checkouts]
    print("\t".join(["n", "configs", "differ", "slower", *(f"{c} ms" for c in names), *(f"{c} short" for c in names)]))
    failed = False
    for decade in DECADES:
        rows = configs(args.seed, decade)
        differ = 0
        short = [0] * len(packages)
        best = []
        for i, config in enumerate(rows):
            n, d = config[0], config[1]
            seen = [counted_theta(package, config) for package in packages]
            differ += len({fields for fields, _ in seen}) > 1
            for k, (_, terms) in enumerate(seen):
                short[k] += terms < d * n - 1
            times = [math.inf] * len(packages)
            for call in range(CALLS):
                turn = range(len(packages)) if (i + call) % 2 == 0 else reversed(range(len(packages)))
                for k in turn:
                    start = time.perf_counter()
                    packages[k].bounds.theta(*config)
                    times[k] = min(times[k], time.perf_counter() - start)
            best.append(times)
        medians = [statistics.median(row[k] for row in best) * 1e3 for k in range(len(packages))]
        paired = sum(row[-1] > row[0] for row in best)
        mark = " slower" if len(best) >= MIN_MARKED and paired >= 0.9 * len(best) else ""
        failed |= bool(mark) or differ > 0
        cells = [f"1e{decade}-1e{decade + 1}", str(len(rows)), str(differ)]
        cells.append(f"{paired}/{len(best)}" if len(packages) > 1 else "-")
        cells += [f"{ms:.3f}" for ms in medians] + [str(s) for s in short]
        print("\t".join(cells) + mark, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
