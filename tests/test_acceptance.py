"""End-to-end acceptance checks, one per headline property.

Each test prints a single PASS/FAIL line so the suite output doubles as
an acceptance report.  Tolerances, trial counts and master seeds are
frozen; the Monte Carlo seeds were fixed after the pilot runs recorded
in pilot_calibration.md.
"""

import math
import time

import numpy as np
from scipy import stats

from rainbowgraphs.bounds import log_L, theta
from rainbowgraphs.coupling import couple
from rainbowgraphs.flow import (
    build_network,
    check_hall_bruteforce,
    extract_rainbow_dout,
    extract_via_permutation,
    max_flow,
)
from rainbowgraphs.graphs import sample_coloured_digraph, split_probability
from rainbowgraphs.harness import ExperimentConfig, run_trials
from rainbowgraphs.rng import substream
from rainbowgraphs.search import find_rainbow_copy_exact, find_rainbow_spanning_tree
from rainbowgraphs.graphs import sample_coloured_graph
from rainbowgraphs.targets import (
    density_profile,
    make_cycle,
    make_grid,
    make_hypercube,
    make_path,
    random_tree,
)

from test_bounds import log_l_oracle, theta_oracle
from test_search import rainbow_copy_oracle, rainbow_tree_oracle


def report(criterion: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {verdict}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def test_flow_hall_equivalence():
    """Max-flow value d*n exactly when the colour-subset cut condition
    holds; 1000 random instances, exhaustive subset oracle, < 30 s."""
    start = time.monotonic()
    disagreements = 0
    i = 0
    while i < 1000:
        rng = substream(100, "accept-hall", i)
        n = int(rng.integers(2, 9))
        kappa = int(rng.integers(1, 11))
        d = int(rng.integers(1, 3))
        p1 = [0.2, 0.5, 0.8][i % 3]
        d_in = sample_coloured_digraph(n, p1, kappa, rng)
        value, _ = max_flow(build_network(d_in, d))
        holds, witness = check_hall_bruteforce(d_in, d)
        if (value == d * n) != holds:
            disagreements += 1
        if witness is not None and witness.deficiency <= 0:
            disagreements += 1
        i += 1
    elapsed = time.monotonic() - start
    report(
        "flow-Hall equivalence",
        disagreements == 0 and elapsed < 30.0,
        f"1000 instances, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_rainbow_extraction_invariants():
    """Every successful extraction has out-degree d everywhere, globally
    distinct colours, and only arcs of the input digraph."""
    violations = 0
    successes = 0
    for i in range(1000):
        rng = substream(101, "accept-invariants", i)
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, 3))
        kappa = int(rng.integers(d * n, d * n + 12))
        p1 = float(rng.uniform(0.3, 0.9))
        d_in = sample_coloured_digraph(n, p1, kappa, rng)
        if i % 2:
            rainbow = extract_via_permutation(d_in, d, rng)
        else:
            rainbow = extract_rainbow_dout(d_in, d)
        if rainbow is None:
            continue
        successes += 1
        try:
            rainbow.check(d_in)
        except AssertionError:
            violations += 1
    report(
        "rainbow extraction invariants",
        violations == 0 and successes > 0,
        f"{successes}/1000 extractions succeeded, {violations} violations",
    )


def test_flow_monte_carlo_trend():
    """Success rate at p=0.8 beats p=0.2 by more than two pooled standard
    errors at n=100, d=2, eps=0.5, kappa=300; floor 0.95 at p=0.8.

    Master seed 1 and the floor were frozen after the pilot runs in
    pilot_calibration.md; < 2 min.
    """
    start = time.monotonic()
    rates = {}
    for p in (0.2, 0.8):
        cfg = ExperimentConfig(
            n=100, p=p, kappa=300, eps=0.5, d=2,
            trials=200, seed=1, mode="lemma3", jobs=4,
        )
        records = run_trials(cfg)
        rates[p] = sum(r.success for r in records) / 200
    elapsed = time.monotonic() - start
    pooled = (rates[0.2] + rates[0.8]) / 2
    se = math.sqrt(pooled * (1 - pooled) * (2 / 200))
    gap_ok = rates[0.8] - rates[0.2] > 2 * se
    report(
        "flow Monte Carlo trend",
        gap_ok and rates[0.8] >= 0.95 and elapsed < 120.0,
        f"rate(0.8)={rates[0.8]:.3f}, rate(0.2)={rates[0.2]:.3f}, "
        f"2SE={2 * se:.3f}, {elapsed:.0f}s",
    )


def test_coupling_containment_and_distribution():
    """Inner digraph is always an arc-subset of the d-out sample, and the
    truncation counts are Binomial(n-1, p1): chi-square at significance
    0.001 over 1e5 samples at n=50."""
    n, d, p_target = 50, 12, 0.3
    p1 = split_probability(p_target).p1
    counts = []
    containment_failures = 0
    successes = 0
    for i in range(2000):
        rng = substream(102, "accept-couple", i)
        out = couple(n, d, p_target, 0.5, rng)
        counts.extend(out.counts)
        if out.success:
            successes += 1
            d_out = {tuple(a) for a in out.d_out.arcs.tolist()}
            if not all(tuple(a) in d_out for a in out.inner.arcs.tolist()):
                containment_failures += 1
    counts = np.asarray(counts)
    assert len(counts) == 100_000
    # Pool the upper tail so every expected cell count is >= 5.
    pmf = stats.binom.pmf(np.arange(n), n - 1, p1)
    cut = n - 1
    while pmf[cut:].sum() * len(counts) < 5:
        cut -= 1
    observed = np.bincount(np.minimum(counts, cut), minlength=cut + 1)
    expected = np.append(pmf[:cut], pmf[cut:].sum()) * len(counts)
    chi = stats.chisquare(observed, expected)
    report(
        "coupling containment and k distribution",
        containment_failures == 0 and successes > 0 and chi.pvalue > 0.001,
        f"{successes}/2000 couplings succeeded, "
        f"chi-square p={chi.pvalue:.3f} over {len(counts)} samples",
    )


def test_density_gamma_oracle_equivalence():
    """Subset enumeration agrees exactly with the closed-form density
    tables and the advertised gamma values."""
    cases = [(make_cycle(3), 3.0)]
    cases += [(make_cycle(k), 2.0) for k in range(5, 13)]
    cases += [(make_grid(3), 2.0), (make_grid(4), 2.0), (make_hypercube(3), 2.0)]
    mismatches = []
    for h, gamma in cases:
        exact = density_profile(h, exact=True)
        closed = density_profile(h)
        if exact.table != closed.table or exact.gamma != gamma or closed.gamma != gamma:
            mismatches.append(h.name)
    q3 = density_profile(make_hypercube(3), exact=True)
    if q3.table[8] != 12:
        mismatches.append("Q3-e8")
    report(
        "density profile gamma equivalence",
        not mismatches,
        f"{len(cases)} targets" + (f", mismatches: {mismatches}" if mismatches else ""),
    )


def test_bound_calculators_match_oracles():
    """log L(s) and the failure bound match 60-digit oracles within 1e-9
    relative at every tuple with kappa <= 30, n <= 12; the bound strictly
    decreases along the doubling sweep."""
    worst = 0.0
    checked = 0
    for n in (4, 6, 9, 12):
        for d in (1, 2):
            for kappa in {d * n, d * n + 3, 30}:
                if kappa < d * n or kappa > 30:
                    continue
                for eps in (0.3, 0.5):
                    for p1 in (0.1, 0.5):
                        got = theta(n, d, kappa, eps, p1).log_theta
                        want = theta_oracle(n, d, kappa, eps, p1)
                        worst = max(worst, abs(got - want) / abs(want))
                        for s in range(kappa - d * n + 1, kappa):
                            got_s = log_L(n, d, kappa, eps, p1, s)
                            want_s = log_l_oracle(n, d, kappa, eps, p1, s)
                            worst = max(worst, abs(got_s - want_s) / abs(want_s))
                            checked += 1
                        checked += 1
    sweep = []
    for k in range(10, 19):
        n = 2**k
        p1 = 5 * 2 * 0.5**-2 * math.log(n) / n
        sweep.append(theta(n, 2, 3 * n, 0.5, p1).log_theta)
    decreasing = all(a > b for a, b in zip(sweep, sweep[1:]))
    report(
        "bound calculators vs oracles",
        worst < 1e-9 and decreasing,
        f"{checked} values, worst rel err {worst:.2e}, "
        f"sweep decreasing={decreasing}",
    )


def test_search_oracle_equivalence():
    """Backtracking finder agrees with full bijection enumeration on 300
    instances; tree finder agrees with edge-subset enumeration on 200."""
    copy_disagreements = 0
    for i in range(300):
        rng = substream(103, "accept-copy", i)
        n = int(rng.integers(4, 9))
        kind = i % 3
        h = (make_cycle(n), make_path(n), random_tree(n, rng))[kind]
        g = sample_coloured_graph(n, float(rng.uniform(0.3, 0.9)),
                                  int(rng.integers(2, 2 * n)), rng)
        emb = find_rainbow_copy_exact(g, h)
        if (emb is not None) != rainbow_copy_oracle(g, h):
            copy_disagreements += 1
    tree_disagreements = 0
    for i in range(200):
        rng = substream(103, "accept-tree", i)
        n = int(rng.integers(3, 8))
        g = sample_coloured_graph(n, float(rng.uniform(0.3, 0.9)),
                                  int(rng.integers(2, 2 * n)), rng)
        emb = find_rainbow_spanning_tree(g)
        if (emb is not None) != rainbow_tree_oracle(g):
            tree_disagreements += 1
    report(
        "rainbow search oracle equivalence",
        copy_disagreements == 0 and tree_disagreements == 0,
        f"300 copy + 200 tree instances, "
        f"{copy_disagreements + tree_disagreements} disagreements",
    )


def test_cli_reproducibility(run_cli):
    """Same seed gives byte-identical JSONL/CSV, independent of --jobs."""
    trial_args = ["trial", "--mode", "lemma3", "--n", "20", "--d", "2",
                  "--p", "0.6", "--eps", "0.5", "--kappa", "60",
                  "--trials", "24", "--seed", "7"]
    sweep_args = ["sweep", "--mode", "lemma4", "--axis", "p",
                  "--grid", "0.2", "0.5", "0.8", "--n", "30", "--d", "14",
                  "--eps", "0.5", "--trials", "16", "--seed", "8"]
    ok = True
    detail = []
    for args in (trial_args, sweep_args):
        runs = [run_cli(*args), run_cli(*args),
                run_cli(*args, "--jobs", "3")]
        if any(r.returncode != 0 for r in runs):
            ok = False
            detail.append(f"{args[0]}: nonzero exit")
        elif not runs[0].stdout == runs[1].stdout == runs[2].stdout:
            ok = False
            detail.append(f"{args[0]}: outputs differ")
    report(
        "reproducible trial/sweep output",
        ok,
        "; ".join(detail) if detail else "trial and sweep byte-identical, jobs 1 vs 3",
    )
