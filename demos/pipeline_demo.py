"""Full pipeline sweep: extraction, coupling, orientation forgetting, and
the exact rainbow search for a spanning cycle, across an edge-probability
grid.  Per-point success frequencies come with Wilson confidence bounds.
"""

from rainbowgraphs.harness import ExperimentConfig, run_sweep


def main() -> None:
    cfg = ExperimentConfig(
        n=10, p=0.5, kappa=45, eps=0.5, d=3,
        trials=120, seed=5, mode="pipeline",
        target_family="cycle", target_size=10, jobs=4,
    )
    result = run_sweep(cfg, "p", (0.3, 0.5, 0.7, 0.9))
    print("rainbow spanning C10 via the flow pipeline, n=10, d=3, kappa=45\n")
    print(f"{'p':>5} {'rate':>6} {'95% Wilson CI':>16}")
    for pt in result.summary:
        print(f"{pt.point:>5} {pt.rate:>6.3f}   [{pt.ci_lo:.3f}, {pt.ci_hi:.3f}]")


if __name__ == "__main__":
    main()
