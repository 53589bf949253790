"""Empirical success rate of the binomial truncation coupling.

A d-out sample is truncated at per-vertex Binomial(n-1, p1) counts; the
coupling succeeds when every count is at most d, in which case the inner
digraph is an independent-arc model contained in the d-out sample.  The
observed frequency is compared with the exact product of binomial CDFs.
"""

import numpy as np
from scipy.stats import binom

from rainbowgraphs.coupling import couple
from rainbowgraphs.graphs import split_probability
from rainbowgraphs.rng import substream


def main() -> None:
    n, p_target, eps, trials = 200, 0.3, 0.5, 400
    p1 = split_probability(p_target).p1
    print(f"n={n}, p_target={p_target} (p1={p1:.4f}), {trials} trials\n")
    print(f"{'d':>4} {'observed':>9} {'exact':>9}")
    for d in (45, 50, 55, 60):
        hits = 0
        for t in range(trials):
            rng = substream(t, "demo-couple", d)
            out = couple(n, d, p_target, eps, rng)
            if out.success:
                # every inner arc is a d-out arc (both are uncoloured)
                inner, outer = out.inner.arcs, out.d_out.arcs
                assert np.isin(inner[:, 0] * n + inner[:, 1], outer[:, 0] * n + outer[:, 1]).all()
                hits += 1
        exact = binom.cdf(d, n - 1, p1) ** n
        print(f"{d:>4} {hits / trials:>9.3f} {exact:>9.3f}")


if __name__ == "__main__":
    main()
