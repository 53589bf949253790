"""Sample a coloured random digraph and pull out a rainbow d-out subgraph.

The extraction is a max-flow computation; when it fails, the dual
certificate is a deficient colour set, which we print instead.
"""

from rainbowgraphs.flow import check_hall_bruteforce, extract_via_permutation
from rainbowgraphs.graphs import sample_coloured_digraph, split_probability
from rainbowgraphs.rng import substream


def main() -> None:
    n, d, p = 8, 2, 0.7
    kappa = d * n + 4  # small enough for the exhaustive Hall-witness search
    p1 = split_probability(p).p1
    print(f"n={n}, d={d}, p={p} -> p1={p1:.4f}, kappa={kappa}")

    for seed in range(4):
        rng = substream(seed, "demo-extract")
        g = sample_coloured_digraph(n, p1, kappa, rng)
        rainbow = extract_via_permutation(g, d, rng)
        if rainbow is None:
            _, witness = check_hall_bruteforce(g, d)
            print(f"seed {seed}: infeasible, deficient colour set "
                  f"{witness.colours} (deficiency {witness.deficiency})")
            continue
        rainbow.check(g)
        arcs = rainbow.digraph.arcs.tolist()  # rows (tail, head, colour)
        print(f"seed {seed}: extracted {len(arcs)} arcs, "
              f"{len({c for _, _, c in arcs})} distinct colours")
        for v in range(n):
            print(f"  {v} -> " + ", ".join(f"{h} (colour {c})" for t, h, c in arcs if t == v))


if __name__ == "__main__":
    main()
