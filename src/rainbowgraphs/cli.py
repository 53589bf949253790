"""Command-line interface.

Subcommands: gen, extract, bounds, gamma, search, trial, sweep.
Graphs cross the boundary as edge-list text; experiments emit JSONL
records and (for sweeps) a CSV summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import edgelist, targets
from .flow import HALL_KAPPA_CAP, check_hall_bruteforce, extract_rainbow_dout, extract_via_permutation
from .graphs import sample_coloured_digraph, sample_coloured_graph, split_probability
from .harness import (
    ExperimentConfig,
    SWEEP_AXES,
    records_to_jsonl,
    run_sweep,
    run_trials,
)
from .rng import substream
from .search import find_rainbow_copy_exact, find_rainbow_spanning_tree


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_graph(g, out: str | None) -> None:
    buf = io.StringIO()
    edgelist.write_graph(g, buf)
    _write(buf.getvalue(), out)


def _cmd_gen(args: argparse.Namespace) -> int:
    rng = substream(args.seed, "gen")
    if args.directed:
        p1 = split_probability(args.p).p1 if args.split else args.p
        g = sample_coloured_digraph(args.n, p1, args.kappa, rng)
    else:
        g = sample_coloured_graph(args.n, args.p, args.kappa, rng)
    _write_graph(g, args.out)
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    text = Path(args.infile).read_text()
    dgr = edgelist.read_digraph(text)
    if args.permute:
        result = extract_via_permutation(dgr, args.d, substream(args.seed, "extract"))
    else:
        result = extract_rainbow_dout(dgr, args.d)
    if result is None:
        lines = ["INFEASIBLE"]
        if dgr.kappa <= HALL_KAPPA_CAP:
            _, witness = check_hall_bruteforce(dgr, args.d)
            if witness is not None:
                lines.append(f"witness colours: {' '.join(map(str, witness.colours))}")
                lines.append(
                    f"witness neighbours: {' '.join(map(str, witness.neighbours))}"
                )
                lines.append(f"deficiency: {witness.deficiency}")
        _write("\n".join(lines) + "\n", args.out)
        return 1
    _write_graph(result.digraph, args.out)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    report = bounds_mod.theorem1_threshold(
        args.n, args.delta, args.eps, alt_parse=args.alt_parse
    )
    payload = {
        k: v for k, v in dataclasses.asdict(report).items() if v is not None
    }
    if args.gamma is not None:
        edges = args.edges if args.edges is not None else args.n
        rio = bounds_mod.riordan_condition(
            args.n, args.p, args.gamma, args.delta, edges
        )
        payload.update(dataclasses.asdict(rio))
    if args.d is not None and args.kappa is not None:
        p1 = split_probability(args.p).p1
        rep = bounds_mod.theta(args.n, args.d, args.kappa, args.eps, p1)
        payload.update(
            chernoff_term=rep.chernoff_term,
            log_theta=rep.log_theta,
            theta_raw=rep.theta_raw,
            theta=rep.theta,
            s_range_lo=rep.s_range[0],
            s_range_hi=rep.s_range[1],
        )
    if args.json:
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _write("".join(f"{k}={v}\n" for k, v in payload.items()), args.out)
    return 0


def _cmd_gamma(args: argparse.Namespace) -> int:
    h = targets.build_target(args.family, args.size, args.seed)
    profile = targets.density_profile(h, exact=args.exact)
    lines = [f"target={h.name} n={h.n_H} edges={h.e_total} delta={h.delta}"]
    lines.extend(f"e_H({x})={e}" for x, e in sorted(profile.table.items()))
    lines.append(f"gamma={profile.gamma:g} at x={profile.argmax_x}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    g = edgelist.read_graph(Path(args.graph).read_text())
    if args.target == "tree" and args.size is None:
        emb = find_rainbow_spanning_tree(g)
    else:
        size = args.size
        if size is None:
            # size means vertex count for these families, so a spanning
            # default is well defined; grid/hypercube sizes are side/dim.
            if args.target not in ("cycle", "path", "matching", "tree"):
                raise SystemExit(f"--size is required for --target {args.target}")
            size = g.n
        h = targets.pad_target(targets.build_target(args.target, size, args.seed), g.n)
        emb = find_rainbow_copy_exact(g, h)
    if emb is None:
        _write("NONE\n", args.out)
        return 1
    lines = ["map: " + " ".join(map(str, emb.vertex_map))]
    lines.extend(
        f"{a} {b} -> {u} {v} colour {c}"
        for (a, b), (u, v, c) in emb.edge_images
    )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _config_from_args(args: argparse.Namespace, mode: str) -> ExperimentConfig:
    return ExperimentConfig(
        n=args.n,
        p=args.p,
        kappa=args.kappa,
        eps=args.eps,
        d=args.d,
        trials=args.trials,
        seed=args.seed,
        mode=mode,
        target_family=getattr(args, "target", None),
        target_size=getattr(args, "size", None),
        sweep_axis=getattr(args, "axis", None),
        sweep_values=tuple(getattr(args, "grid", ()) or ()),
        jobs=args.jobs,
    )


def _cmd_trial(args: argparse.Namespace) -> int:
    config = _config_from_args(args, args.mode)
    records = run_trials(config)
    _write(records_to_jsonl(records), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args, "sweep")
    result = run_sweep(config, mode=args.mode)
    if args.format == "csv":
        _write(result.to_csv(), args.out)
    else:
        _write(records_to_jsonl(result.records), args.out)
        if args.summary is not None:
            Path(args.summary).write_text(result.to_csv())
    return 0


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, default=50)
    sp.add_argument("--p", type=float, default=0.5)
    sp.add_argument("--kappa", type=int, default=100)
    sp.add_argument("--eps", type=float, default=0.5)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowgraphs",
        description="Rainbow d-out extraction from coloured random graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="sample a coloured random (di)graph")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--kappa", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--directed", action="store_true")
    sp.add_argument(
        "--split",
        action="store_true",
        help="treat --p as the undirected probability and sample arcs at p1",
    )
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("extract", help="extract a rainbow d-out digraph")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--permute", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_extract)

    sp = sub.add_parser("bounds", help="threshold and failure-bound reports")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--delta", type=int, required=True)
    sp.add_argument("--eps", type=float, default=0.5)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--kappa", type=int, default=None)
    sp.add_argument("--p", type=float, default=0.5)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--edges", type=int, default=None)
    sp.add_argument("--alt-parse", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("gamma", help="density profile and gamma of a target")
    sp.add_argument("--family", dest="family", choices=targets.FAMILIES, required=True)
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--exact", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_gamma)

    sp = sub.add_parser("search", help="exact rainbow copy search")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--target", choices=targets.FAMILIES, required=True)
    sp.add_argument("--size", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_search)

    sp = sub.add_parser("trial", help="Monte Carlo trials in one mode")
    sp.add_argument("--mode", choices=("lemma3", "lemma4", "pipeline"), required=True)
    _add_common(sp)
    sp.add_argument("--target", choices=targets.FAMILIES, default=None)
    sp.add_argument("--size", type=int, default=None)
    sp.set_defaults(fn=_cmd_trial)

    sp = sub.add_parser("sweep", help="Monte Carlo sweep over a parameter grid")
    sp.add_argument("--mode", choices=("lemma3", "lemma4", "pipeline"), required=True)
    sp.add_argument("--axis", choices=SWEEP_AXES, required=True)
    sp.add_argument("--grid", type=float, nargs="+", required=True)
    _add_common(sp)
    sp.add_argument("--target", choices=targets.FAMILIES, default=None)
    sp.add_argument("--size", type=int, default=None)
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sp.add_argument("--summary", default=None)
    sp.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
