"""Golden outputs: every case's CLI output must match its fixture byte for
byte, so a refactor that changes any number, field, order or draw shows.

Regenerate fixtures (only for a deliberate output change) with

    PYTHONPATH=src python3 tests/test_golden.py [NAME ...]

which rewrites only the named cases, or every case when no name is given.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from rainbowgraphs.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGRAPH = str(GOLDEN / "input_digraph.txt")  # gen --n 8 --p 0.8 --kappa 30 --seed 2 --directed
SPARSE = str(GOLDEN / "input_sparse.txt")  # too few colours for d=1: infeasible
WIDE = str(GOLDEN / "input_kappa30.txt")  # kappa=30, one colour present: infeasible
GRAPH = str(GOLDEN / "input_graph.txt")  # gen --n 7 --p 0.9 --kappa 30 --seed 4

# each mode's options but the one a sweep's --axis sets, which is added
# back for the trials
_LEMMA3 = ["--mode", "lemma3", "--n", "20", "--kappa", "45", "--d", "2", "--trials", "12",
           "--seed", "4"]
_LEMMA4 = ["--mode", "lemma4", "--n", "30", "--p", "0.3", "--trials", "12", "--seed", "11"]
_PIPE = ["--mode", "pipeline", "--n", "8", "--kappa", "60", "--eps", "1.0", "--d", "3",
         "--trials", "24", "--seed", "5"]
_BOUNDS = ["bounds", "--n", "4096", "--delta", "2", "--eps", "0.5"]

# case name -> (argv without --out, exit code)
CASES: dict[str, tuple[list[str], int]] = {
    "trial_lemma3.jsonl": (["trial", *_LEMMA3, "--p", "0.6"], 0),
    "trial_lemma4.jsonl": (["trial", *_LEMMA4, "--d", "12"], 0),
    "trial_pipeline_cycle.jsonl": (
        ["trial", *_PIPE, "--p", "0.95", "--target", "cycle", "--size", "8"], 0),
    "trial_pipeline_path_padded.jsonl": (
        ["trial", *_PIPE, "--p", "0.95", "--target", "path", "--size", "5"], 0),
    "trial_pipeline_tree.jsonl": (
        ["trial", *_PIPE, "--p", "0.95", "--target", "tree", "--size", "8"], 0),
    "sweep_lemma4_d.jsonl": (
        ["sweep", *_LEMMA4, "--axis", "d", "--grid", "8", "12", "16"], 0),
    "sweep_lemma4_d.csv": (
        ["sweep", *_LEMMA4, "--axis", "d", "--grid", "8", "12", "16", "--format", "csv"], 0),
    "sweep_lemma3_p.jsonl": (
        ["sweep", *_LEMMA3, "--axis", "p", "--grid", "0.2", "0.5", "0.8"], 0),
    "sweep_pipeline_p.csv": (
        ["sweep", *_PIPE, "--target", "cycle", "--size", "8", "--axis", "p",
         "--grid", "0.5", "0.95", "--format", "csv"], 0),
    "bounds.json": ([*_BOUNDS, "--json"], 0),
    "bounds_alt.txt": ([*_BOUNDS, "--alt-parse"], 0),
    "bounds_gamma.json": ([*_BOUNDS, "--p", "0.05", "--gamma", "2", "--json"], 0),
    "bounds_gamma_edges.json": (
        [*_BOUNDS, "--p", "0.05", "--gamma", "1.5", "--edges", "8000", "--json"], 0),
    "bounds_theta.json": (
        [*_BOUNDS, "--p", "0.05", "--d", "2", "--kappa", "24576", "--json"], 0),
    "bounds_all.json": (
        [*_BOUNDS, "--p", "0.05", "--gamma", "2", "--d", "2", "--kappa", "24576",
         "--alt-parse", "--json"], 0),
    "gamma_grid.txt": (["gamma", "--family", "grid", "--size", "3"], 0),
    "gamma_hypercube.txt": (["gamma", "--family", "hypercube", "--size", "3"], 0),
    "gamma_cycle.txt": (["gamma", "--family", "cycle", "--size", "7"], 0),
    "gamma_cycle_exact.txt": (["gamma", "--family", "cycle", "--size", "7", "--exact"], 0),
    "gamma_path.txt": (["gamma", "--family", "path", "--size", "6"], 0),
    "gamma_matching.txt": (["gamma", "--family", "matching", "--size", "6"], 0),
    "gamma_tree.txt": (["gamma", "--family", "tree", "--size", "8", "--seed", "3"], 0),
    "extract.txt": (["extract", "--in", DIGRAPH, "--d", "2"], 0),
    "extract_permute.txt": (["extract", "--in", DIGRAPH, "--d", "2", "--permute",
                             "--seed", "9"], 0),
    "extract_infeasible.txt": (["extract", "--in", SPARSE, "--d", "1"], 1),
    "extract_infeasible_kappa30.txt": (["extract", "--in", WIDE, "--d", "1"], 1),
    "search_cycle.txt": (["search", "--graph", GRAPH, "--target", "cycle"], 0),
    "search_path_padded.txt": (["search", "--graph", GRAPH, "--target", "path",
                                "--size", "5"], 0),
    "search_tree.txt": (["search", "--graph", GRAPH, "--target", "tree"], 0),
    "search_tree_none.txt": (["search", "--graph", SPARSE, "--target", "tree"], 1),
}

# trial and sweep output must also be independent of --jobs
PARALLEL = sorted(name for name, (argv, _) in CASES.items() if argv[0] in ("trial", "sweep"))


def _run(argv: list[str], out: Path) -> tuple[int, bytes]:
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    argv, want_code = CASES[name]
    code, got = _run(argv, tmp_path / name)
    assert code == want_code
    assert got == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", PARALLEL)
def test_output_matches_golden_with_two_jobs(name, tmp_path):
    argv, _ = CASES[name]
    _, got = _run([*argv, "--jobs", "2"], tmp_path / name)
    assert got == (GOLDEN / name).read_bytes()


def regenerate(names: list[str], where: Path = GOLDEN) -> None:
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        sys.exit(f"unknown case(s): {' '.join(unknown)}")
    for name in names:
        argv, want_code = CASES[name]
        code = main([*argv, "--out", str(where / name)])
        if code != want_code:
            sys.exit(f"{name}: exit code {code}, expected {want_code}")
        print(f"wrote {name}")


def test_regenerate_writes_only_named_cases(tmp_path):
    regenerate(["gamma_path.txt", "extract_infeasible.txt"], tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["extract_infeasible.txt", "gamma_path.txt"]
    with pytest.raises(SystemExit, match="unknown case"):
        regenerate(["no_such_case.txt"], tmp_path)


if __name__ == "__main__":
    regenerate(sys.argv[1:] or list(CASES))
