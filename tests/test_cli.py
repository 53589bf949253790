from pathlib import Path

import pytest

from rainbowgraphs import flow, harness
from rainbowgraphs.cli import main


class TestGenExtract:
    def test_roundtrip_extract(self, tmp_path):
        path = tmp_path / "d.txt"
        assert main(
            ["gen", "--n", "8", "--p", "0.8", "--kappa", "30", "--seed", "2",
             "--directed", "--out", str(path)]
        ) == 0
        first = path.read_text().splitlines()[0]
        assert first == "8 30"
        out = tmp_path / "rainbow.txt"
        code = main(["extract", "--in", str(path), "--d", "1", "--out", str(out)])
        text = out.read_text()
        if code == 0:
            lines = text.strip().splitlines()
            assert lines[0] == "8 30"
            assert len(lines) == 1 + 8  # out-degree 1 everywhere
        else:
            assert text.startswith("INFEASIBLE")

    def test_extract_infeasible_prints_witness(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("3 3\n0 1 1\n1 2 1\n")
        out = tmp_path / "res.txt"
        code = main(["extract", "--in", str(path), "--d", "1", "--out", str(out)])
        assert code == 1
        text = out.read_text()
        assert text.startswith("INFEASIBLE")
        assert "deficiency" in text

    def test_extract_rejects_uncoloured_arcs(self, tmp_path, capsys):
        # colour 0 once crashed the decomposition (first input) or passed
        # off 2 arcs on 3 vertices as a rainbow 1-out (second input)
        path = tmp_path / "d.txt"
        for text in ["2 1\n0 1 0\n1 0 0\n", "3 2\n0 1 0\n1 0 1\n2 0 2\n"]:
            path.write_text(text)
            code = main(["extract", "--in", str(path), "--d", "1", "--out", str(tmp_path / "o")])
            assert code == 2
            assert "uncoloured arc" in capsys.readouterr().err

    @pytest.mark.parametrize("name, code", [("input_digraph.txt", 0), ("input_kappa30.txt", 1)])
    @pytest.mark.parametrize("permute", [[], ["--permute"]])
    def test_extract_solves_one_max_flow(self, name, code, permute, tmp_path, monkeypatch):
        # an INFEASIBLE verdict prints the witness of the flow that decided it
        calls = []
        solve = flow.max_flow
        monkeypatch.setattr(flow, "max_flow", lambda net: calls.append(net) or solve(net))
        path = Path(__file__).resolve().parent / "golden" / name
        args = ["extract", "--in", str(path), "--d", "2", *permute, "--out", str(tmp_path / "o")]
        assert main(args) == code
        assert len(calls) == 1

    def test_extract_permute(self, tmp_path):
        path = tmp_path / "d.txt"
        main(["gen", "--n", "6", "--p", "0.9", "--kappa", "20", "--seed", "3",
              "--directed", "--out", str(path)])
        out = tmp_path / "res.txt"
        code = main(["extract", "--in", str(path), "--d", "1", "--permute",
                     "--seed", "9", "--out", str(out)])
        assert code in (0, 1)


class TestOtherCommands:
    def test_bounds_key_value(self, capsys):
        assert main(["bounds", "--n", "10000", "--delta", "2", "--eps", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "eq1_p_min=" in out

    def test_gamma_table(self, capsys):
        assert main(["gamma", "--family", "cycle", "--size", "5"]) == 0
        out = capsys.readouterr().out
        assert "gamma=2" in out
        assert "e_H(5)=5" in out

    def test_search_finds_or_none(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        main(["gen", "--n", "6", "--p", "0.9", "--kappa", "20", "--seed", "4",
              "--out", str(path)])
        code = main(["search", "--graph", str(path), "--target", "path",
                     "--size", "6"])
        out = capsys.readouterr().out
        assert (code == 0 and out.startswith("map:")) or out == "NONE\n"

    def test_bad_input_exits_2_with_one_line(self, tmp_path, run_cli, capsys):
        # exit 1 is a valid NONE/INFEASIBLE verdict, so bad input has its own code
        graph, digraph = tmp_path / "g.txt", tmp_path / "d.txt"
        graph.write_text("4 3\n0 1 1\n1 2 2\n")
        digraph.write_text("3 2\n0 1 1\n0 1 2\n")
        # headers no graph can hold: a negative kappa, and n or kappa past int64
        headers = {h: tmp_path / f"h{i}.txt" for i, h in enumerate(["3 -1", "3 -2", f"{2**63} 2", f"3 {2**63}"])}
        for header, path in headers.items():
            path.write_text(header + "\n")
        for args, message in [
            (["search", "--graph", str(graph), "--target", "grid"], "--size is required"),
            (["extract", "--in", str(digraph), "--d", "1"], "duplicate arc (0, 1)"),
            (["extract", "--in", str(headers["3 -1"]), "--d", "1"], "kappa=-1"),
            (["search", "--graph", str(headers["3 -1"]), "--target", "tree"], "kappa=-1"),
            (["extract", "--in", str(headers["3 -2"]), "--d", "1"], "kappa=-2"),
            (["extract", "--in", str(headers[f"{2**63} 2"]), "--d", "1"], f"n={2**63}"),
            (["search", "--graph", str(headers[f"3 {2**63}"]), "--target", "tree"], f"kappa={2**63}"),
            (["extract", "--in", str(tmp_path / "missing.txt"), "--d", "1"], "missing.txt"),
            # options the run would ignore
            (["gen", "--n", "5", "--p", "0.5", "--kappa", "10", "--split"], "--split needs --directed"),
            (["bounds", "--n", "100", "--delta", "2", "--d", "2"], "--d and --kappa"),
            (["bounds", "--n", "100", "--delta", "2", "--kappa", "300"], "--d and --kappa"),
            (["bounds", "--n", "100", "--delta", "2", "--edges", "50"], "--edges needs --gamma"),
        ]:
            res = run_cli(*args)
            assert res.returncode == 2 and res.stdout == ""
            assert res.stderr.startswith("error: ") and message in res.stderr
            assert res.stderr.count("\n") == 1
        # options the run would ignore, given with their default values or
        # others; in this process, as the exit code is main's return value
        for args, message in [
            (["extract", "--in", str(digraph), "--d", "1", "--seed", "7"], "--seed needs --permute"),
            (["bounds", "--n", "100", "--delta", "2", "--p", "0.01"], "--p needs --gamma or --d"),
            (["trial", "--mode", "lemma3", "--n", "5", "--trials", "1", "--target", "cycle"],
             "--target is not used by --mode lemma3"),
            (["trial", "--mode", "lemma4", "--n", "5", "--trials", "1", "--size", "5"],
             "--size is not used by --mode lemma4"),
            (["sweep", "--mode", "lemma3", "--axis", "p", "--grid", "0.3", "--n", "5", "--trials", "1",
              "--size", "5"], "--size is not used by --mode lemma3"),
            (["sweep", "--mode", "lemma4", "--axis", "p", "--grid", "0.3", "--n", "5", "--trials", "1",
              "--target", "path"], "--target is not used by --mode lemma4"),
            (["trial", "--mode", "lemma4", "--n", "5", "--trials", "1", "--kappa", "100"],
             "--kappa is not used by --mode lemma4"),
            (["sweep", "--mode", "lemma4", "--axis", "d", "--grid", "1", "--n", "5", "--trials", "1",
              "--kappa", "9"], "--kappa is not used by --mode lemma4"),
            (["sweep", "--mode", "lemma4", "--axis", "kappa", "--grid", "10", "20", "--n", "5",
              "--trials", "1"], "--kappa is not used by --mode lemma4"),
            (["sweep", "--mode", "lemma4", "--axis", "d", "--grid", "1", "--n", "5", "--trials", "1",
              "--format", "csv", "--summary", str(tmp_path / "s.csv")], "--summary needs --format jsonl"),
            (["search", "--graph", str(graph), "--target", "cycle", "--seed", "0"],
             "--seed needs --target tree and --size"),
            (["search", "--graph", str(graph), "--target", "tree", "--seed", "3"],
             "--seed needs --target tree and --size"),
            (["gamma", "--family", "cycle", "--size", "5", "--seed", "0"], "--seed needs --family tree"),
            (["trial", "--mode", "lemma3", "--n", "10", "--p", "0.5", "--kappa", "30", "--d", "2",
              "--trials", "5", "--eps", "0.9"], "--eps is not used by --mode lemma3"),
            (["trial", "--mode", "lemma4", "--n", "10", "--p", "0.5", "--d", "2", "--trials", "5",
              "--eps", "0.9"], "--eps is not used by --mode lemma4"),
            (["sweep", "--mode", "lemma4", "--axis", "d", "--grid", "3", "--n", "10", "--trials", "2",
              "--d", "5"], "--d is set by --axis"),
            (["sweep", "--mode", "lemma4", "--axis", "n", "--grid", "inf", "--trials", "1", "--d", "2"],
             "n takes integers, got inf"),
            # NaN and p outside [0, 1] in the analytic reports, which once
            # printed NaN fields (not JSON) or a negative side condition
            (["bounds", "--n", "4096", "--delta", "2", "--eps", "nan", "--json"], "eps=nan"),
            (["bounds", "--n", "4096", "--delta", "2", "--p", "nan", "--gamma", "2"], "need p in [0, 1], got nan"),
            (["bounds", "--n", "4096", "--delta", "2", "--gamma", "nan"], "need gamma > 0, got nan"),
            (["bounds", "--n", "4096", "--delta", "2", "--p", "1.5", "--gamma", "2"], "need p in [0, 1], got 1.5"),
            (["trial", "--mode", "pipeline", "--n", "8", "--trials", "1", "--eps", "nan"], "need eps > 0, got nan"),
        ]:
            assert main(args) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and message in err
            assert err.count("\n") == 1

    def test_every_option_a_mode_does_not_read_exits_2(self, monkeypatch, capsys):
        for mode in harness.MODES:
            monkeypatch.setitem(harness._TRIAL_FN, mode, lambda c, t: pytest.fail("a trial ran"))
        options = {"kappa": ("kappa", "30"), "eps": ("eps", "0.5"),
                   "target_family": ("target", "cycle"), "target_size": ("size", "8")}
        rejected = 0
        for mode, fields in harness.MODE_FIELDS.items():
            for option, value in (options[f] for f in options if f not in fields):
                for command in (["trial"], ["sweep", "--axis", "p", "--grid", "0.3"]):
                    args = [*command, "--mode", mode, "--n", "5", "--trials", "1", f"--{option}", value]
                    assert main(args) == 2
                    out, err = capsys.readouterr()
                    assert out == "" and err == f"error: --{option} is not used by --mode {mode}\n"
                    rejected += 1
        assert rejected == 14  # lemma3: eps, target, size; lemma4: those and kappa

    def test_sweep_never_checks_the_value_it_overrides(self, tmp_path):
        # without --n the default n=50 breaks the pipeline's n <= 16 cap,
        # but every point of the sweep sets n
        common = ["--mode", "pipeline", "--target", "cycle", "--size", "10", "--p", "0.9",
                  "--kappa", "80", "--d", "3", "--eps", "1.0", "--trials", "2"]
        sweep = tmp_path / "sweep.jsonl"
        assert main(["sweep", *common, "--axis", "n", "--grid", "10", "12", "--out", str(sweep)]) == 0
        points = []
        for n in ("10", "12"):
            out = tmp_path / f"trial_{n}.jsonl"
            assert main(["trial", *common, "--n", n, "--out", str(out)]) == 0
            points.append(out.read_text())
        assert sweep.read_text() == "".join(points)

    @pytest.mark.parametrize("args", [
        ["sweep", "--mode", "lemma3", "--axis", "kappa", "--grid", "30", "3000000000",
         "--n", "5", "--d", "2", "--trials", "3"],
        ["trial", "--mode", "lemma3", "--n", "5", "--d", "2", "--trials", "3", "--jobs", "0"],
    ])
    def test_bad_config_exits_2_before_any_trial(self, args, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(harness._TRIAL_FN, "lemma3", lambda c, t: pytest.fail("a trial ran"))
        out = tmp_path / "out.jsonl"
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ") and not out.exists()


class TestReproducibility:
    def test_trial_byte_identical(self, run_cli):
        args = ["trial", "--mode", "lemma4", "--n", "30", "--d", "12",
                "--p", "0.3", "--trials", "20", "--seed", "11"]
        a = run_cli(*args)
        b = run_cli(*args, "--jobs", "3")
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout

    def test_sweep_byte_identical(self, run_cli):
        args = ["sweep", "--mode", "lemma4", "--axis", "d",
                "--grid", "8", "12", "16", "--n", "30", "--p", "0.3",
                "--trials", "15", "--seed", "12"]
        a = run_cli(*args)
        b = run_cli(*args, "--jobs", "2")
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
