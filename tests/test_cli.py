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


class TestReproducibility:
    def test_trial_byte_identical(self, run_cli):
        args = ["trial", "--mode", "lemma4", "--n", "30", "--d", "12",
                "--p", "0.3", "--eps", "0.5", "--trials", "20", "--seed", "11"]
        a = run_cli(*args)
        b = run_cli(*args, "--jobs", "3")
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout

    def test_sweep_byte_identical(self, run_cli):
        args = ["sweep", "--mode", "lemma4", "--axis", "d",
                "--grid", "8", "12", "16", "--n", "30", "--p", "0.3",
                "--eps", "0.5", "--trials", "15", "--seed", "12"]
        a = run_cli(*args)
        b = run_cli(*args, "--jobs", "2")
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
