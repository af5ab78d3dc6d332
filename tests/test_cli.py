import csv
import io
from dataclasses import replace

import numpy as np
import pytest

import rtt.cli
from rtt.cli import main
from rtt.errors import InvalidArgument
from rtt.solver import smoke_build_config, build_table
from rtt.table import TestTable, read_table, write_table


@pytest.fixture(scope="module")
def smoke_tables(tmp_path_factory):
    """A small grid of levels built at smoke scale, stored as files."""
    root = tmp_path_factory.mktemp("tables")
    paths = {}
    for alpha in (0.05, 0.2):
        table = build_table(smoke_build_config(alpha=alpha, seed=1))
        path = root / f"k4_a{int(alpha * 1000):03d}.rtt"
        write_table(table, path)
        paths[alpha] = path
    return root, paths


def _kv(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.splitlines():
        if "=" in line and " " not in line.split("=", 1)[0]:
            key, val = line.split("=", 1)
            pairs[key] = val
    return out, pairs


class TestTestCommand:
    def test_plain_file(self, tmp_path, smoke_tables, capsys):
        root, paths = smoke_tables
        rng = np.random.default_rng(0)
        data = tmp_path / "w.txt"
        data.write_text("\n".join(repr(float(v)) for v in rng.standard_normal(60)))
        rc = main(["test", "--data", str(data), "--mu0", "0.0", "--table", str(paths[0.05])])
        assert rc == 0
        out, kv = _kv(capsys)
        assert kv["decision"] in ("reject", "accept")
        assert kv["reject"] in ("0", "1")
        assert kv["n"] == "60" and kv["k"] == "4"

    def test_csv_column(self, tmp_path, smoke_tables, capsys):
        root, paths = smoke_tables
        rng = np.random.default_rng(1)
        data = tmp_path / "d.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "value"])
            for i, v in enumerate(rng.standard_normal(55)):
                writer.writerow([i, repr(float(v))])
        rc = main([
            "test", "--data", str(data), "--column", "value",
            "--mu0", "25.0", "--table", str(paths[0.05]),
        ])
        assert rc == 0
        out, kv = _kv(capsys)
        assert kv["decision"] == "reject"

    def test_alpha_mismatch(self, tmp_path, smoke_tables, capsys):
        root, paths = smoke_tables
        data = tmp_path / "w.txt"
        data.write_text("\n".join(str(float(i)) for i in range(60)))
        rc = main([
            "test", "--data", str(data), "--alpha", "0.01", "--table", str(paths[0.05]),
        ])
        assert rc == 2

    def test_missing_column_errors(self, tmp_path, smoke_tables):
        root, paths = smoke_tables
        data = tmp_path / "d.csv"
        data.write_text("a,b\n1,2\n")
        rc = main([
            "test", "--data", str(data), "--column", "zzz", "--table", str(paths[0.05]),
        ])
        assert rc == 1


class TestPvalueCommand:
    def test_directory_of_tables(self, tmp_path, smoke_tables, capsys):
        root, paths = smoke_tables
        rng = np.random.default_rng(2)
        data = tmp_path / "w.txt"
        data.write_text("\n".join(repr(float(v)) for v in rng.standard_normal(60)))
        rc = main(["pvalue", "--data", str(data), "--mu0", "0.0", "--tables", str(root)])
        assert rc == 0
        out, kv = _kv(capsys)
        assert "p_value" in kv or "p_value_gt" in kv


class TestCiCommand:
    def test_interval(self, tmp_path, smoke_tables, capsys):
        root, paths = smoke_tables
        rng = np.random.default_rng(3)
        data = tmp_path / "w.txt"
        data.write_text("\n".join(repr(float(v)) for v in rng.standard_normal(60)))
        rc = main(["ci", "--data", str(data), "--level", "0.95", "--table", str(paths[0.05])])
        assert rc == 0
        out, kv = _kv(capsys)
        assert float(kv["ci_low"]) < float(kv["ci_high"])

    @pytest.mark.parametrize("command", ["ci", "pvalue", "test"])
    def test_small_sample_warning_line(self, command, tmp_path, smoke_tables, capsys):
        # every query prints the design-horizon note once, as rtt test does
        root, paths = smoke_tables
        data = tmp_path / "w.txt"
        data.write_text("\n".join(repr(float(v)) for v in np.random.default_rng(3).standard_normal(20)))
        assert main([command, "--data", str(data), *_source_args(command, paths, root)]) == 0
        out, kv = _kv(capsys)
        assert kv["warning"] == "sample size 20 is below the table's design horizon n0=50"
        assert out.count("warning=") == 1

    @pytest.mark.parametrize("source", [[], ["--table", "a.rtt", "--tables", "dir"]])
    def test_needs_exactly_one_table_source(self, source, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ci", "--data", "w.txt", "--level", "0.95", *source])
        assert exc.value.code == 2
        assert "--table" in capsys.readouterr().err


def _source_args(command, paths, root):
    if command == "test":
        return ["--table", str(paths[0.05])]
    if command == "pvalue":
        return ["--tables", str(root)]
    return ["--level", "0.95", "--table", str(paths[0.05])]


class TestInputErrors:
    """Bad input files are reported as ``error: ...`` with exit code 1."""

    @pytest.mark.parametrize("command", ["test", "pvalue", "ci"])
    def test_non_numeric_line_names_file_and_line(self, command, tmp_path, smoke_tables, capsys):
        root, paths = smoke_tables
        data = tmp_path / "w.txt"
        data.write_text("# header\n0.5\n1,5\n2.0\n")
        assert main([command, "--data", str(data), *_source_args(command, paths, root)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{data}, line 3" in err and "'1,5'" in err

    @pytest.mark.parametrize("command", ["test", "regress"])
    def test_non_numeric_csv_cell_names_file_column_and_row(self, command, tmp_path, smoke_tables, capsys):
        root, paths = smoke_tables
        data = tmp_path / "d.csv"
        data.write_text("value,x,cl\n0.5,1.0,1\nabc,2.0,2\n2.0,3.0,3\n")
        if command == "test":
            args = ["test", "--column", "value"]
        else:
            args = ["regress", "--y", "value", "--x", "x", "--cluster", "cl"]
        assert main([*args, "--data", str(data), "--table", str(paths[0.05])]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{data}, column 'value', data row 2: not a number: 'abc'" in err

    @pytest.mark.parametrize("command", ["test", "pvalue"])
    def test_non_finite_mean(self, command, tmp_path, smoke_tables, capsys):
        root, paths = smoke_tables
        data = tmp_path / "w.txt"
        data.write_text("\n".join(repr(float(v)) for v in np.random.default_rng(0).standard_normal(60)))
        assert main([command, "--data", str(data), "--mu0", "nan", *_source_args(command, paths, root)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "hypothesized mean nan" in err

    def test_non_numeric_line_is_invalid_argument(self, tmp_path):
        data = tmp_path / "w.txt"
        data.write_text("1.0\nabc\n")
        with pytest.raises(InvalidArgument, match="line 2"):
            rtt.cli._read_numbers(str(data), None)

    @pytest.mark.parametrize("command", ["test", "pvalue", "ci"])
    def test_missing_data_file(self, command, tmp_path, smoke_tables, capsys):
        root, paths = smoke_tables
        missing = tmp_path / "absent.txt"
        assert main([command, "--data", str(missing), *_source_args(command, paths, root)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    @pytest.mark.parametrize("command", ["test", "pvalue", "ci"])
    def test_missing_table_file(self, command, tmp_path, capsys):
        data = tmp_path / "w.txt"
        data.write_text("\n".join(str(float(i)) for i in range(60)))
        missing = tmp_path / "absent.rtt"
        flag = "--tables" if command == "pvalue" else "--table"
        extra = ["--level", "0.95"] if command == "ci" else []
        assert main([command, "--data", str(data), *extra, flag, str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err


class TestRegressCommand:
    def test_cluster_flag(self, tmp_path, smoke_tables, capsys):
        root, paths = smoke_tables
        rng = np.random.default_rng(4)
        n_cl, t_i = 60, 5
        labels = np.repeat(np.arange(n_cl), t_i)
        x = rng.standard_normal(n_cl * t_i)
        z1 = rng.standard_normal(n_cl * t_i)
        nu = rng.standard_normal(n_cl)
        y = nu[labels] * x + rng.standard_normal(n_cl * t_i)
        data = tmp_path / "reg.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "x", "z1", "cl"])
            for row in zip(y, x, z1, labels):
                writer.writerow([repr(float(row[0])), repr(float(row[1])), repr(float(row[2])), int(row[3])])
        rc = main([
            "regress", "--data", str(data), "--y", "y", "--x", "x",
            "--controls", "z1", "--cluster", "cl", "--beta0", "0.0",
            "--table", str(paths[0.05]),
        ])
        assert rc == 0
        out, kv = _kv(capsys)
        assert kv["n_clusters"] == "60"
        assert kv["decision"] in ("reject", "accept")


class TestSimulateCommand:
    def test_design_file(self, tmp_path, capsys):
        design = tmp_path / "design.txt"
        design.write_text(
            "population = LogN\nadapter = mean\nn = 40\nreps = 30\n"
            "alpha = 0.05\nmethods = t_test\nseed = 2\nci = false\n"
        )
        out_csv = tmp_path / "report.csv"
        rc = main(["simulate", "--design", str(design), "--out", str(out_csv)])
        assert rc == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert rows[0]["method"] == "t_test"
        assert 0.0 <= float(rows[0]["reject_rate"]) <= 1.0

    @pytest.mark.parametrize("key, value", [("n", "50.0"), ("ci", "flase")])
    def test_bad_value_is_an_error_line(self, tmp_path, capsys, key, value):
        design = tmp_path / "design.txt"
        design.write_text(f"population = LogN\nreps = 30\n{key} = {value}\n")
        out_csv = tmp_path / "report.csv"
        rc = main(["simulate", "--design", str(design), "--out", str(out_csv)])
        assert rc == 1
        assert f"error: design line 3: bad value '{value}' for '{key}'" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("methods, message", [
        ("", "a design needs at least one method"),
        ("t_test, t_test", "each method may be named once"),
    ])
    def test_empty_or_repeated_methods_are_an_error_line(self, tmp_path, capsys, methods, message):
        design = tmp_path / "design.txt"
        design.write_text(f"population = LogN\nreps = 3\nci = no\nmethods = {methods}\n")
        out_csv = tmp_path / "report.csv"
        rc = main(["simulate", "--design", str(design), "--out", str(out_csv)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out_csv.exists()


class TestBuildCommand:
    def test_smoke_profile(self, tmp_path, capsys):
        out = tmp_path / "t.rtt"
        rc = main([
            "build", "--out", str(out), "--profile", "smoke", "--k", "4",
            "--alpha", "0.05", "--seed", "2",
        ])
        assert rc == 0
        table = read_table(out)
        assert table.k == 4 and table.alpha == 0.05

    def test_size_overrides_reach_the_config(self, tmp_path, monkeypatch):
        seen = []

        def fake_build(config):
            seen.append(config)
            return TestTable(
                k=4, n0=50, alpha=0.05, rho1=0.1, rho_r=0.1,
                single_atoms=((1.0, 3.0, 0.05, 0.0),),
                full_atoms=((1.0, 3.0, 0.05, 0.0, 3.0, 0.05, 0.0),),
                xi_grid=(0.0,),
            )

        monkeypatch.setattr(rtt.cli, "build_table", fake_build)
        rc = main([
            "build", "--out", str(tmp_path / "t.rtt"), "--profile", "smoke",
            "--n-draws", "7", "--recombine", "3",
        ])
        assert rc == 0
        assert seen == [replace(smoke_build_config(), n_draws=7, recombine=3)]

    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.1", "nan"])
    def test_level_outside_unit_interval_rejected(self, tmp_path, monkeypatch, capsys, alpha):
        def fake_build(config):
            raise AssertionError("build_table reached with a level outside (0, 1)")

        monkeypatch.setattr(rtt.cli, "build_table", fake_build)
        rc = main(["build", "--out", str(tmp_path / "t.rtt"), "--profile", "smoke", "--alpha", alpha])
        assert rc == 1
        assert "error: level alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "t.rtt").exists()

    @pytest.mark.parametrize("flag", ["--n-draws", "--recombine"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_sizes_rejected(self, tmp_path, monkeypatch, capsys, flag, value):
        def fake_build(config):
            raise AssertionError("build_table reached with a non-positive size")

        monkeypatch.setattr(rtt.cli, "build_table", fake_build)
        with pytest.raises(SystemExit) as exc:
            main(["build", "--out", str(tmp_path / "t.rtt"), "--profile", "smoke", flag, value])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err
