"""CLI behaviour: reports, reproducibility, exit codes."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import phtree
from phtree import GameParams, check_field
from phtree import solver as solver_mod
from phtree.cli import canonical_json, main
from phtree.solver import field_from_csv


@pytest.fixture()
def runner():
    return CliRunner()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _level_4_set_file(tmp_path) -> str:
    """All 81 level-4 vertices of m=3, each its own automaton state."""
    members = tmp_path / "set.txt"
    members.write_text(
        "".join(".".join(map(str, d)) + "\n" for d in itertools.product(range(3), repeat=4)),
        encoding="utf-8",
    )
    return str(members)


def test_cli_import_leaves_out_the_float_kernel():
    """Only a report with float levels loads ``phtree._format`` and its tables."""
    env = {**os.environ, "PYTHONPATH": str(Path(phtree.__file__).parents[1])}
    code = "import sys, phtree.cli; print('phtree._format' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr


class TestFileErrors:
    """An input or output file the run cannot use exits 2 with one error line."""

    @pytest.mark.parametrize(
        "command, path",
        [
            (["ucp", "--set-file"], "missing.txt"),
            (["ucp", "--set-file"], "directory"),
            (["ucp", "--set-file"], "latin1.txt"),
            (["solve", "--n", "2", "--boundary"], "directory"),
            (["solve", "--n", "2", "--boundary"], "latin1.csv"),
            (["solve", "--n", "2", "--boundary", "linear", "--output"], "missing/report.json"),
        ],
        ids=[
            "set-file-missing",
            "set-file-directory",
            "set-file-not-utf8",
            "boundary-directory",
            "boundary-not-utf8",
            "output-in-missing-directory",
        ],
    )
    def test_exits_2(self, runner, tmp_path, command, path):
        (tmp_path / "directory").mkdir()
        (tmp_path / "latin1.txt").write_bytes(b"0\n1.\xe9\n")
        (tmp_path / "latin1.csv").write_bytes(b"t,value\n0,0\n1,\xe9\n")
        subcommand, *options = command
        result = runner.invoke(main, [
            subcommand, "--m", "3", "--alpha", "0.5", *options, str(tmp_path / path),
        ])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no uncaught exception
        assert result.stdout == ""
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.output


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 1 / 3, "a": [1, True, None], "c": "x"}).decode()
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "0.33333333333333331" in text
        assert json.loads(text) == {"a": [1, True, None], "b": 1 / 3, "c": "x"}

    def test_escaping(self):
        text = canonical_json({"k": 'a"b\\c'}).decode()
        assert json.loads(text) == {"k": 'a"b\\c'}


class TestSolve:
    def test_json_root_value(self, runner):
        result = runner.invoke(main, [
            "solve", "--m", "3", "--alpha", "0.5", "--beta", "0.5",
            "--boundary", "linear", "--n", "2", "--format", "json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["root_value"] == pytest.approx(4 / 9, abs=1e-14)
        assert payload["n_used"] == 2

    def test_csv_round_trip(self, runner, tmp_path):
        out = tmp_path / "field.csv"
        result = runner.invoke(main, [
            "solve", "--m", "3", "--alpha", "0.5", "--beta", "0.5",
            "--boundary", "quadratic-centered", "--n", "3",
            "--format", "csv", "--output", str(out),
        ])
        assert result.exit_code == 0
        params = GameParams(3, 0.5, 0.5)
        reloaded = field_from_csv(out.read_text(encoding="utf-8"), params)
        report = check_field(reloaded, params)
        assert report.max_abs_residual <= 1e-12

    def test_tolerance_mode(self, runner):
        result = runner.invoke(main, [
            "solve", "--m", "3", "--alpha", "0.5", "--beta", "0.5",
            "--boundary", "linear", "--tol", "0.02",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n_used"] == 4
        assert payload["certified"] is True

    def test_requires_exactly_one_of_n_and_tol(self, runner):
        base = ["solve", "--m", "3", "--alpha", "0.5", "--boundary", "linear"]
        assert runner.invoke(main, base).exit_code == 2
        assert runner.invoke(main, base + ["--n", "2", "--tol", "0.1"]).exit_code == 2

    def test_bad_boundary_exit_code(self, runner):
        result = runner.invoke(main, [
            "solve", "--m", "3", "--alpha", "0.5", "--boundary", "cubic", "--n", "2",
        ])
        assert result.exit_code == 2
        assert "boundary" in result.output or "boundary" in (result.stderr or "")

    def test_weights_must_sum_to_one(self, runner):
        result = runner.invoke(main, [
            "solve", "--m", "3", "--alpha", "0.7", "--beta", "0.5",
            "--boundary", "linear", "--n", "2",
        ])
        assert result.exit_code == 2

    def test_capacity_exit_code(self, runner, monkeypatch):
        monkeypatch.setenv("PHTREE_SIZE_CAP", "100")
        result = runner.invoke(main, [
            "solve", "--m", "3", "--alpha", "0.5", "--boundary", "linear", "--n", "5",
        ])
        assert result.exit_code == 3

    def test_out_of_memory_exit_code(self, runner, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(solver_mod, "build_un", exhausted)
        result = runner.invoke(main, [
            "solve", "--m", "3", "--alpha", "0.5", "--boundary", "linear", "--tol", "1e-300",
        ])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "boundary",
        ["constant:nan", "constant:inf", "constant:1.7e308", "inf.csv", "nan.csv", "text.csv"],
    )
    def test_non_finite_data_exits_2(self, runner, tmp_path, boundary):
        samples = {"inf.csv": "inf", "nan.csv": "nan", "text.csv": "abc"}
        if boundary in samples:
            path = tmp_path / boundary
            path.write_text(f"t,value\n0,0\n0.5,{samples[boundary]}\n1,1\n", encoding="utf-8")
            boundary = str(path)
        result = runner.invoke(main, [
            "solve", "--m", "3", "--alpha", "0.5", "--boundary", boundary, "--n", "1",
        ])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "error:" in result.stderr
        assert "Traceback" not in result.output

    def test_nan_tolerance_exits_2(self, runner):
        result = runner.invoke(main, [
            "solve", "--m", "3", "--alpha", "0.5", "--boundary", "linear", "--tol", "nan",
        ])
        assert result.exit_code == 2
        assert "tolerance" in result.stderr

    def test_byte_reproducibility(self, runner, tmp_path):
        outputs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            result = runner.invoke(main, [
                "solve", "--m", "3", "--alpha", "0.5", "--beta", "0.5",
                "--boundary", "linear", "--n", "4", "--output", str(path),
            ])
            assert result.exit_code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestDim:
    def test_pure_average(self, runner):
        result = runner.invoke(main, ["dim", "--m", "3", "--alpha", "0"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["dimension"] == 1
        assert payload["gamma"] == 1

    def test_schema(self, runner):
        result = runner.invoke(main, ["dim", "--m", "3", "--alpha", "0.5"])
        payload = json.loads(result.output)
        assert set(payload) == {"m", "alpha", "beta", "gamma", "objective", "dimension"}


class TestUcp:
    def test_rho_descriptor_certified(self, runner):
        result = runner.invoke(main, [
            "ucp", "--m", "3", "--alpha", "0.5", "--beta", "0.5",
            "--set", "rho:1,4,1,8,1,16", "--kmax", "6",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["rho"] == [1, 4, 1, 8, 1, 16]
        assert payload["verdict"] == "UCP-certified"

    def test_membership_file(self, runner, tmp_path):
        members = tmp_path / "set.txt"
        members.write_text("0\n1.2\n", encoding="utf-8")
        result = runner.invoke(main, [
            "ucp", "--m", "3", "--alpha", "0.5", "--set-file", str(members),
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["verdict"] == "no-UCP-certified"

    def test_set_file_blank_and_duplicate_lines(self, runner, tmp_path):
        reports = []
        for name, text in [("clean", "0.2.1\n1\n"), ("noisy", "0.2.1\n\n  \n1\n0.2.1\n 1 \n")]:
            members = tmp_path / f"{name}.txt"
            members.write_text(text, encoding="utf-8")
            result = runner.invoke(main, [
                "ucp", "--m", "3", "--alpha", "0.5", "--set-file", str(members),
            ])
            assert result.exit_code == 0
            reports.append(result.stdout)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0\n0.x\n", "malformed vertex label '0.x'"),
            ("0.5\n", "digit 5 out of range for branching factor 3"),
            ("-1\n", "digit -1 out of range for branching factor 3"),
            ("1\n0.x\n2.7\n", "malformed vertex label '0.x'"),
            ("0.4\n0.x\n", "digit 4 out of range for branching factor 3"),
        ],
        ids=["malformed", "digit-too-large", "negative-digit", "first-of-two-malformed", "first-of-two-range"],
    )
    def test_bad_set_file_line_exits_2(self, runner, tmp_path, text, message):
        members = tmp_path / "set.txt"
        members.write_text(text, encoding="utf-8")
        result = runner.invoke(main, [
            "ucp", "--m", "3", "--alpha", "0.5", "--set-file", str(members),
        ])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no uncaught exception
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    def test_set_options_are_exclusive(self, runner, tmp_path):
        members = tmp_path / "set.txt"
        members.write_text("0\n", encoding="utf-8")
        result = runner.invoke(main, [
            "ucp", "--m", "3", "--alpha", "0.5",
            "--set", "last-digit:0", "--set-file", str(members),
        ])
        assert result.exit_code == 2

    def test_malformed_descriptor(self, runner):
        result = runner.invoke(main, [
            "ucp", "--m", "3", "--alpha", "0.5", "--set", "rho:1,x",
        ])
        assert result.exit_code == 2

    def test_malformed_rho_step_exits_2(self, runner):
        result = runner.invoke(main, [
            "ucp", "--m", "3", "--alpha", "0.5", "--set", "rho:1;arith=",
        ])
        assert result.exit_code == 2
        assert "malformed set descriptor 'rho:1;arith='" in result.stderr

    def test_empty_level_list_exits_2(self, runner):
        result = runner.invoke(main, [
            "ucp", "--m", "3", "--alpha", "0.5", "--set", "full-levels:",
        ])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no uncaught exception
        assert "lists no levels" in result.stderr

    def test_capacity_exit_code(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("PHTREE_SIZE_CAP", "50")
        result = runner.invoke(main, [
            "ucp", "--m", "3", "--alpha", "0.5", "--set-file", _level_4_set_file(tmp_path),
        ])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: level 4 scan needs 81 state classes")

    def test_member_count_too_long_to_print(self, runner):
        # level 10000 holds 3**10000 members, more digits than str gives an int
        result = runner.invoke(main, [
            "ucp", "--m", "3", "--alpha", "0.5", "--set", "full-levels:10000",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output, parse_constant=_reject_constant)
        assert "about 10**4771 members at level 10000, so (P1) fails" in payload["notes"]


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--boundary", "linear", "--n", "10000"],
        ["simulate", "--boundary", "linear", "--advice-n", "10000"],
    ],
    ids=["solve", "simulate"],
)
def test_level_too_long_to_print_exits_3(runner, args):
    # 3**10000 has more digits than Python turns into a str by default
    subcommand, *options = args
    result = runner.invoke(main, [subcommand, "--m", "3", "--alpha", "0.5", *options])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no uncaught exception
    assert result.stderr.startswith(
        "error: level 10000 of the 3-branching tree has about 10**4771 vertices, exceeding"
    )


@pytest.mark.parametrize("subcommand", ["solve", "simulate", "ucp"])
def test_capacity_error_names_the_env_var(runner, tmp_path, monkeypatch, subcommand):
    monkeypatch.setenv("PHTREE_SIZE_CAP", "50")
    options = {
        "solve": ["--boundary", "linear", "--n", "5"],
        "simulate": [
            "--boundary", "linear", "--strategy-i", "fixed:0", "--strategy-ii", "fixed:1",
            "--depth", "5", "--plays", "100",
        ],
        "ucp": ["--set-file", _level_4_set_file(tmp_path)],
    }[subcommand]
    result = runner.invoke(main, [subcommand, "--m", "3", "--alpha", "0.5", *options])
    assert result.exit_code == 3
    assert result.stderr.rstrip("\n").endswith("(set PHTREE_SIZE_CAP to raise it)")


class TestSimulate:
    def test_report_schema_and_determinism(self, runner):
        args = [
            "simulate", "--m", "3", "--alpha", "0.5", "--beta", "0.5",
            "--boundary", "linear", "--plays", "500", "--depth", "10",
            "--seed", "11", "--advice-n", "4",
        ]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output
        payload = json.loads(first.output)
        assert set(payload) >= {"mean", "std_error", "plays", "truncation_error"}
        assert payload["plays"] == 500
        assert payload["truncation_error"] == pytest.approx(3.0**-10)

    @pytest.mark.parametrize("strategy", ["random:x", "fixed:x", "random:", "random:-1"])
    def test_malformed_strategy_exits_2(self, runner, strategy):
        result = runner.invoke(main, [
            "simulate", "--m", "3", "--alpha", "0.5", "--boundary", "linear",
            "--plays", "10", "--depth", "3", "--strategy-i", strategy,
        ])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no uncaught exception
        assert "strategy" in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["--seed", "-5"],
            # payoffs of 1e308 overflow the mean to inf
            ["--alpha", "1", "--beta", "0", "--boundary", "constant:1e308"],
        ],
        ids=["negative-seed", "non-finite-estimate"],
    )
    def test_invalid_run_exits_2(self, runner, args):
        result = runner.invoke(main, [
            "simulate", "--m", "3", "--alpha", "0.5", "--boundary", "linear",
            "--strategy-i", "fixed:0", "--strategy-ii", "fixed:0",
            "--plays", "10", "--depth", "5", *args,
        ])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.output

    def test_capacity_exit_code(self, runner, monkeypatch):
        # the cap counts the 3 * plays * depth values the engine draws
        monkeypatch.setenv("PHTREE_SIZE_CAP", "1000")
        args = [
            "simulate", "--m", "3", "--alpha", "0.5", "--boundary", "linear",
            "--strategy-i", "fixed:0", "--strategy-ii", "fixed:1", "--depth", "5",
        ]
        result = runner.invoke(main, args + ["--plays", "100"])
        assert result.exit_code == 3
        assert result.stderr.startswith("error:")
        assert runner.invoke(main, args + ["--plays", "50"]).exit_code == 0

    def test_constant_boundary(self, runner):
        result = runner.invoke(main, [
            "simulate", "--m", "3", "--alpha", "0", "--boundary", "constant:2.5",
            "--plays", "50", "--depth", "5", "--strategy-i", "fixed:0",
            "--strategy-ii", "fixed:1",
        ])
        payload = json.loads(result.output)
        assert payload["mean"] == 2.5
        assert payload["std_error"] == 0.0
