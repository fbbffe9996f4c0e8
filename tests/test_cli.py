"""CLI behaviour: reports, reproducibility, exit codes."""

import gc
import itertools
import json
import os
import resource
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import phtree
from phtree import (
    CapacityError, DensityResult, GameParams, Interval, RhoPattern, SubsetSpec, Vertex, analyze,
    check_field, density_check, interval_of,
)
from phtree import capacity
from phtree import cli as cli_mod
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


class TestEntryPoint:
    """``run`` is the process entry; ``main`` is what in-process callers use."""

    @pytest.mark.parametrize("code", [0, 2, 3])
    def test_run_keeps_the_exit_code_and_freezes_once(self, monkeypatch, code):
        def exit_with_code():
            raise SystemExit(code)

        freezes = []
        monkeypatch.setattr(cli_mod, "main", exit_with_code)
        monkeypatch.setattr(gc, "freeze", lambda: freezes.append(code))
        with pytest.raises(SystemExit) as info:
            cli_mod.run()
        assert (info.value.code, freezes) == (code, [code])

    def test_main_never_freezes(self, runner):
        before = gc.get_freeze_count()
        result = runner.invoke(main, ["dim", "--m", "3", "--alpha", "0.5"])
        assert (result.exit_code, gc.get_freeze_count()) == (0, before)

    def test_console_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"phtree": "phtree.cli:run"}

    @pytest.mark.parametrize("alpha, code", [("0.5", 0), ("2", 2)])
    def test_process_prints_the_in_process_bytes(self, runner, alpha, code):
        args = ["dim", "--m", "3", "--alpha", alpha]
        env = {**os.environ, "PYTHONPATH": str(Path(phtree.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-m", "phtree.cli", *args], env=env, capture_output=True)
        result = runner.invoke(main, args)
        assert (run.returncode, run.stdout, run.stderr) == (code, result.stdout_bytes, result.stderr_bytes)
        errors = [line for line in run.stderr.splitlines() if line.startswith(b"error:")]
        assert len(errors) == (code != 0)


def test_each_subcommand_takes_exactly_its_options():
    """A new option, or one removed, needs an edit here."""
    options = {name: [p.name for p in command.params] for name, command in main.commands.items()}
    assert options == {
        "solve": ["m", "alpha", "boundary", "depth", "tol", "fmt", "output"],
        "simulate": [
            "m", "alpha", "boundary", "seed", "plays", "depth", "x0", "advice_n",
            "strategy_i", "strategy_ii", "output",
        ],
        "ucp": ["m", "alpha", "set_descriptor", "set_file", "kmax", "resolution", "pa_nmax", "output"],
        "dim": ["m", "alpha", "output"],
    }


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


def json_text(obj) -> str:
    buf = bytearray()
    canonical_json(obj, buf.extend)
    return buf.decode()


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = json_text({"b": 1 / 3, "a": [1, True, None], "c": "x"})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "0.33333333333333331" in text
        assert json.loads(text) == {"a": [1, True, None], "b": 1 / 3, "c": "x"}

    def test_escaping(self):
        text = json_text({"k": 'a"b\\c'})
        assert json.loads(text) == {"k": 'a"b\\c'}


class TestSolve:
    def test_json_root_value(self, runner):
        result = runner.invoke(main, [
            "solve", "--m", "3", "--alpha", "0.5",
            "--boundary", "linear", "--n", "2", "--format", "json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["root_value"] == pytest.approx(4 / 9, abs=1e-14)
        assert payload["n_used"] == 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_written_in_blocks_of_5(self, runner, tmp_path, monkeypatch, fmt):
        """Written a few rows at a time, a report has the bytes it has when
        written a whole level at a time, on stdout and in a file alike, and
        ends in exactly one newline."""
        args = ["solve", "--m", "3", "--alpha", "0.5", "--boundary", "quadratic-centered",
                "--n", "3", "--format", fmt]
        whole = runner.invoke(main, args).stdout_bytes
        monkeypatch.setattr(capacity, "BLOCK", 5)
        out = tmp_path / f"report.{fmt}"
        stdout = runner.invoke(main, args).stdout_bytes
        assert runner.invoke(main, args + ["--output", str(out)]).exit_code == 0
        assert stdout == out.read_bytes() == whole
        assert whole.endswith(b"\n") and not whole.endswith(b"\n\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_short_writes_lose_no_bytes(self, runner, monkeypatch, fmt):
        """A raw stdout may take only part of each chunk; the report still
        reaches it whole."""
        args = ["solve", "--m", "3", "--alpha", "0.5", "--boundary", "quadratic-centered",
                "--n", "3", "--format", fmt]
        whole = runner.invoke(main, args).stdout_bytes
        taken = bytearray()

        class ThreeBytesAtATime:
            def write(self, chunk):
                taken.extend(chunk[:3])
                return min(len(chunk), 3)

            def flush(self):
                pass

        monkeypatch.setattr(click, "get_binary_stream", lambda name: ThreeBytesAtATime())
        assert runner.invoke(main, args).exit_code == 0
        assert bytes(taken) == whole

    def test_csv_round_trip(self, runner, tmp_path):
        out = tmp_path / "field.csv"
        result = runner.invoke(main, [
            "solve", "--m", "3", "--alpha", "0.5",
            "--boundary", "quadratic-centered", "--n", "3",
            "--format", "csv", "--output", str(out),
        ])
        assert result.exit_code == 0
        reloaded = field_from_csv(out.read_text(encoding="utf-8"), GameParams(3, 0.5))
        report = check_field(reloaded)
        assert report.max_abs_residual <= 1e-12

    def test_tolerance_mode(self, runner):
        result = runner.invoke(main, [
            "solve", "--m", "3", "--alpha", "0.5",
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
        """beta is 1 - alpha; no option sets it."""
        result = runner.invoke(main, [
            "solve", "--m", "3", "--alpha", "0.7", "--beta", "0.5",
            "--boundary", "linear", "--n", "2",
        ])
        assert result.exit_code == 2
        assert "No such option '--beta'" in result.stderr
        payload = json.loads(runner.invoke(main, ["dim", "--m", "3", "--alpha", "0.7"]).output)
        assert payload["beta"] == 1.0 - 0.7

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
            "solve", "--m", "3", "--alpha", "0.5", "--boundary", "linear", "--n", "2",
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

    def test_infinite_tolerance_exits_2(self, runner):
        result = runner.invoke(main, [
            "solve", "--m", "3", "--alpha", "0.5", "--boundary", "linear", "--tol", "inf",
        ])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: tolerance must be positive and finite, got inf\n"

    def test_unmet_tolerance_exits_3(self, runner, tmp_path):
        """Level 24 of the binary tree is bound by 2**-24, above 1e-9: refused
        before any level is built or the report is opened, so no report is
        made and an earlier one at the output path stays as it was."""
        out = tmp_path / "report.json"
        args = [
            "solve", "--m", "2", "--alpha", "0.5", "--boundary", "linear",
            "--tol", "1e-9", "--output", str(out),
        ]
        for existing in (None, b"an earlier report\n"):
            if existing is not None:
                out.write_bytes(existing)
            result = runner.invoke(main, args)
            assert result.exit_code == 3
            assert result.stderr == (
                "error: tolerance 1e-09 is below the bound 5.960464477539063e-08 of level 24, "
                "the deepest level solve builds (MAX_SOLVE_DEPTH)\n"
            )
            assert (out.read_bytes() if out.exists() else None) == existing

    def test_byte_reproducibility(self, runner, tmp_path):
        outputs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            result = runner.invoke(main, [
                "solve", "--m", "3", "--alpha", "0.5",
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
            "ucp", "--m", "3", "--alpha", "0.5",
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

    def test_delta_at_huge_branching(self, runner):
        # delta = alpha/2 + beta/m is 1/m at alpha = 0; as 1 - theta it
        # rounded to 0.0 here and the series criterion refused it
        result = runner.invoke(main, [
            "ucp", "--m", str(10**20), "--alpha", "0", "--set", "rho:1;geom=2",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["delta"] == 1e-20
        assert payload["verdict"] == "no-UCP-certified"

    def test_member_count_too_long_to_print(self, runner):
        # level 10000 holds 3**10000 members, more digits than str gives an
        # int; doubling keeps the density resolution at 3
        result = runner.invoke(main, [
            "ucp", "--m", "3", "--alpha", "0.5", "--set", "full-levels:10000;doubling",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output, parse_constant=_reject_constant)
        assert "about 10**4771 members at level 10000, so (P1) fails" in payload["notes"]


class TestWitnessDepth:
    """A density witness that would print as a point exits 3, before the
    walk or the vertex it would need is built."""

    def test_deep_set_file_member(self, runner, tmp_path):
        # the witness 0^701 is 3**-701 wide, which underflows a double
        members = tmp_path / "deep.txt"
        members.write_text(".".join(["1"] * 700) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["ucp", "--m", "3", "--alpha", "0.5", "--set-file", str(members)])
        assert result.exit_code == 3
        assert result.stderr == (
            "error: density resolution 701 is too deep: a level-701 witness interval "
            "is 3**-701 wide, below the smallest double\n"
        )

    @pytest.mark.parametrize("m, depth", [(2, 1074), (3, 678), (1024, 107), (1025, 107), (2**53, 20)])
    def test_deepest_printable_resolution(self, m, depth):
        # m**depth < 2**1075 <= m**(depth + 1): the deepest walk keeps a
        # positive width; a gap ladder's automaton does not grow with m
        assert m**depth < 2**1075 <= m ** (depth + 1)
        U = SubsetSpec.rho_generated(m, RhoPattern((1,), "cycle"))
        assert density_check(U, depth).dense_up_to
        assert float(interval_of(Vertex(m, (0,) * depth)).right) > 0
        with pytest.raises(CapacityError, match=f"^density resolution {depth + 1} is too deep"):
            density_check(U, depth + 1)

    def test_witness_with_coinciding_float_ends_refused(self):
        # 1 - 3**-40 and 1 round to the same double
        gap = Interval(1 - Fraction(1, 3**40), Fraction(1, 3**40))
        report = replace(
            analyze(SubsetSpec.digit_avoiding(3, 1), GameParams(3, 0.5, 0.5)),
            density=DensityResult(False, gap, 40, True),
        )
        with pytest.raises(CapacityError, match="too narrow to print"):
            report.to_json_obj()

    @pytest.mark.parametrize(
        "descriptor, depth",
        [("rho:99999999999999999999;finite", 10**20 - 1), ("full-levels:1000000000", 10**9)],
    )
    def test_deep_descriptors_under_a_memory_limit(self, descriptor, depth):
        """Without the depth check these fill memory, so each runs in a
        child process held to 2 GB of address space."""
        limit = 2 << 30

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        env = {**os.environ, "PYTHONPATH": str(Path(phtree.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-m", "phtree.cli", "ucp", "--m", "3", "--alpha", "0.5",
             "--set", descriptor, "--kmax", "2"],
            env=env, capture_output=True, text=True, timeout=300, preexec_fn=cap_memory,
        )
        assert run.returncode == 3, run.stderr
        assert run.stderr.startswith(f"error: density resolution {depth} is too deep")


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


@pytest.mark.parametrize(
    "cap, message",
    [("abc", "must be an integer, got 'abc'"), ("0", "must be positive, got 0"),
     ("-5", "must be positive, got -5")],
)
def test_malformed_size_cap_exits_2(runner, monkeypatch, cap, message):
    monkeypatch.setenv("PHTREE_SIZE_CAP", cap)
    result = runner.invoke(main, [
        "solve", "--m", "3", "--alpha", "0.5", "--boundary", "linear", "--n", "2",
    ])
    assert result.exit_code == 2
    assert result.stderr == f"error: PHTREE_SIZE_CAP {message}\n"


# small numbers only, a repeat weighting the valid ones: a level in the
# billions is a memory fault of its own
_NUMBERS = st.sampled_from([*map(str, range(7)), "1", "2", "-1", "", "x", "1.5", " 2"])


@st.composite
def _set_descriptors(draw):
    """A `--set` value of every kind, well formed or not."""
    kind = draw(st.sampled_from(["rho", "full-levels", "last-digit", "digit-avoiding", "rho", "full-levels", ""]))
    if kind in ("last-digit", "digit-avoiding"):
        return f"{kind}:{draw(_NUMBERS)}"
    numbers = ",".join(draw(st.lists(_NUMBERS, min_size=1, max_size=3)))
    suffixes = ["finite", "cycle", "arith=", "geom=", "digit=", "doubling", "bogus"]
    tail = "".join(
        f";{s}{draw(_NUMBERS) if s.endswith('=') else ''}"
        for s in draw(st.lists(st.sampled_from(suffixes), max_size=2))
    )
    return f"{kind}:{numbers}{tail}"


@settings(max_examples=400, deadline=None)
@given(
    descriptor=_set_descriptors(),
    m=st.sampled_from([2, 3, 4, 5, 2, 3, 1]),
    alpha=st.sampled_from(["0.5", "0", "1", "0.3", "-0", "5e-324", "0.9999999999999999", "nan", "1.5", "x"]),
    scans=st.tuples(*[st.sampled_from([*range(9), -1])] * 3),
    cap=st.integers(1, 1000),
)
def test_ucp_fuzz(descriptor, m, alpha, scans, cap):
    """Every `ucp` call exits 0 with strict JSON, or 2 or 3, never with a traceback."""
    kmax, resolution, pa_nmax = map(str, scans)
    result = CliRunner().invoke(main, [
        "ucp", "--m", str(m), "--alpha", alpha, "--set", descriptor,
        "--kmax", kmax, "--resolution", resolution, "--pa-nmax", pa_nmax,
    ], env={"PHTREE_SIZE_CAP": str(cap)})
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        witness = json.loads(result.stdout, parse_constant=_reject_constant)["density_witness"]
        if witness is not None:
            assert witness["left"] < witness["right"]


@pytest.mark.parametrize(
    "args",
    [
        # gamma underflows to 0.0
        ["dim", "--m", str(10**155), "--alpha", "0.5"],
        # gamma is NaN
        ["dim", "--m", str(10**308), "--alpha", "0.5"],
        # m itself is past the largest float
        ["dim", "--m", str(10**309), "--alpha", "0.5"],
        ["ucp", "--m", str(10**400), "--alpha", "0.5", "--set", "rho:1"],
        ["solve", "--m", str(10**309), "--alpha", "0.5", "--boundary", "linear", "--n", "1"],
        ["simulate", "--m", str(10**309), "--alpha", "0.5", "--boundary", "linear"],
    ],
    ids=["dim-1e155", "dim-1e308", "dim-1e309", "ucp-1e400", "solve-1e309", "simulate-1e309"],
)
def test_branching_too_large_for_floats_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no uncaught exception
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1


@pytest.fixture(scope="module")
def boundary_files(tmp_path_factory):
    """CSV boundary files, well formed or not, by name."""
    root = tmp_path_factory.mktemp("boundaries")
    contents = {
        "ramp.csv": "t,value\n0,0\n0.5,2\n1,-1\n",
        "nan.csv": "t,value\n0,0\n0.5,nan\n1,1\n",
        "huge.csv": "t,value\n0,-1.7e308\n1,1.7e308\n",
        "unsorted.csv": "t,value\n0,0\n0.7,1\n0.3,1\n1,0\n",
        "header.csv": "x,y\n0,0\n1,1\n",
        "empty.csv": "",
    }
    for name, text in contents.items():
        (root / name).write_text(text, encoding="utf-8")
    return {name: str(root / name) for name in contents}


def _mostly(valid, invalid):
    """A draw from the list `valid` seven times in eight, else from the
    strategy `invalid`: most calls get far enough to write a report."""
    # st.one_of would draw each distinct branch about equally often
    return st.sampled_from([True] * 7 + [False]).flatmap(
        lambda ok: st.sampled_from(valid) if ok else invalid
    )


_SMALL_M = [2, 3, 4, 5]
# 2**1023 - 2**969 + 1 is the least m whose pure-averaging closed form
# overflows, int(float max) + 1 the least m that GameParams refuses
_ODD_M = st.one_of(
    st.sampled_from([1, 0, -1, 2**1023 - 2**969, 2**1023 - 2**969 + 1, int(sys.float_info.max) + 1]),
    st.integers(0, 420).map(lambda k: 10**k),
    st.integers(6, 10**420),
)


@st.composite
def _solve_simulate_dim_calls(draw):
    """A `solve`, `simulate` or `dim` call: its command-line tail, as strings."""
    command = draw(st.sampled_from(["solve", "simulate", "dim"]))
    # dim is cheap at any m, so half its calls get an odd one
    m = draw(st.one_of(st.sampled_from(_SMALL_M), _ODD_M) if command == "dim" else _mostly(_SMALL_M, _ODD_M))
    alpha = _mostly(["0.5", "0", "1", "0.3", "-0", "5e-324", "1e-13", "0.9999999999999999"],
                    st.sampled_from(["nan", "inf", "1.5", "x"]))
    args = [command, "--m", str(m), "--alpha", draw(alpha)]
    if command == "dim":
        return args
    args += ["--boundary", draw(_mostly(
        ["linear", "quadratic-centered", "constant:2.5", "constant:-0", "ramp.csv"],
        st.sampled_from([
            "constant:1.7e308", "constant:nan", "constant:x", "cubic", "nan.csv", "huge.csv",
            "unsorted.csv", "header.csv", "empty.csv", "missing.csv",
        ]),
    ))]
    if command == "solve":
        if draw(st.booleans()):
            args += ["--n", draw(_mostly([*map(str, range(1, 6))], st.sampled_from(["0", "-1", "x"])))]
        else:
            args += ["--tol", draw(_mostly(["0.1", "1e-3", "0.5", "1e-300"], st.sampled_from(["0", "-1", "inf", "nan"])))]
        return args + ["--format", draw(st.sampled_from(["json", "csv"]))]
    strategies = _mostly(["greedy-max", "greedy-min", "random:1", "fixed:0"],
                         st.sampled_from(["fixed:9", "random:-1", "bogus"]))
    return args + [
        "--plays", draw(_mostly(["2", "10", "100"], st.sampled_from(["0", "1", "-1"]))),
        "--depth", draw(_mostly(["1", "3", "5"], st.sampled_from(["0", "-1", "x"]))),
        "--seed", draw(_mostly(["0", "7", str(2**64)], st.just("-1"))),
        "--x0", draw(_mostly(["", "0", "1.0"], st.sampled_from(["4", "x", "0..1"]))),
        "--advice-n", draw(_mostly(["1", "3", "5"], st.sampled_from(["0", "-1", "40"]))),
        "--strategy-i", draw(strategies),
        "--strategy-ii", draw(strategies),
    ]


def _option(args, name, default=None):
    return args[args.index(name) + 1] if name in args else default


@settings(max_examples=400, deadline=None)
@given(args=_solve_simulate_dim_calls())
def test_solve_simulate_dim_fuzz(boundary_files, args):
    """Every `solve`, `simulate` and `dim` call exits 0 with strict JSON or a
    CSV that reloads, or 2 or 3, never with a traceback."""
    if "--boundary" in args:
        at = args.index("--boundary") + 1
        args = [*args[:at], boundary_files.get(args[at], args[at]), *args[at + 1:]]
    result = CliRunner().invoke(main, args, env={"PHTREE_SIZE_CAP": "20000"})
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if result.exit_code != 0:
        return
    if _option(args, "--format") == "csv":
        field_from_csv(result.stdout, GameParams(int(_option(args, "--m")), float(_option(args, "--alpha"))))
    else:
        json.loads(result.stdout, parse_constant=_reject_constant)


class TestSimulate:
    def test_report_schema_and_determinism(self, runner):
        args = [
            "simulate", "--m", "3", "--alpha", "0.5",
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

    @pytest.mark.parametrize("strategy", ["random:x", "fixed:x", "random:", "random:-1", f"random:{2**128}"])
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
            ["--alpha", "1", "--boundary", "constant:1e308"],
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
        # the cap counts the 2 * plays * depth values the engine draws:
        # 1,010 for 101 plays of depth 5, and exactly the cap for 100
        monkeypatch.setenv("PHTREE_SIZE_CAP", "1000")
        args = [
            "simulate", "--m", "3", "--alpha", "0.5", "--boundary", "linear",
            "--strategy-i", "fixed:0", "--strategy-ii", "fixed:1", "--depth", "5",
        ]
        result = runner.invoke(main, args + ["--plays", "101"])
        assert result.exit_code == 3
        assert result.stderr.startswith("error:")
        assert runner.invoke(main, args + ["--plays", "100"]).exit_code == 0

    def test_constant_boundary(self, runner):
        result = runner.invoke(main, [
            "simulate", "--m", "3", "--alpha", "0", "--boundary", "constant:2.5",
            "--plays", "50", "--depth", "5", "--strategy-i", "fixed:0",
            "--strategy-ii", "fixed:1",
        ])
        payload = json.loads(result.output)
        assert payload["mean"] == 2.5
        assert payload["std_error"] == 0.0


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: canonical_json({"x": object()}, bytearray().extend), TypeError,
                 "cannot serialise <class 'object'>", id="unserialisable"),
])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
