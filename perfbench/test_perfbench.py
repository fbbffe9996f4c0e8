"""Tests of the benchmark itself, at the tiny ``--smoke`` size.

Run with ``python -m pytest perfbench`` from the repository root; the
package's own suite (``tests/``) does not collect these.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(*args: str, cwd: Path = ROOT, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, env=env,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_inputs_are_a_function_of_the_seed(tmp_path):
    sizes = wl.SIZES["smoke"]
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = wl.generate_inputs(7, dirs[0], sizes)
    again = wl.generate_inputs(7, dirs[1], sizes)
    other = wl.generate_inputs(8, dirs[2], sizes)
    for name in ("boundary.csv", "set.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    assert (first.sim_seed, first.random_seed) == (again.sim_seed, again.random_seed)
    assert (dirs[0] / "boundary.csv").read_bytes() != (dirs[2] / "boundary.csv").read_bytes()
    assert other.sim_seed != first.sim_seed

    gaps = [b - a for a, b in zip(first.ts, first.ts[1:])]
    assert min(gaps) >= 1 / wl.KNOT_GRID
    assert all(-1.0 <= v <= 1.0 for v in first.vs)
    members = (dirs[0] / "set.txt").read_text().split()
    assert len(members) == len(set(members)) == sizes["set_members"]
    assert all(sizes["set_min_depth"] <= len(m.split(".")) <= sizes["set_max_depth"] for m in members)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH_SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload, tmp_path):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0",
                     "--smoke", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH_SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((tmp_path / "results" / f"{workload}.seed3.trace0.json").read_text())
    assert record["environment"]["size_cap_env"] == "unset"
    assert all(record["calls"].values()), "every call's report is verified and digested"
    assert not list(tmp_path.glob("work-*")), "scratch inputs are removed"


def test_smoke_traced_run_reports_every_layer_metric(tmp_path):
    proc = run_bench("--workload", "ucp-scan", "--seed", "3", "--seconds", "0", "--trace", "1",
                     "--smoke", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCH_SPEC["per_layer"]}
    assert all(m["value"] > 0 for name, m in result["metrics"].items() if name != "trace.overhead_s")
    record = json.loads((tmp_path / "results" / "ucp-scan.seed3.trace1.json").read_text())
    names = {span["name"] for span in record["spans"]}
    assert {"solver.build_un", "cli.canonical_json", "game.per_play.simulate", "ucp.compute_rho"} <= names
    # canonical_json recurses; only the outermost call of each JSON report is a span
    calls = [s["name"] for s in record["spans"] if s["name"].startswith("call.")]
    json_reports = [name for name in calls if name != "call.solve.csv"]
    assert sum(s["name"] == "cli.canonical_json" for s in record["spans"]) == len(json_reports)


def test_launcher_pins_children_and_probes_their_cpu(tmp_path):
    import os

    import run

    cpu = max(os.sched_getaffinity(0))
    request = {
        "argv": [sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"],
        "stdout": str(tmp_path / "out"), "stderr": str(tmp_path / "err"), "timeout": 60,
    }
    proc = subprocess.run([sys.executable, str(HERE / "launcher.py"), str(cpu)], input=json.dumps(request) + "\n",
                          capture_output=True, text=True, timeout=60)
    reply = json.loads(proc.stdout)
    assert reply["code"] == 0
    assert 0 < reply["probe_min_s"] <= reply["probe_mean_s"]
    assert (tmp_path / "out").read_text().strip() == f"[{cpu}]"
    # a call whose probe ran at half the reference speed took twice as long
    assert run.Timing(3.0, 2 * run.REFERENCE_PROBE_S).at_reference_speed() == pytest.approx(1.5)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "solve-report", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_refuses_a_size_cap_override(tmp_path):
    import os

    env = dict(os.environ, PHTREE_SIZE_CAP="1000")
    proc = run_bench("--workload", "ucp-scan", "--seed", "1", "--seconds", "0", "--trace", "0",
                     "--smoke", "--out", str(tmp_path), env=env)
    assert proc.returncode != 0
    assert "PHTREE_SIZE_CAP" in proc.stderr


def test_checks_reject_wrong_reports(tmp_path):
    report = tmp_path / "report.json"

    def content_problem(text: str, check) -> str | None:
        report.write_text(text)
        call = wl.Call("call", [], report, check)
        assert wl.verify_digest(call) is None
        return wl.verify_content(call)

    ladder = wl.check_ucp([1, 2])
    assert "verdict" in content_problem('{"verdict": "UCP-certified", "rho": [1, 2]}', ladder)
    assert "rho" in content_problem('{"verdict": "no-UCP-certified", "rho": [1, 3]}', ladder)
    assert content_problem('{"verdict": "no-UCP-certified", "rho": [1, 2]}', ladder) is None
    inputs = wl.Inputs(tmp_path, (0.0, 1.0), (0.0, 1.0), tmp_path, 0, 0)
    assert "unreadable" in content_problem('{"mean": NaN, "std_error": 0.1}', wl.check_random(inputs))
    assert "outside" in content_problem('{"mean": 1.5, "std_error": 0.1}', wl.check_random(inputs))

    call = wl.Call("call", [], report, ladder)
    assert wl.verify_digest(call) is None
    report.write_text('{"verdict": "no-UCP-certified", "rho": [1, 2]} ')
    assert "changed" in wl.verify_digest(call)
    report.unlink()
    assert "no report" in wl.verify_digest(call)


def _write_results(directory: Path, workload: str, values: dict[int, float]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for seed, value in values.items():
        record = {"workload": workload, "seed": seed, "trace": 0,
                  "metrics": {"wall_s": {"value": value, "unit": "s"}}}
        (directory / f"{workload}.seed{seed}.trace0.json").write_text(json.dumps(record))


@pytest.mark.parametrize(
    ("new_values", "expected"),
    [
        ([1.00, 1.01, 0.99, 1.00, 1.02], "unchanged"),
        ([1.40, 1.41, 1.39, 1.40, 1.42], "worse"),
        ([0.80, 0.81, 0.79, 0.80, 0.82], "better"),
        ([0.50, 1.50, 1.00, 0.60, 1.40], "unresolved"),
    ],
)
def test_compare_verdicts(tmp_path, new_values, expected):
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    _write_results(tmp_path / "base", "solve-report", dict(enumerate(base)))
    _write_results(tmp_path / "new", "solve-report", dict(enumerate(new_values)))
    rows = compare.compare(tmp_path / "base", tmp_path / "new", BENCH_SPEC)
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("solve-report", "wall_s", expected)
    ]
