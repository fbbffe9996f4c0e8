"""phtree benchmark: closed-loop calls to the ``phtree`` CLI.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve-report --seed 1 --seconds 20 --trace 0

One client sends one CLI call at a time and waits for it (closed loop,
concurrency 1).  Children run ``python -m phtree.cli`` from ``src/``, pinned
to one CPU (the program is single-threaded), with every BLAS/OpenMP thread
variable set to 1.

``--trace 0`` measures the end-to-end metrics of one workload from untraced
subprocess calls: it times cold ``<subcommand> --help`` starts
(``setup_s``), then repeats the workload's calls for ``--seconds`` and
reports per-iteration medians of wall time and peak child RSS, plus the
share of calls whose exit code and output check passed.

The times ``wall_s`` and ``setup_s`` are wall times at a reference CPU
speed.  On a shared host the speed of a CPU drifts by tens of percent
within a minute (other tenants' load); on 2 vCPUs of a shared Xeon host
the same iteration took 5.6 s in one minute and 9.3 s in another.  ``launcher.py`` times a fixed probe on
the children's CPU while each call runs, and each call's wall time is
scaled by ``REFERENCE_PROBE_S`` over the probe's mean time during that
call: the time the call would take on a CPU that runs the probe in
``REFERENCE_PROBE_S``.  The raw wall times, each call's slowdown and the
fastest probe time of the run are kept in the result file
(``wall_raw_s``, ``setup_raw_s``, ``cpu_slowdown``, ``probe_min_s``).

``--trace 1`` gives the per-layer metrics.  Each layer metric is measured
on the workload where that layer does its work (the report layer on
solve-report, boundary, sweep and engine on game-advised, the scans on
ucp-scan), so a traced run covers every workload: for at least
``--seconds`` it runs rounds of one untraced iteration and one traced
in-process replay of each workload, with spans around the calls into each
module.  ``trace.coverage.<workload>`` is (calls x ``setup_s`` + time in
the spans directly under each call) over the untraced iteration's wall
time; ``trace.overhead_s`` is the traced round's time (with ``setup_s``
per call added) minus the untraced one's, summed over workloads.
``--workload`` must still name a valid workload.

Both modes print one JSON line last, and write a result file with the
samples, the environment, per-call SHA-256 digests and (traced) the spans
under ``--out`` (default ``.perfbench/``).  ``--smoke`` shrinks every
input to a tiny size; the benchmark's tests use it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads as wl
from spans import Tracer, import_breakdown, interpreter_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("solve-report", "game-advised", "ucp-scan")
NPROC = len(os.sched_getaffinity(0))
#: the one CPU the launcher, its speed probe and every timed child run on
CHILD_CPU = max(os.sched_getaffinity(0))
#: the probe's time on an unloaded core of the machine the benchmark was
#: tuned on (2 vCPUs of a shared Intel Xeon host, family 6 model 143)
REFERENCE_PROBE_S = 0.75e-3
THREAD_VARS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    )
}
SIZE_CAP_VAR = "PHTREE_SIZE_CAP"
CALL_TIMEOUT_S = 120.0
#: a run stops starting iterations once one more could end past this
RUN_DEADLINE_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad environment)."""


# -- statistics -----------------------------------------------------------


def summarize(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile that has at least
    ten samples beyond it (None when there are too few samples)."""
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "samples": len(ordered), "percentile": None}
    for q in (99, 95, 90, 75):
        if len(ordered) * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(ordered, n=100)
            out["percentile"] = {"q": q, "value": cuts[q - 1]}
            break
    return out


# -- environment ----------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cache_sizes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return caches


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": NPROC,
        "child_cpu": CHILD_CPU,
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "loadavg_start": _read("/proc/loadavg"),
        "size_cap_env": "unset",
        "child_thread_env": THREAD_VARS,
    }


def child_env() -> dict:
    return dict(os.environ, **THREAD_VARS, PYTHONPATH=str(SRC))


# -- running the CLI --------------------------------------------------------


@dataclass(frozen=True)
class Timing:
    """A call's wall time and the mean probe time on its CPU meanwhile."""

    seconds: float
    probe_mean_s: float

    def at_reference_speed(self) -> float:
        """The wall time scaled to a CPU that runs the probe in
        ``REFERENCE_PROBE_S``."""
        return self.seconds * REFERENCE_PROBE_S / self.probe_mean_s


class Runner:
    """Runs CLI calls as children and keeps the attempted/failed ledger.

    Children are started by ``launcher.py`` (see there for why); use the
    runner as a context manager so the launcher is stopped and reaped.
    ``probe_min`` is the fastest probe time seen in any call so far.
    """

    def __init__(self, workdir: Path):
        self.env = child_env()
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._launcher: subprocess.Popen | None = None
        self.probe_min = float("inf")

    def __enter__(self) -> "Runner":
        self._launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(CHILD_CPU)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=CALL_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()
        self._launcher.stdout.close()

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(problem)

    def check_contents(self, calls: list[wl.Call]) -> None:
        """Content-check each call's last report; a failure fails every
        run whose report had the same digest."""
        for call in calls:
            problem = wl.verify_content(call)
            if problem is not None:
                self.failed += call.passed
                self.failures.append(problem)

    def spawn(self, args: list[str]) -> tuple[Timing, float, int, str]:
        """Run ``python -m phtree.cli <args>``; return (timing, max RSS MB,
        exit code, stdout or, on failure, the tail of stderr)."""
        stdout_path = self.workdir / "stdout.txt"
        stderr_path = self.workdir / "stderr.txt"
        request = {
            "argv": [sys.executable, "-m", "phtree.cli", *args],
            "stdout": str(stdout_path),
            "stderr": str(stderr_path),
            "timeout": CALL_TIMEOUT_S,
        }
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise BenchError("the child launcher exited")
        result = json.loads(reply)
        self.probe_min = min(self.probe_min, result["probe_min_s"])
        timing = Timing(result["seconds"], result["probe_mean_s"])
        text_path = stdout_path if result["code"] == 0 else stderr_path
        text = text_path.read_text(encoding="utf-8", errors="replace")
        return timing, result["maxrss_kb"] / 1024.0, result["code"], text

    def setup_samples(self, subcommands: list[str], repeats: int) -> list[Timing]:
        """Cold ``<subcommand> --help`` starts; the first of each is a
        discarded warm-up for the .pyc files and the file cache."""
        samples = []
        for i in range(repeats + 1):
            for sub in subcommands:
                timing, _rss, code, text = self.spawn([sub, "--help"])
                ok = code == 0 and "Usage:" in text
                self.record(None if ok else f"{sub} --help: exit {code}: {text.strip()[-300:]}")
                if i > 0:
                    samples.append(timing)
        return samples

    def iteration(self, calls: list[wl.Call]) -> tuple[list[Timing], float]:
        """One untraced workload iteration: (each call's timing, peak child
        RSS MB)."""
        timings, peak = [], 0.0
        for call in calls:
            call.output.unlink(missing_ok=True)
            timing, rss, code, text = self.spawn(call.args)
            timings.append(timing)
            peak = max(peak, rss)
            self.record(f"{call.label}: exit {code}: {text.strip()[-300:]}" if code != 0 else wl.verify_digest(call))
        return timings, peak


def prepare(workload: str, seed: int, sizes: dict, workdir: Path) -> list[wl.Call]:
    directory = workdir / workload
    directory.mkdir(parents=True, exist_ok=True)
    inputs = wl.generate_inputs(seed, directory, sizes)
    return wl.build_calls(workload, inputs, sizes, directory)


# -- untraced end-to-end run ----------------------------------------------


def run_untraced(args, sizes: dict, runner: Runner, started: float) -> tuple[dict, dict]:
    setup = runner.setup_samples(wl.subcommands(args.workload), 1 if args.smoke else 9)
    calls = prepare(args.workload, args.seed, sizes, runner.workdir)
    iterations, peaks = [], []
    measure_start = time.perf_counter()
    while True:
        iteration_start = time.perf_counter()
        timings, peak = runner.iteration(calls)
        iterations.append(timings)
        peaks.append(peak)
        now = time.perf_counter()
        if now - measure_start >= args.seconds:
            break
        if now - started + (now - iteration_start) > RUN_DEADLINE_S:
            break
    runner.check_contents(calls)
    ok_frac = 1.0 - runner.failed / runner.attempted
    samples = {
        "wall_s": [sum(t.at_reference_speed() for t in timings) for timings in iterations],
        "setup_s": [t.at_reference_speed() for t in setup],
        "peak_rss_mb": peaks,
        "ok_frac": [ok_frac],
        "wall_raw_s": [sum(t.seconds for t in timings) for timings in iterations],
        "setup_raw_s": [t.seconds for t in setup],
        "cpu_slowdown": [t.probe_mean_s / REFERENCE_PROBE_S for timings in iterations for t in timings],
        "probe_min_s": [runner.probe_min],
    }
    extra = {"calls": {call.label: call.digest for call in calls}}
    return samples, extra


# -- traced per-layer run -------------------------------------------------


def invoke_in_process(argv: list[str]) -> int:
    import click
    from phtree import cli

    try:
        cli.main.main(args=argv, prog_name="phtree", standalone_mode=False)
    except SystemExit as exc:
        return int(exc.code or 0)
    except click.ClickException as exc:
        return exc.exit_code
    return 0


def _layer_totals(tracer: Tracer, workload: str, iteration: int) -> tuple[dict, dict]:
    """Seconds and summed counts per (call label, span name) of one iteration.

    A call span is keyed (label, "call"); the key (label, "top") sums the
    spans directly under that call.
    """
    seconds: dict = {}
    counts: dict = {}
    label_of: dict[int, str | None] = {}
    for index, span in enumerate(tracer.spans):
        if span.workload != workload or span.iteration != iteration:
            continue
        if span.name.startswith("call."):
            label, name = span.name[len("call."):], "call"
        else:
            label, name = label_of.get(span.parent), span.name
        label_of[index] = label
        keys = [(label, name)]
        if span.parent is not None and tracer.spans[span.parent].name.startswith("call."):
            keys.append((label, "top"))
        for key in keys:
            seconds[key] = seconds.get(key, 0.0) + span.seconds
        bucket = counts.setdefault((label, name), {})
        for key, value in span.counts.items():
            bucket[key] = bucket.get(key, 0) + value
    return seconds, counts


def _sum(table: dict, name: str, labels=None) -> float:
    return sum(v for (label, n), v in table.items() if n == name and (labels is None or label in labels))


def _count(counts: dict, name: str, key: str, labels=None) -> int:
    return sum(
        c.get(key, 0) for (label, n), c in counts.items() if n == name and (labels is None or label in labels)
    )


def layer_metrics(tracer: Tracer, iteration: int) -> dict[str, float]:
    """Per-layer figures of one traced round, each on its home workload."""
    out: dict[str, float] = {}

    sec, cnt = _layer_totals(tracer, "solve-report", iteration)
    json_calls, csv_calls = {"solve.json"}, {"solve.csv"}
    out["solver.field_to_json_obj_s"] = _sum(sec, "solver.field_to_json_obj")
    out["cli.canonical_json_s"] = _sum(sec, "cli.canonical_json", json_calls)
    out["solver.field_to_csv_s"] = _sum(sec, "solver.field_to_csv")
    out["report.write_s"] = _sum(sec, "report.write")
    out["report.json_bytes"] = _count(cnt, "call", "output_bytes", json_calls)
    out["report.csv_bytes"] = _count(cnt, "call", "output_bytes", csv_calls)
    json_s = out["solver.field_to_json_obj_s"] + out["cli.canonical_json_s"] + _sum(sec, "report.write", json_calls)
    csv_s = out["solver.field_to_csv_s"] + _sum(sec, "report.write", csv_calls)
    out["report.json_mb_per_s"] = out["report.json_bytes"] / 1e6 / json_s
    out["report.csv_mb_per_s"] = out["report.csv_bytes"] / 1e6 / csv_s

    sec, cnt = _layer_totals(tracer, "game-advised", iteration)
    out["boundary.from_csv_s"] = _sum(sec, "boundary.from_csv")
    out["boundary.sample_Fn_s"] = _sum(sec, "boundary.sample_Fn")
    out["solver.build_un_s"] = _sum(sec, "solver.build_un")
    out["solver.sweep_s"] = out["solver.build_un_s"] - out["boundary.sample_Fn_s"]  # derived
    out["solver.field_vertices"] = _count(cnt, "solver.build_un", "vertices")
    out["solver.field_bytes"] = _count(cnt, "solver.build_un", "bytes")
    out["solver.vertices_per_s"] = out["solver.field_vertices"] / out["solver.sweep_s"]
    out["game.estimate_value_s"] = _sum(sec, "game.estimate_value")
    out["game.batched.simulate_s"] = _sum(sec, "game.batched.simulate")
    out["game.batched.plays_per_s"] = _count(cnt, "game.batched.simulate", "plays") / out["game.batched.simulate_s"]
    out["game.batched.steps"] = _count(cnt, "game.batched.simulate", "steps")
    out["game.batched.array_bytes"] = _count(cnt, "game.batched.simulate", "array_bytes")
    out["game.per_play.simulate_s"] = _sum(sec, "game.per_play.simulate")
    out["game.per_play.calls"] = _count(cnt, "game.per_play.simulate", "calls")
    out["game.per_play.calls_per_s"] = out["game.per_play.calls"] / out["game.per_play.simulate_s"]

    sec, cnt = _layer_totals(tracer, "ucp-scan", iteration)
    out["ucp.from_file_s"] = _sum(sec, "ucp.from_file")
    out["ucp.members"] = _count(cnt, "ucp.from_file", "members")
    out["ucp.compute_rho_s"] = _sum(sec, "ucp.compute_rho")
    out["ucp.density_check_s"] = _sum(sec, "ucp.density_check")
    out["ucp.pa_check_s"] = _sum(sec, "ucp.pa_check")
    out["ucp.analyze_s"] = _sum(sec, "ucp.analyze")
    out["ucp.depth_scanned"] = _count(cnt, "ucp.compute_rho", "depth_scanned")
    out["ucp.rho_stages"] = _count(cnt, "ucp.compute_rho", "rho_stages")
    out["ucp.levels_per_s"] = out["ucp.depth_scanned"] / out["ucp.compute_rho_s"]
    return out


def run_traced(args, sizes: dict, runner: Runner, started: float) -> tuple[dict, dict]:
    samples: dict[str, list[float]] = {}
    env, cwd = runner.env, str(ROOT)
    repeats = 1 if args.smoke else 3
    samples["setup.interpreter_s"] = [interpreter_seconds(env, cwd) for _ in range(repeats)]
    imports = [import_breakdown(env, cwd) for _ in range(repeats)]
    for group in ("numpy", "scipy", "click", "phtree"):
        samples[f"setup.import.{group}_s"] = [row[group] for row in imports]

    calls, setup_s = {}, {}
    for workload in WORKLOADS:
        setup = runner.setup_samples(wl.subcommands(workload), repeats)
        setup_s[workload] = statistics.median(t.seconds for t in setup)
        calls[workload] = prepare(workload, args.seed, sizes, runner.workdir)

    tracer = Tracer()
    tracer.instrument()
    try:
        measure_start = time.perf_counter()
        iteration = 0
        while True:
            round_start = time.perf_counter()
            tracer.iteration = iteration
            overhead = 0.0
            for workload in WORKLOADS:
                # an untraced iteration right before the traced one, so that
                # coverage and overhead compare runs under the same load
                timings, _peak = runner.iteration(calls[workload])
                untraced_wall = sum(t.seconds for t in timings)
                tracer.workload = workload
                codes = {}
                with tracer.span("iteration") as whole:
                    for call in calls[workload]:
                        call.output.unlink(missing_ok=True)
                        with tracer.span(f"call.{call.label}") as span:
                            codes[call.label] = invoke_in_process(call.args)
                        span.counts["output_bytes"] = call.output.stat().st_size if call.output.is_file() else 0
                for call in calls[workload]:
                    code = codes[call.label]
                    runner.record(f"{call.label}: exit {code}" if code != 0 else wl.verify_digest(call))
                sec, _cnt = _layer_totals(tracer, workload, iteration)
                startup = len(calls[workload]) * setup_s[workload]
                samples.setdefault(f"trace.coverage.{workload}", []).append(
                    (startup + _sum(sec, "top")) / untraced_wall
                )
                overhead += startup + whole.seconds - untraced_wall
            samples.setdefault("trace.overhead_s", []).append(overhead)
            for name, value in layer_metrics(tracer, iteration).items():
                samples.setdefault(name, []).append(value)
            iteration += 1
            now = time.perf_counter()
            if now - measure_start >= args.seconds:
                break
            if now - started + (now - round_start) > RUN_DEADLINE_S:
                break
    finally:
        tracer.restore()
    for group in calls.values():
        runner.check_contents(group)
    extra = {
        "setup_s": setup_s,
        "spans": tracer.as_json(),
        "calls": {call.label: call.digest for group in calls.values() for call in group},
    }
    return samples, extra


# -- entry point ----------------------------------------------------------


def load_bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench", help="result and scratch directory")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    try:
        if not (SRC / "phtree" / "cli.py").is_file():
            raise BenchError(f"no phtree sources under {SRC}")
        if SIZE_CAP_VAR in os.environ:
            raise BenchError(f"{SIZE_CAP_VAR} is set; unset it so every run uses the default cap")
        bench_spec = load_bench_spec()
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    os.environ.update(THREAD_VARS)  # before numpy is imported here for checks or tracing
    sys.path.insert(0, str(SRC))
    env = environment()
    sizes = wl.SIZES["smoke" if args.smoke else "full"]
    args.out = args.out.resolve()  # children run in ROOT, whatever the caller's directory
    workdir = args.out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with Runner(workdir) as runner:
            run = run_traced if args.trace else run_untraced
            samples, extra = run(args, sizes, runner, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = _read("/proc/loadavg")

    wanted = bench_spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        summary = summarize(samples[spec["name"]])
        metrics[spec["name"]] = {"value": summary["median"], "unit": spec["unit"], **summary}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        **result,
        "failed_frac": runner.failed / runner.attempted,
        "failures": runner.failures,
        "metrics": metrics,
        "samples": samples,
        **extra,
    }
    results = args.out / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"perfbench: wrote {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
