"""Compare two sets of benchmark result files, metric by metric.

Usage::

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by ``run.py`` or directories of
them.  For every end-to-end metric of ``BENCHMARK.json`` and every
workload present in both sets, the verdict is

* ``unresolved`` when either side's spread (quartile distance over
  median) exceeds the metric's bound, unless every NEW run reads better
  than every BASE run (``better``);
* ``worse`` when NEW's median is worse than BASE's by more than the bound;
* ``better`` when NEW's median is better by more than BASE's own spread
  and NEW wins at least nine tenths of the runs paired by seed, ties
  counting for neither;
* ``unchanged`` otherwise.

Exits 1 if any pair is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(source: Path) -> dict[tuple[str, str], dict[int, float]]:
    """{(workload, metric): {seed: value}} from untraced result files."""
    files = sorted(source.glob("*.json")) if source.is_dir() else [source]
    table: dict[tuple[str, str], dict[int, float]] = {}
    for path in files:
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") != 0:
            continue
        for name, metric in record["metrics"].items():
            table.setdefault((record["workload"], name), {})[record["seed"]] = metric["value"]
    return table


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: dict[int, float], new: dict[int, float], bound: float, lower_is_better: bool) -> dict:
    sign = 1.0 if lower_is_better else -1.0
    a, b = list(base.values()), list(new.values())
    median_a, median_b = statistics.median(a), statistics.median(b)
    worsening = sign * (median_b - median_a) / median_a
    spread_a, spread_b = spread(a), spread(b)
    if sign > 0:
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    seeds = sorted(set(base) & set(new))
    pairs = [(base[s], new[s]) for s in seeds] or list(zip(sorted(a), sorted(b)))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)

    if max(spread_a, spread_b) > bound:
        label = "better" if all_better else "unresolved"
    elif worsening > bound:
        label = "worse"
    elif -worsening > spread_a and wins >= 0.9 * len(pairs):
        label = "better"
    else:
        label = "unchanged"
    return {
        "verdict": label,
        "base_median": median_a,
        "new_median": median_b,
        "change": worsening,
        "base_spread": spread_a,
        "new_spread": spread_b,
        "runs": (len(a), len(b)),
    }


def compare(base_dir: Path, new_dir: Path, bench_spec: dict) -> list[dict]:
    base, new = load(base_dir), load(new_dir)
    rows = []
    for metric in bench_spec["end_to_end"]:
        for workload in [w["name"] for w in bench_spec["workloads"]]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            row = verdict(base[key], new[key], metric["bound"], metric["better"] == "lower")
            rows.append({"workload": workload, "metric": metric["name"], "bound": metric["bound"], **row})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(args.base, args.new, bench_spec)
    if not rows:
        print("compare: no (workload, metric) pair is present in both sets", file=sys.stderr)
        return 2
    print(f"{'workload':<14} {'metric':<12} {'verdict':<11} {'base':>12} {'new':>12} {'worse by':>9} {'spreads':>15} {'bound':>6}")
    for r in rows:
        print(
            f"{r['workload']:<14} {r['metric']:<12} {r['verdict']:<11} {r['base_median']:>12.6g} "
            f"{r['new_median']:>12.6g} {r['change']:>+9.2%} {r['base_spread']:>7.2%}/{r['new_spread']:<7.2%} {r['bound']:>6.2f}"
        )
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
