"""The benchmark's workloads: seeded inputs, CLI calls and output checks.

Each workload is a fixed list of ``phtree`` CLI calls.  The only inputs the
program sees are generated here from the workload seed: a tabulated
boundary CSV, an explicit set file, and the ``--seed`` / ``random:<seed>``
values handed to ``simulate``.  Every call writes its report to a file;
its ``check`` verifies the report's content and returns None on success
or a one-line reason on failure.

The checks import ``phtree`` from the checkout, so they run in the
benchmark's own process, never inside a timed child.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

M = 3
ALPHA = 0.5
KNOT_GRID = 256  # knots sit on multiples of 1/256, so no two are closer than that
INTERIOR_KNOTS = 31

#: sizes of the full benchmark and of the tiny smoke mode its tests run
SIZES = {
    "full": {
        "solve_n": 12,
        "advice_n": 15,
        "plays": 1_000_000,
        "depth": 20,
        "random_plays": 2000,
        "rho_kmax": 160,
        "set_members": 20_000,
        "set_min_depth": 6,
        "set_max_depth": 14,
        "set_kmax": 10,
        "set_resolution": 8,
    },
    "smoke": {
        "solve_n": 4,
        "advice_n": 5,
        "plays": 2000,
        "depth": 8,
        "random_plays": 50,
        "rho_kmax": 12,
        "set_members": 200,
        "set_min_depth": 3,
        "set_max_depth": 7,
        "set_kmax": 4,
        "set_resolution": 3,
    },
}


@dataclass
class Call:
    """One CLI call: its arguments, report path and output check."""

    label: str
    args: list[str]
    output: Path
    check: Callable[[Path], str | None]
    digest: str | None = field(default=None, repr=False)
    passed: int = 0  # runs whose exit code and digest were good


@dataclass(frozen=True)
class Inputs:
    boundary_csv: Path
    ts: tuple[float, ...]
    vs: tuple[float, ...]
    set_file: Path
    sim_seed: int
    random_seed: int


def generate_inputs(seed: int, workdir: Path, sizes: dict) -> Inputs:
    """Write the seed's boundary CSV and set file into `workdir`.

    The same seed always gives the same bytes.  Knots are distinct
    multiples of 1/256 and values lie in [-1, 1], so the automatic
    Lipschitz bound of the interpolant is at most 512.
    """
    rng = random.Random(f"perfbench:{seed}")
    interior = sorted(rng.sample(range(1, KNOT_GRID), INTERIOR_KNOTS))
    ts = (0.0, *(j / KNOT_GRID for j in interior), 1.0)
    vs = tuple(rng.uniform(-1.0, 1.0) for _ in ts)
    boundary_csv = workdir / "boundary.csv"
    boundary_csv.write_text(
        "t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(ts, vs)), encoding="utf-8"
    )

    members: set[str] = set()
    while len(members) < sizes["set_members"]:
        depth = rng.randint(sizes["set_min_depth"], sizes["set_max_depth"])
        members.add(".".join(str(rng.randrange(M)) for _ in range(depth)))
    set_file = workdir / "set.txt"
    set_file.write_text("\n".join(sorted(members)) + "\n", encoding="utf-8")

    return Inputs(
        boundary_csv=boundary_csv,
        ts=ts,
        vs=vs,
        set_file=set_file,
        sim_seed=rng.randrange(2**31),
        random_seed=rng.randrange(2**31),
    )


# -- output checks ------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def load_strict_json(path: Path) -> dict:
    """Parse a report, rejecting NaN and infinities."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class SolveChecker:
    """Checks the JSON and CSV fields of one solve against each other.

    The JSON check parses the levels; the CSV check reloads the field,
    compares it bit for bit with the JSON levels, re-checks the operator
    residual and compares the deepest level with ``sample_Fn``.
    """

    def __init__(self, inputs: Inputs, n: int):
        self.inputs = inputs
        self.n = n
        self.json_levels = None

    def _sampled(self):
        from phtree.boundary import BoundarySpec, sample_Fn

        return sample_Fn(BoundarySpec.from_csv(self.inputs.boundary_csv), M, self.n).values

    def check_json(self, path: Path) -> str | None:
        import numpy as np

        obj = load_strict_json(path)
        if obj.get("n") != self.n or obj.get("n_used") != self.n:
            return f"expected n={self.n}, got n={obj.get('n')} n_used={obj.get('n_used')}"
        levels = [np.array(level, dtype=float) for level in obj["levels"]]
        if [a.size for a in levels] != [M**k for k in range(self.n + 1)]:
            return "level sizes are not m**k"
        if obj["root_value"] != levels[0][0]:
            return "root_value differs from level 0"
        if levels[-1].tobytes() != self._sampled().tobytes():
            return "deepest JSON level differs from sample_Fn"
        self.json_levels = levels
        return None

    def check_csv(self, path: Path) -> str | None:
        from phtree.dpp import GameParams, check_field
        from phtree.solver import field_from_csv

        if self.json_levels is None:
            return "CSV checked before a valid JSON report"
        params = GameParams(m=M, alpha=ALPHA, beta=1.0 - ALPHA)
        field_ = field_from_csv(path.read_text(encoding="utf-8"), params)
        if len(field_.levels) != len(self.json_levels) or any(
            a.tobytes() != b.tobytes() for a, b in zip(field_.levels, self.json_levels)
        ):
            return "CSV levels differ from JSON levels"
        residual = check_field(field_).max_abs_residual
        if not residual <= 1e-12:
            return f"reloaded field has residual {residual!r} > 1e-12"
        return None


def check_greedy(inputs: Inputs, sizes: dict) -> Callable[[Path], str | None]:
    def check(path: Path) -> str | None:
        from phtree.boundary import BoundarySpec
        from phtree.dpp import GameParams
        from phtree.solver import build_un

        obj = load_strict_json(path)
        spec = BoundarySpec.from_csv(inputs.boundary_csv)
        params = GameParams(m=M, alpha=ALPHA, beta=1.0 - ALPHA)
        root = build_un(spec, params, sizes["advice_n"]).root_value
        allowed = (
            5 * obj["std_error"]
            + obj["truncation_error"]
            + spec.lipschitz_bound / M ** sizes["advice_n"]
        )
        if obj["plays"] != sizes["plays"]:
            return f"expected {sizes['plays']} plays, got {obj['plays']}"
        if not abs(obj["mean"] - root) <= allowed:
            return f"greedy mean {obj['mean']!r} is {abs(obj['mean'] - root):.3g} from u_n root {root!r} (allowed {allowed:.3g})"
        return None

    return check


def check_random(inputs: Inputs) -> Callable[[Path], str | None]:
    def check(path: Path) -> str | None:
        obj = load_strict_json(path)
        if not (math.isfinite(obj["std_error"]) and min(inputs.vs) <= obj["mean"] <= max(inputs.vs)):
            return f"random-play mean {obj['mean']!r} outside [min F, max F]"
        return None

    return check


def check_ucp(expect_rho: list[int] | None) -> Callable[[Path], str | None]:
    def check(path: Path) -> str | None:
        obj = load_strict_json(path)
        if obj["verdict"] != "no-UCP-certified":
            return f"verdict {obj['verdict']!r}, expected 'no-UCP-certified'"
        if expect_rho is not None and obj["rho"] != expect_rho:
            return f"rho {obj['rho'][:8]}... is not 1, 2, ..., {len(expect_rho)}"
        return None

    return check


# -- the workloads ------------------------------------------------------


def _common() -> list[str]:
    return ["--m", str(M), "--alpha", str(ALPHA)]


def subcommands(workload: str) -> list[str]:
    """The CLI subcommand(s) whose start-up ``setup_s`` measures."""
    return {"solve-report": ["solve"], "game-advised": ["simulate"], "ucp-scan": ["ucp"]}[workload]


def build_calls(workload: str, inputs: Inputs, sizes: dict, outdir: Path) -> list[Call]:
    """The calls of one workload iteration, in order."""
    boundary = str(inputs.boundary_csv)
    if workload == "solve-report":
        n = sizes["solve_n"]
        checker = SolveChecker(inputs, n)
        solve = ["solve", *_common(), "--boundary", boundary, "--n", str(n)]
        json_out, csv_out = outdir / "solve.json", outdir / "solve.csv"
        return [
            Call("solve.json", [*solve, "--format", "json", "--output", str(json_out)], json_out, checker.check_json),
            Call("solve.csv", [*solve, "--format", "csv", "--output", str(csv_out)], csv_out, checker.check_csv),
        ]
    if workload == "game-advised":
        greedy_out, random_out = outdir / "greedy.json", outdir / "random.json"
        simulate = ["simulate", *_common(), "--boundary", boundary, "--seed", str(inputs.sim_seed)]
        return [
            Call(
                "simulate.greedy",
                [*simulate, "--advice-n", str(sizes["advice_n"]), "--plays", str(sizes["plays"]),
                 "--depth", str(sizes["depth"]), "--output", str(greedy_out)],
                greedy_out,
                check_greedy(inputs, sizes),
            ),
            Call(
                "simulate.random",
                [*simulate, "--plays", str(sizes["random_plays"]), "--depth", str(sizes["depth"]),
                 "--strategy-ii", f"random:{inputs.random_seed}", "--output", str(random_out)],
                random_out,
                check_random(inputs),
            ),
        ]
    if workload == "ucp-scan":
        rho_out, set_out = outdir / "ucp-rho.json", outdir / "ucp-set.json"
        kmax = sizes["rho_kmax"]
        return [
            Call(
                "ucp.rho",
                ["ucp", *_common(), "--set", "rho:1,2;arith=1", "--kmax", str(kmax), "--output", str(rho_out)],
                rho_out,
                check_ucp(list(range(1, kmax + 1))),
            ),
            Call(
                "ucp.set",
                ["ucp", *_common(), "--set-file", str(inputs.set_file), "--kmax", str(sizes["set_kmax"]),
                 "--resolution", str(sizes["set_resolution"]), "--output", str(set_out)],
                set_out,
                check_ucp(None),
            ),
        ]
    raise KeyError(workload)


def verify_digest(call: Call) -> str | None:
    """Check that a call wrote a report with the same bytes as its first one.

    Identical invocations produce identical bytes, so one content check
    (:func:`verify_content`, after the timed loop) covers every report
    with the same digest.
    """
    if not call.output.is_file():
        return f"{call.label}: no report written"
    digest = sha256_of(call.output)
    if call.digest is None:
        call.digest = digest
    if digest != call.digest:
        return f"{call.label}: report bytes changed between iterations"
    call.passed += 1
    return None


def verify_content(call: Call) -> str | None:
    """Check the content of a call's last report (the one it digested)."""
    if call.passed == 0:
        return None  # every run of the call already counted as failed
    if sha256_of(call.output) != call.digest:
        return f"{call.label}: last report differs from the digested one"
    try:
        problem = call.check(call.output)
    except Exception as exc:  # a check that cannot read the report fails the call
        problem = f"unreadable report ({type(exc).__name__}: {exc})"
    return None if problem is None else f"{call.label}: {problem}"
