"""Spans around the calls into each phtree layer, recorded from outside.

``Tracer.instrument()`` replaces the module attributes through which one
layer calls the next (``phtree.cli`` -> ``phtree.solver`` -> ...) with thin
wrappers that record a span per call, and ``restore()`` puts the originals
back.  Spans are kept in memory as (name, start, end, parent, workload,
iteration) plus a few exact counts, and written out when the run ends.
The program itself is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import re
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    """One timed call; `parent` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    iteration: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _batched(strategy) -> bool:
    return strategy.choose_batch is not None


_SIMULATE_ARGS = ("x0", "strategy_i", "strategy_ii", "spec", "params", "depth", "plays", "master_seed")


def _simulate_path(args, kwargs) -> str:
    """Span name of a ``simulate_batch`` call: which engine path it takes."""
    bound = dict(zip(_SIMULATE_ARGS, args), **kwargs)
    both = _batched(bound["strategy_i"]) and _batched(bound["strategy_ii"])
    return "game.batched.simulate" if both else "game.per_play.simulate"


def _simulate_counts(args, kwargs, result) -> dict:
    """Exact work counts of one ``simulate_batch`` call."""
    bound = dict(zip(_SIMULATE_ARGS, args), **kwargs)
    s_i, s_ii = bound["strategy_i"], bound["strategy_ii"]
    steps = bound["plays"] * bound["depth"]
    # strategies without choose_batch are called once per move they make
    calls = (0 if _batched(s_i) else result.moves_player_i) + (
        0 if _batched(s_ii) else result.moves_player_ii
    )
    # coin and turn draws (float64) plus random digits (int64): 24 B per cell
    return {"plays": bound["plays"], "steps": steps, "array_bytes": 24 * steps, "calls": calls}


def _field_counts(args, kwargs, result) -> dict:
    return {
        "vertices": sum(int(a.size) for a in result.levels),
        "bytes": sum(int(a.nbytes) for a in result.levels),
    }


def _rho_counts(args, kwargs, result) -> dict:
    return {"depth_scanned": result.depth_scanned, "rho_stages": len(result.rho)}


def _members_counts(args, kwargs, result) -> dict:
    return {"members": len(result.members)}


class Tracer:
    """In-memory span recorder with attribute-level instrumentation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.workload = ""
        self.iteration = 0

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the body of a ``with`` block."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.workload, self.iteration))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, counts: dict | None = None) -> None:
        self.spans[index].end = time.perf_counter()
        if counts:
            self.spans[index].counts.update(counts)
        self._stack.pop()

    def wrap(self, owner, attr: str, name, counts=None, recursive: bool = False) -> None:
        """Record a span for each call made through ``owner.attr``.

        `name` is the span name, or a function of the call's arguments
        that returns it.  `counts`, if given, maps (args, kwargs, result)
        to exact counts stored on the span.  With ``recursive=True`` the
        original is put back for the duration of the call, so that the
        function's calls to itself run unwrapped and cost nothing extra.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer._open(name(args, kwargs) if callable(name) else name)
            if recursive:
                setattr(owner, attr, raw)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(index, {"raised": 1})
                raise
            finally:
                if recursive:
                    setattr(owner, attr, patched)
            tracer._close(index, counts(args, kwargs, result) if counts else None)
            return result

        patched = classmethod(wrapper) if is_classmethod else wrapper
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def instrument(self) -> None:
        """Wrap each public layer function at the point where it is called."""
        from phtree import boundary, cli, game, solver, ucp

        self.wrap(boundary.BoundarySpec, "from_csv", "boundary.from_csv")
        self.wrap(solver, "sample_Fn", "boundary.sample_Fn")
        self.wrap(solver, "build_un", "solver.build_un", counts=_field_counts)
        self.wrap(solver, "field_to_json_obj", "solver.field_to_json_obj")
        self.wrap(solver, "field_to_csv", "solver.field_to_csv")
        self.wrap(cli, "canonical_json", "cli.canonical_json", recursive=True)
        self.wrap(cli, "_write_report", "report.write")
        self.wrap(game, "estimate_value", "game.estimate_value")
        self.wrap(game, "simulate_batch", _simulate_path, counts=_simulate_counts)
        self.wrap(ucp.SubsetSpec, "from_file", "ucp.from_file", counts=_members_counts)
        self.wrap(ucp, "analyze", "ucp.analyze")
        self.wrap(ucp, "compute_rho", "ucp.compute_rho", counts=_rho_counts)
        self.wrap(ucp, "density_check", "ucp.density_check")
        self.wrap(ucp, "pa_check", "ucp.pa_check")

    def as_json(self) -> list[dict]:
        return [asdict(span) for span in self.spans]

    def restore(self) -> None:
        """Put back every attribute :meth:`wrap` replaced."""
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()


# -- start-up breakdown -------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\s*)(\S+)\s*$")
IMPORT_GROUPS = ("numpy", "scipy", "click", "phtree")


def import_breakdown(env: dict, cwd: str) -> dict[str, float]:
    """Seconds of import self time per top-level package of ``import phtree.cli``.

    Parsed from ``python -X importtime``; packages outside
    ``IMPORT_GROUPS`` are summed under ``other``.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import phtree.cli"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import phtree.cli failed: {proc.stderr.strip()[-400:]}")
    totals = dict.fromkeys((*IMPORT_GROUPS, "other"), 0.0)
    for line in proc.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is None:
            continue
        top = match.group(4).split(".")[0]
        totals[top if top in totals else "other"] += int(match.group(1)) / 1e6
    return totals


def interpreter_seconds(env: dict, cwd: str) -> float:
    """Wall time of a bare interpreter start (``python -c pass``)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True, timeout=120)
    return time.perf_counter() - start

