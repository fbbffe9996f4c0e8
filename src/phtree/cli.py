"""Command-line front end: reproducible batch runs with canonical reports.

Every run is fully determined by its flags (seeds included): identical
invocations produce identical output bytes.  JSON reports use sorted keys
and fixed 17-significant-digit float formatting; CSV fields use the same
float format.  Exit codes: 0 success, 2 validation error or an unusable
input or output file, 3 capacity error or out of memory.
"""

from __future__ import annotations

import sys

import click

from . import _format
from . import analysis as analysis_mod
from . import game as game_mod
from . import solver as solver_mod
from . import ucp as ucp_mod
from .boundary import BoundarySpec
from .dpp import GameParams
from .errors import CapacityError, PHTreeError, ValidationError
from .tree import parse_vertex

EXIT_VALIDATION = 2
EXIT_CAPACITY = 3


def _format_float(x: float) -> str:
    return format(x, ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats as ``"%.17g" % v``.

    A list of plain floats (a field level) is rendered by
    ``_format.write_rows`` a block of items at a time, with its exact
    integer kernel for 0.0 and 1e-4 <= |v| < 1e15 and the ``%`` operator for
    every other value; the bytes are those of formatting each item alone.
    """
    parts: list[str] = []

    def put(obj, indent: int) -> None:
        pad = "  " * indent
        child_pad = pad + "  "
        if isinstance(obj, (list, tuple)) and obj and {*map(type, obj)} == {float}:
            text = bytearray(b"[\n")
            _format.write_rows(text, [child_pad, obj, ",\n"])
            text[-2:] = f"\n{pad}]".encode()  # no separator after the last item
            parts.append(text.decode("ascii"))
        elif isinstance(obj, (dict, list, tuple)):
            if isinstance(obj, dict):
                brackets, items = "{}", [(f'"{key}": ', obj[key]) for key in sorted(obj)]
            else:
                brackets, items = "[]", [("", v) for v in obj]
            sep = brackets[0] + "\n"
            for prefix, value in items:
                parts.append(sep + child_pad + prefix)
                put(value, indent + 1)
                sep = ",\n"
            parts.append(f"\n{pad}{brackets[1]}" if items else brackets)
        elif isinstance(obj, bool):
            parts.append("true" if obj else "false")
        elif obj is None:
            parts.append("null")
        elif isinstance(obj, float):
            parts.append(_format_float(obj))
        elif isinstance(obj, int):
            parts.append(str(obj))
        elif isinstance(obj, str):
            parts.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
        else:
            raise TypeError(f"cannot serialise {type(obj)!r}")

    put(obj, indent)
    return "".join(parts)


#: characters per write: writing a str encodes all of it into a copy first,
#: and a whole report would double its memory
_WRITE_CHARS = 1 << 20


def _write_report(text: str, output: str | None) -> None:
    """Write a report that ends in exactly one newline, a slice at a time.
    CSV text already ends in one; adding it here rather than stripping and
    re-adding it spares a copy of the whole report."""
    if output is None or output == "-":
        _write_slices(text, lambda part: click.echo(part, nl=False))
    else:
        with open(output, "w", encoding="utf-8") as fh:
            _write_slices(text, fh.write)


def _write_slices(text: str, write) -> None:
    for start in range(0, len(text), _WRITE_CHARS):
        write(text[start : start + _WRITE_CHARS])
    if not text.endswith("\n"):
        write("\n")


def _build_params(m: int, alpha: float, beta: float | None) -> GameParams:
    if beta is None:
        beta = 1.0 - alpha
    return GameParams(m=m, alpha=alpha, beta=beta)


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _run_guarded(fn) -> None:
    try:
        fn()
    except CapacityError as exc:
        _fail(str(exc), EXIT_CAPACITY)
    except MemoryError:
        _fail("out of memory; ask for a smaller problem", EXIT_CAPACITY)
    except PHTreeError as exc:
        _fail(str(exc), EXIT_VALIDATION)
    except UnicodeDecodeError as exc:
        # each command reads at most one input file, so the message need not name it
        _fail(f"input file is not UTF-8 text: {exc.reason} at byte {exc.start}", EXIT_VALIDATION)
    except OSError as exc:
        message = f"cannot open {exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        _fail(message, EXIT_VALIDATION)


@click.group()
def main() -> None:
    """Averaging-operator fields on m-branching trees: solve, simulate, analyze."""


_common = [
    click.option("--m", "m", type=int, default=3, show_default=True, help="branching factor"),
    click.option("--alpha", type=float, required=True, help="competitive-move probability"),
    click.option("--beta", type=float, default=None, help="random-move probability (default 1 - alpha)"),
]


def _with_common(fn):
    for option in reversed(_common):
        fn = option(fn)
    return fn


@main.command()
@_with_common
@click.option("--boundary", required=True, help="linear | quadratic-centered | constant:<c> | CSV path")
@click.option("--n", "depth", type=int, default=None, help="build depth")
@click.option("--tol", type=float, default=None, help="target sup-error instead of a fixed depth")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--output", default="-", show_default=True, help="report path ('-' = stdout)")
def solve(m, alpha, beta, boundary, depth, tol, fmt, output) -> None:
    """Build the approximating field for the given boundary data."""

    def run() -> None:
        params = _build_params(m, alpha, beta)
        spec = BoundarySpec.parse(boundary)
        if (depth is None) == (tol is None):
            raise ValidationError("pass exactly one of --n and --tol")
        if depth is not None:
            field = solver_mod.build_un(spec, params, depth)
            n_used, certified, bound = depth, None, None
        else:
            result = solver_mod.solve_to_tolerance(spec, params, tol)
            field = result.field
            n_used, certified, bound = result.n_used, result.certified, result.certified_bound
        if fmt == "csv":
            text = solver_mod.field_to_csv(field)
        else:
            obj = solver_mod.field_to_json_obj(field)
            obj["root_value"] = field.root_value
            if certified is not None:
                obj["certified"] = certified
                obj["certified_bound"] = bound
            obj["n_used"] = n_used
            text = canonical_json(obj)
        _write_report(text, output)

    _run_guarded(run)


@main.command()
@_with_common
@click.option("--boundary", required=True)
@click.option("--seed", type=int, default=0, show_default=True, help="master seed")
@click.option("--plays", type=int, default=10000, show_default=True)
@click.option("--depth", type=int, default=20, show_default=True, help="truncation depth")
@click.option("--x0", default="", help="starting vertex as a digit string, e.g. 0.2.1")
@click.option("--advice-n", type=int, default=8, show_default=True, help="depth of the advice field for greedy strategies")
@click.option("--strategy-i", default="greedy-max", show_default=True)
@click.option("--strategy-ii", default="greedy-min", show_default=True)
@click.option("--output", default="-", show_default=True)
def simulate(m, alpha, beta, boundary, seed, plays, depth, x0, advice_n, strategy_i, strategy_ii, output) -> None:
    """Monte Carlo tug-of-war estimate of the game value at a vertex."""

    def run() -> None:
        params = _build_params(m, alpha, beta)
        spec = BoundarySpec.parse(boundary)
        start = parse_vertex(x0, m)
        advice = None
        if strategy_i.startswith("greedy") or strategy_ii.startswith("greedy"):
            advice = solver_mod.build_un(spec, params, advice_n)
        s_i = game_mod.strategy_from_name(strategy_i, m, advice)
        s_ii = game_mod.strategy_from_name(strategy_ii, m, advice)
        estimate = game_mod.estimate_value(start, s_i, s_ii, spec, params, depth, plays, seed)
        obj = {
            "mean": estimate.mean,
            "std_error": estimate.std_error,
            "plays": estimate.plays,
            "truncation_depth": estimate.truncation_depth,
            "truncation_error": game_mod.truncation_error(spec, params, depth),
            "m": m,
            "alpha": params.alpha,
            "beta": params.beta,
            "seed": seed,
        }
        _write_report(canonical_json(obj), output)

    _run_guarded(run)


@main.command()
@_with_common
@click.option("--set", "set_descriptor", default=None, help="last-digit:<d> | digit-avoiding:<d> | full-levels:<list>[;doubling] | rho:<list>[;rule]")
@click.option("--set-file", default=None, help="membership list file, one digit string per line")
@click.option("--kmax", type=int, default=6, show_default=True, help="ladder stages to compute")
@click.option("--resolution", type=int, default=3, show_default=True, help="density resolution level")
@click.option("--pa-nmax", type=int, default=6, show_default=True, help="uniform-hitting lookahead")
@click.option("--output", default="-", show_default=True)
def ucp(m, alpha, beta, set_descriptor, set_file, kmax, resolution, pa_nmax, output) -> None:
    """Unique-continuation analysis of a tree subset."""

    def run() -> None:
        params = _build_params(m, alpha, beta)
        if (set_descriptor is None) == (set_file is None):
            raise ValidationError("pass exactly one of --set and --set-file")
        if set_descriptor is not None:
            subset = ucp_mod.SubsetSpec.parse(set_descriptor, m)
        else:
            subset = ucp_mod.SubsetSpec.from_file(set_file, m)
        report = ucp_mod.analyze(
            subset, params, k_max=kmax, resolution=resolution, pa_n_max=pa_nmax
        )
        obj = report.to_json_obj()
        obj["alpha"] = params.alpha
        obj["beta"] = params.beta
        obj["delta"] = params.delta
        _write_report(canonical_json(obj), output)

    _run_guarded(run)


@main.command()
@_with_common
@click.option("--output", default="-", show_default=True)
def dim(m, alpha, beta, output) -> None:
    """Minimal Hausdorff dimension of convergence sets (closed form)."""

    def run() -> None:
        params = _build_params(m, alpha, beta)
        result = analysis_mod.fatou_dimension(params)
        obj = {
            "m": result.m,
            "alpha": result.alpha,
            "beta": result.beta,
            "gamma": result.gamma,
            "objective": result.objective,
            "dimension": result.dimension,
        }
        _write_report(canonical_json(obj), output)

    _run_guarded(run)


if __name__ == "__main__":  # pragma: no cover
    main()
