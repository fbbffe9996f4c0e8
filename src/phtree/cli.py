"""Command-line front end: reproducible batch runs with canonical reports.

Each subcommand is one body under the ``_command`` decorator.  The body
takes the ``GameParams`` of ``--m`` and ``--alpha`` and its own options,
and returns its report: an object, written as canonical JSON, or a
callable that passes the report to a ``write`` (solve's CSV).  The
decorator opens ``--output`` only once the body has returned, so a refused
run leaves an existing file untouched, and gives each refusal one
``error:`` line and its exit code: 2 for invalid input or an unusable
file, 3 for a capacity error or out of memory.

Identical invocations (seeds are flags) write identical bytes: JSON with
sorted keys and floats as ``%.17g``, CSV with the same floats.  A report
streams to its destination one block at a time and is never held as text.

``run`` is the process entry (the ``phtree`` script and ``python -m
phtree.cli``): it calls ``main``, then freezes the collector, so the
interpreter's final collection skips the objects the imports left;
``main`` never freezes.  Under ``python -m phtree.cli`` the collector is
also off while the imports run, and the ``__main__`` guard freezes what
they left and turns it back on.  Each body imports the modules it calls,
so ``--help`` loads none of them.
"""

from __future__ import annotations

import contextlib
import gc

if __name__ == "__main__":
    gc.disable()  # no collections while the imports run; the guard at the end turns it on

import sys
from collections.abc import Callable

import click
import numpy as np

# eager only because perfbench times scipy's import under ``import phtree.cli``
from . import analysis as analysis_mod
from .dpp import GameParams
from .errors import CapacityError, PHTreeError, ValidationError

EXIT_VALIDATION = 2
EXIT_CAPACITY = 3


def canonical_json(obj, write: Callable[[bytes], object]) -> None:
    """Pass deterministic JSON of `obj` to `write` as bytes: sorted keys,
    floats as ``"%.17g" % v``.

    A float64 array (a field level) is rendered by ``_format.write_rows``
    straight to `write`, a block of items at a time, with its exact integer
    kernel for 0.0 and 1e-4 <= |v| < 1e15 and the ``%`` operator for every
    other value; the bytes are those of formatting each item alone.  Each
    item's row is its value and one str, the comma, newline and next indent.
    """

    def put(obj, pad: str) -> None:
        child_pad = pad + "  "
        if isinstance(obj, np.ndarray):
            if not obj.size:
                write(b"[]")
                return
            from . import _format  # only float-level reports need its tables
            write(f"[\n{child_pad}".encode())
            _format.write_rows(write, [obj[:-1], f",\n{child_pad}"])
            _format.write_rows(write, [obj[-1:], f"\n{pad}]"])
            return
        if isinstance(obj, (dict, list, tuple)):
            if isinstance(obj, dict):
                brackets, items = "{}", [(f'"{key}": ', obj[key]) for key in sorted(obj)]
            else:
                brackets, items = "[]", [("", v) for v in obj]
            sep = brackets[0] + "\n"
            for prefix, value in items:
                write(f"{sep}{child_pad}{prefix}".encode())
                put(value, child_pad)
                sep = ",\n"
            text = f"\n{pad}{brackets[1]}" if items else brackets
        elif isinstance(obj, bool):
            text = "true" if obj else "false"
        elif obj is None:
            text = "null"
        elif isinstance(obj, float):
            text = format(obj, ".17g")
        elif isinstance(obj, int):
            text = str(obj)
        elif isinstance(obj, str):
            text = '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
        else:
            raise TypeError(f"cannot serialise {type(obj)!r}")
        write(text.encode())

    put(obj, "")


@contextlib.contextmanager
def _write_report(output: str):
    """Open `output` ('-' for stdout) and yield a ``write`` that passes each
    chunk of a report to it, until all of it is written: a raw stdout
    (``PYTHONUNBUFFERED=1``) may take part of a chunk.  The report ends in
    exactly one newline: CSV text already ends in one, so it is appended
    only where the last chunk lacks it."""
    last = b""

    def write(chunk) -> None:
        nonlocal last
        if chunk:
            last = chunk[-1:]
            view = memoryview(chunk)
            while view:
                view = view[sink.write(view) :]

    if output == "-":
        target = contextlib.nullcontext(click.get_binary_stream("stdout"))
    else:
        target = open(output, "wb")
    with target as sink:
        yield write
        if last != b"\n":
            write(b"\n")
        sink.flush()


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main() -> None:
    """Averaging-operator fields on m-branching trees: solve, simulate, analyze."""


def _command(*options):
    """Register the decorated body as the subcommand of ``main`` named and
    documented by it, taking ``--m``, ``--alpha``, `options` and ``--output``
    in that order; the module docstring gives the shape."""
    options = (
        click.option("--m", "m", type=int, default=3, show_default=True, help="branching factor"),
        click.option("--alpha", type=float, required=True, help="competitive-move probability (beta = 1 - alpha)"),
        *options,
        click.option("--output", default="-", show_default=True, help="report path ('-' = stdout)"),
    )

    def register(body):
        def callback(m, alpha, output, **kwargs) -> None:
            try:
                report = body(GameParams(m, alpha), **kwargs)
                with _write_report(output) as write:
                    if callable(report):
                        report(write)
                    else:
                        canonical_json(report, write)
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

        for option in reversed(options):
            callback = option(callback)
        return main.command(body.__name__, help=body.__doc__)(callback)

    return register


@_command(
    click.option("--boundary", required=True, help="linear | quadratic-centered | constant:<c> | CSV path"),
    click.option("--n", "depth", type=int, default=None, help="build depth"),
    click.option("--tol", type=float, default=None, help="target sup-error instead of a fixed depth"),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True),
)
def solve(params, boundary, depth, tol, fmt):
    """Build the approximating field for the given boundary data."""
    from . import solver as solver_mod
    from .boundary import BoundarySpec

    spec = BoundarySpec.parse(boundary)
    if (depth is None) == (tol is None):
        raise ValidationError("pass exactly one of --n and --tol")
    if depth is not None:
        field, n_used, bound = solver_mod.build_un(spec, params, depth), depth, None
    else:
        result = solver_mod.solve_to_tolerance(spec, params, tol)
        field, n_used, bound = result.field, result.n_used, result.certified_bound
    if fmt == "csv":
        return lambda write: solver_mod.field_to_csv(field, write)
    obj = solver_mod.field_to_json_obj(field)
    obj["root_value"] = field.root_value
    if bound is not None:
        obj["certified"] = True
        obj["certified_bound"] = bound
    obj["n_used"] = n_used
    return obj


@_command(
    click.option("--boundary", required=True),
    click.option("--seed", type=int, default=0, show_default=True, help="master seed"),
    click.option("--plays", type=int, default=10000, show_default=True),
    click.option("--depth", type=int, default=20, show_default=True, help="truncation depth"),
    click.option("--x0", default="", help="starting vertex as a digit string, e.g. 0.2.1"),
    click.option("--advice-n", type=int, default=8, show_default=True, help="depth of the advice field for greedy strategies"),
    click.option("--strategy-i", default="greedy-max", show_default=True),
    click.option("--strategy-ii", default="greedy-min", show_default=True),
)
def simulate(params, boundary, seed, plays, depth, x0, advice_n, strategy_i, strategy_ii):
    """Monte Carlo tug-of-war estimate of the game value at a vertex."""
    from . import game as game_mod
    from . import solver as solver_mod
    from .boundary import BoundarySpec
    from .tree import parse_vertex

    spec = BoundarySpec.parse(boundary)
    start = parse_vertex(x0, params.m)
    game_mod.check_counts(depth, plays)  # before any advice is built
    names = (strategy_i.strip(), strategy_ii.strip())
    for name in names:
        if name not in game_mod.GREEDY:  # built without advice, so a bad name is refused first
            game_mod.strategy_from_name(name, params.m, None)
    advice = None
    if set(names) & game_mod.GREEDY.keys():
        advice = solver_mod.build_un(spec, params, advice_n)
    s_i = game_mod.strategy_from_name(strategy_i, params.m, advice)
    s_ii = game_mod.strategy_from_name(strategy_ii, params.m, advice)
    estimate = game_mod.estimate_value(start, s_i, s_ii, spec, params, depth, plays, seed)
    return {
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "plays": estimate.plays,
        "truncation_depth": estimate.truncation_depth,
        "truncation_error": game_mod.truncation_error(spec, params, depth),
        "m": params.m,
        "alpha": params.alpha,
        "beta": params.beta,
        "seed": seed,
    }


@_command(
    click.option("--set", "set_descriptor", default=None, help="last-digit:<d> | digit-avoiding:<d> | full-levels:<list>[;doubling] | rho:<list>[;rule]"),
    click.option("--set-file", default=None, help="membership list file, one digit string per line"),
    click.option("--kmax", type=int, default=6, show_default=True, help="ladder stages to compute"),
    click.option("--resolution", type=int, default=3, show_default=True, help="density resolution level"),
    click.option("--pa-nmax", type=int, default=6, show_default=True, help="uniform-hitting lookahead"),
)
def ucp(params, set_descriptor, set_file, kmax, resolution, pa_nmax):
    """Unique-continuation analysis of a tree subset."""
    from . import ucp as ucp_mod

    if (set_descriptor is None) == (set_file is None):
        raise ValidationError("pass exactly one of --set and --set-file")
    if set_descriptor is not None:
        subset = ucp_mod.SubsetSpec.parse(set_descriptor, params.m)
    else:
        subset = ucp_mod.SubsetSpec.from_file(set_file, params.m)
    report = ucp_mod.analyze(subset, params, k_max=kmax, resolution=resolution, pa_n_max=pa_nmax)
    obj = report.to_json_obj()
    obj["alpha"] = params.alpha
    obj["beta"] = params.beta
    obj["delta"] = params.delta
    return obj


@_command()
def dim(params):
    """Minimal Hausdorff dimension of convergence sets (closed form)."""
    result = analysis_mod.fatou_dimension(params)
    return {
        "m": result.m,
        "alpha": result.alpha,
        "beta": result.beta,
        "gamma": result.gamma,
        "objective": result.objective,
        "dimension": result.dimension,
    }


def run() -> None:
    """Run ``main`` as a process and freeze the collector on the way out:
    refcounting still frees objects and atexit handlers still run, but the
    shutdown collection no longer walks every object left tracked."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":  # pragma: no cover
    # freeze first: on alone, the collector's first passes would walk every
    # object the imports left
    gc.freeze()
    gc.enable()
    run()
