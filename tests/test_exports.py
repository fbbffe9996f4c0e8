"""The package's public names."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import phtree

#: the submodules a bare ``import phtree`` makes reachable as attributes
SUBMODULES = ["analysis", "boundary", "capacity", "dpp", "errors", "game", "solver", "tree", "ucp"]


def _python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(phtree.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_all_names_resolve_without_duplicates():
    names = phtree.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(phtree, name)] == []


def test_bare_import_loads_no_submodule_and_no_numpy():
    code = (
        "import sys, phtree\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('phtree', 'numpy', 'scipy')))"
    )
    assert _python(code) == "['phtree']\n"


def test_each_name_is_the_object_of_the_module_that_defines_it():
    homes = set()
    for name in phtree.__all__:
        obj = getattr(phtree, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj
        homes.add(obj.__module__)
    assert homes == {f"phtree.{name}" for name in SUBMODULES if name != "capacity"}


def test_bare_import_reaches_each_submodule():
    code = f"import phtree\nprint([getattr(phtree, name).__name__ for name in {SUBMODULES!r}])"
    assert _python(code) == f"{[f'phtree.{name}' for name in SUBMODULES]!r}\n"
    assert set(phtree.__all__) | set(SUBMODULES) <= set(dir(phtree))
    assert not hasattr(phtree, "no_such_name")


def _public_callables():
    for name in phtree.__all__:
        obj = getattr(phtree, name)
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if callable(member):
                    yield f"{name}.{attr}", member


def test_no_public_callable_takes_a_cap():
    # PHTREE_SIZE_CAP is the only way to set the size cap
    takes_cap = []
    for name, obj in _public_callables():
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if "cap" in parameters:
            takes_cap.append(name)
    assert takes_cap == []
