"""The package's public names."""

import inspect

import phtree


def test_all_names_resolve_without_duplicates():
    names = phtree.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(phtree, name)] == []


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
