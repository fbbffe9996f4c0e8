"""Shared fixtures."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``run(fn, *args)`` calls ``fn(*args)`` under tracemalloc, which counts
    numpy's allocations, and returns ``(result, peak)``: the most bytes the
    call held at once, the result included, its inputs not."""

    def run(fn, *args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return run
