"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper at the
``quick`` preset (override with ``REPRO_PRESET=default`` or ``full``)
and prints the rows it produced, so ``pytest benchmarks/
--benchmark-only -s`` doubles as the evaluation reproduction.
"""

import os

import pytest

from repro.experiments.scenarios import RESULT_STORE

PRESET = os.environ.get("REPRO_PRESET", "quick")


@pytest.fixture(scope="session")
def preset() -> str:
    return PRESET


def run_once(benchmark, fn, *args, **kwargs):
    """Run a whole-figure generator exactly once under pytest-benchmark.

    The figure layer's result store is emptied first, so each bench
    times its own simulations rather than runs an earlier bench in the
    session left in the store."""
    RESULT_STORE.clear()
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
