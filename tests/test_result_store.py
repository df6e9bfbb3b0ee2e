"""Tests for the loop content key (``repro.obs.ledger.loop_fingerprint``)
and the figure layer's in-memory result store (``ResultStore``)."""

import argparse
import dataclasses
import os
import subprocess
import sys

import pytest

import repro
from repro.experiments import cli, figures
from repro.experiments.scenarios import RESULT_STORE, stored
from repro.obs import MonitorSuite, Telemetry
from repro.obs.events import RunStartEvent
from repro.obs.ledger import ResultStore, as_ledger, loop_fingerprint
from repro.params import default_params, small_test_params
from repro.runtime.driver import RunConfig, run_hw, run_ideal, run_serial, run_sw
from repro.runtime.schedule import SchedulePolicy, ScheduleSpec
from repro.testing.diffcheck import result_signature
from repro.trace.loop import ArraySpec, Loop
from repro.trace.ops import compute, local, read, write
from repro.types import AccessKind, ProtocolKind
from repro.workloads.synthetic import parallel_nonpriv_loop

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
FIGURES = ("fig11", "fig12", "fig13", "fig14", "table1", "table2", "table3")


def _under_hash_seeds(script: str, seeds=("0", "1")) -> set:
    """Stdout of ``script`` run in a fresh interpreter per hash seed."""
    return {
        subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": SRC, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        for seed in seeds
    }


# ----------------------------------------------------------------------
# the loop key
# ----------------------------------------------------------------------
def _arrays(**changes):
    a = dict(name="A", length=8, elem_bytes=8, protocol=ProtocolKind.NONPRIV,
             modified=True, live_out=False)
    a.update(changes)
    return [ArraySpec(**a), ArraySpec("B", 4, 4, ProtocolKind.PRIV, True, True)]


def _body(first=None):
    return [
        [first or read("A", 1), compute(5), local(AccessKind.READ)],
        [write("B", 2), compute(3)],
    ]


def _keyed_loop(name="keyed", arrays=None, body=None, weights=(1, 2)):
    return Loop(name, arrays or _arrays(), body or _body(),
                list(weights) if weights is not None else None)


#: one variant per field the key must cover
VARIANTS = {
    "loop name": lambda: _keyed_loop(name="keyed2"),
    "array name": lambda: _keyed_loop(
        arrays=_arrays(name="C"), body=_body(read("C", 1))),
    "array length": lambda: _keyed_loop(arrays=_arrays(length=9)),
    "array elem_bytes": lambda: _keyed_loop(arrays=_arrays(elem_bytes=4)),
    "array protocol": lambda: _keyed_loop(
        arrays=_arrays(protocol=ProtocolKind.PLAIN)),
    "array modified": lambda: _keyed_loop(arrays=_arrays(modified=False)),
    "array live_out": lambda: _keyed_loop(arrays=_arrays(live_out=True)),
    "access kind": lambda: _keyed_loop(body=_body(write("A", 1))),
    "access array": lambda: _keyed_loop(body=_body(read("B", 1))),
    "access index": lambda: _keyed_loop(body=_body(read("A", 2))),
    "compute cycles": lambda: _keyed_loop(body=[
        [read("A", 1), compute(6), local(AccessKind.READ)],
        [write("B", 2), compute(3)]]),
    "local kind": lambda: _keyed_loop(body=[
        [read("A", 1), compute(5), local(AccessKind.WRITE)],
        [write("B", 2), compute(3)]]),
    "iteration boundary": lambda: _keyed_loop(body=[
        [read("A", 1), compute(5)],
        [local(AccessKind.READ), write("B", 2), compute(3)]]),
    "weights": lambda: _keyed_loop(weights=(2, 1)),
    "no weights": lambda: _keyed_loop(weights=None),
}


class TestLoopKey:
    def test_equal_content_equal_key(self):
        assert loop_fingerprint(_keyed_loop()) == loop_fingerprint(_keyed_loop())

    @pytest.mark.parametrize("field", sorted(VARIANTS))
    def test_key_covers_field(self, field):
        assert loop_fingerprint(VARIANTS[field]()) != loop_fingerprint(
            _keyed_loop())

    def test_variants_pairwise_distinct(self):
        keys = {loop_fingerprint(make()) for make in VARIANTS.values()}
        assert len(keys) == len(VARIANTS)

    def test_memoized_on_the_loop(self):
        loop = _keyed_loop()
        key = loop_fingerprint(loop)
        assert loop._ledger_fp == key and loop_fingerprint(loop) is key

    def test_stable_across_hash_seeds(self):
        script = (
            "from repro.experiments.figures import make_workload; "
            "from repro.obs.ledger import ledger_key, loop_fingerprint; "
            "from repro.params import default_params; "
            "from repro.types import Scenario; "
            "w = make_workload('P3m', 'quick', 2026); "
            "loop = next(w.executions(1)); "
            "print(loop_fingerprint(loop), ledger_key(Scenario.HW, loop, "
            "default_params(16), w.hw_config()))"
        )
        digests = _under_hash_seeds(script)
        assert len(digests) == 1, digests

    def test_forced_failure_loop_has_its_own_key(self):
        """Fig 13's Ocean instance is built as a new loop, not by
        editing the generated execution, so the two keys differ and the
        unmodified execution keeps its key."""
        workload = figures.make_workload("Ocean", "quick", 2026)
        plain = next(workload.executions(1))
        plain_key = loop_fingerprint(plain)
        forced, _, _ = figures._forced_failure_loop("Ocean", "quick", 2026)
        assert loop_fingerprint(forced) != plain_key
        fresh = next(figures.make_workload("Ocean", "quick", 2026).executions(1))
        assert loop_fingerprint(fresh) == plain_key
        assert forced.num_iterations == plain.num_iterations
        assert len(forced.iterations[1]) == len(plain.iterations[1]) + 1


class TestIdealLayout:
    def test_ideal_p3m_independent_of_hash_seed(self):
        """Private copies are allocated in array declaration order, so
        the layout (and the simulated time) no longer follows the
        string-hash order of a set.  P3m at workload seed 1 on 16
        processors is a case where the two orders differ."""
        script = (
            "import hashlib, json; "
            "from repro.experiments.figures import make_workload; "
            "from repro.params import default_params; "
            "from repro.runtime.driver import run_ideal; "
            "from repro.testing.diffcheck import result_signature; "
            "w = make_workload('P3m', 'quick', 1); "
            "r = run_ideal(next(w.executions(1)), default_params(16), "
            "w.ideal_config()); "
            "print(hashlib.sha256(json.dumps(result_signature(r), "
            "sort_keys=True, default=repr).encode()).hexdigest())"
        )
        digests = _under_hash_seeds(script, seeds=("0", "1", "2", "3"))
        assert len(digests) == 1, digests


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
def _loop():
    return parallel_nonpriv_loop("store-loop", elements=64, iterations=8)


def _static(**extra):
    return RunConfig(schedule=ScheduleSpec(policy=SchedulePolicy.STATIC_CHUNK),
                     **extra)


def _count_serves(monkeypatch, store) -> dict:
    """Wrap ``store.serve`` to count the hits and misses the driver sees."""
    counts = {"hits": 0, "misses": 0}
    serve = store.serve

    def counting(key):
        result = serve(key)
        counts["hits" if result is not None else "misses"] += 1
        return result

    monkeypatch.setattr(store, "serve", counting)
    return counts


class TestResultStore:
    def test_as_ledger_passes_the_store_through(self):
        store = ResultStore()
        assert as_ledger(store) is store

    @pytest.mark.parametrize("runner", [run_serial, run_ideal, run_sw, run_hw])
    def test_served_equals_fresh(self, runner, monkeypatch):
        params = small_test_params(4)
        store = ResultStore()
        counts = _count_serves(monkeypatch, store)
        fresh = runner(_loop(), params, _static())
        first = runner(_loop(), params, _static(ledger=store))
        monkeypatch.setattr(
            "repro.runtime.driver.Machine",
            lambda *a, **k: pytest.fail("re-simulated despite a store hit"),
        )
        served = runner(_loop(), params, _static(ledger=store))
        assert counts["hits"] == 1 and len(store) == 1
        assert result_signature(served) == result_signature(fresh)
        assert served == first
        assert served is not first

    def test_served_workload_run_matches_fresh_simulation(self, monkeypatch):
        workload = figures.make_workload("Adm", "quick", 2026)
        params = default_params(workload.num_processors)
        config = workload.hw_config()
        fresh = run_hw(next(workload.executions(1)), params, config)
        store = ResultStore()
        counts = _count_serves(monkeypatch, store)
        run_hw(next(workload.executions(1)), params,
               dataclasses.replace(config, ledger=store))
        served = run_hw(next(workload.executions(1)), params,
                        dataclasses.replace(config, ledger=store))
        assert counts["hits"] == 1
        assert result_signature(served) == result_signature(fresh)

    def test_mutating_a_served_result_does_not_leak(self, monkeypatch):
        params = small_test_params(4)
        store = ResultStore()
        counts = _count_serves(monkeypatch, store)
        config = RunConfig(ledger=store)
        original = run_hw(_loop(), params, config)
        reference = result_signature(original)
        original.phases["loop"] = -1.0  # the caller's copy is its own
        first = run_hw(_loop(), params, config)
        first.wall = -1.0
        first.phases.clear()
        first.mem.reads += 1000
        first.assignment[0].append(999)
        second = run_hw(_loop(), params, config)
        assert counts["hits"] == 2
        assert result_signature(second) == reference

    def test_monitors_and_hooks_are_never_served(self, monkeypatch):
        params = small_test_params(4)
        store = ResultStore()
        counts = _count_serves(monkeypatch, store)
        run_hw(_loop(), params, RunConfig(ledger=store))
        monitored = run_hw(_loop(), params,
                           RunConfig(ledger=store, monitors=MonitorSuite()))
        assert monitored.violations == []
        hooked = []
        run_hw(_loop(), params,
               RunConfig(ledger=store, machine_hook=hooked.append))
        assert hooked, "a machine_hook run must simulate"
        assert counts["hits"] == 0

    def test_observed_runs_are_not_recorded(self, monkeypatch):
        params = small_test_params(4)
        store = ResultStore()
        counts = _count_serves(monkeypatch, store)
        telemetry = Telemetry()
        run_hw(_loop(), params, RunConfig(ledger=store, telemetry=telemetry))
        run_hw(_loop(), params, RunConfig(ledger=store,
                                          monitors=MonitorSuite()))
        run_hw(_loop(), params, RunConfig(ledger=store,
                                          machine_hook=lambda m: None))
        assert len(store) == 0
        # An unobserved run is recorded, and then serves a repeat.
        run_hw(_loop(), params, RunConfig(ledger=store))
        again = Telemetry()
        run_hw(_loop(), params, RunConfig(ledger=store, telemetry=again))
        assert counts["hits"] == 1
        assert not [e for e in again.events if isinstance(e, RunStartEvent)]

    def test_bounded_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(ResultStore, "MAX_ENTRIES", 2)
        params = small_test_params(4)
        store = ResultStore()
        counts = _count_serves(monkeypatch, store)
        loops = [parallel_nonpriv_loop(f"lru{i}", elements=64, iterations=8)
                 for i in range(3)]
        config = RunConfig(ledger=store)
        run_hw(loops[0], params, config)
        run_hw(loops[1], params, config)
        run_hw(loops[0], params, config)  # hit: loop 0 is now most recent
        run_hw(loops[2], params, config)  # evicts loop 1
        assert len(store) == 2 and counts["hits"] == 1
        run_hw(loops[0], params, config)
        assert counts["hits"] == 2
        run_hw(loops[1], params, config)
        assert counts["hits"] == 2  # loop 1 was evicted: simulated again

    def test_clear(self):
        store = ResultStore()
        run_serial(_loop(), small_test_params(4), RunConfig(ledger=store))
        assert len(store) == 1
        store.clear()
        assert len(store) == 0


class TestFigureStore:
    def test_stored_keeps_the_config(self):
        config = figures.make_workload("Track", "quick").hw_config()
        assert stored(config) == dataclasses.replace(config, ledger=RESULT_STORE)
        assert stored().ledger is RESULT_STORE

    def test_figure_text_identical_cleared_and_warm(self, monkeypatch):
        args = argparse.Namespace(preset="quick", seed=2026, chart=False)
        RESULT_STORE.clear()
        counts = _count_serves(monkeypatch, RESULT_STORE)
        cold = {name: cli.EXPERIMENTS[name](args) for name in FIGURES}
        assert counts["hits"] > 0, "the figures share runs"
        simulated = counts["misses"]
        warm = {name: cli.EXPERIMENTS[name](args) for name in FIGURES}
        assert warm == cold
        assert counts["misses"] == simulated, "warm figures simulated"

    def test_figure_runs_match_unstored_runs(self, monkeypatch):
        """Served figure rows equal rows simulated with the store off."""
        RESULT_STORE.clear()
        counts = _count_serves(monkeypatch, RESULT_STORE)
        figures.fig12_breakdown("quick", workloads=["Adm"])
        served = figures.fig12_breakdown("quick", workloads=["Adm"])
        assert counts["hits"] == counts["misses"] > 0
        monkeypatch.setattr(RESULT_STORE, "serve_hits", False)
        fresh = figures.fig12_breakdown("quick", workloads=["Adm"])
        assert served == fresh
