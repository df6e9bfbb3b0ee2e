"""Reproducibility: identical inputs must give identical simulations."""

import pytest

from repro.experiments.scenarios import RESULT_STORE, run_workload
from repro.params import MachineParams
from repro.runtime import RunConfig, SchedulePolicy, ScheduleSpec, VirtualMode
from repro.runtime.driver import run_hw, run_serial, run_sw
from repro.types import Scenario
from repro.workloads import TrackWorkload
from repro.workloads.synthetic import parallel_nonpriv_loop

PARAMS = MachineParams(num_processors=4)


def _results_equal(a, b):
    assert a.wall == b.wall
    assert a.passed == b.passed
    assert a.phases == b.phases
    assert a.breakdown.busy == b.breakdown.busy
    assert a.breakdown.sync == b.breakdown.sync
    assert a.breakdown.mem == b.breakdown.mem


class TestDeterminism:
    def test_hw_run_bitwise_repeatable(self):
        cfg = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 2, VirtualMode.CHUNK)
        )
        runs = [
            run_hw(parallel_nonpriv_loop(iterations=24), PARAMS, cfg)
            for _ in range(2)
        ]
        _results_equal(*runs)

    def test_sw_run_repeatable(self):
        cfg = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.PROCESSOR)
        )
        runs = [
            run_sw(parallel_nonpriv_loop(iterations=24), PARAMS, cfg)
            for _ in range(2)
        ]
        _results_equal(*runs)

    def test_serial_repeatable(self):
        runs = [
            run_serial(parallel_nonpriv_loop(iterations=24), PARAMS)
            for _ in range(2)
        ]
        _results_equal(*runs)

    def test_workload_results_repeatable(self):
        results = []
        for _ in range(2):
            # Empty the figure layer's store so both calls simulate.
            RESULT_STORE.clear()
            results.append(
                run_workload(TrackWorkload(seed=9, scale=0.5), executions=2)
            )
        for scenario in (Scenario.SERIAL, Scenario.HW):
            assert (
                results[0].scenarios[scenario].wall
                == results[1].scenarios[scenario].wall
            )

    def test_different_seeds_differ(self):
        a = run_workload(
            TrackWorkload(seed=1, scale=0.5), executions=1,
            scenarios=[Scenario.SERIAL],
        )
        b = run_workload(
            TrackWorkload(seed=2, scale=0.5), executions=1,
            scenarios=[Scenario.SERIAL],
        )
        assert a.scenarios[Scenario.SERIAL].wall != b.scenarios[Scenario.SERIAL].wall
