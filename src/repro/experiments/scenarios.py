"""Scenario runner: a workload under Serial / Ideal / SW / HW.

Each workload is executed ``executions`` times (fresh machine per
execution, caches cold — §5.2 flushes caches between executions) and
results are averaged per execution, exactly as the paper reports.

The figures share runs: Fig 12 breaks down Fig 11's runs, Fig 14's
16-processor column repeats Fig 11, and Table 3 re-runs loops the
figures already ran.  Every run the figure layer makes therefore
carries :data:`RESULT_STORE` as its ledger, and the driver serves each
repeat from it instead of simulating it again.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..obs.ledger import ResultStore
from ..params import MachineParams, default_params
from ..runtime.driver import (
    RunConfig,
    RunResult,
    run_hw,
    run_ideal,
    run_serial,
    run_sw,
)
from ..sim.stats import TimeBreakdown
from ..types import Scenario
from ..workloads.base import Workload


#: the figure layer's process-lifetime result store (see module doc)
RESULT_STORE = ResultStore()


def stored(config: Optional[RunConfig] = None) -> RunConfig:
    """``config`` (default ``RunConfig()``) with :data:`RESULT_STORE`
    as its ledger."""
    return dataclasses.replace(config or RunConfig(), ledger=RESULT_STORE)


@dataclasses.dataclass
class ScenarioAverages:
    """Per-execution averages of one scenario on one workload."""

    scenario: Scenario
    wall: float
    breakdown: TimeBreakdown
    executions: int
    failures: int
    runs: List[RunResult]

    @property
    def pass_rate(self) -> float:
        return 1.0 - self.failures / max(1, self.executions)


@dataclasses.dataclass
class WorkloadResults:
    """All four scenarios on one workload at one processor count."""

    workload: str
    num_processors: int
    scenarios: Dict[Scenario, ScenarioAverages]

    def speedup(self, scenario: Scenario) -> float:
        serial = self.scenarios[Scenario.SERIAL].wall
        return serial / self.scenarios[scenario].wall

    def normalized_breakdown(self, scenario: Scenario) -> TimeBreakdown:
        serial = self.scenarios[Scenario.SERIAL].wall
        return self.scenarios[scenario].breakdown.normalized_to(serial)

    def efficiency(self, scenario: Scenario) -> float:
        return self.speedup(scenario) / self.num_processors


def run_workload(
    workload: Workload,
    scenarios: Optional[List[Scenario]] = None,
    executions: Optional[int] = None,
    num_processors: Optional[int] = None,
) -> WorkloadResults:
    """Simulate ``workload`` under each scenario; average per execution."""
    chosen = scenarios or [Scenario.SERIAL, Scenario.IDEAL, Scenario.SW, Scenario.HW]
    procs = num_processors or workload.num_processors
    params = default_params(procs)
    loops = list(workload.executions(executions))

    # Serial results double as the failure-path reference for SW/HW.
    serial_runs = [run_serial(loop, params, stored()) for loop in loops]
    results: Dict[Scenario, ScenarioAverages] = {}

    for scenario in chosen:
        runs: List[RunResult] = []
        for loop, serial in zip(loops, serial_runs):
            if scenario is Scenario.SERIAL:
                runs.append(serial)
            elif scenario is Scenario.IDEAL:
                runs.append(run_ideal(loop, params, stored(workload.ideal_config())))
            elif scenario is Scenario.SW:
                runs.append(run_sw(loop, params, stored(workload.sw_config()),
                                   serial_result=serial))
            else:
                runs.append(run_hw(loop, params, stored(workload.hw_config()),
                                   serial_result=serial))
        n = len(runs)
        avg_breakdown = TimeBreakdown()
        for r in runs:
            avg_breakdown.add(r.breakdown.scaled(1.0 / n))
        results[scenario] = ScenarioAverages(
            scenario=scenario,
            wall=sum(r.wall for r in runs) / n,
            breakdown=avg_breakdown,
            executions=n,
            failures=sum(0 if r.passed else 1 for r in runs),
            runs=runs,
        )
    return WorkloadResults(
        workload=workload.name, num_processors=procs, scenarios=results
    )
