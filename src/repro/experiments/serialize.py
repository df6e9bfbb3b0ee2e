"""JSON-friendly serialization of results (for tooling and the CLI).

``run_result_to_dict`` / ``run_result_from_dict`` round-trip a
``RunResult`` through plain JSON types — the storage format of the run
ledger (``repro.obs.ledger``), whose cache-read path must hand back a
bit-identical result.  JSON floats round-trip exactly (``repr`` is the
shortest round-trip representation), so every cycle count and phase
time survives unchanged.  Live objects that cannot be reconstructed
(monitor violations, forensic reports) serialize one-way: ``from_dict``
restores them as ``None``, which is why the ledger refuses to *serve*
runs recorded under monitors.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Sequence

from ..errors import SpeculationFailure
from ..lrpd.analysis import ArrayAnalysis, LRPDOutcome
from ..memsys.system import MemStats
from ..obs.provenance import RunProvenance
from ..runtime.driver import RunResult
from ..sim.stats import TimeBreakdown
from ..types import Scenario
from .figures import (Fig11Row, Fig12Row, Fig13Row, Fig14Row, Table1Row,
                      Table2Row, Table3Row)
from .scenarios import WorkloadResults


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Flatten a RunResult into plain JSON types."""
    out: Dict[str, Any] = {
        "scenario": result.scenario.value,
        "loop": result.loop_name,
        "num_processors": result.num_processors,
        "passed": result.passed,
        "wall_cycles": result.wall,
        "breakdown": result.breakdown.as_dict(),
        "phases": dict(result.phases),
        "spec_messages": result.spec_messages,
    }
    if result.provenance is not None:
        out["provenance"] = result.provenance.as_dict()
    if result.metrics is not None:
        out["metrics"] = result.metrics
    if result.failure is not None:
        out["failure"] = {
            "reason": result.failure.reason,
            "element": list(result.failure.element) if result.failure.element else None,
            "detected_at": result.failure.detected_at,
            "processor": result.failure.processor,
            "iteration": result.failure.iteration,
        }
    if result.detection_cycle is not None:
        out["detection_cycle"] = result.detection_cycle
    if result.mem is not None:
        out["mem"] = dataclasses.asdict(result.mem)
    if result.assignment is not None:
        out["assignment"] = [list(its) for its in result.assignment]
    if result.violations is not None:
        out["violations"] = [v.to_dict() for v in result.violations]
    if result.monitor_events is not None:
        out["monitor_events"] = dict(result.monitor_events)
    if result.forensics is not None:
        out["forensics"] = result.forensics.to_dict()
    if result.lrpd is not None:
        out["lrpd"] = {
            "passed": result.lrpd.passed,
            "failed_array": result.lrpd.failed_array,
            "arrays": {
                name: {
                    "passed": a.passed,
                    "decided_by": a.decided_by,
                    "atw": a.atw,
                    "atm": a.atm,
                }
                for name, a in result.lrpd.arrays.items()
            },
        }
    return out


def _revive_metrics(metrics: Any) -> Any:
    """Undo JSON's key stringification inside a metrics snapshot.

    ``MetricsRegistry.as_dict()`` keys histogram buckets by int; JSON
    turns those into strings.  Reviving them keeps a ledger-served
    result bit-identical to the freshly simulated one even when
    telemetry stamped metrics into it.
    """
    if not isinstance(metrics, dict):
        return metrics
    for series in (metrics.get("histograms") or {}).values():
        for hist in series.values():
            buckets = hist.get("buckets")
            if isinstance(buckets, dict):
                hist["buckets"] = {int(k): v for k, v in buckets.items()}
    return metrics


def run_result_from_dict(doc: Dict[str, Any]) -> RunResult:
    """Rebuild a ``RunResult`` from :func:`run_result_to_dict` output.

    Inverse up to the one-way fields: ``violations``/``forensics`` come
    back as ``None`` (their live types hold event history and machine
    references that plain JSON cannot carry).  Everything else —
    provenance, failure attribution, LRPD outcome, memory counters,
    realized assignment, monitor coverage — reconstructs exactly.
    """
    failure = None
    if "failure" in doc:
        f = doc["failure"]
        failure = SpeculationFailure(
            f["reason"],
            element=tuple(f["element"]) if f.get("element") else None,
            detected_at=f.get("detected_at"),
            iteration=f.get("iteration"),
            processor=f.get("processor"),
        )
    lrpd = None
    if "lrpd" in doc:
        l = doc["lrpd"]
        lrpd = LRPDOutcome(
            passed=l["passed"],
            arrays={
                name: ArrayAnalysis(
                    name=name,
                    passed=a["passed"],
                    decided_by=a["decided_by"],
                    atw=a["atw"],
                    atm=a["atm"],
                )
                for name, a in l["arrays"].items()
            },
            failed_array=l.get("failed_array"),
        )
    return RunResult(
        scenario=Scenario(doc["scenario"]),
        loop_name=doc["loop"],
        num_processors=doc["num_processors"],
        passed=doc["passed"],
        wall=doc["wall_cycles"],
        breakdown=TimeBreakdown(**doc["breakdown"]),
        phases=dict(doc["phases"]),
        failure=failure,
        detection_cycle=doc.get("detection_cycle"),
        lrpd=lrpd,
        spec_messages=doc.get("spec_messages", 0),
        mem=MemStats(**doc["mem"]) if "mem" in doc else None,
        provenance=(
            RunProvenance(**doc["provenance"]) if "provenance" in doc else None
        ),
        metrics=_revive_metrics(doc.get("metrics")),
        assignment=(
            [list(its) for its in doc["assignment"]]
            if "assignment" in doc
            else None
        ),
        monitor_events=(
            dict(doc["monitor_events"]) if "monitor_events" in doc else None
        ),
    )


def workload_results_to_dict(results: WorkloadResults) -> Dict[str, Any]:
    return {
        "workload": results.workload,
        "num_processors": results.num_processors,
        "scenarios": {
            scenario.value: {
                "wall_cycles": avg.wall,
                "speedup": results.speedup(scenario),
                "breakdown_vs_serial": results.normalized_breakdown(scenario).as_dict(),
                "executions": avg.executions,
                "failures": avg.failures,
            }
            for scenario, avg in results.scenarios.items()
        },
    }


def rows_to_json(rows: Sequence[object], indent: int = 2) -> str:
    """Serialize figure/table rows (dataclasses) to a JSON array."""
    out: List[Dict[str, Any]] = []
    for row in rows:
        if isinstance(row, Fig11Row):
            out.append(
                {
                    "workload": row.workload,
                    "num_processors": row.num_processors,
                    "ideal": row.ideal,
                    "sw": row.sw,
                    "hw": row.hw,
                }
            )
        elif isinstance(row, (Fig12Row, Fig13Row)):
            d = dataclasses.asdict(row)
            d["scenario"] = row.scenario.value
            if isinstance(row, Fig13Row):
                d["breakdown"] = row.breakdown.as_dict()
            out.append(d)
        elif isinstance(row, (Fig14Row, Table1Row, Table2Row, Table3Row)):
            out.append(dataclasses.asdict(row))
        else:
            raise TypeError(f"cannot serialize row type {type(row).__name__}")
    return json.dumps(out, indent=indent)
