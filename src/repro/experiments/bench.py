"""The ``bench`` subcommand: simulator-throughput regression harness.

Measures host wall-clock time of one representative speculative run
across the full engine x instrumentation matrix — both execution
tiers (``scalar``, the reference; ``vector``, the whole-phase numpy
kernel tier) under three instrumentation levels: bare (no bus attached), telemetry (full
event recording) and monitors (invariant monitors + forensics
recorder).  Every matrix cell runs under the same static-chunk
schedule so the scalar/vector columns compare like for like.
Repetitions are interleaved so host-load drift hits every cell
equally, and the result is a machine-readable JSON document::

    {
      "benchmark": "simulator-throughput",
      "workload": {...},
      "reps": 7,
      "engines": {
        "scalar": {"bare": {"best_s": ..., "iters_per_s": ...},
                   "telemetry": {"best_s": ..., "overhead_pct": ...},
                   "monitors":  {"best_s": ..., "overhead_pct": ...}},
        "vector": {...}
      },
      "bare": {...}, "telemetry": {...}, "monitors": {...},   # scalar
      "provenance": {"config_hash": ..., "code_version": ...}
    }

There are no failing-run or dynamic-schedule rows: the vector tier
delegates those runs to scalar, so they would time scalar twice.

The top-level ``bare``/``telemetry``/``monitors`` keys mirror the
scalar engine for continuity with the PR3-era document shape.  The CI
perf job runs this, diffs ``iters_per_s`` per cell against the
committed baseline (``BENCH_PR10.json``) and warns — non-gating — on a
>15% drop; the hard <3% telemetry-off gate lives in
``benchmarks/bench_simulator_throughput.py`` and is unaffected.

With ``jobs > 1`` the matrix cells fan out across worker processes
(one task per cell, every repetition timed *inside* its worker, GC
paused there too).  Parallel cells contend for the host's cores, so
absolute numbers are noisier than the default interleaved serial
measurement — use ``jobs=1`` (the default) for baseline documents.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Callable, Dict, List, Tuple

from ..obs import MonitorSuite, Telemetry
from ..params import small_test_params
from ..runtime.driver import RunConfig, run_hw
from ..runtime.schedule import SchedulePolicy, ScheduleSpec
from ..workloads.synthetic import parallel_nonpriv_loop
from .pool import PoolTask, run_tasks

BENCH_ITERATIONS = 48
BENCH_ELEMENTS = 1024
BENCH_PROCESSORS = 4
ENGINES = ("scalar", "vector")
LEVELS = ("bare", "telemetry", "monitors")


def _bench_config(engine: str, **extra) -> RunConfig:
    # Static-chunk for every matrix cell: the vector tier delegates
    # dynamic schedules to scalar, so only a static schedule compares
    # the two tiers.
    return RunConfig(
        engine=engine,
        schedule=ScheduleSpec(policy=SchedulePolicy.STATIC_CHUNK),
        **extra,
    )


def _measure(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _make_bench_workload():
    loop = parallel_nonpriv_loop(
        "bench-throughput", elements=BENCH_ELEMENTS, iterations=BENCH_ITERATIONS
    )
    return loop, small_test_params(BENCH_PROCESSORS)


def _run_cell(engine: str, level: str, loop, params) -> None:
    if level == "bare":
        run_hw(loop, params, _bench_config(engine))
    elif level == "telemetry":
        run_hw(loop, params, _bench_config(engine, telemetry=Telemetry()))
    else:
        result = run_hw(
            loop, params, _bench_config(engine, monitors=MonitorSuite())
        )
        assert result.violations == []


def _bench_cell_times(engine: str, level: str, reps: int) -> List[float]:
    """Pool task: warm up and time one matrix cell, wholly in-worker."""
    loop, params = _make_bench_workload()
    _run_cell(engine, level, loop, params)  # warmup, not measured
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        return [
            _measure(lambda: _run_cell(engine, level, loop, params))
            for _ in range(reps)
        ]
    finally:
        if was_enabled:
            gc.enable()


def run_bench(
    out: str = "BENCH_PR10.json",
    reps: int = 7,
    jobs: int = 1,
    profile=None,
    ledger=None,
) -> str:
    """Measure the matrix and write ``out``.

    ``profile`` (a ``repro.obs.spans.ProfileSession``) routes every cell
    through the pool with per-task capture — even at ``jobs=1`` — so a
    merged trace shows where each cell's wall time goes.  Profiled cells
    carry the capture's event-bus overhead; never use a profiled run to
    regenerate a committed baseline document.

    ``ledger`` (a ``repro.obs.RunLedger``) archives the finished
    document as one bench history point — the timeline behind
    ``repro ledger trend`` and ``benchdiff --from-ledger``.
    """
    loop, params = _make_bench_workload()
    cells: List[Tuple[str, str]] = [
        (engine, level) for engine in ENGINES for level in LEVELS
    ]
    if (jobs is not None and jobs != 1) or profile is not None:
        outputs = run_tasks(
            [
                PoolTask(_bench_cell_times, cell + (reps,),
                         label=f"bench:{cell[0]}/{cell[1]}")
                for cell in cells
            ],
            jobs=jobs,
            profile=profile,
        )
        times = dict(zip(cells, outputs))
    else:
        times = {cell: [] for cell in cells}
        for engine, level in cells:  # warmup round, not measured
            _run_cell(engine, level, loop, params)
        # Collector pauses land randomly inside the short timed runs and
        # dominate rep-to-rep variance; pause collection while measuring
        # (the simulator allocates heavily but builds no cycles).
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            # Repetitions interleave across cells so host-load drift
            # hits every cell equally.
            for _ in range(reps):
                for engine, level in cells:
                    times[(engine, level)].append(
                        _measure(lambda: _run_cell(engine, level, loop, params))
                    )
        finally:
            if was_enabled:
                gc.enable()

    best = {cell: min(ts) for cell, ts in times.items()}

    def _cell_doc(engine: str, level: str) -> Dict[str, float]:
        cell = {"best_s": best[(engine, level)]}
        if level == "bare":
            cell["iters_per_s"] = BENCH_ITERATIONS / best[(engine, level)]
        else:
            cell["overhead_pct"] = 100.0 * (
                best[(engine, level)] / best[(engine, "bare")] - 1.0
            )
        return cell

    engines_doc = {
        engine: {level: _cell_doc(engine, level) for level in LEVELS}
        for engine in ENGINES
    }
    provenance = run_hw(loop, params, _bench_config("scalar")).provenance
    doc = {
        "benchmark": "simulator-throughput",
        "workload": {
            "loop": loop.name,
            "iterations": BENCH_ITERATIONS,
            "elements": BENCH_ELEMENTS,
            "num_processors": BENCH_PROCESSORS,
        },
        "reps": reps,
        "engines": engines_doc,
        # Scalar-engine mirror of the PR3-era top-level shape.
        "bare": engines_doc["scalar"]["bare"],
        "telemetry": engines_doc["scalar"]["telemetry"],
        "monitors": engines_doc["scalar"]["monitors"],
        "provenance": provenance.as_dict() if provenance is not None else None,
    }
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    lines = [
        f"bench: {loop.name} on {BENCH_PROCESSORS} procs, best of {reps}",
    ]
    for engine in ENGINES:
        e = engines_doc[engine]
        lines.append(
            f"  {engine:6s} bare: {e['bare']['best_s'] * 1e3:8.1f} ms "
            f"({e['bare']['iters_per_s']:,.0f} loop iterations/s)  "
            f"telemetry {e['telemetry']['overhead_pct']:+.1f}%  "
            f"monitors {e['monitors']['overhead_pct']:+.1f}%"
        )
    lines.append(
        "  bare speedup: "
        f"vector/scalar {best[('scalar', 'bare')] / best[('vector', 'bare')]:.2f}x"
    )
    if ledger is not None:
        key, deduped = ledger.record_bench(doc, label=out)
        lines.append(
            f"archived as ledger record {key[:12]}"
            + (" (already present)" if deduped else "")
        )
    lines.append(f"wrote {out}")
    return "\n".join(lines)
