"""Unified telemetry for the simulator: events, bus, metrics, exports.

Quick start::

    from repro.obs import Telemetry
    from repro.runtime.driver import RunConfig, run_hw

    telemetry = Telemetry()
    results = run_hw(loop, num_processors=8,
                     config=RunConfig(telemetry=telemetry))
    telemetry.write_chrome_trace("trace.json")
    print(telemetry.phase_report())

See ``docs/observability.md`` for the event taxonomy and exporter
details.
"""

from .bus import BoundedLog, EventBus, EventRecorder
from .events import (
    AbortEvent,
    AccessEvent,
    BarrierWaitEvent,
    DirTransitionEvent,
    EpochSyncEvent,
    Event,
    FailureEvent,
    LedgerHitEvent,
    LedgerWriteEvent,
    PhaseBeginEvent,
    PhaseEndEvent,
    PoolEndEvent,
    PoolStartEvent,
    PoolTaskEvent,
    PoolWorkerFailureEvent,
    ProtocolMessageEvent,
    QuiesceEvent,
    RestoreEvent,
    RunEndEvent,
    RunStartEvent,
    SpeculationArmEvent,
)
from .export import (
    chrome_trace,
    event_to_dict,
    merged_chrome_trace,
    phase_report,
    span_trace_events,
    write_chrome_trace,
    write_jsonl,
    write_merged_chrome_trace,
)
from .forensics import ForensicReport, MinimizedReproducer, build_report, element_trace
from .ledger import LEDGER_DIR, RunLedger, as_ledger, ledger_key
from .metrics import Counter, Histogram, MetricsCollector, MetricsRegistry
from .monitor import (
    CoherenceMonitor,
    InvariantViolation,
    Monitor,
    MonitorSuite,
    NonPrivMonitor,
    PrivMonitor,
    PrivSimpleMonitor,
)
from .provenance import RunProvenance, canonical_json, fingerprint, run_provenance
from .spans import ProfileSession, SpanProfiler, WorkerCapture
from .telemetry import Telemetry

__all__ = [
    "Telemetry",
    "EventBus",
    "BoundedLog",
    "EventRecorder",
    "Event",
    "AccessEvent",
    "DirTransitionEvent",
    "ProtocolMessageEvent",
    "SpeculationArmEvent",
    "FailureEvent",
    "BarrierWaitEvent",
    "EpochSyncEvent",
    "QuiesceEvent",
    "RunStartEvent",
    "RunEndEvent",
    "PhaseBeginEvent",
    "PhaseEndEvent",
    "AbortEvent",
    "RestoreEvent",
    "PoolStartEvent",
    "PoolTaskEvent",
    "PoolWorkerFailureEvent",
    "PoolEndEvent",
    "LedgerWriteEvent",
    "LedgerHitEvent",
    "RunLedger",
    "LEDGER_DIR",
    "as_ledger",
    "ledger_key",
    "InvariantViolation",
    "Monitor",
    "MonitorSuite",
    "NonPrivMonitor",
    "PrivMonitor",
    "PrivSimpleMonitor",
    "CoherenceMonitor",
    "ForensicReport",
    "MinimizedReproducer",
    "build_report",
    "element_trace",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "MetricsCollector",
    "RunProvenance",
    "canonical_json",
    "fingerprint",
    "run_provenance",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "event_to_dict",
    "phase_report",
    "span_trace_events",
    "merged_chrome_trace",
    "write_merged_chrome_trace",
    "SpanProfiler",
    "WorkerCapture",
    "ProfileSession",
]
