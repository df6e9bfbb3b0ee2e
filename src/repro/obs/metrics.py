"""Metrics registry: labeled counters and histograms over the event bus.

The registry is the aggregation layer of the telemetry stack: raw
events flow on the bus, the :class:`MetricsCollector` folds them into
counters/histograms keyed by labels (phase × array × processor for
accesses, label × array for protocol messages, ...), and reports read
the registry instead of re-scanning event logs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..types import AccessKind
from .bus import EventBus
from .events import (
    AccessEvent,
    BarrierWaitEvent,
    DirTransitionEvent,
    FailureEvent,
    PhaseBeginEvent,
    PhaseEndEvent,
    ProtocolMessageEvent,
)

__all__ = ["Counter", "Histogram", "MetricsRegistry", "MetricsCollector"]

LabelKey = Tuple[Tuple[str, Any], ...]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> int:
        """Plain picklable state (round-trips through :meth:`merge`)."""
        return self.value

    def merge(self, snap: int) -> None:
        """Fold a :meth:`snapshot` from another process into this one."""
        self.value += snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


class Histogram:
    """A streaming histogram with power-of-two buckets.

    Tracks count / total / min / max exactly; the distribution is kept
    as counts per ``2^k`` bucket (bucket k holds values in
    ``[2^k, 2^(k+1))``; values < 1 land in bucket 0).
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = int(value).bit_length() - 1 if value >= 1 else 0
        buckets = self.buckets
        buckets[bucket] = buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": dict(sorted(self.buckets.items())),
        }

    def snapshot(self) -> Dict[str, Any]:
        """Plain picklable state (round-trips through :meth:`merge`)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": dict(self.buckets),
        }

    def merge(self, snap: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another process into this one."""
        self.count += snap["count"]
        self.total += snap["total"]
        if snap["min"] is not None and snap["min"] < self.min:
            self.min = snap["min"]
        if snap["max"] is not None and snap["max"] > self.max:
            self.max = snap["max"]
        for bucket, n in snap["buckets"].items():
            bucket = int(bucket)
            self.buckets[bucket] = self.buckets.get(bucket, 0) + n


def _key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Get-or-create store of labeled counters and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Dict[LabelKey, Counter]] = {}
        self._histograms: Dict[str, Dict[LabelKey, Histogram]] = {}
        self._memos: Dict[str, Dict[tuple, Any]] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        series = self._counters.setdefault(name, {})
        key = _key(labels)
        metric = series.get(key)
        if metric is None:
            metric = series[key] = Counter()
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        series = self._histograms.setdefault(name, {})
        key = _key(labels)
        metric = series.get(key)
        if metric is None:
            metric = series[key] = Histogram()
        return metric

    # ------------------------------------------------------------------
    def value(self, name: str, **labels: Any) -> int:
        """Current value of a counter (0 when it never incremented)."""
        series = self._counters.get(name, {})
        metric = series.get(_key(labels))
        return metric.value if metric is not None else 0

    def total(self, name: str, **labels: Any) -> int:
        """Sum of every counter series of ``name`` whose labels contain
        the given ones (e.g. ``total("mem.accesses", proc=0)``)."""
        want = set(labels.items())
        out = 0
        for key, metric in self._counters.get(name, {}).items():
            if want <= set(key):
                out += metric.value
        return out

    def series(self, name: str) -> Iterator[Tuple[Dict[str, Any], Any]]:
        """Iterate ``(labels, metric)`` for one metric name."""
        for key, metric in self._counters.get(name, {}).items():
            yield dict(key), metric
        for key, metric in self._histograms.get(name, {}).items():
            yield dict(key), metric

    def names(self) -> List[str]:
        return sorted(set(self._counters) | set(self._histograms))

    def memo(self, name: str) -> Dict[tuple, Any]:
        """A cache of ``name``'s live series, keyed by whatever raw label
        tuple the caller builds.  :meth:`clear` empties every memo in
        place, so a holder never increments a series the registry has
        dropped."""
        return self._memos.setdefault(name, {})

    def clear(self) -> None:
        self._counters.clear()
        self._histograms.clear()
        for memo in self._memos.values():
            memo.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Full registry state as plain picklable data.

        Unlike :meth:`as_dict` (which flattens labels to display
        strings), the snapshot preserves label structure so it can be
        merged back into a live registry in another process:
        ``{"counters": {name: [[[k, v], ...], value], ...}, ...}``.
        """
        return {
            "counters": {
                name: [
                    [[list(pair) for pair in key], c.snapshot()]
                    for key, c in series.items()
                ]
                for name, series in self._counters.items()
            },
            "histograms": {
                name: [
                    [[list(pair) for pair in key], h.snapshot()]
                    for key, h in series.items()
                ]
                for name, series in self._histograms.items()
            },
        }

    def merge(self, snap: Dict[str, Any]) -> "MetricsRegistry":
        """Fold a :meth:`snapshot` (e.g. from a pool worker) into this
        registry, get-or-creating each labeled series."""
        for name, entries in snap.get("counters", {}).items():
            for key, value in entries:
                self.counter(name, **{k: v for k, v in key}).merge(value)
        for name, entries in snap.get("histograms", {}).items():
            for key, state in entries:
                self.histogram(name, **{k: v for k, v in key}).merge(state)
        return self

    @classmethod
    def from_snapshot(cls, snap: Dict[str, Any]) -> "MetricsRegistry":
        return cls().merge(snap)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Snapshot every metric as plain JSON-friendly types.  Label
        sets are rendered as ``k=v,k=v`` strings for stable keys."""

        def label_str(key: LabelKey) -> str:
            return ",".join(f"{k}={v}" for k, v in key) or "_total"

        return {
            "counters": {
                name: {label_str(k): c.value for k, c in series.items()}
                for name, series in sorted(self._counters.items())
            },
            "histograms": {
                name: {label_str(k): h.as_dict() for k, h in series.items()}
                for name, series in sorted(self._histograms.items())
            },
        }


#: array label of an address outside every allocated array
UNKNOWN_ARRAY = "<unknown>"


class MetricsCollector:
    """Bus subscriber that populates a :class:`MetricsRegistry`.

    Aggregations (labels in parentheses):

    * ``mem.accesses`` (phase, proc, array, kind, level) — every access;
    * ``mem.stall_cycles`` histogram (phase, array) — per-access latency;
    * ``spec.messages`` (phase, label, array, proc) — protocol messages;
    * ``dir.transitions`` (phase, node, to) — directory state changes;
    * ``sync.barrier_wait`` histogram (phase, proc) — barrier waits;
    * ``phase.cycles`` (phase) — total cycles per phase name;
    * ``spec.failures`` (reason) — FAILed protocol checks.

    ``space`` (an :class:`~repro.address.AddressSpace`) resolves access
    addresses to array names; unset, arrays are labeled ``<unknown>``.

    The four per-event series keep a memo of their live metric objects
    (:meth:`MetricsRegistry.memo`) keyed by a plain tuple of the raw
    labels, so an event costs one dict probe and an increment; the
    registry's labeled get-or-create runs once per new series.  An
    access's labels also fix its ``mem.stall_cycles`` series, so one
    memo entry holds both.  Enum labels enter the key as their
    ``_value_`` string: the ``.value`` the labels carry, read without
    the enum descriptor and hashed in C rather than through
    ``Enum.__hash__``.

    Array names come from a page -> (name, end) cache, reset whenever
    ``space`` is set.  ``AddressSpace.allocate`` starts every array on a
    fresh page, so the only array that can hold an address is the one
    holding its page's first byte, and the address belongs to it exactly
    when it lies below that array's end: the answer
    ``AddressSpace.find`` gives.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        space=None,
    ) -> None:
        self.registry = registry or MetricsRegistry()
        self.space = space
        self.phase = ""
        self._accesses = self.registry.memo("mem.accesses")
        self._messages = self.registry.memo("spec.messages")
        self._transitions = self.registry.memo("dir.transitions")

    @property
    def space(self):
        return self._space

    @space.setter
    def space(self, space) -> None:
        self._space = space
        self._page_bytes = space.page_bytes if space is not None else 1
        self._pages: Dict[int, Tuple[str, int]] = {}

    # ------------------------------------------------------------------
    def subscribe(self, bus: EventBus) -> "MetricsCollector":
        bus.subscribe(AccessEvent, self._on_access)
        bus.subscribe(ProtocolMessageEvent, self._on_message)
        bus.subscribe(DirTransitionEvent, self._on_dir)
        bus.subscribe(BarrierWaitEvent, self._on_barrier)
        bus.subscribe(PhaseBeginEvent, self._on_phase_begin)
        bus.subscribe(PhaseEndEvent, self._on_phase_end)
        bus.subscribe(FailureEvent, self._on_failure)
        return self

    # ------------------------------------------------------------------
    def _page_entry(self, page: int) -> Tuple[str, int]:
        """``(name, end)`` of the array that may hold addresses of
        ``page``; ``end`` 0 labels the whole page ``<unknown>``."""
        space = self._space
        decl = space.find(page * self._page_bytes) if space is not None else None
        if decl is None:
            # Past every array (or no space): a later allocation may
            # still claim the page, so the answer is not cached.
            return UNKNOWN_ARRAY, 0
        entry = self._pages[page] = (decl.name, decl.end)
        return entry

    def _on_access(self, e: AccessEvent) -> None:
        addr = e.addr
        page = addr // self._page_bytes
        entry = self._pages.get(page)
        if entry is None:
            entry = self._page_entry(page)
        array = entry[0] if addr < entry[1] else UNKNOWN_ARRAY
        phase = self.phase
        key = (phase, e.proc, array, e.kind._value_, e.level._value_)
        series = self._accesses.get(key)
        if series is None:
            # Counter first, then histogram: the registry's get-or-create
            # order, hence its series order, is that of one call each
            # per event.
            series = self._accesses[key] = (
                self.registry.counter(
                    "mem.accesses",
                    phase=phase, proc=key[1], array=array, kind=key[3],
                    level=key[4],
                ),
                self.registry.histogram(
                    "mem.stall_cycles", phase=phase, array=array
                ),
            )
        series[0].value += 1
        latency = e.latency
        series[1].observe(latency - 1 if latency > 1 else 0)

    def _on_message(self, e: ProtocolMessageEvent) -> None:
        key = (self.phase, e.label, e.array, e.proc)
        counter = self._messages.get(key)
        if counter is None:
            counter = self._messages[key] = self.registry.counter(
                "spec.messages",
                phase=key[0], label=e.label, array=e.array, proc=e.proc,
            )
        counter.value += 1

    def _on_dir(self, e: DirTransitionEvent) -> None:
        key = (self.phase, e.node, e.new._value_)
        counter = self._transitions.get(key)
        if counter is None:
            counter = self._transitions[key] = self.registry.counter(
                "dir.transitions", phase=key[0], node=e.node, to=key[2]
            )
        counter.value += 1

    def _on_barrier(self, e: BarrierWaitEvent) -> None:
        self.registry.histogram(
            "sync.barrier_wait", phase=self.phase, proc=e.proc
        ).observe(e.wait_cycles)

    def _on_phase_begin(self, e: PhaseBeginEvent) -> None:
        self.phase = e.phase

    def _on_phase_end(self, e: PhaseEndEvent) -> None:
        self.registry.counter("phase.cycles", phase=e.phase).inc(
            int(e.duration)
        )
        self.phase = ""

    def _on_failure(self, e: FailureEvent) -> None:
        self.registry.counter("spec.failures", reason=e.reason).inc()
