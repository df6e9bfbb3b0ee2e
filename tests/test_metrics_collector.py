"""The memoized metrics collector and the bus route table.

``MetricsCollector`` keeps the live counter/histogram of each per-event
series in a memo and resolves arrays through a page cache; the bus
delivers each event along one precomputed route.  These tests hold the
collector to the straightforward per-event code it replaced (kept here
as :class:`ReferenceCollector`), byte for byte, and pin the memo's
behaviour across ``Telemetry.clear()``.
"""

import dataclasses
import json

import pytest

from repro.address import AddressSpace
from repro.experiments import figures
from repro.memsys.cache import HitLevel
from repro.obs import (
    AccessEvent,
    EventBus,
    MetricsCollector,
    MonitorSuite,
    PhaseBeginEvent,
    ProtocolMessageEvent,
    Telemetry,
)
from repro.params import default_params
from repro.runtime.driver import run_hw, run_ideal, run_serial, run_sw
from repro.types import AccessKind
from repro.workloads import AdmWorkload


class ReferenceCollector(MetricsCollector):
    """The per-event collector code the memoized one replaced: every
    event resolves its array with ``AddressSpace.find`` and goes through
    the registry's labeled get-or-create."""

    def _array_of(self, addr: int) -> str:
        if self.space is None:
            return "<unknown>"
        decl = self.space.find(addr)
        return decl.name if decl is not None else "<unknown>"

    def _on_access(self, e: AccessEvent) -> None:
        array = self._array_of(e.addr)
        self.registry.counter(
            "mem.accesses",
            phase=self.phase,
            proc=e.proc,
            array=array,
            kind=e.kind.value,
            level=e.level.value,
        ).inc()
        self.registry.histogram(
            "mem.stall_cycles", phase=self.phase, array=array
        ).observe(max(0, e.latency - 1))

    def _on_message(self, e: ProtocolMessageEvent) -> None:
        self.registry.counter(
            "spec.messages",
            phase=self.phase,
            label=e.label,
            array=e.array,
            proc=e.proc,
        ).inc()

    def _on_dir(self, e) -> None:
        self.registry.counter(
            "dir.transitions", phase=self.phase, node=e.node, to=e.new.value
        ).inc()


def _adm():
    workload = AdmWorkload(seed=7, scale=0.25)
    return workload, next(workload.executions(1))


def _dumps(registry):
    """Both registry views as JSON text, insertion order preserved."""
    return json.dumps(registry.as_dict()), json.dumps(registry.snapshot())


# ----------------------------------------------------------------------
class TestReferenceEquality:
    def test_registry_json_matches_reference_byte_for_byte(self):
        """Both collectors on the bus Telemetry and MonitorSuite share:
        after every run (HW PASS, HW FAIL, SW) the two registries'
        ``as_dict()`` and ``snapshot()`` JSON are identical, including
        the order of metric names and of series within each name."""
        telemetry = Telemetry()
        reference = ReferenceCollector().subscribe(telemetry.bus)
        suite = MonitorSuite()

        def track_space(machine):
            reference.space = machine.space

        workload, loop = _adm()
        failing, hw_fail, _ = figures._forced_failure_loop("Adm", "quick", 2026)
        params = default_params(4)
        runs = [
            (run_hw, loop, workload.hw_config()),
            (run_hw, failing, hw_fail),
            (run_sw, loop, workload.sw_config()),
            (run_hw, loop, workload.hw_config()),
        ]
        verdicts = []
        for run, run_loop, config in runs:
            config = dataclasses.replace(
                config, telemetry=telemetry, monitors=suite,
                machine_hook=track_space,
            )
            result = run(run_loop, params, config)
            verdicts.append(result.passed)
            assert result.violations == []
            assert _dumps(telemetry.registry) == _dumps(reference.registry)
        assert verdicts == [True, False, True, True]
        names = telemetry.registry.names()
        assert {"mem.accesses", "mem.stall_cycles", "spec.messages",
                "dir.transitions"} <= set(names)


# ----------------------------------------------------------------------
class TestClearGuard:
    @pytest.mark.parametrize("scenario", ["Serial", "Ideal", "SW", "HW"])
    def test_counts_after_clear_match_memstats(self, scenario):
        """A run after ``Telemetry.clear()`` lands in the registry's new
        series, not in objects the clear dropped: its totals equal the
        run's own memory-system counters."""
        workload, loop = _adm()
        run, config = {
            "Serial": (run_serial, workload.hw_config()),
            "Ideal": (run_ideal, workload.hw_config()),
            "SW": (run_sw, workload.sw_config()),
            "HW": (run_hw, workload.hw_config()),
        }[scenario]
        telemetry = Telemetry()
        config = dataclasses.replace(config, telemetry=telemetry)
        params = default_params(4)
        run(loop, params, config)
        telemetry.clear()
        result = run(loop, params, config)
        assert result.passed
        reg, mem = telemetry.registry, result.mem
        assert reg.total("mem.accesses") == mem.accesses > 0
        assert reg.total("mem.accesses", level="l1") == mem.l1_hits
        assert reg.total("mem.accesses", level="l2") == mem.l2_hits
        assert result.metrics == reg.as_dict()


# ----------------------------------------------------------------------
class TestArrayResolution:
    def _feed(self, collector, bus, addrs):
        for addr in addrs:
            bus.emit(AccessEvent(0.0, 0, AccessKind.READ, addr, HitLevel.L1, 1))
        return {
            labels["array"]: metric.value
            for labels, metric in collector.registry.series("mem.accesses")
        }

    def test_labels_equal_find_across_pages(self):
        """Page-granular resolution agrees with ``AddressSpace.find``
        on every 4-byte address of eight pages: array interiors, a
        page's unallocated tail, the unused page 0 and pages past the
        last array."""
        space = AddressSpace(num_nodes=2, page_bytes=256)
        space.allocate("A", 40, elem_bytes=8)   # 320 bytes: 1.25 pages
        space.allocate("B", 1, elem_bytes=4)    # a 4-byte array
        space.allocate("C", 64, elem_bytes=8)   # two full pages
        bus = EventBus()
        collector = MetricsCollector(space=space).subscribe(bus)
        reference = ReferenceCollector(space=space).subscribe(bus)
        addrs = list(range(0, 8 * 256, 4)) * 2
        assert self._feed(collector, bus, addrs) == self._feed(reference, bus, [])
        assert _dumps(collector.registry) == _dumps(reference.registry)
        counts = self._feed(collector, bus, [])
        assert set(counts) == {"A", "B", "C", "<unknown>"}

    def test_later_allocation_claims_an_unknown_page(self):
        space = AddressSpace(num_nodes=2, page_bytes=256)
        space.allocate("A", 8, elem_bytes=8)
        bus = EventBus()
        collector = MetricsCollector(space=space).subscribe(bus)
        beyond = 2 * 256
        assert self._feed(collector, bus, [beyond]) == {"<unknown>": 1}
        decl = space.allocate("B", 8, elem_bytes=8)
        assert decl.base == beyond
        assert self._feed(collector, bus, [beyond]) == {"<unknown>": 1, "B": 1}

    def test_new_space_resets_the_page_cache(self):
        first = AddressSpace(num_nodes=1, page_bytes=256)
        first.allocate("A", 8, elem_bytes=8)
        second = AddressSpace(num_nodes=1, page_bytes=256)
        second.allocate("Z", 8, elem_bytes=8)
        bus = EventBus()
        collector = MetricsCollector(space=first).subscribe(bus)
        self._feed(collector, bus, [256])
        collector.space = second
        assert self._feed(collector, bus, [256]) == {"A": 1, "Z": 1}

    def test_no_space_labels_unknown(self):
        bus = EventBus()
        collector = MetricsCollector().subscribe(bus)
        assert self._feed(collector, bus, [64, 4096]) == {"<unknown>": 2}


# ----------------------------------------------------------------------
class TestRoutes:
    def test_exact_subscribers_then_catch_all_in_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(None, lambda e: seen.append("all-1"))
        bus.subscribe(PhaseBeginEvent, lambda e: seen.append("exact-1"))
        bus.subscribe(None, lambda e: seen.append("all-2"))
        bus.subscribe(PhaseBeginEvent, lambda e: seen.append("exact-2"))
        bus.emit(PhaseBeginEvent(0.0, "loop"))
        assert seen == ["exact-1", "exact-2", "all-1", "all-2"]
        seen.clear()
        bus.emit(AccessEvent(0.0, 0, AccessKind.READ, 64, HitLevel.L1, 1))
        assert seen == ["all-1", "all-2"]

    def test_routes_follow_unsubscribe(self):
        bus = EventBus()
        seen = []
        exact = bus.subscribe(PhaseBeginEvent, lambda e: seen.append("exact"))
        catch_all = bus.subscribe(None, lambda e: seen.append("all"))
        bus.unsubscribe(None, catch_all)
        bus.emit(PhaseBeginEvent(0.0, "a"))
        bus.unsubscribe(PhaseBeginEvent, exact)
        bus.emit(PhaseBeginEvent(1.0, "b"))
        assert seen == ["exact"]
        assert not bus.active

    def test_subscriber_exception_propagates_and_stops_delivery(self):
        bus = EventBus()
        seen = []

        def broken(event):
            raise RuntimeError("broken subscriber")

        bus.subscribe(PhaseBeginEvent, broken)
        bus.subscribe(None, seen.append)
        with pytest.raises(RuntimeError, match="broken subscriber"):
            bus.emit(PhaseBeginEvent(0.0, "loop"))
        assert seen == []
