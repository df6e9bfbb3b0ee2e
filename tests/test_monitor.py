"""Tests for the online protocol invariant monitors."""

import pytest

from repro.obs import EventBus, MonitorSuite
from repro.obs.events import (
    DirTransitionEvent,
    NonPrivDirUpdateEvent,
    PrivDirUpdateEvent,
    PrivSimpleDirUpdateEvent,
)
from repro.obs.monitor import (
    CoherenceMonitor,
    InvariantViolation,
    NonPrivMonitor,
    PrivMonitor,
    PrivSimpleMonitor,
)
from repro.params import MachineParams, small_test_params
from repro.runtime.driver import RunConfig, run_hw
from repro.types import AccessKind, DirState
from repro.workloads.synthetic import (
    failing_loop,
    parallel_nonpriv_loop,
    privatizable_loop,
)

PARAMS = small_test_params(4)
NO_PROC = -1


def nonpriv_update(index=0, proc=0, cause="read-req", prev=(NO_PROC, False, False),
                   new=(0, False, False), time=1.0):
    return NonPrivDirUpdateEvent(
        time, "A", index, proc, cause,
        prev[0], prev[1], prev[2], new[0], new[1], new[2],
    )


def priv_update(index=0, proc=0, iteration=1, cause="read-first",
                prev=(0, None), new=(1, None), time=1.0):
    return PrivDirUpdateEvent(
        time, "W", index, proc, iteration, cause, prev[0], prev[1], new[0], new[1]
    )


class TestCleanRuns:
    @pytest.mark.parametrize(
        "loop",
        [
            parallel_nonpriv_loop("mon-clean-np", elements=256, iterations=24),
            privatizable_loop("mon-clean-p", elements=64, iterations=24, simple=False),
            privatizable_loop("mon-clean-ps", elements=64, iterations=24, simple=True),
        ],
        ids=["nonpriv", "priv", "priv-simple"],
    )
    def test_zero_violations(self, loop):
        suite = MonitorSuite()
        result = run_hw(loop, PARAMS, RunConfig(monitors=suite))
        assert result.passed
        assert result.violations == []
        assert result.forensics is None

    def test_monitors_observe_events(self):
        suite = MonitorSuite()
        loop = parallel_nonpriv_loop("mon-seen", elements=256, iterations=24)
        run_hw(loop, PARAMS, RunConfig(monitors=suite))
        nonpriv = suite.monitors[0]
        assert nonpriv.name == "nonpriv"
        assert nonpriv.events_seen > 0

    def test_failing_run_collects_no_false_violations(self):
        from repro.runtime.schedule import SchedulePolicy, ScheduleSpec, VirtualMode

        suite = MonitorSuite()
        loop = failing_loop(fail_at_iteration=10, elements=256, iterations=24)
        # Single-iteration chunks: the dependent pair spans processors.
        config = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 1, VirtualMode.CHUNK),
            monitors=suite,
        )
        result = run_hw(loop, PARAMS, config)
        assert not result.passed
        assert result.violations == []

    def test_suite_reusable_across_runs(self):
        suite = MonitorSuite()
        config = RunConfig(monitors=suite)
        loop = parallel_nonpriv_loop("mon-reuse", elements=256, iterations=24)
        first = run_hw(loop, PARAMS, config)
        second = run_hw(loop, PARAMS, config)
        assert first.violations == [] and second.violations == []


class TestCorruptedDirectory:
    def test_mid_run_corruption_trips_continuity(self):
        """Clearing a directory entry behind the protocol's back is
        caught when the next update starts from the impossible state."""
        # Four iterations all read A[0]: First is set once, then the
        # element turns read-only -- two updates for the same element.
        from repro.trace.loop import ArraySpec, Loop
        from repro.trace.ops import compute, read
        from repro.types import ProtocolKind
        from repro.runtime.schedule import (
            SchedulePolicy,
            ScheduleSpec,
            VirtualMode,
        )

        loop = Loop(
            "mon-corrupt",
            [ArraySpec("A", 8, 8, ProtocolKind.NONPRIV, modified=False)],
            [[read("A", 0), compute(50)] for _ in range(4)],
        )
        suite = MonitorSuite()
        corrupted = []

        def corrupt(machine):
            def on_update(event):
                if not corrupted:
                    corrupted.append(event)
                    # rewind First behind the protocol's back (the table
                    # exists by now: updates only flow inside the loop)
                    machine.spec.nonpriv.table("A").first[0] = NO_PROC

            machine.bus.subscribe(NonPrivDirUpdateEvent, on_update)

        config = RunConfig(
            schedule=ScheduleSpec(
                SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.ITERATION
            ),
            monitors=suite,
            machine_hook=corrupt,
        )
        result = run_hw(loop, PARAMS, config)
        assert result.passed  # reads only: the corruption is benign
        assert corrupted
        violations = [
            v for v in result.violations if v.invariant == "state-continuity"
        ]
        assert violations, result.violations
        v = violations[0]
        assert v.monitor == "nonpriv"
        assert "mutated outside the protocol" in str(v)
        assert v.event is not None and v.event.array == "A"

    def test_first_reassignment(self):
        monitor = NonPrivMonitor()
        bus = EventBus()
        monitor.subscribe(bus)
        bus.emit(nonpriv_update(new=(0, False, False)))
        bus.emit(nonpriv_update(prev=(0, False, False), new=(2, True, False),
                                cause="write-req", proc=2, time=2.0))
        assert [v.invariant for v in monitor.violations] == ["first-stability"]
        assert "P0 -> P2" in monitor.violations[0].detail

    def test_sticky_bits(self):
        monitor = NonPrivMonitor()
        bus = EventBus()
        monitor.subscribe(bus)
        bus.emit(nonpriv_update(new=(0, True, False), cause="write-req"))
        bus.emit(nonpriv_update(prev=(0, True, False), new=(0, False, False),
                                cause="writeback", time=2.0))
        assert [v.invariant for v in monitor.violations] == ["priv-sticky"]

    def test_history_window_captured(self):
        monitor = NonPrivMonitor(history=2)
        bus = EventBus()
        monitor.subscribe(bus)
        for i in range(3):
            bus.emit(nonpriv_update(index=i, new=(0, False, False), time=i))
        bus.emit(nonpriv_update(index=0, prev=(1, False, False),
                                new=(1, True, False), time=9.0))
        (v,) = monitor.violations
        assert v.invariant == "state-continuity"
        assert len(v.history) == 2  # bounded window
        assert v.to_dict()["event"]["event"] == "nonpriv-dir-update"

    def test_strict_mode_raises(self):
        monitor = NonPrivMonitor(strict=True)
        bus = EventBus()
        monitor.subscribe(bus)
        bus.emit(nonpriv_update(new=(0, True, False), cause="write-req"))
        with pytest.raises(InvariantViolation, match="priv-sticky"):
            bus.emit(
                nonpriv_update(prev=(0, True, False), new=(0, False, False),
                               time=2.0)
            )


class TestPrivInvariants:
    def test_max_r1st_must_not_decrease(self):
        monitor = PrivMonitor()
        bus = EventBus()
        monitor.subscribe(bus)
        bus.emit(priv_update(new=(5, None)))
        bus.emit(priv_update(prev=(5, None), new=(3, None), time=2.0))
        assert [v.invariant for v in monitor.violations] == ["max-r1st-monotone"]

    def test_min_w_must_not_increase(self):
        monitor = PrivMonitor()
        bus = EventBus()
        monitor.subscribe(bus)
        bus.emit(priv_update(cause="first-write", new=(0, 4)))
        bus.emit(priv_update(cause="first-write", prev=(0, 4), new=(0, 7),
                             time=2.0))
        assert [v.invariant for v in monitor.violations] == ["min-w-monotone"]

    def test_overlap_requires_fail(self):
        monitor = PrivMonitor()
        bus = EventBus()
        monitor.subscribe(bus)
        bus.emit(priv_update(cause="first-write", new=(0, 4)))
        bus.emit(priv_update(cause="read-first", prev=(0, 4), new=(6, 4),
                             iteration=6, time=2.0))
        assert [v.invariant for v in monitor.violations] == ["fail-iff-overlap"]


class TestPrivSimpleInvariants:
    def test_sticky_and_fail_on_both(self):
        monitor = PrivSimpleMonitor()
        bus = EventBus()
        monitor.subscribe(bus)
        bus.emit(
            PrivSimpleDirUpdateEvent(
                1.0, "W", 0, 0, 1, "read-first", False, False, True, False
            )
        )
        bus.emit(
            PrivSimpleDirUpdateEvent(
                2.0, "W", 0, 1, 2, "write", True, False, True, True
            )
        )
        assert monitor.violations == []
        monitor.finish(failed=False)  # both bits set but no FAIL: bug
        assert [v.invariant for v in monitor.violations] == ["fail-on-both"]

    def test_no_violation_when_failed(self):
        monitor = PrivSimpleMonitor()
        bus = EventBus()
        monitor.subscribe(bus)
        bus.emit(
            PrivSimpleDirUpdateEvent(
                1.0, "W", 0, 0, 1, "write", True, False, True, True
            )
        )
        monitor.finish(failed=True)
        assert monitor.violations == []


class TestCoherenceMonitor:
    def test_illegal_transition(self):
        monitor = CoherenceMonitor()
        bus = EventBus()
        monitor.subscribe(bus)
        bus.emit(
            DirTransitionEvent(
                1.0, 0, 0x100, DirState.UNCACHED, DirState.SHARED,
                proc=0, kind=AccessKind.READ,
            )
        )
        assert monitor.violations == []
        bus.emit(
            DirTransitionEvent(
                2.0, 0, 0x140, DirState.UNCACHED, DirState.SHARED,
                proc=0, kind=AccessKind.WRITE,
            )
        )
        assert [v.invariant for v in monitor.violations] == ["legal-transition"]
        assert "UNCACHED -> SHARED" in monitor.violations[0].detail


class TestNullPath:
    def test_no_monitors_means_no_spec_flag(self):
        from repro.sim.machine import Machine

        machine = Machine(PARAMS, with_speculation=True)
        assert machine.bus is None

    def test_wants_spec_tracks_subscriptions(self):
        bus = EventBus()
        assert not bus.wants_spec
        monitor = PrivMonitor()
        monitor.subscribe(bus)
        assert bus.wants_spec
        monitor.unsubscribe(bus)
        assert not bus.wants_spec


class TestCoverage:
    """Each run reports how many events its monitors actually checked."""

    LOOP = parallel_nonpriv_loop("mon-coverage", elements=256, iterations=24)

    def test_result_carries_per_run_counts(self):
        suite = MonitorSuite()
        config = RunConfig(monitors=suite)
        first = run_hw(self.LOOP, PARAMS, config)
        second = run_hw(self.LOOP, PARAMS, config)
        fresh = run_hw(self.LOOP, PARAMS, RunConfig(monitors=MonitorSuite()))
        assert set(first.monitor_events) == {
            "nonpriv", "priv", "priv-simple", "coherence"
        }
        assert first.monitor_events["nonpriv"] > 0
        assert first.monitor_events["coherence"] > 0
        # Counted per run, not since the suite was built.
        assert second.monitor_events == first.monitor_events
        assert fresh.monitor_events == first.monitor_events
        assert suite.monitors[0].events_seen == first.monitor_events["nonpriv"]

    def test_unmonitored_run_has_no_counts(self):
        assert run_hw(self.LOOP, PARAMS).monitor_events is None

    def test_counts_round_trip_and_stay_out_of_signatures(self):
        import json

        from repro.experiments.serialize import (
            run_result_from_dict,
            run_result_to_dict,
        )
        from repro.testing.diffcheck import result_signature

        monitored = run_hw(self.LOOP, PARAMS, RunConfig(monitors=MonitorSuite()))
        bare = run_hw(self.LOOP, PARAMS)
        doc = json.loads(json.dumps(run_result_to_dict(monitored)))
        assert run_result_from_dict(doc).monitor_events == monitored.monitor_events
        del doc["monitor_events"]  # a record written before the field existed
        assert run_result_from_dict(doc).monitor_events is None
        assert "monitor_events" not in run_result_to_dict(bare)
        assert result_signature(monitored) == result_signature(bare)
        assert "monitor_events" not in monitored.provenance.as_dict()

    def test_doctor_flags_monitors_that_saw_nothing(self, monkeypatch):
        from repro.experiments.doctor import run_doctor
        from repro.obs.monitor import Monitor
        from repro.obs.events import FailureEvent, RunStartEvent

        def blind_subscribe(self, bus):
            # Lifecycle events only: nothing is routed to check().
            bus.subscribe(RunStartEvent, self._on_run_start)
            bus.subscribe(FailureEvent, self._on_failure)
            return self

        monkeypatch.setattr(Monitor, "subscribe", blind_subscribe)
        report = run_doctor(iterations=8, num_processors=2)
        assert "doctor: OK" not in report
        assert "doctor-nonpriv: the monitors checked zero events" in report
