"""End-to-end race coverage under every engine name.

The machine-level protocol tests (test_nonpriv_protocol.py) drive the
memory system directly, which bypasses the processor op loop and the
vector tier.  These tests rebuild the two subtlest non-privatization
interleavings as *scheduled loops* so every engine executes them
through ``run_hw``:

* a dirty line evicted while a ``First_update`` is still in flight
  (the victim writeback must merge tag state without tripping a
  spurious FAIL, and the late update must still land correctly);
* a tag-local write on a dirty line that escapes every directory check
  and is only revealed by the loop-end dirty-line commit sweep.

Each scenario asserts the protocol outcome *and* that the vector tier
agrees with scalar on the verdict signature (pass/fail, failure
attribution, detection cycle, assignment).  ``batch`` is an alias for
scalar and runs the same parametrized outcome checks.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs import spans
from repro.obs.spans import SpanProfiler
from repro.params import ContentionModel, small_test_params
from repro.runtime import vector as vector_tier
from repro.runtime.driver import RunConfig, run_hw, run_serial
from repro.runtime.schedule import SchedulePolicy, ScheduleSpec, VirtualMode
from repro.testing.diffcheck import (
    conformance_signature,
    result_signature,
    verdict_signature,
)
from repro.trace.loop import ArraySpec, Loop
from repro.trace.ops import compute, read, write
from repro.types import ProtocolKind
from repro.workloads.synthetic import failing_loop

ENGINES = ["scalar", "batch", "vector"]

# small_test_params: 64-byte lines (8 elements of 8 bytes), 64 L2 lines,
# so element index 512 conflicts with element 0 in the L2.
ELEMS_PER_LINE = 8
L2_CONFLICT_STRIDE = 64 * ELEMS_PER_LINE


def _run(loop: Loop, engine: str, procs: int = 2):
    captured = []
    config = RunConfig(
        engine=engine,
        schedule=ScheduleSpec(
            policy=SchedulePolicy.STATIC_CHUNK,
            chunk_iterations=1,
            virtual_mode=VirtualMode.ITERATION,
        ),
        machine_hook=captured.append,
    )
    result = run_hw(loop, small_test_params(procs), config)
    return result, captured[0]


def _all_engines(loop: Loop):
    """Run on scalar and vector and assert they agree on the verdict
    projection."""
    (scalar_result, scalar_machine) = _run(loop, "scalar")
    (vector_result, vector_machine) = _run(loop, "vector")
    scalar_sig = conformance_signature(scalar_result, scalar_machine)
    vector_sig = conformance_signature(vector_result, vector_machine)
    assert verdict_signature(vector_sig) == verdict_signature(scalar_sig)
    return scalar_result, scalar_machine


def _dirty_eviction_loop() -> Loop:
    # One iteration, all on P0: fill the line clean (read e2), clean-hit
    # read of e1 puts a First_update in flight, the write of e0 takes
    # the line dirty, and the conflicting write of e512 evicts it —
    # a dirty victim writeback racing the still-in-flight update.
    body = [
        [read("A", 2), read("A", 1), write("A", 0), write("A", L2_CONFLICT_STRIDE)]
    ]
    return Loop(
        "evict-race",
        [ArraySpec("A", L2_CONFLICT_STRIDE + ELEMS_PER_LINE, 8, ProtocolKind.NONPRIV)],
        body,
    )


def _clean_eviction_loop() -> Loop:
    # Same shape but the victim line stays clean: the eviction is a
    # clean drop while the First_update is in flight.
    body = [[read("A", 2), read("A", 1), read("A", L2_CONFLICT_STRIDE)]]
    return Loop(
        "evict-race-clean",
        [ArraySpec("A", L2_CONFLICT_STRIDE + ELEMS_PER_LINE, 8, ProtocolKind.NONPRIV)],
        body,
    )


def _commit_hole_loop() -> Loop:
    # P0 clean-hit reads e1 (First_update in flight); P1 takes the line
    # dirty via e0 before the update lands, then writes e1 as a dirty
    # L1 hit — tag-local, no message, invisible to every directory
    # check.  Only the loop-end dirty-line commit reveals it.  The
    # compute pad times P1's writes into the update's flight window.
    body = [
        [read("A", 2), read("A", 1)],
        [compute(20), write("A", 0), write("A", 1)],
    ]
    return Loop("commit-hole", [ArraySpec("A", 64, 8, ProtocolKind.NONPRIV)], body)


@pytest.mark.parametrize("engine", ENGINES)
class TestEvictionRacingFirstUpdate:
    def test_dirty_victim_writeback_merges_without_spurious_fail(self, engine):
        result, machine = _run(_dirty_eviction_loop(), engine)
        assert result.passed
        table = machine.spec.nonpriv.table("A")
        # The evicted dirty line's write state reached the directory...
        assert bool(table.priv[0])
        # ...and the late First_update still recorded P0 as first reader.
        assert int(table.first[1]) == 0
        # The conflicting line was itself committed at loop end.
        assert bool(table.priv[L2_CONFLICT_STRIDE])

    def test_clean_drop_with_update_in_flight(self, engine):
        result, machine = _run(_clean_eviction_loop(), engine)
        assert result.passed
        table = machine.spec.nonpriv.table("A")
        assert int(table.first[1]) == 0
        assert not bool(table.priv[1])

    def test_engines_agree_on_eviction_races(self, engine):
        # engine param unused: the point is the explicit cross-check.
        if engine != ENGINES[0]:
            pytest.skip("cross-check runs once")
        _all_engines(_dirty_eviction_loop())
        _all_engines(_clean_eviction_loop())


@pytest.mark.parametrize("engine", ENGINES)
class TestLoopEndDirtyLineCommit:
    def test_commit_reveals_tag_local_write(self, engine):
        result, _ = _run(_commit_hole_loop(), engine)
        assert not result.passed
        failure = result.failure
        assert failure.element == ("A", 1)
        assert failure.processor == 1
        assert "writeback reveals" in failure.reason

    def test_engines_agree_on_commit_verdict(self, engine):
        if engine != ENGINES[0]:
            pytest.skip("cross-check runs once")
        result, _ = _all_engines(_commit_hole_loop())
        assert not result.passed


# ----------------------------------------------------------------------
# Exact FAIL attribution through the vector tier's delegation to scalar
# ----------------------------------------------------------------------
def _flow_dep_loop(protocol: ProtocolKind) -> Loop:
    """Every iteration reads A[5] before writing it, so *any* split of
    the four iterations across two processors FAILs: two processors
    touch a written element (the non-privatization test) and a read
    happens first in an iteration later than a write (the privatization
    tests).  Robust to the emergent dynamic grab order."""
    body = [
        [read("A", 5), compute(10), write("A", 5)] for _ in range(4)
    ]
    return Loop(f"flow-dep-{protocol.value}", [ArraySpec("A", 16, 8, protocol)], body)


def _attribution(result):
    failure = result.failure
    return (
        failure.reason,
        failure.element,
        failure.iteration,
        failure.processor,
        result.detection_cycle,
    )


@pytest.mark.parametrize(
    "protocol",
    [ProtocolKind.NONPRIV, ProtocolKind.PRIV, ProtocolKind.PRIV_SIMPLE],
)
class TestVectorFailAttribution:
    """A vector FAIL must carry scalar's exact attribution — reason,
    element, iteration, processor, detection cycle.  The tier gets it by
    handing the whole run to scalar once: ``kernel-fail`` on a static
    schedule, ``dynamic-schedule`` on a dynamic one (the spans prove
    which path ran)."""

    def _run_vector_delegations(self, loop, params, config):
        """``(result, delegate reasons)`` of one profiled vector run,
        which must delegate before the vector tier builds a machine."""

        def no_machine(*args, **kwargs):
            raise AssertionError("vector tier built a machine for a FAIL")

        prof = SpanProfiler()
        spans.install(prof)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(vector_tier, "Machine", no_machine)
                result = run_hw(
                    loop, params, dataclasses.replace(config, engine="vector")
                )
        finally:
            spans.uninstall()
        reasons = [
            s["args"]["reason"] for s in prof.spans
            if s["name"] == "vector.delegate"
        ]
        return result, reasons

    def test_static_fail_attribution_matches_scalar(self, protocol):
        loop = _flow_dep_loop(protocol)
        config = RunConfig(
            engine="scalar",
            schedule=ScheduleSpec(
                policy=SchedulePolicy.STATIC_CHUNK,
                chunk_iterations=1,
                virtual_mode=VirtualMode.ITERATION,
            ),
        )
        scalar = run_hw(loop, small_test_params(2), config)
        assert not scalar.passed
        assert scalar.failure.element == ("A", 5)
        vector, reasons = self._run_vector_delegations(
            loop, small_test_params(2), config
        )
        assert not vector.passed
        assert _attribution(vector) == _attribution(scalar)
        assert vector.assignment == scalar.assignment
        assert reasons == ["kernel-fail"]

    def test_dynamic_nocontention_fail_attribution_matches_scalar(self, protocol):
        loop = _flow_dep_loop(protocol)
        params = dataclasses.replace(
            small_test_params(2), contention=ContentionModel(enabled=False)
        )
        config = RunConfig(
            engine="scalar",
            schedule=ScheduleSpec(policy=SchedulePolicy.DYNAMIC,
                                  chunk_iterations=1),
        )
        scalar = run_hw(loop, params, config)
        assert not scalar.passed
        vector, reasons = self._run_vector_delegations(loop, params, config)
        assert not vector.passed
        assert _attribution(vector) == _attribution(scalar)
        # The emergent (aborted) grab order is part of the attribution.
        assert vector.assignment == scalar.assignment
        # Only the event loop knows the grab order: one wholesale
        # delegation, even on a contention-free machine.
        assert reasons == ["dynamic-schedule"]


@pytest.mark.parametrize("with_serial", [False, True])
def test_vector_static_fail_is_a_scalar_run(with_serial):
    """Regression: a static-schedule vector FAIL run without a
    ``serial_result`` used to cost the serial re-execution with an
    estimate that never entered the breakdown, so Busy+Sync+Mem (34,640
    cycles) fell short of the wall clock (58,395).  The run is now a
    scalar run, so the whole result equals scalar's."""
    loop = failing_loop(24, elements=1024, iterations=48)
    params = small_test_params(4)
    config = RunConfig(schedule=ScheduleSpec(policy=SchedulePolicy.STATIC_CHUNK))
    serial = run_serial(loop, params) if with_serial else None
    scalar = run_hw(loop, params, config, serial)
    vector_run = run_hw(
        loop, params, dataclasses.replace(config, engine="vector"), serial
    )
    assert not vector_run.passed
    b = vector_run.breakdown
    assert b.busy + b.sync + b.mem == vector_run.wall
    assert result_signature(vector_run) == result_signature(scalar)
