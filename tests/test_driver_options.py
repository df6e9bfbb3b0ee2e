"""Tests for the runtime driver's configuration options."""

import pytest

from repro.params import MachineParams
from repro.runtime import (
    RunConfig,
    SchedulePolicy,
    ScheduleSpec,
    VirtualMode,
    run_hw,
    run_serial,
    run_sw,
)
from repro.trace import ArraySpec, Loop, compute, read, write
from repro.types import ProtocolKind
from repro.workloads.synthetic import (
    failing_loop,
    parallel_nonpriv_loop,
    privatizable_loop,
)

PARAMS = MachineParams(num_processors=4)
STATIC = ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.CHUNK)
ITER = ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.ITERATION)


def sparse_write_loop(elements=8_192, iterations=32):
    """Writes only a handful of elements of a big array."""
    body = []
    for i in range(iterations):
        j = (i * 257) % elements
        body.append([read("A", j), compute(50), write("A", j)])
    return Loop("sparse-w", [ArraySpec("A", elements, 8, ProtocolKind.NONPRIV)], body)


def rico_loop(iterations=16):
    """Reads-first precede all writes per element: parallel only with
    read-in/copy-out support (Figure 3 patterns)."""
    body = []
    for i in range(iterations):
        e = i % 4
        if i < 4:
            body.append([read("W", e), compute(30)])          # read-first
        else:
            body.append([write("W", e), compute(30), read("W", e)])
    return Loop("rico", [ArraySpec("W", 64, 8, ProtocolKind.PRIV)], body)


class TestSparseBackup:
    def test_sparse_backup_cheaper_for_sparse_writes(self):
        loop = sparse_write_loop()
        dense = run_hw(loop, PARAMS, RunConfig(schedule=STATIC))
        sparse = run_hw(
            loop, PARAMS, RunConfig(schedule=STATIC, sparse_backup=True)
        )
        assert dense.passed and sparse.passed
        assert sparse.phases["backup"] < dense.phases["backup"]

    def test_sparse_backup_same_outcome(self):
        loop = sparse_write_loop()
        for sparse in (False, True):
            r = run_hw(loop, PARAMS, RunConfig(schedule=STATIC, sparse_backup=sparse))
            assert r.passed


class TestSwReadIn:
    def test_rico_loop_needs_awmin(self):
        loop = rico_loop()
        # Iteration-wise SW without Awmin fails...
        base = run_sw(loop, PARAMS, RunConfig(schedule=ITER))
        assert not base.passed
        # ...and passes with the §2.2.3 extension.
        extended = run_sw(loop, PARAMS, RunConfig(schedule=ITER, sw_read_in=True))
        assert extended.passed
        assert extended.lrpd.arrays["W"].decided_by == "read-in-copy-out"

    def test_hw_priv_also_accepts_rico_loop(self):
        loop = rico_loop()
        # Iteration-granularity blocks so reads-first and writes land on
        # different processors.
        cfg = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, 1, VirtualMode.CHUNK)
        )
        r = run_hw(loop, PARAMS, cfg)
        assert r.passed

    def test_awmin_shadow_costs_extra_time(self):
        # The extra shadow array must be zeroed, marked and merged.
        loop = sparse_write_loop()
        base = run_sw(loop, PARAMS, RunConfig(schedule=ITER))
        extended = run_sw(loop, PARAMS, RunConfig(schedule=ITER, sw_read_in=True))
        assert extended.wall > base.wall


class TestMemStats:
    def test_stats_attached(self):
        loop = sparse_write_loop()
        serial = run_serial(loop, PARAMS)
        hw = run_hw(loop, PARAMS, RunConfig(schedule=STATIC), serial_result=serial)
        assert serial.mem is not None and serial.mem.accesses > 0
        assert hw.mem is not None
        # Serial has everything local: no remote misses at all.
        assert serial.mem.remote_2hop == 0 and serial.mem.remote_3hop == 0
        assert hw.mem.remote_2hop > 0

    def test_hit_counts_consistent(self):
        loop = sparse_write_loop()
        r = run_serial(loop, PARAMS)
        s = r.mem
        assert s.l1_hits + s.l2_hits + s.misses == s.accesses


class TestBatchAlias:
    """``engine="batch"`` names the scalar path: the end-to-end
    benchmark still runs it and requires scalar's full signature."""

    @pytest.mark.parametrize("make_loop", [
        lambda: parallel_nonpriv_loop("alias-nonpriv", elements=256, iterations=16),
        lambda: privatizable_loop("alias-priv", elements=32, iterations=16,
                                  simple=False),
        lambda: failing_loop(8, "alias-fail", elements=256, iterations=16),
    ], ids=["nonpriv", "priv", "forced-fail"])
    def test_batch_result_signature_equals_scalar(self, make_loop):
        from repro.testing.diffcheck import result_signature

        loop = make_loop()
        scalar = run_hw(loop, PARAMS, RunConfig(schedule=STATIC))
        batch = run_hw(loop, PARAMS, RunConfig(engine="batch", schedule=STATIC))
        assert result_signature(batch) == result_signature(scalar)
        assert scalar.passed is (loop.name != "alias-fail")
