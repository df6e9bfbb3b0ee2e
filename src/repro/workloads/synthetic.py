"""Parameterized synthetic loops for tests, examples and ablations."""

from __future__ import annotations

import random
from typing import List, Optional

from ..trace.loop import ArraySpec, Loop
from ..trace.ops import AccessOp, compute, read, write
from ..types import ProtocolKind


def parallel_nonpriv_loop(
    name: str = "synthetic-parallel",
    elements: int = 2_048,
    iterations: int = 64,
    work_cycles: int = 40,
    accesses_per_iteration: int = 8,
    seed: int = 7,
) -> Loop:
    """A fully parallel loop: every iteration owns a disjoint slice of a
    permuted index space (the classic ``A(f(i))`` subscripted-subscript
    pattern where ``f`` happens to be a permutation)."""
    rng = random.Random(seed)
    perm = list(range(elements))
    rng.shuffle(perm)
    per = min(accesses_per_iteration, elements // iterations)
    if per < 1:
        raise ValueError("need elements >= iterations")
    body: List[List[object]] = []
    for i in range(iterations):
        ops: List[object] = []
        for k in range(per):
            j = perm[i * per + k]
            ops.append(read("A", j))
            ops.append(compute(work_cycles))
            ops.append(write("A", j))
        body.append(ops)
    return Loop(name, [ArraySpec("A", elements, 8, ProtocolKind.NONPRIV)], body)


def privatizable_loop(
    name: str = "synthetic-priv",
    elements: int = 512,
    iterations: int = 64,
    work_cycles: int = 30,
    scratch_per_iteration: int = 6,
    live_out: bool = False,
    simple: bool = True,
) -> Loop:
    """Every iteration uses the array as scratch (write before read), so
    the loop is a doall only after privatization."""
    protocol = ProtocolKind.PRIV_SIMPLE if simple else ProtocolKind.PRIV
    body: List[List[object]] = []
    for i in range(iterations):
        ops: List[object] = []
        for k in range(scratch_per_iteration):
            slot = k % elements
            ops.append(write("W", slot))
            ops.append(compute(work_cycles))
            ops.append(read("W", slot))
        body.append(ops)
    spec = ArraySpec("W", elements, 8, protocol, live_out=live_out)
    return Loop(name, [spec], body)


def failing_loop(
    fail_at_iteration: int,
    name: str = "synthetic-failing",
    elements: int = 2_048,
    iterations: int = 64,
    work_cycles: int = 40,
    accesses_per_iteration: int = 8,
    seed: int = 7,
) -> Loop:
    """A parallel loop with one cross-iteration flow dependence injected
    between ``fail_at_iteration`` and the next iteration (1-based).

    Used by the failure-detection-latency ablation: the hardware scheme
    should abort roughly when the dependent pair executes, while the
    software scheme always runs the whole loop first.
    """
    if not 1 <= fail_at_iteration < iterations:
        raise ValueError("fail_at_iteration must be in [1, iterations)")
    base = parallel_nonpriv_loop(
        name, elements, iterations, work_cycles, accesses_per_iteration, seed
    )
    # Reuse an element owned by the earlier iteration in the later one.
    body = list(base.iterations)
    src_ops = body[fail_at_iteration - 1]
    victim = next(op for op in src_ops if isinstance(op, AccessOp) and op.is_write)
    body[fail_at_iteration] = [read("A", victim.index), *body[fail_at_iteration]]
    return Loop(name, base.arrays, body)


def partially_parallel_loop(
    dependence_period: int = 4,
    name: str = "synthetic-partial",
    elements: int = 2_048,
    iterations: int = 64,
    work_cycles: int = 40,
    seed: int = 7,
) -> Loop:
    """Adjacent-iteration dependences every ``dependence_period``
    iterations: not a doall iteration-wise, but chunked schedules that
    keep each dependent pair on one processor pass the processor-wise
    tests (the paper's Track situation)."""
    base = parallel_nonpriv_loop(
        name, elements, iterations, work_cycles, 4, seed
    )
    body = list(base.iterations)
    for a in range(0, iterations - 1, dependence_period):
        src_ops = body[a]
        victim = next(op for op in src_ops if isinstance(op, AccessOp) and op.is_write)
        body[a + 1] = [read("A", victim.index), *body[a + 1]]
    return Loop(name, base.arrays, body)
