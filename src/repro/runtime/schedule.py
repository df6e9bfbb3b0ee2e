"""Iteration scheduling policies (paper §2.2.3 and §4.1).

Three policies are modeled:

* **static chunking** — the iteration space is split into one chunk of
  contiguous iterations per processor.  Required by the processor-wise
  software test; may cause load imbalance (the paper's Track example).
* **block-cyclic** — contiguous blocks of ``chunk_iterations`` dealt to
  processors round-robin, statically.
* **dynamic self-scheduling** — processors grab the next block of
  ``chunk_iterations`` from a shared counter (simulated as a mutex-
  protected queue, so grab order follows simulated time).

Each assigned iteration also carries a *virtual* iteration number — the
number the speculation protocols see.  ``ITERATION`` numbering gives
the iteration-wise test; ``CHUNK`` numbering makes each block a
super-iteration (§4.1's block scheduling optimization); ``PROCESSOR``
numbering (static chunking only) gives the processor-wise test.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator, List, Optional, Tuple

from ..errors import SchedulingError


class SchedulePolicy(enum.Enum):
    STATIC_CHUNK = "static-chunk"
    BLOCK_CYCLIC = "block-cyclic"
    DYNAMIC = "dynamic"


class VirtualMode(enum.Enum):
    """How iterations are numbered for the dependence test."""

    ITERATION = "iteration"
    CHUNK = "chunk"
    PROCESSOR = "processor"


@dataclasses.dataclass(frozen=True)
class ScheduleSpec:
    """A scheduling policy plus its parameters."""

    policy: SchedulePolicy = SchedulePolicy.DYNAMIC
    chunk_iterations: int = 4
    virtual_mode: VirtualMode = VirtualMode.CHUNK

    def __post_init__(self) -> None:
        if self.chunk_iterations < 1:
            raise SchedulingError("chunk_iterations must be >= 1")
        if (
            self.virtual_mode is VirtualMode.PROCESSOR
            and self.policy is not SchedulePolicy.STATIC_CHUNK
        ):
            raise SchedulingError(
                "processor-wise numbering requires static chunk scheduling "
                "(paper §2.2.3)"
            )


@dataclasses.dataclass(frozen=True)
class Block:
    """A contiguous block of iterations (1-based, inclusive)."""

    first: int
    last: int
    ordinal: int  # 1-based block number in iteration order

    def iterations(self) -> Iterator[int]:
        return iter(range(self.first, self.last + 1))

    def __len__(self) -> int:
        return self.last - self.first + 1


def static_chunks(num_iterations: int, num_procs: int) -> List[Block]:
    """One contiguous chunk per processor (earlier chunks get the
    remainder), in processor order."""
    base = num_iterations // num_procs
    rem = num_iterations % num_procs
    blocks: List[Block] = []
    start = 1
    for p in range(num_procs):
        size = base + (1 if p < rem else 0)
        if size == 0:
            continue
        blocks.append(Block(start, start + size - 1, p + 1))
        start += size
    return blocks


def cyclic_blocks(num_iterations: int, chunk: int) -> List[Block]:
    blocks: List[Block] = []
    ordinal = 1
    start = 1
    while start <= num_iterations:
        end = min(start + chunk - 1, num_iterations)
        blocks.append(Block(start, end, ordinal))
        ordinal += 1
        start = end + 1
    return blocks


class ChunkQueue:
    """Shared work queue for dynamic self-scheduling.

    ``pop`` is called by a processor's op generator right after it
    acquired the scheduler mutex, so pops happen in simulated-time
    order and the block-to-processor mapping emerges from the timing —
    exactly how a fetch&add self-scheduled loop behaves.
    """

    def __init__(self, blocks: List[Block]) -> None:
        self._blocks = list(blocks)
        self._next = 0
        self.grab_log: List[Tuple[int, int]] = []  # (ordinal, proc)

    def pop(self, proc: int) -> Optional[Block]:
        if self._next >= len(self._blocks):
            return None
        block = self._blocks[self._next]
        self._next += 1
        self.grab_log.append((block.ordinal, proc))
        return block

    @property
    def remaining(self) -> int:
        return len(self._blocks) - self._next

    def assignment(self, num_procs: int) -> List[List[int]]:
        """The realized per-processor iteration lists (1-based, in grab
        order) — the ground truth any value-level commit must replay."""
        by_ordinal = {b.ordinal: b for b in self._blocks}
        per_proc: List[List[int]] = [[] for _ in range(num_procs)]
        for ordinal, proc in self.grab_log:
            per_proc[proc].extend(by_ordinal[ordinal].iterations())
        return per_proc

    def per_proc_blocks(self, num_procs: int) -> List[List[Block]]:
        """The realized per-processor block lists, in grab order."""
        by_ordinal = {b.ordinal: b for b in self._blocks}
        per_proc: List[List[Block]] = [[] for _ in range(num_procs)]
        for ordinal, proc in self.grab_log:
            per_proc[proc].append(by_ordinal[ordinal])
        return per_proc


def virtual_of(block: Block, iteration: int, mode: VirtualMode, proc: int) -> int:
    """The virtual iteration number the dependence test sees."""
    if mode is VirtualMode.ITERATION:
        return iteration
    if mode is VirtualMode.CHUNK:
        return block.ordinal
    return proc + 1


def plan_static(
    spec: ScheduleSpec, num_iterations: int, num_procs: int
) -> List[List[Block]]:
    """Per-processor block lists for the static policies."""
    if spec.policy is SchedulePolicy.STATIC_CHUNK:
        per_proc: List[List[Block]] = [[] for _ in range(num_procs)]
        for p, block in enumerate(static_chunks(num_iterations, num_procs)):
            per_proc[p] = [block]
        return per_proc
    if spec.policy is SchedulePolicy.BLOCK_CYCLIC:
        per_proc = [[] for _ in range(num_procs)]
        for i, block in enumerate(cyclic_blocks(num_iterations, spec.chunk_iterations)):
            per_proc[i % num_procs].append(block)
        return per_proc
    raise SchedulingError(f"{spec.policy} is not a static policy")


def static_assignment(
    spec: ScheduleSpec, num_iterations: int, num_procs: int
) -> List[List[int]]:
    """Per-processor iteration lists (1-based) for the static policies."""
    return [
        [it for block in blocks for it in block.iterations()]
        for blocks in plan_static(spec, num_iterations, num_procs)
    ]


# ----------------------------------------------------------------------
# Dynamic-schedule assignment replay (the vector tier's fast path)
# ----------------------------------------------------------------------
class _ReplayController:
    """Always-armed, never-failed controller stand-in: the replay only
    resolves addresses, it never runs the dependence test."""

    armed = True
    failed = False
    failure = None


class _ReplayResolver:
    """Duck-typed stand-in for the :class:`SpeculationEngine` on the
    replay scratch machine.

    Implements exactly the surface the processor loop touches —
    ``controller``, ``resolve`` and ``set_iteration`` — reproducing the
    armed comparator's address redirections (privatized accesses to
    per-processor copies, PRIV_SIMPLE reads routed private only after
    this processor wrote the element) without any protocol state or
    messages.
    """

    def __init__(self, space, loop, params) -> None:
        from ..types import ProtocolKind

        self.controller = _ReplayController()
        self._space = space
        self._priv: dict = {}
        self._priv_simple: dict = {}
        self._shared: dict = {}
        self._written: dict = {}
        num = params.num_processors
        for spec in loop.arrays_under_test():
            if spec.protocol is ProtocolKind.NONPRIV:
                continue
            from .executor import private_copy_name

            privs = [
                space.array(private_copy_name(spec.name, p)) for p in range(num)
            ]
            self._shared[spec.name] = space.array(spec.name)
            if spec.protocol is ProtocolKind.PRIV_SIMPLE:
                self._priv_simple[spec.name] = privs
            else:
                self._priv[spec.name] = privs

    def resolve(self, proc: int, name: str, index: int, kind) -> int:
        from ..types import AccessKind

        privs = self._priv.get(name)
        if privs is not None:
            return privs[proc].addr_of(index)
        privs = self._priv_simple.get(name)
        if privs is not None:
            # The engine's resolve also consults the message-updated
            # write_any bits, but any element they mark was written
            # earlier by this same processor in program order — so the
            # synchronous written set alone decides identically.
            written = self._written.setdefault((name, proc), set())
            if kind is AccessKind.WRITE:
                written.add(index)
                return privs[proc].addr_of(index)
            if index in written:
                return privs[proc].addr_of(index)
            return self._shared[name].addr_of(index)
        return self._space.array(name).addr_of(index)

    def set_iteration(self, proc: int, virtual_iteration: int) -> None:
        pass


def _make_replay_priv_hooks(space, priv_specs, params):
    """Memory-system hooks mirroring the full-privatization protocol's
    only timing contribution: the blocking read-in of Figs 8-(e)/9-(j).

    The real protocol charges a read-in on a private-directory access to
    an untouched line.  "Untouched" is decided by the private table's
    ``pmax`` stamps, which are set synchronously on directory accesses
    and at ``local_msg_delay`` after tag-side cache hits — so the mirror
    tracks, per element, the *earliest effective time* either stamp gets
    set and compares it against the access time.  Recording a hit whose
    real signal was suppressed (tag bits already set) is harmless: the
    suppression implies an earlier stamp already holds an effective time
    at or before it.
    """
    from ..memsys.system import SpeculationHooks
    from ..params import elems_per_line
    from ..types import AccessKind
    from .executor import private_copy_name

    class _ReplayPrivHooks(SpeculationHooks):
        def __init__(self) -> None:
            self._delay = max(1, params.latency.local_mem // 4)
            self._ranges: list = []
            inf = float("inf")
            for spec in priv_specs:
                shared = space.array(spec.name)
                for p in range(params.num_processors):
                    decl = space.array(private_copy_name(spec.name, p))
                    self._ranges.append(
                        [
                            decl.base, decl.end, decl.elem_bytes, decl.length,
                            shared, p,
                            [inf] * decl.length,  # earliest read-first stamp
                            [inf] * decl.length,  # earliest write stamp
                        ]
                    )

        def _locate(self, addr: int):
            for rng in self._ranges:
                if rng[0] <= addr < rng[1]:
                    index = (addr - rng[0]) // rng[2]
                    if index < rng[3]:
                        return rng, index
            return None, 0

        def _read_in_latency(self, shared, index: int, proc: int) -> int:
            lat = params.latency
            home = space.home_node(shared.addr_of(index))
            if home == params.node_of_processor(proc):
                return lat.local_mem
            return lat.remote_2hop

        def _line_untouched(self, rng, line_addr: int, now: float) -> bool:
            base, _, eb, length = rng[0], rng[1], rng[2], rng[3]
            first = max(0, (line_addr - base) // eb)
            span = elems_per_line(params.line_bytes, eb)
            count = max(0, min(span, length - first))
            r_eff, w_eff = rng[6], rng[7]
            for k in range(first, first + count):
                if r_eff[k] <= now or w_eff[k] <= now:
                    return False
            return True

        def on_cache_hit(self, proc, line, addr, kind, now):
            rng, index = self._locate(addr)
            if rng is None:
                return
            eff = now + self._delay
            stamps = rng[6] if kind is AccessKind.READ else rng[7]
            if eff < stamps[index]:
                stamps[index] = eff

        def on_dir_access(self, proc, line_addr, addr, kind, now):
            rng, index = self._locate(addr)
            if rng is None:
                return 0
            extra = 0
            if kind is AccessKind.READ:
                if self._line_untouched(rng, line_addr, now):
                    extra = self._read_in_latency(rng[4], index, rng[5])
                if now < rng[6][index]:
                    rng[6][index] = now
            else:
                w_eff = rng[7]
                if w_eff[index] > now:  # first effective write
                    if self._line_untouched(rng, line_addr, now):
                        extra = self._read_in_latency(rng[4], index, rng[5])
                    w_eff[index] = now
            return extra

    return _ReplayPrivHooks()


def replay_dynamic_assignment(
    loop, params, config, iter_overhead: int
) -> Optional[Tuple[List[List[Block]], List[List[int]]]]:
    """Compute the emergent iteration→processor map of a dynamic
    self-scheduled HW run without running the speculation protocols.

    The dispatcher's grab order is fully determined by the cost model:
    a scratch machine executes the real op streams through the
    real mutex/queue, with a speculation stand-in that reproduces the
    armed comparator's address redirections and (for full-PRIV arrays)
    the protocol's read-in latencies.  Returns ``(per_proc_blocks,
    assignment)``, or ``None`` when a cost-model feature the replay
    cannot reproduce exactly is enabled (directory/L2 contention — the
    protocol's messages then perturb timing — or multi-way caches,
    whose LRU state messages also perturb; time-stamp epochs, which the
    op-by-op engines reject for dynamic schedules anyway), in which
    case the caller must delegate.
    """
    if config.schedule.policy is not SchedulePolicy.DYNAMIC:
        return None
    if config.timestamp_bits is not None:
        return None
    if params.contention.enabled:
        return None
    if params.l1.ways != 1 or params.l2.ways != 1:
        return None

    from ..sim.machine import Machine
    from ..types import ProtocolKind
    from .driver import _backup_streams, _hw_setup
    from .executor import loop_streams
    from ..sim.processor import Mutex

    scratch = Machine(params, with_speculation=False)
    _hw_setup(scratch, loop, params, config)
    if loop.modified_arrays():
        result = scratch.engine.run_phase(
            _backup_streams(scratch, loop, config.sparse_backup),
            start_time=scratch.engine.now,
        )
        scratch.engine.now = result.finish

    scratch.engine.spec = _ReplayResolver(scratch.space, loop, params)
    priv_specs = [
        s for s in loop.arrays_under_test() if s.protocol is ProtocolKind.PRIV
    ]
    if priv_specs:
        scratch.memsys.set_hooks(
            _make_replay_priv_hooks(scratch.space, priv_specs, params)
        )

    queue = ChunkQueue(
        cyclic_blocks(loop.num_iterations, config.schedule.chunk_iterations)
    )
    streams = loop_streams(
        loop, config.schedule, params.num_processors, params.cost,
        iter_overhead=iter_overhead,
        setup_cycles=params.cost.hw_loop_setup_cycles,
        mutex=Mutex(),
        queue=queue,
    )
    scratch.engine.run_phase(
        streams, start_time=scratch.engine.now, abort_on_failure=True
    )
    num = params.num_processors
    return queue.per_proc_blocks(num), queue.assignment(num)
