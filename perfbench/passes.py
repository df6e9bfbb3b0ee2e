"""One cold pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass starts with
empty caches and memos no matter what state a later version of the
simulator keeps per process.  The pass prints one JSON object as the
last line of its standard output:

* ``setup``: the timed pieces of set-up (imports, loop generation,
  serial reference runs, warm-up);
* ``units``: the timed pieces of each unit: one figure or table for
  ``paper-regen``, cut at every ``run_*`` call; one ``run_hw`` call for
  the ``hw-*`` workloads;
* ``runs``: one record per ``run_*`` result the pass received, with its
  simulated counts and its ``result_signature`` digests;
* ``texts``: digests of the rendered figures and tables;
* with ``--mode spans`` or ``--mode profile``, the per-layer trace.

A timed piece is ``[seconds, probe]``.

Usage::

    python3 perfbench/passes.py --workload hw-cold --seed 2026 [--mode bare]
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import heapq
import json
import pickle
import resource
import sys
import time
from pathlib import Path

#: the simulator under test: ``src/`` of the checkout holding this file
SRC = Path(__file__).resolve().parents[1] / "src"

FIGURES = ("fig11", "fig12", "fig13", "fig14", "table1", "table2", "table3")
WORKLOAD_NAMES = ("Ocean", "P3m", "Adm", "Track")
ENGINES = ("scalar", "batch", "vector")
#: repro entry points the experiments layer calls, one per scenario
RUN_FUNCS = {"run_serial": "Serial", "run_ideal": "Ideal", "run_sw": "SW",
             "run_hw": "HW"}
#: the existing spans the vector tier opens (repro.runtime.vector), and
#: the per-layer metric each one's host seconds are reported as
VECTOR_SPANS = {
    "vector.extract": "vector.extract_s",
    "vector.kernels": "vector.kernels_s",
    "vector.schedule_replay": "vector.schedule_replay_s",
    "vector.fail_replay": "vector.fail_replay_s",
    "vector.fill+commit": "vector.fill_commit_s",
    "vector.delegate": "vector.delegate_s",
}


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _probe_kernel() -> None:
    """Fixed pure-Python work: allocation, attribute access, a heap and a
    dict, the operations the simulator's event loop is made of."""
    heap, table = [], {}
    for i in range(2000):
        item = _Item(i * 7 % 1013, i)
        heapq.heappush(heap, (item.key, i))
        table[item.key] = table.get(item.key, 0) + item.value
        if len(heap) > 64:
            heapq.heappop(heap)


class Clock:
    """Times pieces of work together with the interpreter's speed.

    A shared host can run this process at about half speed for seconds
    at a time.  So every piece is bracketed by a speed probe
    (``_probe_kernel``, about 1.7 ms at full speed) and reported as
    ``[seconds, probe]``, the probe being the mean of the two around
    it.  ``run.py`` rescales each piece to a fixed reference probe time.
    Probes run with the profiler and the collector off, outside the
    reported seconds.
    """

    def __init__(self) -> None:
        self.spent = 0.0  # seconds spent inside probes
        self.profiler = None

    def probe(self) -> float:
        if self.profiler is not None:
            self.profiler.disable()
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _probe_kernel()
        dt = time.perf_counter() - t0
        if collecting:
            gc.enable()
        if self.profiler is not None:
            self.profiler.enable()
        self.spent += dt
        return dt

    def piece(self, fn):
        """``(fn(), [seconds, probe])``."""
        before = self.probe()
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        return out, [dt, (before + self.probe()) / 2]

    def setup_piece(self, fn):
        """Like :meth:`piece`, for the short steps that run once per pass:
        a single probe there can land in a slow stretch of a few ms, so
        the probe is the fastest of five taken on each side."""
        before = min(self.probe() for _ in range(5))
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        return out, [dt, min(before, *(self.probe() for _ in range(5)))]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def loop_content_key(loop) -> str:
    """Content of a loop, independent of the object that holds it."""
    body = (loop.name, loop.arrays, loop.iterations,
            getattr(loop, "iteration_weights", None))
    return hashlib.sha1(pickle.dumps(body, protocol=4)).hexdigest()


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class Recorder:
    """Collects every ``run_*`` result a pass receives.

    Results are kept until the enclosing timed unit ends and are only
    then reduced to records, so signature hashing stays outside the
    timed sections."""

    def __init__(self, keys: bool) -> None:
        self.keys = keys
        self.unit = None
        self.pending = []
        self.records = []
        self._content = {}

    def add(self, scenario, args, kwargs, result, piece) -> None:
        loop, params = args[0], args[1]
        config = args[2] if len(args) > 2 else kwargs.get("config")
        serial = args[3] if len(args) > 3 else kwargs.get("serial_result")
        self.pending.append((self.unit, scenario, loop, params, config, serial,
                             result, piece))

    def flush(self) -> None:
        from repro.testing.diffcheck import result_signature, verdict_signature

        for unit, scenario, loop, params, config, serial, res, piece in self.pending:
            sig = result_signature(res)
            mem = res.mem
            serial_mem = serial.mem if serial is not None else None
            observed = config is not None and (
                config.telemetry is not None or config.monitors is not None)
            rec = {
                "unit": unit,
                "scenario": scenario,
                "engine": config.engine if config is not None else "scalar",
                "observed": observed,
                "piece": piece,
                "passed": bool(res.passed),
                "wall": res.wall,
                "busy": res.breakdown.busy,
                "sync": res.breakdown.sync,
                "mem": res.breakdown.mem,
                "accesses": mem.accesses,
                "l1_hits": mem.l1_hits,
                "remote": mem.remote_2hop + mem.remote_3hop,
                "invalidations": mem.invalidations,
                "stall": mem.read_stall_cycles + mem.write_stall_cycles,
                "spec_messages": res.spec_messages,
                "detection": res.detection_cycle or 0.0,
                "shadow": (max(0, mem.accesses - serial_mem.accesses)
                           if scenario == "SW" and serial_mem is not None
                           else 0),
                "full": digest(sig),
                "verdict": digest(verdict_signature(sig)),
                "violations": (len(res.violations)
                               if res.violations is not None else None),
                "forensics": res.forensics is not None,
            }
            if self.keys:
                rec["key"] = self._run_key(scenario, loop, params, config,
                                           observed)
            self.records.append(rec)
        self.pending = []

    def _run_key(self, scenario, loop, params, config, observed) -> str:
        """Distinct (loop content, machine, scenario, config) key; two
        requests with the same key simulate the same thing."""
        content = self._content.get(id(loop))
        if content is None:
            # Holding the loop keeps its id from being reused.
            content = self._content[id(loop)] = (loop, loop_content_key(loop))
        cfg = None
        if config is not None:
            cfg = (config.engine, config.schedule, config.sparse_backup,
                   config.sw_read_in, config.timestamp_bits,
                   config.per_line_bits)
        return digest([scenario, content[1], repr(params), repr(cfg), observed])


def wrap_experiment_runs(recorder: Recorder, clock: Clock) -> None:
    """Time every ``run_*`` call the figure functions make.

    The wrapper replaces the names the ``repro.experiments`` modules
    hold, so calls made inside the runtime layer (the vector tier's
    delegation) are not counted as requests."""
    from repro.runtime import driver

    def wrap(fn, scenario):
        def timed_run(*args, **kwargs):
            res, piece = clock.piece(lambda: fn(*args, **kwargs))
            recorder.add(scenario, args, kwargs, res, piece)
            return res
        return timed_run

    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro.experiments") or mod is None:
            continue
        for fname, scenario in RUN_FUNCS.items():
            original = getattr(driver, fname)
            if getattr(mod, fname, None) is original:
                setattr(mod, fname, wrap(original, scenario))


class LayerTimers:
    """Host seconds of calls into ``Workload.executions`` (the workloads
    layer) and ``obs.ledger.loop_fingerprint`` (spans mode only)."""

    def __init__(self) -> None:
        self.build_s = 0.0
        self.fingerprint_s = 0.0

    def install(self) -> None:
        from repro.obs import ledger
        from repro.workloads.base import Workload

        timers = self
        executions = Workload.executions

        def timed_executions(self, count=None):
            it = executions(self, count)
            while True:
                t0 = time.perf_counter()
                try:
                    loop = next(it)
                except StopIteration:
                    timers.build_s += time.perf_counter() - t0
                    return
                timers.build_s += time.perf_counter() - t0
                yield loop

        Workload.executions = timed_executions
        fingerprint = ledger.loop_fingerprint

        def timed_fingerprint(loop):
            t0 = time.perf_counter()
            try:
                return fingerprint(loop)
            finally:
                timers.fingerprint_s += time.perf_counter() - t0

        ledger.loop_fingerprint = timed_fingerprint


def span_summary(snapshot) -> dict:
    """Counters and per-name host seconds from a SpanProfiler snapshot."""
    counters = dict(snapshot["counters"])
    seconds = {}
    for span in snapshot["spans"]:
        for k, v in span["counters"].items():
            counters[k] = counters.get(k, 0) + v
        if span["name"] in VECTOR_SPANS and span["t1"] is not None:
            seconds[span["name"]] = (seconds.get(span["name"], 0.0)
                                     + span["t1"] - span["t0"])
    return {"counters": counters, "seconds": seconds}


def layer_of(filename: str) -> str:
    """``repro.<package>`` of a source file, ``other`` outside repro."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return "other"
    rest = path[at + len(marker):]
    return rest.split("/", 1)[0] if "/" in rest else "repro"


def profile_layers(profiler) -> dict:
    """cProfile self time grouped by ``repro.<package>``.

    Built-in functions (C code such as ``heapq`` or ``list.append``)
    are charged to the layer of the Python function that called them,
    so a layer's self time includes the C helpers it drives."""
    import pstats

    stats = pstats.Stats(profiler).stats
    layers = {}
    for (filename, _, _), (_, _, tt, _, callers) in stats.items():
        if filename == "~" and callers:
            for caller, edge in callers.items():
                layer = layer_of(caller[0])
                layers[layer] = layers.get(layer, 0.0) + edge[2]
            continue
        layer = layer_of(filename)
        layers[layer] = layers.get(layer, 0.0) + tt
    return layers


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def hw_cases(seed: int, only=None):
    """The ``hw-*`` run list: each paper loop's HW executions at the
    ``default`` preset plus its Fig 13 forced-failure instance, each on
    a freshly generated ``Loop``."""
    from repro.experiments import figures
    from repro.params import default_params

    cases = []
    for name in WORKLOAD_NAMES:
        workload = figures.make_workload(name, "default", seed)
        params = default_params(workload.num_processors)
        loops = workload.executions(figures.preset_executions(name, "default"))
        for i, loop in enumerate(loops):
            cases.append((f"{name}#{i}", loop, params, workload.hw_config()))
        loop, hw_config, _ = figures._forced_failure_loop(name, "default", seed)
        cases.append((f"{name}#fail", loop, params, hw_config))
    if only:
        cases = [c for c in cases if c[0] in only]
    return cases


def warm_up() -> None:
    """One tiny run on each engine and one observed run, so lazy imports
    and first-call costs are paid before timing."""
    from repro.obs import MonitorSuite, Telemetry
    from repro.params import small_test_params
    from repro.runtime.driver import RunConfig, run_hw
    from repro.runtime.vector import clear_extraction_memos
    from repro.workloads.synthetic import parallel_nonpriv_loop

    params = small_test_params(4)
    for engine in ENGINES:
        loop = parallel_nonpriv_loop("warm-up", elements=64, iterations=8)
        run_hw(loop, params, RunConfig(engine=engine))
    loop = parallel_nonpriv_loop("warm-up", elements=64, iterations=8)
    run_hw(loop, params, RunConfig(telemetry=Telemetry(), monitors=MonitorSuite()))
    clear_extraction_memos()


def freeze_heap() -> None:
    """Move everything built so far out of the collector's reach, so the
    collection before each timed unit scans only that unit's garbage."""
    gc.collect()
    gc.freeze()


class Pass:
    """Timed units of one pass, with the tracing the mode asks for
    switched on only inside them."""

    def __init__(self, mode: str, clock: Clock, recorder: Recorder,
                 timers=None) -> None:
        self.clock = clock
        self.recorder = recorder
        self.timers = timers
        self.units = {}
        self.fingerprint_s = 0.0
        self.profiler = None
        self.span_prof = None
        if mode == "profile":
            import cProfile

            self.profiler = cProfile.Profile()
        elif mode == "spans":
            from repro.obs import spans

            self.span_prof = spans.SpanProfiler(track="perfbench")

    def time(self, unit: str, fn):
        """Run ``fn`` as timed unit ``unit`` with the collector paused.

        The unit's pieces are the ``run_*`` calls recorded inside it plus
        the rest of its time, less the probes taken inside it."""
        from repro.obs import spans

        self.recorder.unit = unit
        fingerprint_s = self.timers.fingerprint_s if self.timers else 0.0
        first = len(self.recorder.pending)
        gc.collect()
        gc.disable()
        if self.span_prof is not None:
            spans.install(self.span_prof)
        if self.profiler is not None:
            self.clock.profiler = self.profiler
            self.profiler.enable()
        try:
            probes = self.clock.probe()
            t0 = time.perf_counter()
            spent = self.clock.spent
            out = fn()
            whole = time.perf_counter() - t0
            inner = self.clock.spent - spent
            probes = (probes + self.clock.probe()) / 2
        finally:
            if self.profiler is not None:
                self.profiler.disable()
                self.clock.profiler = None
            if self.span_prof is not None:
                spans.uninstall()
            gc.enable()
            if self.timers is not None:
                self.fingerprint_s += self.timers.fingerprint_s - fingerprint_s
        calls = [entry[-1] for entry in self.recorder.pending[first:]]
        rest = whole - inner - sum(dt for dt, _ in calls)
        self.units[unit] = calls + [[max(0.0, rest), probes]]
        self.recorder.flush()
        return out


def run_paper_regen(seed, bench: Pass, only=None):
    """The figure set exactly as ``python -m repro.experiments`` renders
    it, at the ``quick`` preset."""
    from repro.experiments import cli

    args = argparse.Namespace(preset="quick", seed=seed, chart=False)
    texts = {}
    for name in only or FIGURES:
        text = bench.time(name, lambda: cli.EXPERIMENTS[name](args))
        texts[name] = hashlib.sha256(text.encode()).hexdigest()[:20]
    return texts


def run_hw_pass(workload, seed, engines, bench: Pass, setup, only=None):
    """Each case once per engine (``hw-cold``), or bare then observed on
    scalar (``hw-observed``), on fresh loops with the vector memos
    cleared before every run."""
    from repro.obs import MonitorSuite, Telemetry
    from repro.runtime.driver import run_hw, run_serial
    from repro.runtime.vector import clear_extraction_memos

    clock = bench.clock
    levels = ("bare", "observed") if workload == "hw-observed" else ("bare",)
    variants = [(e, lv) for e in engines for lv in levels]
    # One freshly generated loop set per (engine, level): no run sees a
    # Loop object another run has touched.
    sets, setup["build"] = clock.setup_piece(
        lambda: {v: hw_cases(seed, only) for v in variants})
    first = sets[variants[0]]
    serial, setup["serial"] = clock.setup_piece(lambda: {
        case: run_serial(loop, params) for case, loop, params, _ in first
        if case.endswith("#fail")})
    _, setup["warm"] = clock.setup_piece(warm_up)
    freeze_heap()

    for index, (case, _, params, _) in enumerate(first):
        for engine, level in variants:
            _, loop, _, config = sets[(engine, level)][index]
            extra = {"engine": engine}
            if level == "observed":
                extra.update(telemetry=Telemetry(), monitors=MonitorSuite())
            config = dataclasses.replace(config, **extra)
            clear_extraction_memos()
            unit = f"{case}/{engine}/{level}"
            ref = serial.get(case)
            res = bench.time(unit, lambda: run_hw(loop, params, config,
                                                  serial_result=ref))
            bench.recorder.add("HW", (loop, params, config, ref), {}, res,
                               bench.units[unit][-1])
            bench.recorder.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-regen", "hw-cold", "hw-observed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="bare",
                        choices=("bare", "spans", "profile"))
    parser.add_argument("--engines", default=",".join(ENGINES))
    parser.add_argument("--only", default="",
                        help="comma-separated case or figure names to run")
    args = parser.parse_args(argv)
    only = [x for x in args.only.split(",") if x]

    clock = Clock()
    setup = {}

    def import_simulator():
        sys.path.insert(0, str(SRC))
        import repro.experiments.cli  # noqa: F401
        import repro.runtime.vector  # noqa: F401
        import repro.testing.diffcheck  # noqa: F401

    _, setup["import"] = clock.setup_piece(import_simulator)

    recorder = Recorder(keys=args.mode == "spans")
    timers = None
    if args.workload == "paper-regen":
        wrap_experiment_runs(recorder, clock)
    if args.mode == "spans":
        timers = LayerTimers()
        timers.install()
    bench = Pass(args.mode, clock, recorder, timers)

    texts = {}
    if args.workload == "paper-regen":
        freeze_heap()
        texts = run_paper_regen(args.seed, bench, only)
    else:
        engines = ("scalar",) if args.workload == "hw-observed" else tuple(
            e for e in args.engines.split(",") if e)
        run_hw_pass(args.workload, args.seed, engines, bench, setup, only)

    out = {
        "setup": setup,
        "units": bench.units,
        "texts": texts,
        "runs": recorder.records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if bench.profiler is not None:
        out["layers"] = profile_layers(bench.profiler)
    if bench.span_prof is not None:
        out["spans"] = span_summary(bench.span_prof.snapshot())
        out["build_s"] = timers.build_s
        out["fingerprint_s"] = bench.fingerprint_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
