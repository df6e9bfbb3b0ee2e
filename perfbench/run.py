"""End-to-end benchmark of the paper's four loops.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``paper-regen``: Figs 11-14 and Tables 1-3, rendered exactly as
  ``python -m repro.experiments --preset quick fig11 ... table3`` does;
* ``hw-cold``: every HW execution of Ocean, P3m, Adm and Track at the
  ``default`` preset plus the four Fig 13 forced failures, on the
  ``scalar``, ``batch`` and ``vector`` engines, each run on a freshly
  generated loop with the vector memos cleared;
* ``hw-observed``: the same HW runs on ``scalar``, bare and then with
  ``Telemetry()`` and ``MonitorSuite()`` attached, interleaved.

Every pass runs in a fresh interpreter (``passes.py``), so no pass can
reuse another's work.  Passes repeat until the next one would end after
``--seconds`` (at least ``MIN_PASSES`` if the deadline allows), each on
the next referenced workload seed, so a run's medians span several
workloads rather than one.  A shared host runs this process at about
half speed for seconds at a time, so every timed piece of work is bracketed by a speed
probe (``passes.Clock``) and rescaled to a fixed reference speed; the
rescaled seconds repeat where raw ones do not.  ``wall_s`` and
``setup_s`` are medians over the passes.  Every result is checked
against the committed scalar reference (``reference.json``); the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Usage::

    python3 perfbench/run.py --workload hw-cold --seed 2026 --seconds 30 --trace 0
    python3 perfbench/run.py --write-reference     # regenerate reference.json
    python3 perfbench/run.py --self-test           # the checker catches a bad entry
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from passes import ENGINES, FIGURES, VECTOR_SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASSES = HERE / "passes.py"
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"

WORKLOADS = ("paper-regen", "hw-cold", "hw-observed")
SCENARIOS = ("Serial", "Ideal", "SW", "HW")
#: workload seeds with a committed reference; ``--seed n`` maps onto them
REFERENCE_SEEDS = (2026,) + tuple(range(1, 16))
#: every run must end within this many seconds
DEADLINE_S = 170.0
#: a run on a slow host still takes this many passes, if the deadline
#: leaves room for them
MIN_PASSES = 3
#: the string-hash seed of every pass.  The simulator's results depend
#: on it (README, "Known defect"), so it is pinned like any other input:
#: the same ``--seed`` then gives the same results in every process.
HASH_SEED = "0"
#: host times are reported at the interpreter speed at which the speed
#: probe (``passes._probe_kernel``) takes this long: its full speed on
#: the shared 2-vCPU VM the reference was recorded on
REFERENCE_PROBE_S = 0.0017

E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: layers whose profiled self time is reported: the repro packages on
#: the benchmark's paths, ``repro`` for its top-level modules, and
#: ``other`` for the standard library and numpy
LAYERS = ("experiments", "workloads", "trace", "runtime", "obs", "sim",
          "memsys", "core", "lrpd", "repro", "other")


def per_layer_units() -> Dict[str, str]:
    units = {f"experiments.{f}_s": "s" for f in FIGURES}
    units.update({
        "experiments.runs_requested": "count",
        "experiments.runs_distinct": "count",
        "experiments.repeat_frac": "frac",
        "workloads.build_s": "s",
    })
    for s in SCENARIOS:
        units[f"runtime.{s.lower()}_s"] = "s"
    for s in SCENARIOS:
        units[f"runtime.calls.{s.lower()}"] = "count"
    for e in ENGINES:
        units[f"runtime.hw_pass_s.{e}"] = "s"
        units[f"runtime.hw_fail_s.{e}"] = "s"
    for e in ENGINES:
        units[f"accesses_per_s.{e}"] = "1/s"
    units["vector_drift_pct_max"] = "%"
    for name in ("vector.delegations", "vector.extract_memo_hits",
                 "vector.replay_memo_hits"):
        units[name] = "count"
    for name in VECTOR_SPANS.values():
        units[name] = "s"
    units.update({"obs.fingerprint_s": "s", "obs.overhead_pct": "%",
                  "obs.violations": "count"})
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({"sim.events": "count", "sim.host_us_per_event": "us"})
    for s in SCENARIOS:
        units[f"sim.cycles.{s.lower()}"] = "cycles"
    for part in ("busy", "sync", "mem"):
        units[f"sim.{part}_cycles.hw"] = "cycles"
    units.update({
        "memsys.accesses": "count",
        "memsys.l1_hit_frac": "frac",
        "memsys.remote_miss_frac": "frac",
        "memsys.invalidations": "count",
        "memsys.stall_cycles": "cycles",
        "core.spec_messages": "count",
        "core.detection_cycle": "cycles",
        "lrpd.shadow_accesses": "count",
        "bench.trace_overhead_pct": "%",
        "bench.span_overhead_pct": "%",
    })
    return units


PER_LAYER = per_layer_units()


def workload_seed(seed: int) -> int:
    """The referenced workload seed ``--seed`` selects."""
    if seed in REFERENCE_SEEDS:
        return seed
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def pass_seed(seed: int, index: int) -> int:
    """The workload seed of pass ``index``: ``--seed`` selects the first,
    the passes after it take the next referenced seeds in turn."""
    first = REFERENCE_SEEDS.index(workload_seed(seed))
    return REFERENCE_SEEDS[(first + index) % len(REFERENCE_SEEDS)]


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, mode: str = "bare", timeout: float = 150,
             extra: Optional[List[str]] = None) -> dict:
    """One pass in a fresh interpreter; its JSON report."""
    cmd = [sys.executable, str(PASSES), "--workload", workload,
           "--seed", str(seed), "--mode", mode] + (extra or [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=HASH_SEED),
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload} pass timed out after {exc.timeout:.0f}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise PassFailed(f"{workload} pass exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# reference check
# ----------------------------------------------------------------------
class Check:
    """Counts outputs checked against the reference, and mismatches."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def check_pass(workload: str, data: dict, ref: dict, check: Check) -> List[float]:
    """Check one pass; returns the vector runs' timing drift in %."""
    drift = []
    if workload == "paper-regen":
        known = set(ref["runs"])
        for name, text in data["texts"].items():
            check.expect(text == ref["texts"].get(name), f"{name} text differs")
        for rec in data["runs"]:
            check.expect(rec["full"] in known,
                         f"{rec['unit']}: {rec['scenario']} run signature unknown")
        return drift
    for rec in data["runs"]:
        case, engine, level = rec["unit"].split("/")
        want = ref["hw"].get(case)
        if want is None:
            check.expect(False, f"{case}: no reference")
            continue
        if engine == "vector":
            # The vector tier's contract is the verdict signature; its
            # timing goes to the drift metric, not to failures.
            check.expect(rec["verdict"] == want["verdict"],
                         f"{rec['unit']}: verdict differs")
            drift.append(abs(rec["wall"] - want["wall"]) / want["wall"] * 100)
        else:
            check.expect(rec["full"] == want["full"],
                         f"{rec['unit']}: signature differs")
        if level == "observed":
            check.expect(rec["violations"] == 0,
                         f"{rec['unit']}: {rec['violations']} violations")
            check.expect(rec["passed"] or rec["forensics"],
                         f"{rec['unit']}: failing run has no forensic report")
    return drift


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def rescale(piece) -> float:
    """A piece's seconds at the reference interpreter speed."""
    seconds, probe = piece
    return seconds * REFERENCE_PROBE_S / probe


def unit_seconds(data: dict) -> Dict[str, float]:
    return {unit: sum(rescale(piece) for piece in pieces)
            for unit, pieces in data["units"].items()}


def median_units(passes: List[dict]) -> Dict[str, float]:
    """Each unit's median rescaled seconds over the passes."""
    per_pass = [unit_seconds(p) for p in passes]
    return {unit: statistics.median(u[unit] for u in per_pass if unit in u)
            for unit in per_pass[0]}


def primary(workload: str, unit: str) -> bool:
    """Whether ``unit`` counts toward the workload's wall time."""
    return workload != "hw-observed" or unit.endswith("/observed")


def pass_wall(workload: str, data: dict) -> float:
    return sum(t for unit, t in unit_seconds(data).items()
               if primary(workload, unit))


def pass_accesses(workload: str, data: dict, refs: dict) -> int:
    if workload == "paper-regen":
        # The committed count: it stays right if a later cache means
        # fewer run_* calls reach the benchmark's wrappers.
        return refs[str(data["seed"])]["paper-regen"]["accesses"]
    return sum(r["accesses"] for r in data["runs"]
               if primary(workload, r["unit"]))


def end_to_end(workload: str, passes: List[dict], refs: dict) -> dict:
    setups = [sum(rescale(piece) for piece in p["setup"].values())
              for p in passes]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_wall(workload, p) for p in passes),
        "accesses_per_s": statistics.median(
            pass_accesses(workload, p, refs) / pass_wall(workload, p)
            for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def per_layer(workload: str, passes: List[dict], drift: List[float],
              spans_pass: dict, profile_pass: dict) -> dict:
    m = {name: 0.0 for name in PER_LAYER}
    wall_s = statistics.median(pass_wall(workload, p) for p in passes)
    units = median_units(passes)
    runs = passes[0]["runs"]
    if workload == "paper-regen":
        for f in FIGURES:
            m[f"experiments.{f}_s"] = units.get(f, 0.0)
        for scenario in SCENARIOS:
            m[f"runtime.{scenario.lower()}_s"] = statistics.median(
                sum(rescale(r["piece"]) for r in p["runs"]
                    if r["scenario"] == scenario) for p in passes)
    else:
        for rec in runs:
            dt = units[rec["unit"]]
            m["runtime.hw_s"] += dt
            kind = "pass" if rec["passed"] else "fail"
            if not rec["observed"]:
                m[f"runtime.hw_{kind}_s.{rec['engine']}"] += dt
    for rec in runs:
        m[f"runtime.calls.{rec['scenario'].lower()}"] += 1
        m[f"sim.cycles.{rec['scenario'].lower()}"] += rec["wall"]
        if rec["scenario"] == "HW":
            for part in ("busy", "sync", "mem"):
                m[f"sim.{part}_cycles.hw"] += rec[part]
            m["core.spec_messages"] += rec["spec_messages"]
            m["core.detection_cycle"] += rec["detection"]
        m["memsys.accesses"] += rec["accesses"]
        m["memsys.l1_hit_frac"] += rec["l1_hits"]
        m["memsys.remote_miss_frac"] += rec["remote"]
        m["memsys.invalidations"] += rec["invalidations"]
        m["memsys.stall_cycles"] += rec["stall"]
        m["lrpd.shadow_accesses"] += rec["shadow"]
        if rec["violations"] is not None:
            m["obs.violations"] += rec["violations"]
    if m["memsys.accesses"]:
        m["memsys.l1_hit_frac"] /= m["memsys.accesses"]
        m["memsys.remote_miss_frac"] /= m["memsys.accesses"]
    if workload != "paper-regen":
        for engine in ENGINES:
            bare = [r for r in runs if r["engine"] == engine and not r["observed"]]
            seconds = sum(units[r["unit"]] for r in bare)
            if seconds:
                m[f"accesses_per_s.{engine}"] = (
                    sum(r["accesses"] for r in bare) / seconds)
    m["vector_drift_pct_max"] = max(drift, default=0.0)
    if workload == "hw-observed":
        bare = sum(t for u, t in units.items() if u.endswith("/bare"))
        m["obs.overhead_pct"] = (wall_s / bare - 1) * 100

    # Span profiler pass: the requests' content keys, build and
    # fingerprint time, the existing span counters and vector spans.
    keys = [r["key"] for r in spans_pass["runs"]]
    m["experiments.runs_requested"] = len(keys)
    m["experiments.runs_distinct"] = len(set(keys))
    if keys:
        m["experiments.repeat_frac"] = 1 - len(set(keys)) / len(keys)
    m["workloads.build_s"] = spans_pass["build_s"]
    m["obs.fingerprint_s"] = spans_pass["fingerprint_s"]
    counters = spans_pass["spans"]["counters"]
    for name in ("vector.delegations", "vector.extract_memo_hits",
                 "vector.replay_memo_hits"):
        m[name] = counters.get(name, 0)
    for span, name in VECTOR_SPANS.items():
        m[name] = spans_pass["spans"]["seconds"].get(span, 0.0)
    # The traced passes run the first pass's workload seed: compare them
    # with that pass.
    first = passes[0]
    m["sim.events"] = counters.get("engine.events", 0)
    if m["sim.events"]:
        m["sim.host_us_per_event"] = (
            sum(unit_seconds(first).values()) / m["sim.events"] * 1e6)
    m["bench.span_overhead_pct"] = (
        pass_wall(workload, spans_pass) / pass_wall(workload, first) - 1) * 100

    # cProfile pass: self time by repro package.
    layers = profile_pass["layers"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
    for layer, seconds in layers.items():
        if layer not in LAYERS:  # a repro package off the benchmark's paths
            m["repro.self_s"] += seconds
    m["bench.trace_overhead_pct"] = (
        pass_wall(workload, profile_pass) / pass_wall(workload, first) - 1) * 100
    return m


def layer_shares(profile_pass: dict) -> Dict[str, float]:
    layers = profile_pass["layers"]
    total = sum(layers.values()) or 1.0
    return {k: v / total for k, v in sorted(layers.items(), key=lambda kv: -kv[1])}


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def load_references() -> dict:
    return json.loads(REFERENCE.read_text())["seeds"]


def load_reference(seed: int) -> dict:
    return load_references()[str(seed)]


def benchmark(args) -> int:
    t_start = time.perf_counter()
    seed = workload_seed(args.seed)
    print(f"perfbench: workload={args.workload} seed={args.seed} -> "
          f"workload seeds {seed}, {pass_seed(args.seed, 1)}, ...", flush=True)
    refs = load_references()

    def ref_part(data: dict) -> dict:
        ref = refs[str(data["seed"])]
        return ref["paper-regen"] if args.workload == "paper-regen" else ref

    check = Check()
    passes, drift = [], []

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - t_start)

    def another_pass() -> bool:
        if not passes or time.perf_counter() - window + last <= args.seconds:
            return True
        # Room for one more pass and the traced passes after it.
        return len(passes) < MIN_PASSES and remaining() > 6 * last

    window = time.perf_counter()
    last = 0.0
    while another_pass():
        t0 = time.perf_counter()
        try:
            data = run_pass(args.workload, pass_seed(args.seed, len(passes)),
                            timeout=remaining())
        except PassFailed as exc:
            print(exc, file=sys.stderr)
            check.expect(False, str(exc).splitlines()[0])
            break
        last = time.perf_counter() - t0
        data["seed"] = pass_seed(args.seed, len(passes))
        pass_drift = check_pass(args.workload, data, ref_part(data), check)
        if not passes:
            drift = pass_drift
        passes.append(data)
    if not passes:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1

    print(f"perfbench: {len(passes)} passes", flush=True)
    if args.trace:
        try:
            spans_pass = run_pass(args.workload, seed, "spans", remaining())
            spans_pass["seed"] = seed
            check_pass(args.workload, spans_pass, ref_part(spans_pass), check)
            profile_pass = run_pass(args.workload, seed, "profile", remaining())
            profile_pass["seed"] = seed
            check_pass(args.workload, profile_pass, ref_part(profile_pass),
                       check)
        except PassFailed as exc:
            print(exc, file=sys.stderr)
            return 1
        values = per_layer(args.workload, passes, drift, spans_pass,
                           profile_pass)
        if args.workload == "hw-cold":
            # Cold means cold: no run may reuse a memoized extraction.
            for name in ("vector.extract_memo_hits", "vector.replay_memo_hits"):
                check.expect(values[name] == 0, f"{name} = {values[name]}")
        units = PER_LAYER
        shares = layer_shares(profile_pass)
        RESULTS.mkdir(exist_ok=True)
        report = RESULTS / f"layers-{args.workload}-seed{seed}.json"
        report.write_text(json.dumps({
            "workload": args.workload, "seed": seed,
            "self_share": shares, "self_s": profile_pass["layers"],
            "metrics": values,
        }, indent=2, sort_keys=True) + "\n")
        print("perfbench: profiled self-time share by layer "
              f"(written to {report.relative_to(ROOT)}):")
        for layer, share in shares.items():
            print(f"  {layer:12s} {share * 100:5.1f}%")
    else:
        values, units = end_to_end(args.workload, passes, refs), E2E
    for note in check.notes:
        print(f"perfbench: MISMATCH {note}", file=sys.stderr)
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


def write_reference(seeds) -> int:
    """Record the scalar engine's outputs as the reference."""
    doc = {"seeds": {}}
    if REFERENCE.exists():
        doc = json.loads(REFERENCE.read_text())
    for seed in seeds:
        regen = run_pass("paper-regen", seed, timeout=600)
        hw = run_pass("hw-cold", seed, timeout=600, extra=["--engines", "scalar"])
        doc["seeds"][str(seed)] = {
            "paper-regen": {
                "texts": regen["texts"],
                "runs": sorted({r["full"] for r in regen["runs"]}),
                "accesses": sum(r["accesses"] for r in regen["runs"]),
            },
            "hw": {
                r["unit"].split("/")[0]: {
                    "full": r["full"], "verdict": r["verdict"],
                    "wall": r["wall"], "passed": r["passed"],
                }
                for r in hw["runs"]
            },
        }
        print(f"reference: seed {seed} recorded", flush=True)
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def self_test() -> int:
    """The checker passes the true reference and catches one bad entry."""
    seed = REFERENCE_SEEDS[0]
    ref = load_reference(seed)
    hw = run_pass("hw-cold", seed, extra=["--only", "Track#0,Track#fail"])
    regen = run_pass("paper-regen", seed, extra=["--only", "table1,table2"])
    outcomes = []
    for label, mutate in (
        ("true reference", lambda r: None),
        ("perturbed hw entry",
         lambda r: r["hw"]["Track#fail"].update(verdict="0" * 20)),
        ("perturbed text entry",
         lambda r: r["paper-regen"]["texts"].update(table1="0" * 20)),
    ):
        bad = json.loads(json.dumps(ref))
        mutate(bad)
        check = Check()
        check_pass("hw-cold", hw, bad, check)
        check_pass("paper-regen", regen, bad["paper-regen"], check)
        frac = check.failed / check.attempted
        print(f"self-test: {label}: failed_frac = {frac:.3f} "
              f"({check.failed}/{check.attempted})")
        outcomes.append(frac)
    ok = outcomes[0] == 0 and all(f > 0 for f in outcomes[1:])
    print("self-test:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(REFERENCE_SEEDS)
    if not REFERENCE.exists():
        print("perfbench: reference.json missing; run --write-reference",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
