"""The ``doctor`` subcommand: self-check the protocols under monitors.

Runs a battery of speculative executions with the invariant monitors of
``repro.obs.monitor`` armed:

* clean workloads for every protocol (non-privatization, full
  privatization, reduced privatization) — expected to pass with zero
  invariant violations, and with the monitors having checked at least
  one event (a clean run they never saw proves nothing);
* every injected dependence kind (flow/anti/output) against every
  protocol — each *detected* abort must come with a forensic report
  whose minimized reproducer still aborts.  Kinds a protocol legally
  tolerates (full privatization absorbs anti/output dependences into
  the private copies; the reduced scheme tolerates output dependences)
  are expected to pass.

Prints one verdict line per run, the forensic report of each abort,
and a summary.  The summary line starts with ``doctor: OK`` only when
every expectation held — grep-able for CI.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..obs import MonitorSuite
from ..params import MachineParams, small_test_params
from ..runtime.driver import RunConfig, run_hw
from ..runtime.schedule import SchedulePolicy, ScheduleSpec, VirtualMode
from ..types import ProtocolKind
from ..workloads import faults
from ..workloads.synthetic import parallel_nonpriv_loop, privatizable_loop

#: (protocol label, dependence kind) pairs the protocol *tolerates*:
#: no abort expected even though the dependence is real.
TOLERATED = {
    ("priv", "anti"),
    ("priv", "output"),
    ("priv-simple", "output"),
}


def _workloads(iterations: int):
    """(label, clean loop, array under test, free element) per protocol."""
    # 16x elements: the generator touches at most 8 per iteration, so a
    # free element is guaranteed for the injections below.
    nonpriv = parallel_nonpriv_loop(
        "doctor-nonpriv", elements=16 * iterations, iterations=iterations
    )
    priv = privatizable_loop(
        "doctor-priv", elements=2 * iterations, iterations=iterations, simple=False
    )
    priv_simple = privatizable_loop(
        "doctor-priv-simple",
        elements=2 * iterations,
        iterations=iterations,
        simple=True,
    )

    def under_test(loop):
        return loop.arrays_under_test()[0].name

    return [
        ("nonpriv", nonpriv, under_test(nonpriv)),
        ("priv", priv, under_test(priv)),
        ("priv-simple", priv_simple, under_test(priv_simple)),
    ]


def run_doctor(
    iterations: int = 32,
    num_processors: int = 4,
    params: Optional[MachineParams] = None,
) -> str:
    if params is None:
        params = small_test_params(num_processors)
    lines: List[str] = []
    problems: List[str] = []
    aborts = 0

    def check(label: str, loop, expect_abort: bool) -> None:
        nonlocal aborts
        suite = MonitorSuite()
        # Static contiguous chunks: iteration placement is deterministic,
        # so the src/dst pair below always spans two processors and the
        # pass/abort expectations hold for any processor count >= 2.
        schedule = ScheduleSpec(
            SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.ITERATION
        )
        result = run_hw(loop, params, RunConfig(schedule=schedule, monitors=suite))
        verdict = "FAIL" if not result.passed else "pass"
        checked = sum(result.monitor_events.values())
        lines.append(
            f"  [{label}] {loop.name}: {verdict}, "
            f"{len(result.violations)} invariant violation(s), "
            f"{checked} event(s) checked"
        )
        for violation in result.violations:
            problems.append(f"{loop.name}: {violation}")
            lines.append(f"    !! {violation}")
        if result.passed and not result.violations and checked == 0:
            # A clean verdict from monitors that saw nothing is no
            # evidence: the events bypassed the bus.
            problems.append(f"{loop.name}: the monitors checked zero events")
        if result.passed == expect_abort:
            problems.append(
                f"{loop.name}: expected "
                f"{'an abort' if expect_abort else 'a pass'}, got the opposite"
            )
        if not result.passed:
            aborts += 1
            report = result.forensics
            if report is None:
                problems.append(f"{loop.name}: abort without a forensic report")
                return
            lines.append("")
            lines.extend("    " + l for l in report.to_text().splitlines())
            lines.append("")
            if report.minimized_reproduces is not True:
                problems.append(
                    f"{loop.name}: minimized reproducer did not re-abort"
                )

    lines.append("clean runs (expect pass, zero violations):")
    for label, loop, _array in _workloads(iterations):
        check(label, loop, expect_abort=False)

    lines.append("injected dependences (expect abort unless tolerated):")
    # First and last iteration: with static contiguous chunks these sit
    # on the first and last processor respectively.
    src, dst = 1, iterations
    for label, loop, array in _workloads(iterations):
        element = faults.free_element(loop, array)
        for injected in faults.inject_each_kind(loop, array, src, dst, element):
            kind = injected.name.split("+")[1].split("@")[0]
            check(label, injected, expect_abort=(label, kind) not in TOLERATED)

    if problems:
        lines.append(f"doctor: {len(problems)} problem(s)")
        lines.extend(f"  - {p}" for p in problems)
    else:
        lines.append(
            f"doctor: OK — {aborts} abort(s), every one explained and "
            "reproduced; zero invariant violations"
        )
    return "\n".join(lines)
