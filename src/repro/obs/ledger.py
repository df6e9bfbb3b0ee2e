"""Provenance-keyed run ledger: an append-only archive of every run.

Every :class:`~repro.runtime.driver.RunResult` already carries a
SHA-256 provenance manifest (:mod:`repro.obs.provenance`), but results
evaporate when the process exits.  The :class:`RunLedger` keeps them:
an on-disk, content-addressed store recording what was simulated, what
verdict it produced, and how fast it ran — the timeline for the
``repro ledger`` CLI (``list`` / ``show`` / ``diff`` / ``import`` /
``trend``) and the cache behind ``RunConfig(ledger=...)``, which serves
an identical re-run bit-identically from the archive instead of
re-simulating it.

Layout (all under one root directory)::

    index.jsonl                     append-only, one summary line per
                                    record in write order — the timeline
    records/<key[:2]>/<key>.json    full record, content-addressed
    .lock                           advisory write lock

Keys are SHA-256 over the run's identity: the provenance ``config_hash``
(machine params + the data knobs of the run config), the scenario, the
package version and a flat rendering of the workload loop
(:func:`loop_fingerprint_doc`) — two invocations share a key iff they
would simulate the same thing.  Bench and diffsweep records are keyed
over their whole document, so every fresh measurement is a new history
point while re-importing the same snapshot deduplicates.

Write discipline: records land via temp-file + ``os.replace`` (readers
never see partial JSON) and the existence-check → record write → index
append sequence runs under an ``fcntl`` advisory lock, so pooled
workers (``--jobs 4``) can append to one ledger concurrently without
torn index lines or duplicate entries.  Because a record is only ever
replaced whole, a run commit first looks for an intact record without
the lock; re-committing an archived run then costs one read, with no
result serialization and no lock.  A :class:`RunLedger` instance is
stateless (root path + flags, no open handles), so it pickles into pool
tasks unchanged.

Reads fail open: a record or index line that does not decode, a
record stored under another key, or a run record whose result does not
deserialize, is treated as absent and reported with a
:class:`LedgerWarning`; it never fails a run.  The next write under
that key replaces such a record, so the corruption heals.

:class:`ResultStore` is the same serve/record protocol held in memory
for one process.  The figure layer passes one to every run it makes,
so the runs the figures share are simulated once.

The null path costs nothing: when ``RunConfig.ledger`` is ``None`` the
driver never imports this module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import time
import warnings
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

try:  # advisory locking is POSIX-only; elsewhere writes are best-effort
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..trace.ops import AccessOp, ComputeOp
from ..types import AccessKind
from .provenance import fingerprint, run_provenance

__all__ = [
    "LEDGER_DIR",
    "LedgerWarning",
    "ResultStore",
    "RunLedger",
    "as_ledger",
    "ledger_key",
    "loop_fingerprint",
    "loop_fingerprint_doc",
    "span_rollup",
    "bench_bare_series",
]

#: default archive location (relative to the working directory);
#: overridable everywhere a ledger path is accepted
LEDGER_DIR = ".repro-ledger"

_KIND_VALUE = {kind: kind.value for kind in AccessKind}


class LedgerWarning(UserWarning):
    """An archive entry could not be read; it was treated as absent."""


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
def loop_fingerprint_doc(loop) -> List[Any]:
    """Canonical rendering of a workload loop for hashing: one flat
    list of primitive values.

    The list holds the loop name, one ``[name, length, elem_bytes,
    protocol, modified, live_out]`` entry per array, then each
    iteration as the separator ``"/"`` followed by its ops — an access
    as ``[kind, array, index]``, a compute op as its cycle count, a
    local op as ``[kind]`` — and last the iteration weights.  Enums are
    rendered by value.  There is no reflection, pickle or set anywhere,
    so the rendering does not depend on the string-hash seed.
    """
    kind = _KIND_VALUE
    doc: List[Any] = [
        loop.name,
        [[a.name, a.length, a.elem_bytes, a.protocol.value, a.modified,
          a.live_out] for a in loop.arrays],
    ]
    for ops in loop.iterations:
        doc.append("/")
        doc += [
            (kind[op.kind], op.array, op.index) if type(op) is AccessOp
            else op.cycles if type(op) is ComputeOp
            else (kind[op.kind],)
            for op in ops
        ]
    doc.append(loop.iteration_weights)
    return doc


def loop_fingerprint(loop) -> str:
    """SHA-256 of :func:`loop_fingerprint_doc` as compact JSON,
    memoized on the loop instance.

    Loops are immutable once built (see :class:`~repro.trace.loop.Loop`),
    so the digest is computed once per loop object.  Callers look this
    function up by its module-level name at call time."""
    fp = getattr(loop, "_ledger_fp", None)
    if fp is None:
        text = json.dumps(loop_fingerprint_doc(loop), separators=(",", ":"))
        fp = hashlib.sha256(text.encode("utf-8")).hexdigest()
        try:
            loop._ledger_fp = fp
        except (AttributeError, TypeError):  # pragma: no cover - slots
            pass
    return fp


def ledger_key(scenario, loop, params, config=None, provenance=None) -> str:
    """Content address of one run: same key iff the simulation would be
    identical (machine params, data config knobs, package version,
    scenario and the full workload loop).

    ``provenance`` short-circuits the :func:`run_provenance` call when
    the caller already holds the stamped manifest for exactly this
    ``(params, config, scenario)`` — the commit path reuses the one on
    the finished result."""
    scenario_value = getattr(scenario, "value", scenario)
    prov = provenance
    if prov is None:
        prov = run_provenance(params, config, scenario=scenario_value,
                              loop_name=loop.name)
    return fingerprint(
        {
            "config_hash": prov.config_hash,
            "scenario": scenario_value,
            "package_version": prov.package_version,
            "loop_fp": loop_fingerprint(loop),
        }
    )


# ----------------------------------------------------------------------
# span rollup (recorded alongside each run)
# ----------------------------------------------------------------------
def span_rollup(spans: List[Dict[str, Any]], run_sid: int) -> Dict[str, Any]:
    """p50/p95 phase stats + per-tier phase breakdown for one run's span
    subtree (``spans`` as recorded by a ``SpanProfiler``, ``run_sid``
    the run-root span id)."""
    from .spans import percentile

    parents = {s["sid"]: s.get("parent") for s in spans}

    def _in_run(sid: Optional[int]) -> bool:
        while sid is not None:
            if sid == run_sid:
                return True
            sid = parents.get(sid)
        return False

    breakdown: Dict[str, Dict[str, float]] = {}
    durations: List[float] = []
    run_wall = None
    for s in spans:
        if s.get("t1") is None:
            continue
        if s["sid"] == run_sid:
            run_wall = s["t1"] - s["t0"]
            continue
        if not _in_run(s["sid"]):
            continue
        if s.get("cat") == "phase":
            dur = s["t1"] - s["t0"]
            durations.append(dur)
            tier = str(s.get("args", {}).get("engine", "?"))
            per_tier = breakdown.setdefault(tier, {})
            per_tier[s["name"]] = round(per_tier.get(s["name"], 0.0) + dur, 9)
    return {
        "run_wall_s": round(run_wall, 9) if run_wall is not None else None,
        "phase_s": {
            "p50": percentile(durations, 50),
            "p95": percentile(durations, 95),
            "count": len(durations),
        },
        "phase_breakdown_s": breakdown,
    }


# ----------------------------------------------------------------------
# the archive
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RunLedger:
    """Handle on one on-disk ledger directory.

    The instance is the root path plus flags, and a memo of the
    records it found intact; it rides inside a frozen ``RunConfig``
    through pickled pool tasks.  All I/O happens per call.
    """

    root: str = LEDGER_DIR
    #: serve identical re-runs from the archive (the cache-read path);
    #: turn off to keep recording while always re-simulating (how the
    #: write-path overhead gate measures the genuine cost)
    serve_hits: bool = True
    #: record path -> ``(inode, size, mtime_ns)`` when last found
    #: intact.  A record is only rewritten via ``os.replace`` (new
    #: inode) or edited in place (new size or mtime), so an unchanged
    #: signature means an unchanged, still intact record.
    _intact_stat: Dict[str, Tuple[int, int, int]] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False)

    # -- paths ----------------------------------------------------------
    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.jsonl")

    def record_path(self, key: str) -> str:
        return os.path.join(self.root, "records", key[:2], f"{key}.json")

    @contextmanager
    def _locked(self):
        os.makedirs(self.root, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with open(os.path.join(self.root, ".lock"), "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)

    # -- generic write ---------------------------------------------------
    def _intact(self, key: str, kind: str) -> bool:
        """Whether an intact ``kind`` record already holds ``key``: it
        decodes, names ``key`` and its kind and, for a run, its result
        deserializes.  Safe without the lock, as records are replaced
        atomically; a record found intact before and unchanged since
        costs one ``os.stat``."""
        path = self.record_path(key)
        try:
            st = os.stat(path)
        except OSError:
            return False
        stat = (st.st_ino, st.st_size, st.st_mtime_ns)
        if self._intact_stat.get(path) == stat:
            return True
        record = self._read(key)[0]
        intact = (
            record is not None and record.get("kind") == kind
            and (kind != "run" or _run_result(record)[0] is not None)
        )
        if intact:
            self._intact_stat[path] = stat
        return intact

    def _write(self, key: str, kind: str, doc: Dict[str, Any],
               summary: Dict[str, Any]) -> bool:
        """Archive one record atomically; returns whether it was a
        dedupe (an intact record already holds the content address).

        A record that is not intact (see :meth:`_intact`) is overwritten
        with the fresh one — the corruption heals on the next miss —
        without a second index line (the index already names the key)."""
        path = self.record_path(key)
        with self._locked():
            exists = os.path.exists(path)
            if exists and self._intact(key, kind):
                return True
            os.makedirs(os.path.dirname(path), exist_ok=True)
            record = {"key": key, "kind": kind, "schema": 1, **doc}
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(record, fh, indent=2)
                    fh.write("\n")
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):  # pragma: no cover - error path
                    os.unlink(tmp)
                raise
            if not exists:
                line = {"key": key, "kind": kind,
                        "written_at": round(time.time(), 3), **summary}
                with open(self.index_path, "a") as fh:
                    fh.write(json.dumps(line, sort_keys=True) + "\n")
        return False

    # -- record kinds ----------------------------------------------------
    def record_result(
        self,
        result,
        key: Optional[str] = None,
        host_wall_s: Optional[float] = None,
        rollup: Optional[Dict[str, Any]] = None,
        params=None,
        config=None,
        loop=None,
    ) -> Tuple[str, bool]:
        """Archive one ``RunResult``; returns ``(key, deduped)``.

        The key is computed from ``(params, config, loop)`` when not
        given — the same content address the cache-read path looks up.
        """
        from ..experiments.serialize import run_result_to_dict

        if key is None:
            key = ledger_key(result.scenario, loop, params, config,
                             provenance=getattr(result, "provenance", None))
        if self._intact(key, "run"):
            return key, True
        doc = {
            "result": run_result_to_dict(result),
            "host_wall_s": (
                round(host_wall_s, 6) if host_wall_s is not None else None
            ),
            "span_rollup": rollup,
        }
        summary = {
            "scenario": result.scenario.value,
            "loop": result.loop_name,
            "engine": (config.engine if config is not None else "scalar"),
            "passed": result.passed,
            "wall_cycles": result.wall,
            "host_wall_s": doc["host_wall_s"],
        }
        deduped = self._write(key, "run", doc, summary)
        return key, deduped

    def record_bench(self, doc: Dict[str, Any], label: str = "") -> Tuple[str, bool]:
        """Archive one throughput-bench document (a new history point
        per fresh measurement; identical snapshots deduplicate)."""
        key = fingerprint({"kind": "bench", "doc": doc})
        bare = {engine: round(rate, 1)
                for engine, rate in _bare_iters_per_s(doc).items()}
        summary = {"label": label, "bare_iters_per_s": bare}
        deduped = self._write(key, "bench", {"label": label, "bench": doc},
                              summary)
        return key, deduped

    def record_diffsweep(self, doc: Dict[str, Any], label: str = "") -> Tuple[str, bool]:
        """Archive one differential-conformance sweep summary."""
        key = fingerprint({"kind": "diffsweep", "doc": doc})
        summary = {
            "label": label,
            "seeds": doc.get("seeds"),
            "conforming": doc.get("conforming"),
        }
        deduped = self._write(key, "diffsweep", {"label": label, **doc},
                              summary)
        return key, deduped

    def record_sweep(self, doc: Dict[str, Any], label: str = "") -> Tuple[str, bool]:
        """Archive one parameter-sweep summary (the per-point runs are
        recorded individually when the sweep config carries the ledger)."""
        key = fingerprint({"kind": "sweep", "doc": doc})
        summary = {"label": label, "points": doc.get("points")}
        deduped = self._write(key, "sweep", {"label": label, **doc}, summary)
        return key, deduped

    # -- read paths ------------------------------------------------------
    def _read(self, key: str) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """``(record, problem)``: the intact record for ``key``, or None
        with why the stored one was rejected (None when there is none)."""
        path = self.record_path(key)
        try:
            with open(path) as fh:
                record = json.load(fh)
        except FileNotFoundError:
            return None, None
        except (OSError, ValueError) as exc:
            return None, f"ledger record {path} is unreadable ({exc})"
        if not isinstance(record, dict) or record.get("key") != key:
            return None, f"ledger record {path} does not hold key {key[:12]}"
        return record, None

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """Full record dict for ``key``, or None.

        Fails open: an empty, truncated or non-JSON record, or one whose
        stored key is not ``key``, is a miss plus a :class:`LedgerWarning`.
        """
        record, problem = self._read(key)
        if problem is not None:
            warnings.warn(f"{problem}; treated as a miss", LedgerWarning,
                          stacklevel=2)
        return record

    def serve(self, key: str):
        """Reconstruct the archived ``RunResult`` for ``key`` (None on
        miss, when the record isn't a servable run record, or when its
        result does not deserialize)."""
        record = self.lookup(key)
        if record is None or record.get("kind") != "run":
            return None
        result, problem = _run_result(record)
        if problem is not None:
            warnings.warn(f"ledger record {key[:12]} does not deserialize "
                          f"({problem}); treated as a miss", LedgerWarning,
                          stacklevel=2)
        return result

    def records(self, kind: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        """Index lines in write order (the timeline), oldest first.

        Undecodable lines are skipped; one :class:`LedgerWarning` at the
        end of the iteration gives their count."""
        try:
            fh = open(self.index_path)
        except FileNotFoundError:
            return
        bad = 0
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    entry = None
                if not isinstance(entry, dict) or "key" not in entry:
                    bad += 1
                    continue
                if kind is None or entry.get("kind") == kind:
                    yield entry
        if bad:
            warnings.warn(f"skipped {bad} undecodable line(s) in "
                          f"{self.index_path}", LedgerWarning, stacklevel=2)

    def resolve(self, prefix: str) -> str:
        """Resolve a (possibly abbreviated) key to the full key."""
        matches = sorted(
            {e["key"] for e in self.records() if e["key"].startswith(prefix)}
        )
        if not matches:
            raise KeyError(f"no ledger record matches {prefix!r}")
        if len(matches) > 1:
            raise KeyError(
                f"ambiguous key prefix {prefix!r}: "
                + ", ".join(k[:12] for k in matches)
            )
        return matches[0]

    def bench_history(self) -> List[Dict[str, Any]]:
        """Archived bench documents in write order, each as
        ``{"key", "label", "bench"}``."""
        out = []
        for entry in self.records(kind="bench"):
            record = self.lookup(entry["key"])
            if record is not None:
                out.append(
                    {
                        "key": entry["key"],
                        "label": record.get("label", ""),
                        "bench": record.get("bench", {}),
                    }
                )
        return out


class ResultStore:
    """Bounded, in-memory run store for one process.

    It speaks the :class:`RunLedger` protocol the driver uses
    (``serve_hits``, :meth:`serve`, :meth:`record_result`), so it rides
    in ``RunConfig.ledger`` and repeats of a run are served by the
    driver's one cache-read path.  Each result is held pickled: every
    hit returns a fresh copy, so no caller can change what the next one
    receives.  Beyond :attr:`MAX_ENTRIES` the least recently used result is
    dropped.  Runs with telemetry, monitors or a machine hook attached
    are not recorded: their results carry what the observers saw, or
    what the hook did to the machine.
    """

    serve_hits = True

    #: entries kept; a ``default`` regeneration makes about 100 runs
    MAX_ENTRIES = 1024

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def serve(self, key: str):
        blob = self._entries.get(key)
        if blob is None:
            return None
        self._entries.move_to_end(key)
        return pickle.loads(blob)

    def record_result(self, result, key: str, config=None,
                      **archive_fields) -> Tuple[str, bool]:
        """Keep a copy of ``result`` under ``key``; returns ``(key,
        deduped)`` like :meth:`RunLedger.record_result`.  The archive's
        extra fields (host wall time, span rollup) are not kept."""
        if key in self._entries:
            return key, True
        if config is not None and (config.telemetry is not None
                                   or config.monitors is not None
                                   or config.machine_hook is not None):
            return key, False
        self._entries[key] = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        if len(self._entries) > self.MAX_ENTRIES:
            self._entries.popitem(last=False)
        return key, False


def as_ledger(value):
    """Coerce a ``RunConfig.ledger`` value: a :class:`RunLedger` or a
    :class:`ResultStore` passes through, a path (str / PathLike) opens
    a ledger rooted there."""
    if isinstance(value, (RunLedger, ResultStore)):
        return value
    return RunLedger(root=os.fspath(value))


def _run_result(record: Dict[str, Any]) -> Tuple[Any, Optional[str]]:
    """``(result, problem)``: the ``RunResult`` a run record holds, or
    None with the repr of why its result does not deserialize."""
    from ..experiments.serialize import run_result_from_dict

    try:
        return run_result_from_dict(record["result"]), None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return None, repr(exc)


# ----------------------------------------------------------------------
# bench history (the committed BENCH_PR*.json snapshots)
# ----------------------------------------------------------------------
def _bare_iters_per_s(doc: Dict[str, Any]) -> Dict[str, float]:
    """``{engine: bare iters/s}`` of one bench document, in either
    shape: the engine matrix (``engines.<engine>.bare``) or the flat
    PR3-era document, whose top-level ``bare`` cell is the scalar one."""
    engines = doc.get("engines")
    if isinstance(engines, dict):
        return {
            engine: float(levels["bare"]["iters_per_s"])
            for engine, levels in engines.items()
            if "iters_per_s" in (levels.get("bare") or {})
        }
    if "iters_per_s" in doc.get("bare", {}):
        return {"scalar": float(doc["bare"]["iters_per_s"])}
    return {}


def bench_bare_series(
    history: List[Dict[str, Any]],
) -> List[Tuple[str, Dict[str, float]]]:
    """``(label, {engine: bare iters/s})`` per archived bench document,
    oldest first — the throughput trajectory across PRs."""
    return [
        (item.get("label") or item["key"][:12],
         _bare_iters_per_s(item["bench"]))
        for item in history
    ]
