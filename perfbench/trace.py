"""The traced run: benchmark spans plus per-layer self time from a profiler.

Two instruments, both installed from the benchmark's own files:

* :class:`Spans` records a span (name, start, end, parent) around each
  phase the benchmark drives: a pass, each setup, each step, the fold.
  Spans stay in memory and are written out once, at the end.
* :class:`LayerProfile` wraps ``cProfile``.  The program's thread bodies
  are generators resumed from inside the kernel's run loop, so a span
  around a kernel call would also contain the server, cluster, cache and
  sync code it resumes.  The profiler instead charges every instant to
  the function executing it, which is a span per call minus its children
  at function granularity; built-in functions are charged to the caller
  that invoked them.  Self time then sums by the layer that owns the
  function's file, and call counts of the public entry points fall out
  of the same table.
"""

from __future__ import annotations

import cProfile
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import repro
from repro.analysis.chaos import check_invariants
from repro.analysis.golden import fingerprint
from repro.kernel.events import EventHeap
from repro.kernel.kernel import Kernel
from repro.kernel.memory import MemorySystem
from repro.kernel.scheduler import Scheduler
from repro.memmodel.storebuffer import StoreBufferMemory
from repro.workload.compiler import install_workload

#: Layer -> path prefixes under the ``repro`` package.  The first match
#: wins, so a file-level entry sits before its package's entry.
LAYERS = (
    ("scheduler", ("kernel/scheduler.py",)),
    ("events", ("kernel/events.py",)),
    ("memmodel", ("memmodel/", "kernel/memory.py")),
    ("kernel", ("kernel/",)),
    ("sync", ("sync/",)),
    ("explore", ("explore/",)),
    ("analysis", ("analysis/",)),
    ("server", ("server/", "paradigms/")),
    ("cache", ("cluster/cache.py",)),
    ("cluster", ("cluster/",)),
    ("workload", ("workload/",)),
    ("worlds", ("workloads/", "runtime/", "xwindows/")),
)
#: Everything else: the standard library, the interpreter, the benchmark
#: itself, the profiler's own cost, and ``repro`` modules outside a layer.
OTHER = "other"

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> str:
    """The layer that owns a source file (``OTHER`` outside ``repro``)."""
    if not filename.startswith(_REPRO_DIR):
        return OTHER
    rel = filename[len(_REPRO_DIR):].replace(os.sep, "/")
    for layer, prefixes in LAYERS:
        if rel.startswith(prefixes):
            return layer
    return OTHER


def _key(function: Callable) -> tuple:
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


#: Public entry points whose call counts become per-layer metrics.
CALLS = {
    "kernel.instants": (EventHeap.pop_due,),
    "events.pushes": (EventHeap.push,),
    "events.cancels": (EventHeap.cancel,),
    "scheduler.calls": (
        Scheduler.make_ready, Scheduler.take_next, Scheduler.unready,
        Scheduler.would_preempt, Scheduler.peek_best_other,
    ),
    "memmodel.calls": tuple(
        getattr(cls, name)
        for cls in (MemorySystem, StoreBufferMemory)
        for name in ("store", "load", "fence_cpu", "drain_option")
        if name in vars(cls)
    ),
}
#: Public entry points whose inclusive time becomes a per-layer metric.
INCLUSIVE = {
    "kernel.build_s": (Kernel.__init__, Kernel.fork_root),
    "analysis.invariants_s": (check_invariants,),
    "analysis.fingerprint_s": (fingerprint,),
    "workload.install_s": (install_workload,),
}
#: Files whose self time is reported on its own inside a layer.
FILE_SELF = {
    "analysis.watchdog_s": "analysis/watchdog.py",
    "analysis.races_s": "analysis/races.py",
}


class LayerProfile:
    """Accumulates cProfile tables over the traced phases of a run."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.file_self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)

    def profiled(self, phase: Callable[[], Any], *, self_time: bool) -> Any:
        """Run ``phase`` under the profiler and fold its table in.

        ``self_time`` False keeps only the inclusive entry-point times
        (used for set-up, which is not part of the traced ``run_s``).
        """
        profile = cProfile.Profile()
        profile.enable()
        try:
            result = phase()
        finally:
            profile.disable()
        profile.create_stats()
        self._fold(profile.stats, self_time)
        return result

    def _fold(self, stats: dict, self_time: bool) -> None:
        for metric, functions in INCLUSIVE.items():
            for function in functions:
                entry = stats.get(_key(function))
                if entry is not None:
                    self.inclusive_s[metric] += entry[3]
        if not self_time:
            return
        for metric, functions in CALLS.items():
            for function in functions:
                entry = stats.get(_key(function))
                if entry is not None:
                    self.calls[metric] += entry[1]
        for (filename, _, _), (_, _, own, _, callers) in stats.items():
            if filename == "~":  # a built-in: charge its callers
                for (caller_file, _, _), caller_entry in callers.items():
                    self._charge(caller_file, caller_entry[2])
            else:
                self._charge(filename, own)

    def _charge(self, filename: str, seconds: float) -> None:
        self.self_s[layer_of(filename)] += seconds
        for metric, suffix in FILE_SELF.items():
            if filename.endswith(suffix):
                self.file_self_s[metric] += seconds


class Spans:
    """Benchmark-level spans, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1)
        self.records: list[list] = []
        self._open: list[int] = []

    def open(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.records))
        self.records.append([name, time.perf_counter(), None, parent])

    def close(self) -> None:
        self.records[self._open.pop()][2] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        own = defaultdict(float)
        for name, start, end, parent in self.records:
            own[name] += end - start
            if parent >= 0:
                own[self.records[parent][0]] -= end - start
        return dict(own)

    def write(self, path: Path, extra: dict) -> None:
        """Chrome trace-event JSON (load it in chrome://tracing or
        Perfetto), plus the per-layer table under ``"layers"``."""
        origin = self.records[0][1] if self.records else 0.0
        events = [
            {
                "name": name, "ph": "X", "pid": 0, "tid": 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"parent": self.records[parent][0] if parent >= 0 else None},
            }
            for name, start, end, parent in self.records
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, **extra}, handle)


class _NoSpans:
    """Stands in for :class:`Spans` when the run is not traced."""

    def open(self, name: str) -> None:
        pass

    def close(self) -> None:
        pass


NO_SPANS = _NoSpans()
