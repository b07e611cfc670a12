"""The repository benchmark: host cost and modelled outcomes of four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload flash-crowd --seed 1 --seconds 25 --trace 0

One invocation runs one workload in this process, on one thread, one pass
at a time, for ``--seconds`` of host time.  A pass is the workload at its
fixed size: set-up, the timed steps, then the fold and its correctness
checks.  ``--trace 1`` spends the first half of the time on untraced
passes and the second half under the profiler, and reports the per-layer
breakdown.  The last line of output is one JSON object; the lines above it
are a table for people.  ``--workload all`` runs every workload in turn.
See ``perfbench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}")
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.trace import (  # noqa: E402
    CALLS, FILE_SELF, INCLUSIVE, LAYERS, NO_SPANS, OTHER, LayerProfile, Spans,
)
from perfbench.workloads import WORKLOADS, Outcome, make_workload  # noqa: E402

#: Set-ups per pass; ``setup_s`` is the median over all of them.
SETUP_REPEATS = 5

#: name -> unit of the end-to-end metrics (untraced passes).
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms.p50": "ms",
    "step_ms.p99": "ms",
    "peak_rss_mb": "MB",
}
#: Simulated headline numbers, reported with the per-layer metrics.
SIM = {
    "sim_p99_ms": "sim_ms",
    "slo_attainment": "ratio",
    "goodput_rps": "1/sim_s",
    "paper_err": "ratio",
    "exhausted_frac": "ratio",
}
#: Counters each workload reads back from the program (0 where a layer
#: does not run).
COUNTS = {
    "kernel.switches": "count", "kernel.dispatches": "count",
    "kernel.preemptions": "count", "kernel.ticks": "count",
    "sync.ml_enters": "count", "sync.ml_contended_ratio": "ratio",
    "sync.cv_waits": "count", "sync.cv_timeout_ratio": "ratio",
    "memmodel.drain_decisions": "count",
    "explore.schedules": "count", "explore.decisions": "count",
    "explore.new_outcome_ratio": "ratio",
    "server.completed": "count", "server.shed": "count",
    "server.timeouts": "count", "server.retries": "count",
    "cluster.admitted": "count", "cluster.shed_ratio": "ratio",
    "cluster.rerouted": "count",
    "cache.hit_ratio": "ratio", "cache.coalesced_waits": "count",
    "cache.fills": "count", "cache.evictions": "count",
    "cache.amplification": "ratio",
    "workload.arrivals": "count", "workload.resubmits": "count",
}
#: Layer self times from the profiler; ``other`` closes the sum.
SELF_TIMES = [f"{layer}.self_s" for layer, _ in LAYERS] + [f"{OTHER}.self_s"]
#: name -> unit of every per-layer metric (traced run).
PER_LAYER = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in CALLS},
    "kernel.us_per_instant": "us",
    **{name: "s" for name in INCLUSIVE},
    **{name: "s" for name in FILE_SELF},
    **COUNTS,
    "trace.run_s": "s",
    "trace.overhead": "ratio",
    **SIM,
}


def _rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


# -- host-speed calibration ---------------------------------------------------
#
# The benchmark shares its host: the same pass runs up to 70% slower for
# seconds at a time when a neighbour is busy, and whole runs can sit in a
# slow spell.  So every untraced pass interleaves a fixed pure-Python probe
# with its steps, and each timing is scaled by NOMINAL_PROBE_S divided by
# the probe time measured around it.  A timing then reads as seconds on a
# host where the probe takes NOMINAL_PROBE_S.  The probe is code of the
# simulator's kind (dict churn, a heap of pending resumptions, generators
# resumed with send) but touches nothing of the program, so a change to the
# program moves these numbers as it moves the raw ones, which the report
# prints alongside.

#: Host seconds between probes while stepping.
PROBE_EVERY_S = 0.05
#: The probe's time on a quiet 2-core Xeon host under Python 3.11.7.
NOMINAL_PROBE_S = 0.0015


class _ProbeThread:
    __slots__ = ("resumes", "state")

    def __init__(self) -> None:
        self.resumes = 0
        self.state = "ready"


def _probe_body(thread: _ProbeThread):
    total = 0
    while True:
        total += (yield total) & 7
        thread.resumes += 1
        thread.state = "blocked" if thread.resumes % 5 == 0 else "ready"


def _probe_work() -> None:
    table: dict[int, int] = {}
    for i in range(3000):
        key = i & 127
        table[key] = table.get(key, 0) + (len(table) ^ key)
    threads = [_ProbeThread() for _ in range(256)]
    bodies = [_probe_body(thread) for thread in threads]
    for body in bodies:
        next(body)
    pending: list[tuple[int, int, int]] = []
    for seq in range(1500):
        heapq.heappush(pending, (seq * 7919 % 977, seq, (seq * 37) & 255))
        if len(pending) > 64:
            _, token, index = heapq.heappop(pending)
            bodies[index].send(token)
            table[token & 1023] = threads[index].state


def probe() -> float:
    """Host seconds the fixed probe takes right now."""
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


@dataclass
class Pass:
    """Timings and outcome of one pass; untraced timings are normalised."""

    setup_s: list[float]
    step_s: list[float]
    #: Host seconds of the stepping loop, not normalised, probes excluded.
    raw_run_s: float
    outcome: Outcome
    traced: bool


def run_pass(
    workload, seed: int, profile: LayerProfile | None, spans: Spans | None
) -> Pass:
    """Set up (keeping the last of several set-ups), step, fold.

    An untraced pass probes the host speed around its set-ups and every
    ``PROBE_EVERY_S`` between steps.  A traced pass neither probes nor
    repeats its set-up, so its profile holds one set-up and one run.
    """
    traced = profile is not None
    calibrate = probe if not traced else (lambda: NOMINAL_PROBE_S)
    spans = spans or NO_SPANS

    def phase(name, body, *, profiled=True, self_time=False):
        spans.open(name)
        try:
            if not traced or not profiled:
                return body()
            return profile.profiled(body, self_time=self_time)
        finally:
            spans.close()

    def stepped(state):
        steps = workload.steps(state)
        raw: list[float] = []
        scale: list[float] = []
        before = calibrate()
        begin = probed_at = time.perf_counter()
        probing = 0.0
        while True:
            spans.open("step")
            start = time.perf_counter()
            try:
                next(steps)
            except StopIteration:
                break
            finally:
                spans.close()
            now = time.perf_counter()
            raw.append(now - start)
            if not traced and now - probed_at >= PROBE_EVERY_S:
                after = probe()
                scale += [2 * NOMINAL_PROBE_S / (before + after)] * (
                    len(raw) - len(scale)
                )
                before, probed_at = after, time.perf_counter()
                probing += probed_at - now
        wall = time.perf_counter() - begin - probing
        after = calibrate()
        scale += [2 * NOMINAL_PROBE_S / (before + after)] * (len(raw) - len(scale))
        return [r * f for r, f in zip(raw, scale)], wall

    spans.open("pass")
    setup_raw = []
    state = None
    before = calibrate()
    for _ in range(1 if traced else SETUP_REPEATS):
        if state is not None:
            workload.discard(state)
        start = time.perf_counter()
        state = phase("setup", lambda: workload.setup(seed))
        setup_raw.append(time.perf_counter() - start)
    factor = 2 * NOMINAL_PROBE_S / (before + calibrate())
    step_s, raw_run_s = phase("run", lambda: stepped(state), self_time=True)
    outcome = phase("finish", lambda: workload.finish(state), profiled=False)
    spans.close()
    return Pass(
        [s * factor for s in setup_raw], step_s, raw_run_s, outcome, traced
    )


def bench(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload for ``seconds``; returns (result, report lines)."""
    name = workload.name
    profile = LayerProfile() if trace else None
    spans = Spans() if trace else None
    gc.collect()
    rss_before = _rss_bytes()
    begin = time.perf_counter()
    untraced_until = begin + (seconds / 2 if trace else seconds)
    passes = [run_pass(workload, seed, None, None)]
    # The first pass alone: later passes reuse its freed memory.
    peak_rss_mb = (_peak_rss_bytes() - rss_before) / 2**20
    while time.perf_counter() < untraced_until:
        passes.append(run_pass(workload, seed, None, None))
    if trace:
        while not passes[-1].traced or time.perf_counter() < begin + seconds:
            passes.append(run_pass(workload, seed, profile, spans))

    # Correctness: every check of every pass, and one digest per invocation.
    digest = passes[0].outcome.digest
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        attempted += p.outcome.operations
        if p.outcome.digest != digest:
            failed += p.outcome.operations
            problems.append(f"digest {p.outcome.digest} != first pass {digest}")
            continue
        failed += len(p.outcome.failures)
        problems += [
            f"{label}: {found}" for label, found in p.outcome.failures.items()
        ]

    plain = [p for p in passes if not p.traced]
    # Every pass runs the same steps, so step i's time is its median over
    # the passes: a slow spell the probes missed hits only some of them.
    steps = [statistics.median(times) for times in zip(*(p.step_s for p in plain))]
    run_s = sum(steps)
    raw_run_s = statistics.median(p.raw_run_s for p in plain)
    end_to_end = {
        "setup_s": statistics.median(s for p in plain for s in p.setup_s),
        "run_s": run_s,
        "step_ms.p50": percentile(steps, 0.50) * 1e3,
        "step_ms.p99": percentile(steps, 0.99) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    last = passes[-1].outcome
    undeclared = (set(last.sim) - set(SIM)) | (set(last.counts) - set(COUNTS))
    if undeclared:
        raise ValueError(f"{name} reports undeclared metrics {sorted(undeclared)}")
    sim = {metric: last.sim.get(metric, 0.0) for metric in SIM}
    lines = [
        f"workload {name}  seed {seed}  passes {len(plain)} untraced"
        + (f" + {len(passes) - len(plain)} traced" if trace else ""),
        f"digest {digest}",
        f"operations attempted {attempted}  failed {failed}",
        *(f"  FAILED {problem}" for problem in problems[:10]),
        "end-to-end (host, untraced, normalised)  value  unit  n",
        _row("setup_s", end_to_end["setup_s"], "s", SETUP_REPEATS * len(plain)),
        _row("run_s", run_s, "s", len(plain), "(sum of step medians)"),
        _row("step_ms.p50", end_to_end["step_ms.p50"], "ms", len(steps),
             f"steps, each the median of {len(plain)} passes"),
        _row("step_ms.p99", end_to_end["step_ms.p99"], "ms", len(steps),
             f"steps, {len(steps) - math.ceil(0.99 * len(steps))} beyond"),
        _row("peak_rss_mb", peak_rss_mb, "MB", 1),
        _row("raw host run_s", raw_run_s, "s", len(plain), "(not normalised)"),
        "simulated (deterministic per seed)",
        *(_row(metric, sim[metric], SIM[metric], 1) for metric in SIM),
    ]
    if not trace:
        metrics = {
            m: {"value": v, "unit": END_TO_END[m]} for m, v in end_to_end.items()
        }
    else:
        traced = [p for p in passes if p.traced]
        per_layer = _per_layer(profile, traced, last, sim, run_s, raw_run_s)
        metrics = {
            m: {"value": v, "unit": PER_LAYER[m]} for m, v in per_layer.items()
        }
        lines += _layer_table(per_layer)
        out = Path.cwd() / ".perfbench" / f"trace-{name}-seed{seed}.json"
        spans.write(out, {"layers": per_layer, "span_self_s": spans.self_times()})
        lines.append(f"spans written to {out.relative_to(Path.cwd())}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def _per_layer(profile, traced, last, sim, run_s, raw_run_s) -> dict:
    n = len(traced)
    trace_run_s = statistics.fmean(p.raw_run_s for p in traced)
    values = {f"{layer}.self_s": profile.self_s[layer] / n for layer, _ in LAYERS}
    values[f"{OTHER}.self_s"] = trace_run_s - sum(values.values())
    for metric in CALLS:
        values[metric] = profile.calls[metric] / n
    instants = values["kernel.instants"]
    values["kernel.us_per_instant"] = run_s / instants * 1e6 if instants else 0.0
    for metric in INCLUSIVE:
        values[metric] = profile.inclusive_s[metric] / n
    for metric in FILE_SELF:
        values[metric] = profile.file_self_s[metric] / n
    for metric in COUNTS:
        values[metric] = last.counts.get(metric, 0)
    values["trace.run_s"] = trace_run_s
    values["trace.overhead"] = trace_run_s / raw_run_s
    values.update(sim)
    return {metric: values[metric] for metric in PER_LAYER}


def _row(name, value, unit, n, note="") -> str:
    return f"  {name:<28} {value:>12.6g}  {unit:<8} {n} {note}".rstrip()


def _layer_table(per_layer: dict) -> list[str]:
    total = per_layer["trace.run_s"]
    lines = ["per-layer (traced, per pass)          self s   share"]
    for metric in SELF_TIMES:
        value = per_layer[metric]
        lines.append(f"  {metric:<32} {value:>9.4f}  {value / total:6.1%}")
    lines.append(f"  {'sum = trace.run_s':<32} {total:>9.4f}  100.0%")
    lines += [
        _row(metric, per_layer[metric], PER_LAYER[metric], 1)
        for metric in PER_LAYER
        if metric not in SELF_TIMES and metric not in SIM
    ]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, lines = bench(
            make_workload(name), args.seed, args.seconds, bool(args.trace)
        )
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
