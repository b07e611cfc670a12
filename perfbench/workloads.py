"""The benchmark's four workloads, driven through the program's public API.

Each workload splits one pass into three phases the runner times apart:

* ``setup(seed)`` builds the worlds or scenarios (``setup_s``);
* ``steps(state)`` is a generator that advances the simulation one fixed
  step per iteration (``step_ms``; their sum is ``run_s``);
* ``finish(state)`` folds the pass into an :class:`Outcome`: the digest of
  the simulated output, the correctness failures, the simulated headline
  numbers and the per-layer counters the program keeps itself.

The seed is the only input the benchmark chooses; the program receives
only the scenario built from it.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field, replace
from typing import Any, Iterator

from repro.analysis.chaos import check_invariants
from repro.analysis.dynamic import PAPER_ROWS
from repro.explore.driver import run_schedule
from repro.explore.strategies import make_strategy
from repro.explore.trace import SITE_MEM_DRAIN
from repro.kernel.config import KernelConfig
from repro.kernel.simtime import msec, sec
from repro.memmodel.litmus import (
    LITMUS_TESTS,
    MODELS,
    default_plan,
    litmus_scenario,
)
from repro.server.latency import LatencyHistogram
from repro.workload import build_workload_world, summarize_workload, workload_spec
from repro.workloads.cedar import CEDAR_ACTIVITIES, build_cedar_world
from repro.workloads.gvx import GVX_ACTIVITIES, build_gvx_world

#: Simulated time one step advances a world.  Cluster slices are short
#: enough that a 2 s run has 1000 steps, so its step p99 has ten beyond it.
CLUSTER_SLICE = msec(2)
PAPER_SLICE = msec(50)

#: Kernel counters summed into the per-layer ``kernel.*`` and ``sync.*``
#: metrics (see :func:`kernel_counts`).
KERNEL_COUNTERS = (
    "switches", "dispatches", "preemptions", "ticks",
    "ml_enters", "ml_contended", "cv_waits", "cv_timeouts",
)


@dataclass
class Outcome:
    """One pass of a workload, folded."""

    digest: str
    #: Checked operations in the pass.
    operations: int
    #: Failed operation label -> what its checks found.
    failures: dict[str, list[str]] = field(default_factory=dict)
    #: Simulated headline numbers (deterministic for a given seed).
    sim: dict[str, float] = field(default_factory=dict)
    #: Per-layer counters read from the program after the pass.
    counts: dict[str, float] = field(default_factory=dict)


def _sha(obj: Any) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def kernel_counts(totals: dict[str, int]) -> dict[str, float]:
    """The ``kernel.*`` / ``sync.*`` counters from summed kernel stats."""
    enters, waits = totals["ml_enters"], totals["cv_waits"]
    return {
        "kernel.switches": totals["switches"],
        "kernel.dispatches": totals["dispatches"],
        "kernel.preemptions": totals["preemptions"],
        "kernel.ticks": totals["ticks"],
        "sync.ml_enters": enters,
        "sync.ml_contended_ratio": totals["ml_contended"] / enters if enters else 0.0,
        "sync.cv_waits": waits,
        "sync.cv_timeout_ratio": totals["cv_timeouts"] / waits if waits else 0.0,
    }


def _add_kernel_stats(totals: dict[str, int], kernel: Any) -> None:
    for name in KERNEL_COUNTERS:
        totals[name] = totals.get(name, 0) + getattr(kernel.stats, name)


def _check_kernel(failures: dict, label: str, kernel: Any) -> None:
    found = check_invariants(kernel, expect_deadlock=False)
    if found:
        failures[label] = found


# -- flash-crowd and cache-stampede -----------------------------------------


def _client_p99_us(report: Any) -> int:
    """p99 over every client-facing tenant histogram of a WorkloadReport."""
    merged = LatencyHistogram()
    for row in report.tenants.values():
        latency = row.get("latency")
        if not latency:
            continue
        part = LatencyHistogram()
        for index, count in latency["buckets"].items():
            part.counts[int(index)] = count
        part.total, part.sum = latency["total"], latency["sum"]
        part.min, part.max = latency["min"], latency["max"]
        merged.merge(part)
    return merged.percentile(0.99) if merged.total else 0


class ClusterWorkload:
    """A compiled workload scenario on the sharded cluster, stepped in
    fixed simulated slices exactly as ``run_workload`` would run it."""

    def __init__(self, scenario: str, *, duration: int = sec(2)) -> None:
        self.name = scenario
        self.duration = duration

    def setup(self, seed: int) -> Any:
        spec = workload_spec(self.name)
        ncpus = spec.shards + (1 if spec.cache else 0)
        ww = build_workload_world(KernelConfig(seed=seed, ncpus=ncpus), spec=spec)
        return ww, seed

    def discard(self, state: tuple) -> None:
        state[0].world.shutdown()

    def steps(self, state: tuple) -> Iterator[None]:
        world = state[0].world
        for _ in range(self.duration // CLUSTER_SLICE):
            world.run_for(CLUSTER_SLICE)
            yield

    def finish(self, state: tuple) -> Outcome:
        ww, seed = state
        kernel = ww.world.kernel
        report = summarize_workload(ww, seed=seed, duration=self.duration)
        failures: dict[str, list[str]] = {}
        _check_kernel(failures, self.name, kernel)
        ww.world.shutdown()
        totals: dict[str, int] = {}
        _add_kernel_stats(totals, kernel)
        offered = report.totals["offered"]
        attained = sum(
            row["offered"] * row["slo_attainment"] for row in report.tenants.values()
        )
        cluster = report.cluster["totals"]
        cache = report.cache or {}
        counts = {
            **kernel_counts(totals),
            "server.completed": cluster["completed"],
            "server.shed": cluster["shed"],
            "server.timeouts": cluster["timeouts"],
            "server.retries": cluster["retries"],
            "cluster.admitted": cluster["admitted"],
            "cluster.shed_ratio": report.cluster["shed_fraction"],
            "cluster.rerouted": cluster["rerouted"],
            "cache.hit_ratio": cache.get("hit_rate", 0.0),
            "cache.coalesced_waits": cache.get("coalesced_waits", 0),
            "cache.fills": cache.get("fills", 0),
            "cache.evictions": cache.get("evictions", 0),
            "cache.amplification": cache.get("amplification", 0.0),
            "workload.arrivals": report.totals["offered"],
            "workload.resubmits": sum(
                sink["resubmitted"] for sink in report.sinks.values()
            ),
        }
        sim = {
            "sim_p99_ms": _client_p99_us(report) / 1000,
            "slo_attainment": attained / offered if offered else 1.0,
            "goodput_rps": report.totals["completed"] / (self.duration / sec(1)),
        }
        return Outcome(report.digest, 1, failures, sim, counts)


# -- paper-tables -------------------------------------------------------------

#: (system, activity, world builder, activity installer), in table order.
PAPER_ACTIVITIES = [
    ("Cedar", name, build_cedar_world, install)
    for name, install in CEDAR_ACTIVITIES.items()
] + [
    ("GVX", name, build_gvx_world, install)
    for name, install in GVX_ACTIVITIES.items()
]

#: Table 1-2 rate cells compared against the paper in ``paper_err``.
RATE_CELLS = (
    ("forks_per_sec", "forks"),
    ("switches_per_sec", "switches"),
    ("waits_per_sec", "cv_waits"),
    ("ml_enters_per_sec", "ml_enters"),
)


def paper_error(rows: list[dict]) -> float:
    """Median |ln(measured/paper)| over the Table 1-2 rate cells whose
    paper value is non-zero (a measured zero counts as an infinite miss)."""
    errors = []
    for row in rows:
        paper = PAPER_ROWS[(row["system"], row["activity"])]
        for cell, _ in RATE_CELLS:
            expected = getattr(paper, cell)
            if expected:
                measured = row[cell]
                errors.append(
                    abs(math.log(measured / expected)) if measured else math.inf
                )
    return statistics.median(errors)


class PaperTablesWorkload:
    """Tables 1-3: every Cedar and GVX activity, warmed up then measured
    over a window, as ``dynamic.measure`` does, in fixed simulated slices."""

    name = "paper-tables"

    def __init__(
        self,
        *,
        warmup: int = sec(3),
        window: int = sec(10),
        activities: list | None = None,
    ) -> None:
        self.warmup = warmup
        self.window = window
        self.activities = PAPER_ACTIVITIES if activities is None else activities

    def setup(self, seed: int) -> list:
        worlds = []
        for system, activity, build, install in self.activities:
            world, context = build(KernelConfig(seed=seed))
            if install is not None:
                install(world, context)
            worlds.append({"system": system, "activity": activity, "world": world})
        return worlds

    def discard(self, worlds: list) -> None:
        for entry in worlds:
            entry["world"].shutdown()

    def steps(self, worlds: list) -> Iterator[None]:
        for entry in worlds:
            world = entry["world"]
            for _ in range(self.warmup // PAPER_SLICE):
                world.run_for(PAPER_SLICE)
                yield
            world.begin_measurement()
            for _ in range(self.window // PAPER_SLICE):
                world.run_for(PAPER_SLICE)
                yield
            entry["window"] = world.end_measurement()

    def finish(self, worlds: list) -> Outcome:
        rows, failures = [], {}
        totals: dict[str, int] = {}
        for entry in worlds:
            world, window = entry["world"], entry["window"]
            _check_kernel(
                failures, f"{entry['system']}/{entry['activity']}", world.kernel
            )
            _add_kernel_stats(totals, world.kernel)
            row = {
                "system": entry["system"],
                "activity": entry["activity"],
                "duration": window.duration,
                "counts": window.counts,
                "max_live_threads": world.kernel.stats.max_live_threads,
            }
            for cell, counter in RATE_CELLS:
                row[cell] = window.rate(counter)
            rows.append(row)
            world.shutdown()
        return Outcome(
            _sha(rows),
            len(rows),
            failures,
            {"paper_err": paper_error(rows)},
            kernel_counts(totals),
        )


# -- litmus -------------------------------------------------------------------


@dataclass
class _Search:
    """One (test, model) pair's search, as ``enumerate_litmus`` keeps it."""

    test: str
    model: str
    budget: int
    seed: int
    strategy: Any
    #: The scenario's register state, written by each schedule's check.
    registers: dict
    scenario: Any = None
    #: The kernel of the schedule that ran last.
    kernel: Any = None
    runs: int = 0
    exhausted: bool = False
    witnesses: set = field(default_factory=set)
    forbidden: list = field(default_factory=list)
    harness: list = field(default_factory=list)
    decisions: int = 0
    drains: int = 0
    kernel_totals: dict = field(default_factory=dict)


class LitmusWorkload:
    """SB/MP/LB/IRIW under sc/tso/pso with each pair's ``default_plan``,
    one schedule per step, exactly as ``enumerate_litmus`` runs them."""

    name = "litmus"

    def __init__(self, *, pairs: list | None = None) -> None:
        self.pairs = (
            [(test, model) for test in LITMUS_TESTS for model in MODELS]
            if pairs is None else pairs
        )

    def setup(self, seed: int) -> list[_Search]:
        searches = []
        for test, model in self.pairs:
            scenario, registers = litmus_scenario(test, model)
            strategy, budget = default_plan(test, model)
            search = _Search(
                test, model, budget, seed, make_strategy(strategy, seed=seed),
                registers,
            )

            def recording_build(config, build=scenario.build, search=search):
                kernel, shutdown = build(config)
                search.kernel = kernel
                return kernel, shutdown

            search.scenario = replace(scenario, build=recording_build)
            # Pre-flight: every pair's kernel must build and tear down.
            kernel, shutdown = scenario.build(KernelConfig(seed=seed))
            shutdown()
            searches.append(search)
        return searches

    def discard(self, searches: list[_Search]) -> None:
        pass

    def steps(self, searches: list[_Search]) -> Iterator[None]:
        for search in searches:
            strategy = search.strategy
            for index in range(search.budget):
                if strategy.exhausted:
                    break
                outcome = run_schedule(
                    search.scenario,
                    strategy.controller(index),
                    seed=strategy.kernel_seed(index, search.seed),
                    index=index,
                )
                strategy.observe(outcome.trace)
                search.runs += 1
                registers = search.registers.get("outcome")
                if outcome.harness_failures:
                    search.harness.append((index, outcome.harness_failures))
                if outcome.violation is not None:
                    search.forbidden.append(registers)
                elif registers is not None:
                    search.witnesses.add(registers)
                decisions = outcome.trace.decisions
                search.decisions += len(decisions)
                search.drains += sum(d.site == SITE_MEM_DRAIN for d in decisions)
                _add_kernel_stats(search.kernel_totals, search.kernel)
                yield
            search.exhausted = bool(strategy.exhausted)

    def finish(self, searches: list[_Search]) -> Outcome:
        failures, tables = {}, []
        totals: dict[str, int] = {}
        for search in searches:
            label = f"{search.test}/{search.model}"
            expected = LITMUS_TESTS[search.test].expected[search.model]
            found = []
            if search.forbidden:
                found.append(f"forbidden outcomes {search.forbidden}")
            if search.harness:
                found.append(f"harness failures {search.harness[:3]}")
            if search.witnesses != expected:
                found.append(
                    f"reached {sorted(search.witnesses)} != pinned {sorted(expected)}"
                )
            if found:
                failures[label] = found
            tables.append({
                "pair": label, "reached": sorted(search.witnesses),
                "runs": search.runs, "exhausted": search.exhausted,
            })
            for name, value in search.kernel_totals.items():
                totals[name] = totals.get(name, 0) + value
        schedules = sum(s.runs for s in searches)
        counts = {
            **kernel_counts(totals),
            "explore.schedules": schedules,
            "explore.decisions": sum(s.decisions for s in searches),
            "explore.new_outcome_ratio": (
                sum(len(s.witnesses) for s in searches) / schedules
            ),
            "memmodel.drain_decisions": sum(s.drains for s in searches),
        }
        sim = {"exhausted_frac": sum(s.exhausted for s in searches) / len(searches)}
        return Outcome(_sha(tables), len(searches), failures, sim, counts)


def make_workload(name: str) -> Any:
    """The benchmark workload of that name, at its benchmark size."""
    if name in ("flash-crowd", "cache-stampede"):
        return ClusterWorkload(name)
    if name == "paper-tables":
        return PaperTablesWorkload()
    if name == "litmus":
        return LitmusWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("flash-crowd", "cache-stampede", "paper-tables", "litmus")
