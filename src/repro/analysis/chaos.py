"""Chaos sweep: workloads under sampled fault plans, with invariants.

``python -m repro chaos`` runs the Cedar/GVX worlds and a set of
synchronisation micro-scenarios under seeded :class:`FaultPlan`s — stolen
NOTIFYs, spurious wakeups, feigned FORK failures, thread kills, timer
jitter — with the waits-for watchdog on, and asserts the robustness
invariants the paper's systems earned the hard way:

* **No leaked monitor holds.**  Every monitor a live thread holds names
  that thread as owner, and vice versa — even after injected kills,
  because generator unwinding runs ``finally`` clauses.
* **Stats reconcile.**  ``threads_created == threads_finished + live``,
  and stack reservations track live threads exactly; after shutdown both
  ``live_threads`` and ``stack_bytes`` are zero.
* **Every partial deadlock is detected.**  After each run an independent
  brute-force scan of the waits-for graph (straight from thread state,
  sharing no bookkeeping with the watchdog) finds the cycles; each must
  already be in the watchdog's reports.
* **Directed deadlocks are found while the system lives.**  Two
  scenarios wedge a thread pair on purpose — one via the §5.3
  IF-instead-of-WHILE anti-pattern sprung by an injected spurious
  wakeup, one via a plain ABBA lock cycle — and the sweep asserts the
  watchdog reported exactly that cycle while an unrelated daemon kept
  running.
* **A wedged shard is congestion, not deadlock.**  A directed cluster
  scenario stalls every completion path of one shard; the balancer's
  health probe must trip and re-route the queued work to the surviving
  shard, and the watchdog must report nothing — threads burning CPU
  behind a breaker are live, not wedged on each other.
* **Single flight means single flight.**  A directed cache-stampede
  scenario (hot key, short TTL, wildcard invalidations) asserts that
  with the guard on the cache never has two fetches for one key in
  flight, backend amplification is exactly one fetch per miss window,
  and parked waiters read as congestion, not deadlock.
* **Faults off ≡ no faults.**  A plan with every rate at zero (plus the
  watchdog) must reproduce the pinned golden schedule hashes exactly,
  proving the injection seams are free when disarmed.

Each run is one schedule of the shared harness
(:func:`repro.explore.driver.run_schedule`) over a ``chaos-<name>``
scenario from :mod:`repro.explore.scenarios`, so a failing run's saved
trace replays with ``python -m repro explore --replay``.  The sweep is a
pure function of its seed; the JSON report it writes is the CI
artifact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.analysis.faults import FaultPlan
from repro.explore.driver import (
    check_invariants,
    run_schedule,
    save_trace,
    write_report,
)
from repro.explore.scenarios import (
    CHAOS_DIRECTED as DIRECTED_SCENARIOS,
    CHAOS_RUN,
    CHAOS_SWEEP as SWEEP_SCENARIOS,
    ExploreScenario,
)
from repro.explore.trace import TAIL_DEFAULT, ScheduleController
from repro.kernel import msec
from repro.kernel.rng import DeterministicRng

__all__ = [
    "CHAOS_RUN",
    "DIRECTED_SCENARIOS",
    "SWEEP_SCENARIOS",
    "FaultPlan",
    "RunRecord",
    "check_invariants",
    "plan_dict",
    "run_one",
    "run_sweep",
    "sample_plan",
    "verify_golden",
    "write_report",
]


# ---------------------------------------------------------------------------
# Fault-plan sampling
# ---------------------------------------------------------------------------

def sample_plan(rng: DeterministicRng) -> FaultPlan:
    """Draw one fault plan from the sweep's sampling distribution."""
    return FaultPlan(
        drop_notify_prob=rng.choice([0.0, 0.05, 0.2]),
        spurious_wakeup_prob=rng.choice([0.0, 0.05, 0.2]),
        fork_fail_prob=rng.choice([0.0, 0.1]),
        kill_thread_prob=rng.choice([0.0, 0.005, 0.02]),
        timer_jitter_prob=rng.choice([0.0, 0.3]),
        timer_jitter_max=msec(20),
        kill_immune=("SystemDaemon",),
    )


def plan_dict(plan: FaultPlan) -> dict:
    return {
        "drop_notify_prob": plan.drop_notify_prob,
        "spurious_wakeup_prob": plan.spurious_wakeup_prob,
        "fork_fail_prob": plan.fork_fail_prob,
        "kill_thread_prob": plan.kill_thread_prob,
        "timer_jitter_prob": plan.timer_jitter_prob,
        "timer_jitter_max": plan.timer_jitter_max,
    }


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

def label(scenario: ExploreScenario) -> str:
    """A chaos scenario's name in reports: its registry name without
    the ``chaos-`` prefix."""
    return scenario.name.removeprefix("chaos-")


@dataclass
class RunRecord:
    scenario: str
    plan: dict
    seed: int
    faults: dict = field(default_factory=dict)
    deadlocks: int = 0
    starvation: int = 0
    failures: list[str] = field(default_factory=list)
    #: Where the failing run's decision trace was saved (see
    #: ``python -m repro explore --replay``), or None.
    trace_path: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def run_one(
    scenario: ExploreScenario,
    plan: FaultPlan,
    seed: int,
    *,
    trace_dir: str | None = None,
) -> RunRecord:
    """One chaos run of ``scenario`` under ``plan``, through the shared
    schedule runner.

    The run records its schedule (with default tails, so it stays
    byte-identical to an uncontrolled one).  When ``trace_dir`` is
    given and the run fails, the trace is saved there so ``repro
    explore --replay`` can reproduce the exact run.
    """
    built = []

    def build(config):
        kernel, shutdown = scenario.build(config)
        built.append(kernel)
        return kernel, shutdown

    outcome = run_schedule(
        replace(scenario, plan=plan, build=build),
        ScheduleController(tail=TAIL_DEFAULT),
        seed=seed,
    )
    (kernel,) = built
    record = RunRecord(
        scenario=label(scenario),
        plan=plan_dict(plan),
        seed=seed,
        faults=dict(kernel.stats.fault_counts),
        deadlocks=len(kernel.watchdog.deadlocks),
        starvation=len(kernel.watchdog.starvation),
        failures=outcome.failures,
    )
    if record.failures and trace_dir is not None:
        path = os.path.join(trace_dir, f"{scenario.name}-seed{seed}.trace.json")
        save_trace(
            scenario.name, outcome, path, plan=record.plan,
            kill_immune=list(plan.kill_immune), failures=list(record.failures),
        )
        record.trace_path = path
    return record


def verify_golden(*, with_watchdog: bool = True) -> dict:
    """Faults-off chaos mode: a zero-rate plan (and the watchdog) must
    reproduce the pinned golden schedule hashes bit-for-bit."""
    from repro.analysis.golden import SCENARIOS, load_golden

    golden = load_golden()
    overrides: dict[str, Any] = {"fault_plan": FaultPlan()}
    if with_watchdog:
        overrides["watchdog"] = True
    mismatches = []
    for name, run in SCENARIOS.items():
        actual = run(config_overrides=overrides)
        if golden.get(name) != actual:
            mismatches.append(name)
    return {
        "scenarios": len(SCENARIOS),
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def run_sweep(
    *,
    seed: int = 0,
    runs: int = 14,
    check_golden: bool = True,
    progress: Callable[[str], None] | None = None,
    trace_dir: str | None = None,
    scenarios: tuple[str, ...] | None = None,
) -> dict:
    """The full sweep: directed scenarios, sampled plans, golden check.

    Returns the JSON-serialisable report.  Deterministic in ``seed``.
    ``scenarios`` restricts the directed set by name (the sampled runs
    are controlled separately by ``runs``) — CI's failover smoke runs
    just the two failover scenarios with ``runs=0``.
    """
    directed = DIRECTED_SCENARIOS
    if scenarios is not None:
        known = {label(s) for s in DIRECTED_SCENARIOS}
        unknown = sorted(set(scenarios) - known)
        if unknown:
            raise ValueError(
                f"unknown directed chaos scenario(s) {unknown}; "
                f"available: {sorted(known)}"
            )
        directed = tuple(
            s for s in DIRECTED_SCENARIOS if label(s) in set(scenarios)
        )
    rng = DeterministicRng(seed).fork("chaos")
    say = progress or (lambda line: None)
    records: list[RunRecord] = []

    for scenario in directed:
        record = run_one(scenario, scenario.plan, seed, trace_dir=trace_dir)
        say(f"{record.scenario}: deadlocks={record.deadlocks} "
            f"{'ok' if record.ok else 'FAIL'}")
        records.append(record)

    for index in range(runs):
        scenario = SWEEP_SCENARIOS[index % len(SWEEP_SCENARIOS)]
        record = run_one(
            scenario, sample_plan(rng), seed + index, trace_dir=trace_dir
        )
        say(f"{record.scenario}[{index}]: faults={sum(record.faults.values())} "
            f"{'ok' if record.ok else 'FAIL'}")
        records.append(record)

    report: dict[str, Any] = {
        "seed": seed,
        "runs": [vars(r) for r in records],
        "summary": {
            "total": len(records),
            "failed": sum(1 for r in records if not r.ok),
            "faults_injected": sum(
                sum(r.faults.values()) for r in records
            ),
            "deadlocks_detected": sum(r.deadlocks for r in records),
        },
    }
    if check_golden:
        say("verifying golden hashes with faults disarmed...")
        report["golden"] = verify_golden()
    report["ok"] = report["summary"]["failed"] == 0 and (
        not check_golden or report["golden"]["ok"]
    )
    return report
