"""The run harness: schedules in, verdicts and replayable traces out.

One *schedule* = one deterministic kernel run of a scenario with a
:class:`ScheduleController` answering every decision point.  The chaos
sweep, the explorer and the litmus battery all run their schedules
through :func:`run_schedule`, so every run passes the same invariant
battery (:func:`check_invariants` plus a race-detector sweep): any
schedule that leaks a monitor hold, loses a waits-for cycle, or fails
to reconcile stats is a finding, whatever the scenario expected.

A scenario that expects a violation stops a dead schedule early, two
ways:

* the waits-for watchdog confirms a cycle (``stop_when`` fires on the
  very sweep that found it), and
* the all-waiting check: no thread is ready or running, no event or
  timeout is pending, and every live thread is blocked in a state only
  another thread could release — the schedule can never make progress
  again, so there is no point grinding fault ticks to the horizon.

Every other scenario runs to its horizon.  The rule depends on the
scenario alone, so a replay runs exactly as long as its recording.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterator

from repro.analysis.golden import fingerprint_digest, fingerprint_state
from repro.analysis.watchdog import waits_on
from repro.explore.scenarios import ExploreScenario, partial_deadlock_missing
from repro.explore.strategies import Strategy
from repro.explore.trace import DecisionTrace, ScheduleController
from repro.kernel import Kernel, KernelConfig
from repro.kernel.thread import ThreadState


# ---------------------------------------------------------------------------
# The invariant battery
# ---------------------------------------------------------------------------

def _brute_force_cycles(kernel: Kernel) -> list[frozenset[int]]:
    """Independent waits-for cycle scan, sharing no state with the
    watchdog: every live thread is a start node, every edge re-derived."""
    cycles: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for start in kernel.threads.values():
        if not start.alive:
            continue
        path: list[int] = []
        on_path: set[int] = set()
        node = start
        while node is not None and node.tid not in on_path:
            path.append(node.tid)
            on_path.add(node.tid)
            node = waits_on(node)
        if node is not None:
            cycle = frozenset(path[path.index(node.tid):])
            if cycle not in seen:
                seen.add(cycle)
                cycles.append(cycle)
    return cycles


def check_invariants(kernel: Kernel, *, expect_deadlock: bool) -> list[str]:
    """All post-run invariant checks; returns human-readable violations."""
    failures: list[str] = []
    stats = kernel.stats

    # 1. Monitor-hold consistency (no leaks through kills/unwinds).
    monitors: dict[int, Any] = {}
    for thread in kernel.threads.values():
        for monitor in thread.held_monitors:
            monitors[monitor.uid] = monitor
            if not thread.alive:
                failures.append(
                    f"dead thread {thread.name!r} still lists "
                    f"monitor {monitor.name!r} as held"
                )
            elif monitor.owner is not thread:
                failures.append(
                    f"{thread.name!r} holds {monitor.name!r} but its owner "
                    f"is {getattr(monitor.owner, 'name', None)!r}"
                )
        candidate = thread.blocked_on
        if hasattr(candidate, "entry_queue") and hasattr(candidate, "owner"):
            monitors[candidate.uid] = candidate
    for monitor in monitors.values():
        owner = monitor.owner
        if owner is not None and monitor not in owner.held_monitors:
            failures.append(
                f"monitor {monitor.name!r} names owner {owner.name!r} "
                "which does not hold it"
            )

    # 2. Thread accounting reconciles.
    live = sum(1 for t in kernel.threads.values() if t.alive)
    if stats.live_threads != live:
        failures.append(
            f"live_threads={stats.live_threads} but {live} threads alive"
        )
    if stats.threads_created != stats.threads_finished + stats.live_threads:
        failures.append(
            f"created={stats.threads_created} != finished="
            f"{stats.threads_finished} + live={stats.live_threads}"
        )
    expected_stack = stats.live_threads * kernel.config.stack_reservation
    if stats.stack_bytes != expected_stack:
        failures.append(
            f"stack_bytes={stats.stack_bytes} != live*reservation="
            f"{expected_stack}"
        )

    # 3. Every partial deadlock detected: force a final sweep, then scan
    # independently and require containment.
    watchdog = kernel.watchdog
    if watchdog is not None:
        watchdog.check(kernel.now)
        reported = {report.tids for report in watchdog.deadlocks}
        for cycle in _brute_force_cycles(kernel):
            if cycle not in reported:
                names = sorted(
                    kernel.threads[tid].name for tid in cycle
                )
                failures.append(f"undetected waits-for cycle: {names}")

    # 4. Directed scenarios: the wedge must exist, be reported, and be
    # *partial* — a bystander still making progress.
    if expect_deadlock:
        missing = partial_deadlock_missing(kernel)
        if missing is not None:
            failures.append(missing)
    return failures


def all_waiting(kernel: Kernel) -> bool:
    """True when no live thread can ever run again.

    Conservative: any thread that could be woken by a pending event, a
    timeout, a fault tick (spurious wake of a CV waiter), or the fork
    release sweep keeps the schedule alive.
    """
    sched = kernel.scheduler
    if sched.ready_count() != 0:
        return False
    if any(cpu.current is not None for cpu in sched.cpus):
        return False
    if kernel.events.next_time() is not None:
        return False
    plan = kernel.config.fault_plan
    spurious_possible = plan is not None and plan.spurious_wakeup_prob > 0.0
    live = [t for t in kernel.threads.values() if t.alive]
    if not live:
        return False
    for thread in live:
        if thread.state in (ThreadState.BLOCKED_MONITOR, ThreadState.JOINING):
            continue
        untimed = thread.timed_epoch != thread.wait_epoch
        if thread.state is ThreadState.WAITING_CV and untimed:
            if spurious_possible:
                return False  # a fault tick could still wake it
            continue
        if thread.state is ThreadState.RECEIVING and untimed:
            continue  # nothing left to post to the channel
        return False
    return True


def _dead(kernel: Kernel) -> bool:
    """``stop_when`` for scenarios that expect a violation."""
    if kernel.watchdog is not None and kernel.watchdog.deadlocks:
        return True
    return all_waiting(kernel)


# ---------------------------------------------------------------------------
# One schedule
# ---------------------------------------------------------------------------

@dataclass
class ScheduleOutcome:
    """Everything one schedule produced."""

    index: int
    seed: int
    trace: DecisionTrace
    #: The scenario's check, when it tripped.
    violation: "str | None" = None
    #: Generic invariant-harness failures (never acceptable).
    harness_failures: list = field(default_factory=list)
    #: :func:`fingerprint_state` of the kernel, taken before shutdown.
    fingerprint_state: "dict | None" = None
    #: Clock value when the run ended (< horizon means early stop).
    stopped_at: int = 0

    @cached_property
    def fingerprint(self) -> dict:
        """Full-run fingerprint (trace + stats hashes) for replay checks,
        digested on first read: most schedules are never saved or
        replayed."""
        return fingerprint_digest(self.fingerprint_state)

    @property
    def failed(self) -> bool:
        return self.violation is not None or bool(self.harness_failures)

    @property
    def failures(self) -> list:
        """The violation (if any) followed by the harness failures."""
        head = [self.violation] if self.violation is not None else []
        return head + self.harness_failures


def run_schedule(
    scenario: ExploreScenario,
    controller: ScheduleController,
    *,
    seed: int = 0,
    index: int = 0,
) -> ScheduleOutcome:
    """One controlled run of ``scenario`` under ``controller``."""
    config = KernelConfig(
        seed=seed,
        fault_plan=scenario.plan,
        watchdog=True,
        race_detection=scenario.race_detection,
        schedule_controller=controller,
    )
    kernel, shutdown = scenario.build(config)
    outcome = ScheduleOutcome(index=index, seed=seed, trace=controller.trace)
    try:
        try:
            kernel.run_until(
                scenario.horizon,
                raise_on_deadlock=False,
                stop_when=_dead if scenario.expect_violation else None,
            )
        except Exception as error:  # noqa: BLE001 - a forced schedule or
            # an injected fault surfaced a workload bug (e.g. a monitor
            # held without try/finally when a kill unwound it); report
            # it, don't crash the sweep.
            outcome.harness_failures.append(f"run aborted: {error!r}")
        outcome.stopped_at = kernel.now
        if kernel.watchdog is not None:
            kernel.watchdog.check(kernel.now)  # final sweep before verdicts
        outcome.violation = scenario.check(kernel)
        outcome.harness_failures.extend(
            check_invariants(kernel, expect_deadlock=False)
        )
        if kernel.race_detector is not None and kernel.race_detector.races:
            outcome.harness_failures.extend(
                f"data race: {race}" for race in kernel.race_detector.races
            )
        outcome.fingerprint_state = fingerprint_state(kernel)
    finally:
        shutdown()
    # Post-shutdown: everything returned.
    stats = kernel.stats
    if stats.live_threads != 0:
        outcome.harness_failures.append(
            f"after shutdown: live_threads={stats.live_threads}"
        )
    if stats.stack_bytes != 0:
        outcome.harness_failures.append(
            f"after shutdown: stack_bytes={stats.stack_bytes}"
        )
    return outcome


def save_trace(
    name: str, outcome: ScheduleOutcome, path: str, /, **meta: Any
) -> None:
    """Save ``outcome``'s decision trace with what a replay needs: the
    scenario's registry name, the kernel seed and the run fingerprint
    (see :func:`repro.explore.minimize.replay_trace`)."""
    outcome.trace.meta.update(
        scenario=name, seed=outcome.seed, fingerprint=outcome.fingerprint,
        **meta,
    )
    outcome.trace.save(path)


def write_report(report: dict, path: str) -> None:
    """The JSON report every harness command writes."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# The search loop
# ---------------------------------------------------------------------------

def search(
    scenario: ExploreScenario,
    strategy: Strategy,
    *,
    budget: int,
    seed: int = 0,
) -> Iterator[ScheduleOutcome]:
    """Run up to ``budget`` schedules of ``strategy`` over ``scenario``.

    Yields each outcome after the strategy has observed it.  The search
    is exhausted when ``strategy.exhausted`` holds once the loop ends.
    """
    for index in range(budget):
        if strategy.exhausted:
            return
        outcome = run_schedule(
            scenario,
            strategy.controller(index),
            seed=strategy.kernel_seed(index, seed),
            index=index,
        )
        strategy.observe(outcome.trace)
        yield outcome


@dataclass
class ExploreResult:
    """Verdict of exploring one scenario under one strategy."""

    scenario: str
    strategy: str
    budget: int
    schedules_run: int = 0
    exhausted: bool = False
    #: The first schedule whose expected violation tripped, if any.
    found: "ScheduleOutcome | None" = None
    #: Shrunk counterexample (:class:`MinimizedCounterexample`), if found.
    minimized: object = None
    #: Schedules that broke the generic harness (always a failure).
    harness_failures: list = field(default_factory=list)
    #: A clean scenario's violation, if one tripped (always a failure).
    unexpected: "ScheduleOutcome | None" = None

    #: Set by :func:`explore` once the verdict is known.
    _ok: bool = True

    @property
    def ok(self) -> bool:
        if self.harness_failures or self.unexpected is not None:
            return False
        return self._ok

    def to_dict(self) -> dict:
        out = {
            "scenario": self.scenario,
            "strategy": self.strategy,
            "budget": self.budget,
            "schedules_run": self.schedules_run,
            "exhausted": self.exhausted,
            "ok": self.ok,
            "harness_failures": list(self.harness_failures),
        }
        if self.found is not None:
            out["found_at"] = self.found.index
            out["violation"] = self.found.violation
            out["stopped_at"] = self.found.stopped_at
        if self.unexpected is not None:
            out["unexpected_at"] = self.unexpected.index
            out["unexpected"] = self.unexpected.violation
        if self.minimized is not None:
            out["minimized"] = self.minimized.to_dict()
        return out


def explore(
    scenario: ExploreScenario,
    strategy: Strategy,
    *,
    budget: int = 200,
    seed: int = 0,
    progress: "Callable[[str], None] | None" = None,
) -> ExploreResult:
    """Drive ``strategy`` over ``scenario`` for up to ``budget`` schedules.

    Directed scenarios stop (successfully) at the first schedule whose
    expected violation trips, then shrink it; clean scenarios run the
    whole budget and fail on *any* violation.  Harness failures fail
    either kind immediately.
    """
    from repro.explore.minimize import minimize

    say = progress or (lambda line: None)
    result = ExploreResult(
        scenario=scenario.name, strategy=strategy.name, budget=budget
    )
    for outcome in search(scenario, strategy, budget=budget, seed=seed):
        index = outcome.index
        result.schedules_run += 1
        if outcome.harness_failures:
            result.harness_failures.append(
                {"index": index, "failures": list(outcome.harness_failures)}
            )
            say(f"{scenario.name}[{index}]: HARNESS {outcome.harness_failures}")
            result._ok = False
            return result
        if outcome.violation is not None:
            if scenario.expect_violation:
                say(f"{scenario.name}[{index}]: found: {outcome.violation}")
                result.found = outcome
                result.minimized = minimize(scenario, outcome, progress=say)
                result._ok = (
                    result.minimized is not None
                    and result.minimized.deterministic
                )
                return result
            say(f"{scenario.name}[{index}]: UNEXPECTED {outcome.violation}")
            result.unexpected = outcome
            result._ok = False
            return result
    result.exhausted = strategy.exhausted
    if scenario.expect_violation:
        say(f"{scenario.name}: budget exhausted, violation NOT found")
        result._ok = False
    else:
        say(f"{scenario.name}: {result.schedules_run} schedules clean")
        result._ok = True
    return result
