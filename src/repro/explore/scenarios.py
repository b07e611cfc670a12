"""The one scenario registry: what to run and what counts as a violation.

Every harness run — an explored schedule, a chaos run, a litmus
schedule — is an :class:`ExploreScenario` run by
:func:`repro.explore.driver.run_schedule`, and every scenario a saved
trace can name is in :data:`SCENARIOS`, so one replay path serves them
all.

* **Directed** explore scenarios carry a known schedule-dependent bug
  the explorer must *find* (and then shrink); **clean** ones use the
  paper's correct idioms and must sweep their budget without tripping
  any invariant.
* **Chaos** scenarios (``chaos-<name>``) run for :data:`CHAOS_RUN`
  under the chaos sweep's fault plans: :data:`CHAOS_DIRECTED` with a
  fixed plan each, :data:`CHAOS_SWEEP` under sampled plans.  Directed
  chaos checks assert the story of each wedge: the §5.3 WAIT-in-IF and
  ABBA cycles are caught by the watchdog while a bystander runs; a
  wedged shard is congestion (the breaker trips and re-routes, the
  watchdog stays quiet); a killed primary or partitioned balancer loses
  no acknowledged request; the single-flight cache never has two
  fetches for one key in flight.
* **Litmus** scenarios (``litmus-<test>-<model>``) come from
  :mod:`repro.memmodel.litmus`.

Heavyweight, chaos and litmus scenarios are select-by-name only.

A scenario's check names its *expected* failure — a watchdog-reported
deadlock, a consumer that never consumed — while the harness's
invariant battery (:func:`repro.explore.driver.check_invariants`) names
failures that are never acceptable (leaked monitor holds, undetected
cycles, unreconciled stats, data races).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.analysis.faults import FaultPlan
from repro.analysis.golden import (
    cluster_builder,
    server_builder,
    workload_builder,
    world_builder,
)
from repro.cluster.replication import (
    install_balancer_kill,
    install_primary_kill,
    lost_requests,
)
from repro.cluster.world import build_cluster_world
from repro.kernel import Kernel, KernelConfig, msec, sec, usec
from repro.kernel import primitives as p
from repro.kernel.primitives import Enter, Exit, Notify, Pause
from repro.kernel.thread import ThreadState
from repro.server.model import TenantSpec
from repro.sync.condition import (
    ConditionVariable,
    await_condition,
    await_condition_if_broken,
)
from repro.sync.monitor import Monitor
from repro.workloads import build_cedar_world, build_gvx_world
from repro.workloads.cedar import CEDAR_ACTIVITIES
from repro.workloads.gvx import GVX_ACTIVITIES

#: Simulated time per chaos run.
CHAOS_RUN = sec(1)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _deadlock_check(kernel: Kernel) -> "str | None":
    """Violation = the watchdog confirmed a waits-for cycle."""
    if kernel.watchdog is not None and kernel.watchdog.deadlocks:
        first = kernel.watchdog.deadlocks[0]
        chain = " -> ".join(first.cycle + (first.cycle[0],))
        return f"partial deadlock at t={first.time}us: {chain}"
    return None


def partial_deadlock_missing(kernel: Kernel) -> "str | None":
    """The check of a scenario engineered to wedge: the watchdog must
    report a cycle, and a bystander thread must still be runnable."""
    watchdog = kernel.watchdog
    if watchdog is None or not watchdog.deadlocks:
        return "expected a partial deadlock; watchdog found none"
    wedged = set().union(*(r.tids for r in watchdog.deadlocks))
    for thread in kernel.threads.values():
        if (
            thread.alive
            and thread.tid not in wedged
            and thread.state in (ThreadState.READY, ThreadState.RUNNING,
                                 ThreadState.SLEEPING)
        ):
            return None
    return "deadlock detected but no unrelated thread is still live"


def _no_violation(kernel: Kernel) -> "str | None":
    return None


# ---------------------------------------------------------------------------
# Micro-scenarios
# ---------------------------------------------------------------------------
# Each builder takes a KernelConfig and returns (kernel, shutdown).  Every
# thread body releases its monitors through ``finally``, so injected
# kills unwind cleanly.

def _producer_consumer(config: KernelConfig):
    """The correct WAIT-in-a-loop idiom: survives every fault kind."""
    kernel = Kernel(config)
    lock = Monitor("chaos.pc")
    nonempty = ConditionVariable(lock, "chaos.nonempty")
    state = {"available": 0, "consumed": 0}

    def consumer():
        while state["consumed"] < 60:
            yield Enter(lock)
            try:
                # The timeout bounds the damage of a stolen NOTIFY; the
                # WHILE bounds the damage of a spurious wakeup.
                yield from await_condition(
                    nonempty, lambda: state["available"] > 0, timeout=msec(40)
                )
                if state["available"] > 0:
                    state["available"] -= 1
                    state["consumed"] += 1
            finally:
                yield Exit(lock)

    def producer():
        for _ in range(60):
            yield Enter(lock)
            try:
                state["available"] += 1
                yield Notify(nonempty)
            finally:
                yield Exit(lock)
            yield p.Pause(msec(5))

    kernel.fork_root(consumer, name="consumer", priority=5)
    kernel.fork_root(producer, name="producer", priority=4)
    return kernel, kernel.shutdown


def _fork_churn(config: KernelConfig):
    """Fork/join trees under feigned FORK failures and kills."""
    kernel = Kernel(config)

    def leaf(work):
        yield p.Compute(work)

    def spawner(depth):
        children = []
        for i in range(3):
            child = yield p.Fork(leaf, args=(msec(1) * (i + 1),))
            children.append(child)
        if depth > 0:
            sub = yield p.Fork(spawner, args=(depth - 1,))
            children.append(sub)
        for child in children:
            try:
                yield p.Join(child)
            except Exception:
                pass  # a killed child's death arrives at JOIN; survive it

    def root():
        for _ in range(6):
            top = yield p.Fork(spawner, args=(1,))
            try:
                yield p.Join(top)
            except Exception:
                pass
            yield p.Pause(msec(10))

    kernel.fork_root(root, name="churn-root", priority=4)
    return kernel, kernel.shutdown


def _wait_if_deadlock(config: KernelConfig):
    """Directed: an injected spurious wakeup springs the §5.3 IF-not-WHILE
    anti-pattern into an ABBA monitor cycle, while a daemon keeps running.

    The victim WAITs (untimed, IF-guarded) for ``ready``; the spurious
    wake makes it proceed on a broken invariant and reach for a second
    monitor held by its partner, which is about to reach for the first.
    """
    kernel = Kernel(config)
    m_outer = Monitor("chaos.outer")
    m_inner = Monitor("chaos.inner")
    ready_cv = ConditionVariable(m_inner, "chaos.ready")
    state = {"ready": False}

    def victim():
        yield Enter(m_inner)
        # Anti-pattern: checks once, waits once, believes the wake.
        yield from await_condition_if_broken(ready_cv, lambda: state["ready"])
        yield Enter(m_outer)  # holds inner, wants outer -> half the cycle
        yield Exit(m_outer)
        yield Exit(m_inner)

    def partner():
        yield Enter(m_outer)
        yield p.Pause(msec(400))  # outlive the spurious wake
        yield Enter(m_inner)  # holds outer, wants inner -> cycle closed
        yield Exit(m_inner)
        yield Exit(m_outer)

    def daemon():
        while True:
            yield p.Pause(msec(20))
            yield p.Compute(msec(1))

    kernel.fork_root(victim, name="victim", priority=4)
    kernel.fork_root(partner, name="partner", priority=4)
    kernel.fork_root(daemon, name="bystander", priority=3)
    return kernel, kernel.shutdown


#: The plan that springs ``_wait_if_deadlock``: one fault kind, certain.
WAIT_IF_PLAN = FaultPlan(spurious_wakeup_prob=1.0)


def _abba_deadlock(config: KernelConfig):
    """Directed: a plain ABBA cycle (no faults needed), daemon running."""
    kernel = Kernel(config)
    m_a = Monitor("chaos.a")
    m_b = Monitor("chaos.b")

    def first():
        yield Enter(m_a)
        yield p.Pause(msec(10))
        yield Enter(m_b)
        yield Exit(m_b)
        yield Exit(m_a)

    def second():
        yield Enter(m_b)
        yield p.Pause(msec(10))
        yield Enter(m_a)
        yield Exit(m_a)
        yield Exit(m_b)

    def daemon():
        while True:
            yield p.Pause(msec(20))
            yield p.Compute(msec(1))

    kernel.fork_root(first, name="first", priority=4)
    kernel.fork_root(second, name="second", priority=4)
    kernel.fork_root(daemon, name="bystander", priority=3)
    return kernel, kernel.shutdown


# ---------------------------------------------------------------------------
# Cluster scenarios
# ---------------------------------------------------------------------------

def _track_minted(balancer) -> list:
    """Wrap the balancer's request factory so every minted request is
    recorded — the ground-truth population for the custody audit."""
    minted: list = []
    original = balancer.factory.make

    def make(*args, **kwargs):
        req = original(*args, **kwargs)
        minted.append(req)
        return req

    balancer.factory.make = make
    return minted


def _settled_losses(kernel: Kernel, balancer, minted: list) -> list:
    """Requests that vanished: still PENDING yet held by no component.

    A request can be transiently unheld while a reroute/retry one-shot
    is being forked, so a nonzero audit gets up to three short settle
    windows before it counts as loss.
    """
    lost = lost_requests(balancer, minted)
    for _ in range(3):
        if not lost:
            break
        kernel.run_for(msec(40), raise_on_deadlock=False)
        lost = lost_requests(balancer, minted)
    return lost


def _make_cache_stampede():
    """Directed: hot-key TTL expiry + wildcard invalidations with the
    single-flight guard ON — the stampede scenario in its guarded
    configuration.  The check asserts the guard's whole story: at
    most one fetch per key in flight (``max_inflight_per_key == 1``),
    backend amplification exactly one fetch per miss window, concurrent
    misses actually coalesced, traffic completing, and the watchdog
    quiet — parked waiters are congestion accounting, not deadlock.
    (The *unguarded* contrast — amplification, p99 blowup, SLO loss —
    is measured by ``benchmarks/bench_workload.py``.)
    """
    state: dict[str, Any] = {}

    def build(config: KernelConfig):
        from repro.workload.scenarios import workload_spec
        from repro.workload.world import build_workload_world

        spec = workload_spec("cache-stampede")
        config.ncpus = spec.shards + 1
        ww = build_workload_world(config, spec=spec, single_flight=True)
        state["ww"] = ww
        return ww.world.kernel, ww.world.shutdown

    def check(kernel: Kernel) -> "str | None":
        ww = state.get("ww")
        if ww is None:
            return "stampede: world never built"
        cache = ww.cache
        failures = []
        if cache.max_inflight_per_key != 1:
            failures.append(
                "stampede: single-flight violated — "
                f"max_inflight_per_key={cache.max_inflight_per_key}"
            )
        if cache.fetches != cache.fetch_windows:
            failures.append(
                "stampede: backend amplification with the guard on — "
                f"{cache.fetches} fetches for {cache.fetch_windows} windows"
            )
        if cache.coalesced_waits == 0:
            failures.append(
                "stampede: no concurrent miss was ever coalesced"
            )
        if cache.fills == 0:
            failures.append("stampede: no fill ever landed")
        if cache.stats.total("completed") == 0:
            failures.append("stampede: no cached request completed")
        if kernel.watchdog is not None and kernel.watchdog.deadlocks:
            failures.append(
                "stampede: watchdog reported a deadlock for parked waiters"
            )
        return "; ".join(failures) or None

    return build, check


_CACHE_STAMPEDE_BUILD, _CACHE_STAMPEDE_CHECK = _make_cache_stampede()


def _make_cluster_wedge():
    """Directed: wedge one shard, assert the breaker story end to end.

    Poison requests with effectively-infinite compute occupy every
    worker of shard 0 (plus its serializer), so its outcome counters
    stop while its queues hold work.  The balancer's health sleeper must
    trip the breaker, and — now that the shard is replicated — promote
    the replica, replaying the acknowledged in-flight requests instead
    of dropping them (``lost_inflight`` must stay zero; it counted 15+
    per run before replication).  Traffic must keep completing on the
    surviving shards, and the watchdog must stay quiet throughout — a
    wedged shard is congestion, not deadlock.
    """
    state: dict[str, Any] = {}

    def build(config: KernelConfig):
        config.ncpus = 4
        world, balancer = build_cluster_world(
            config, scenario="steady", replicas=True, standby=False
        )
        state["balancer"] = balancer
        shard0 = balancer.shards[0]
        poison = TenantSpec(
            name="poison",
            mode="open",
            cost=sec(30),
            cost_jitter=0.0,
            deadline=sec(10),
            max_retries=0,
        )
        ordered_poison = TenantSpec(
            name="ordered",
            mode="open",
            cost=sec(30),
            cost_jitter=0.0,
            deadline=sec(10),
            max_retries=0,
            ordered=True,
        )

        def inject(k):
            # One per worker wedges the pool; one more wedges the
            # ordered serializer, so no completion path stays open.
            for _ in range(shard0.workers):
                shard0.net.post(shard0.make_request(poison, k.now))
            shard0.net.post(shard0.make_request(ordered_poison, k.now))

        world.kernel.post_at(msec(5), inject)
        return world.kernel, world.shutdown

    def check(kernel: Kernel) -> "str | None":
        balancer = state.get("balancer")
        if balancer is None:
            return "wedge: balancer never built"
        failures = []
        if balancer.trips < 1:
            failures.append("wedge: health probe never tripped the breaker")
        if balancer.promotions < 1:
            failures.append("wedge: tripped shard was never promoted")
        if balancer.replayed < 1:
            failures.append(
                "wedge: no in-flight request was replayed onto the replica"
            )
        lost = sum(balancer.lost_inflight)
        if lost:
            failures.append(
                f"wedge: {lost} acknowledged in-flight requests dropped"
            )
        survivors = sum(
            shard.stats.total("completed")
            for sid, shard in enumerate(balancer.shards)
            if sid != 0
        )
        if survivors == 0:
            failures.append("wedge: no completions on the surviving shards")
        if balancer.shards[0].stats.total("completed") == 0:
            failures.append("wedge: promoted replica completed nothing")
        if kernel.watchdog is not None and kernel.watchdog.deadlocks:
            failures.append(
                "wedge: watchdog reported a deadlock for a congested shard"
            )
        return "; ".join(failures) or None

    return build, check


_CLUSTER_WEDGE_BUILD, _CLUSTER_WEDGE_CHECK = _make_cluster_wedge()


def _make_kill_primary():
    """Directed: kill every thread of a primary shard mid-batch.

    At ``msec(100)`` the failover mix has acknowledged work in every
    stage of shard 0 — queued, executing, retry-parked — when a posted
    event kills all of its threads at once.  The health probe must trip
    on the stalled progress counters, promote the replica, and replay
    the un-acked in-flight requests from the retransmit buffer against
    the replica's applied op log.  The custody audit then proves the
    tentpole claim: **zero acknowledged requests lost** — every minted
    request is either terminal or held by some live component.
    """
    state: dict[str, Any] = {}

    def build(config: KernelConfig):
        config.ncpus = 4
        world, balancer = build_cluster_world(
            config, scenario="failover", replicas=True, standby=False
        )
        state["balancer"] = balancer
        state["minted"] = _track_minted(balancer)
        install_primary_kill(world, balancer, 0, msec(100))
        return world.kernel, world.shutdown

    def check(kernel: Kernel) -> "str | None":
        balancer = state.get("balancer")
        if balancer is None:
            return "kill-primary: balancer never built"
        failures = []
        if balancer.promotions < 1:
            failures.append("kill-primary: replica was never promoted")
        if balancer.replayed < 1:
            failures.append(
                "kill-primary: no in-flight request was replayed"
            )
        if sum(balancer.lost_inflight):
            failures.append(
                "kill-primary: lost_inflight counted on a replicated shard"
            )
        if balancer.quarantined:
            failures.append(
                "kill-primary: requests quarantined despite a live replica"
            )
        if balancer.shards[0].stats.total("completed") == 0:
            failures.append(
                "kill-primary: promoted replica completed nothing"
            )
        lost = _settled_losses(kernel, balancer, state["minted"])
        if lost:
            rids = ", ".join(req.rid for req in lost[:5])
            failures.append(
                f"kill-primary: {len(lost)} acknowledged requests "
                f"vanished ({rids})"
            )
        if kernel.watchdog is not None and kernel.watchdog.deadlocks:
            failures.append(
                "kill-primary: watchdog reported a deadlock during failover"
            )
        return "; ".join(failures) or None

    return build, check


_KILL_PRIMARY_BUILD, _KILL_PRIMARY_CHECK = _make_kill_primary()


def _make_partition_balancer():
    """Directed: partition away the balancer; the standby must take over.

    A posted event kills the primary balancer's whole thread population
    at ``msec(150)``.  Its lease stops being renewed, so the standby's
    watch sleeper must seize it, rebuild routing state from the shards'
    own progress counters, re-inject anything the dead pipeline was
    carrying between queues, and fork a replacement population.  The
    cluster must demonstrably complete work *after* the takeover, and
    the custody audit must find no vanished requests.
    """
    state: dict[str, Any] = {}

    def build(config: KernelConfig):
        config.ncpus = 4
        world, balancer = build_cluster_world(
            config, scenario="failover", replicas=True, standby=True
        )
        state["balancer"] = balancer
        state["minted"] = _track_minted(balancer)
        install_balancer_kill(world, balancer, msec(150))
        return world.kernel, world.shutdown

    def check(kernel: Kernel) -> "str | None":
        balancer = state.get("balancer")
        if balancer is None:
            return "partition: balancer never built"
        failures = []
        lease = balancer.lease
        standby = balancer.standby
        if lease is None or lease.takeovers < 1:
            failures.append("partition: standby never seized the lease")
        if standby is None or not standby.active:
            failures.append("partition: standby never activated")
        else:
            done = sum(
                balancer.shard_done(sid)
                for sid in range(len(balancer.shards))
            )
            if done <= standby.completed_at_takeover:
                failures.append(
                    "partition: no completions after the takeover"
                )
        lost = _settled_losses(kernel, balancer, state["minted"])
        if lost:
            rids = ", ".join(req.rid for req in lost[:5])
            failures.append(
                f"partition: {len(lost)} acknowledged requests "
                f"vanished ({rids})"
            )
        if kernel.watchdog is not None and kernel.watchdog.deadlocks:
            failures.append(
                "partition: watchdog reported a deadlock during takeover"
            )
        return "; ".join(failures) or None

    return build, check


_PARTITION_LB_BUILD, _PARTITION_LB_CHECK = _make_partition_balancer()


def _make_stolen_notify():
    """A single NOTIFY against an IF-guarded untimed WAIT (§4.2).

    One fault decision exists in the whole run: steal that NOTIFY or
    not.  Stolen, the consumer sleeps forever on an unowned monitor —
    invisible to the waits-for watchdog (no cycle), caught only by the
    progress check.  The exhaustive strategy finds it on schedule #1
    and the minimal counterexample is exactly one forced decision.
    """
    state: dict[str, int] = {}

    def build(config: KernelConfig):
        state.clear()
        state.update(ready=0, consumed=0)
        kernel = Kernel(config)
        lock = Monitor("explore.lock")
        ready_cv = ConditionVariable(lock, "explore.ready")

        def consumer():
            yield Enter(lock)
            try:
                # Anti-pattern: IF + untimed WAIT; one stolen NOTIFY is fatal.
                yield from await_condition_if_broken(
                    ready_cv, lambda: state["ready"] > 0
                )
                state["consumed"] += 1
            finally:
                yield Exit(lock)

        def producer():
            yield Pause(msec(5))
            yield Enter(lock)
            try:
                state["ready"] += 1
                yield Notify(ready_cv)
            finally:
                yield Exit(lock)

        kernel.fork_root(consumer, name="consumer", priority=5)
        kernel.fork_root(producer, name="producer", priority=4)
        return kernel, kernel.shutdown

    def check(kernel: Kernel) -> "str | None":
        producers_done = all(
            not t.alive for t in kernel.threads.values() if t.name == "producer"
        )
        if producers_done and state.get("consumed", 0) == 0:
            return (
                "lost wakeup: the NOTIFY was stolen and the IF-guarded "
                "consumer never consumed"
            )
        return None

    return build, check


_STOLEN_NOTIFY_BUILD, _STOLEN_NOTIFY_CHECK = _make_stolen_notify()


def _make_cluster_failover():
    """Failover under forced schedules: promotion must never lose work.

    The smallest cluster that can fail over — one replicated shard, a
    fast quantum so the health probe trips inside the horizon, and a
    deterministic train of 40 arrivals (no Poisson events, so every
    decision the explorer forces is a *scheduling* decision).  A posted
    event kills the whole primary at ``msec(30)``, mid-train.  Whatever
    interleaving the explorer picks around the kill, the balancer must
    promote the replica and the custody audit must find no vanished
    request — the tentpole invariant, checked against adversarial
    schedules instead of just the default one.
    """
    state: dict[str, Any] = {}

    def build(config: KernelConfig):
        config.ncpus = 2
        config.quantum = msec(10)
        # Closed mode with zero clients registers the tenant (stats,
        # WFQ weight) without forking any traffic threads — arrivals
        # are the posted events below, nothing else.
        probe = TenantSpec(
            name="probe",
            mode="closed",
            clients=0,
            cost=usec(400),
            cost_jitter=0.0,
            deadline=msec(100),
            max_retries=1,
        )
        world, balancer = build_cluster_world(
            config,
            shards=1,
            tenants=(probe,),
            replicas=True,
            standby=False,
        )
        state["balancer"] = balancer
        state["minted"] = _track_minted(balancer)

        def arrive(k: Any) -> None:
            req = balancer.make_request(probe, k.now)
            balancer.stats.bump(probe.name, "offered")
            balancer.net.post(req)

        for index in range(40):
            world.kernel.post_at(msec(1) + index * usec(1500), arrive)
        install_primary_kill(world, balancer, 0, msec(30))
        return world.kernel, world.shutdown

    def check(kernel: Kernel) -> "str | None":
        balancer = state.get("balancer")
        if balancer is None:
            return "failover: balancer never built"
        if balancer.promotions < 1:
            return "failover: the dead primary was never promoted"
        lost = _settled_losses(kernel, balancer, state["minted"])
        if lost:
            rids = ", ".join(req.rid for req in lost[:5])
            return f"failover: {len(lost)} request(s) vanished ({rids})"
        return None

    return build, check


_CLUSTER_FAILOVER_BUILD, _CLUSTER_FAILOVER_CHECK = _make_cluster_failover()


@dataclass(frozen=True)
class ExploreScenario:
    """What one harness run builds, how long it runs, and its check."""

    name: str
    build: Callable[[KernelConfig], tuple]
    #: Simulated horizon per schedule.  Only scenarios that expect a
    #: violation stop a dead schedule before it.
    horizon: int
    #: Fault seams to open as decision sites (None = scheduling only).
    plan: "FaultPlan | None"
    #: Directed scenarios expect the explorer to find a violation (and
    #: fail if it cannot); clean scenarios expect a quiet budget.
    expect_violation: bool
    #: Scenario-specific violation predicate over the finished kernel.
    check: Callable[[Kernel], "str | None"]
    #: Run the dynamic race detector per schedule (micro-scenarios
    #: only; the worlds are too hot for per-schedule race checking).
    race_detection: bool = False
    description: str = ""


SCENARIOS: dict[str, ExploreScenario] = {
    "wait-if": ExploreScenario(
        name="wait-if",
        build=_wait_if_deadlock,
        horizon=sec(1),
        plan=FaultPlan(spurious_wakeup_prob=0.5),
        expect_violation=True,
        check=_deadlock_check,
        race_detection=True,
        description="§5.3 WAIT-in-IF sprung into an ABBA cycle by a "
                    "spurious wake landing inside the partner's window",
    ),
    "abba": ExploreScenario(
        name="abba",
        build=_abba_deadlock,
        horizon=sec(1),
        plan=None,
        expect_violation=True,
        check=_deadlock_check,
        race_detection=True,
        description="plain ABBA lock cycle; deadlocks on every schedule, "
                    "so the minimal counterexample is zero forced decisions",
    ),
    "stolen-notify": ExploreScenario(
        name="stolen-notify",
        build=_STOLEN_NOTIFY_BUILD,
        horizon=sec(1),
        plan=FaultPlan(drop_notify_prob=0.5),
        expect_violation=True,
        check=_STOLEN_NOTIFY_CHECK,
        race_detection=True,
        description="one stolen NOTIFY against an IF-guarded untimed WAIT; "
                    "no waits-for cycle, caught by the progress check",
    ),
    "producer-consumer": ExploreScenario(
        name="producer-consumer",
        build=_producer_consumer,
        horizon=sec(1),
        plan=FaultPlan(drop_notify_prob=0.5, spurious_wakeup_prob=0.5),
        expect_violation=False,
        check=_no_violation,
        race_detection=True,
        description="the correct WAIT-in-a-loop idiom with timeouts; must "
                    "survive every explored steal/spurious combination",
    ),
    "cedar-idle": ExploreScenario(
        name="cedar-idle",
        build=world_builder(build_cedar_world, CEDAR_ACTIVITIES, "idle"),
        horizon=msec(500),
        plan=None,
        expect_violation=False,
        check=_no_violation,
        description="the Cedar world's background activity under forced "
                    "scheduler picks; invariants must hold on every order",
    ),
    "cluster-failover": ExploreScenario(
        name="cluster-failover",
        build=_CLUSTER_FAILOVER_BUILD,
        horizon=msec(300),
        plan=None,
        expect_violation=False,
        check=_CLUSTER_FAILOVER_CHECK,
        description="a replicated one-shard cluster killed mid-train; "
                    "promotion must lose zero requests on every explored "
                    "schedule (heavyweight: select by name)",
    ),
}

#: The scenarios with a known bug the explorer must find and shrink.
DIRECTED = ("wait-if", "abba", "stolen-notify")
#: The scenarios that must stay quiet for the whole budget.
CLEAN = ("producer-consumer", "cedar-idle")


def _chaos(
    name: str,
    build: Callable[[KernelConfig], tuple],
    plan: "FaultPlan | None" = None,
    check: Callable[[Kernel], "str | None"] = _no_violation,
) -> ExploreScenario:
    """A chaos scenario: one CHAOS_RUN, never stopped early.  ``plan``
    None means the sweep samples one per run."""
    return ExploreScenario(
        name=f"chaos-{name}",
        build=build,
        horizon=CHAOS_RUN,
        plan=plan,
        expect_violation=False,
        check=check,
    )


#: Chaos scenarios run under sampled fault plans.
CHAOS_SWEEP: tuple[ExploreScenario, ...] = (
    _chaos("cedar-idle", world_builder(build_cedar_world, CEDAR_ACTIVITIES, "idle")),
    _chaos(
        "cedar-keyboard",
        world_builder(build_cedar_world, CEDAR_ACTIVITIES, "keyboard"),
    ),
    _chaos(
        "cedar-formatting",
        world_builder(build_cedar_world, CEDAR_ACTIVITIES, "formatting"),
    ),
    _chaos("gvx-idle", world_builder(build_gvx_world, GVX_ACTIVITIES, "idle")),
    _chaos(
        "gvx-keyboard", world_builder(build_gvx_world, GVX_ACTIVITIES, "keyboard")
    ),
    _chaos("producer-consumer", _producer_consumer),
    _chaos("fork-churn", _fork_churn),
    _chaos("server-steady", server_builder("steady")),
    _chaos("server-overload", server_builder("overload")),
    _chaos("cluster-steady", cluster_builder("steady")),
    _chaos("cluster-skewed", cluster_builder("skewed")),
    _chaos("workload-diurnal", workload_builder("diurnal")),
    _chaos("cache-steady", workload_builder("cache-steady")),
)

#: Chaos scenarios with a fixed plan and a directed check.
CHAOS_DIRECTED: tuple[ExploreScenario, ...] = (
    _chaos("wait-if-deadlock", _wait_if_deadlock, WAIT_IF_PLAN,
           partial_deadlock_missing),
    _chaos("abba-deadlock", _abba_deadlock, FaultPlan(), partial_deadlock_missing),
    _chaos("cluster-wedged-shard", _CLUSTER_WEDGE_BUILD, FaultPlan(),
           _CLUSTER_WEDGE_CHECK),
    _chaos("cluster-kill-primary", _KILL_PRIMARY_BUILD, FaultPlan(),
           _KILL_PRIMARY_CHECK),
    _chaos("cluster-partition-balancer", _PARTITION_LB_BUILD, FaultPlan(),
           _PARTITION_LB_CHECK),
    _chaos("cache-stampede", _CACHE_STAMPEDE_BUILD, FaultPlan(),
           _CACHE_STAMPEDE_CHECK),
)

for _chaos_scenario in CHAOS_DIRECTED + CHAOS_SWEEP:
    SCENARIOS[_chaos_scenario.name] = _chaos_scenario
del _chaos_scenario


def resolve(selector: str) -> "list[ExploreScenario]":
    """Map a CLI selector to scenarios: a name, a comma list, or one of
    the groups ``directed`` / ``clean`` / ``all``.  ``all`` is the
    directed and clean groups — heavyweight scenarios (the replicated
    cluster) run only when selected by name, so the default sweep's
    budget stays spent on the micro-scenarios."""
    if selector == "all":
        names: "tuple[str, ...] | list[str]" = list(DIRECTED) + list(CLEAN)
    elif selector == "directed":
        names = DIRECTED
    elif selector == "clean":
        names = CLEAN
    else:
        names = [part.strip() for part in selector.split(",") if part.strip()]
    missing = [name for name in names if name not in SCENARIOS]
    if missing:
        raise KeyError(
            f"unknown scenario(s) {missing}; known: {sorted(SCENARIOS)} "
            "plus the groups 'directed', 'clean', 'all'"
        )
    return [SCENARIOS[name] for name in names]


# Litmus-test scenarios (litmus-sb-tso, litmus-mp-pso, ...) register in
# SCENARIOS so a saved witness trace replays through the generic
# --replay path; like the replicated cluster they are select-by-name
# only and stay out of the 'all' sweep.  Imported at module bottom:
# litmus.py needs ExploreScenario (defined above) at call time.
from repro.memmodel.litmus import explore_scenarios as _litmus_scenarios

for _litmus in _litmus_scenarios():
    SCENARIOS[_litmus.name] = _litmus
del _litmus
