"""Golden-schedule scenarios and fingerprinting, as a library.

The determinism guard (``tests/test_golden_schedule.py``) pins SHA-256
digests of twenty-one scenarios' full trace streams and final statistics.
This module holds the scenario bodies and the fingerprint function so
other consumers can run the same scenarios under varied configuration:

* the watchdog false-positive tests run every scenario with the watchdog
  enabled and assert both zero reports *and* fingerprint equality with
  the pinned hashes (observers must be passive);
* the chaos runner (:mod:`repro.analysis.chaos`) re-verifies the pins in
  its faults-off mode, proving the fault-injection seams cost nothing
  when disarmed;
* ``scripts/update_golden_schedule.py`` regenerates the pins after an
  intentional behaviour change.

Every scenario callable takes ``(config_overrides=None, probe=None)``:
``config_overrides`` is merged into the scenario's base ``KernelConfig``
kwargs; ``probe``, if given, is called with the kernel after the run but
before shutdown, for reading observer state (it must not mutate — the
fingerprint is taken right after it returns).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable

from repro.kernel import Kernel, KernelConfig, msec, sec, usec
from repro.kernel import primitives as p
from repro.kernel.primitives import Enter, Exit, Notify, Wait
from repro.sync.condition import ConditionVariable
from repro.sync.monitor import Monitor
from repro.server.world import build_server_world
from repro.workloads import build_cedar_world, build_gvx_world
from repro.workloads.cedar import CEDAR_ACTIVITIES
from repro.workloads.gvx import GVX_ACTIVITIES

#: Simulated time each world scenario runs for.  Long enough to cross many
#: quantum boundaries, timeouts and forks; short enough to stay fast.
WORLD_RUN = sec(2)

Probe = Callable[[Kernel], None]


def default_golden_path() -> Path:
    """``tests/golden/schedule_hashes.json`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden" / "schedule_hashes.json"


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------

def fingerprint(kernel: Kernel) -> dict:
    """Digest the full trace stream and the statistics of a finished run.

    Note: object ``uid``s (monitors, CVs, channels) are process-global
    counters, so raw uid values depend on what ran earlier in the test
    session.  Fingerprints therefore use set *sizes* and names, never
    uids.
    """
    trace_lines = "\n".join(
        f"{e.time}|{e.category}|{e.kind}|{e.thread}|{e.detail}"
        for e in kernel.tracer.events
    )
    trace_hash = hashlib.sha256(trace_lines.encode()).hexdigest()

    stats = kernel.stats
    scalars = {
        name: value
        for name, value in vars(stats).items()
        if isinstance(value, int)
    }
    canonical = {
        "scalars": dict(sorted(scalars.items())),
        "monitors_used": len(stats.monitors_used),
        "cvs_used": len(stats.cvs_used),
        "exec_intervals": stats.exec_intervals,
        "cpu_by_priority": sorted(stats.cpu_by_priority.items()),
        "thread_log": [
            (r.tid, r.name, r.parent_tid, r.generation, r.priority,
             r.created_at, r.role)
            for r in stats.thread_log
        ],
        "lifetimes": stats.lifetimes,
        "per_thread": [
            (t.tid, t.name, t.priority, t.state.value,
             t.stats.cpu_time, t.stats.dispatches, t.stats.preemptions,
             t.stats.yields, t.stats.monitor_enters, t.stats.monitor_blocks,
             t.stats.cv_waits, t.stats.cv_timeouts,
             t.stats.cv_notifies_received, t.stats.forks_issued)
            for t in kernel.threads.values()
        ],
        "now": kernel.now,
    }
    stats_hash = hashlib.sha256(
        json.dumps(canonical, sort_keys=True, default=str).encode()
    ).hexdigest()
    return {
        "trace": trace_hash,
        "stats": stats_hash,
        "events": len(kernel.tracer.events),
    }


def _config(base: dict, overrides: dict | None) -> KernelConfig:
    merged = dict(base)
    if overrides:
        merged.update(overrides)
    return KernelConfig(**merged)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def _world_scenario(builder, activities, activity):
    def run(config_overrides: dict | None = None, probe: Probe | None = None) -> dict:
        world, context = builder(_config(dict(seed=0, trace=True), config_overrides))
        install = activities[activity]
        if install is not None:
            install(world, context)
        world.run_for(WORLD_RUN)
        if probe is not None:
            probe(world.kernel)
        result = fingerprint(world.kernel)
        world.shutdown()
        return result

    return run


def _spurious_scenario(semantics):
    """The Section-6.1 producer/consumer across a priority boundary."""

    def run(config_overrides: dict | None = None, probe: Probe | None = None) -> dict:
        kernel = Kernel(
            _config(
                dict(seed=0, trace=True, notify_semantics=semantics),
                config_overrides,
            )
        )
        lock = Monitor("pc")
        nonempty = ConditionVariable(lock, "nonempty")
        state = {"available": 0, "consumed": 0}

        def consumer():
            while state["consumed"] < 40:
                yield Enter(lock)
                try:
                    while state["available"] == 0:
                        yield Wait(nonempty, timeout=msec(200))
                    state["available"] -= 1
                    state["consumed"] += 1
                finally:
                    yield Exit(lock)

        def producer():
            for _ in range(40):
                yield Enter(lock)
                try:
                    state["available"] += 1
                    yield Notify(nonempty)
                    yield p.Compute(usec(100))
                finally:
                    yield Exit(lock)
                yield p.Compute(usec(50))

        kernel.fork_root(consumer, name="consumer", priority=5)
        kernel.fork_root(producer, name="producer", priority=3)
        kernel.run_for(sec(5))
        if probe is not None:
            probe(kernel)
        result = fingerprint(kernel)
        kernel.shutdown()
        return result

    return run


def _donation_scenario(
    config_overrides: dict | None = None, probe: Probe | None = None
) -> dict:
    """YieldButNotToMe and directed yields across priorities (§5.2, §6.2)."""
    kernel = Kernel(_config(dict(seed=0, trace=True), config_overrides))
    progress = {"low": 0}
    handles = {}

    def low():
        while True:
            yield p.Compute(msec(2))
            progress["low"] += 1
            yield p.Yield()

    def courteous_high():
        for _ in range(120):
            yield p.Compute(msec(1))
            yield p.YieldButNotToMe()

    def director():
        for _ in range(40):
            yield p.Pause(msec(10))
            yield p.DirectedYield(handles["low"])

    handles["low"] = kernel.fork_root(low, name="low", priority=2)
    kernel.fork_root(courteous_high, name="high", priority=6)
    kernel.fork_root(director, name="director", priority=7)
    kernel.run_for(sec(1))
    if probe is not None:
        probe(kernel)
    result = fingerprint(kernel)
    kernel.shutdown()
    return result


def _fork_churn_scenario(
    config_overrides: dict | None = None, probe: Probe | None = None
) -> dict:
    """Fork/join churn that exhausts thread slots (§5.4 resource waits)."""
    kernel = Kernel(
        _config(
            dict(seed=0, trace=True, max_threads=8, fork_failure="wait"),
            config_overrides,
        )
    )

    def leaf(work):
        yield p.Compute(work)

    def spawner(depth):
        children = []
        for i in range(3):
            child = yield p.Fork(leaf, args=(usec(50 * (i + 1)),))
            children.append(child)
        if depth > 0:
            sub = yield p.Fork(spawner, args=(depth - 1,))
            children.append(sub)
        for child in children:
            yield p.Join(child)

    def root():
        for _ in range(12):
            top = yield p.Fork(spawner, args=(2,))
            yield p.Join(top)

    kernel.fork_root(root, name="root", priority=4)
    kernel.run_for(sec(2))
    if probe is not None:
        probe(kernel)
    result = fingerprint(kernel)
    kernel.shutdown()
    return result


def _timed_waits_scenario(
    config_overrides: dict | None = None, probe: Probe | None = None
) -> dict:
    """Every timed-wait kind: sleeps, CV timeouts, channel timeouts."""
    kernel = Kernel(_config(dict(seed=0, trace=True), config_overrides))
    channel = kernel.channel("dev")
    lock = Monitor("tw")
    cv = ConditionVariable(lock, "tw.cv", timeout=msec(80))

    def sleeper():
        for _ in range(25):
            yield p.Pause(msec(30))

    def cv_waiter():
        for _ in range(15):
            yield Enter(lock)
            try:
                yield Wait(cv)
            finally:
                yield Exit(lock)

    def stimulator():
        for _ in range(5):
            yield p.Pause(msec(170))
            yield Enter(lock)
            try:
                yield Notify(cv)
            finally:
                yield Exit(lock)

    def receiver():
        for _ in range(12):
            yield p.Channelreceive(channel, timeout=msec(60))

    kernel.fork_root(sleeper, name="sleeper", priority=3)
    kernel.fork_root(cv_waiter, name="cv-waiter", priority=4)
    kernel.fork_root(stimulator, name="stimulator", priority=5)
    kernel.fork_root(receiver, name="receiver", priority=4)
    for i in range(4):
        kernel.post_at(msec(100 + 150 * i), lambda k: channel.post("pkt"))
    kernel.run_for(sec(2))
    if probe is not None:
        probe(kernel)
    result = fingerprint(kernel)
    kernel.shutdown()
    return result


def _multiprocessor_scenario(
    config_overrides: dict | None = None, probe: Probe | None = None
) -> dict:
    """Two CPUs, mixed priorities, contention and preemption."""
    kernel = Kernel(_config(dict(seed=0, trace=True, ncpus=2), config_overrides))
    lock = Monitor("mp")

    def worker(slice_us):
        for _ in range(30):
            yield p.Compute(slice_us)
            yield Enter(lock)
            try:
                yield p.Compute(usec(20))
            finally:
                yield Exit(lock)

    def interrupter():
        for _ in range(20):
            yield p.Pause(msec(7))
            yield p.Compute(usec(300))

    for i, prio in enumerate([2, 3, 4, 4, 5]):
        kernel.fork_root(worker, args=(usec(400 + 100 * i),), priority=prio)
    kernel.fork_root(interrupter, name="interrupter", priority=7)
    kernel.run_for(sec(1))
    if probe is not None:
        probe(kernel)
    result = fingerprint(kernel)
    kernel.shutdown()
    return result


def _fair_share_scenario(
    config_overrides: dict | None = None, probe: Probe | None = None
) -> dict:
    """The Section-7 lottery policy: different code path entirely."""
    kernel = Kernel(
        _config(
            dict(seed=0, trace=True, scheduler_policy="fair_share"),
            config_overrides,
        )
    )
    progress = {}

    def worker(tag):
        progress[tag] = 0
        while True:
            yield p.Compute(msec(3))
            progress[tag] += 1

    for tag, prio in [("a", 1), ("b", 4), ("c", 7)]:
        kernel.fork_root(worker, args=(tag,), name=tag, priority=prio)
    kernel.run_for(sec(1))
    if probe is not None:
        probe(kernel)
    result = fingerprint(kernel)
    kernel.shutdown()
    return result


def _weak_memory_scenario(
    config_overrides: dict | None = None, probe: Probe | None = None
) -> dict:
    """Weak ordering (``pso``) with fences and monitor-implied barriers (§5.5)."""
    from repro.kernel.memory import SimVar

    kernel = Kernel(
        _config(
            dict(seed=0, trace=True, ncpus=2, memory_model="pso"),
            config_overrides,
        )
    )
    flag = SimVar("flag", 0)
    data = SimVar("data", 0)
    lock = Monitor("wm")

    def writer():
        for i in range(40):
            yield p.MemWrite(data, i)
            yield p.Fence()
            yield p.MemWrite(flag, i + 1)
            yield p.Compute(usec(120))

    def reader():
        for _ in range(40):
            yield Enter(lock)
            try:
                seen = yield p.MemRead(flag)
                if seen:
                    yield p.MemRead(data)
            finally:
                yield Exit(lock)
            yield p.Compute(usec(90))

    kernel.fork_root(writer, name="writer", priority=4)
    kernel.fork_root(reader, name="reader", priority=4)
    kernel.run_for(sec(1))
    if probe is not None:
        probe(kernel)
    result = fingerprint(kernel)
    kernel.shutdown()
    return result


def _server_scenario(scenario):
    """The multi-tenant RPC server world (steady-state and overload)."""

    def run(config_overrides: dict | None = None, probe: Probe | None = None) -> dict:
        world, _server = build_server_world(
            _config(dict(seed=0, trace=True), config_overrides),
            scenario=scenario,
        )
        world.run_for(WORLD_RUN)
        if probe is not None:
            probe(world.kernel)
        result = fingerprint(world.kernel)
        world.shutdown()
        return result

    return run


def _cluster_scenario(scenario):
    """The sharded cluster world: balancer, WFQ admission, two shards."""

    def run(config_overrides: dict | None = None, probe: Probe | None = None) -> dict:
        from repro.cluster.world import build_cluster_world

        world, _balancer = build_cluster_world(
            _config(dict(seed=0, trace=True, ncpus=2), config_overrides),
            scenario=scenario,
        )
        world.run_for(WORLD_RUN)
        if probe is not None:
            probe(world.kernel)
        result = fingerprint(world.kernel)
        world.shutdown()
        return result

    return run


def _cluster_replicated_scenario(kill: bool):
    """The replicated cluster: log shipping, lease, standby — and, with
    ``kill``, a posted mid-run primary kill driving a full promotion.
    Pinning both proves the whole failover path (op-log ship/apply,
    replay, lease renewal) is itself deterministic."""

    def run(config_overrides: dict | None = None, probe: Probe | None = None) -> dict:
        from repro.cluster.replication import install_primary_kill
        from repro.cluster.world import build_cluster_world

        world, balancer = build_cluster_world(
            _config(dict(seed=0, trace=True, ncpus=2), config_overrides),
            scenario="failover",
            shards=1,
            replicas=True,
        )
        if kill:
            install_primary_kill(world, balancer, 0, msec(100))
        world.run_for(WORLD_RUN)
        if probe is not None:
            probe(world.kernel)
        result = fingerprint(world.kernel)
        world.shutdown()
        return result

    return run


def _workload_scenario(scenario):
    """A compiled workload scenario: aggregate NHPP arrival pumps over
    the cluster (plus, for cache scenarios, the cache tier).  Pinning
    these proves the thinning pumps, the resubmit sinks and the cache's
    fill/invalidation machinery are deterministic end to end."""

    def run(config_overrides: dict | None = None, probe: Probe | None = None) -> dict:
        from repro.workload.scenarios import workload_spec
        from repro.workload.world import build_workload_world

        spec = workload_spec(scenario)
        ncpus = spec.shards + (1 if spec.cache else 0)
        ww = build_workload_world(
            _config(dict(seed=0, trace=True, ncpus=ncpus), config_overrides),
            spec=spec,
        )
        ww.world.run_for(WORLD_RUN)
        if probe is not None:
            probe(ww.world.kernel)
        result = fingerprint(ww.world.kernel)
        ww.world.shutdown()
        return result

    return run


SCENARIOS: dict[str, Callable[..., dict]] = {
    "cedar-idle": _world_scenario(build_cedar_world, CEDAR_ACTIVITIES, "idle"),
    "cedar-keyboard": _world_scenario(
        build_cedar_world, CEDAR_ACTIVITIES, "keyboard"
    ),
    "cedar-formatting": _world_scenario(
        build_cedar_world, CEDAR_ACTIVITIES, "formatting"
    ),
    "gvx-idle": _world_scenario(build_gvx_world, GVX_ACTIVITIES, "idle"),
    "gvx-keyboard": _world_scenario(build_gvx_world, GVX_ACTIVITIES, "keyboard"),
    "spurious-immediate": _spurious_scenario("immediate"),
    "spurious-deferred": _spurious_scenario("deferred"),
    "donations": _donation_scenario,
    "fork-churn": _fork_churn_scenario,
    "timed-waits": _timed_waits_scenario,
    "multiprocessor": _multiprocessor_scenario,
    "fair-share": _fair_share_scenario,
    "weak-memory": _weak_memory_scenario,
    "server-steady": _server_scenario("steady"),
    "server-overload": _server_scenario("overload"),
    "cluster-steady": _cluster_scenario("steady"),
    "cluster-skewed": _cluster_scenario("skewed"),
    "cluster-replicated": _cluster_replicated_scenario(kill=False),
    "cluster-failover": _cluster_replicated_scenario(kill=True),
    "workload-diurnal": _workload_scenario("diurnal"),
    "cache-steady": _workload_scenario("cache-steady"),
}


# ---------------------------------------------------------------------------
# Pinning machinery
# ---------------------------------------------------------------------------

def load_golden(path: Path | None = None) -> dict:
    path = path or default_golden_path()
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def regenerate_golden(path: Path | None = None) -> dict:
    """Recompute every scenario fingerprint and rewrite the pinned file."""
    path = path or default_golden_path()
    golden: dict[str, Any] = {name: run() for name, run in SCENARIOS.items()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return golden
