"""Golden-schedule scenarios and fingerprinting, as a library.

The determinism guard (``tests/test_golden_schedule.py``) pins SHA-256
digests of twenty-one scenarios' full trace streams and final statistics.
This module holds the scenario bodies, the world builders and the
fingerprint function.  The chaos sweep and the explorer build their
worlds through the same builders (``world_builder``, ``server_builder``,
``cluster_builder``, ``workload_builder``), and other consumers run the
same scenarios under varied configuration:

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
#: ``build(config) -> (kernel, shutdown)``: how every harness makes a world.
Build = Callable[[KernelConfig], tuple]


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
# World builders
# ---------------------------------------------------------------------------
# Each builder takes a KernelConfig and returns (kernel, shutdown).  The
# golden scenarios below, the chaos sweep and the explorer all build
# their worlds through these, so the three agree on what a world is.

def world_builder(builder, activities, activity) -> Build:
    """A Cedar or GVX world running one of its Table 1-3 activities."""

    def build(config: KernelConfig):
        world, context = builder(config)
        install = activities[activity]
        if install is not None:
            install(world, context)
        return world.kernel, world.shutdown

    return build


def server_builder(scenario: str) -> Build:
    """The multi-tenant RPC server world (steady-state or overload)."""

    def build(config: KernelConfig):
        world, _server = build_server_world(config, scenario=scenario)
        return world.kernel, world.shutdown

    return build


def cluster_builder(scenario: str) -> Build:
    """The sharded cluster world: balancer, WFQ admission, two shards."""

    def build(config: KernelConfig):
        from repro.cluster.world import build_cluster_world

        config.ncpus = 2
        world, _balancer = build_cluster_world(config, scenario=scenario)
        return world.kernel, world.shutdown

    return build


def workload_builder(scenario: str) -> Build:
    """A compiled workload scenario: aggregate NHPP arrival pumps over
    the cluster (plus, for cache scenarios, the cache tier)."""

    def build(config: KernelConfig):
        from repro.workload.scenarios import workload_spec
        from repro.workload.world import build_workload_world

        spec = workload_spec(scenario)
        config.ncpus = spec.shards + (1 if spec.cache else 0)
        ww = build_workload_world(config, spec=spec)
        return ww.world.kernel, ww.world.shutdown

    return build


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def _golden(build: Build, duration: int = WORLD_RUN, **base: Any) -> Callable[..., dict]:
    """Run ``build`` for ``duration`` with tracing on and fingerprint it.

    ``base`` holds the scenario's own ``KernelConfig`` fields, under the
    caller's ``config_overrides``.
    """

    def run(config_overrides: dict | None = None, probe: Probe | None = None) -> dict:
        kernel, shutdown = build(
            _config(dict(seed=0, trace=True, **base), config_overrides)
        )
        kernel.run_for(duration)
        if probe is not None:
            probe(kernel)
        result = fingerprint(kernel)
        shutdown()
        return result

    return run


def _spurious(config: KernelConfig):
    """The Section-6.1 producer/consumer across a priority boundary."""
    kernel = Kernel(config)
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
    return kernel, kernel.shutdown


def _donations(config: KernelConfig):
    """YieldButNotToMe and directed yields across priorities (§5.2, §6.2)."""
    kernel = Kernel(config)
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
    return kernel, kernel.shutdown


def _fork_churn(config: KernelConfig):
    """Fork/join churn that exhausts thread slots (§5.4 resource waits)."""
    kernel = Kernel(config)

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
    return kernel, kernel.shutdown


def _timed_waits(config: KernelConfig):
    """Every timed-wait kind: sleeps, CV timeouts, channel timeouts."""
    kernel = Kernel(config)
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
    return kernel, kernel.shutdown


def _multiprocessor(config: KernelConfig):
    """Two CPUs, mixed priorities, contention and preemption."""
    kernel = Kernel(config)
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
    return kernel, kernel.shutdown


def _fair_share(config: KernelConfig):
    """The Section-7 lottery policy: different code path entirely."""
    kernel = Kernel(config)
    progress = {}

    def worker(tag):
        progress[tag] = 0
        while True:
            yield p.Compute(msec(3))
            progress[tag] += 1

    for tag, prio in [("a", 1), ("b", 4), ("c", 7)]:
        kernel.fork_root(worker, args=(tag,), name=tag, priority=prio)
    return kernel, kernel.shutdown


def _weak_memory(config: KernelConfig):
    """Weak ordering (``pso``) with fences and monitor-implied barriers (§5.5)."""
    from repro.kernel.memory import SimVar

    kernel = Kernel(config)
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
    return kernel, kernel.shutdown


def _cluster_replicated(kill: bool) -> Build:
    """The replicated cluster: log shipping, lease, standby — and, with
    ``kill``, a posted mid-run primary kill driving a full promotion.
    Pinning both proves the whole failover path (op-log ship/apply,
    replay, lease renewal) is itself deterministic."""

    def build(config: KernelConfig):
        from repro.cluster.replication import install_primary_kill
        from repro.cluster.world import build_cluster_world

        world, balancer = build_cluster_world(
            config, scenario="failover", shards=1, replicas=True
        )
        if kill:
            install_primary_kill(world, balancer, 0, msec(100))
        return world.kernel, world.shutdown

    return build


SCENARIOS: dict[str, Callable[..., dict]] = {
    "cedar-idle": _golden(world_builder(build_cedar_world, CEDAR_ACTIVITIES, "idle")),
    "cedar-keyboard": _golden(
        world_builder(build_cedar_world, CEDAR_ACTIVITIES, "keyboard")
    ),
    "cedar-formatting": _golden(
        world_builder(build_cedar_world, CEDAR_ACTIVITIES, "formatting")
    ),
    "gvx-idle": _golden(world_builder(build_gvx_world, GVX_ACTIVITIES, "idle")),
    "gvx-keyboard": _golden(
        world_builder(build_gvx_world, GVX_ACTIVITIES, "keyboard")
    ),
    "spurious-immediate": _golden(
        _spurious, sec(5), notify_semantics="immediate"
    ),
    "spurious-deferred": _golden(_spurious, sec(5), notify_semantics="deferred"),
    "donations": _golden(_donations, sec(1)),
    "fork-churn": _golden(
        _fork_churn, sec(2), max_threads=8, fork_failure="wait"
    ),
    "timed-waits": _golden(_timed_waits, sec(2)),
    "multiprocessor": _golden(_multiprocessor, sec(1), ncpus=2),
    "fair-share": _golden(_fair_share, sec(1), scheduler_policy="fair_share"),
    "weak-memory": _golden(_weak_memory, sec(1), ncpus=2, memory_model="pso"),
    "server-steady": _golden(server_builder("steady")),
    "server-overload": _golden(server_builder("overload")),
    "cluster-steady": _golden(cluster_builder("steady")),
    "cluster-skewed": _golden(cluster_builder("skewed")),
    "cluster-replicated": _golden(_cluster_replicated(kill=False), ncpus=2),
    "cluster-failover": _golden(_cluster_replicated(kill=True), ncpus=2),
    "workload-diurnal": _golden(workload_builder("diurnal")),
    "cache-steady": _golden(workload_builder("cache-steady")),
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
