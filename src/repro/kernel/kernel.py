"""The simulated PCR kernel: event loop and trap handlers.

This module implements the thread model of Section 2 of the paper as a
deterministic discrete-event simulation:

* threads are Python generators; they yield :mod:`repro.kernel.primitives`
  traps and the kernel resumes them with results;
* time is an integer microsecond clock that advances only between events,
  so every scheduling decision is exactly reproducible;
* the scheduler is strict-priority with round-robin at each level, a
  configurable timeslice (PCR: 50 ms), and preemption "even if [the
  running thread] holds monitor locks";
* CV timeouts and sleeps wake at scheduler ticks, giving them the
  timeslice granularity Section 6.3 analyses;
* NOTIFY follows either the paper's deferred-rescheduling fix or the
  original immediate behaviour that produced spurious lock conflicts
  (Section 6.1), selected by ``KernelConfig.notify_semantics``.

On a uniprocessor run (``ncpus=1``, the default and the configuration the
paper studies most) the simulation is sequentially consistent by
construction; ``ncpus > 1`` models a multiprocessor at event granularity.
"""

from __future__ import annotations

import enum
import heapq
import inspect
import itertools
import weakref
from typing import Any, Callable

from repro.kernel import instrumentation as instr
from repro.kernel.channel import Channel
from repro.kernel.config import (
    DEFAULT_PRIORITY,
    FORK_FAILURE_RAISE,
    MAX_PRIORITY,
    MIN_PRIORITY,
    NOTIFY_DEFERRED,
    WAKES_AT_LEAST_ONE,
    KernelConfig,
)
from repro.kernel.errors import (
    Deadlock,
    ForkFailed,
    JoinProtocolError,
    KernelUsageError,
    MonitorProtocolError,
    ThreadKilled,
    UncaughtThreadError,
)
from repro.kernel.events import EventHeap
from repro.kernel.instrumentation import Tracer
from repro.kernel.memory import create_memory_model
from repro.kernel.primitives import (
    Annotate,
    Broadcast,
    Channelreceive,
    Compute,
    Detach,
    DirectedYield,
    Enter,
    Exit,
    Fence,
    Fork,
    GetSelf,
    GetTime,
    Join,
    MemRead,
    MemWrite,
    Notify,
    Pause,
    SetPriority,
    Trap,
    Wait,
    Yield,
    YieldButNotToMe,
)
from repro.kernel.scheduler import Cpu, Scheduler
from repro.kernel.stats import GlobalStats, ThreadRecord
from repro.kernel.rng import DeterministicRng
from repro.kernel.thread import SimThread, ThreadState


class _Outcome(enum.Enum):
    """What a trap handler did with the running thread."""

    CONTINUE = "continue"  # handled instantly; keep resuming the generator
    BURN = "burn"          # thread has pending_compute to burn on the CPU
    SUSPEND = "suspend"    # thread left the CPU (blocked/yielded/finished)


#: Guard against zero-cost scheduling livelock (e.g. a thread that yields
#: in a tight loop with switch_cost=0): maximum dispatches at one instant.
_MAX_DISPATCHES_PER_INSTANT = 100_000

#: Every live Kernel, so test harnesses can shut down abandoned ones
#: (closing thread generators cleanly) without tracking them by hand.
_LIVE_KERNELS: "weakref.WeakSet" = weakref.WeakSet()


def shutdown_all_kernels() -> None:
    """Shut down every kernel still alive (test-teardown hook)."""
    for kernel in list(_LIVE_KERNELS):
        kernel.shutdown()


def _close_all_bodies(threads: dict) -> None:
    """GC-time fallback for kernels never explicitly shut down."""
    for thread in threads.values():
        if thread.state is not ThreadState.DONE:
            _drain_close(thread.body)


def _drain_close(body: Any) -> None:
    """Force-close a suspended thread generator.

    Thread bodies legitimately yield Exit traps from ``finally`` blocks;
    during ``close()`` those yields surface as "generator ignored
    GeneratorExit".  We resume the generator with None (the trap's normal
    result) and retry until the frame unwinds.
    """
    for _ in range(64):
        try:
            body.close()
            return
        except RuntimeError:
            try:
                body.send(None)
            except BaseException:  # noqa: BLE001 - teardown of dead sim
                return
    raise RuntimeError("thread generator would not unwind during shutdown")


class Kernel:
    """A simulated machine: scheduler, clock, threads, devices."""

    def __init__(self, config: KernelConfig | None = None) -> None:
        self.config = config or KernelConfig()
        self.now = 0
        self.rng = DeterministicRng(self.config.seed)
        #: Schedule-exploration seam (repro.explore), or None.  Attached
        #: before the scheduler and fault injector so both route their
        #: nondeterministic choice points through it.
        self.controller = self.config.schedule_controller
        if self.controller is not None:
            self.controller.attach(self)
        self.scheduler = Scheduler(
            self.config.ncpus,
            policy=self.config.scheduler_policy,
            rng=self.rng.fork("scheduler"),
        )
        self.scheduler.controller = self.controller
        self.events = EventHeap()
        self.tracer = Tracer(self.config.trace, self.config.trace_categories)
        # Per-category trace flags, precomputed so hot paths skip even
        # argument construction when a category is off (the common case:
        # tracing disabled entirely).  The golden-schedule tests pin that
        # traced runs still record the identical event stream.
        tracer = self.tracer
        self._trace_switch = tracer.wants(instr.CAT_SWITCH)
        self._trace_tick = tracer.wants(instr.CAT_TICK)
        self._trace_monitor = tracer.wants(instr.CAT_MONITOR)
        self._trace_cv = tracer.wants(instr.CAT_CV)
        self._trace_yield = tracer.wants(instr.CAT_YIELD)
        self._trace_sleep = tracer.wants(instr.CAT_SLEEP)
        self._trace_channel = tracer.wants(instr.CAT_CHANNEL)
        self._trace_fork = tracer.wants(instr.CAT_FORK)
        self._trace_end = tracer.wants(instr.CAT_END)
        self._trace_fault = tracer.wants(instr.CAT_FAULT)
        self._trace_watchdog = tracer.wants(instr.CAT_WATCHDOG)
        self.stats = GlobalStats()
        self.threads: dict[int, SimThread] = {}
        self._tid_counter = itertools.count(1)
        #: Timed waiters: (deadline, seq, thread, epoch, kind); woken lazily
        #: at scheduler ticks (timeouts have timeslice granularity).
        self._timed: list[tuple[int, int, SimThread, int, str]] = []
        self._timed_seq = itertools.count()
        #: Threads blocked in FORK awaiting thread resources (§5.4 "wait").
        self._fork_waiters: list[tuple[SimThread, Fork]] = []
        #: Uncaught errors of threads nobody joined.
        self.pending_thread_errors: list[UncaughtThreadError] = []
        self._dispatches_this_instant = 0
        self._instant = -1

        self.memory = create_memory_model(self.config, self.rng.fork("memory"))
        #: Seeded fault injector (repro.analysis.faults), or None.  Draws
        #: from a forked RNG stream, so a plan with all rates at zero is
        #: schedule-identical to no plan at all.
        self.faults = None
        if self.config.fault_plan is not None:
            from repro.analysis.faults import FaultInjector

            self.faults = FaultInjector(
                self, self.config.fault_plan, self.rng.fork("faults")
            )
        #: Passive observers (repro.kernel.observer), also kept as result
        #: handles that are None when off: the race detector (Eraser
        #: lockset + happens-before) and the waits-for watchdog.  Imported
        #: lazily: analysis depends on the kernel, not vice versa.
        self.race_detector = self.watchdog = None
        if self.config.race_detection:
            from repro.analysis.races import RaceDetector

            self.race_detector = RaceDetector(self)
        if self.config.watchdog:
            from repro.analysis.watchdog import Watchdog

            self.watchdog = Watchdog(self)
        #: Every hook site tests this tuple once, then calls each observer.
        self._observers = tuple(
            o for o in (self.race_detector, self.watchdog) if o is not None
        )
        _LIVE_KERNELS.add(self)
        # If the kernel is garbage-collected without shutdown(), close the
        # thread generators cleanly so their monitor-releasing `finally`
        # blocks do not surface as "ignored GeneratorExit" noise.
        self._finalizer = weakref.finalize(
            self, _close_all_bodies, self.threads
        )

    # ------------------------------------------------------------------
    # Public host API
    # ------------------------------------------------------------------

    def fork_root(
        self,
        proc: Callable[..., Any],
        args: tuple = (),
        kwargs: dict | None = None,
        *,
        name: str | None = None,
        priority: int = DEFAULT_PRIORITY,
        role: str | None = None,
        detached: bool = True,
    ) -> SimThread:
        """Create a generation-0 thread from host (non-thread) context.

        Root threads default to detached because the host cannot JOIN
        (JOIN is a trap available only to simulated threads).
        """
        thread = self._create_thread(
            proc, args, kwargs or {}, name=name, priority=priority,
            parent=None, role=role, detached=detached,
        )
        self.scheduler.make_ready(thread)
        return thread

    def channel(self, name: str) -> Channel:
        """Create a device channel bound to this kernel."""
        return Channel(name).bind(self)

    def post_at(self, when: int, action: Callable[["Kernel"], None]) -> int:
        """Run ``action(kernel)`` at absolute sim time ``when``."""
        if when < self.now:
            raise ValueError(f"cannot post into the past ({when} < {self.now})")
        return self.events.push(when, action)

    def post_every(
        self,
        period: int,
        action: Callable[["Kernel"], None],
        *,
        start: int | None = None,
        until: int | None = None,
    ) -> None:
        """Run ``action`` every ``period`` µs, starting at ``start``
        (default: one period from now), until ``until`` (default: forever).
        """
        if period <= 0:
            raise ValueError("period must be positive")
        first = start if start is not None else self.now + period
        if until is not None and first > until:
            return  # ``until`` bounds every firing, including the first

        def recur(kernel: "Kernel") -> None:
            action(kernel)
            next_time = kernel.now + period
            if until is None or next_time <= until:
                kernel.events.push(next_time, recur)

        self.events.push(first, recur)

    def run_for(self, duration: int, **kwargs: Any) -> int:
        """Advance the simulation by ``duration`` µs."""
        return self.run_until(self.now + duration, **kwargs)

    def run_until(
        self,
        t_end: int,
        *,
        raise_on_deadlock: bool = True,
        stop_when: Callable[["Kernel"], bool] | None = None,
    ) -> int:
        """Advance the simulation to ``t_end`` µs (absolute).

        Returns the final clock value.  Raises :class:`Deadlock` if live
        threads exist but nothing can ever run again.  Re-raises the first
        uncaught thread error at the end of the run when the config asks
        for propagation.

        ``stop_when`` is evaluated after each processed instant (post
        watchdog sweep); returning True ends the run early *without*
        fast-forwarding the clock to ``t_end`` — the exploration driver
        uses it to abandon dead schedules the moment a deadlock is
        confirmed instead of grinding ticks to the horizon.
        """
        if t_end < self.now:
            raise ValueError(f"cannot run backwards ({t_end} < {self.now})")
        events = self.events
        scheduler = self.scheduler
        cpus = scheduler.cpus
        quantum = self.config.quantum
        preemptive = scheduler.policy != "fair_share"
        observers = self._observers
        stopped = False
        while True:
            # One sweep over the CPUs finds the earliest burst end, the
            # CPUs due then, and whether an idle CPU has anything to take
            # (a ready thread, or a donation that may be spent).  Only
            # then does the dispatch run, and the sweep repeats after it.
            while True:
                t_busy = due = None
                running = dispatch = False
                for cpu in cpus:
                    if cpu.current is None:
                        if scheduler.best_ready or cpu.donee is not None:
                            dispatch = True
                        continue
                    running = True
                    busy_until = cpu.busy_until
                    if busy_until is None:
                        continue
                    if t_busy is None or busy_until < t_busy:
                        t_busy = busy_until
                        due = [cpu]
                    elif busy_until == t_busy:
                        due.append(cpu)
                if not dispatch:
                    break
                self._dispatch_idle_cpus()
            t_next = events.next_time()
            if t_busy is not None and (t_next is None or t_busy < t_next):
                t_next = t_busy
            # Ticks matter only when a timeout can fire, when rotation or
            # donation expiry can change a decision (a lone runner is
            # never rotated), or when tick-driven faults sample the world
            # (a FORK feigned-failed into the wait queue is released at
            # the next tick, so fault injection ticks through idle spells).
            if (
                self._timed
                or (running and scheduler.best_ready)
                or (
                    self.faults is not None
                    and (self.faults.plan.wants_ticks or self._fork_waiters)
                )
            ):
                tick = (self.now // quantum + 1) * quantum
                if t_next is None or tick < t_next:
                    t_next = tick
            if t_next is None:
                if raise_on_deadlock and self._is_deadlocked():
                    raise self._make_deadlock()
                break
            if t_next > t_end:
                break
            self.now = now = t_next
            if t_busy == now:
                # Due bursts complete in CPU-index order.
                for cpu in due:
                    thread = cpu.current
                    thread.pending_compute = 0
                    cpu.busy_until = None
                    cpu.burst_start = None
                    self._continue_thread(cpu, thread)
            if now % quantum == 0 and now > 0:
                self._on_tick()
            for action in events.pop_due(now):
                action(self)
            if observers:
                for observer in observers:
                    observer.on_instant(now)
            if preemptive and scheduler.best_ready:
                for cpu in cpus:
                    thread = cpu.current
                    if thread is not None and scheduler.best_ready > thread.priority:
                        self._preempt(cpu, thread)
            if stop_when is not None and stop_when(self):
                stopped = True
                break
        if not stopped:
            self.now = max(self.now, t_end)
        self._propagate_errors()
        return self.now

    @property
    def live_threads(self) -> list[SimThread]:
        return [t for t in self.threads.values() if t.alive]

    def shutdown(self) -> None:
        """Tear the simulation down: force-close every live thread body.

        After shutdown the kernel must not be run again.  Idempotent.
        Called automatically by test harnesses via
        :func:`shutdown_all_kernels` so abandoned generators do not emit
        "ignored GeneratorExit" noise at garbage collection.
        """
        for thread in self.threads.values():
            if thread.alive:
                _drain_close(thread.body)
                thread.state = ThreadState.DONE
                thread.ended_at = self.now
                # Reconcile the live-thread accounting so post-shutdown
                # snapshots balance (created == finished + live, stacks
                # returned), but keep force-killed threads out of
                # ``lifetimes`` — they did not end naturally.
                self.stats.threads_finished += 1
                self.stats.live_threads -= 1
                self.stats.stack_bytes -= self.config.stack_reservation
        self.pending_thread_errors.clear()
        self._finalizer.detach()  # explicit shutdown supersedes GC cleanup
        _LIVE_KERNELS.discard(self)

    def __enter__(self) -> "Kernel":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Clock and dispatch machinery
    # ------------------------------------------------------------------

    def _on_tick(self) -> None:
        """Scheduler tick: expire donations, fire timeouts, round-robin."""
        self.stats.ticks += 1
        if self._trace_tick:
            self.tracer.record(self.now, instr.CAT_TICK, "tick", "-")
        if self.faults is not None:
            self.faults.on_tick()
            if self._fork_waiters:
                # A feigned resource exhaustion clears by the next tick
                # (capacity permitting), so forced fork-waits are bounded.
                self._release_fork_waiter()
        self.scheduler.clear_donations()
        self._wake_due_timed()
        fair_share = self.scheduler.policy == "fair_share"
        for cpu in self.scheduler.cpus:
            thread = cpu.current
            if thread is None:
                continue
            best = self.scheduler.highest_ready_priority()
            if best is None:
                continue
            # Strict policy: rotate among >= priority.  Fair share: every
            # tick is a fresh lottery, so any competition rotates.
            if fair_share or best >= thread.priority:
                self._interrupt_burst(cpu)
                self._off_cpu(cpu, thread)
                self.scheduler.make_ready(thread)

    def _wake_due_timed(self) -> None:
        while self._timed and self._timed[0][0] <= self.now:
            _deadline, _seq, thread, epoch, kind = heapq.heappop(self._timed)
            if thread.wait_epoch != epoch or not thread.alive:
                continue  # already woken by notify/post; entry is stale
            if kind == "cv":
                self._timeout_cv_wait(thread)
            elif kind == "sleep":
                thread.pending_send = None
                self.scheduler.make_ready(thread)
                if self._trace_sleep:
                    self.tracer.record(
                        self.now, instr.CAT_SLEEP, "wake", thread.name
                    )
            elif kind == "channel":
                channel: Channel = thread.blocked_on
                channel.waiters.remove(thread)
                self.stats.channel_timeouts += 1
                thread.pending_send = None
                self.scheduler.make_ready(thread)
                if self._trace_channel:
                    self.tracer.record(
                        self.now, instr.CAT_CHANNEL, "timeout",
                        thread.name, channel.name,
                    )
            else:  # pragma: no cover - exhaustive kinds
                raise AssertionError(f"unknown timed-wait kind {kind!r}")

    def _timeout_cv_wait(self, thread: SimThread) -> None:
        cv = thread.blocked_on
        cv.waiters.remove(thread)
        cv.timeouts += 1
        self.stats.cv_timeouts += 1
        thread.stats.cv_timeouts += 1
        thread.wake_was_notify = False
        thread.pending_send = False  # WAIT returns False on timeout
        thread.resume_action = ("reacquire", cv.monitor, False)
        self.scheduler.make_ready(thread)
        if self._trace_cv:
            self.tracer.record(
                self.now, instr.CAT_CV, "timeout", thread.name, cv.name
            )

    def _dispatch_idle_cpus(self) -> None:
        if self.now != self._instant:
            self._instant = self.now
            self._dispatches_this_instant = 0
        progress = True
        while progress:
            progress = False
            for cpu in self.scheduler.cpus:
                if cpu.current is not None:
                    continue
                thread = self.scheduler.take_next(cpu)
                if thread is None:
                    continue
                self._dispatches_this_instant += 1
                if self._dispatches_this_instant > _MAX_DISPATCHES_PER_INSTANT:
                    raise KernelUsageError(
                        "scheduling livelock: >100000 dispatches without "
                        "simulated time advancing (a thread is probably "
                        "yielding in a loop with zero switch cost)"
                    )
                self._run_on(cpu, thread)
                progress = True

    def _run_on(self, cpu: Cpu, thread: SimThread) -> None:
        """Put a thread on a CPU and push it forward."""
        thread.state = ThreadState.RUNNING
        if cpu.last_thread is not thread:
            self.stats.switches += 1
            # Model the switch cost as a CPU burst the incoming thread
            # burns before its own work; keeps multiprocessor time sane.
            if self.config.switch_cost:
                thread.pending_compute += self.config.switch_cost
        # Traced for every dispatch (not just switches) so consumers can
        # pair each dispatch with its offcpu event.
        if self._trace_switch:
            self.tracer.record(
                self.now, instr.CAT_SWITCH, "dispatch", thread.name, cpu.index
            )
        cpu.current = thread
        cpu.last_thread = thread
        thread.last_dispatched = self.now
        thread.stats.dispatches += 1
        self.stats.dispatches += 1
        if thread.pending_compute > 0:
            cpu.burst_start = self.now
            cpu.busy_until = self.now + thread.pending_compute
            return
        self._continue_thread(cpu, thread)

    def _continue_thread(self, cpu: Cpu, thread: SimThread) -> None:
        """Advance a thread that has finished burning CPU."""
        if thread.resume_action is not None:
            if not self._attempt_reacquire(cpu, thread):
                return  # blocked on the monitor entry queue
            if thread.pending_compute > 0:
                # Reacquisition charged monitor_overhead: burn it first.
                cpu.burst_start = self.now
                cpu.busy_until = self.now + thread.pending_compute
                return
        self._resume(cpu, thread)

    def _attempt_reacquire(self, cpu: Cpu, thread: SimThread) -> bool:
        """Monitor (re)acquisition after a wake — post-CV-wake, or after
        a monitor exit made this queued thread runnable to compete.

        ``thread.pending_send`` was set when the thread blocked (None for
        a plain Enter, the wait result for a CV wake) and is preserved
        across failed attempts.
        """
        _kind, monitor, was_notify = thread.resume_action
        thread.resume_action = None
        if monitor.owner is None:
            monitor.owner = thread
            thread.held_monitors.append(monitor)
            if self._observers:
                for observer in self._observers:
                    observer.on_acquire(thread, monitor)
            # Charge the same lock-bookkeeping cost an uncontended Enter
            # pays; without this a contended acquisition would be cheaper.
            if self.config.monitor_overhead:
                thread.pending_compute += self.config.monitor_overhead
            return True
        # The monitor is held: this trip through the scheduler was useless.
        if was_notify:
            self.stats.spurious_conflicts += 1
            if self._trace_monitor:
                self.tracer.record(
                    self.now, instr.CAT_MONITOR, "spurious",
                    thread.name, monitor.name,
                )
        self._block_current(cpu, thread, ThreadState.BLOCKED_MONITOR, monitor)
        monitor.entry_queue.append(thread)
        return False

    def _resume(self, cpu: Cpu, thread: SimThread) -> None:
        """Drive the generator through zero-time traps until it burns CPU,
        blocks, yields, or finishes."""
        scheduler = self.scheduler
        while True:
            if scheduler.best_ready > thread.priority and self._preempt(cpu, thread):
                return
            try:
                if thread.pending_throw is not None:
                    error = thread.pending_throw
                    thread.pending_throw = None
                    trap = thread.body.throw(error)
                else:
                    value = thread.pending_send
                    thread.pending_send = None
                    trap = thread.body.send(value)
            except StopIteration as stop:
                self._finish(cpu, thread, stop.value, None)
                return
            except KernelUsageError:
                raise
            except Exception as error:  # noqa: BLE001 - thread death boundary
                self._finish(cpu, thread, None, error)
                return
            if not isinstance(trap, Trap):
                raise KernelUsageError(
                    f"thread {thread.name!r} yielded {trap!r}, not a kernel trap"
                )
            outcome = _HANDLERS[type(trap)](self, cpu, thread, trap)
            if outcome is _Outcome.SUSPEND:
                return
            if outcome is _Outcome.BURN:
                if scheduler.best_ready > thread.priority and self._preempt(
                    cpu, thread
                ):
                    return
                cpu.burst_start = self.now
                cpu.busy_until = self.now + thread.pending_compute
                return
            # CONTINUE: handle the next trap at the same instant.

    def _preempt(self, cpu: Cpu, thread: SimThread) -> bool:
        """Preempt ``thread`` for a ready thread that outranks it.

        Callers have already seen ``scheduler.best_ready`` above the
        thread's priority, so the per-trap and per-instant fast paths
        stay a single integer comparison.  Strict priority only, and not
        while a donation pins the thread to this CPU.  A burst in
        progress is cut short and its unburned part kept.
        """
        if cpu.donee is thread or self.scheduler.policy == "fair_share":
            return False
        self._interrupt_burst(cpu)
        self.stats.preemptions += 1
        thread.stats.preemptions += 1
        self._off_cpu(cpu, thread)
        # Preempted threads keep their round-robin place: queue front.
        self.scheduler.make_ready(thread, front=True)
        if self._trace_switch:
            self.tracer.record(self.now, instr.CAT_SWITCH, "preempt", thread.name)
        return True

    def _interrupt_burst(self, cpu: Cpu) -> None:
        """Account a partially-completed compute burst."""
        thread = cpu.current
        if thread is None or cpu.busy_until is None:
            return
        consumed = self.now - cpu.burst_start
        thread.pending_compute = max(0, thread.pending_compute - consumed)
        cpu.busy_until = None
        cpu.burst_start = None

    def _off_cpu(self, cpu: Cpu, thread: SimThread) -> None:
        """Deschedule accounting: close the execution interval."""
        interval = self.now - thread.last_dispatched
        thread.stats.run_intervals.append(interval)
        thread.stats.cpu_time += interval
        self.stats.note_interval(interval, thread.priority)
        # A uniform leave-CPU marker so trace consumers can close run
        # spans regardless of *why* the thread left (block/yield/finish).
        if self._trace_switch:
            self.tracer.record(self.now, instr.CAT_SWITCH, "offcpu", thread.name)
        cpu.current = None
        cpu.busy_until = None
        cpu.burst_start = None

    def _block_current(
        self, cpu: Cpu, thread: SimThread, state: ThreadState, blocked_on: Any
    ) -> None:
        self._off_cpu(cpu, thread)
        thread.state = state
        thread.blocked_on = blocked_on
        if self._observers:
            for observer in self._observers:
                observer.on_block(thread)

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------

    def _create_thread(
        self,
        proc: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        *,
        name: str | None,
        priority: int,
        parent: SimThread | None,
        role: str | None,
        detached: bool,
    ) -> SimThread:
        if not (MIN_PRIORITY <= priority <= MAX_PRIORITY):
            raise KernelUsageError(f"priority {priority} outside 1..7")
        body = proc(*args, **kwargs)
        if not inspect.isgenerator(body):
            raise KernelUsageError(
                f"thread proc {proc!r} must be a generator function "
                "(a body that yields kernel traps)"
            )
        tid = next(self._tid_counter)
        thread = SimThread(
            tid=tid,
            name=name or f"{proc.__name__}#{tid}",
            body=body,
            priority=priority,
            created_at=self.now,
            parent=parent,
            role=role,
        )
        thread.detached = detached
        self.threads[tid] = thread
        self.stats.threads_created += 1
        self.stats.live_threads += 1
        self.stats.max_live_threads = max(
            self.stats.max_live_threads, self.stats.live_threads
        )
        self.stats.stack_bytes += self.config.stack_reservation
        self.stats.max_stack_bytes = max(
            self.stats.max_stack_bytes, self.stats.stack_bytes
        )
        self.stats.thread_log.append(
            ThreadRecord(
                tid=tid,
                name=thread.name,
                parent_tid=parent.tid if parent else None,
                generation=thread.generation,
                priority=priority,
                created_at=self.now,
                role=role,
            )
        )
        if self._trace_fork:
            self.tracer.record(
                self.now, instr.CAT_FORK, "create", thread.name,
                parent.name if parent else None,
            )
        if self._observers:
            for observer in self._observers:
                observer.on_fork(parent, thread)
        return thread

    def _finish(
        self, cpu: Cpu, thread: SimThread, value: Any, error: BaseException | None
    ) -> None:
        """End a thread that returned ``value`` or died of ``error``."""
        if thread.held_monitors:
            # An exception unwinding through user-level `finally` clauses
            # has already released monitors (Exit traps execute during the
            # throw); anything still held means the protocol was violated.
            names = [m.name for m in thread.held_monitors]
            how = (
                f"finished while holding {names}" if error is None
                else f"died holding {names}: {error!r}"
            )
            raise MonitorProtocolError(f"thread {thread.name!r} {how}") from error
        self._off_cpu(cpu, thread)
        thread.state = ThreadState.DONE
        thread.result = value
        thread.error = error
        thread.ended_at = self.now
        stats = self.stats
        stats.threads_finished += 1
        stats.live_threads -= 1
        stats.stack_bytes -= self.config.stack_reservation
        stats.lifetimes.append((thread.lifetime, thread.role))
        wrapped = None if error is None else UncaughtThreadError(thread.name, error)
        joiner = thread.joiner
        if joiner is not None:
            if self._observers:
                for observer in self._observers:
                    observer.on_join(joiner, thread)
            if wrapped is None:
                joiner.pending_send = value
            else:
                joiner.pending_throw = wrapped
            self.scheduler.make_ready(joiner)
        elif wrapped is not None and not isinstance(error, ThreadKilled):
            # Injected kills are faults, not workload bugs: an unjoined
            # victim's death must not fail the whole run at shutdown.
            self.pending_thread_errors.append(wrapped)
        if self._trace_end:
            self.tracer.record(
                self.now, instr.CAT_END, "finish" if error is None else "die",
                thread.name, None if error is None else repr(error),
            )
        self._release_fork_waiter()

    def _release_fork_waiter(self) -> None:
        """A thread slot freed up: unblock the oldest waiting FORK."""
        if not self._fork_waiters:
            return
        if self.stats.live_threads >= self.config.max_threads:
            return
        waiter, trap = self._fork_waiters.pop(0)
        child = self._create_thread(
            trap.proc, trap.args, trap.kwargs,
            name=trap.name,
            priority=trap.priority if trap.priority is not None else waiter.priority,
            parent=waiter, role=None, detached=trap.detached,
        )
        self.scheduler.make_ready(child)
        self.stats.forks += 1
        waiter.stats.forks_issued += 1
        waiter.forked_children.append(child.tid)
        waiter.pending_send = child
        self.scheduler.make_ready(waiter)

    #: States that indicate a genuine wedge when nothing can run: resource
    #: waits only other simulated threads could ever satisfy.
    _DEADLOCK_STATES = frozenset(
        {
            ThreadState.BLOCKED_MONITOR,
            ThreadState.JOINING,
            ThreadState.FORK_WAIT,
        }
    )

    def _is_deadlocked(self) -> bool:
        """Live threads exist, nothing can run, and someone is stuck on an
        internal resource.

        Threads blocked on device channels are *not* deadlocked — channels
        are the external-world boundary and host code may post to them in
        a later run (an idle world's eternal threads sit exactly there).
        Untimed CV waits without any runnable notifier are likewise the
        normal quiescent state of server threads, so they do not raise by
        themselves; but a thread queued on a monitor, a JOIN, or a FORK
        resource wait that can never resolve is a real wedge.
        """
        live = [t for t in self.threads.values() if t.alive]
        if not live:
            return False
        if any(t.state is ThreadState.RECEIVING for t in live):
            return False
        return any(t.state in self._DEADLOCK_STATES for t in live)

    def _make_deadlock(self) -> Deadlock:
        """Build the global-wedge :class:`Deadlock` with diagnosis rows.

        The table names, for every live thread, what it waits ON and who
        holds that resource (monitor owner, CV's monitor owner, join
        target) — ``describe_block`` only said what state a thread was in.
        Row formatting lives in :mod:`repro.analysis.watchdog` (lazy
        import: this is an error path, never hot) so the watchdog's
        partial-deadlock reports and the CLI table share it.
        """
        from repro.analysis.watchdog import deadlock_rows, format_rows

        rows = deadlock_rows(self.threads.values())
        message = (
            "no runnable threads and no pending events; blocked threads:\n"
            + format_rows(rows)
        )
        return Deadlock(message, rows=rows)

    def _propagate_errors(self) -> None:
        if self.config.propagate_thread_errors and self.pending_thread_errors:
            raise self.pending_thread_errors.pop(0)

    # ------------------------------------------------------------------
    # Channels (device boundary)
    # ------------------------------------------------------------------

    def _channel_post(self, channel: Channel, item: Any) -> None:
        self.stats.channel_posts += 1
        if self._trace_channel:
            self.tracer.record(
                self.now, instr.CAT_CHANNEL, "post", "-", channel.name
            )
        # A waiter with a pending kill will unwind at resume, not
        # receive: handing it the item would drop the item on the floor.
        # Skip doomed waiters — resumed empty-handed to die, while the
        # item goes to a live receiver (or the buffer).
        while channel.waiters and channel.waiters[0].pending_throw is not None:
            doomed = channel.waiters.popleft()
            doomed.wait_epoch += 1
            self.scheduler.make_ready(doomed)
        if channel.waiters:
            waiter = channel.waiters.popleft()
            waiter.wait_epoch += 1  # invalidate any receive timeout
            waiter.pending_send = item
            channel.receives += 1
            self.stats.channel_receives += 1
            self.scheduler.make_ready(waiter)
        else:
            channel.items.append(item)

    # ------------------------------------------------------------------
    # Trap handlers
    # ------------------------------------------------------------------

    def _h_compute(self, cpu: Cpu, thread: SimThread, trap: Compute) -> _Outcome:
        if trap.amount == 0:
            return _Outcome.CONTINUE
        thread.pending_compute += trap.amount
        return _Outcome.BURN

    def _h_fork(self, cpu: Cpu, thread: SimThread, trap: Fork) -> _Outcome:
        forced = (
            self.faults is not None
            and self.stats.live_threads < self.config.max_threads
            and self.faults.fail_fork()
        )
        if forced or self.stats.live_threads >= self.config.max_threads:
            if forced:
                self.faults.note("fork_fail", thread.name)
            self.stats.fork_failures += 1
            if self.config.fork_failure == FORK_FAILURE_RAISE:
                # The old systems "would raise an error when a FORK failed".
                thread.pending_throw = ForkFailed(
                    f"out of thread resources ({self.config.max_threads})"
                )
                return _Outcome.CONTINUE
            # "Our more recent implementations simply wait in the fork
            # implementation for more resources to become available."
            self.stats.fork_waits += 1
            self._block_current(cpu, thread, ThreadState.FORK_WAIT, "fork-resources")
            self._fork_waiters.append((thread, trap))
            return _Outcome.SUSPEND
        child = self._create_thread(
            trap.proc, trap.args, trap.kwargs,
            name=trap.name,
            priority=trap.priority if trap.priority is not None else thread.priority,
            parent=thread, role=None, detached=trap.detached,
        )
        self.scheduler.make_ready(child)
        self.stats.forks += 1
        thread.stats.forks_issued += 1
        thread.forked_children.append(child.tid)
        thread.pending_send = child
        return _Outcome.CONTINUE

    def _h_join(self, cpu: Cpu, thread: SimThread, trap: Join) -> _Outcome:
        target = trap.thread
        if target is thread:
            raise JoinProtocolError(f"{thread.name!r} cannot JOIN itself")
        if target.detached:
            raise JoinProtocolError(f"cannot JOIN detached thread {target.name!r}")
        if target.joined:
            raise JoinProtocolError(f"{target.name!r} JOINed more than once")
        target.joined = True
        self.stats.joins += 1
        if not target.alive:
            if self._observers:
                for observer in self._observers:
                    observer.on_join(thread, target)
            if target.error is not None:
                thread.pending_throw = UncaughtThreadError(target.name, target.error)
            else:
                thread.pending_send = target.result
            return _Outcome.CONTINUE
        target.joiner = thread
        self._block_current(cpu, thread, ThreadState.JOINING, target)
        return _Outcome.SUSPEND

    def _h_detach(self, cpu: Cpu, thread: SimThread, trap: Detach) -> _Outcome:
        target = trap.thread
        if target.joined:
            raise JoinProtocolError(f"cannot DETACH joined thread {target.name!r}")
        target.detached = True
        thread.pending_send = None
        return _Outcome.CONTINUE

    def _h_yield(self, cpu: Cpu, thread: SimThread, trap: Yield) -> _Outcome:
        self.stats.yields += 1
        thread.stats.yields += 1
        thread.pending_send = None
        self._off_cpu(cpu, thread)
        self.scheduler.make_ready(thread)
        if self._trace_yield:
            self.tracer.record(self.now, instr.CAT_YIELD, "yield", thread.name)
        return _Outcome.SUSPEND

    def _h_yield_but_not_to_me(
        self, cpu: Cpu, thread: SimThread, trap: YieldButNotToMe
    ) -> _Outcome:
        self.stats.yields += 1
        thread.stats.yields += 1
        thread.pending_send = None
        other = self.scheduler.peek_best_other(thread)
        if other is None:
            return _Outcome.CONTINUE  # nobody else to give the CPU to
        cpu.donee = other
        self._off_cpu(cpu, thread)
        self.scheduler.make_ready(thread)
        if self._trace_yield:
            self.tracer.record(
                self.now, instr.CAT_YIELD, "yield-but-not-to-me",
                thread.name, other.name,
            )
        return _Outcome.SUSPEND

    def _h_directed_yield(
        self, cpu: Cpu, thread: SimThread, trap: DirectedYield
    ) -> _Outcome:
        self.stats.directed_yields += 1
        thread.stats.yields += 1
        thread.pending_send = None
        target = trap.target
        if target.state is not ThreadState.READY:
            return _Outcome.CONTINUE  # target cannot use the donation
        cpu.donee = target
        self._off_cpu(cpu, thread)
        self.scheduler.make_ready(thread)
        if self._trace_yield:
            self.tracer.record(
                self.now, instr.CAT_YIELD, "directed-yield",
                thread.name, target.name,
            )
        return _Outcome.SUSPEND

    def _h_pause(self, cpu: Cpu, thread: SimThread, trap: Pause) -> _Outcome:
        self._block_current(cpu, thread, ThreadState.SLEEPING, "sleep")
        self._arm_timed(thread, self.now + trap.duration, "sleep")
        if self._trace_sleep:
            self.tracer.record(
                self.now, instr.CAT_SLEEP, "sleep", thread.name, trap.duration
            )
        return _Outcome.SUSPEND

    def _h_get_self(self, cpu: Cpu, thread: SimThread, trap: GetSelf) -> _Outcome:
        thread.pending_send = thread
        return _Outcome.CONTINUE

    def _h_get_time(self, cpu: Cpu, thread: SimThread, trap: GetTime) -> _Outcome:
        thread.pending_send = self.now
        return _Outcome.CONTINUE

    def _h_set_priority(
        self, cpu: Cpu, thread: SimThread, trap: SetPriority
    ) -> _Outcome:
        if not (MIN_PRIORITY <= trap.priority <= MAX_PRIORITY):
            raise KernelUsageError(f"priority {trap.priority} outside 1..7")
        previous = thread.priority
        thread.priority = trap.priority
        thread.pending_send = previous
        return _Outcome.CONTINUE

    def _h_annotate(self, cpu: Cpu, thread: SimThread, trap: Annotate) -> _Outcome:
        self.tracer.record(
            self.now, instr.CAT_ANNOTATE, trap.label, thread.name, trap.data
        )
        thread.pending_send = None
        return _Outcome.CONTINUE

    # -- shared memory (Section 5.5) ---------------------------------------

    def _h_mem_write(self, cpu: Cpu, thread: SimThread, trap: MemWrite) -> _Outcome:
        token = None
        if self._observers:
            # The race detector's write token travels with the stored
            # value so a later reader can report which write it observed.
            for observer in self._observers:
                written = observer.on_write(thread, trap.var, self.now)
                if written is not None:
                    token = written
        if self.controller is not None and self.memory.drainable:
            self._offer_mem_drains()
        self.memory.store(trap.var, trap.value, self.now, thread=thread, token=token)
        thread.pending_send = None
        return _Outcome.CONTINUE

    def _h_mem_read(self, cpu: Cpu, thread: SimThread, trap: MemRead) -> _Outcome:
        if self.controller is not None and self.memory.drainable:
            self._offer_mem_drains()
        value, token = self.memory.load_observed(trap.var, self.now, thread=thread)
        thread.pending_send = value
        if self._observers:
            for observer in self._observers:
                observer.on_read(thread, trap.var, self.now, observed=token)
        return _Outcome.CONTINUE

    def _h_fence(self, cpu: Cpu, thread: SimThread, trap: Fence) -> _Outcome:
        self._fence(thread)
        if self._observers:
            for observer in self._observers:
                observer.on_fence(thread)
        thread.pending_send = None
        return _Outcome.CONTINUE

    def _fence(self, thread: SimThread) -> None:
        if not self.memory.buffered:
            return  # strong ordering: fences are free no-ops
        self.memory.fence_cpu(thread=thread)

    def _offer_mem_drains(self) -> None:
        """Controller-visible store-buffer drains (``mem.drain`` sites).

        Before each memory access, every buffered store the model could
        legally commit next is offered to the schedule controller as one
        decision: choice 0 holds all buffers (the recorded default —
        buffers then drain only by age or fences, exactly as in an
        uncontrolled run), choice k commits option k.  Draining re-offers
        until the controller holds, so an explorer can flush any legal
        combination at any access boundary.
        """
        memory = self.memory
        controller = self.controller
        while True:
            options = memory.drain_options()
            if not options:
                return
            labels = ("hold buffers",) + tuple(label for _key, label in options)
            choice = controller.decide(
                "mem.drain", len(options) + 1, lambda _seq: 0, labels=labels
            )
            if choice == 0:
                return
            memory.drain_option(options[choice - 1][0], self.now)

    # -- monitors and condition variables ---------------------------------

    def _h_enter(self, cpu: Cpu, thread: SimThread, trap: Enter) -> _Outcome:
        monitor = trap.monitor
        # "The monitor implementation for weak ordering can use memory
        # barrier instructions to ensure that all monitor-protected data
        # access is consistent."
        self._fence(thread)
        monitor.enters += 1
        self.stats.ml_enters += 1
        thread.stats.monitor_enters += 1
        self.stats.monitors_used.add(monitor.uid)
        if self._trace_monitor:
            self.tracer.record(
                self.now, instr.CAT_MONITOR, "enter", thread.name, monitor.name
            )
        if monitor.owner is None:
            monitor.owner = thread
            thread.held_monitors.append(monitor)
            if self._observers:
                for observer in self._observers:
                    observer.on_acquire(thread, monitor)
            thread.pending_send = None
            if self.config.monitor_overhead:
                thread.pending_compute += self.config.monitor_overhead
                return _Outcome.BURN
            return _Outcome.CONTINUE
        if monitor.owner is thread:
            raise MonitorProtocolError(
                f"{thread.name!r} re-entered monitor {monitor.name!r} "
                "(Mesa monitors are not reentrant)"
            )
        monitor.blocks += 1
        self.stats.ml_contended += 1
        thread.stats.monitor_blocks += 1
        thread.pending_send = None
        self._block_current(cpu, thread, ThreadState.BLOCKED_MONITOR, monitor)
        monitor.entry_queue.append(thread)
        if self.config.monitor_priority_inheritance:
            self._donate_priority(monitor, thread)
        if self._trace_monitor:
            self.tracer.record(
                self.now, instr.CAT_MONITOR, "block", thread.name, monitor.name
            )
        return _Outcome.SUSPEND

    def _donate_priority(self, monitor: Any, blocker: SimThread) -> None:
        """Priority-inheritance ablation: boost the owner to the blocked
        thread's priority until it exits the monitor."""
        owner = monitor.owner
        if owner is None or owner.priority >= blocker.priority:
            return
        if monitor.boost_restore is None:
            monitor.boost_restore = owner.priority
        if owner.state is ThreadState.READY:
            self.scheduler.requeue_for_priority_change(owner, blocker.priority)
        else:
            owner.priority = blocker.priority

    def _h_exit(self, cpu: Cpu, thread: SimThread, trap: Exit) -> _Outcome:
        monitor = trap.monitor
        if monitor.owner is not thread:
            raise MonitorProtocolError(
                f"{thread.name!r} exited monitor {monitor.name!r} it does not hold"
            )
        thread.held_monitors.remove(monitor)
        self.stats.ml_exits += 1
        if self._observers:
            for observer in self._observers:
                observer.on_release(thread, monitor)
        if monitor.boost_restore is not None:
            # Inheritance ablation: drop back to the pre-boost priority.
            thread.priority = monitor.boost_restore
            monitor.boost_restore = None
        self._fence(thread)
        self._hand_off_monitor(monitor)
        if self._trace_monitor:
            self.tracer.record(
                self.now, instr.CAT_MONITOR, "exit", thread.name, monitor.name
            )
        thread.pending_send = None
        if self.config.monitor_overhead:
            thread.pending_compute += self.config.monitor_overhead
            return _Outcome.BURN
        return _Outcome.CONTINUE

    def _hand_off_monitor(self, monitor: Any) -> None:
        """Release a mutex: wake the first queued thread to *compete*.

        Mesa monitors release the lock and make the head waiter runnable;
        the waiter reacquires when scheduled ("threads must compete for
        the monitor's mutex").  Direct ownership handoff would create
        lock convoys: a high-priority thread re-entering immediately
        after exit would block on a lock owned by a thread that has not
        even run yet.  Competition also permits barging, exactly as the
        real implementation did.
        """
        monitor.owner = None
        if monitor.entry_queue:
            waiter = monitor.entry_queue.popleft()
            waiter.resume_action = ("reacquire", monitor, False)
            self.scheduler.make_ready(waiter)

    def _h_wait(self, cpu: Cpu, thread: SimThread, trap: Wait) -> _Outcome:
        cv = trap.condition
        monitor = cv.monitor
        if monitor.owner is not thread:
            raise MonitorProtocolError(
                f"{thread.name!r} WAITed on {cv.name!r} without holding "
                f"monitor {monitor.name!r}"
            )
        cv.waits += 1
        self.stats.cv_waits += 1
        thread.stats.cv_waits += 1
        self.stats.cvs_used.add(cv.uid)
        if self._trace_cv:
            self.tracer.record(
                self.now, instr.CAT_CV, "wait", thread.name, cv.name
            )
        # Atomically release the monitor...
        thread.held_monitors.remove(monitor)
        if self._observers:
            for observer in self._observers:
                observer.on_release(thread, monitor)
        self._hand_off_monitor(monitor)
        # ...and sleep on the condition.
        thread.wake_was_notify = False
        thread.wait_epoch += 1
        self._block_current(cpu, thread, ThreadState.WAITING_CV, cv)
        cv.waiters.append(thread)
        timeout = trap.timeout if trap.timeout is not None else cv.default_timeout
        if timeout is not None:
            self._arm_timed(thread, self.now + timeout, "cv")
        return _Outcome.SUSPEND

    def _h_notify(self, cpu: Cpu, thread: SimThread, trap: Notify) -> _Outcome:
        cv = trap.condition
        self._require_monitor_for_cv(thread, cv, "NOTIFY")
        cv.notifies += 1
        self.stats.cv_notifies += 1
        if self._trace_cv:
            self.tracer.record(
                self.now, instr.CAT_CV, "notify", thread.name, cv.name
            )
        if self._observers:
            for observer in self._observers:
                observer.on_notify(thread, cv)
        if (
            self.faults is not None
            and cv.waiters
            and self.faults.steal_notify()
        ):
            # The NOTIFY happened (counted, traced, race-ordered) but its
            # wakeup is lost — the §4.2 hazard that WAIT-in-a-loop code
            # with timeouts survives and IF-based code does not.
            self.faults.note("drop_notify", thread.name, cv.name)
            thread.pending_send = None
            return _Outcome.CONTINUE
        wake = 1
        if self.config.notify_wakes == WAKES_AT_LEAST_ONE and len(cv.waiters) > 1:
            if self.controller is not None:
                extra = self.controller.decide(
                    "sched.notify_extra",
                    2,
                    lambda _seq: int(
                        self.rng.chance(self.config.at_least_one_extra_prob)
                    ),
                )
            else:
                extra = self.rng.chance(self.config.at_least_one_extra_prob)
            if extra:
                wake = 2
        for _ in range(min(wake, len(cv.waiters))):
            self._wake_cv_waiter(cv)
        thread.pending_send = None
        return _Outcome.CONTINUE

    def _h_broadcast(self, cpu: Cpu, thread: SimThread, trap: Broadcast) -> _Outcome:
        cv = trap.condition
        self._require_monitor_for_cv(thread, cv, "BROADCAST")
        cv.broadcasts += 1
        self.stats.cv_broadcasts += 1
        if self._trace_cv:
            self.tracer.record(
                self.now, instr.CAT_CV, "broadcast", thread.name, cv.name
            )
        if self._observers:
            for observer in self._observers:
                observer.on_notify(thread, cv)
        while cv.waiters:
            self._wake_cv_waiter(cv)
        thread.pending_send = None
        return _Outcome.CONTINUE

    def _require_monitor_for_cv(self, thread: SimThread, cv: Any, op: str) -> None:
        """"The compiler enforces the rule that CV operations are only
        invoked with the monitor lock held" — we enforce it at runtime."""
        if cv.monitor.owner is not thread:
            raise MonitorProtocolError(
                f"{thread.name!r} invoked {op} on {cv.name!r} without holding "
                f"monitor {cv.monitor.name!r}"
            )

    def _wake_cv_waiter(self, cv: Any) -> None:
        waiter = cv.waiters.popleft()
        self._deliver_cv_wake(cv, waiter)

    def _inject_spurious_wake(self, thread: SimThread) -> None:
        """Fault injection: wake a CV waiter with no NOTIFY pending.

        The wake is indistinguishable from a notification to the waiter
        (WAIT returns True) — exactly the hazard that makes "re-check the
        predicate in a loop" mandatory (Section 4.2).  Unlike a real
        NOTIFY the waiter always re-competes for the mutex: the deferred
        path parks waiters on the notifier's entry queue awaiting its
        Exit, but a spurious wake has no notifier — the monitor may be
        unowned, and a parked waiter would strand there forever.
        """
        cv = thread.blocked_on
        cv.waiters.remove(thread)
        self.faults.note("spurious_wakeup", thread.name, cv.name)
        thread.wait_epoch += 1  # cancels the pending timeout lazily
        thread.wake_was_notify = True
        self.stats.cv_wakeups += 1
        thread.pending_send = True  # looks exactly like a notification
        thread.resume_action = ("reacquire", cv.monitor, False)
        self.scheduler.make_ready(thread)

    def _inject_kill(self, thread: SimThread, *, note: bool = True) -> None:
        """Fault injection: kill a thread at its next trap boundary.

        Delivered via ``pending_throw``, so the generator unwinds through
        its ``finally`` clauses — monitors are released like any other
        exception exit, and ``_finish_error`` still enforces that.

        ``note=False`` for *scripted* kills (directed chaos strikes):
        they are part of the scenario, not an injected fault, and must
        not perturb fault accounting or the trace merely because a
        (possibly zero-rate) fault plan happens to be installed.
        """
        thread.pending_throw = ThreadKilled(
            f"fault injection killed {thread.name!r} at {self.now}us"
        )
        if note and self.faults is not None:
            self.faults.note("kill", thread.name)

    def _deliver_cv_wake(self, cv: Any, waiter: SimThread) -> None:
        """Wake a thread already removed from ``cv.waiters``."""
        waiter.wait_epoch += 1  # cancels the pending timeout lazily
        waiter.wake_was_notify = True
        if self._observers:
            for observer in self._observers:
                observer.on_cv_wake(waiter, cv)
        waiter.stats.cv_notifies_received += 1
        self.stats.cv_wakeups += 1
        if self.config.notify_semantics == NOTIFY_DEFERRED:
            # The fix: the waiter goes straight onto the mutex entry queue
            # and becomes runnable only when the notifier exits the monitor.
            waiter.state = ThreadState.BLOCKED_MONITOR
            waiter.blocked_on = cv.monitor
            waiter.pending_send = True
            cv.monitor.entry_queue.append(waiter)
        else:
            # Original behaviour: made runnable immediately; it will run,
            # find the mutex held, and block — a spurious lock conflict.
            waiter.pending_send = True  # WAIT returns True when notified
            waiter.resume_action = ("reacquire", cv.monitor, True)
            self.scheduler.make_ready(waiter)

    def _h_channel_receive(
        self, cpu: Cpu, thread: SimThread, trap: Channelreceive
    ) -> _Outcome:
        channel = trap.channel
        if channel.items:
            thread.pending_send = channel.items.popleft()
            channel.receives += 1
            self.stats.channel_receives += 1
            return _Outcome.CONTINUE
        thread.wait_epoch += 1
        self._block_current(cpu, thread, ThreadState.RECEIVING, channel)
        channel.waiters.append(thread)
        if trap.timeout is not None:
            self._arm_timed(thread, self.now + trap.timeout, "channel")
        return _Outcome.SUSPEND

    def _arm_timed(self, thread: SimThread, deadline: int, kind: str) -> None:
        if self.faults is not None:
            jitter = self.faults.timer_jitter()
            if jitter:
                self.faults.note("timer_jitter", thread.name, jitter)
                deadline += jitter
        # Stamp the epoch so observers can tell a timed wait (self-waking,
        # never part of a deadlock cycle) from an untimed one.
        thread.timed_epoch = thread.wait_epoch
        heapq.heappush(
            self._timed,
            (deadline, next(self._timed_seq), thread, thread.wait_epoch, kind),
        )


#: Trap type -> unbound handler, built once for the class rather than as
#: a dict of bound methods per kernel; ``_resume`` passes ``self``.
_HANDLERS: dict[type, Callable[[Kernel, Cpu, SimThread, Any], _Outcome]] = {
    Compute: Kernel._h_compute,
    Fork: Kernel._h_fork,
    Join: Kernel._h_join,
    Detach: Kernel._h_detach,
    Yield: Kernel._h_yield,
    YieldButNotToMe: Kernel._h_yield_but_not_to_me,
    DirectedYield: Kernel._h_directed_yield,
    Pause: Kernel._h_pause,
    GetSelf: Kernel._h_get_self,
    GetTime: Kernel._h_get_time,
    SetPriority: Kernel._h_set_priority,
    Enter: Kernel._h_enter,
    Exit: Kernel._h_exit,
    Wait: Kernel._h_wait,
    Notify: Kernel._h_notify,
    Broadcast: Kernel._h_broadcast,
    Channelreceive: Kernel._h_channel_receive,
    Annotate: Kernel._h_annotate,
    MemWrite: Kernel._h_mem_write,
    MemRead: Kernel._h_mem_read,
    Fence: Kernel._h_fence,
}
