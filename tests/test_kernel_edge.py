"""Kernel edge cases: multiprocessor scheduling, donation corners,
fork-wait ordering, trap misuse, run-boundary behaviour."""

import pytest

from repro.kernel import (
    Kernel,
    KernelConfig,
    KernelUsageError,
    msec,
    sec,
    usec,
)
from repro.kernel import primitives as p
from repro.sync import ConditionVariable, Monitor
from repro.kernel.primitives import Enter, Exit, Notify, Wait


def make_kernel(**overrides):
    defaults = dict(switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestMultiprocessor:
    def test_monitor_blocks_across_cpus(self):
        kernel = make_kernel(ncpus=2)
        lock = Monitor("m")
        overlap = []
        inside = [0]

        def worker():
            yield Enter(lock)
            try:
                inside[0] += 1
                overlap.append(inside[0])
                yield p.Compute(msec(5))
                inside[0] -= 1
            finally:
                yield Exit(lock)

        kernel.fork_root(worker)
        kernel.fork_root(worker)
        kernel.run_for(sec(1))
        assert max(overlap) == 1  # mutual exclusion holds across CPUs
        assert lock.blocks == 1   # genuine cross-CPU contention
        kernel.shutdown()

    def test_spurious_conflict_on_multiprocessor(self):
        # Birrell's original MP case: notifier keeps running on its CPU
        # holding the lock while the notifyee starts on the other CPU.
        kernel = Kernel(
            KernelConfig(
                ncpus=2, notify_semantics="immediate", switch_cost=0,
                monitor_overhead=0,
            )
        )
        lock = Monitor("m")
        cv = ConditionVariable(lock, "cv")
        state = {"go": False}

        def waiter():
            yield Enter(lock)
            try:
                while not state["go"]:
                    yield Wait(cv)
            finally:
                yield Exit(lock)

        def notifier():
            yield p.Pause(msec(50))
            yield Enter(lock)
            try:
                state["go"] = True
                yield Notify(cv)
                yield p.Compute(msec(1))  # keep holding on this CPU
            finally:
                yield Exit(lock)

        kernel.fork_root(waiter, priority=4)
        kernel.fork_root(notifier, priority=4)
        kernel.run_for(sec(1))
        assert kernel.stats.spurious_conflicts == 1
        kernel.shutdown()

    def test_four_cpus_scale_independent_work(self):
        kernel = make_kernel(ncpus=4)
        finish = []

        def worker():
            yield p.Compute(msec(100))
            finish.append((yield p.GetTime()))

        for _ in range(4):
            kernel.fork_root(worker)
        kernel.run_for(sec(1))
        assert finish == [msec(100)] * 4
        kernel.shutdown()

    def test_preemption_picks_one_cpu(self):
        # A single high-priority wake preempts exactly one busy CPU.
        kernel = make_kernel(ncpus=2)
        order = []

        def grinder(tag):
            yield p.Compute(msec(40))
            order.append((tag, (yield p.GetTime())))

        def urgent():
            order.append(("urgent", (yield p.GetTime())))
            yield p.Compute(msec(1))

        kernel.fork_root(grinder, ("a",), priority=3)
        kernel.fork_root(grinder, ("b",), priority=3)
        kernel.post_at(msec(10), lambda k: k.fork_root(urgent, priority=6))
        kernel.run_for(sec(1))
        done = dict(order)
        assert done["urgent"] == msec(10)
        # One grinder lost ~1 ms, the other none.
        finish_times = sorted(t for tag, t in order if tag != "urgent")
        assert finish_times == [msec(40), msec(41)]
        kernel.shutdown()


class TestDonationCorners:
    def test_ybntm_donee_finishing_returns_to_strict_priority(self):
        kernel = make_kernel()
        order = []

        def short_low():
            order.append("low")
            yield p.Compute(usec(100))
            # finishes: donation is spent

        def mid():
            order.append("mid")
            yield p.Compute(usec(100))

        def high():
            yield p.Fork(short_low, priority=2, detached=True)
            yield p.Fork(mid, priority=3, detached=True)
            yield p.YieldButNotToMe()
            order.append("high-back")
            yield p.Compute(usec(10))

        kernel.fork_root(high, priority=6)
        kernel.run_for(sec(1))
        # YBNTM picks the *highest* other (mid); when it finishes, strict
        # priority resumes the donor before the low thread.
        assert order == ["mid", "high-back", "low"]
        kernel.shutdown()

    def test_directed_yield_donation_survives_donee_yield(self):
        kernel = make_kernel(quantum=msec(50))
        order = []
        handles = {}

        def donee():
            order.append("donee-1")
            yield p.Yield()  # goes READY; donation persists until tick
            order.append("donee-2")
            yield p.Compute(usec(10))

        def director():
            handles["d"] = yield p.Fork(donee, priority=2)
            yield p.DirectedYield(handles["d"])
            order.append("director-back")
            yield p.Compute(usec(10))

        kernel.fork_root(director, priority=6)
        kernel.run_for(sec(1))
        # The donee's own Yield does not end the donation: it is re-picked.
        assert order[:2] == ["donee-1", "donee-2"]
        kernel.shutdown()

    def test_system_daemon_donation_expires_at_tick(self):
        from repro.runtime.daemon import install_system_daemon

        kernel = Kernel(KernelConfig(seed=5, quantum=msec(50)))

        def hog():
            while True:
                yield p.Compute(msec(10))

        def starved():
            while True:
                yield p.Compute(msec(10))

        kernel.fork_root(hog, priority=5, name="hog")
        low = kernel.fork_root(starved, priority=1, name="starved")
        install_system_daemon(kernel, period=msec(100))
        kernel.run_for(sec(5))
        # The starved thread gets slices, but each at most one quantum.
        assert low.stats.cpu_time > 0
        assert max(low.stats.run_intervals) <= msec(50)
        kernel.shutdown()


class TestRunLoopSkipPaths:
    """The run loop skips the dispatch and the preemption check when
    they cannot change anything; these pin the cases where they must
    still run."""

    def test_event_wake_preempts_burst_on_second_cpu(self):
        kernel = make_kernel(ncpus=2)
        channel = kernel.channel("wake")
        done = {}

        def grinder(tag):
            yield p.Compute(msec(40))
            done[tag] = yield p.GetTime()

        def urgent():
            yield p.Channelreceive(channel)
            done["urgent"] = yield p.GetTime()
            yield p.Compute(msec(5))

        high = kernel.fork_root(grinder, ("high",), priority=5)
        waker = kernel.fork_root(urgent, priority=4)
        low = kernel.fork_root(grinder, ("low",), priority=3)
        kernel.post_at(msec(10), lambda k: channel.post("go"))
        kernel.run_for(sec(1))
        # Priority 4 outranks only the priority-3 burst on CPU 1.
        assert done == {"urgent": msec(10), "high": msec(40), "low": msec(45)}
        assert high.stats.preemptions == 0
        assert waker.stats.preemptions == 0
        assert low.stats.preemptions == 1
        assert kernel.stats.preemptions == 1
        # The partial burst is kept: 10 ms before, 30 ms after.
        assert low.stats.run_intervals == [msec(10), msec(30)]
        kernel.shutdown()

    def test_donated_cpu_is_not_preempted(self):
        kernel = make_kernel()
        log = []

        def donee():
            log.append(("donee", (yield p.GetTime())))
            yield p.Compute(msec(20))
            log.append(("donee-done", (yield p.GetTime())))

        def director():
            target = yield p.Fork(donee, priority=1, detached=True)
            yield p.DirectedYield(target)
            log.append(("director", (yield p.GetTime())))

        def middle():
            log.append(("middle", (yield p.GetTime())))

        kernel.fork_root(director, priority=6)
        # An instant mid-burst at which a ready thread outranks the donee.
        kernel.post_at(msec(5), lambda k: k.fork_root(middle, priority=4))
        kernel.run_for(sec(1))
        assert log == [
            ("donee", 0),
            ("donee-done", msec(20)),
            ("director", msec(20)),
            ("middle", msec(20)),
        ]
        assert kernel.stats.preemptions == 0
        kernel.shutdown()

    def test_fair_share_never_preempts_mid_burst(self):
        kernel = Kernel(
            KernelConfig(
                scheduler_policy="fair_share", seed=3, switch_cost=0,
                monitor_overhead=0,
            )
        )
        log = []

        def low():
            yield p.Compute(msec(30))
            log.append(("low", (yield p.GetTime())))

        def high():
            log.append(("high", (yield p.GetTime())))

        worker = kernel.fork_root(low, priority=1)
        kernel.post_at(msec(10), lambda k: k.fork_root(high, priority=7))
        kernel.run_for(sec(1))
        assert log == [("low", msec(30)), ("high", msec(30))]
        assert worker.stats.run_intervals == [msec(30)]
        assert kernel.stats.preemptions == 0
        kernel.shutdown()

    def test_simultaneous_bursts_complete_in_cpu_order(self):
        kernel = make_kernel(ncpus=2)
        order = []

        def split():  # CPU 0: its second burst is set later, at 4 ms
            yield p.Compute(msec(4))
            yield p.Compute(msec(6))
            order.append(("cpu0", (yield p.GetTime())))

        def whole():  # CPU 1: one burst, set at 0
            yield p.Compute(msec(10))
            order.append(("cpu1", (yield p.GetTime())))

        kernel.fork_root(split)
        kernel.fork_root(whole)
        kernel.run_for(sec(1))
        assert order == [("cpu0", msec(10)), ("cpu1", msec(10))]
        kernel.shutdown()

    def test_spent_donation_cleared_on_idle_cpu_while_others_busy(self):
        kernel = make_kernel(ncpus=3)
        channel = kernel.channel("park")
        log = []

        def hog():  # keeps CPU 0 busy throughout
            yield p.Compute(msec(30))

        def donee():  # runs on CPU 1 by donation, then parks
            yield p.Compute(msec(5))
            yield p.Channelreceive(channel)
            log.append(("donee", (yield p.GetTime())))

        def director():  # donates CPU 1, then grinds on CPU 2
            target = yield p.Fork(donee, priority=1, detached=True)
            yield p.DirectedYield(target)
            yield p.Compute(msec(30))

        def rival():
            log.append(("rival", (yield p.GetTime())))
            yield p.Compute(msec(2))

        def wake(k):
            channel.post("again")
            k.fork_root(rival, priority=4)

        kernel.fork_root(hog, priority=7)
        kernel.fork_root(director, priority=6)
        kernel.post_at(msec(8), wake)
        kernel.run_for(sec(1))
        # The donee parked at 5 ms with nothing ready, which spent the
        # donation; once both wake, CPU 1 follows strict priority again.
        assert log == [("rival", msec(8)), ("donee", msec(10))]
        kernel.shutdown()

    def test_livelock_guard_fires_beside_a_busy_cpu(self):
        kernel = make_kernel(ncpus=2, switch_cost=0)

        def grinder():
            yield p.Compute(msec(10))

        def spinner():
            while True:
                yield p.Yield()

        kernel.fork_root(grinder)
        kernel.fork_root(spinner)
        with pytest.raises(KernelUsageError, match="livelock"):
            kernel.run_for(msec(1))
        kernel.shutdown()


class TestForkWaitOrdering:
    def test_blocked_forks_complete_fifo(self):
        kernel = make_kernel(max_threads=3, fork_failure="wait")
        started = []

        def job(tag):
            started.append(tag)
            yield p.Compute(msec(10))

        def requester(tag):
            yield p.Fork(job, (tag,), detached=True)

        def spawner():
            # Fill the table (spawner + 2 jobs), then queue two more
            # requesters whose forks must wait, in order.
            yield p.Fork(job, ("a",), detached=True)
            yield p.Fork(job, ("b",), detached=True)
            yield p.Fork(job, ("c",), detached=True)
            yield p.Fork(job, ("d",), detached=True)

        kernel.fork_root(spawner)
        kernel.run_for(sec(1))
        assert started == ["a", "b", "c", "d"]
        kernel.shutdown()


class TestTrapMisuse:
    def test_yielding_non_trap_is_usage_error(self):
        kernel = make_kernel()

        def bad():
            yield "not a trap"

        kernel.fork_root(bad)
        with pytest.raises(KernelUsageError):
            kernel.run_for(msec(1))

    def test_negative_compute_rejected_at_construction(self):
        with pytest.raises(ValueError):
            p.Compute(-1)

    def test_negative_pause_rejected(self):
        with pytest.raises(ValueError):
            p.Pause(-5)

    def test_fork_priority_bounds(self):
        kernel = make_kernel()

        def child():
            yield p.Compute(1)

        def parent():
            yield p.Fork(child, priority=0)

        kernel.fork_root(parent)
        with pytest.raises(KernelUsageError):
            kernel.run_for(msec(1))

    def test_annotate_lands_in_trace(self):
        kernel = Kernel(KernelConfig(trace=True))

        def worker():
            yield p.Annotate("checkpoint", {"step": 1})

        kernel.fork_root(worker)
        kernel.run_for(msec(1))
        notes = [e for e in kernel.tracer.events if e.category == "annotate"]
        assert len(notes) == 1
        assert notes[0].kind == "checkpoint"
        kernel.shutdown()


class TestRunBoundaries:
    def test_burst_spans_run_until_calls(self):
        kernel = make_kernel()
        stamps = []

        def worker():
            yield p.Compute(msec(30))
            stamps.append((yield p.GetTime()))

        kernel.fork_root(worker)
        kernel.run_until(msec(10))  # burst in progress at the boundary
        assert stamps == []
        kernel.run_until(msec(100))
        assert stamps == [msec(30)]
        kernel.shutdown()

    def test_channel_post_between_runs(self):
        kernel = make_kernel()
        channel = kernel.channel("ch")
        got = []

        def reader():
            while True:
                got.append((yield p.Channelreceive(channel)))

        kernel.fork_root(reader)
        kernel.run_for(msec(10))
        channel.post("between-runs")
        kernel.run_for(msec(10))
        assert got == ["between-runs"]
        kernel.shutdown()

    def test_post_at_in_past_rejected(self):
        kernel = make_kernel()
        kernel.run_until(msec(100))
        with pytest.raises(ValueError):
            kernel.post_at(msec(50), lambda k: None)
        kernel.shutdown()

    def test_post_every_until_bound(self):
        kernel = make_kernel()
        fired = []
        kernel.post_every(
            msec(100), lambda k: fired.append(k.now), until=msec(350)
        )
        kernel.run_for(sec(1))
        assert fired == [msec(100), msec(200), msec(300)]
        kernel.shutdown()

    def test_zero_cost_yield_loop_raises_instead_of_hanging(self):
        # Regression for the livelock guard: with switch_cost=0 a thread
        # yielding in a tight loop never advances simulated time.  The
        # kernel must diagnose this, not spin the host CPU forever.
        kernel = make_kernel(switch_cost=0)

        def spinner():
            while True:
                yield p.Yield()

        kernel.fork_root(spinner)
        with pytest.raises(KernelUsageError, match="livelock"):
            kernel.run_for(msec(1))
        kernel.shutdown()

    def test_shutdown_is_idempotent(self):
        kernel = make_kernel()

        def spin():
            while True:
                yield p.Pause(msec(50))

        kernel.fork_root(spin)
        kernel.run_for(msec(100))
        kernel.shutdown()
        kernel.shutdown()  # second call is a no-op
        assert all(not t.alive for t in kernel.threads.values())
