"""Instrumentation: tracer, stats snapshots, channels, memory model."""

import pytest

from repro.kernel import Kernel, KernelConfig, SimVar, msec, sec, usec
from repro.kernel import primitives as p
from repro.kernel.instrumentation import Tracer
from repro.kernel.memory import create_memory_model
from repro.kernel.rng import DeterministicRng
from repro.kernel.stats import WindowStats


def make_kernel(**overrides):
    defaults = dict(switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False, categories=frozenset())
        tracer.record(0, "switch", "dispatch", "t")
        assert tracer.events == []

    def test_category_filtering(self):
        tracer = Tracer(enabled=True, categories=frozenset({"fork"}))
        tracer.record(0, "fork", "create", "t")
        tracer.record(1, "switch", "dispatch", "t")
        assert len(tracer.events) == 1
        assert tracer.events[0].category == "fork"

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            Tracer(enabled=True, categories=frozenset({"nonsense"}))

    def test_query_helpers(self):
        tracer = Tracer(enabled=True, categories=frozenset())
        tracer.record(10, "fork", "create", "a")
        tracer.record(20, "switch", "dispatch", "b")
        tracer.record(30, "fork", "create", "a")
        assert len(list(tracer.by_category("fork"))) == 2
        assert len(list(tracer.by_thread("b"))) == 1
        assert len(list(tracer.between(15, 30))) == 1

    def test_kernel_trace_integration(self):
        kernel = Kernel(
            KernelConfig(trace=True, trace_categories=frozenset({"fork", "end"}))
        )

        def child():
            yield p.Compute(1)

        def parent():
            handle = yield p.Fork(child)
            yield p.Join(handle)

        kernel.fork_root(parent)
        kernel.run_for(msec(10))
        categories = {e.category for e in kernel.tracer.events}
        assert categories == {"fork", "end"}
        # parent create + child create + child end + parent end.
        assert len(kernel.tracer.events) == 4
        kernel.shutdown()

    def test_microsecond_timestamps(self):
        kernel = Kernel(KernelConfig(trace=True, switch_cost=usec(40)))

        def worker():
            yield p.Compute(usec(123))

        kernel.fork_root(worker)
        kernel.run_for(msec(10))
        end_events = [e for e in kernel.tracer.events if e.category == "end"]
        assert end_events[0].time == usec(40) + usec(123)
        kernel.shutdown()

    def test_format_output(self):
        tracer = Tracer(enabled=True, categories=frozenset())
        tracer.record(5, "fork", "create", "t", "parent")
        text = tracer.format()
        assert "fork/create" in text and "t" in text


class TestStatsSnapshots:
    def test_snapshot_delta(self):
        kernel = make_kernel()

        def worker():
            yield p.Compute(msec(1))

        before = kernel.stats.snapshot()
        kernel.fork_root(worker)
        kernel.run_for(msec(10))
        after = kernel.stats.snapshot()
        delta = after.delta(before)
        assert delta["threads_created"] == 1
        assert delta["threads_finished"] == 1
        kernel.shutdown()

    def test_window_stats_rate_and_fraction(self):
        window = WindowStats(duration=sec(2))
        window.counts = {"forks": 10, "cv_waits": 8, "cv_timeouts": 4}
        assert window.rate("forks") == pytest.approx(5.0)
        assert window.fraction("cv_timeouts", "cv_waits") == pytest.approx(0.5)
        assert window.fraction("cv_timeouts", "missing") == 0.0
        assert window.rate("missing") == 0.0

    def test_max_live_threads_tracked(self):
        kernel = make_kernel()

        def sleeper():
            yield p.Pause(msec(100))

        for _ in range(7):
            kernel.fork_root(sleeper)
        kernel.run_for(sec(1))
        assert kernel.stats.max_live_threads == 7
        assert kernel.stats.live_threads == 0
        kernel.shutdown()


class TestChannels:
    def test_buffered_delivery_in_order(self):
        kernel = make_kernel()
        channel = kernel.channel("ch")
        channel.post(1)
        channel.post(2)
        got = []

        def reader():
            got.append((yield p.Channelreceive(channel)))
            got.append((yield p.Channelreceive(channel)))

        kernel.fork_root(reader)
        kernel.run_for(msec(10))
        assert got == [1, 2]
        kernel.shutdown()

    def test_receive_timeout_returns_none(self):
        kernel = make_kernel(quantum=msec(50))
        channel = kernel.channel("ch")
        got = []

        def reader():
            got.append((yield p.Channelreceive(channel, timeout=msec(40))))

        kernel.fork_root(reader)
        kernel.run_for(sec(1))
        assert got == [None]
        kernel.shutdown()

    def test_post_cancels_pending_timeout(self):
        kernel = make_kernel(quantum=msec(50))
        channel = kernel.channel("ch")
        got = []

        def reader():
            got.append((yield p.Channelreceive(channel, timeout=msec(100))))
            got.append("still-alive")

        kernel.fork_root(reader)
        kernel.post_at(msec(10), lambda k: channel.post("early"))
        kernel.run_for(sec(1))
        assert got == ["early", "still-alive"]
        kernel.shutdown()

    def test_unbound_channel_rejects_post(self):
        from repro.kernel.channel import Channel

        with pytest.raises(ValueError):
            Channel("loose").post(1)

    def test_rebinding_to_other_kernel_rejected(self):
        k1 = make_kernel()
        k2 = make_kernel()
        channel = k1.channel("ch")
        with pytest.raises(ValueError):
            channel.bind(k2)
        k1.shutdown()
        k2.shutdown()


class _FakeThread:
    def __init__(self, tid, name):
        self.tid = tid
        self.name = name


class TestMemoryModelUnit:
    writer = _FakeThread(1, "writer")
    reader = _FakeThread(2, "reader")

    def _memory(self, model):
        config = KernelConfig(memory_model=model, store_buffer_delay=usec(10))
        return create_memory_model(config, DeterministicRng(0))

    def test_strong_ordering_immediate_visibility(self):
        memory = self._memory("sc")
        var = SimVar("x", initial=0)
        memory.store(var, 1, now=0, thread=self.writer)
        assert memory.load(var, now=0, thread=self.reader) == 1

    def test_weak_ordering_delays_cross_cpu_visibility(self):
        memory = self._memory("pso")
        var = SimVar("x", initial=0)
        memory.store(var, 1, now=0, thread=self.writer)
        assert memory.load(var, now=0, thread=self.reader) == 0  # buffered
        assert memory.load(var, now=100, thread=self.reader) == 1  # aged out

    def test_store_to_load_forwarding_same_cpu(self):
        memory = self._memory("pso")
        var = SimVar("x", initial=0)
        memory.store(var, 1, now=0, thread=self.writer)
        # The writer sees its own buffered store.
        assert memory.load(var, now=0, thread=self.writer) == 1

    def test_fence_publishes_own_stores(self):
        memory = self._memory("pso")
        var = SimVar("x", initial=0)
        memory.store(var, 1, now=0, thread=self.writer)
        memory.fence_cpu(thread=self.writer)
        assert memory.load(var, now=0, thread=self.reader) == 1

    def test_fence_counts_effective_fences_only(self):
        # Regression: fence_cpu used to bump ``fences`` before its early
        # return, so strong-ordering runs reported nonzero fence work.
        strong = self._memory("sc")
        var = SimVar("x", initial=0)
        strong.fence_cpu(thread=self.writer)
        assert strong.fences == 0
        assert strong.fence_requests == 1

        weak = self._memory("pso")
        weak.fence_cpu(thread=self.writer)  # empty buffer: request, not a fence
        weak.store(var, 1, now=0, thread=self.writer)
        weak.fence_cpu(thread=self.writer)  # effective
        assert weak.fences == 1
        assert weak.fence_requests == 2

    def test_strong_run_with_fence_traps_reports_zero_fences(self):
        def body(var):
            yield p.MemWrite(var, 1)
            yield p.Fence()
            yield p.Fence()

        strong = make_kernel(memory_model="sc")
        strong.fork_root(body, (SimVar("x", initial=0),), name="fencer")
        strong.run_for(msec(1))
        # Strong ordering never reaches the memory system at all.
        assert strong.memory.fences == 0
        assert strong.memory.fence_requests == 0
        strong.shutdown()

        weak = make_kernel(memory_model="pso")
        weak.fork_root(body, (SimVar("x", initial=0),), name="fencer")
        weak.run_for(msec(1))
        # The first fence drains the store; the second finds an empty
        # buffer and is only a request.
        assert weak.memory.fences == 1
        assert weak.memory.fence_requests == 2
        weak.shutdown()

    def test_coherence_old_value_never_resurfaces(self):
        memory = self._memory("pso")
        var = SimVar("x", initial=0)
        memory.store(var, 1, now=0, thread=self.writer)
        memory.store(var, 2, now=1, thread=self.writer)
        # Whatever the delays drew, once 2 is visible 1 must never return.
        saw_two = False
        for t in range(0, 30):
            value = memory.load(var, now=t, thread=self.reader)
            if saw_two:
                assert value == 2
            saw_two = saw_two or value == 2
        assert saw_two
