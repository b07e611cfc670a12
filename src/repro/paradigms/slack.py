"""Slack processes (Sections 4.2 and 5.2): latency-adding, work-saving pumps.

"A slack process explicitly adds latency to a pipeline in the hope of
reducing the total amount of work done, either by merging input or
replacing earlier data with later data before placing it on its output.
Slack processes are useful when the downstream consumer of the data incurs
high per-transaction costs."

The canonical instance is the X-server buffer thread of Section 5.2: it
accumulates paint requests, merges overlapping ones, and sends them to the
server only occasionally.  The hard part — the subject of the whole case
study — is *how the slack process cedes the CPU* so producers can fill its
queue:

* ``"yield"`` — plain YIELD.  Broken when the slack process outranks its
  producers: the scheduler hands the CPU straight back, nothing batches.
* ``"ybntm"`` — YieldButNotToMe, the paper's fix: the producer gets the
  rest of the timeslice and batching works (~3x improvement).
* ``"sleep"`` — wait out a timeout instead.  Works *only* when the
  scheduler quantum is short enough, because "the smallest sleep interval
  is the remainder of the scheduler quantum" (Section 6.3).
* ``"none"`` — no slack at all: forward each item as it arrives
  (the baseline a slack process is supposed to beat).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.kernel.primitives import Compute, Pause, Yield, YieldButNotToMe
from repro.kernel.simtime import usec
from repro.sync.queues import UnboundedQueue

GATHER_YIELD = "yield"
GATHER_YBNTM = "ybntm"
GATHER_SLEEP = "sleep"
GATHER_NONE = "none"

_STRATEGIES = (GATHER_YIELD, GATHER_YBNTM, GATHER_SLEEP, GATHER_NONE)


def merge_keep_latest(items: list[Any]) -> list[Any]:
    """Replace earlier data with later data, keyed by ``item.key`` when
    present (falling back to identity-less pass-through)."""
    merged: dict[Any, Any] = {}
    passthrough: list[Any] = []
    for item in items:
        key = getattr(item, "key", None)
        if key is None:
            passthrough.append(item)
        else:
            merged[key] = item
    return passthrough + list(merged.values())


class SlackProcess:
    """A batching/merging pump stage.

    ``queue``       — the upstream :class:`UnboundedQueue` producers fill;
    ``deliver``     — generator function called as
                      ``yield from deliver(batch)`` to push the merged
                      batch downstream (e.g. an X-server submit);
    ``merge``       — batch reducer (default: keep-latest per key);
    ``strategy``    — how to cede the CPU while gathering (see module doc);
    ``gather_rounds`` — how many cede-and-collect rounds per batch;
    ``sleep_interval`` — Pause length for the ``"sleep"`` strategy;
    ``cost_per_batch`` — local CPU burned preparing each delivery.
    """

    def __init__(
        self,
        name: str,
        queue: UnboundedQueue,
        deliver: Callable[[list[Any]], Any],
        *,
        merge: Callable[[list[Any]], list[Any]] = merge_keep_latest,
        strategy: str = GATHER_YBNTM,
        gather_rounds: int = 1,
        sleep_interval: int = 0,
        cost_per_batch: int = usec(100),
    ) -> None:
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown gather strategy {strategy!r}")
        self.name = name
        self.queue = queue
        self.deliver = deliver
        self.merge = merge
        self.strategy = strategy
        self.gather_rounds = gather_rounds
        self.sleep_interval = sleep_interval
        self.cost_per_batch = cost_per_batch
        self.items_in = 0
        self.items_out = 0
        self.batches_sent = 0

    @property
    def merge_ratio(self) -> float:
        """Input items per delivered item — >1 means merging is working."""
        if self.items_out == 0:
            return 0.0
        return self.items_in / self.items_out

    def proc(self):
        """The slack process's thread body."""
        while True:
            first = yield from self.queue.get()
            if first is None:
                # A queue with a default get timeout returns None when the
                # wait expires empty (e.g. a lost NOTIFY under fault
                # injection): poll again rather than batching a phantom.
                continue
            batch = [first]
            if self.strategy != GATHER_NONE:
                for _ in range(self.gather_rounds):
                    yield from self._cede()
                    more = yield from self.queue.get_all()
                    batch.extend(more)
            self.items_in += len(batch)
            merged = self.merge(batch)
            if self.cost_per_batch:
                yield Compute(self.cost_per_batch)
            self.items_out += len(merged)
            self.batches_sent += 1
            yield from self.deliver(merged)

    def _cede(self):
        """Give producers a chance to add to the queue."""
        if self.strategy == GATHER_YIELD:
            yield Yield()
        elif self.strategy == GATHER_YBNTM:
            yield YieldButNotToMe()
        elif self.strategy == GATHER_SLEEP:
            yield Pause(self.sleep_interval)
        # GATHER_NONE never reaches here.
