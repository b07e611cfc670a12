"""Simulated shared memory and the memory-model factory (Section 5.5).

"We saw several places where the correctness of threaded code depended on
strong memory ordering, an assumption no longer true in some modern
multiprocessors with weakly ordered memory."

This module holds the kernel-side pieces: :class:`SimVar`, the shared
memory cell, and :class:`MemorySystem`, the sequentially consistent
default under which every store is globally visible at once and fences
are no-ops.  The buffered models (``tso``/``pso``), on which the paper's
pointer-publication and init-once hazards occur, live in
:mod:`repro.memmodel`; :func:`create_memory_model` picks one from
``KernelConfig.memory_model``.

Thread code uses memory through the ``MemRead``/``MemWrite``/``Fence``
traps (or the ``SimVar`` convenience wrappers), never by mutating Python
objects directly — direct mutation would silently get strong ordering.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.kernel.config import MODEL_SC, MODEL_TSO, KernelConfig

_uid_counter = itertools.count(1)


class SimVar:
    """One shared memory cell.

    ``committed`` holds the globally visible value.  ``token`` is the race
    detector's write token for the committed value (None when race
    detection is off or the value is the initial one) — it rides along so
    a reader can tell the detector *which* write it observed.
    """

    __slots__ = ("uid", "name", "committed", "token")

    def __init__(self, name: str, initial: Any = None) -> None:
        self.uid = next(_uid_counter)
        self.name = name
        self.committed = initial
        self.token: Any = None

    def __repr__(self) -> str:
        return f"<SimVar {self.name!r}={self.committed!r}>"


class MemorySystem:
    """Sequential consistency: every store commits globally at once."""

    #: Stores are never buffered — the kernel's fence fast path skips the
    #: memory system entirely, so fences cost nothing.
    buffered = False
    #: No controller-visible ``mem.drain`` decision points.
    drainable = False

    def __init__(self) -> None:
        #: Always 0: nothing is ever buffered, so no fence drains anything.
        self.fences = 0
        #: Every ``fence_cpu`` call; the kernel's fence fast path makes none.
        self.fence_requests = 0
        self.stores = 0
        self.loads = 0
        #: Always 0: no load can miss a newer value.
        self.stale_loads = 0

    def store(
        self, var: SimVar, value: Any, now: int, thread: Any = None, token: Any = None
    ) -> None:
        self.stores += 1
        var.committed = value
        var.token = token

    def load(self, var: SimVar, now: int, thread: Any = None) -> Any:
        return self.load_observed(var, now, thread)[0]

    def load_observed(
        self, var: SimVar, now: int, thread: Any = None
    ) -> tuple[Any, Any]:
        """The visible value together with the race detector's write token."""
        self.loads += 1
        return var.committed, var.token

    def fence_cpu(self, thread: Any = None) -> None:
        """A no-op: there is no buffer to drain."""
        self.fence_requests += 1


def create_memory_model(config: KernelConfig, rng: Any) -> Any:
    """Instantiate the memory model ``config.memory_model`` selects.

    The store-buffer models live in :mod:`repro.memmodel` (a layer above
    the kernel); the import is deferred so the default ``sc`` path never
    touches that package and no import cycle forms.
    """
    if config.memory_model == MODEL_SC:
        return MemorySystem()
    from repro.memmodel.storebuffer import StoreBufferMemory

    return StoreBufferMemory(config, rng, fifo=config.memory_model == MODEL_TSO)
