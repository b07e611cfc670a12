"""The kernel's observer seam: passive listeners on the trap handlers.

The kernel builds one tuple of observers (the race detector and the
waits-for watchdog, as ``KernelConfig`` enables them); each hook site
tests that tuple once and calls the hook on every observer in it.
Observers watch, never steer: they draw no randomness and change no
scheduler or thread state, so a run with observers keeps the schedule
of the same run without them.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.thread import SimThread


class KernelObserver:
    """No-op hooks; an observer overrides the ones it acts on.

    ``on_write`` alone returns a value: a write token the memory system
    stores beside the value, or None.
    """

    def on_fork(self, parent: SimThread | None, child: SimThread) -> None:
        """A thread was created (``parent`` is None for a root thread)."""

    def on_join(self, joiner: SimThread, target: SimThread) -> None:
        """A JOIN completed: ``target`` ended, ``joiner`` gets its result."""

    def on_acquire(self, thread: SimThread, monitor: Any) -> None:
        """``thread`` now owns ``monitor`` (Enter, or reacquisition)."""

    def on_release(self, thread: SimThread, monitor: Any) -> None:
        """``thread`` gave ``monitor`` up (Exit, or the release in WAIT)."""

    def on_notify(self, thread: SimThread, cv: Any) -> None:
        """NOTIFY or BROADCAST on ``cv``."""

    def on_cv_wake(self, waiter: SimThread, cv: Any) -> None:
        """A notification ended ``waiter``'s WAIT on ``cv``."""

    def on_write(self, thread: SimThread, var: Any, now: int) -> Any:
        """A store to ``var``; returns its write token or None."""

    def on_read(
        self, thread: SimThread, var: Any, now: int, observed: Any = None
    ) -> None:
        """A load of ``var`` that saw the write whose token is ``observed``."""

    def on_fence(self, thread: SimThread) -> None:
        """An explicit Fence."""

    def on_block(self, thread: SimThread) -> None:
        """``thread`` left the CPU blocked; its state says on what."""

    def on_instant(self, now: int) -> None:
        """The run loop finished processing the instant ``now``."""
