"""Cooperative cancellation primitives shared by every execution layer.

A cancel request must reach three layers that do not share memory:

* the **supervisor** (parent process) must stop dispatching new cells;
* in-flight **engine runs** — possibly inside pool worker processes —
  must stop at the next epoch boundary instead of finishing the cell;
* the **journal** must stay valid, so ``--resume`` after a cancel
  completes the sweep bit-identically.

The lowest common denominator across processes is the filesystem, so a
:class:`CancelToken` is a flag *file*: ``set()`` creates it, every
layer polls ``is_set()``.  The flag's path travels in one place, the
sweep's :class:`~repro.perf.supervisor.SupervisorConfig`
(``cancel_path``, next to ``deadline_ts``); the supervisor hands that
config to every cell it runs (:data:`~repro.perf.supervisor.
SWEEP_CONFIG`).  The engine consumes the token through
:class:`~repro.engine.hooks.CancellationHook` (attached automatically
when the running cell's config sets a cancel flag or deadline), which
raises :class:`JobCancelled` at the epoch boundary — i.e. through the
same dispatch path as the control channel, after the epoch's hooks have
run.

This module sits below the engine in the import graph (like
:mod:`repro.perf.cache`) so both the engine and the supervisor can use
it without cycles.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

__all__ = ["CancelToken", "DeadlineExceeded", "JobCancelled"]


class JobCancelled(RuntimeError):
    """A run or sweep stopped because its cancel token was set.

    When raised by :func:`~repro.perf.supervisor.supervised_map`, it
    carries the partial report on ``.report`` and completed cells are
    already journaled: a ``resume=True`` re-run finishes the sweep
    bit-identically.
    """


class DeadlineExceeded(JobCancelled):
    """A run or sweep stopped because its wall-clock deadline passed.

    Deadlines ride the cancellation machinery — same epoch-boundary
    stop, same resumable journal, same partial ``report`` — but callers
    that care (the job service marks deadline overruns *failed*, not
    cancelled) can tell the two apart by type.
    """


class CancelToken:
    """A file-backed cancel flag, visible across processes.

    ``set()`` is idempotent and crash-safe (creating a file is atomic
    at this granularity); ``is_set()`` is a single ``stat`` — cheap
    enough to poll at epoch boundaries and supervisor wake-ups.
    """

    def __init__(self, path: "str | os.PathLike") -> None:
        self.path = Path(path)

    def set(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.touch(exist_ok=True)

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)

    def is_set(self) -> bool:
        return self.path.exists()

    def __repr__(self) -> str:
        return f"CancelToken({self.path}, set={self.is_set()})"


def maybe_token(path: Optional[str]) -> Optional[CancelToken]:
    """A :class:`CancelToken` for ``path``, or ``None`` when unset."""
    return CancelToken(path) if path else None
