"""Sweep-execution basics: the worker count and the cell error.

The evaluation sweeps — ``run_sedov_sweep``, ``run_scalebench``, the
three-arm resilience experiment — are grids of *independent* cells:
every cell carries its full configuration (seeds included), regenerates
whatever shared inputs it needs deterministically, and touches no
mutable global state.  That makes them embarrassingly parallel, and —
because every stochastic stream is seeded per cell, not per worker —
**bit-identical** to the serial run regardless of worker count or
completion order.

Determinism contract:

* cells are submitted in grid order and results are merged back in
  submission order (``results[i] == fn(items[i])``);
* cell functions must be importable top-level callables and items
  picklable (required by the process pool anyway);
* a cell must derive all randomness from seeds in its item — never from
  global RNG state, worker identity, or wall clock.

Every sweep runs on :func:`~repro.perf.supervisor.supervised_map`.
Without requested supervision it uses the
:data:`~repro.perf.supervisor.STRICT` config: no retries, and a cell
exception or worker death raises :class:`CellExecutionError` naming the
failing cell.  ``jobs <= 1`` runs in-process (no pool, no pickle
round-trip), which is the default everywhere.  The pool's fault-free
cost is pinned by counted work in ``tests/test_perf_supervisor.py``:
one worker built per job slot, one assignment and one ``complete``
event per cell.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["CellExecutionError", "effective_jobs"]


class CellExecutionError(RuntimeError):
    """A sweep cell failed; carries *which* cell and why.

    It wraps the cell's error with the cell index and the item's repr,
    so a multi-hour sweep failure is diagnosable.
    """

    def __init__(self, index: int, item: object, cause: str) -> None:
        self.index = index
        self.item_repr = repr(item)[:300]
        self.cause = cause
        super().__init__(
            f"sweep cell {index} failed: {cause} [item={self.item_repr}]"
        )


def effective_jobs(jobs: Optional[int], n_items: Optional[int] = None) -> int:
    """Resolve a ``--jobs`` value: ``None``/``0`` means one per CPU.

    When ``n_items`` is given, the result is capped at the cell count
    (never below 1): spawning more workers than cells only burns fork
    time.
    """
    if jobs is None or jobs == 0:
        n = os.cpu_count() or 1
    elif jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    else:
        n = jobs
    if n_items is not None:
        n = min(n, max(n_items, 1))
    return max(n, 1)

