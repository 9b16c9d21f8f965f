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
round-trip), which is the default everywhere.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

__all__ = ["CellExecutionError", "effective_jobs"]

T = TypeVar("T")
R = TypeVar("R")

#: Operator override for the worker count (e.g. ``REPRO_JOBS=4`` in CI).
#: When set and non-empty it wins over any ``--jobs`` value.
JOBS_ENV = "REPRO_JOBS"


class CellExecutionError(RuntimeError):
    """A sweep cell failed; carries *which* cell and why.

    The bare pool used to propagate the worker exception with no
    indication of the failing cell; this wraps it with the cell index
    and the item's repr so a multi-hour sweep failure is diagnosable.
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

    A non-empty :data:`JOBS_ENV` (``REPRO_JOBS``) environment variable
    overrides ``jobs`` outright — the operator's knob for forcing a
    worker count across a whole pipeline without touching every flag.
    When ``n_items`` is given, the result is capped at the cell count
    (never below 1): spawning more workers than cells only burns fork
    time.
    """
    env = os.environ.get(JOBS_ENV)
    if env:
        try:
            jobs = int(env)
        except ValueError as exc:
            raise ValueError(f"{JOBS_ENV}={env!r} is not an integer") from exc
    if jobs is None or jobs == 0:
        n = os.cpu_count() or 1
    elif jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    else:
        n = jobs
    if n_items is not None:
        n = min(n, max(n_items, 1))
    return max(n, 1)


def _bare_pool_map(
    fn: Callable[[T], R], items: Sequence[T], jobs: int
) -> List[R]:
    """The pre-supervisor bare ``ProcessPoolExecutor`` path.

    Kept (unsupervised, abort-on-first-failure) as the reference
    implementation the ``executor_overhead`` bench kernel compares the
    supervised pool against.
    """
    cells = list(items)
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
        futures = [pool.submit(fn, it) for it in cells]
        return [f.result() for f in futures]
