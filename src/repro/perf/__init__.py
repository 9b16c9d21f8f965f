"""Performance subsystem: sweep execution, caching, benchmarking.

The layers, each usable on its own:

* :mod:`repro.perf.executor` — the worker-count resolution
  (``--jobs N``, ``REPRO_JOBS``) and the cell error of the sweeps;
* :mod:`repro.perf.supervisor` — the one sweep executor, used by
  ``run_sedov_sweep``, ``run_scalebench`` and the resilience
  experiment: a deterministic ordered merge, serial or on a worker
  pool, with worker-crash respawn + retry with exponential backoff,
  per-cell wall-clock timeouts, quarantine of poison cells
  (:class:`CellFailure`), structured executor events/counters, and
  chaos injection via ``REPRO_CHAOS``;
* :mod:`repro.perf.journal` — the crash-safe on-disk sweep journal
  (atomic checksummed per-cell records keyed by a config content hash)
  that makes interrupted sweeps resumable (``--resume``);
* :mod:`repro.perf.cache` — :class:`SharedPatternCache`, the
  process-wide content-keyed store of
  :class:`~repro.simnet.runtime.ExchangePattern` structure (and message
  statistics) that service runs share across epochs and jobs;
* :mod:`repro.perf.trajcache` — an optional content-keyed on-disk cache
  for deterministic :class:`~repro.amr.sedov.SedovEpoch` trajectories;
* :mod:`repro.perf.bench` — the ``repro bench`` perf-regression harness
  writing/gating ``BENCH_core.json`` (imported lazily; it pulls the
  full experiment stack).

This package sits *below* the engine in the import graph: only the
light modules (``cache``, ``executor``, ``supervisor``, ``journal``)
are imported here so that ``repro.engine`` can depend on
:class:`SharedPatternCache` without cycles.
"""

from .cache import PatternCacheStats, SharedPatternCache
from .executor import CellExecutionError, effective_jobs
from .journal import SweepJournal, sweep_key
from .supervisor import (
    STRICT,
    CellFailure,
    SupervisedReport,
    SupervisorConfig,
    supervised_map,
)

__all__ = [
    "CellExecutionError",
    "CellFailure",
    "PatternCacheStats",
    "STRICT",
    "SharedPatternCache",
    "SupervisedReport",
    "SupervisorConfig",
    "SweepJournal",
    "effective_jobs",
    "supervised_map",
    "sweep_key",
]
