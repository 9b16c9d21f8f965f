"""Content-keyed on-disk cache for deterministic Sedov trajectories.

A :class:`~repro.amr.sedov.SedovWorkload` trajectory is a pure function
of its :class:`~repro.amr.sedov.SedovConfig` (seed included) and of the
mesh/workload code that generates it.  Sweeps regenerate the same
trajectory once per scale — and, under the process-pool executor, once
per *worker* — so caching it on disk removes redundant generation both
across processes and across repeated invocations.

The cache key is a SHA-256 over:

* the config's dataclass ``repr`` (every field, seed included);
* the optional ``max_steps`` truncation;
* a *code version*: the package version plus a digest of the source of
  every module the trajectory depends on (sedov workload, mesh, octree,
  refinement, neighbor discovery, SFC, geometry).  Any edit to those
  files changes the key, so a stale cache can never leak across code
  changes.

The cache is **opt-in**: it activates only when a directory is passed
explicitly or the ``REPRO_TRAJ_CACHE`` environment variable names one.
Entries are written atomically (temp file + rename) and unreadable or
malformed entries fall back to regeneration.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import pickle
import tempfile
from pathlib import Path
from typing import List, Optional

from .. import __version__
from ..amr.sedov import SedovConfig, SedovEpoch, SedovWorkload

__all__ = [
    "cached_full_trajectory",
    "prune_trajectory_cache",
    "trajectory_cache_path",
    "trajectory_key",
    "trajectory_cache_dir",
]

#: Environment variable naming the cache directory (empty/unset = off).
CACHE_ENV = "REPRO_TRAJ_CACHE"

_code_version_memo: Optional[str] = None


def _code_version() -> str:
    """Digest of the trajectory-generating code (plus package version)."""
    global _code_version_memo
    if _code_version_memo is None:
        from ..amr import sedov
        from ..mesh import geometry, mesh, neighbors, octree, refinement, sfc

        h = hashlib.sha256(__version__.encode())
        for mod in (sedov, mesh, octree, refinement, neighbors, sfc, geometry):
            h.update(inspect.getsource(mod).encode())
        _code_version_memo = h.hexdigest()
    return _code_version_memo


def trajectory_key(config: SedovConfig, max_steps: Optional[int] = None) -> str:
    """Content key of one trajectory: (config, truncation, code version)."""
    h = hashlib.sha256()
    h.update(repr(config).encode())
    h.update(f"max_steps={max_steps}".encode())
    h.update(_code_version().encode())
    return h.hexdigest()[:32]


def trajectory_cache_dir(cache_dir: "str | os.PathLike | None" = None) -> Optional[Path]:
    """Resolve the active cache directory (argument wins over env), or None."""
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV) or None
    return Path(cache_dir) if cache_dir is not None else None


def trajectory_cache_path(
    config: SedovConfig,
    max_steps: Optional[int] = None,
    cache_dir: "str | os.PathLike | None" = None,
) -> Optional[Path]:
    """The on-disk entry this trajectory would use, or ``None`` when no
    cache directory is configured.  Probing its existence *before* a run
    is how the service attributes warm-start hits per tenant."""
    directory = trajectory_cache_dir(cache_dir)
    if directory is None:
        return None
    return directory / f"sedov-{trajectory_key(config, max_steps)}.pkl"


def prune_trajectory_cache(
    cache_dir: "str | os.PathLike | None" = None,
    max_entries: int = 32,
) -> int:
    """Evict least-recently-used entries beyond ``max_entries``.

    Recency is mtime: :func:`cached_full_trajectory` touches an entry on
    every hit, so a trajectory shared by many tenants stays resident
    while one-off configs age out.  Returns the number evicted.
    """
    if max_entries < 0:
        raise ValueError(f"max_entries must be >= 0, got {max_entries}")
    directory = trajectory_cache_dir(cache_dir)
    if directory is None or not directory.is_dir():
        return 0
    entries = []
    for p in directory.glob("sedov-*.pkl"):
        try:
            entries.append((p.stat().st_mtime, p))
        except OSError:
            continue
    entries.sort()
    evicted = 0
    for _, p in entries[: max(len(entries) - max_entries, 0)]:
        try:
            p.unlink()
            evicted += 1
        except OSError:
            continue
    return evicted


def cached_full_trajectory(
    config: SedovConfig,
    max_steps: Optional[int] = None,
    cache_dir: "str | os.PathLike | None" = None,
) -> List[SedovEpoch]:
    """``SedovWorkload(config).full_trajectory(max_steps)``, disk-cached.

    With no cache directory configured this is a plain regeneration.
    A corrupt or unreadable entry is regenerated (and rewritten).
    """
    directory = trajectory_cache_dir(cache_dir)
    if directory is None:
        return SedovWorkload(config).full_trajectory(max_steps)

    path = directory / f"sedov-{trajectory_key(config, max_steps)}.pkl"
    try:
        with open(path, "rb") as fh:
            epochs = pickle.load(fh)
        if (
            isinstance(epochs, list)
            and epochs
            and all(isinstance(e, SedovEpoch) for e in epochs)
        ):
            try:
                os.utime(path)     # hit = recently used (LRU prune input)
            except OSError:
                pass
            return epochs
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        pass

    epochs = SedovWorkload(config).full_trajectory(max_steps)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(epochs, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        pass  # cache is best-effort; an unwritable directory is not an error
    return epochs
