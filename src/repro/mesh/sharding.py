"""Sharded per-rank block tables for extreme-scale metadata.

The paper's scalebench stops at 128K ranks partly because every policy
call materializes the *global* block table (costs, SFC ids, neighbor
rows) in one allocation.  Distributed AMR frameworks instead keep
process-local block tables: each rank shard holds only the metadata for
its contiguous SFC window (Schornbaum & Rüde's distributed forest-of-
octrees).  :class:`ShardedBlockTable` models that: columns are produced
one shard at a time by provider callables, so peak resident metadata is
O(shard blocks), not O(global blocks), and the table keeps byte
accounting so tests and benchmarks can gate the memory claim.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["ShardedBlockTable"]

#: column provider: ``(shard_index, lo, hi) -> array of length hi - lo``
ColumnProvider = Callable[[int, int, int], np.ndarray]


class ShardedBlockTable:
    """Shard-at-a-time view of a global SFC-ordered block table.

    Parameters
    ----------
    n_blocks:
        Global block count.
    shard_blocks:
        Blocks per shard (the last shard may be short).  Mutually
        exclusive with ``bounds``.
    bounds:
        Explicit ascending shard boundaries ``[b0=0, b1, ..., bk=n]``
        for unevenly sized shards (e.g. derived from rank windows).
    columns:
        Name -> provider mapping; a provider is called with
        ``(shard_index, lo, hi)`` and must return an array of length
        ``hi - lo`` holding that column's values for global block IDs
        ``[lo, hi)``.

    The table never stores column data across shards: callers stream
    :meth:`materialize` results and the table only tracks
    :attr:`peak_shard_bytes` (largest single-shard working set) and
    :attr:`total_bytes` (cumulative bytes produced).
    """

    def __init__(
        self,
        n_blocks: int,
        shard_blocks: int | None = None,
        bounds: Sequence[int] | None = None,
        columns: Mapping[str, ColumnProvider] | None = None,
    ) -> None:
        if n_blocks < 0:
            raise ValueError("n_blocks must be >= 0")
        if (shard_blocks is None) == (bounds is None):
            raise ValueError("pass exactly one of shard_blocks / bounds")
        if bounds is not None:
            bounds = [int(b) for b in bounds]
            if bounds[0] != 0 or bounds[-1] != n_blocks:
                raise ValueError("bounds must start at 0 and end at n_blocks")
            if any(b > a for a, b in zip(bounds[1:], bounds)):
                raise ValueError("bounds must be non-decreasing")
            self._bounds = bounds
        else:
            if shard_blocks < 1:
                raise ValueError("shard_blocks must be >= 1")
            if n_blocks == 0:
                self._bounds = [0, 0]
            else:
                self._bounds = list(range(0, n_blocks, shard_blocks)) + [n_blocks]
        self.n_blocks = n_blocks
        self.columns: Dict[str, ColumnProvider] = dict(columns or {})
        self.peak_shard_bytes = 0
        self.total_bytes = 0

    @property
    def n_shards(self) -> int:
        return len(self._bounds) - 1

    def shard_bounds(self, shard: int) -> Tuple[int, int]:
        """Global block-ID window ``[lo, hi)`` of one shard."""
        if not 0 <= shard < self.n_shards:
            raise IndexError(f"shard {shard} out of range [0, {self.n_shards})")
        return self._bounds[shard], self._bounds[shard + 1]

    def column(self, shard: int, name: str) -> np.ndarray:
        """Materialize one column of one shard."""
        lo, hi = self.shard_bounds(shard)
        arr = np.asarray(self.columns[name](shard, lo, hi))
        if arr.shape[0] != hi - lo:
            raise ValueError(
                f"column {name!r} shard {shard}: provider returned "
                f"{arr.shape[0]} values for window [{lo}, {hi})"
            )
        self.total_bytes += arr.nbytes
        return arr

    def materialize(self, shard: int) -> Dict[str, np.ndarray]:
        """Materialize every column of one shard, updating peak accounting."""
        out = {name: self.column(shard, name) for name in self.columns}
        self.peak_shard_bytes = max(
            self.peak_shard_bytes, sum(a.nbytes for a in out.values())
        )
        return out
