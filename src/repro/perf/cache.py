"""The service's pattern cache: one content-keyed store shared by runs.

Refinement only fires on trigger epochs, so consecutive epochs usually
share the same neighbor graph, and the tenants of one ``repro serve``
process often sweep the same configuration.  Whenever the placement
also repeats, :meth:`ExchangePattern.from_mesh` (edge gather, rank-pair
collapse, latency classification) recomputes bit-identical values.
:class:`SharedPatternCache` memoizes it for the whole process; the engine looks it up through a per-run
:class:`PatternCacheHandle` only in service mode
(``SupervisorConfig.shared_pattern_store``, set on every ``repro
serve`` job and handed by the supervisor to each cell).  Every other
run computes the pattern directly: on a single CLI run the store's
entries cost more memory than its few hits save time.

Correctness contract (pinned by the cache tests):

* a hit returns arrays **bit-identical** to an uncached recomputation —
  only the per-rank ``loads`` vector depends on this epoch's costs, so
  it is recomputed on every lookup with the exact ``np.bincount``
  expression ``from_mesh`` uses;
* the key is a content fingerprint of every input ``from_mesh`` reads
  (graph edges, kinds and block keys, assignment bytes, cluster shape
  and NIC tiers, fabric), so equal content hits across runs and any
  change misses;
* the store is LRU-bounded at :data:`SHARED_PATTERN_CACHE_SIZE`
  entries; evictions are counted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from ..simnet.cluster import Cluster
from ..simnet.machine import FabricSpec
from ..simnet.runtime import ExchangePattern

__all__ = [
    "SHARED_PATTERN_CACHE_SIZE",
    "PatternCacheHandle",
    "PatternCacheStats",
    "SharedPatternCache",
    "shared_cache_handle",
]

#: entry budget of the process-wide store (tenants pool one LRU budget)
SHARED_PATTERN_CACHE_SIZE = 64


@dataclasses.dataclass
class PatternCacheStats:
    """Hit/miss/eviction counters of a store or of one run's handle."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class SharedPatternCache:
    """A thread-safe, content-keyed LRU of exchange patterns.

    Per-run attribution: the engine holds a :class:`PatternCacheHandle`
    whose ``stats`` count only that run's lookups (surfaced per job and
    per tenant in service job status), while ``self.stats`` aggregates
    every run in the process.
    """

    def __init__(self, maxsize: int = SHARED_PATTERN_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        #: key -> (pattern with stale loads, message stats)
        self._entries: "OrderedDict[Tuple, ExchangePattern]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = PatternCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def handle(self) -> "PatternCacheHandle":
        """A per-run view with private hit/miss counters."""
        return PatternCacheHandle(self)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _graph_fingerprint(graph) -> str:
        """Content digest of a neighbor graph, memoized on the object.

        Hashes the edges, kinds and packed block keys; a key encodes a
        block's dim, level and coordinates injectively, so graphs over
        different block sets never share a digest.
        """
        fp = getattr(graph, "_repro_content_fp", None)
        if fp is None:
            h = hashlib.sha256()
            for part in (graph.edges, graph.kinds, graph.keys):
                h.update(np.ascontiguousarray(part).tobytes())
                h.update(b"\x00")
            fp = h.hexdigest()
            try:
                graph._repro_content_fp = fp
            except AttributeError:
                pass               # slotted/frozen graph: recompute next time
        return fp

    @classmethod
    def _key(
        cls, graph, assignment: np.ndarray, cluster: Cluster, fabric: FabricSpec
    ) -> Tuple:
        nic = cluster.node_nic_gbps
        return (
            cls._graph_fingerprint(graph),
            assignment.tobytes(),
            cluster.n_ranks,
            repr(cluster.machine),
            cluster.node_speed_factor.tobytes(),
            cluster.nodes_per_switch,
            None if nic is None else nic.tobytes(),
            fabric,
        )

    def lookup(
        self,
        graph,
        assignment: np.ndarray,
        costs: np.ndarray,
        cluster: Cluster,
        fabric: FabricSpec,
        stats: Optional[PatternCacheStats] = None,
    ) -> ExchangePattern:
        """Return this epoch's exchange pattern.

        Bit-identical to calling :meth:`ExchangePattern.from_mesh`
        directly, whether it hits or misses.  ``stats`` (a handle's
        counters) is counted next to the store's.
        """
        assignment = np.asarray(assignment, dtype=np.int64)
        key = self._key(graph, assignment, cluster, fabric)
        counters = (self.stats,) if stats is None else (self.stats, stats)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                for c in counters:
                    c.hits += 1
        if entry is not None:
            loads = np.asarray(
                np.bincount(assignment, weights=costs, minlength=cluster.n_ranks),
                dtype=np.float64,
            )
            return dataclasses.replace(entry, loads=loads)

        # Compute outside the lock (the expensive part); a concurrent
        # duplicate insert is harmless — both values are bit-identical.
        pattern = ExchangePattern.from_mesh(graph, assignment, costs, cluster, fabric)
        with self._lock:
            for c in counters:
                c.misses += 1
            self._entries[key] = pattern
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                for c in counters:
                    c.evictions += 1
        return pattern


class PatternCacheHandle:
    """One run's view of a :class:`SharedPatternCache`: lookups hit the
    shared store while the counters stay private to this run."""

    def __init__(self, store: SharedPatternCache) -> None:
        self.store = store
        self.stats = PatternCacheStats()

    def lookup(
        self,
        graph,
        assignment: np.ndarray,
        costs: np.ndarray,
        cluster: Cluster,
        fabric: FabricSpec,
    ) -> ExchangePattern:
        return self.store.lookup(
            graph, assignment, costs, cluster, fabric, stats=self.stats
        )


_SHARED = SharedPatternCache()


def shared_cache_handle() -> PatternCacheHandle:
    """A handle onto the process-wide store."""
    return _SHARED.handle()
