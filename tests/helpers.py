"""Shared test helpers (random structure generators, warmed meshes, live
job service)."""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np

from repro.mesh import AmrMesh, RefinementTags
from repro.mesh.geometry import RootGrid
from repro.mesh.octree import OctreeForest
from repro.mesh.sfc import block_keys


class LiveService:
    """A :class:`~repro.service.server.JobService` on a background
    event-loop thread — the service-test harness, shared by the
    end-to-end, recovery, and chaos suites."""

    def __init__(self, journal_root, **config_kwargs):
        from repro.service.server import JobService, ServiceConfig

        config_kwargs.setdefault("journal_root", str(journal_root))
        config_kwargs.setdefault("port", 0)
        self.config = ServiceConfig(**config_kwargs)
        self.service = JobService(self.config)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def body():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.service.start())
            started.set()
            self.loop.run_until_complete(self.service.serve_forever())
            self.loop.run_until_complete(self.service.close())
            self.loop.close()

        self.thread = threading.Thread(target=body, daemon=True)
        self.thread.start()
        if not started.wait(10):
            raise RuntimeError("service did not start")

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(*self.service.address)

    def stop(self, drain=False):
        from repro.service.client import ServiceClient

        with ServiceClient(*self.service.address) as c:
            c.shutdown(drain=drain)
        self.thread.join(timeout=60)


def wait_for(predicate, timeout_s=120.0, poll_s=0.05):
    """Poll ``predicate`` until truthy (returning its value) or raise."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll_s)
    raise TimeoutError("condition not met")


def random_forest(seed: int, n_ops: int = 12, dim: int = 2) -> OctreeForest:
    """Randomly refined (and occasionally coarsened) valid forest."""
    rng = np.random.default_rng(seed)
    shape = (2,) * dim
    forest = OctreeForest(RootGrid(shape), max_level=4)
    for _ in range(n_ops):
        leaves = sorted(forest.leaves(), key=lambda b: (b.level, b.coords))
        if rng.random() < 0.75:
            candidates = [b for b in leaves if b.level < forest.max_level]
            if candidates:
                forest.refine(candidates[int(rng.integers(len(candidates)))])
        else:
            candidates = [b for b in leaves if forest.can_coarsen(b)]
            if candidates:
                forest.coarsen(candidates[int(rng.integers(len(candidates)))])
    return forest


def tag_by_predicate(forest, should_refine, should_coarsen=None) -> RefinementTags:
    """Tags from per-block predicates (refine wins on conflict)."""
    refine, coarsen = [], []
    for b in forest.leaves():
        if b.level < forest.max_level and should_refine(b):
            refine.append(b)
        elif should_coarsen is not None and b.level > 0 and should_coarsen(b):
            coarsen.append(b)
    return RefinementTags(refine=block_keys(refine), coarsen=block_keys(coarsen))


def warmed_mesh(shape, periodic, max_level=3) -> AmrMesh:
    """An :class:`AmrMesh` whose neighbor graph and geometry are cached."""
    mesh = AmrMesh(RootGrid(shape, periodic=periodic), max_level=max_level)
    _ = mesh.neighbor_graph
    _ = mesh.levels()
    return mesh


def random_edges(rng: np.random.Generator, n_blocks: int, factor: int = 2) -> np.ndarray:
    """Random undirected deduplicated block-pair edges."""
    e = rng.integers(0, n_blocks, size=(n_blocks * factor, 2))
    e = e[e[:, 0] != e[:, 1]]
    if len(e) == 0:
        return np.empty((0, 2), dtype=np.int64)
    return np.unique(np.sort(e, axis=1), axis=0)
