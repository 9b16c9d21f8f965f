"""Galaxy-cooling-style workload (the paper's AthenaPK secondary study).

§VI notes results on a galaxy cooling setup in AthenaPK were
"directionally similar: codes with high compute variability benefit
more from better placement".  This workload models that regime:
refinement concentrates around a set of slowly-drifting cooling blobs,
and per-block cost variability is heavy-tailed (cooling time-scale
limited cells force short substeps in a few blocks).

Compared to Sedov: mesh structure is mostly static (few redistribution
events), but cost *variance* is much higher and controlled by
``variability`` — the knob for the paper's "high vs low compute
variability" comparison.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Tuple

import numpy as np

from ..mesh.geometry import RootGrid
from ..mesh.mesh import AmrMesh
from ..mesh.refinement import RefinementTags
from .sedov import SedovEpoch

__all__ = ["CoolingConfig", "CoolingWorkload"]


@dataclasses.dataclass(frozen=True)
class CoolingConfig:
    """Configuration of a cooling-dominated AMR run.

    Attributes
    ----------
    n_ranks:
        Simulation ranks (root grid sized to one block per rank where
        possible).
    root_shape:
        Level-0 block decomposition.
    n_blobs:
        Number of cooling sites driving refinement and cost hotspots.
    variability:
        Lognormal sigma of per-block cost noise — the high/low compute
        variability axis.
    blob_cost_amp:
        Extra cost multiplier inside cooling blobs.
    t_total / epoch_steps:
        Run length and steps between cost re-draws (blob drift).
    """

    n_ranks: int
    root_shape: Tuple[int, int, int]
    n_blobs: int = 8
    variability: float = 0.6
    blob_cost_amp: float = 4.0
    blob_radius: float = 1.5
    max_level: int = 2
    t_total: int = 2000
    epoch_steps: int = 100
    seed: int = 7

    def __post_init__(self) -> None:
        if int(np.prod(self.root_shape)) < 1:
            raise ValueError("root_shape must be non-empty")
        if self.n_blobs < 1:
            raise ValueError("n_blobs must be >= 1")
        if self.variability < 0:
            raise ValueError("variability must be >= 0")


class CoolingWorkload:
    """Trajectory generator for the cooling workload.

    Produces :class:`~repro.amr.sedov.SedovEpoch` records (the driver's
    epoch type is workload-agnostic).  The mesh refines around blob
    sites once at startup, then stays fixed; epochs re-draw costs as the
    blobs drift, so redistribution is triggered by cost drift rather
    than mesh change — the "stable problem" end of §II-B's
    redistribution-frequency spectrum.
    """

    def __init__(self, config: CoolingConfig) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        domain = np.asarray(config.root_shape, dtype=np.float64)
        self._blobs = self.rng.uniform(0.15, 0.85, size=(config.n_blobs, 3)) * domain
        self._drift = self.rng.normal(0.0, 0.02, size=(config.n_blobs, 3)) * domain

    def _build_mesh(self) -> AmrMesh:
        cfg = self.config
        mesh = AmrMesh(RootGrid(cfg.root_shape), max_level=cfg.max_level)
        for _ in range(cfg.max_level):
            centers = mesh.centers()
            levels = mesh.levels()
            width0 = 1.0  # level-0 block width in domain units
            near = np.zeros(mesh.n_blocks, dtype=bool)
            for i in range(mesh.n_blocks):
                if levels[i] >= cfg.max_level:
                    continue
                d = np.linalg.norm(self._blobs - centers[i], axis=1).min()
                near[i] = d < cfg.blob_radius * width0 / (2.0 ** levels[i])
            if not near.any():
                break
            mesh.remesh(RefinementTags(refine=mesh.keys[near]))
        return mesh

    def _costs(self, mesh: AmrMesh, t_frac: float) -> np.ndarray:
        cfg = self.config
        centers = mesh.centers()
        blobs = self._blobs + self._drift * t_frac * cfg.t_total / cfg.epoch_steps
        d = np.min(
            np.linalg.norm(centers[:, None, :] - blobs[None, :, :], axis=2), axis=1
        )
        hot = np.exp(-((d / cfg.blob_radius) ** 2))
        noise = self.rng.lognormal(0.0, cfg.variability, size=mesh.n_blocks)
        return (1.0 + cfg.blob_cost_amp * hot) * noise

    def trajectory(self, max_steps: int | None = None) -> Iterator[SedovEpoch]:
        cfg = self.config
        total = cfg.t_total if max_steps is None else min(max_steps, cfg.t_total)
        mesh = self._build_mesh()
        keys = mesh.keys
        graph = mesh.neighbor_graph
        step = 0
        idx = 0
        while step < total:
            n = min(cfg.epoch_steps, total - step)
            yield SedovEpoch(
                index=idx,
                step_start=step,
                n_steps=n,
                graph=graph,
                base_costs=self._costs(mesh, step / max(total, 1)),
                n_refined=0,
                n_coarsened=0,
                keys=keys,
            )
            step += n
            idx += 1

    def full_trajectory(self, max_steps: int | None = None) -> List[SedovEpoch]:
        return list(self.trajectory(max_steps))
