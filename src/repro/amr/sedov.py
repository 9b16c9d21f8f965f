"""Sedov Blast Wave 3D workload (paper §VI, Table I).

The Sedov–Taylor point explosion is the paper's primary evaluation
problem (run in Phoebus): a spherical shock expands self-similarly with
radius ``r(t) ∝ t^{2/5}``.  AMR refines a shell tracking the shock
front, so block counts grow as the shock surface grows, and compute
cost concentrates in shock-adjacent blocks (steep gradients → more
solver iterations).

We reproduce the *performance-relevant* structure rather than solving
the hydrodynamics: the analytic shock schedule drives refinement
tagging, per-block costs follow a gradient-proximity model with
heavy-tailed kernel noise, and the four Table I configurations are
provided verbatim (mesh geometry, block size, timestep counts).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..mesh.geometry import RootGrid
from ..mesh.mesh import AmrMesh
from ..mesh.neighbors import NeighborGraph
from ..mesh.refinement import RefinementTags

__all__ = [
    "SedovConfig",
    "SedovEpoch",
    "SedovWorkload",
    "TABLE_I_CONFIGS",
    "table_i_config",
    "scaled_config",
]


@dataclasses.dataclass(frozen=True)
class SedovConfig:
    """One Sedov experiment configuration (a Table I row).

    Attributes
    ----------
    n_ranks:
        Simulation ranks; mesh geometry gives one root block per rank.
    mesh_cells:
        Domain resolution in cells (e.g. ``(128, 128, 128)``).
    block_cells:
        Cells per block side (paper: 16).
    t_total:
        Total timesteps (Table I ``t_total``).
    refine_check_interval:
        Steps between refinement checks (paper: worst case every 5).
    max_level:
        Maximum refinement depth.
    r_start_frac / r_end_frac:
        Shock radius at t=0 / t=t_total, as a fraction of the smallest
        half-extent of the domain.
    refine_width / coarsen_width:
        Tagging shell half-widths in units of the *child* block width
        (refine) and own block width (coarsen hysteresis).
    cost_amp:
        Peak kernel-cost multiplier at the shock front (cost of a
        shock-front block ≈ ``1 + cost_amp``).
    cost_noise_sigma:
        Lognormal sigma of per-block, per-epoch kernel variability.
    seed:
        Workload RNG seed.
    """

    n_ranks: int
    mesh_cells: Tuple[int, int, int]
    block_cells: int = 16
    t_total: int = 30_590
    refine_check_interval: int = 5
    max_level: int = 1
    r_start_frac: float = 0.10
    r_end_frac: float = 0.85
    refine_width: float = 0.5
    coarsen_width: float = 0.75
    cost_amp: float = 1.0
    cost_noise_sigma: float = 0.30
    #: epochs split at this many steps even without a mesh change: kernel
    #: costs drift and the framework re-invokes load balancing (Table I's
    #: t_lb counts far exceed the number of distinct meshes)
    max_epoch_steps: int = 25
    seed: int = 42

    def __post_init__(self) -> None:
        for c in self.mesh_cells:
            if c % self.block_cells != 0:
                raise ValueError(
                    f"mesh cells {self.mesh_cells} not divisible by block {self.block_cells}"
                )
        if self.n_root_blocks < self.n_ranks:
            raise ValueError(
                f"geometry gives {self.n_root_blocks} root blocks for "
                f"n_ranks={self.n_ranks}; need at least one block per rank"
            )

    @property
    def root_shape(self) -> Tuple[int, int, int]:
        return tuple(c // self.block_cells for c in self.mesh_cells)  # type: ignore[return-value]

    @property
    def n_root_blocks(self) -> int:
        return int(np.prod(self.root_shape))

    @property
    def domain(self) -> Tuple[float, float, float]:
        """Physical domain extents (cells as length units)."""
        return tuple(float(c) for c in self.mesh_cells)  # type: ignore[return-value]

    def shock_radius(self, step: int) -> float:
        """Sedov–Taylor radius at a given timestep: ``r ∝ t^{2/5}``."""
        half = 0.5 * min(self.mesh_cells)
        r0 = self.r_start_frac * half
        r1 = self.r_end_frac * half
        u = min(max(step / self.t_total, 0.0), 1.0)
        return r0 + (r1 - r0) * u**0.4


#: The paper's four Sedov configurations (Table I).  ``t_total`` is taken
#: from the table; block counts and lb invocations emerge from the run.
TABLE_I_CONFIGS: Dict[int, SedovConfig] = {
    512: SedovConfig(n_ranks=512, mesh_cells=(128, 128, 128), t_total=30_590),
    1024: SedovConfig(n_ranks=1024, mesh_cells=(128, 128, 256), t_total=43_088),
    2048: SedovConfig(n_ranks=2048, mesh_cells=(128, 256, 256), t_total=43_042),
    4096: SedovConfig(n_ranks=4096, mesh_cells=(256, 256, 256), t_total=53_459),
}


def table_i_config(n_ranks: int, **overrides) -> SedovConfig:
    """A Table I configuration, optionally with overridden fields."""
    try:
        cfg = TABLE_I_CONFIGS[n_ranks]
    except KeyError:
        raise KeyError(
            f"no Table I config for {n_ranks} ranks; have {sorted(TABLE_I_CONFIGS)}"
        ) from None
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def scaled_config(n_ranks: int, scale: int = 8, steps: int = 2_000) -> SedovConfig:
    """A geometry-faithful reduced version of a Table I configuration.

    Divides the Table I cell counts and the block size by ``scale`` (so
    the root grid — and hence blocks-per-rank, refinement dynamics, and
    neighbor structure — is unchanged) and truncates the run to
    ``steps`` timesteps.  Used by the default benchmark scale; set
    ``REPRO_SCALE=paper`` in the benches for the full Table I runs.
    """
    base = table_i_config(n_ranks)
    if base.block_cells % scale != 0:
        raise ValueError(f"scale {scale} must divide block size {base.block_cells}")
    return dataclasses.replace(
        base,
        mesh_cells=tuple(c // scale for c in base.mesh_cells),  # type: ignore[arg-type]
        block_cells=base.block_cells // scale,
        t_total=min(steps, base.t_total),
    )


@dataclasses.dataclass
class SedovEpoch:
    """One constant-mesh interval of the Sedov run.

    Placement, neighbor structure, and base costs are fixed within an
    epoch; the driver simulates its ``n_steps`` steps with noise only.
    ``keys`` are the blocks' packed keys in block-ID order
    (:func:`~repro.mesh.sfc.pack_block_keys`), the identity the engine's
    cost tracker and remesh carry join on.
    """

    index: int
    step_start: int
    n_steps: int
    graph: NeighborGraph
    base_costs: np.ndarray       #: true per-block kernel cost this epoch
    n_refined: int
    n_coarsened: int
    keys: np.ndarray


class SedovWorkload:
    """Generates the policy-independent mesh/cost trajectory of a run.

    The trajectory (mesh evolution + per-block true costs) depends only
    on the physics, not on placement, so it is generated once and shared
    by every policy arm of an experiment — the same discipline as
    re-running the identical problem per policy on the real cluster.
    """

    def __init__(self, config: SedovConfig) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)

    # ------------------------------------------------------------------ #

    def _block_shell_distance(
        self, mesh: AmrMesh, r: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-block (d_min, d_max): box distance range to the shock sphere.

        ``d_min <= 0 <= d_max`` means the shock surface crosses the block.
        Distances are signed relative to the sphere: negative = inside.
        """
        lo, hi = mesh.bounds()
        center = np.asarray(self.config.domain) / 2.0
        # Closest / farthest point of each box to the center.
        closest = np.clip(center, lo, hi)
        d_near = np.linalg.norm(closest - center, axis=1)
        corner = np.where(np.abs(lo - center) > np.abs(hi - center), lo, hi)
        d_far = np.linalg.norm(corner - center, axis=1)
        return d_near - r, d_far - r

    def _tags(self, mesh: AmrMesh, r: float) -> RefinementTags:
        """Refinement tags for shock radius ``r`` (vectorized).

        Refine: the shock surface (±``refine_width`` child widths)
        crosses the block and it can refine.  Coarsen: the *parent* box
        lies entirely outside the shell with ``coarsen_width`` parent
        widths of hysteresis — evaluating on the parent tags complete
        sibling sets, which is what :func:`apply_tags` can actually
        merge.
        """
        cfg = self.config
        d_lo, d_hi = self._block_shell_distance(mesh, r)
        levels = mesh.levels()
        width0 = min(cfg.domain) / min(cfg.root_shape)  # level-0 physical width
        own_w = width0 / (2.0**levels)
        child_w = own_w / 2.0

        refine_band = cfg.refine_width * child_w
        crosses = (d_lo <= refine_band) & (d_hi >= -refine_band)
        can_refine = levels < cfg.max_level

        # Parent-box shell distances, from own box + coords parity.
        coords, _ = mesh._geometry()
        lo, hi = mesh.bounds()
        parity = (coords & 1).astype(np.float64)
        p_lo = lo - parity * own_w[:, None]
        p_hi = p_lo + 2.0 * own_w[:, None]
        center = np.asarray(cfg.domain) / 2.0
        closest = np.clip(center, p_lo, p_hi)
        pd_near = np.linalg.norm(closest - center, axis=1) - r
        corner = np.where(np.abs(p_lo - center) > np.abs(p_hi - center), p_lo, p_hi)
        pd_far = np.linalg.norm(corner - center, axis=1) - r

        coarsen_band = cfg.coarsen_width * 2.0 * own_w
        parent_far = (pd_near > coarsen_band) | (pd_far < -coarsen_band)
        can_coarsen = levels > 0

        return RefinementTags(
            refine=mesh.keys[crosses & can_refine],
            coarsen=mesh.keys[parent_far & can_coarsen & ~crosses],
        )

    def _epoch_costs(self, mesh: AmrMesh, r: float) -> np.ndarray:
        """True per-block kernel cost for an epoch.

        ``1 + amp * exp(-(d/σ_g)^2)`` on shock proximity (σ_g = one
        level-0 block width), times lognormal kernel noise.  Block cost
        is independent of refinement level (§II-B: same cell count).
        """
        cfg = self.config
        centers = mesh.centers()
        center = np.asarray(cfg.domain) / 2.0
        d = np.abs(np.linalg.norm(centers - center, axis=1) - r)
        sigma_g = min(cfg.domain) / min(cfg.root_shape)
        gradient = np.exp(-((d / sigma_g) ** 2))
        noise = self.rng.lognormal(0.0, cfg.cost_noise_sigma, size=mesh.n_blocks)
        return (1.0 + cfg.cost_amp * gradient) * noise

    # ------------------------------------------------------------------ #

    def trajectory(self, max_steps: int | None = None) -> Iterator[SedovEpoch]:
        """Yield the run's epochs in order.

        ``max_steps`` truncates the run (reduced-scale benchmarks); the
        shock schedule still follows the full ``t_total`` clock so the
        truncated prefix is identical to the full run's prefix.
        """
        cfg = self.config
        total = cfg.t_total if max_steps is None else min(max_steps, cfg.t_total)
        mesh = AmrMesh(
            RootGrid(cfg.root_shape),
            block_cells=cfg.block_cells,
            max_level=cfg.max_level,
            domain_size=cfg.domain,
        )
        epoch_idx = 0
        step = 0
        n_ref = n_coarse = 0
        while step < total:
            r = cfg.shock_radius(step)
            base_costs = self._epoch_costs(mesh, r)
            epoch_start = step
            keys = mesh.keys
            graph = mesh.neighbor_graph
            # Advance until the next mesh change, the epoch-length cap, or
            # the end of the run.
            probe = step
            nr = nc = 0
            while probe < total:
                probe += cfg.refine_check_interval
                if probe >= total:
                    probe = total
                    break
                tags = self._tags(mesh, cfg.shock_radius(probe))
                if tags.refine.size or tags.coarsen.size:
                    nr, nc = mesh.remesh(tags)
                    if nr or nc:
                        break
                    nr = nc = 0
                if probe - epoch_start >= cfg.max_epoch_steps:
                    break
            yield SedovEpoch(
                index=epoch_idx,
                step_start=epoch_start,
                n_steps=probe - epoch_start,
                graph=graph,
                base_costs=base_costs,
                n_refined=n_ref,
                n_coarsened=n_coarse,
                keys=keys,
            )
            epoch_idx += 1
            step = probe
            n_ref, n_coarse = nr, nc

    def full_trajectory(self, max_steps: int | None = None) -> List[SedovEpoch]:
        return list(self.trajectory(max_steps))
