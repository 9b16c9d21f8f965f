"""commbench: boundary-communication microbenchmark (paper §VI-C, Fig. 7a).

Isolates P2P boundary exchange from compute: constructs octree meshes
with realistic (randomized) refinement, derives message patterns from
geometric neighbor relationships (face/edge/vertex message sizes), and
measures round latency under placements of varying locality
(CPL0 → CPL100).  Meshes target 1–2 blocks per rank; results average
over multiple rounds and random meshes per policy; cold-start rounds
and >10 ms fabric-recovery outliers are discarded, as in the paper.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from ..core.policy import get_policy
from ..mesh.geometry import RootGrid
from ..mesh.mesh import AmrMesh
from ..mesh.refinement import RefinementTags
from ..simnet.cluster import Cluster
from ..simnet.machine import DEFAULT_FABRIC, FabricSpec
from ..simnet.runtime import BSPModel, ExchangePattern
from ..simnet.tuning import TUNED, TuningConfig
from .reporting import cplx_label, format_series

__all__ = [
    "COMMBENCH_FABRIC",
    "CommbenchConfig",
    "CommbenchResult",
    "random_refined_mesh",
    "run_commbench",
]


@dataclasses.dataclass(frozen=True)
class CommbenchConfig:
    """Parameters of one commbench sweep."""

    n_ranks: int = 512
    x_values: Tuple[float, ...] = (0.0, 25.0, 50.0, 75.0, 100.0)
    n_meshes: int = 10
    n_rounds: int = 100
    warmup_rounds: int = 5
    outlier_cutoff_s: float = 10e-3
    target_blocks_per_rank: float = 1.5
    max_level: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_ranks < 2:
            raise ValueError("n_ranks must be >= 2")
        if not 1.0 <= self.target_blocks_per_rank <= 4.0:
            raise ValueError("target_blocks_per_rank should be in [1, 4] (paper: 1-2)")


def _cube_root_shape(n_target: int) -> Tuple[int, int, int]:
    """Root grid of ~n_target blocks, as cubic as powers allow."""
    side = max(2, round(n_target ** (1.0 / 3.0)))
    # Adjust the last dimension to land close to the target.
    last = max(2, round(n_target / (side * side)))
    return (side, side, last)


def random_refined_mesh(
    n_ranks: int,
    target_blocks_per_rank: float,
    rng: np.random.Generator,
    max_level: int = 2,
) -> AmrMesh:
    """An octree mesh with randomized, clustered refinement.

    Refinement sites are random spherical regions (tracked features),
    refined until the leaf count reaches the target — "realistic
    refinement" in the paper's description of commbench.
    """
    target = int(n_ranks * target_blocks_per_rank)
    root = _cube_root_shape(max(n_ranks // 2, 8))
    mesh = AmrMesh(RootGrid(root), max_level=max_level)
    domain = np.asarray(mesh.domain_size)
    guard = 0
    while mesh.n_blocks < target and guard < 64:
        guard += 1
        center = rng.uniform(0.2, 0.8, size=3) * domain
        radius = rng.uniform(0.08, 0.25) * float(domain.min())
        centers = mesh.centers()
        levels = mesh.levels()
        d = np.linalg.norm(centers - center, axis=1)
        candidates = np.nonzero((d < radius) & (levels < max_level))[0]
        if candidates.size == 0:
            continue
        budget = max(1, (target - mesh.n_blocks) // 7)
        chosen = candidates[: budget]
        mesh.remesh(RefinementTags(refine=mesh.keys[chosen]))
    return mesh


@dataclasses.dataclass
class CommbenchResult:
    """Round-latency series for one scale: mean seconds per X value."""

    n_ranks: int
    x_values: Tuple[float, ...]
    mean_latency_s: np.ndarray         #: (n_x,) mean round latency
    std_latency_s: np.ndarray
    discarded_rounds: int

    def series(self) -> str:
        return format_series(
            f"commbench {self.n_ranks} ranks (ms)",
            [cplx_label(x) for x in self.x_values],
            self.mean_latency_s * 1e3,
        )

    def best_x(self) -> float:
        return float(self.x_values[int(np.argmin(self.mean_latency_s))])


#: Per-round fabric for commbench.  The default fabric's service costs
#: are *per-step effective* values amortizing unpack/wait overheads over
#: a full multi-round timestep; a single isolated exchange round uses
#: the raw per-round costs (1/4 of the per-step values).
COMMBENCH_FABRIC = FabricSpec(
    local_service_s=DEFAULT_FABRIC.local_service_s / 4,
    remote_service_s=DEFAULT_FABRIC.remote_service_s / 4,
)


def run_commbench(
    config: CommbenchConfig,
    fabric: FabricSpec = COMMBENCH_FABRIC,
    tuning: TuningConfig = TUNED,
) -> CommbenchResult:
    """Run the commbench sweep at one scale.

    Rounds execute on the vectorized model with zero compute (pure
    boundary exchange between barriers); policies receive uniform block
    costs — commbench isolates *locality*, not load balance.
    """
    cfg = config
    rng = np.random.default_rng(cfg.seed)
    cluster = Cluster(n_ranks=cfg.n_ranks)
    sums = np.zeros(len(cfg.x_values))
    sq = np.zeros(len(cfg.x_values))
    counts = np.zeros(len(cfg.x_values), dtype=np.int64)
    discarded = 0

    for mesh_i in range(cfg.n_meshes):
        mesh = random_refined_mesh(
            cfg.n_ranks, cfg.target_blocks_per_rank, rng, cfg.max_level
        )
        graph = mesh.neighbor_graph
        uniform = np.ones(mesh.n_blocks)
        for xi, x in enumerate(cfg.x_values):
            policy = get_policy(f"cplx:{x}")
            assignment = policy.place(uniform, cfg.n_ranks).assignment
            pattern = ExchangePattern.from_mesh(
                graph, assignment, np.zeros(mesh.n_blocks), cluster, fabric
            )
            model = BSPModel(
                cluster, fabric=fabric, tuning=tuning,
                seed=cfg.seed * 1000 + mesh_i * 10 + xi, exchange_rounds=1,
            )
            for r in range(cfg.warmup_rounds + cfg.n_rounds):
                t = model.step(pattern).step_time
                if r < cfg.warmup_rounds:
                    continue
                if t > cfg.outlier_cutoff_s:
                    discarded += 1
                    continue
                sums[xi] += t
                sq[xi] += t * t
                counts[xi] += 1

    counts = np.maximum(counts, 1)
    mean = sums / counts
    std = np.sqrt(np.maximum(sq / counts - mean**2, 0.0))
    return CommbenchResult(
        n_ranks=cfg.n_ranks,
        x_values=cfg.x_values,
        mean_latency_s=mean,
        std_latency_s=std,
        discarded_rounds=discarded,
    )
