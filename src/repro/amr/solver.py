"""Block-field solvers on the AMR mesh, and a finite-volume advection solver.

:class:`BlockFieldSolver` is the mesh layer every block solver shares:
each leaf carries a ``block_cells^dim`` cell array (optionally with
trailing component axes), ghost values are filled from neighboring
leaves (across refinement levels, by sampling the covering leaf's
cells), and :meth:`~BlockFieldSolver.run` advances with a global CFL
timestep.  A solver subclasses it and supplies only its physics:
``initialize``, ``max_dt``, ``step`` and, for non-periodic domain
walls, ``_wall``.

The performance model never touches cell data, but a credible AMR
substrate should actually *compute* on its blocks.
:class:`AdvectionSolver` solves linear advection
``u_t + v . grad(u) = 0`` with a first-order upwind scheme in 2D or 3D.
It doubles as an executable validation of the mesh machinery — the
property tests check exact constant preservation on arbitrary refined
meshes (2D and 3D), the upwind maximum principle, exact conservation on
uniform periodic meshes, and agreement with the analytic translated
solution.  :class:`~repro.amr.hydro.EulerSolver2D` is the other
subclass.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from ..mesh.geometry import BlockIndex, block_bounds
from ..mesh.mesh import AmrMesh

__all__ = ["AdvectionSolver", "BlockFieldSolver"]


class BlockFieldSolver:
    """Cell data on the leaves of an AmrMesh, with ghost exchange.

    Parameters
    ----------
    mesh:
        The block mesh; ``data`` holds one array per leaf of shape
        ``(block_cells,) * dim`` followed by any component axes.
    cfl:
        CFL number the subclass's ``max_dt`` applies.
    """

    def __init__(self, mesh: AmrMesh, cfl: float) -> None:
        self.mesh = mesh
        self.cfl = cfl
        self.nc = mesh.block_cells
        self.dim = mesh.dim
        self.data = {}
        self.time = 0.0

    @property
    def data(self) -> Dict[BlockIndex, np.ndarray]:
        """Interior cell data per leaf; replace it whole, not in place."""
        return self._data

    @data.setter
    def data(self, data: Dict[BlockIndex, np.ndarray]) -> None:
        self._data = data
        #: finest leaf level: point location probes the forest at it
        self._finest = max((b.level for b in data), default=0)

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #

    def _geom(self, b: BlockIndex) -> Tuple[np.ndarray, float]:
        """(lower corner, cell width) of a block in physical units."""
        lo, hi = block_bounds(b, self.mesh.root, self.mesh.domain_size)
        return lo, float((hi[0] - lo[0]) / self.nc)

    def _centers(self, b: BlockIndex) -> Tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays of a block, one per axis."""
        lo, h = self._geom(b)
        axes = [lo[k] + (np.arange(self.nc) + 0.5) * h for k in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def _integral(self) -> np.ndarray:
        """Domain integral of every component (cell values x volumes)."""
        cells = tuple(range(self.dim))
        return sum(
            u.sum(axis=cells) * self._geom(b)[1] ** self.dim
            for b, u in self.data.items()
        )

    # ------------------------------------------------------------------ #
    # point location and ghost fill
    # ------------------------------------------------------------------ #

    def _locate(self, p: np.ndarray) -> Tuple[BlockIndex, Tuple[int, ...]]:
        """Leaf and interior cell index containing a (wrapped) point."""
        domain = np.asarray(self.mesh.domain_size)
        p = np.array(p, dtype=np.float64)
        for k in range(self.dim):
            if self.mesh.root.periodic[k]:
                p[k] %= domain[k]
            else:
                p[k] = min(max(p[k], 0.0), np.nextafter(domain[k], 0.0))
        ext = np.asarray(self.mesh.root.extent_at(self._finest), dtype=np.float64)
        width = domain / ext
        cell = np.minimum((p // width).astype(np.int64), (ext - 1).astype(np.int64))
        probe = BlockIndex(self._finest, tuple(int(c) for c in cell))
        leaf = self.mesh.forest.find_covering_leaf(probe)
        if leaf is None:
            raise RuntimeError(f"no leaf covers point {tuple(p)}")
        lo, h = self._geom(leaf)
        idx = tuple(
            int(min(max((p[k] - lo[k]) // h, 0), self.nc - 1))
            for k in range(self.dim)
        )
        return leaf, idx

    def _sample(self, *coords: float) -> np.ndarray:
        """Cell value (all components) of the leaf cell containing a point."""
        b, idx = self._locate(np.asarray(coords, dtype=np.float64))
        return self.data[b][idx]

    def _wall(self, face: np.ndarray, axis: int) -> np.ndarray:
        """Ghost plane behind a non-periodic domain wall: outflow (copy)."""
        return face

    def _ghosted(self, b: BlockIndex) -> np.ndarray:
        """Block data with a one-cell ghost frame filled from neighbors.

        Ghost values sample the covering leaf's cell at the ghost-cell
        center — piecewise-constant prolongation across coarse-fine
        interfaces (first-order accurate, matching the schemes' order).
        Non-periodic domain boundaries take :meth:`_wall` of the adjacent
        interior plane.  Only face ghost planes are filled: the
        face-based stencils never read corners.
        """
        nc, dim = self.nc, self.dim
        u = self.data[b]
        g = np.empty((nc + 2,) * dim + u.shape[dim:], dtype=np.float64)
        g[(slice(1, -1),) * dim] = u
        lo, h = self._geom(b)
        domain = np.asarray(self.mesh.domain_size)
        face_axes = [lo[k] + (np.arange(nc) + 0.5) * h for k in range(dim)]
        for axis in range(dim):
            for coord, ghost_i, copy_i in (
                (lo[axis] - 0.5 * h, 0, 1),
                (lo[axis] + (nc + 0.5) * h, nc + 1, nc),
            ):
                ghost = tuple(ghost_i if k == axis else slice(1, -1) for k in range(dim))
                if self.mesh.root.periodic[axis] or 0 <= coord < domain[axis]:
                    axes = list(face_axes)
                    axes[axis] = np.array([coord])
                    grid = np.meshgrid(*axes, indexing="ij")
                    points = np.stack(grid, axis=-1).reshape(-1, dim)
                    vals = [self._sample(*p) for p in points]
                    g[ghost] = np.reshape(vals, g[ghost].shape)
                else:
                    face = tuple(copy_i if k == axis else slice(1, -1) for k in range(dim))
                    g[ghost] = self._wall(g[face], axis)
        return g

    # ------------------------------------------------------------------ #
    # time stepping
    # ------------------------------------------------------------------ #

    def run(self, t_end: float, max_steps: int = 100_000) -> int:
        """Advance to ``t_end``; returns the number of steps taken."""
        steps = 0
        while self.time < t_end - 1e-12 and steps < max_steps:
            dt = min(self.max_dt(), t_end - self.time)
            self.step(dt)
            steps += 1
        return steps


class AdvectionSolver(BlockFieldSolver):
    """First-order upwind advection on a (possibly refined) 2D/3D AmrMesh.

    Parameters
    ----------
    mesh:
        A 2D or 3D mesh.  Refinement may be arbitrary (2:1-balanced);
        for exact conservation use a uniform mesh with periodic root.
    velocity:
        Constant advection velocity, one component per mesh dimension.
    cfl:
        CFL number for :meth:`max_dt` (must be <= 1 for stability).
    """

    def __init__(
        self,
        mesh: AmrMesh,
        velocity: Sequence[float] = (1.0, 0.5),
        cfl: float = 0.4,
    ) -> None:
        if mesh.dim not in (2, 3):
            raise ValueError("AdvectionSolver supports 2D and 3D meshes")
        velocity = tuple(float(v) for v in velocity)
        if len(velocity) != mesh.dim:
            raise ValueError(
                f"velocity has {len(velocity)} components for a "
                f"{mesh.dim}D mesh"
            )
        if not 0 < cfl <= 1.0:
            raise ValueError("cfl must be in (0, 1]")
        super().__init__(mesh, cfl)
        self.velocity = velocity

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #

    def initialize(self, fn: Callable[..., np.ndarray]) -> None:
        """Set ``u = fn(x, y[, z])`` from cell-center coordinates."""
        self.data = {
            b: np.asarray(fn(*self._centers(b)), dtype=np.float64)
            for b in self.mesh.blocks
        }
        self.time = 0.0

    def total_mass(self) -> float:
        """Integral of u over the domain (sum of cell values x volumes)."""
        return float(self._integral())

    def extrema(self) -> Tuple[float, float]:
        lo = min(float(u.min()) for u in self.data.values())
        hi = max(float(u.max()) for u in self.data.values())
        return lo, hi

    def sample_point(self, *coords: float) -> float:
        """Value of the cell containing a physical point."""
        return float(self._sample(*coords))

    # ------------------------------------------------------------------ #
    # time stepping
    # ------------------------------------------------------------------ #

    def max_dt(self) -> float:
        """CFL-limited timestep over the finest cells."""
        speed = sum(abs(v) for v in self.velocity)
        if speed == 0:
            return np.inf
        h_min = min(self._geom(b)[1] for b in self.data)
        return self.cfl * h_min / speed

    def step(self, dt: float | None = None) -> float:
        """Advance one upwind step; returns the dt used."""
        if not self.data:
            raise RuntimeError("call initialize() first")
        if dt is None:
            dt = self.max_dt()
        new: Dict[BlockIndex, np.ndarray] = {}
        interior = (slice(1, -1),) * self.dim
        for b, u in self.data.items():
            _, h = self._geom(b)
            g = self._ghosted(b)
            c = g[interior]
            update = np.zeros_like(c)
            for axis, v in enumerate(self.velocity):
                if v == 0.0:
                    continue
                if v > 0:
                    shifted = tuple(
                        slice(0, -2) if k == axis else slice(1, -1)
                        for k in range(self.dim)
                    )
                    diff = c - g[shifted]
                else:
                    shifted = tuple(
                        slice(2, None) if k == axis else slice(1, -1)
                        for k in range(self.dim)
                    )
                    diff = g[shifted] - c
                update += abs(v) * diff
            new[b] = c - dt / h * update
        self.data = new
        self.time += dt
        return dt
