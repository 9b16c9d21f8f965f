"""A 2D compressible Euler solver on the AMR mesh (finite volume, HLL).

The performance study drives refinement from the *analytic* Sedov shock
schedule; this module closes the loop with real physics: a first-order
Godunov-type finite-volume scheme for the 2D Euler equations

    U_t + F(U)_x + G(U)_y = 0,   U = (rho, rho u, rho v, E)

with HLL fluxes.  Each leaf of the mesh carries a ``block_cells^2`` cell
array of conserved variables; ghost values are filled from neighboring
leaves (across refinement levels, by sampling the covering leaf's
cells), domain walls reflect, and the run loop advances with a global
CFL timestep.  Gradient-based tagging feeds the same 2:1-balanced
refinement machinery the placement study uses, and per-block kernel
*times are measured*, so the telemetry-driven cost model can be fed by
actual computation (see ``examples/blast_hydro.py``).

Scope: first-order accurate, gamma-law gas, non-conservative at
coarse-fine faces (no flux correction — ghost sampling only), intended
as a correctness-bearing demonstration rather than a production scheme.
The tests pin it against the Sod shock tube, check positivity,
symmetry, and uniform-mesh conservation, and measure its first-order
grid convergence on a smooth acoustic wave.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, Tuple

import numpy as np

from ..mesh.geometry import BlockIndex, block_bounds
from ..mesh.mesh import AmrMesh
from ..mesh.refinement import RefinementTags
from ..mesh.sfc import block_keys

__all__ = ["EulerState", "EulerSolver2D", "sod_initial_state", "blast_initial_state"]

#: conserved variable count: rho, mx, my, E
NVAR = 4


@dataclasses.dataclass(frozen=True)
class EulerState:
    """Primitive gas state (density, velocity, pressure)."""

    rho: float
    u: float
    v: float
    p: float

    def conserved(self, gamma: float) -> np.ndarray:
        E = self.p / (gamma - 1.0) + 0.5 * self.rho * (self.u**2 + self.v**2)
        return np.array([self.rho, self.rho * self.u, self.rho * self.v, E])


def _primitives(U: np.ndarray, gamma: float) -> Tuple[np.ndarray, ...]:
    """(rho, u, v, p) from a conserved array of shape (..., NVAR)."""
    rho = np.maximum(U[..., 0], 1e-12)
    u = U[..., 1] / rho
    v = U[..., 2] / rho
    kinetic = 0.5 * rho * (u**2 + v**2)
    p = np.maximum((gamma - 1.0) * (U[..., 3] - kinetic), 1e-12)
    return rho, u, v, p


def _flux_x(U: np.ndarray, gamma: float) -> np.ndarray:
    rho, u, v, p = _primitives(U, gamma)
    F = np.empty_like(U)
    F[..., 0] = rho * u
    F[..., 1] = rho * u * u + p
    F[..., 2] = rho * u * v
    F[..., 3] = (U[..., 3] + p) * u
    return F


def _hll_flux_x(UL: np.ndarray, UR: np.ndarray, gamma: float) -> np.ndarray:
    """HLL approximate Riemann flux in the x-direction."""
    rhoL, uL, vL, pL = _primitives(UL, gamma)
    rhoR, uR, vR, pR = _primitives(UR, gamma)
    cL = np.sqrt(gamma * pL / rhoL)
    cR = np.sqrt(gamma * pR / rhoR)
    sL = np.minimum(uL - cL, uR - cR)
    sR = np.maximum(uL + cL, uR + cR)
    FL = _flux_x(UL, gamma)
    FR = _flux_x(UR, gamma)
    sL_ = sL[..., None]
    sR_ = sR[..., None]
    hll = (sR_ * FL - sL_ * FR + sL_ * sR_ * (UR - UL)) / np.maximum(
        sR_ - sL_, 1e-12
    )
    out = np.where(sL_ >= 0, FL, np.where(sR_ <= 0, FR, hll))
    return out


def _rel_gradient(field: np.ndarray) -> float:
    """Largest cell-to-cell jump of a block field, relative to its mean."""
    gx = np.abs(np.diff(field, axis=0)).max(initial=0.0)
    gy = np.abs(np.diff(field, axis=1)).max(initial=0.0)
    return float(max(gx, gy)) / max(float(field.mean()), 1e-12)


def _swap_xy(U: np.ndarray) -> np.ndarray:
    """Exchange the x/y momentum components (for y-direction fluxes)."""
    W = U.copy()
    W[..., 1], W[..., 2] = U[..., 2].copy(), U[..., 1].copy()
    return W


class EulerSolver2D:
    """Block-structured 2D Euler solver with AMR support.

    Parameters
    ----------
    mesh:
        2D mesh; may refine during the run via :meth:`adapt`.
    gamma:
        Ratio of specific heats (1.4 = diatomic gas).
    cfl:
        CFL number (<= 0.5 recommended for this dimensional splitting).
    """

    def __init__(
        self,
        mesh: AmrMesh,
        gamma: float = 1.4,
        cfl: float = 0.4,
        stiffness_work: int = 0,
    ) -> None:
        if mesh.dim != 2:
            raise ValueError("EulerSolver2D needs a 2D mesh")
        if not 1.0 < gamma < 3.0:
            raise ValueError("gamma out of range")
        if not 0 < cfl <= 0.8:
            raise ValueError("cfl out of range (0, 0.8]")
        if stiffness_work < 0:
            raise ValueError("stiffness_work must be >= 0")
        self.mesh = mesh
        self.cfl = cfl
        self.nc = mesh.block_cells
        self.dim = mesh.dim
        self.data = {}
        self.time = 0.0
        self.gamma = gamma
        #: extra flux-solve passes on high-gradient blocks, emulating the
        #: iterative kernels of §II-B ("regions with steep gradients may
        #: require more solver iterations").  Results are unchanged; only
        #: the *measured kernel time* becomes gradient-dependent — which
        #: is exactly the variability telemetry-driven placement targets.
        self.stiffness_work = stiffness_work
        #: measured per-block kernel seconds from the last step
        self.kernel_times: Dict[BlockIndex, float] = {}

    @property
    def data(self) -> Dict[BlockIndex, np.ndarray]:
        """Interior cell data per leaf, shape ``(nc, nc, NVAR)``; replace
        it whole, not in place."""
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
        """Conserved state of the leaf cell containing a point."""
        b, idx = self._locate(np.asarray(coords, dtype=np.float64))
        return self.data[b][idx]

    def _wall(self, face: np.ndarray, axis: int) -> np.ndarray:
        """Reflective wall: mirror the face, flip the normal momentum."""
        ghost = face.copy()
        ghost[..., 1 + axis] *= -1.0
        return ghost

    def _ghosted(self, b: BlockIndex) -> np.ndarray:
        """Block data with a one-cell ghost frame filled from neighbors.

        Ghost values sample the covering leaf's cell at the ghost-cell
        center — piecewise-constant prolongation across coarse-fine
        interfaces (first-order accurate, matching the scheme's order).
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
    # state
    # ------------------------------------------------------------------ #

    def initialize(
        self, fn: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, ...]]
    ) -> None:
        """Set state from ``fn(x, y) -> (rho, u, v, p)`` arrays."""
        data = {}
        for b in self.mesh.blocks:
            rho, u, v, p = fn(*self._centers(b))
            U = np.empty((self.nc, self.nc, NVAR))
            U[..., 0] = rho
            U[..., 1] = rho * u
            U[..., 2] = rho * v
            U[..., 3] = p / (self.gamma - 1.0) + 0.5 * rho * (u**2 + v**2)
            data[b] = U
        self.data = data
        self.time = 0.0

    def total_conserved(self) -> np.ndarray:
        """Domain integrals of (mass, x-momentum, y-momentum, energy)."""
        cells = tuple(range(self.dim))
        return sum(
            u.sum(axis=cells) * self._geom(b)[1] ** self.dim
            for b, u in self.data.items()
        )

    def min_density_pressure(self) -> Tuple[float, float]:
        rho_min = np.inf
        p_min = np.inf
        for U in self.data.values():
            rho, _, _, p = _primitives(U, self.gamma)
            rho_min = min(rho_min, float(rho.min()))
            p_min = min(p_min, float(p.min()))
        return rho_min, p_min

    # ------------------------------------------------------------------ #
    # time stepping
    # ------------------------------------------------------------------ #

    def max_dt(self) -> float:
        """CFL limit from the fastest wave on the finest cells."""
        dt = np.inf
        for b, U in self.data.items():
            _, h = self._geom(b)
            rho, u, v, p = _primitives(U, self.gamma)
            c = np.sqrt(self.gamma * p / rho)
            smax = float((np.abs(u) + c).max() + (np.abs(v) + c).max())
            if smax > 0:
                dt = min(dt, self.cfl * h / smax)
        return dt

    def step(self, dt: float | None = None) -> float:
        """One first-order finite-volume step; returns dt used.

        Per-block kernel wall times are recorded in
        :attr:`kernel_times` — the hook the telemetry-driven cost model
        consumes (paper §V-A3 change #1).
        """
        if not self.data:
            raise RuntimeError("call initialize() first")
        if dt is None:
            dt = self.max_dt()
        new: Dict[BlockIndex, np.ndarray] = {}
        self.kernel_times = {}
        for b, U in self.data.items():
            t0 = time.perf_counter()
            _, h = self._geom(b)
            g = self._ghosted(b)
            # x-direction fluxes at the nc+1 interfaces of each row.
            FL = _hll_flux_x(g[:-1, 1:-1], g[1:, 1:-1], self.gamma)
            dUx = (FL[1:] - FL[:-1]) / h
            # y-direction: swap roles of x and y momenta and transpose.
            gs = _swap_xy(np.swapaxes(g, 0, 1))
            GL = _hll_flux_x(gs[:-1, 1:-1], gs[1:, 1:-1], self.gamma)
            dUy = _swap_xy(np.swapaxes(GL[1:] - GL[:-1], 0, 1)) / h
            new[b] = U - dt * (dUx + dUy)
            if self.stiffness_work:
                # Gradient-proportional extra solver passes (cost model
                # only; the state update above stands).
                rel = _rel_gradient(U[..., 0])
                extra = int(min(self.stiffness_work * rel, 8 * self.stiffness_work))
                for _ in range(extra):
                    _hll_flux_x(g[:-1, 1:-1], g[1:, 1:-1], self.gamma)
            self.kernel_times[b] = time.perf_counter() - t0
        self.data = new
        self.time += dt
        return dt

    def run(self, t_end: float, max_steps: int = 100_000) -> int:
        """Advance to ``t_end``; returns the number of steps taken."""
        steps = 0
        while self.time < t_end - 1e-12 and steps < max_steps:
            dt = min(self.max_dt(), t_end - self.time)
            self.step(dt)
            steps += 1
        return steps

    # ------------------------------------------------------------------ #
    # AMR coupling
    # ------------------------------------------------------------------ #

    def gradient_tags(
        self, threshold: float = 0.25, coarsen_below: float = 0.05
    ) -> RefinementTags:
        """Tag blocks by relative density/pressure gradients (§II-B).

        Pressure is included because blast problems start as a pressure
        discontinuity in uniform density — a density-only criterion
        would miss the initial shock entirely.
        """
        refine, coarsen = [], []
        for b, U in self.data.items():
            rho, _, _, p = _primitives(U, self.gamma)
            rel = max(_rel_gradient(rho), _rel_gradient(p))
            if rel > threshold and b.level < self.mesh.forest.max_level:
                refine.append(b)
            elif rel < coarsen_below and b.level > 0:
                coarsen.append(b)
        return RefinementTags(refine=block_keys(refine), coarsen=block_keys(coarsen))

    def adapt(self, threshold: float = 0.25, coarsen_below: float = 0.05) -> Tuple[int, int]:
        """Remesh on gradient tags and transfer state to the new leaves.

        Refined children sample the parent (piecewise-constant
        prolongation); merged parents average their children
        (conservative restriction).
        """
        old_data = dict(self.data)
        n_ref, n_coarse = self.mesh.remesh(
            self.gradient_tags(threshold, coarsen_below)
        )
        if not (n_ref or n_coarse):
            return 0, 0
        nc = self.nc
        half = nc // 2
        new_data: Dict[BlockIndex, np.ndarray] = {}
        for b in self.mesh.blocks:
            if b in old_data:
                new_data[b] = old_data[b]
                continue
            if b.level > 0 and b.parent() in old_data:
                # Refined child: upsample its quadrant of the parent.
                parent = old_data[b.parent()]
                ox = (b.coords[0] & 1) * half
                oy = (b.coords[1] & 1) * half
                quad = parent[ox:ox + half, oy:oy + half]
                new_data[b] = np.repeat(np.repeat(quad, 2, axis=0), 2, axis=1)
                continue
            kids = b.children()
            if all(k in old_data for k in kids):
                # Merged parent: average 2x2 cell groups of each child.
                U = np.empty((nc, nc, NVAR))
                for k in kids:
                    ox = (k.coords[0] & 1) * half
                    oy = (k.coords[1] & 1) * half
                    c = old_data[k]
                    U[ox:ox + half, oy:oy + half] = 0.25 * (
                        c[0::2, 0::2] + c[1::2, 0::2] + c[0::2, 1::2] + c[1::2, 1::2]
                    )
                new_data[b] = U
                continue
            raise RuntimeError(f"cannot transfer state to new leaf {b}")
        self.data = new_data
        return n_ref, n_coarse

    def measured_costs(self) -> np.ndarray:
        """Per-block kernel times from the last step, in SFC order.

        This is real measured cost data in the exact shape the placement
        policies consume — the end-to-end version of the paper's
        telemetry-fed cost hooks.
        """
        if not self.kernel_times:
            raise RuntimeError("no step has been taken yet")
        return np.asarray(
            [self.kernel_times.get(b, 0.0) for b in self.mesh.blocks]
        )


def sod_initial_state(
    x_split: float = 0.5,
) -> Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, ...]]:
    """The Sod shock tube initial condition (left/right states).

    Left: rho=1, p=1; right: rho=0.125, p=0.1; both at rest.  The 1D
    solution is the classic three-wave pattern; run it on a 2D strip and
    compare x-profiles against the known intermediate states.
    """

    def fn(x: np.ndarray, y: np.ndarray):
        left = x < x_split
        rho = np.where(left, 1.0, 0.125)
        p = np.where(left, 1.0, 0.1)
        zero = np.zeros_like(x)
        return rho, zero, zero, p

    return fn


def blast_initial_state(
    center: Tuple[float, float],
    radius: float,
    p_in: float = 10.0,
    p_out: float = 0.1,
) -> Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, ...]]:
    """A 2D cylindrical blast: high-pressure disc in a quiet medium.

    The 2D analogue of the paper's Sedov Blast Wave evaluation problem;
    drives outward shock propagation and gradient-based refinement.
    """

    def fn(x: np.ndarray, y: np.ndarray):
        r = np.sqrt((x - center[0]) ** 2 + (y - center[1]) ** 2)
        rho = np.ones_like(x)
        p = np.where(r < radius, p_in, p_out)
        zero = np.zeros_like(x)
        return rho, zero, zero, p

    return fn
