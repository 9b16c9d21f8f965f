"""Grid-convergence oracle for the Euler solver: a smooth acoustic wave.

A small-amplitude isentropic density wave, ``rho = 1 + 0.01 sin 2 pi x``
at rest with ``p = rho^gamma``, splits into two sound waves on a strip
periodic in x and y.  Each resolution is compared with the next finer
one, coarsened by averaging pairs of cells; the L2 differences must
shrink at the rate of a first-order scheme.  No exact solution is
needed: the Richardson-style ratio of successive differences measures
the order directly.
"""

import math

import numpy as np

from repro.amr import EulerSolver2D
from repro.mesh import AmrMesh, RootGrid

GAMMA = 1.4
BLOCK_CELLS = 4
T_END = 0.1
ZONES = (16, 32, 64, 128)


def acoustic_density(n_zones: int) -> np.ndarray:
    """Density profile along x at ``T_END`` on an ``n_zones``-wide strip."""
    h = 1.0 / n_zones
    mesh = AmrMesh(
        RootGrid((n_zones // BLOCK_CELLS, 1), periodic=(True, True)),
        block_cells=BLOCK_CELLS,
        domain_size=(1.0, BLOCK_CELLS * h),
    )
    s = EulerSolver2D(mesh, gamma=GAMMA, cfl=0.4)

    def wave(x, y):
        rho = 1.0 + 0.01 * np.sin(2.0 * np.pi * x)
        zero = np.zeros_like(x)
        return rho, zero, zero, rho**GAMMA

    s.initialize(wave)
    s.run(T_END)
    rho = np.empty(n_zones)
    for b, U in s.data.items():
        i0 = b.coords[0] * BLOCK_CELLS
        rho[i0:i0 + BLOCK_CELLS] = U[..., 0].mean(axis=1)
    return rho


def test_acoustic_wave_converges_at_first_order():
    profiles = {n: acoustic_density(n) for n in ZONES}
    errors = []
    for coarse, fine in zip(ZONES, ZONES[1:]):
        restricted = 0.5 * (profiles[fine][0::2] + profiles[fine][1::2])
        errors.append(float(np.sqrt(np.mean((restricted - profiles[coarse]) ** 2))))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert orders == sorted(orders)
    assert 0.8 <= orders[-1] <= 1.2
