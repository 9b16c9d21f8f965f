"""Pinned solver states: one SHA-256 over five block-solver runs.

Refactors of :mod:`repro.amr.solver` and :mod:`repro.amr.hydro` must
keep every cell value bit for bit.  This test runs five scenarios that
between them exercise every ghost-fill path (periodic wrap, coarse-fine
sampling, outflow walls, reflective walls, 3-D faces) and the Euler
solver's remesh transfer, then hashes the final ``data`` of each run
(blocks in SFC order) together with its ``time``.

Every initial state is built from arithmetic and ``sqrt`` only, so the
digest does not depend on how a CPU rounds transcendental functions.
The constant was recorded before the two solvers shared a base class; a
mismatch means some cell value moved.
"""

import hashlib

import numpy as np

from repro.amr import (
    AdvectionSolver,
    EulerSolver2D,
    blast_initial_state,
    sod_initial_state,
)
from repro.mesh import AmrMesh, RefinementTags, RootGrid

#: SHA-256 over all scenarios below, recorded on the pre-refactor code.
EXPECTED_DIGEST = "c60785ddf93a822b76d6e5353e9ef217ba2e47e5f74e26365295da16d05dc31a"


def _euler_adaptive_blast():
    """Reflective walls, remesh transfer and coarse-fine ghosts."""
    mesh = AmrMesh(RootGrid((4, 4)), block_cells=4, max_level=1,
                   domain_size=(1.0, 1.0))
    s = EulerSolver2D(mesh, cfl=0.3)
    s.initialize(blast_initial_state((0.35, 0.4), 0.15))
    for _ in range(3):
        for _ in range(3):
            s.step()
        s.adapt(threshold=0.15)
    return s


def _euler_sod_periodic_x():
    """Periodic wrap in x, reflective walls in y."""
    mesh = AmrMesh(RootGrid((8, 1), periodic=(True, False)), block_cells=8,
                   domain_size=(1.0, 1.0 / 8))
    s = EulerSolver2D(mesh, cfl=0.4)
    s.initialize(sod_initial_state(0.4))
    s.run(0.05)
    return s


def _advection_refined_periodic_2d():
    mesh = AmrMesh(RootGrid((2, 2), periodic=(True, True)), block_cells=8,
                   max_level=2, domain_size=(1.0, 1.0))
    mesh.remesh(RefinementTags(refine={mesh.blocks[0]}))
    s = AdvectionSolver(mesh, velocity=(0.8, -0.4))
    s.initialize(lambda x, y: x * (1.0 - x) + 0.5 * y * y)
    s.run(0.1)
    return s


def _advection_outflow_2d():
    mesh = AmrMesh(RootGrid((2, 2)), block_cells=8, max_level=1,
                   domain_size=(1.0, 1.0))
    mesh.remesh(RefinementTags(refine={mesh.blocks[-1]}))
    s = AdvectionSolver(mesh, velocity=(-0.7, 0.6))
    s.initialize(lambda x, y: np.where(x + y < 0.9, 1.0 + x * y, 0.25))
    s.run(0.2)
    return s


def _advection_refined_3d():
    mesh = AmrMesh(RootGrid((2, 2, 2), periodic=(True,) * 3), block_cells=4,
                   max_level=1, domain_size=(1.0, 1.0, 1.0))
    mesh.remesh(RefinementTags(refine={mesh.blocks[0]}))
    s = AdvectionSolver(mesh, velocity=(0.5, -0.3, 0.2))
    s.initialize(lambda x, y, z: np.sqrt(1.0 + x * x + y * z))
    for _ in range(4):
        s.step()
    return s


SCENARIOS = (
    ("euler-adaptive-blast", _euler_adaptive_blast),
    ("euler-sod-periodic-x", _euler_sod_periodic_x),
    ("advection-refined-periodic-2d", _advection_refined_periodic_2d),
    ("advection-outflow-2d", _advection_outflow_2d),
    ("advection-refined-3d", _advection_refined_3d),
)


def solver_digest() -> str:
    h = hashlib.sha256()
    for label, run in SCENARIOS:
        s = run()
        h.update(f"{label}|".encode())
        for b in s.mesh.blocks:
            h.update(f"{b.level}:{b.coords}|".encode())
            h.update(np.ascontiguousarray(s.data[b], dtype="<f8").tobytes())
        h.update(np.float64(s.time).astype("<f8").tobytes())
    return h.hexdigest()


def test_solver_digest_is_pinned():
    assert solver_digest() == EXPECTED_DIGEST
