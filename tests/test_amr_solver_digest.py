"""Pinned solver states: one SHA-256 over two Euler solver runs.

Refactors of :mod:`repro.amr.hydro` must keep every cell value bit for
bit.  This test runs two scenarios that between them exercise every
ghost-fill path of the solver (periodic wrap, coarse-fine sampling,
reflective walls) and its remesh transfer, then hashes the final
``data`` of each run (blocks in SFC order) together with its ``time``.

Every initial state is built from arithmetic and ``sqrt`` only, so the
digest does not depend on how a CPU rounds transcendental functions.
The constant was recorded on the code before the block-field base class
was folded into :class:`~repro.amr.hydro.EulerSolver2D`; a mismatch
means some cell value moved.
"""

import hashlib

import numpy as np

from repro.amr import EulerSolver2D, blast_initial_state, sod_initial_state
from repro.mesh import AmrMesh, RootGrid

#: SHA-256 over both scenarios below, recorded on the pre-fold code.
EXPECTED_DIGEST = "37ffd050d3692c7b064c897bfc1391c4e17845a581391b465784a90a78e3aa67"


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


SCENARIOS = (
    ("euler-adaptive-blast", _euler_adaptive_blast),
    ("euler-sod-periodic-x", _euler_sod_periodic_x),
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
