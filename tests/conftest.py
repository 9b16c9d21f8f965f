"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Tier-1 profile: derandomized, so every run draws the same examples and
# a wall-clock-free run never fails on a freshly drawn input.  The
# "repro-search" profile keeps the random search: CI runs the property
# tests under it with more examples (HYPOTHESIS_PROFILE=repro-search).
settings.register_profile(
    "repro",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "repro-search",
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_mesh3d():
    """A 3D mesh with two levels of clustered refinement (2:1 balanced)."""
    import numpy as np

    from repro.mesh import AmrMesh, RefinementTags, RootGrid

    mesh = AmrMesh(RootGrid((4, 4, 4)), max_level=3)
    centers = mesh.centers()
    near = np.linalg.norm(centers - 2.0, axis=1) < 1.3
    mesh.remesh(RefinementTags(refine=mesh.keys[near]))
    centers = mesh.centers()
    levels = mesh.levels()
    near = (np.linalg.norm(centers - 2.0, axis=1) < 0.8) & (levels == 1)
    mesh.remesh(RefinementTags(refine=mesh.keys[near]))
    return mesh


@pytest.fixture
def mesh2d():
    """A 2D quadtree mesh with one refined corner."""
    from repro.mesh import AmrMesh, RefinementTags, RootGrid

    mesh = AmrMesh(RootGrid((2, 2)), max_level=4)
    mesh.remesh(RefinementTags(refine=mesh.keys[:1]))
    return mesh
