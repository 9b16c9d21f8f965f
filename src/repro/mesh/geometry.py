"""Geometric primitives for block-structured AMR meshes.

Block-based AMR (Parthenon-style) partitions a logically Cartesian domain
into uniform-size blocks at each refinement level.  A block at refinement
level ``L`` covers ``1 / 2^L`` of the domain extent per dimension, and is
addressed by integer *logical coordinates* ``(i_0, ..., i_{d-1})`` with
``0 <= i_k < 2^L`` (for a unit root domain; anisotropic root grids are
handled by :class:`RootGrid`).

These primitives are deliberately free of any octree bookkeeping: they are
pure value types used by the octree, the neighbor finder, and the SFC
machinery.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence, Tuple

import numpy as np

__all__ = [
    "BlockIndex",
    "RootGrid",
    "child_offsets",
    "block_bounds",
    "blocks_overlap",
    "same_or_ancestor",
]


def child_offsets(dim: int) -> np.ndarray:
    """Return the ``2^dim x dim`` array of child logical offsets.

    Row ``c`` holds the per-dimension 0/1 offset of child ``c`` relative to
    ``2 * parent_coords``.  Ordering follows the Morton convention: bit
    ``k`` of the child number selects the offset in dimension ``k``, so a
    depth-first traversal of children in this order walks the Z-order
    curve (see :mod:`repro.mesh.sfc`).
    """
    if dim < 1 or dim > 3:
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    n = 1 << dim
    out = np.zeros((n, dim), dtype=np.int64)
    for c in range(n):
        for k in range(dim):
            out[c, k] = (c >> k) & 1
    return out


@dataclasses.dataclass(frozen=True, slots=True)
class BlockIndex:
    """Logical address of a mesh block: refinement level + integer coords.

    ``coords[k]`` ranges over ``[0, root_size[k] * 2**level)`` where
    ``root_size`` is the root-grid block count per dimension.  Instances
    are immutable and hashable so they can key dictionaries in the octree
    and the neighbor finder.
    """

    level: int
    coords: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if not 1 <= len(self.coords) <= 3:
            raise ValueError(f"coords must have 1..3 dims, got {self.coords}")
        if any(c < 0 for c in self.coords):
            raise ValueError(f"coords must be non-negative, got {self.coords}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def parent(self) -> "BlockIndex":
        """Return the index of this block's parent (one level coarser)."""
        if self.level == 0:
            raise ValueError("root blocks have no parent")
        return BlockIndex(self.level - 1, tuple(c // 2 for c in self.coords))

    def children(self) -> Tuple["BlockIndex", ...]:
        """Return the ``2^dim`` children in Morton order."""
        offs = child_offsets(self.dim)
        base = tuple(2 * c for c in self.coords)
        return tuple(
            BlockIndex(self.level + 1, tuple(base[k] + int(o[k]) for k in range(self.dim)))
            for o in offs
        )

    def child_number(self) -> int:
        """Which Morton child of its parent this block is (0 .. 2^dim - 1)."""
        if self.level == 0:
            raise ValueError("root blocks are not children")
        num = 0
        for k, c in enumerate(self.coords):
            num |= (c & 1) << k
        return num

    def ancestor(self, level: int) -> "BlockIndex":
        """Return the ancestor of this block at the given (coarser) level."""
        if level > self.level:
            raise ValueError(f"ancestor level {level} exceeds block level {self.level}")
        shift = self.level - level
        return BlockIndex(level, tuple(c >> shift for c in self.coords))


@dataclasses.dataclass(frozen=True, slots=True)
class RootGrid:
    """The level-0 block decomposition of the simulation domain.

    The paper's Sedov configurations use anisotropic root meshes
    (e.g. ``128^2 x 256`` cells with ``16^3`` blocks => an ``8 x 8 x 16``
    root grid), so the root grid is a per-dimension block count, not a
    single cube.

    Parameters
    ----------
    shape:
        Number of level-0 blocks per dimension.
    periodic:
        Per-dimension periodicity flags for neighbor wrap-around.
    """

    shape: Tuple[int, ...]
    periodic: Tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= len(self.shape) <= 3:
            raise ValueError(f"RootGrid must be 1..3 dimensional, got {self.shape}")
        if any(s < 1 for s in self.shape):
            raise ValueError(f"root grid shape must be positive, got {self.shape}")
        if not self.periodic:
            object.__setattr__(self, "periodic", tuple(False for _ in self.shape))
        if len(self.periodic) != len(self.shape):
            raise ValueError("periodic flags must match dimensionality")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def n_root_blocks(self) -> int:
        return int(np.prod(self.shape))

    def root_blocks(self) -> Iterator[BlockIndex]:
        """Iterate level-0 block indices in row-major order."""
        for flat in range(self.n_root_blocks):
            coords = []
            rem = flat
            for s in reversed(self.shape):
                coords.append(rem % s)
                rem //= s
            yield BlockIndex(0, tuple(reversed(coords)))

    def extent_at(self, level: int) -> Tuple[int, ...]:
        """Number of blocks per dimension if the whole mesh were at ``level``."""
        return tuple(s << level for s in self.shape)

    def contains(self, idx: BlockIndex) -> bool:
        """Whether a block index lies inside the domain at its level."""
        ext = self.extent_at(idx.level)
        return all(0 <= c < e for c, e in zip(idx.coords, ext))

    def wrap(self, level: int, coords: Sequence[int]) -> Tuple[int, ...] | None:
        """Apply periodic wrap-around; return ``None`` if out of domain.

        Non-periodic dimensions reject out-of-range coordinates; periodic
        dimensions wrap them modulo the level extent.
        """
        ext = self.extent_at(level)
        out = []
        for k, (c, e) in enumerate(zip(coords, ext)):
            if 0 <= c < e:
                out.append(c)
            elif self.periodic[k]:
                out.append(c % e)
            else:
                return None
        return tuple(out)


def block_bounds(
    idx: BlockIndex, root: RootGrid, domain_size: Sequence[float] | None = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Physical bounding box ``(lo, hi)`` of a block.

    ``domain_size`` defaults to the root-grid shape so that level-0 blocks
    are unit cubes; pass the physical domain extents to get physical
    coordinates (used by the Sedov workload's shock-intersection test).
    """
    if domain_size is None:
        domain_size = [float(s) for s in root.shape]
    domain = np.asarray(domain_size, dtype=np.float64)
    if domain.shape != (root.dim,):
        raise ValueError("domain_size must match dimensionality")
    ext = np.asarray(root.extent_at(idx.level), dtype=np.float64)
    width = domain / ext
    lo = np.asarray(idx.coords, dtype=np.float64) * width
    return lo, lo + width


def same_or_ancestor(a: BlockIndex, b: BlockIndex) -> bool:
    """Whether ``a`` equals ``b`` or is an ancestor of ``b``."""
    if a.dim != b.dim or a.level > b.level:
        return False
    return b.ancestor(a.level) == a


def blocks_overlap(a: BlockIndex, b: BlockIndex) -> bool:
    """Whether two blocks' regions overlap (one contains the other)."""
    if a.dim != b.dim:
        raise ValueError("dimensionality mismatch")
    if a.level <= b.level:
        return same_or_ancestor(a, b)
    return same_or_ancestor(b, a)
