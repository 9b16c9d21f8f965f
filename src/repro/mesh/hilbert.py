"""Hilbert space-filling curve — an alternative block ordering.

The paper's codes use Z-order (Morton) because it falls out of the
octree depth-first traversal for free (§V-A1).  The Hilbert curve
preserves locality strictly better — consecutive Hilbert indices are
always face-adjacent, where Z-order takes long diagonal jumps between
quadrant boundaries — at the cost of a more complex index computation.

This module provides Hilbert index computation for 2D/3D grids plus a
mixed-level block key mirroring :func:`repro.mesh.sfc.morton_key`, so
the locality ablation (`benchmarks/test_ablations.py`) can swap the
curve under the baseline/CDP placements and measure how much of the
paper's locality story is curve-specific.

The implementation follows the classical Butz/Lawder bit-manipulation
algorithm (transpose form), vectorized over numpy arrays.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from .geometry import BlockIndex

__all__ = ["hilbert_encode", "hilbert_key", "hilbert_sort_blocks"]


def hilbert_encode(coords: np.ndarray, bits: int) -> np.ndarray:
    """Hilbert indices of integer points (inverse of the Skilling map).

    Parameters
    ----------
    coords:
        ``(n, dim)`` non-negative integers, each ``< 2**bits``.
    bits:
        Bits per dimension (the curve order).

    Returns
    -------
    ``(n,)`` uint64 Hilbert indices; lexicographic order of the indices
    walks the Hilbert curve.

    Notes
    -----
    Uses Skilling's 2004 "Programming the Hilbert curve" algorithm:
    transform the coordinates in place (Gray decode + axis exchanges),
    then interleave bits most-significant-first.
    """
    coords = np.asarray(coords, dtype=np.uint64)
    if coords.ndim == 1:
        coords = coords[None, :]
    n, dim = coords.shape
    if dim not in (2, 3):
        raise ValueError(f"hilbert_encode supports 2D/3D, got dim={dim}")
    if bits < 1 or bits * dim > 63:
        raise ValueError(f"bits={bits} out of range for dim={dim}")
    if coords.size and int(coords.max()) >= (1 << bits):
        raise ValueError(f"coordinates must be < 2**{bits}")

    x = coords.copy()
    m = np.uint64(1) << np.uint64(bits - 1)

    # Inverse undo excess work (Skilling, AIP Conf. Proc. 707, 381).
    q = m
    while q > np.uint64(1):
        p = q - np.uint64(1)
        for i in range(dim):
            has = (x[:, i] & q) != 0
            # invert lower bits of x[0] where bit set
            x[has, 0] ^= p
            # exchange lower bits of x[i] with x[0] where bit clear
            t = (x[:, 0] ^ x[:, i]) & p
            t = np.where(has, np.uint64(0), t)
            x[:, 0] ^= t
            x[:, i] ^= t
        q >>= np.uint64(1)

    # Gray encode.
    for i in range(1, dim):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(n, dtype=np.uint64)
    q = m
    while q > np.uint64(1):
        has = (x[:, dim - 1] & q) != 0
        t ^= np.where(has, q - np.uint64(1), np.uint64(0)).astype(np.uint64)
        q >>= np.uint64(1)
    for i in range(dim):
        x[:, i] ^= t

    # Interleave bits MSB-first: axis 0's top bit is the most significant.
    h = np.zeros(n, dtype=np.uint64)
    for b in range(bits - 1, -1, -1):
        for i in range(dim):
            bitval = (x[:, i] >> np.uint64(b)) & np.uint64(1)
            h = (h << np.uint64(1)) | bitval
    return h


def hilbert_key(idx: BlockIndex, max_level: int, root_bits: int = 8) -> Tuple[int, int]:
    """Total-order key for mixed-level blocks along the Hilbert curve.

    Like :func:`repro.mesh.sfc.morton_key`: a block maps to the Hilbert
    index of its first descendant cell at ``max_level`` resolution
    (using enough bits for the root grid plus refinement).
    """
    if idx.level > max_level:
        raise ValueError(f"block level {idx.level} exceeds max_level {max_level}")
    bits = root_bits + max_level
    if bits * idx.dim > 63:
        raise ValueError("grid too deep for 64-bit Hilbert indices")
    shift = max_level - idx.level
    scaled = np.asarray([c << shift for c in idx.coords], dtype=np.uint64)
    code = int(hilbert_encode(scaled[None, :], bits)[0])
    return (code, idx.level)


def hilbert_sort_blocks(blocks: Iterable[BlockIndex]) -> List[BlockIndex]:
    """Sort blocks along the Hilbert curve (ascending index order)."""
    blocks = list(blocks)
    if not blocks:
        return []
    max_level = max(b.level for b in blocks)
    max_coord = max(max(b.coords) >> 0 for b in blocks)
    root_bits = max(1, int(np.ceil(np.log2(max(max_coord + 1, 2)))))
    return sorted(blocks, key=lambda b: hilbert_key(b, max_level, root_bits))
