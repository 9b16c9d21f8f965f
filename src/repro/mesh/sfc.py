"""Space-filling curves for AMR block ordering.

Block-based AMR codes assign *block IDs* by a depth-first traversal of the
octree, which for Morton-ordered children is exactly the Z-order
space-filling curve (paper §V-A, Fig. 5).  Contiguous ID ranges then map to
ranks, approximately preserving spatial locality.

This module provides vectorized Morton (Z-order) encode/decode for 1–3
dimensions plus a comparison key that orders blocks of *mixed refinement
levels* along the same curve — the key property that makes the octree DFS
order and the Morton order agree.

It also packs each block into one self-describing int64 *block key*
(dim and level in the high bits, the Morton code of the block's own
coordinates below), the compact integer identity that per-epoch array
code joins on: a parent key is the code shifted right by ``dim``, a
first-child key the code shifted left, and a key decodes back to its
:class:`BlockIndex` with no other input.  Key order is (dim, level,
Morton code), not SFC order.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .geometry import BlockIndex

__all__ = [
    "morton_encode",
    "morton_decode",
    "spread_bits",
    "morton_key",
    "sfc_sort_blocks",
    "contiguous_ranges",
    "pack_block_keys",
    "block_keys",
    "block_key",
    "unpack_block_keys",
    "key_dims",
    "key_levels",
    "key_codes",
    "key_parents",
    "key_first_children",
]

# Number of bits supported per dimension.  21 bits x 3 dims = 63 bits fits
# in a signed 64-bit integer, which covers meshes up to 2^21 blocks per
# side -- far beyond the paper's 256^3-cell configurations.
_MAX_BITS = 21


# Block-key layout (int64, sign bit clear): dim in bits 61-62, level in
# bits 56-60, the Morton code of the block's own coordinates in bits 0-55.
_KEY_DIM_SHIFT = 61
_KEY_LEVEL_SHIFT = 56
_KEY_MAX_LEVEL = 31
_KEY_CODE_MASK = (1 << _KEY_LEVEL_SHIFT) - 1
# Coordinate bits per dimension a key holds, indexed by dim: 21 (1-d and
# 2-d, the Morton encoder's limit) and 18 (3-d, 54 code bits).
_KEY_COORD_BITS = (0, 21, 21, 18)
# Morton-code bits per key, indexed by dim.
_KEY_CODE_BITS = np.array([d * b for d, b in enumerate(_KEY_COORD_BITS)], dtype=np.int64)


def spread_bits(x: np.ndarray, dim: int) -> np.ndarray:
    """Spread the low ``_MAX_BITS`` bits of ``x``, ``dim - 1`` zeros apart.

    Shifted left by ``k``, this is coordinate ``k``'s share of a
    ``dim``-d Morton code (the code is the OR of the shares).
    Implemented with the classic parallel-prefix magic-number sequence,
    vectorized over numpy arrays of uint64.
    """
    x = x.astype(np.uint64)
    if dim == 1:
        return x
    if dim == 2:
        x &= np.uint64(0x00000000FFFFFFFF)
        x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
        x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
        x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
        x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
        return x
    if dim == 3:
        x &= np.uint64(0x1FFFFF)
        x = (x | (x << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
        x = (x | (x << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
        x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
        x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
        x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
        return x
    raise ValueError(f"dim must be 1..3, got {dim}")


def _compact_bits(x: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`spread_bits`."""
    x = x.astype(np.uint64)
    if dim == 1:
        return x
    if dim == 2:
        x &= np.uint64(0x5555555555555555)
        x = (x | (x >> np.uint64(1))) & np.uint64(0x3333333333333333)
        x = (x | (x >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        x = (x | (x >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
        x = (x | (x >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
        x = (x | (x >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
        return x
    if dim == 3:
        x &= np.uint64(0x1249249249249249)
        x = (x | (x >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
        x = (x | (x >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
        x = (x | (x >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
        x = (x | (x >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
        x = (x | (x >> np.uint64(32))) & np.uint64(0x1FFFFF)
        return x
    raise ValueError(f"dim must be 1..3, got {dim}")


def morton_encode(coords: np.ndarray) -> np.ndarray:
    """Interleave integer coordinates into Morton codes.

    Parameters
    ----------
    coords:
        ``(n, dim)`` array of non-negative integers, each ``< 2**21``.

    Returns
    -------
    ``(n,)`` uint64 array of Morton codes; lexicographic order of codes is
    Z-order of the points.
    """
    coords = np.asarray(coords)
    if coords.ndim == 1:
        coords = coords[None, :]
    n, dim = coords.shape
    if dim < 1 or dim > 3:
        raise ValueError(f"dim must be 1..3, got {dim}")
    if coords.size and (coords.min() < 0 or coords.max() >= (1 << _MAX_BITS)):
        raise ValueError(f"coordinates must be in [0, 2^{_MAX_BITS})")
    code = np.zeros(n, dtype=np.uint64)
    for k in range(dim):
        code |= spread_bits(coords[:, k].astype(np.uint64), dim) << np.uint64(k)
    return code


def morton_decode(codes: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`morton_encode`; returns an ``(n, dim)`` int64 array."""
    codes = np.asarray(codes, dtype=np.uint64)
    scalar = codes.ndim == 0
    codes = np.atleast_1d(codes)
    out = np.empty((codes.shape[0], dim), dtype=np.int64)
    for k in range(dim):
        out[:, k] = _compact_bits(codes >> np.uint64(k), dim).astype(np.int64)
    return out[0] if scalar else out


def morton_key(idx: BlockIndex, max_level: int) -> Tuple[int, int]:
    """Total-order key placing mixed-level blocks on one Z-order curve.

    A block is mapped to the Morton code of its *first descendant cell* at
    ``max_level`` resolution.  Leaves of an octree never overlap, so their
    first-descendant codes are distinct, and sorting by
    ``(code, level)`` reproduces the octree depth-first traversal order
    exactly (tested property: DFS order == sorted ``morton_key`` order).

    The level tiebreak only matters for non-leaf comparisons, where an
    ancestor sorts before its descendants.
    """
    if idx.level > max_level:
        raise ValueError(f"block level {idx.level} exceeds max_level {max_level}")
    shift = max_level - idx.level
    scaled = np.asarray([c << shift for c in idx.coords], dtype=np.int64)
    code = int(morton_encode(scaled[None, :])[0])
    return (code, idx.level)


def sfc_sort_blocks(blocks: Iterable[BlockIndex]) -> List[BlockIndex]:
    """Sort blocks along the Z-order curve (ascending block-ID order).

    One batched :func:`morton_encode` over all blocks plus a single
    ``np.lexsort`` — the same ``(code, level)`` total order as sorting
    by :func:`morton_key` per block, without the per-block Python
    encode/tuple overhead.  Ordering ties (identical blocks) keep their
    input order, matching the stable ``sorted`` this replaces.
    """
    blocks = list(blocks)
    if not blocks:
        return []
    levels = np.asarray([b.level for b in blocks], dtype=np.int64)
    coords = np.asarray([b.coords for b in blocks], dtype=np.int64)
    max_level = int(levels.max())
    scaled = coords << (max_level - levels)[:, None]
    codes = morton_encode(scaled)
    order = np.lexsort((levels, codes))
    return [blocks[i] for i in order]


def pack_block_keys(coords: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Packed int64 keys of blocks given as ``(n, dim)`` coords and levels.

    Raises ``ValueError`` when a level exceeds 31 or a coordinate
    exceeds the key's per-dimension budget (2^21 in 1-d and 2-d, 2^18
    in 3-d) — such a block has no key.
    """
    coords = np.asarray(coords, dtype=np.int64)
    levels = np.asarray(levels, dtype=np.int64)
    if coords.ndim != 2 or not 1 <= coords.shape[1] <= 3:
        raise ValueError(f"coords must be (n, dim) with dim 1..3, got {coords.shape}")
    dim = coords.shape[1]
    if levels.shape != (coords.shape[0],):
        raise ValueError("levels must give one level per block")
    if coords.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    if levels.min() < 0 or levels.max() > _KEY_MAX_LEVEL:
        raise ValueError(f"block levels must be in [0, {_KEY_MAX_LEVEL}] to have a key")
    if coords.min() < 0 or coords.max() >= (1 << _KEY_COORD_BITS[dim]):
        raise ValueError(
            f"{dim}-d block coordinates must be in [0, 2^{_KEY_COORD_BITS[dim]}) "
            "to have a key"
        )
    code = morton_encode(coords).astype(np.int64)
    return (
        (np.int64(dim) << np.int64(_KEY_DIM_SHIFT))
        | (levels << np.int64(_KEY_LEVEL_SHIFT))
        | code
    )


def block_keys(blocks: Iterable[BlockIndex]) -> np.ndarray:
    """Packed keys of a sequence of blocks (any mix of dims), in order."""
    blocks = list(blocks)
    dims = np.asarray([len(b.coords) for b in blocks], dtype=np.int64)
    levels = np.asarray([b.level for b in blocks], dtype=np.int64)
    out = np.empty(len(blocks), dtype=np.int64)
    for dim in np.unique(dims).tolist():
        sel = np.nonzero(dims == dim)[0]
        coords = np.asarray(
            [blocks[i].coords for i in sel.tolist()], dtype=np.int64
        ).reshape(sel.shape[0], dim)
        out[sel] = pack_block_keys(coords, levels[sel])
    return out


def block_key(idx: BlockIndex) -> int:
    """Packed key of one block."""
    return int(block_keys([idx])[0])


def _key_fields(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    keys = np.asarray(keys, dtype=np.int64)
    dims = keys >> np.int64(_KEY_DIM_SHIFT)
    if keys.size and (dims.min() < 1 or dims.max() > 3):
        raise ValueError("not a block key: dim field outside 1..3")
    levels = (keys >> np.int64(_KEY_LEVEL_SHIFT)) & np.int64(_KEY_MAX_LEVEL)
    return dims, levels, keys & np.int64(_KEY_CODE_MASK)


def unpack_block_keys(keys: np.ndarray) -> List[BlockIndex]:
    """Decode packed keys back to their :class:`BlockIndex` values.

    Every key with a valid dim field decodes to a valid block, so the
    per-instance range checks of :meth:`BlockIndex.__post_init__` are
    skipped: they would cost more than building the instances.
    """
    dims, levels, codes = _key_fields(keys)
    new = object.__new__
    set_level, set_coords = BlockIndex.level.__set__, BlockIndex.coords.__set__
    out = [new(BlockIndex) for _ in range(dims.shape[0])]
    for dim in np.unique(dims).tolist():
        sel = np.flatnonzero(dims == dim)
        coords = map(tuple, morton_decode(codes[sel], dim).tolist())
        for i, level, c in zip(sel.tolist(), levels[sel].tolist(), coords):
            set_level(out[i], level)
            set_coords(out[i], c)
    return out


def key_dims(keys: np.ndarray) -> np.ndarray:
    """Dimensionality of each packed key."""
    return _key_fields(keys)[0]


def key_levels(keys: np.ndarray) -> np.ndarray:
    """Refinement level of each packed key."""
    return _key_fields(keys)[1]


def key_codes(keys: np.ndarray) -> np.ndarray:
    """Morton code of each packed key's own coordinates."""
    return _key_fields(keys)[2]


def key_parents(keys: np.ndarray) -> np.ndarray:
    """Parent key of each key (``-1`` for level-0 keys, which have none)."""
    dims, levels, codes = _key_fields(keys)
    parents = (
        (dims << np.int64(_KEY_DIM_SHIFT))
        | ((levels - 1) << np.int64(_KEY_LEVEL_SHIFT))
        | (codes >> dims)
    )
    return np.where(levels > 0, parents, np.int64(-1))


def key_first_children(keys: np.ndarray) -> np.ndarray:
    """First (Morton child 0) child key of each key.

    ``-1`` where the child would exceed the key's level or coordinate
    budget; no block has such a child key.
    """
    dims, levels, codes = _key_fields(keys)
    child = codes << dims
    fits = (levels < _KEY_MAX_LEVEL) & ((child >> _KEY_CODE_BITS[dims]) == 0)
    children = (
        (dims << np.int64(_KEY_DIM_SHIFT))
        | ((levels + 1) << np.int64(_KEY_LEVEL_SHIFT))
        | child
    )
    return np.where(fits, children, np.int64(-1))


def contiguous_ranges(assignment: Sequence[int]) -> bool:
    """Whether ``assignment[block_id] -> rank`` maps contiguous ID ranges.

    Baseline and CDP placements assign consecutive block IDs to each rank;
    LPT and CPLX may not.  Used by locality metrics and tests.
    """
    arr = np.asarray(assignment)
    if arr.size == 0:
        return True
    seen: set[int] = set()
    prev = arr[0]
    seen.add(int(prev))
    for r in arr[1:]:
        r = int(r)
        if r != prev:
            if r in seen:
                return False
            seen.add(r)
            prev = r
    return True
