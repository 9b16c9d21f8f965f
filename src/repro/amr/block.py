"""Per-block cost accounting.

Every block holds the same number of cells regardless of refinement
level (§II-B) — cost differences come from *kernel* behaviour (solver
iterations near steep gradients), not from block size.  The paper's
infrastructure change #1 populates per-block cost hooks from telemetry
instead of the framework default of 1; :class:`BlockCostTracker`
implements that measurement loop, including the measurement noise that
makes telemetry-driven costs imperfect predictors.
"""

from __future__ import annotations

import numpy as np

from ..mesh.sfc import key_levels, key_parents

__all__ = ["BlockCostTracker"]


class BlockCostTracker:
    """Telemetry-driven per-block cost estimation (§V-A3 change #1).

    Maintains an exponentially-weighted estimate of each block's compute
    cost from measured kernel times.  Measurements carry multiplicative
    noise; smoothing trades responsiveness against noise rejection
    exactly like a production cost hook would.

    Blocks are named by their packed keys
    (:func:`~repro.mesh.sfc.pack_block_keys`), stable across
    redistributions and SFC renumbering; refined children inherit the
    parent's estimate as their prior.  Estimates are stored as two
    arrays, the keys in ascending order and their values, so the
    per-epoch calls are ``searchsorted`` joins; ``state``/``load_state``
    copy the two arrays.
    """

    def __init__(self, alpha: float = 0.5, default_cost: float = 1.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.default_cost = default_cost
        self._keys = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=np.float64)

    def _find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(found mask, position) of each key in the stored keys."""
        pos = np.searchsorted(self._keys, keys)
        if self._keys.shape[0] == 0:
            return np.zeros(keys.shape[0], dtype=bool), pos
        pos_c = np.minimum(pos, self._keys.shape[0] - 1)
        return self._keys[pos_c] == keys, pos

    def _merge(self, keys: np.ndarray, measured: np.ndarray) -> None:
        """EWMA-update distinct ``keys`` (ascending); insert new ones."""
        found, pos = self._find(keys)
        at = pos[found]
        self._vals[at] = (1 - self.alpha) * self._vals[at] + self.alpha * measured[found]
        new = ~found
        if new.any():
            self._keys = np.insert(self._keys, pos[new], keys[new])
            self._vals = np.insert(self._vals, pos[new], measured[new])

    def observe_all(self, keys: np.ndarray, measured: np.ndarray) -> None:
        """Fold one measured kernel time per block key into its estimate.

        A block listed several times is folded once per occurrence, in
        order.
        """
        keys = np.asarray(keys, dtype=np.int64)
        measured = np.asarray(measured, dtype=np.float64)
        if measured.shape != keys.shape:
            raise ValueError(
                f"{keys.shape[0]} blocks but {measured.shape} measurements"
            )
        if (measured < 0).any():
            raise ValueError("measured cost must be >= 0")
        order = np.argsort(keys, kind="stable")
        keys, measured = keys[order], measured[order]
        if (keys[1:] == keys[:-1]).any():
            for i in range(keys.shape[0]):      # repeats fold one at a time
                self._merge(keys[i:i + 1], measured[i:i + 1])
        else:
            self._merge(keys, measured)

    def estimates(self, keys: np.ndarray) -> np.ndarray:
        """Cost estimate per block key: the block's own, else its nearest
        observed ancestor's, else the default.

        A freshly refined block has no history — its parent's estimate is
        the best available prior (same region, same physics).
        """
        keys = np.asarray(keys, dtype=np.int64)
        out = np.full(keys.shape[0], self.default_cost, dtype=np.float64)
        todo = np.arange(keys.shape[0])
        probe = keys
        while todo.shape[0]:
            found, pos = self._find(probe)
            out[todo[found]] = self._vals[pos[found]]
            rest = ~found & (key_levels(probe) > 0)
            todo = todo[rest]
            probe = key_parents(probe[rest])
        return out

    def state(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the (ascending keys, estimates) arrays, for checkpointing."""
        return self._keys.copy(), self._vals.copy()

    def load_state(self, state: tuple[np.ndarray, np.ndarray]) -> None:
        """Replace the estimate table from a :meth:`state` checkpoint."""
        keys, vals = state
        self._keys = np.array(keys, dtype=np.int64)
        self._vals = np.array(vals, dtype=np.float64)

    def forget_except(self, live: np.ndarray) -> None:
        """Drop estimates for keys not in ``live`` (bounded memory)."""
        keep = np.isin(self._keys, np.asarray(live, dtype=np.int64))
        self._keys, self._vals = self._keys[keep], self._vals[keep]

    def __len__(self) -> int:
        return int(self._keys.shape[0])
