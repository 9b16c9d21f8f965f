"""Zonal placement: parallel decomposition for very large scales.

Fig. 7c's conclusion: placement cost grows with scale and reaches
~100 ms at 128K ranks — "at the largest scales, zonal placement
architectures can be adopted ... dividing ranks into k zones to compute
placement independently and in parallel" (citing Zheng et al.'s
hierarchical load balancing).

:class:`ZonalPolicy` is the generic version of the chunking already
inside CDP: it splits the SFC-ordered blocks into cost-balanced zones,
gives each zone a proportional contiguous rank range (the same
:func:`~repro.core.chunked.zone_ranges` decomposition), and runs *any*
inner policy per zone.  Zones contain contiguous SFC ranges, so zonal
placement preserves inter-zone locality by construction; quality loss
is confined to cross-zone rebalancing opportunities, which the ablation
bench quantifies.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .chunked import zone_ranges
from .context import PlacementContext
from .policy import PlacementPolicy, register_policy

__all__ = ["ZonalPolicy"]


@register_policy("zonal")
class ZonalPolicy(PlacementPolicy):
    """Run an inner policy independently per cost-balanced zone.

    Parameters
    ----------
    inner_factory:
        Zero-arg callable constructing the per-zone policy (a fresh
        instance per zone keeps implementations free to carry state).
        Defaults to CPL50 — zonal CPLX is the paper's suggested
        configuration for extreme scales.
    ranks_per_zone:
        Zone granularity in ranks.
    """

    def __init__(
        self,
        inner_factory: Callable[[], PlacementPolicy] | None = None,
        ranks_per_zone: int = 1024,
    ) -> None:
        if ranks_per_zone < 1:
            raise ValueError("ranks_per_zone must be >= 1")
        if inner_factory is None:
            from .cplx import CPLX

            inner_factory = lambda: CPLX(x_percent=50.0)  # noqa: E731
        self.inner_factory = inner_factory
        self.ranks_per_zone = ranks_per_zone

    def compute(
        self,
        costs: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext] = None,
    ) -> np.ndarray:
        parts = []
        for a, b, lo, hi in zone_ranges(costs, n_ranks, self.ranks_per_zone):
            zone_ctx = None if ctx is None else ctx.slice(lo, hi)
            inner = self.inner_factory()
            parts.append(inner.compute(costs[a:b], hi - lo, ctx=zone_ctx) + lo)
        return np.concatenate(parts)
