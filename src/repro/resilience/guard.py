"""Solver guards: budgeted, exception-contained placement.

Redistribution runs collectively on every rank; a placement policy that
throws, returns garbage, or blows the paper's ~50 ms budget stalls the
whole job.  :class:`GuardedPolicy` wraps a *chain* of policies — by
default chunked CDP → LPT → baseline, ordered from highest placement
quality to highest robustness — and each invocation walks the chain
until a tier returns a valid assignment within budget:

* an exception is retried once (deterministic retry, simulated backoff
  charged to the run rather than slept), then the tier is skipped;
* a budget breach discards the result and falls to the next tier; a
  tier that breaches repeatedly is *demoted* — later invocations start
  below it (the production pattern: stop re-trying a solver that can't
  keep up at the current block count);
* the final tier (baseline contiguous split) is accepted
  unconditionally — it is O(n) and cannot fail on validated inputs.

The chain is itself a :class:`~repro.core.policy.PlacementPolicy`, so
any driver or benchmark can use ``get_policy("guarded")`` as a drop-in
arm.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.context import PlacementContext
from ..core.policy import PlacementPolicy, get_policy

__all__ = ["GuardEvent", "GuardedPolicy", "DEFAULT_CHAIN"]

#: Quality-ordered fallback chain (paper §V policies, most to least
#: sophisticated).  Chunked CDP solves 512-rank zones, so it equals
#: unchunked CDP up to 512 ranks and stays inside the budget above;
#: above 512 ranks its assignment is the multi-zone one, not CDP's.
DEFAULT_CHAIN = ("cdp-chunked", "lpt", "baseline")


@dataclasses.dataclass(frozen=True)
class GuardEvent:
    """One guard intervention during a placement invocation."""

    tier: str
    kind: str        # "error" | "invalid" | "budget" | "demoted"
    detail: str = ""


class GuardedPolicy(PlacementPolicy):
    """Budgeted fallback chain over placement policies.

    Parameters
    ----------
    chain:
        Policy names or instances, best first.  The last tier is the
        unconditional fallback.
    budget_s:
        Per-tier computation budget for one invocation.
    retries:
        Extra attempts per tier after an exception.
    retry_backoff_s:
        Simulated backoff charged (not slept) before each retry;
        doubles per attempt.  Accumulated in
        :attr:`simulated_backoff_s` for the driver to fold into the lb
        charge — keeping runs deterministic.
    demote_after:
        Budget breaches after which a tier is persistently demoted.
    """

    name = "guarded"

    def __init__(
        self,
        chain: Optional[Sequence[Union[str, PlacementPolicy]]] = None,
        budget_s: float = 0.050,
        retries: int = 1,
        retry_backoff_s: float = 0.010,
        demote_after: int = 2,
    ) -> None:
        names = chain if chain is not None else DEFAULT_CHAIN
        self.chain: List[PlacementPolicy] = [
            get_policy(p) if isinstance(p, str) else p for p in names
        ]
        if not self.chain:
            raise ValueError("guard chain must have at least one tier")
        if budget_s <= 0:
            raise ValueError("budget_s must be positive")
        if retries < 0 or demote_after < 1:
            raise ValueError("retries must be >= 0 and demote_after >= 1")
        self.budget_s = budget_s
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.demote_after = demote_after
        self._start_tier = 0
        self._breaches = [0] * len(self.chain)
        self.events: List[GuardEvent] = []
        self.fallback_count = 0
        self.simulated_backoff_s = 0.0
        self.last_tier: Optional[str] = None

    # ------------------------------------------------------------------ #

    def compute(
        self,
        costs: np.ndarray,
        n_ranks: int,
        ctx: Optional[PlacementContext] = None,
    ) -> np.ndarray:
        first = True
        for ti in range(self._start_tier, len(self.chain)):
            tier = self.chain[ti]
            last_tier = ti == len(self.chain) - 1
            if not first:
                self.fallback_count += 1
            first = False
            for attempt in range(self.retries + 1):
                if attempt:
                    self.simulated_backoff_s += self.retry_backoff_s * (
                        2.0 ** (attempt - 1)
                    )
                try:
                    result = tier.place(costs, n_ranks, ctx=ctx)
                except ValueError as exc:
                    # Either the tier raised on its inputs or returned a
                    # malformed assignment: containment, not a crash.
                    self.events.append(GuardEvent(tier.name, "invalid", str(exc)))
                    continue
                except Exception as exc:  # noqa: BLE001 — containment boundary
                    self.events.append(GuardEvent(tier.name, "error", repr(exc)))
                    continue
                elapsed = result.elapsed_s
                if elapsed > self.budget_s and not last_tier:
                    self._breaches[ti] += 1
                    self.events.append(
                        GuardEvent(
                            tier.name,
                            "budget",
                            f"{elapsed * 1e3:.1f} ms > {self.budget_s * 1e3:.1f} ms",
                        )
                    )
                    if (
                        self._breaches[ti] >= self.demote_after
                        and self._start_tier <= ti
                    ):
                        self._start_tier = ti + 1
                        self.events.append(
                            GuardEvent(tier.name, "demoted", "repeated budget breaches")
                        )
                    break  # budget fallback: no point retrying the same tier
                self.last_tier = tier.name
                return result.assignment
        raise RuntimeError(
            "every tier of the guard chain failed; chain="
            f"{[t.name for t in self.chain]}"
        )

    def drain_events(self) -> List[GuardEvent]:
        """Return and clear the events accumulated since the last drain."""
        out = self.events
        self.events = []
        return out

    def __repr__(self) -> str:
        tiers = " -> ".join(t.name for t in self.chain)
        return f"GuardedPolicy({tiers}, budget={self.budget_s * 1e3:.0f}ms)"
