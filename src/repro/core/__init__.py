"""Placement policies — the paper's primary contribution (§V).

Five policies share one interface (:class:`PlacementPolicy`):

* ``baseline`` — contiguous SFC block-count split (framework default)
* ``lpt`` — Longest-Processing-Time greedy (pure load balance, CPL100)
* ``cdp`` / ``cdp-full`` / ``cdp-chunked`` — contiguous DP variants
  (locality-preserving load balance, CPL0 core)
* ``cplx`` — the tunable hybrid; ``get_policy("cplx:50")`` == CPL50

plus an exact branch-and-bound reference solver and metrics for both
optimization dimensions (makespan, message locality).
"""

from .baseline import BaselinePolicy, assignment_from_counts, contiguous_counts
from .cdp import (
    CDPFullPolicy,
    CDPPolicy,
    cdp_full,
    cdp_optimal_makespan,
    cdp_restricted,
    counts_makespan,
)
from .chunked import ChunkedCDPPolicy, chunked_cdp_counts, split_chunks
from .context import REFERENCE_NIC_GBPS, PlacementContext
from .cplx import CPLX, select_rebalance_ranks
from .graphpart import GraphPartitionPolicy, edge_cut, greedy_graph_partition, refine_partition
from .hetero import (
    HeteroCPLX,
    HeteroILPPolicy,
    HeteroLPTPolicy,
    capacity_contiguous_counts,
    hetero_lpt_assign,
)
from .zonal import ZonalPolicy
from .ilp import (
    BnBResult,
    hetero_makespan_lower_bound,
    makespan_lower_bound,
    solve_hetero_makespan_bnb,
    solve_makespan_bnb,
)
from .lpt import LPTPolicy, lpt_assign
from .metrics import (
    DEFAULT_MESSAGE_WEIGHTS,
    LoadStats,
    MessageStats,
    contiguity_fraction,
    load_stats,
    message_stats,
    normalized_makespan,
)
from .policy import (
    PlacementPolicy,
    PlacementResult,
    PolicyArgumentError,
    PolicyNameError,
    UnknownPolicyError,
    available_policies,
    get_policy,
    register_policy,
    validate_assignment,
)
from .timing import PAPER_BUDGET_S, BudgetReport, measure_policy, within_budget

__all__ = [
    "BaselinePolicy",
    "BnBResult",
    "BudgetReport",
    "CDPFullPolicy",
    "CDPPolicy",
    "CPLX",
    "ChunkedCDPPolicy",
    "DEFAULT_MESSAGE_WEIGHTS",
    "GraphPartitionPolicy",
    "HeteroCPLX",
    "HeteroILPPolicy",
    "HeteroLPTPolicy",
    "ZonalPolicy",
    "edge_cut",
    "greedy_graph_partition",
    "refine_partition",
    "LPTPolicy",
    "LoadStats",
    "MessageStats",
    "PAPER_BUDGET_S",
    "PlacementContext",
    "PlacementPolicy",
    "PlacementResult",
    "PolicyArgumentError",
    "PolicyNameError",
    "UnknownPolicyError",
    "REFERENCE_NIC_GBPS",
    "assignment_from_counts",
    "available_policies",
    "capacity_contiguous_counts",
    "cdp_full",
    "cdp_optimal_makespan",
    "cdp_restricted",
    "chunked_cdp_counts",
    "contiguity_fraction",
    "contiguous_counts",
    "counts_makespan",
    "get_policy",
    "hetero_lpt_assign",
    "hetero_makespan_lower_bound",
    "load_stats",
    "lpt_assign",
    "makespan_lower_bound",
    "measure_policy",
    "message_stats",
    "normalized_makespan",
    "register_policy",
    "select_rebalance_ranks",
    "solve_hetero_makespan_bnb",
    "solve_makespan_bnb",
    "split_chunks",
    "validate_assignment",
    "within_budget",
]
