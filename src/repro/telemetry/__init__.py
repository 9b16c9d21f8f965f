"""Structured, queryable telemetry pipeline (paper §IV-C / Lesson 4).

Collection (simulation hooks) → binary columnar storage with embedded
statistics → lazy logical-plan query engine (fluent + SQL dialect over
``Scan → Filter → Project → GroupAgg → Sort → Limit``, with predicate
and projection pushdown into partitioned storage) → diagnosis-oriented
analytics (work↔time correlation, rankwise variance, straggler
attribution, anomaly detectors).
"""

from .analysis import (
    PhaseBreakdown,
    phase_breakdown,
    rankwise_variance,
    straggler_attribution,
    work_time_correlation,
)
from .anomaly import (
    AnomalyAssessment,
    SpikeReport,
    ThrottleReport,
    WindowConfig,
    assess_window,
    detect_throttled_nodes,
    detect_wait_spikes,
)
from .collector import TelemetryCollector
from .dataset import TelemetryDataset
from .columnar import (
    ColumnTable,
    CorruptTelemetryError,
    read_schema,
    read_stats,
    read_table,
    write_table,
)
from .compare import PhaseComparison, RunComparison, compare_runs
from .engine import (
    ExecutionReport,
    ScanReport,
    execute,
    explain,
    materialize,
)
from .plan import (
    ColumnPredicate,
    Filter,
    GroupAgg,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
    optimize,
)
from .query import AGGREGATES, Query, sql, sql_query
from .report import Finding, RunReport, diagnose
from .schema import EPOCH_SCHEMA, RANK_STEP_SCHEMA

__all__ = [
    "AGGREGATES",
    "AnomalyAssessment",
    "ColumnPredicate",
    "ColumnTable",
    "CorruptTelemetryError",
    "EPOCH_SCHEMA",
    "ExecutionReport",
    "Filter",
    "GroupAgg",
    "Limit",
    "PlanNode",
    "Project",
    "Scan",
    "ScanReport",
    "Sort",
    "WindowConfig",
    "assess_window",
    "PhaseComparison",
    "RunComparison",
    "compare_runs",
    "PhaseBreakdown",
    "TelemetryDataset",
    "Query",
    "Finding",
    "RunReport",
    "diagnose",
    "RANK_STEP_SCHEMA",
    "SpikeReport",
    "TelemetryCollector",
    "ThrottleReport",
    "detect_throttled_nodes",
    "detect_wait_spikes",
    "execute",
    "explain",
    "materialize",
    "optimize",
    "phase_breakdown",
    "rankwise_variance",
    "read_schema",
    "read_stats",
    "read_table",
    "sql",
    "sql_query",
    "straggler_attribution",
    "work_time_correlation",
    "write_table",
]
