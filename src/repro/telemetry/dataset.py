"""Partitioned telemetry datasets with predicate pushdown (Lesson 4).

Lesson 4 recommends "binary columnar formats ... with embedded
statistics over partitioned data" for low-latency BSP telemetry.  A
:class:`TelemetryDataset` is a directory of columnar files — one per
partition (typically one per epoch or per run segment) — plus a JSON
manifest.  Reads go through the logical-plan engine
(:mod:`repro.telemetry.plan` / :mod:`repro.telemetry.engine`): each
file's *embedded column statistics* (zone maps) prune partitions
without touching their payload, and only requested columns are decoded
— the Parquet trick that makes interactive diagnosis possible at scale.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .columnar import ColumnTable, fsync_dir, read_schema, read_stats, write_table
from .plan import ColumnPredicate

__all__ = ["Predicate", "TelemetryDataset"]

_MANIFEST = "manifest.json"


def _write_manifest(root: Path, manifest: dict) -> None:
    """Atomic, fsynced manifest publish (same discipline as the
    partition files — a torn manifest must not orphan a dataset)."""
    import os

    path = root / _MANIFEST
    tmp = path.with_name(_MANIFEST + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(manifest))
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)
    fsync_dir(root)


@dataclasses.dataclass(frozen=True)
class Predicate:
    """A pushdown-able range predicate: ``lo <= column <= hi``.

    Either bound may be ``None`` (unbounded).  A partition whose
    embedded ``[min, max]`` for the column cannot intersect the range
    is skipped entirely.
    """

    column: str
    lo: Optional[float] = None
    hi: Optional[float] = None

    def might_match(self, stats: Dict[str, Tuple[float, float]]) -> bool:
        if self.column not in stats:
            return True  # unknown column: cannot prune safely
        cmin, cmax = stats[self.column]
        if math.isnan(cmin):
            return False  # empty partition
        if self.lo is not None and cmax < self.lo:
            return False
        if self.hi is not None and cmin > self.hi:
            return False
        return True

    def mask(self, table: ColumnTable) -> np.ndarray:
        col = table[self.column]
        m = np.ones(table.n_rows, dtype=bool)
        if self.lo is not None:
            m &= col >= self.lo
        if self.hi is not None:
            m &= col <= self.hi
        return m

    def to_plan_predicates(self) -> List[ColumnPredicate]:
        """The equivalent conjunctive plan predicates (0, 1, or 2)."""
        out: List[ColumnPredicate] = []
        if self.lo is not None:
            out.append(ColumnPredicate(self.column, ">=", self.lo))
        if self.hi is not None:
            out.append(ColumnPredicate(self.column, "<=", self.hi))
        return out


class TelemetryDataset:
    """A directory of columnar partitions with a manifest.

    Usage::

        ds = TelemetryDataset.create(path)
        ds.append(table, label="epoch-0")
        ...
        hot = ds.read(predicates=[Predicate("comm_s", lo=0.01)])

    A dataset is also a first-class query source: ``Query(ds)`` and
    ``sql(ds, ...)`` plan lazily over it with partition pruning and
    column-selective reads.
    """

    def __init__(self, root: Path, manifest: dict) -> None:
        self.root = root
        self._manifest = manifest

    # ------------------------------------------------------------------ #

    @classmethod
    def create(cls, root: str | Path) -> "TelemetryDataset":
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        manifest = {"partitions": []}
        _write_manifest(root, manifest)
        return cls(root, manifest)

    @classmethod
    def open(cls, root: str | Path) -> "TelemetryDataset":
        """Open an existing dataset."""
        root = Path(root)
        manifest_path = root / _MANIFEST
        if not manifest_path.exists():
            raise FileNotFoundError(f"no telemetry dataset at {root}")
        return cls(root, json.loads(manifest_path.read_text()))

    # ------------------------------------------------------------------ #

    @property
    def n_partitions(self) -> int:
        return len(self._manifest["partitions"])

    def partition_files(self) -> List[Path]:
        """Partition paths in append order (the scan protocol)."""
        return [self.root / p["file"] for p in self._manifest["partitions"]]

    def schema(self) -> Dict[str, np.dtype]:
        """Column names → dtypes, from the first partition's header.

        Empty datasets have an empty schema.  Header-only: no payload
        is read.
        """
        parts = self._manifest["partitions"]
        if not parts:
            return {}
        return read_schema(self.root / parts[0]["file"])

    def append(self, table: ColumnTable, label: str | None = None) -> str:
        """Write a table as a new partition; returns its file name."""
        idx = self.n_partitions
        name = f"part-{idx:05d}.rprc"
        write_table(table, self.root / name)
        self._manifest["partitions"].append(
            {"file": name, "label": label or f"part-{idx}", "n_rows": table.n_rows}
        )
        _write_manifest(self.root, self._manifest)
        return name

    def read(
        self,
        predicates: Sequence[Predicate] = (),
        columns: Sequence[str] | None = None,
    ) -> ColumnTable:
        """Read matching rows across partitions with file-level pruning.

        Builds a ``Scan → Filter → Project`` plan and executes it
        through the engine: partitions whose embedded stats rule out
        every predicate are skipped without reading their payload;
        surviving partitions are filtered row-wise (one fused mask) and
        concatenated.  Raises :class:`LookupError` when pruning leaves
        no partition at all — a query that touches nothing is usually a
        typo, not an empty result.
        """
        from .engine import ExecutionReport, execute
        from .plan import Filter, PlanNode, Project, Scan

        plan_preds: List[ColumnPredicate] = []
        for p in predicates:
            plan_preds.extend(p.to_plan_predicates())
        node: PlanNode = Scan(self)
        if plan_preds:
            node = Filter(node, tuple(plan_preds))
        if columns is not None:
            node = Project(node, tuple(columns))
        report = ExecutionReport()
        out = execute(node, report)
        if not report.scans or not report.scans[0].partitions_scanned:
            raise LookupError("no partition matches the given predicates")
        return out

    def pruned_partitions(self, predicates: Sequence[Predicate]) -> List[str]:
        """Which partitions pruning would skip (for tests/diagnostics)."""
        skipped = []
        for part in self._manifest["partitions"]:
            stats = read_stats(self.root / part["file"])
            if not all(p.might_match(stats) for p in predicates):
                skipped.append(part["file"])
        return skipped

    def labels(self) -> List[str]:
        return [p["label"] for p in self._manifest["partitions"]]

    def __repr__(self) -> str:
        rows = sum(p["n_rows"] for p in self._manifest["partitions"])
        return f"TelemetryDataset({self.root}, partitions={self.n_partitions}, rows={rows})"
