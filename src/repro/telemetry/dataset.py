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

import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from .columnar import ColumnTable, atomic_write, read_schema, write_table

__all__ = ["TelemetryDataset"]

_MANIFEST = "manifest.json"


def _write_manifest(root: Path, manifest: dict) -> None:
    """Atomic, fsynced manifest publish (same discipline as the
    partition files — a torn manifest must not orphan a dataset)."""
    atomic_write(root / _MANIFEST, json.dumps(manifest).encode())


class TelemetryDataset:
    """A directory of columnar partitions with a manifest.

    Usage::

        ds = TelemetryDataset.create(path)
        ds.append(table, label="epoch-0")
        ...
        hot = Query(ds).where("comm_s", ">=", 0.01).run()

    A dataset is a query source: ``Query(ds)`` and ``sql(ds, ...)`` plan
    lazily over it with partition pruning and column-selective reads.
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

    def labels(self) -> List[str]:
        return [p["label"] for p in self._manifest["partitions"]]

    def __repr__(self) -> str:
        rows = sum(p["n_rows"] for p in self._manifest["partitions"])
        return f"TelemetryDataset({self.root}, partitions={self.n_partitions}, rows={rows})"
