"""Binary columnar telemetry tables (paper §IV-C / Lesson 4).

The paper's analysis pipeline evolved from TAU CSVs through pandas to
SQL over a columnar database (ClickHouse), and Lesson 4 recommends
binary columnar formats with embedded statistics.  This module is that
storage layer, built from scratch on numpy:

* a :class:`ColumnTable` — named, homogeneous numpy columns of equal
  length;
* a compact binary file format (magic + JSON header + raw little-endian
  column payloads) with **embedded per-column min/max statistics**, so
  readers can skip files/columns without scanning (the Parquet trick
  Lesson 4 highlights);
* zero-copy reads via ``numpy.frombuffer``.

The query engine in :mod:`repro.telemetry.query` operates on these
tables.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = [
    "ColumnTable",
    "CorruptTelemetryError",
    "atomic_write",
    "fsync_dir",
    "write_table",
    "read_table",
    "read_stats",
    "read_schema",
]


def fsync_dir(path: "str | Path") -> None:
    """fsync a directory, durably committing renames inside it.

    ``rename`` makes a write *atomic* but not *durable*: after a power
    loss the directory entry itself can be lost unless the directory is
    fsynced too.  Journals and checkpoints call this after every
    rename-into-place.  Platforms whose directory handles reject fsync
    (some network filesystems, Windows) are silently tolerated — the
    rename is still atomic there.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path: "str | Path", *chunks: bytes) -> None:
    """Durably replace ``path`` with the concatenated ``chunks``.

    The bytes are staged in ``<name>.tmp`` beside the target, fsynced,
    renamed over it, and the directory is fsynced (:func:`fsync_dir`):
    readers never observe a torn file (a crash mid-write leaves the old
    file intact, at worst plus a stray ``.tmp`` that the next write
    overwrites), and the rename itself survives a power-loss-style
    interruption.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)
    fsync_dir(path.parent)


_MAGIC = b"RPRC01\n"
_SUPPORTED_KINDS = ("i", "u", "f", "b")


class CorruptTelemetryError(ValueError):
    """A columnar telemetry file is truncated or malformed.

    Raised instead of leaking storage internals (``struct.error``,
    ``json.JSONDecodeError``, numpy buffer errors) so callers can catch
    one exception type for every flavour of on-disk corruption: wrong
    magic, truncated header, garbage header JSON, truncated payload.
    """


class ColumnTable:
    """An immutable-ish table of equal-length named numpy columns.

    Columns are 1-D arrays of integer, unsigned, float, or bool dtype
    (strings are deliberately unsupported — telemetry dimensions are
    coded as integers, the same discipline a columnar DB enforces).
    """

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        cols: Dict[str, np.ndarray] = {}
        length = None
        for name, arr in columns.items():
            arr = np.asarray(arr)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D, got shape {arr.shape}")
            if arr.dtype.kind not in _SUPPORTED_KINDS:
                raise ValueError(
                    f"column {name!r} has unsupported dtype {arr.dtype}; "
                    f"use int/uint/float/bool"
                )
            if length is None:
                length = arr.shape[0]
            elif arr.shape[0] != length:
                raise ValueError(
                    f"column {name!r} has length {arr.shape[0]}, expected {length}"
                )
            cols[name] = arr
        self._cols = cols
        self._len = length or 0

    # ------------------------------------------------------------------ #

    @property
    def n_rows(self) -> int:
        return self._len

    @property
    def names(self) -> List[str]:
        return list(self._cols)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, name: str) -> bool:
        return name in self._cols

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._cols[name]
        except KeyError:
            raise KeyError(f"no column {name!r}; have {self.names}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnTable):
            return NotImplemented
        if self.names != other.names or self.n_rows != other.n_rows:
            return False
        return all(np.array_equal(self._cols[n], other._cols[n]) for n in self.names)

    # ------------------------------------------------------------------ #

    def select(self, names: Sequence[str]) -> "ColumnTable":
        """Projection: keep only the named columns (in the given order)."""
        return ColumnTable({n: self[n] for n in names})

    def filter(self, mask: np.ndarray) -> "ColumnTable":
        """Row selection by boolean mask or integer index array."""
        mask = np.asarray(mask)
        if mask.dtype == bool and mask.shape != (self._len,):
            raise ValueError(f"mask length {mask.shape} != table rows {self._len}")
        return ColumnTable({n: c[mask] for n, c in self._cols.items()})

    def with_column(self, name: str, values: np.ndarray) -> "ColumnTable":
        """Return a new table with a column added or replaced."""
        cols = dict(self._cols)
        cols[name] = np.asarray(values)
        return ColumnTable(cols)

    def sort_by(self, *names: str) -> "ColumnTable":
        """Stable multi-key sort (last name is the primary key in
        ``numpy.lexsort`` convention reversed — first name is primary)."""
        if not names:
            return self
        keys = tuple(self[n] for n in reversed(names))
        order = np.lexsort(keys)
        return self.filter(order)

    def concat(self, other: "ColumnTable") -> "ColumnTable":
        """Row-wise concatenation (schemas must match exactly)."""
        if set(self.names) != set(other.names):
            raise ValueError(f"schema mismatch: {self.names} vs {other.names}")
        return ColumnTable(
            {n: np.concatenate([self._cols[n], other[n]]) for n in self.names}
        )

    def head(self, n: int = 10) -> "ColumnTable":
        return self.filter(np.arange(min(n, self._len)))

    def stats(self) -> Dict[str, Tuple[float, float]]:
        """Per-column (min, max); the statistics embedded on write."""
        out = {}
        for name, col in self._cols.items():
            if col.size == 0:
                out[name] = (float("nan"), float("nan"))
            else:
                out[name] = (float(col.min()), float(col.max()))
        return out

    def to_rows(self) -> Iterator[Dict[str, object]]:
        """Row iterator (for small result sets / formatting only)."""
        for i in range(self._len):
            yield {n: c[i].item() for n, c in self._cols.items()}

    def pretty(self, max_rows: int = 20) -> str:
        """Fixed-width text rendering for terminal output."""
        names = self.names
        if not names:
            return "(empty table)"
        rows = min(self._len, max_rows)
        cells = [[f"{self._cols[n][i]:.6g}" if self._cols[n].dtype.kind == "f"
                  else str(self._cols[n][i]) for n in names] for i in range(rows)]
        widths = [max(len(n), *(len(r[j]) for r in cells)) if cells else len(n)
                  for j, n in enumerate(names)]
        lines = ["  ".join(n.rjust(w) for n, w in zip(names, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for r in cells:
            lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
        if self._len > rows:
            lines.append(f"... ({self._len - rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ColumnTable(rows={self._len}, columns={self.names})"


def write_table(table: ColumnTable, path: str | Path) -> int:
    """Serialize a table to the binary columnar format; returns bytes written.

    Layout: magic, u32 header length, JSON header (schema + per-column
    byte offsets + min/max stats), then the raw column payloads in
    little-endian order.  The header is self-describing, so files remain
    readable as schemas evolve.
    """
    path = Path(path)
    payloads: List[bytes] = []
    meta_cols = []
    offset = 0
    stats = table.stats()
    for name in table.names:
        col = np.ascontiguousarray(table[name])
        le = col.astype(col.dtype.newbyteorder("<"), copy=False)
        raw = le.tobytes()
        meta_cols.append(
            {
                "name": name,
                "dtype": col.dtype.str if col.dtype.kind != "b" else "|b1",
                "offset": offset,
                "nbytes": len(raw),
                "crc32": zlib.crc32(raw),
                "min": None if np.isnan(stats[name][0]) else stats[name][0],
                "max": None if np.isnan(stats[name][1]) else stats[name][1],
            }
        )
        payloads.append(raw)
        offset += len(raw)
    header = json.dumps({"n_rows": table.n_rows, "columns": meta_cols}).encode()
    atomic_write(path, _MAGIC, struct.pack("<I", len(header)), header, *payloads)
    return len(_MAGIC) + 4 + len(header) + offset


def _read_header(fh: io.BufferedReader) -> dict:
    magic = fh.read(len(_MAGIC))
    if magic != _MAGIC:
        raise CorruptTelemetryError(f"not a repro columnar file (magic {magic!r})")
    raw_len = fh.read(4)
    if len(raw_len) < 4:
        raise CorruptTelemetryError("truncated file: header length field cut short")
    (hlen,) = struct.unpack("<I", raw_len)
    raw_header = fh.read(hlen)
    if len(raw_header) < hlen:
        raise CorruptTelemetryError(
            f"truncated header: expected {hlen} bytes, file has {len(raw_header)}"
        )
    try:
        header = json.loads(raw_header.decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptTelemetryError(f"garbage header JSON: {exc}") from exc
    if not isinstance(header, dict) or "columns" not in header:
        raise CorruptTelemetryError("header JSON is not a column manifest")
    return header


def read_stats(path: str | Path) -> Dict[str, Tuple[float, float]]:
    """Read only the embedded column statistics (no payload scan).

    This is the Lesson-4 capability: a query planner can prune whole
    files by predicate against these stats before reading any data.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh)
    return {
        c["name"]: (
            float("nan") if c["min"] is None else c["min"],
            float("nan") if c["max"] is None else c["max"],
        )
        for c in header["columns"]
    }


def read_schema(path: str | Path) -> Dict[str, np.dtype]:
    """Read only the column names and dtypes (header-only, no payload).

    The query planner uses this to validate referenced columns and to
    synthesize correctly-typed empty results when every partition of a
    dataset is pruned.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh)
    try:
        return {c["name"]: np.dtype(c["dtype"]) for c in header["columns"]}
    except (TypeError, ValueError, KeyError) as exc:
        raise CorruptTelemetryError(f"undecodable column manifest: {exc}") from exc


def read_table(path: str | Path, columns: Sequence[str] | None = None) -> ColumnTable:
    """Read a table (optionally a column subset — seeks past the rest)."""
    with open(path, "rb") as fh:
        header = _read_header(fh)
        base = fh.tell()
        want = set(columns) if columns is not None else None
        cols: Dict[str, np.ndarray] = {}
        for c in header["columns"]:
            if want is not None and c["name"] not in want:
                continue
            fh.seek(base + c["offset"])
            raw = fh.read(c["nbytes"])
            if len(raw) < c["nbytes"]:
                raise CorruptTelemetryError(
                    f"truncated payload for column {c['name']!r}: expected "
                    f"{c['nbytes']} bytes, file has {len(raw)}"
                )
            # Per-column CRC32 (absent in files written before the
            # checksum was introduced — those verify nothing).
            expected_crc = c.get("crc32")
            if expected_crc is not None and zlib.crc32(raw) != expected_crc:
                raise CorruptTelemetryError(
                    f"checksum mismatch for column {c['name']!r}: payload "
                    f"bytes do not match the recorded CRC32"
                )
            try:
                arr = np.frombuffer(raw, dtype=np.dtype(c["dtype"]))
            except (ValueError, TypeError) as exc:
                raise CorruptTelemetryError(
                    f"undecodable payload for column {c['name']!r}: {exc}"
                ) from exc
            cols[c["name"]] = arr
        if want is not None:
            missing = want - set(cols)
            if missing:
                raise KeyError(f"columns not in file: {sorted(missing)}")
    # Preserve requested order when a subset was asked for.
    if columns is not None:
        cols = {n: cols[n] for n in columns}
    try:
        return ColumnTable(cols)
    except ValueError as exc:
        # Inconsistent column lengths = the header's schema disagrees
        # with the payloads (schema-mismatch corruption).
        raise CorruptTelemetryError(f"inconsistent table schema: {exc}") from exc
