"""Crash-safe on-disk sweep journal (resume after Ctrl-C or ``kill -9``).

A :class:`SweepJournal` makes an interrupted multi-hour sweep salvage
itself: every completed cell's result is persisted as one atomic,
checksummed record file, so a re-run with ``--resume`` replays the
completed cells from disk and executes only the remainder — merging
bit-identically with the uninterrupted run (cells are deterministic
given their item, so a replayed result equals a recomputed one).

Layout (under the journal root; every file is staged to a temp file,
fsynced, renamed into place, and its directory fsynced):

* ``sweep-<key>/`` — one directory per sweep *content key*: a SHA-256
  over the cell function's qualified name and every item's repr, so a
  changed config hashes to a different journal and can never resume
  from stale results;
* ``sweep-<key>/meta.json`` — key, cell count, function name, digest;
* ``sweep-<key>/cell-NNNNN.rec`` — magic + JSON header (index, payload
  SHA-256, length) + pickled result.  Torn or corrupt records fail
  verification and are simply re-executed.

Executor events are not journaled: they travel back on the sweep's
report (:mod:`repro.service.runner` keeps the CLI's beside the journal).

The commit point of a record is its rename; a parent killed with
``kill -9`` mid-write leaves at most a ``.tmp`` that the next open
sweeps away.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from ..telemetry.columnar import atomic_write, fsync_dir

__all__ = ["SweepJournal", "sweep_key", "JournalMismatchError"]

_MAGIC = b"RPSJ01\n"
_META = "meta.json"
JOURNAL_VERSION = 1


class JournalMismatchError(ValueError):
    """The journal on disk belongs to a different sweep configuration."""


def sweep_key(fn: Callable, items: Sequence[object]) -> str:
    """Content hash of a sweep: function identity + every item's repr.

    Sweep items are frozen dataclasses whose reprs embed the full
    configuration (seeds included), so the key changes whenever any
    knob that could change a result changes.
    """
    h = hashlib.sha256()
    h.update(f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}\n".encode())
    h.update(f"{len(items)}\n".encode())
    for it in items:
        h.update(repr(it).encode())
        h.update(b"\x00")
    return h.hexdigest()


class SweepJournal:
    """Atomic, checksummed per-cell result records for one sweep key."""

    def __init__(self, root: str | Path, key: str, n_cells: int,
                 fn_name: str = "?", resume: bool = False) -> None:
        self.root = Path(root)
        self.key = key
        self.n_cells = n_cells
        self.dir = self.root / f"sweep-{key[:16]}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self._check_or_write_meta(fn_name, resume)
        self.cleanup_tmp()
        if not resume:
            # A fresh (non-resume) run must not mix with stale records.
            stale = list(self.dir.glob("cell-*.rec"))
            for rec in stale:
                rec.unlink()
            if stale:
                fsync_dir(self.dir)

    # ------------------------------------------------------------------ #

    def _check_or_write_meta(self, fn_name: str, resume: bool) -> None:
        meta_path = self.dir / _META
        meta = None
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text())
            except (json.JSONDecodeError, OSError):
                meta = None
        if meta is not None:
            if meta.get("key") != self.key or meta.get("n_cells") != self.n_cells:
                raise JournalMismatchError(
                    f"journal at {self.dir} was written by a different sweep "
                    f"(key {meta.get('key', '?')[:16]}…/{meta.get('n_cells')} "
                    f"cells vs {self.key[:16]}…/{self.n_cells}); refusing to "
                    f"{'resume' if resume else 'overwrite'} it"
                )
            return
        if resume:
            # Resuming into an empty journal is legal (nothing completed
            # before the interruption) — but only create fresh metadata.
            pass
        meta = {
            "version": JOURNAL_VERSION,
            "key": self.key,
            "n_cells": self.n_cells,
            "fn": fn_name,
        }
        atomic_write(meta_path, json.dumps(meta).encode())

    def cleanup_tmp(self) -> int:
        """Remove stray staging files (torn writes from a killed run)."""
        n = 0
        for p in self.dir.glob("*.tmp"):
            p.unlink(missing_ok=True)
            n += 1
        return n

    # ------------------------------------------------------------------ #

    def _record_path(self, index: int) -> Path:
        return self.dir / f"cell-{index:05d}.rec"

    def record(self, index: int, result: object) -> None:
        """Durably persist one completed cell (atomic commit via rename)."""
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps(
            {
                "index": index,
                "nbytes": len(payload),
                "sha256": hashlib.sha256(payload).hexdigest(),
            }
        ).encode()
        atomic_write(
            self._record_path(index),
            _MAGIC, struct.pack("<I", len(header)), header, payload,
        )

    def _load_record(self, path: Path) -> Optional[tuple]:
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        if not raw.startswith(_MAGIC):
            return None
        off = len(_MAGIC)
        if len(raw) < off + 4:
            return None
        (hlen,) = struct.unpack_from("<I", raw, off)
        off += 4
        if len(raw) < off + hlen:
            return None
        try:
            header = json.loads(raw[off:off + hlen].decode())
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        payload = raw[off + hlen:]
        if (
            not isinstance(header, dict)
            or len(payload) != header.get("nbytes")
            or hashlib.sha256(payload).hexdigest() != header.get("sha256")
        ):
            return None
        try:
            return header["index"], pickle.loads(payload)
        except Exception:
            return None

    def completed(self) -> Dict[int, object]:
        """All verifiably completed cells: index → recorded result.

        Records that fail magic, length, or SHA-256 verification are
        skipped (their cells simply re-run); a journal can therefore
        never resurrect a torn write as a result.
        """
        out: Dict[int, object] = {}
        for path in sorted(self.dir.glob("cell-*.rec")):
            loaded = self._load_record(path)
            if loaded is None:
                continue
            index, result = loaded
            if 0 <= index < self.n_cells:
                out[index] = result
        return out
