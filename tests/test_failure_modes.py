"""Failure-injection tests: corrupted inputs, malformed files, bad state.

A credible release degrades loudly, not silently: every failure here
must raise a clear exception rather than produce wrong results.
"""

import json

import numpy as np
import pytest

from repro.core import get_policy
from repro.telemetry import (
    ColumnTable,
    CorruptTelemetryError,
    Query,
    TelemetryDataset,
    read_stats,
    read_table,
    write_table,
)


class TestCorruptedColumnarFiles:
    """Every corruption mode raises the *specific* CorruptTelemetryError
    (a ValueError subclass) — callers can catch file corruption without
    also swallowing unrelated bugs."""

    def test_truncated_payload(self, tmp_path):
        t = ColumnTable({"a": np.arange(100, dtype=np.int64)})
        p = tmp_path / "t.rprc"
        write_table(t, p)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 100])  # chop the payload
        with pytest.raises(CorruptTelemetryError, match="truncated"):
            read_table(p)

    def test_truncated_header(self, tmp_path):
        t = ColumnTable({"a": np.arange(10)})
        p = tmp_path / "t.rprc"
        write_table(t, p)
        p.write_bytes(p.read_bytes()[:10])
        with pytest.raises(CorruptTelemetryError):
            read_table(p)

    def test_garbage_header_json(self, tmp_path):
        p = tmp_path / "bad.rprc"
        import struct

        p.write_bytes(b"RPRC01\n" + struct.pack("<I", 4) + b"{{{{")
        with pytest.raises(CorruptTelemetryError):
            read_stats(p)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.rprc"
        p.write_bytes(b"PARQUET1" + b"\x00" * 64)
        with pytest.raises(CorruptTelemetryError, match="magic"):
            read_table(p)

    def test_corrupt_error_is_value_error(self):
        # backward compatibility: existing except ValueError still works
        assert issubclass(CorruptTelemetryError, ValueError)

    def test_intact_file_roundtrips(self, tmp_path):
        t = ColumnTable({"a": np.arange(100, dtype=np.int64)})
        p = tmp_path / "t.rprc"
        write_table(t, p)
        assert read_table(p) == t


class TestCorruptedDataset:
    def test_broken_manifest(self, tmp_path):
        ds = TelemetryDataset.create(tmp_path / "ds")
        ds.append(ColumnTable({"a": np.arange(3)}))
        (tmp_path / "ds" / "manifest.json").write_text("not json")
        with pytest.raises(json.JSONDecodeError):
            TelemetryDataset.open(tmp_path / "ds")

    def test_missing_partition_file(self, tmp_path):
        ds = TelemetryDataset.create(tmp_path / "ds")
        ds.append(ColumnTable({"a": np.arange(3)}))
        (tmp_path / "ds" / "part-00000.rprc").unlink()
        again = TelemetryDataset.open(tmp_path / "ds")
        with pytest.raises(FileNotFoundError):
            Query(again).run()


class TestBadPolicyInputs:
    @pytest.mark.parametrize("name", ["baseline", "lpt", "cdp", "cplx:50"])
    def test_nan_costs_rejected(self, name):
        with pytest.raises(ValueError, match="finite"):
            get_policy(name).place(np.array([1.0, np.nan, 2.0]), 2)

    @pytest.mark.parametrize("name", ["baseline", "lpt", "cdp", "cplx:50"])
    def test_inf_costs_rejected(self, name):
        with pytest.raises(ValueError, match="finite"):
            get_policy(name).place(np.array([np.inf, 1.0]), 2)

    def test_cplx_bad_string(self):
        with pytest.raises(ValueError):
            get_policy("cplx:abc")

    def test_cplx_out_of_range(self):
        with pytest.raises(ValueError):
            get_policy("cplx:150")


class TestSolverMisuse:
    def test_mesh_mutation_without_state_transfer_detected(self):
        """Remeshing behind the solver's back must fail loudly."""
        from repro.amr import EulerSolver2D, sod_initial_state
        from repro.mesh import AmrMesh, RefinementTags, RootGrid

        mesh = AmrMesh(RootGrid((2, 2), periodic=(True, True)), block_cells=4,
                       max_level=1)
        s = EulerSolver2D(mesh)
        s.initialize(sod_initial_state())
        mesh.remesh(RefinementTags(refine=mesh.keys[:1]))
        with pytest.raises((KeyError, RuntimeError)):
            s.step()  # solver data lacks the new leaves


class TestEngineMisuse:
    def test_process_exception_propagates(self):
        from repro.simnet import Engine, Timeout

        eng = Engine()

        def boom():
            yield Timeout(1.0)
            raise RuntimeError("kernel panic")

        eng.spawn(boom())
        with pytest.raises(RuntimeError, match="kernel panic"):
            eng.run()
