"""Tests for the trace format bridge and statistical run comparison."""

import numpy as np
import pytest

from repro.telemetry import (
    ColumnTable,
    EventTrace,
    compare_runs,
    trace_to_table,
)


class TestEventTrace:
    def test_record_and_roundtrip(self, tmp_path):
        tr = EventTrace()
        tr.record_region(0, "compute", 0.0, 1.5, step=3)
        tr.record_region(1, "mpi_wait", 0.2, 0.4, step=3)
        p = tmp_path / "trace.jsonl"
        tr.write_jsonl(p)
        back = EventTrace.read_jsonl(p)
        assert len(back) == 4
        assert back.events[0].kind == "ENTER"
        assert back.events[0].meta["step"] == 3

    def test_region_time_order_enforced(self):
        with pytest.raises(ValueError):
            EventTrace().record_region(0, "compute", 1.0, 0.5, step=0)


class TestTraceToTable:
    def test_phase_attribution(self):
        tr = EventTrace()
        tr.record_region(0, "compute", 0.0, 1.0, step=0)
        tr.record_region(0, "boundary_exchange", 1.0, 1.3, step=0)
        tr.record_region(0, "mpi_wait", 1.3, 1.4, step=0)
        tr.record_region(0, "mpi_allreduce", 1.4, 2.0, step=0)
        tr.record_region(0, "redistribution", 2.0, 2.1, step=0)
        t = trace_to_table(tr)
        assert t.n_rows == 1
        assert t["compute_s"][0] == pytest.approx(1.0)
        assert t["comm_s"][0] == pytest.approx(0.4)   # exchange + wait
        assert t["sync_s"][0] == pytest.approx(0.6)
        assert t["lb_s"][0] == pytest.approx(0.1)

    def test_multiple_steps_and_ranks_sorted(self):
        tr = EventTrace()
        for step in (1, 0):
            for rank in (1, 0):
                tr.record_region(rank, "compute", 0.0, 1.0 + rank, step=step)
        t = trace_to_table(tr)
        assert t["step"].tolist() == [0, 0, 1, 1]
        assert t["rank"].tolist() == [0, 1, 0, 1]

    def test_unknown_region_rejected(self):
        tr = EventTrace()
        tr.record_region(0, "quantum_flux", 0.0, 1.0, step=0)
        with pytest.raises(ValueError, match="unknown region"):
            trace_to_table(tr)

    def test_unpaired_leave_rejected(self):
        tr = EventTrace()
        tr.leave(0, "compute", 1.0, step=0)
        with pytest.raises(ValueError, match="LEAVE without ENTER"):
            trace_to_table(tr)

    def test_unclosed_region_rejected(self):
        tr = EventTrace()
        tr.enter(0, "compute", 0.0, step=0)
        with pytest.raises(ValueError, match="unclosed"):
            trace_to_table(tr)

    def test_missing_step_metadata_rejected(self):
        tr = EventTrace()
        tr.enter(0, "compute", 0.0)
        with pytest.raises(ValueError, match="missing step"):
            trace_to_table(tr)


class TestCompareRuns:
    def make(self, sync_scale_b=0.5, n=400, seed=1):
        rng = np.random.default_rng(seed)

        def run(sync_scale):
            return ColumnTable(
                {
                    "compute_s": rng.normal(1.0, 0.05, n),
                    "comm_s": rng.exponential(0.02, n),
                    "sync_s": rng.exponential(0.3 * sync_scale, n),
                }
            )

        return run(1.0), run(sync_scale_b)

    def test_detects_real_improvement(self):
        a, b = self.make(sync_scale_b=0.5)
        cmp = compare_runs(a, b)
        assert cmp.improved("sync_s")
        assert not cmp.improved("compute_s")

    def test_no_false_positive_on_identical_distributions(self):
        a, b = self.make(sync_scale_b=1.0)
        cmp = compare_runs(a, b)
        assert not cmp.improved("sync_s")

    def test_unknown_column(self):
        a, b = self.make()
        with pytest.raises(KeyError):
            compare_runs(a, b).improved("lb_s")

    def test_empty_rejected(self):
        a, _ = self.make()
        empty = ColumnTable({"compute_s": np.empty(0), "comm_s": np.empty(0),
                             "sync_s": np.empty(0)})
        with pytest.raises(ValueError):
            compare_runs(a, empty)

    def test_text_rendering(self):
        a, b = self.make()
        text = compare_runs(a, b, label_a="before", label_b="after").text()
        assert "before vs after" in text
        assert "sync_s" in text


class TestNeighborGraphStructure:
    def test_uniform_grid_structure(self):
        from repro.mesh import AmrMesh, NeighborKind, RootGrid

        g = AmrMesh(RootGrid((3, 3, 3))).neighbor_graph
        assert g.n_blocks == 27
        # Connected: a breadth-first search from block 0 reaches all.
        adj = g.adjacency()
        seen, frontier = {0}, [0]
        while frontier:
            frontier = [n for b in frontier for n in adj[b] if n not in seen]
            seen.update(frontier)
        assert len(seen) == 27
        # The center block touches all 26 others; it is found by
        # degree, not by SFC id.
        assert int(g.degree().max()) == 26
        weights = g.edge_weights({NeighborKind.FACE: 4.0, NeighborKind.EDGE: 2.0,
                                  NeighborKind.VERTEX: 1.0})
        assert set(weights.tolist()) == {4.0, 2.0, 1.0}
