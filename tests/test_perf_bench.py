"""The perf-regression harness: run, persist, gate."""

import copy
import json

import pytest

from repro.cli import main
from repro.perf import bench
from repro.perf.bench import (
    DERIVED_BOUNDS,
    PROFILES,
    SECTIONS,
    compare_bench,
    format_bench,
    load_bench,
    run_bench,
    write_bench,
)


@pytest.fixture(scope="module")
def smoke_result():
    return run_bench(profile="smoke")


@pytest.fixture
def medians_only(monkeypatch):
    """Gate on medians alone.  The derived-ratio bounds are wall-clock
    ratios of this run, so a busy host could break them; they are
    checked on synthetic documents in :class:`TestDerivedBounds`."""
    monkeypatch.setattr(bench, "DERIVED_BOUNDS", {})


class TestRunBench:
    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            run_bench(profile="nope")

    def test_document_shape(self, smoke_result):
        meta = smoke_result["meta"]
        assert meta["profile"] == "smoke"
        assert meta["python"] and meta["cpu_count"] >= 1
        metrics = smoke_result["metrics"]
        assert any(n.startswith("policy.") for n in metrics)
        assert any(n.startswith("mesh.") for n in metrics)
        assert "epoch.loop" in metrics
        for m in metrics.values():
            assert m["median_s"] > 0 and m["repeats"] >= 1
            assert m["min_s"] <= m["median_s"]
        assert not any(n.startswith("epoch.") for n in smoke_result["derived"])

    def test_telemetry_query_metrics(self, smoke_result):
        metrics = smoke_result["metrics"]
        names = {n.rsplit(".n", 1)[0] for n in metrics if n.startswith("telemetry.")}
        assert names == {
            "telemetry.query_pruned",
            "telemetry.query_fullscan",
            "telemetry.groupagg",
        }
        derived = smoke_result["derived"]
        # The selective query must actually skip partitions; that the
        # skipping pays (>= 2x) is a DERIVED_BOUNDS gate of compare_bench.
        assert derived["telemetry.partitions_pruned_frac"] > 0.5
        assert "telemetry.pruning_speedup" in derived

    def test_executor_overhead_gate(self, smoke_result):
        metrics = smoke_result["metrics"]
        names = {n.rsplit(".c", 1)[0] for n in metrics if n.startswith("executor.")}
        assert names == {"executor.bare_pool", "executor.supervised"}
        # The <= 5% supervision overhead bar is a DERIVED_BOUNDS gate.
        assert "executor.overhead_ratio" in smoke_result["derived"]

    def test_jobstore_overhead_gate(self, smoke_result):
        metrics = smoke_result["metrics"]
        names = {
            n.rsplit(".s", 1)[0]
            for n in metrics
            if n.startswith("service.submit")
        }
        assert names == {"service.submit_inmem", "service.submit_jobstore"}
        # The <= 10% JobStore overhead bar is a DERIVED_BOUNDS gate.
        assert "service.jobstore_overhead_ratio" in smoke_result["derived"]

    def test_mesh_remesh_kernel_present(self, smoke_result):
        metrics = smoke_result["metrics"]
        names = {n.rsplit(".n", 1)[0] for n in metrics if n.startswith("mesh.remesh")}
        assert names == {"mesh.remesh"}

    def test_scalebench_metadata_kernel(self, smoke_result):
        metrics = smoke_result["metrics"]
        assert "scalebench.metadata.r128k" in metrics
        # Peak per-shard metadata must be the shard's share of the global
        # table (4096 of 131072 ranks), not the whole table.
        frac = smoke_result["derived"]["scalebench.shard_mem_frac"]
        assert 0.0 < frac <= 4096 / 131072 + 1e-12

    def test_hetero_placement_kernels(self, smoke_result):
        metrics = smoke_result["metrics"]
        # The capacity-aware arms are tracked at every profile's rank
        # set; smoke pins the 256-rank cells.
        assert "hetero.hetero-lpt.r256" in metrics
        assert "hetero.hetero-cplx50.r256" in metrics
        for profile in PROFILES.values():
            assert profile["hetero"]["ranks"], "hetero knob must name rank cells"
            assert profile["hetero"]["repeats"] >= 1

    def test_profiles_cover_sweep_only_beyond_smoke(self):
        assert PROFILES["smoke"]["sweep"] is None
        assert PROFILES["quick"]["sweep"] is not None
        for profile in PROFILES.values():
            assert profile["executor"]["cells"] >= profile["executor"]["jobs"]

    def test_section_registry_is_the_single_source(self):
        import inspect

        names = [n for n, _ in SECTIONS]
        assert len(names) == len(set(names))
        # Every profile declares the same knob set, so a registered
        # kernel behaves identically under smoke/quick/full — and the
        # CLI, the tests, and baseline refreshes all iterate SECTIONS.
        keysets = {name: set(p) for name, p in PROFILES.items()}
        assert keysets["smoke"] == keysets["quick"] == keysets["full"]
        # Uniform signature: (params, metrics, derived, log).
        for _name, fn in SECTIONS:
            assert len(inspect.signature(fn).parameters) == 4

    def test_roundtrip_and_format(self, smoke_result, tmp_path):
        path = tmp_path / "BENCH_core.json"
        write_bench(smoke_result, path)
        loaded = load_bench(path)
        assert loaded == json.loads(json.dumps(smoke_result))
        text = format_bench(loaded, baseline=loaded)
        assert "profile=smoke" in text and "1.00x vs baseline" in text


@pytest.mark.usefixtures("medians_only")
class TestCompareBench:
    def test_self_compare_passes(self, smoke_result):
        assert compare_bench(smoke_result, smoke_result, tolerance=0.0) == []

    def test_detects_regression(self, smoke_result):
        inflated = copy.deepcopy(smoke_result)
        name = next(iter(inflated["metrics"]))
        baseline = copy.deepcopy(smoke_result)
        baseline["metrics"][name]["median_s"] /= 10.0
        regressions = compare_bench(inflated, baseline, tolerance=0.5)
        assert len(regressions) == 1 and name in regressions[0]

    def test_within_tolerance_passes(self, smoke_result):
        baseline = copy.deepcopy(smoke_result)
        for m in baseline["metrics"].values():
            m["median_s"] /= 1.2
        assert compare_bench(smoke_result, baseline, tolerance=0.5) == []
        assert compare_bench(smoke_result, baseline, tolerance=0.01)

    def test_unknown_metrics_do_not_gate(self, smoke_result):
        baseline = {"metrics": {"ghost.metric": {"median_s": 1e-9}}}
        assert compare_bench(smoke_result, baseline, tolerance=0.0) == []

    def test_negative_tolerance_rejected(self, smoke_result):
        with pytest.raises(ValueError):
            compare_bench(smoke_result, smoke_result, tolerance=-0.1)


class TestDerivedBounds:
    @staticmethod
    def doc(**overrides):
        derived = {name: bound for name, (_op, bound) in DERIVED_BOUNDS.items()}
        derived.update(overrides)
        return {"metrics": {}, "derived": derived}

    def test_bound_values(self):
        assert DERIVED_BOUNDS == {
            "executor.overhead_ratio": ("<=", 1.05),
            "service.jobstore_overhead_ratio": ("<=", 1.10),
            "telemetry.pruning_speedup": (">=", 2.0),
        }

    def test_values_on_the_bounds_pass(self):
        assert compare_bench(self.doc(), self.doc(), tolerance=0.0) == []

    @pytest.mark.parametrize("name,value", [
        ("executor.overhead_ratio", 1.06),
        ("service.jobstore_overhead_ratio", 1.11),
        ("telemetry.pruning_speedup", 1.99),
    ])
    def test_each_broken_bound_is_flagged(self, name, value):
        regressions = compare_bench(self.doc(**{name: value}), self.doc())
        assert len(regressions) == 1 and regressions[0].startswith(name)

    def test_missing_ratio_does_not_gate(self):
        assert compare_bench({"derived": {}}, self.doc()) == []


@pytest.mark.usefixtures("medians_only")
class TestCliBench:
    def test_smoke_run_writes_json_and_gates(self, tmp_path, capsys):
        out = tmp_path / "BENCH_core.json"
        assert main(["bench", "--profile", "smoke", "--output", str(out)]) == 0
        doc = load_bench(out)
        assert doc["meta"]["profile"] == "smoke"
        # Gating against itself with zero tolerance passes ...
        assert main([
            "bench", "--profile", "smoke", "--output", str(out),
            "--baseline", str(out), "--tolerance", "1.0",
        ]) == 0
        # ... and an impossible baseline fails with exit code 1.
        doc["metrics"] = {
            k: {**v, "median_s": v["median_s"] / 1e6}
            for k, v in doc["metrics"].items()
        }
        tight = tmp_path / "tight.json"
        write_bench(doc, tight)
        assert main([
            "bench", "--profile", "smoke", "--output", str(out),
            "--baseline", str(tight), "--tolerance", "0.5",
        ]) == 1
        assert "PERF REGRESSIONS" in capsys.readouterr().out
