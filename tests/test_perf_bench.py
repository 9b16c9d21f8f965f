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


@pytest.fixture(scope="session")
def smoke_result():
    """The one smoke run of the session; tests that gate or print it
    work on this document or on synthetic copies of it."""
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

    def test_keeps_each_kernel_fastest_pass(self, monkeypatch):
        reads = iter([3.0, 1.0, 2.0])

        def section(params, metrics, derived, log):
            t = next(reads)
            metrics["k"] = {"median_s": t, "min_s": t, "mean_s": t, "repeats": 1}
            derived["d"] = 10.0 * t

        monkeypatch.setattr(bench, "SECTIONS", (("fake", section),))
        monkeypatch.setitem(PROFILES["smoke"], "passes", 3)
        result = run_bench(profile="smoke")
        assert result["metrics"]["k"]["median_s"] == 1.0
        assert result["derived"] == {"d": 20.0}

    def test_samples_average_calls_over_the_wall_budget(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "SAMPLE_S", 0.0)
        assert bench._time_case(lambda: calls.append(1), 3)["calls"] == 3
        monkeypatch.setattr(bench, "SAMPLE_S", 0.01)
        timed = bench._time_case(lambda: calls.append(1), 3)
        assert timed["calls"] > 3 and timed["repeats"] == 3
        assert len(calls) == 1 + 3 + 1 + timed["calls"]  # with warm-ups

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
        # Kernel tripwires only: whole sweeps, pools and service submits
        # are measured end to end by perfbench, not here.
        assert {n.split(".")[0] for n in metrics} == {
            "policy", "hetero", "mesh", "scalebench", "epoch", "telemetry",
        }

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
        assert DERIVED_BOUNDS == {"telemetry.pruning_speedup": (">=", 2.0)}

    def test_values_on_the_bounds_pass(self):
        assert compare_bench(self.doc(), self.doc(), tolerance=0.0) == []

    @pytest.mark.parametrize("name,value", [
        ("telemetry.pruning_speedup", 1.99),
    ])
    def test_each_broken_bound_is_flagged(self, name, value):
        regressions = compare_bench(self.doc(**{name: value}), self.doc())
        assert len(regressions) == 1 and regressions[0].startswith(name)

    def test_missing_ratio_does_not_gate(self):
        assert compare_bench({"derived": {}}, self.doc()) == []


@pytest.mark.usefixtures("medians_only")
class TestCliBench:
    def test_smoke_run_writes_json_and_gates(
        self, smoke_result, tmp_path, capsys, monkeypatch
    ):
        # The CLI's exit codes are decided by compare_bench on the run's
        # document, so the session's smoke run stands in for a fresh one.
        profiles = []

        def fake_run(profile, verbose):
            profiles.append(profile)
            return copy.deepcopy(smoke_result)

        monkeypatch.setattr(bench, "run_bench", fake_run)
        out = tmp_path / "BENCH_core.json"
        assert main(["bench", "--profile", "smoke", "--output", str(out)]) == 0
        doc = load_bench(out)
        assert doc == json.loads(json.dumps(smoke_result))
        # Gating against itself passes ...
        assert main([
            "bench", "--profile", "smoke", "--output", str(out),
            "--baseline", str(out), "--tolerance", "0.0",
        ]) == 0
        assert "no regressions" in capsys.readouterr().out
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
        assert profiles == ["smoke"] * 3
