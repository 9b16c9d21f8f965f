"""The heterogeneous-cluster PlacementContext across the stack.

Three layers of guarantees:

* **parity** — every registered policy is bit-identical between
  ``ctx=None`` and a *uniform* context (any speed, any NIC): the
  homogeneous results this repo pins (engine goldens, CLI bytes,
  scalebench digests) cannot move;
* **capacity awareness** — on skewed hardware the hetero arms beat
  their homogeneous counterparts on the capacity-weighted metric, and
  the small-instance branch-and-bound is exactly optimal;
* **wiring** — metrics, the BSP runtime, redistribution, telemetry,
  bench sweeps, the service layer, and the CLI all see the same
  context.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PlacementContext,
    PolicyArgumentError,
    REFERENCE_NIC_GBPS,
    available_policies,
    get_policy,
    hetero_lpt_assign,
    hetero_makespan_lower_bound,
    load_stats,
    message_stats,
    normalized_makespan,
    solve_hetero_makespan_bnb,
    validate_assignment,
)
from repro.simnet import Cluster, hetero_cluster

ALL_POLICIES = sorted(set(available_policies()))

costs_st = st.lists(st.floats(0.0, 50.0), min_size=0, max_size=60).map(
    lambda xs: np.asarray(xs, dtype=np.float64)
)
ranks_st = st.integers(1, 12)
speed_st = st.floats(0.25, 4.0)


def uniform_ctx(r: int, speed: float = 1.0, nic: float = REFERENCE_NIC_GBPS):
    return PlacementContext.homogeneous(r, speed=speed, nic_gbps=nic)


def skewed_ctx(r: int, fast: int, factor: float = 2.0):
    speed = np.ones(r)
    speed[:fast] = factor
    return PlacementContext(
        rank_speed=speed, rank_nic_gbps=np.full(r, REFERENCE_NIC_GBPS)
    )


class TestPlacementContext:
    def test_homogeneous_builder(self):
        ctx = PlacementContext.homogeneous(32)
        assert ctx.n_ranks == 32
        assert ctx.uniform_speed
        assert (ctx.rank_nic_gbps == ctx.rank_nic_gbps[0]).all()
        assert ctx.total_capacity() == pytest.approx(32.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PlacementContext(rank_speed=np.array([]), rank_nic_gbps=np.array([]))
        with pytest.raises(ValueError):
            PlacementContext(
                rank_speed=np.array([1.0, -1.0]),
                rank_nic_gbps=np.array([40.0, 40.0]),
            )
        with pytest.raises(ValueError):
            PlacementContext(
                rank_speed=np.array([1.0, 1.0]), rank_nic_gbps=np.array([40.0])
            )

    def test_node_of(self):
        ctx = PlacementContext.homogeneous(40, ranks_per_node=16)
        assert int(ctx.node_of(0)) == 0 and int(ctx.node_of(39)) == 2


@pytest.mark.parametrize("name", ALL_POLICIES)
class TestUniformContextParity:
    """ctx=None and any uniform context must agree bit for bit."""

    @given(costs=costs_st, r=ranks_st, speed=speed_st)
    @settings(max_examples=15, deadline=None)
    def test_bit_identical(self, name, costs, r, speed):
        policy = get_policy(name)
        base = policy.place(costs, r).assignment
        ctx = uniform_ctx(r, speed=speed, nic=10.0)
        again = policy.place(costs, r, ctx=ctx).assignment
        assert np.array_equal(base, again), (
            f"{name} diverged under a uniform context (speed={speed})"
        )

    def test_reference_context_parity(self, name):
        rng = np.random.default_rng(11)
        costs = rng.exponential(1.0, size=96)
        policy = get_policy(name)
        a = policy.place(costs, 8).assignment
        b = policy.place(costs, 8, ctx=uniform_ctx(8)).assignment
        assert np.array_equal(a, b)


class TestHeteroPolicies:
    @given(costs=costs_st, r=st.integers(2, 10), fast=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_hetero_lpt_beats_plain_lpt_on_skew(self, costs, r, fast):
        """Capacity-weighted, the speed-scaled greedy never loses to LPT."""
        if costs.size == 0 or fast >= r:
            return
        ctx = skewed_ctx(r, fast)
        a_h = get_policy("hetero-lpt").place(costs, r, ctx=ctx).assignment
        a_p = get_policy("lpt").place(costs, r).assignment
        mk_h = normalized_makespan(costs, a_h, r, ctx=ctx)
        mk_p = normalized_makespan(costs, a_p, r, ctx=ctx)
        assert mk_h <= mk_p + 1e-9

    def test_hetero_lpt_valid_and_deterministic(self):
        rng = np.random.default_rng(5)
        costs = rng.exponential(1.0, size=128)
        ctx = skewed_ctx(16, 4)
        p = get_policy("hetero-lpt")
        a = p.place(costs, 16, ctx=ctx).assignment
        validate_assignment(a, 128, 16)
        assert np.array_equal(a, p.place(costs, 16, ctx=ctx).assignment)

    def test_hetero_cplx_skew_beats_uniform_variant(self):
        rng = np.random.default_rng(7)
        costs = rng.exponential(1.0, size=160)
        ctx = skewed_ctx(8, 2, factor=3.0)
        a_h = get_policy("hetero-cplx:50").place(costs, 8, ctx=ctx).assignment
        a_u = get_policy("cplx:50").place(costs, 8).assignment
        assert normalized_makespan(costs, a_h, 8, ctx=ctx) <= normalized_makespan(
            costs, a_u, 8, ctx=ctx
        )

    def test_hetero_ilp_optimal_on_small_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            costs = rng.exponential(1.0, size=9)
            speeds = np.array([2.0, 1.0, 1.0])
            res = solve_hetero_makespan_bnb(costs, speeds)
            # brute force over 3^9 assignments
            best = np.inf
            for code in range(3**9):
                a = np.array([(code // 3**i) % 3 for i in range(9)])
                loads = np.bincount(a, weights=costs, minlength=3)
                best = min(best, float((loads / speeds).max()))
            got = float(
                (np.bincount(res.assignment, weights=costs, minlength=3) / speeds).max()
            )
            assert got == pytest.approx(best, rel=1e-12)
            assert got >= hetero_makespan_lower_bound(costs, speeds) - 1e-12

    def test_hetero_lpt_assign_incremental_loads(self):
        costs = np.array([4.0, 3.0, 2.0])
        speeds = np.array([2.0, 1.0])
        a = hetero_lpt_assign(costs, speeds, initial_loads=np.array([0.0, 100.0]))
        assert np.array_equal(a, np.zeros(3, dtype=a.dtype))


class TestPolicyArgumentErrors:
    def test_unknown_kwarg_names_policy_and_accepted(self):
        with pytest.raises(PolicyArgumentError) as ei:
            get_policy("lpt", bogus=1)
        assert "lpt" in str(ei.value) and "bogus" in str(ei.value)

    def test_cplx_shorthand_conflict_is_structured(self):
        with pytest.raises(PolicyArgumentError) as ei:
            get_policy("cplx:50", x_percent=25)
        assert "x_percent" in str(ei.value)

    def test_unknown_policy_lists_registry(self):
        with pytest.raises(KeyError) as ei:
            get_policy("not-a-policy")
        assert "hetero-lpt" in str(ei.value)


class TestMetricsWithContext:
    def test_load_stats_completion_times(self):
        costs = np.array([4.0, 4.0])
        a = np.array([0, 1])
        ctx = skewed_ctx(2, 1, factor=2.0)
        stats = load_stats(costs, a, 2, ctx=ctx)
        assert stats.loads[0] == pytest.approx(2.0)  # fast rank finishes early
        assert stats.loads[1] == pytest.approx(4.0)
        assert stats.makespan == pytest.approx(4.0)

    def test_normalized_makespan_capacity_weighted(self):
        # perfectly capacity-proportional split scores 1.0
        costs = np.array([2.0, 1.0])
        a = np.array([0, 1])
        ctx = skewed_ctx(2, 1, factor=2.0)
        assert normalized_makespan(costs, a, 2, ctx=ctx) == pytest.approx(1.0)

    def test_normalized_makespan_mismatched_ctx_rejected(self):
        with pytest.raises(ValueError):
            load_stats(np.ones(4), np.zeros(4, dtype=np.int64), 4, ctx=uniform_ctx(8))

    def test_message_stats_remote_tier_volume(self):
        from repro.bench import random_refined_mesh

        rng = np.random.default_rng(2)
        mesh = random_refined_mesh(32, 2.0, rng)
        a = get_policy("lpt").place(np.ones(mesh.n_blocks), 32).assignment
        slow_nic = PlacementContext(
            rank_speed=np.ones(32),
            rank_nic_gbps=np.full(32, REFERENCE_NIC_GBPS / 4),
        )
        ref = message_stats(mesh.neighbor_graph, a, 16)
        tiered = message_stats(mesh.neighbor_graph, a, 16, ctx=slow_nic)
        assert ref.remote_tier_volume == 0.0
        assert tiered.remote_volume == ref.remote_volume
        assert tiered.remote_tier_volume == pytest.approx(4 * ref.remote_volume)
        uniform = message_stats(mesh.neighbor_graph, a, 16, ctx=uniform_ctx(32))
        assert uniform.remote_tier_volume == pytest.approx(ref.remote_volume)


class TestRuntimeCharging:
    def test_fast_nodes_compute_faster(self):
        from repro.bench import random_refined_mesh
        from repro.simnet import BSPModel, ExchangePattern

        rng = np.random.default_rng(4)
        mesh = random_refined_mesh(32, 2.0, rng)
        costs = rng.lognormal(0.0, 0.3, size=mesh.n_blocks)
        a = get_policy("baseline").place(costs, 32).assignment
        homo = Cluster(n_ranks=32)
        mixed = hetero_cluster(32, "fast:0.5x1,slow:1.0x1")
        ph = BSPModel(homo, seed=9).step(
            ExchangePattern.from_mesh(mesh.neighbor_graph, a, costs, homo)
        )
        px = BSPModel(mixed, seed=9).step(
            ExchangePattern.from_mesh(mesh.neighbor_graph, a, costs, mixed)
        )
        assert np.allclose(px.compute[:16], ph.compute[:16] * 0.5)
        assert np.allclose(px.compute[16:], ph.compute[16:])

    def test_slow_nic_inflates_remote_latency(self):
        from repro.bench import random_refined_mesh
        from repro.simnet import ExchangePattern

        rng = np.random.default_rng(6)
        mesh = random_refined_mesh(32, 2.0, rng)
        costs = np.ones(mesh.n_blocks)
        a = get_policy("lpt").place(costs, 32).assignment
        ref = ExchangePattern.from_mesh(
            mesh.neighbor_graph, a, costs, Cluster(n_ranks=32)
        )
        slow = ExchangePattern.from_mesh(
            mesh.neighbor_graph, a, costs, hetero_cluster(32, "a:1.0x1@10,b:1.0x1@10")
        )
        rem = ~ref.pair_local
        assert (slow.pair_latency[rem] > ref.pair_latency[rem]).all()
        assert np.array_equal(slow.pair_latency[~rem], ref.pair_latency[~rem])


class TestRedistributionAndEngine:
    def test_prepare_redistribution_forwards_ctx(self):
        from repro.amr.redistribution import prepare_redistribution
        from repro.simnet import DEFAULT_FABRIC

        rng = np.random.default_rng(8)
        costs = rng.exponential(1.0, size=64)
        ctx = skewed_ctx(8, 2)
        plan = prepare_redistribution(
            get_policy("hetero-lpt"), costs, 8, None, DEFAULT_FABRIC, ctx=ctx
        )
        direct = get_policy("hetero-lpt").place(costs, 8, ctx=ctx).assignment
        assert np.array_equal(plan.result.assignment, direct)

    def test_engine_records_hardware_and_uses_ctx(self):
        from repro.amr import SedovWorkload, run_trajectory, scaled_config
        from repro.bench import SedovSweepConfig

        cfg = SedovSweepConfig(
            scales=(512,), node_classes="fast:0.5x1,slow:1.0x3"
        )
        cluster = cfg.sweep_cluster(512)
        assert cluster.is_heterogeneous
        epochs = SedovWorkload(
            scaled_config(512, scale=8, steps=200)
        ).full_trajectory()
        summary = run_trajectory(get_policy("hetero-cplx:50"), epochs, cluster)
        assert summary.wall_s > 0
        hw = summary.collector.hardware_table()
        assert hw is not None
        assert float(np.asarray(hw["speed"]).max()) == pytest.approx(2.0)
        # the homogeneous arm keeps its snapshot schema
        plain = run_trajectory(
            get_policy("cplx:50"),
            SedovWorkload(scaled_config(512, scale=8, steps=200)).full_trajectory(),
            Cluster(n_ranks=512),
        )
        assert plain.collector.hardware_table() is None

    def test_telemetry_hardware_snapshot_roundtrip(self):
        from repro.telemetry.collector import TelemetryCollector

        c = TelemetryCollector(32, 16)
        c.set_hardware(np.full(32, 2.0), np.full(32, 100.0))
        tables = c.snapshot_tables()
        assert "hardware" in tables
        assert tables["hardware"]["speed"][0] == 2.0
        c2 = TelemetryCollector(32, 16)
        c2.restore_tables(tables)
        hw = c2.hardware_table()
        assert hw is not None and hw["nic_gbps"][5] == 100.0

    def test_homogeneous_snapshot_has_no_hardware_table(self):
        from repro.telemetry.collector import TelemetryCollector

        assert "hardware" not in TelemetryCollector(8, 4).snapshot_tables()


class TestBenchAndService:
    def test_scalebench_hetero_cells_report_capacity_weighted(self):
        from repro.bench import ScalebenchConfig, run_scalebench

        cfg = ScalebenchConfig(
            scales=(64,),
            x_values=(0.0, 50.0, 100.0),
            distributions=("exponential",),
            repeats=1,
            node_classes="fast:0.5x1,slow:1.0x3",
        )
        rows = run_scalebench(cfg)
        assert len(rows) == 3
        # capacity weighting: every row's norm makespan is >= 1
        assert all(r.norm_makespan >= 1.0 - 1e-9 for r in rows)

    def test_scalebench_bad_spec_fails_fast(self):
        from repro.bench import ScalebenchConfig

        with pytest.raises(ValueError):
            ScalebenchConfig(node_classes="nonsense")

    def test_render_scalebench_hetero_section_is_conditional(self):
        from repro.bench import ScalebenchConfig, run_scalebench
        from repro.service.render import render_scalebench

        cfg = ScalebenchConfig(
            scales=(64,), x_values=(0.0, 50.0, 100.0),
            distributions=("exponential",), repeats=1,
        )
        rows = run_scalebench(cfg)
        plain = render_scalebench(rows, None)
        assert not any("U-curve" in s for s in plain)
        hetero = render_scalebench(rows, None, node_classes="fast:0.5x1,slow:1.0x3")
        assert any("U-curve under heterogeneity" in s for s in hetero)

    def test_service_spec_threads_node_classes(self):
        from repro.service import spec_from_params

        spec = spec_from_params(
            "scalebench",
            {"scales": (64,), "node_classes": "fast:0.5x1,slow:1.0x3"},
        )
        assert spec.config.node_classes == "fast:0.5x1,slow:1.0x3"
        sedov = spec_from_params(
            "sedov", {"scales": (64,), "node_classes": "fast:0.5x1,slow:1.0x3"}
        )
        assert sedov.config.node_classes == "fast:0.5x1,slow:1.0x3"

    def test_cli_scalebench_accepts_node_classes(self, capsys):
        from repro.cli import main

        rc = main([
            "scalebench", "--scales", "64", "--repeats", "1",
            "--distributions", "exponential",
            "--x-values", "0", "50", "100",
            "--node-classes", "fast:0.5x1,slow:1.0x3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "U-curve under heterogeneity" in out

    def test_cli_homogeneous_output_has_no_hetero_section(self, capsys):
        from repro.cli import main

        rc = main([
            "scalebench", "--scales", "64", "--repeats", "1",
            "--distributions", "exponential", "--x-values", "0", "50", "100",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "U-curve" not in out


class TestZonalAndGuardForwardCtx:
    def test_zonal_slices_context_per_zone(self):
        rng = np.random.default_rng(13)
        costs = rng.exponential(1.0, size=64)
        ctx = skewed_ctx(8, 4, factor=2.0)
        z = get_policy(
            "zonal",
            inner_factory=lambda: get_policy("hetero-lpt"),
            ranks_per_zone=4,
        )
        a = z.place(costs, 8, ctx=ctx).assignment
        validate_assignment(a, 64, 8)

    def test_guarded_chain_forwards_ctx(self):
        rng = np.random.default_rng(14)
        costs = rng.exponential(1.0, size=64)
        ctx = skewed_ctx(8, 2)
        g = get_policy("guarded", chain=("hetero-lpt", "baseline"))
        a = g.place(costs, 8, ctx=ctx).assignment
        direct = get_policy("hetero-lpt").place(costs, 8, ctx=ctx).assignment
        assert np.array_equal(a, direct)
