"""Engine behavior tests: hook ordering, the control channel, and the
phase profiler."""

import dataclasses

import numpy as np
import pytest

from repro.amr.driver import DriverConfig, run_trajectory
from repro.core.policy import get_policy
from repro.engine import (
    EpochEngine,
    EpochHook,
    PROFILE_PHASES,
    PhaseProfilerHook,
)
from repro.resilience import run_resilient_trajectory
from repro.resilience.experiment import small_workload
from repro.simnet.cluster import Cluster
from repro.simnet.faults import FaultTimeline, NodeCrash
from repro.simnet.tuning import TuningConfig


class _DetPolicy:
    def __init__(self, name="lpt", elapsed_s=0.001):
        self._inner = get_policy(name)
        self._elapsed = elapsed_s
        self.name = self._inner.name

    def place(self, costs, n_ranks, ctx=None):
        result = self._inner.place(costs, n_ranks, ctx=ctx)
        return dataclasses.replace(result, elapsed_s=self._elapsed)


class _Recorder(EpochHook):
    """Appends (tag, event) to a shared log at every lifecycle point."""

    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def _note(self, event):
        self.log.append((self.tag, event))

    def on_run_start(self, ctx):
        self._note("on_run_start")

    def on_epoch_start(self, ctx, epoch):
        self._note("on_epoch_start")

    def before_redistribute(self, ctx, epoch):
        self._note("before_redistribute")

    def after_redistribute(self, ctx, epoch):
        self._note("after_redistribute")

    def on_step(self, ctx, epoch, s, phases):
        self._note("on_step")

    def on_epoch_end(self, ctx, epoch):
        self._note("on_epoch_end")

    def on_run_end(self, ctx, summary):
        self._note("on_run_end")


@pytest.fixture(scope="module")
def epochs():
    return small_workload(16, 40)


@pytest.fixture(scope="module")
def cluster():
    return Cluster(n_ranks=16)


class TestHookOrdering:
    def test_hooks_fire_in_registration_order(self, epochs, cluster):
        log = []
        hooks = [_Recorder("a", log), _Recorder("b", log), _Recorder("c", log)]
        EpochEngine(_DetPolicy(), epochs, cluster, DriverConfig(seed=1), hooks).run()
        # Within every event occurrence, tags appear in registration order.
        for i in range(0, len(log), 3):
            chunk = log[i : i + 3]
            assert [t for t, _ in chunk] == ["a", "b", "c"]
            assert len({e for _, e in chunk}) == 1

    def test_lifecycle_sequence_per_epoch(self, epochs, cluster):
        log = []
        EpochEngine(
            _DetPolicy(), epochs, cluster, DriverConfig(seed=1),
            [_Recorder("a", log)],
        ).run()
        events = [e for _, e in log]
        assert events[0] == "on_run_start"
        assert events[-1] == "on_run_end"
        body = events[1:-1]
        # Each epoch: start, before, after, k steps, end.
        i = 0
        n_epochs = 0
        while i < len(body):
            assert body[i] == "on_epoch_start"
            assert body[i + 1] == "before_redistribute"
            assert body[i + 2] == "after_redistribute"
            i += 3
            n_steps = 0
            while body[i] == "on_step":
                i += 1
                n_steps += 1
            assert 1 <= n_steps <= 3  # samples_per_epoch
            assert body[i] == "on_epoch_end"
            i += 1
            n_epochs += 1
        assert n_epochs == len(epochs)


class TestControlChannel:
    def test_reconfigure_visible_to_next_hook(self, epochs, cluster):
        tuned = TuningConfig(drain_queue=True)
        seen = []

        class Poster(EpochHook):
            def on_epoch_start(self, ctx, epoch):
                if epoch.index == 1:
                    ctx.request_reconfigure(tuning=tuned)

        class Checker(EpochHook):
            def on_epoch_start(self, ctx, epoch):
                seen.append((epoch.index, ctx.tuning))

        EpochEngine(
            _DetPolicy(), epochs, cluster, DriverConfig(seed=1),
            [Poster(), Checker()],
        ).run()
        by_epoch = dict(seen)
        assert by_epoch[0] is not tuned
        assert by_epoch[1] is tuned  # applied before the next hook fired

    def test_restore_wins_over_reconfigure_same_epoch(self, epochs, cluster):
        tuned = TuningConfig(drain_queue=True)
        calls = []

        class Both(EpochHook):
            def on_epoch_end(self, ctx, epoch):
                if epoch.index == 2 and not calls:
                    ctx.request_reconfigure(tuning=tuned)

                    def handler(c):
                        calls.append(c.cursor)
                        c.cursor = len(c.epochs)  # stop the run

                    ctx.request_restore(handler)

        engine = EpochEngine(
            _DetPolicy(), epochs, cluster, DriverConfig(seed=1), [Both()]
        )
        engine.run()
        assert calls == [2]  # handler ran, at the posting epoch
        # The queued reconfigure was discarded, not applied.
        assert engine.ctx.tuning is not tuned

    def test_restore_short_circuits_later_hooks(self, epochs, cluster):
        fired = []

        class Restorer(EpochHook):
            def on_epoch_end(self, ctx, epoch):
                if epoch.index == 1 and "restorer" not in fired:
                    fired.append("restorer")
                    ctx.request_restore(lambda c: setattr(c, "cursor", len(c.epochs)))

        class Later(EpochHook):
            def on_epoch_end(self, ctx, epoch):
                fired.append(f"later:{epoch.index}")

        EpochEngine(
            _DetPolicy(), epochs, cluster, DriverConfig(seed=1),
            [Restorer(), Later()],
        ).run()
        assert "restorer" in fired
        assert "later:1" not in fired  # skipped by the pending restore
        assert "later:0" in fired      # earlier epochs saw it normally

    def test_double_restore_raises(self, epochs, cluster):
        class Double(EpochHook):
            def on_epoch_start(self, ctx, epoch):
                ctx.request_restore(lambda c: None)
                ctx.request_restore(lambda c: None)

        with pytest.raises(RuntimeError, match="already pending"):
            EpochEngine(
                _DetPolicy(), epochs, cluster, DriverConfig(seed=1), [Double()]
            ).run()

    def test_empty_reconfigure_raises(self, epochs, cluster):
        class Empty(EpochHook):
            def on_epoch_start(self, ctx, epoch):
                ctx.request_reconfigure()

        with pytest.raises(ValueError, match="at least one change"):
            EpochEngine(
                _DetPolicy(), epochs, cluster, DriverConfig(seed=1), [Empty()]
            ).run()


class TestNoHookRun:
    def test_no_hook_engine_equals_plain_run_trajectory(self, epochs, cluster):
        config = DriverConfig(seed=7)
        bare = EpochEngine(_DetPolicy(), epochs, cluster, config, hooks=()).run()
        full = run_trajectory(_DetPolicy(), epochs, cluster, config)
        # The core loop owns every accumulator; hooks only add telemetry.
        for f in (
            "policy", "n_ranks", "total_steps", "n_epochs", "lb_invocations",
            "wall_s", "final_blocks", "placement_s_max", "msg_intra_rank",
            "msg_local", "msg_remote",
        ):
            assert getattr(bare, f) == getattr(full, f), f
        # Telemetry is the TelemetryHook's job, so the bare run has none.
        assert bare.collector.steps_table().n_rows == 0
        assert full.collector.steps_table().n_rows > 0


class TestPhaseProfilerHook:
    def test_rows_and_simulated_time(self, epochs, cluster):
        profiler = PhaseProfilerHook()
        summary = run_trajectory(
            _DetPolicy(), epochs, cluster, DriverConfig(seed=1),
            hooks=[profiler],
        )
        t = profiler.table()
        assert t.n_rows == 3 * len(epochs)
        assert set(np.unique(t["phase"])) == set(PROFILE_PHASES.values())
        assert (t["host_s"] >= 0).all()
        # Simulated redistribute + steps time adds up to the run's wall.
        sim = t["sim_s"][t["phase"] != PROFILE_PHASES["measure"]].sum()
        assert sim == pytest.approx(summary.wall_s)

    def test_report_lists_phases(self, epochs, cluster):
        profiler = PhaseProfilerHook()
        run_trajectory(
            _DetPolicy(), epochs, cluster, DriverConfig(seed=1),
            hooks=[profiler],
        )
        report = profiler.report()
        for name in PROFILE_PHASES:
            assert name in report
        assert "host_s" in report

    def test_resilient_run_excludes_abandoned_epochs(self, epochs):
        profiler = PhaseProfilerHook()
        cluster = Cluster(n_ranks=32)  # two nodes, so one can crash
        crash_step = 20
        timeline = FaultTimeline(events=(NodeCrash(step=crash_step, node=1),))
        summary = run_resilient_trajectory(
            _DetPolicy(), epochs, cluster, DriverConfig(seed=1),
            timeline=timeline, hooks=[profiler],
        )
        assert summary.n_restores == 1
        crash_epoch = next(
            e.index for e in epochs
            if e.step_start <= crash_step < e.step_start + e.n_steps
        )
        # Three rows per *completed* epoch pass.  The crashed pass is
        # abandoned before the profiler records it, so the crash epoch
        # only shows its post-restore replay; the run restores to the
        # initial checkpoint, so earlier epochs are profiled twice.
        t = profiler.table()
        per_epoch = np.bincount(t["epoch"].astype(int))
        assert per_epoch[crash_epoch] == 3
        assert all(per_epoch[e] == 6 for e in range(crash_epoch))
        assert all(per_epoch[e] == 3 for e in range(crash_epoch + 1, len(epochs)))
