"""Cooperative cancellation, at every layer it is wired through.

* engine: a :class:`CancellationHook` stops a run at an epoch boundary
  (within one epoch of the flag appearing) and refuses to start when
  the flag pre-exists;
* supervisor: serial and pool sweeps raise :class:`JobCancelled`
  carrying the partial report, journal completed cells, and resume to a
  bit-identical merged result;
* runner/CLI: a cancelled job yields exit code 130 and a journal that
  ``--resume`` (or a ``resume_of`` submit) completes bit-identically to
  a never-cancelled run.
"""

import contextlib
import io

import pytest

from repro.engine import EpochEngine, EpochHook
from repro.engine.types import DriverConfig
from repro.perf.cancel import CancelToken, JobCancelled
from repro.perf.journal import SweepJournal, sweep_key
from repro.perf.supervisor import (
    SWEEP_CONFIG,
    SupervisorConfig,
    supervised_map,
)
from repro.resilience.experiment import small_workload
from repro.simnet.cluster import Cluster


def _cancel_cell(item):
    """Cell that sets the sweep's cancel flag after finishing item 1."""
    i, flag = item
    if i == 1:
        CancelToken(flag).set()
    return i * i


def _slow_cancel_cell(item):
    import time

    i, flag = item
    if i == 0:
        CancelToken(flag).set()
    time.sleep(0.05)
    return i * i


class _EpochCounter(EpochHook):
    def __init__(self):
        self.ends = 0

    def on_epoch_end(self, ctx, epoch):
        self.ends += 1


class _SetFlagAtEpoch(EpochHook):
    def __init__(self, flag, at_epoch):
        self.flag = flag
        self.at_epoch = at_epoch

    def on_epoch_end(self, ctx, epoch):
        if ctx.cursor == self.at_epoch:
            CancelToken(self.flag).set()


class TestEngineCancellation:
    def _run(self, hooks, flag):
        from repro.core.policy import get_policy

        epochs = small_workload(16, 60)
        # The engine takes the cancel flag from the sweep running it.
        scope = SWEEP_CONFIG.set(SupervisorConfig(cancel_path=flag))
        try:
            engine = EpochEngine(
                get_policy("lpt"), epochs, Cluster(n_ranks=16),
                DriverConfig(seed=1), hooks,
            )
        finally:
            SWEEP_CONFIG.reset(scope)
        return engine, epochs

    def test_preexisting_flag_refuses_to_start(self, tmp_path):
        flag = str(tmp_path / "cancel.flag")
        CancelToken(flag).set()
        counter = _EpochCounter()
        engine, _ = self._run([counter], flag)
        with pytest.raises(JobCancelled):
            engine.run()
        assert counter.ends == 0

    def test_flag_mid_run_stops_within_one_epoch(self, tmp_path):
        flag = str(tmp_path / "cancel.flag")
        counter = _EpochCounter()
        engine, epochs = self._run(
            [_SetFlagAtEpoch(flag, at_epoch=1), counter], flag
        )
        with pytest.raises(JobCancelled) as exc:
            engine.run()
        # Flag set at the end of epoch index 1: the current epoch
        # finishes, the boundary check fires — no further epoch runs.
        assert counter.ends == 2
        assert counter.ends < len(epochs)
        assert "cancel flag" in str(exc.value)

    def test_no_flag_runs_to_completion(self, tmp_path):
        flag = str(tmp_path / "cancel.flag")
        counter = _EpochCounter()
        engine, epochs = self._run([counter], flag)
        engine.run()
        assert counter.ends == len(epochs)


def _engine_controls(_):
    """Which job controls an engine built inside this cell picked up."""
    from repro.core.policy import get_policy
    from repro.engine.hooks import CancellationHook

    engine = EpochEngine(
        get_policy("lpt"), small_workload(16, 20)[:1], Cluster(n_ranks=16),
    )
    return (
        any(isinstance(h, CancellationHook) for h in engine.hooks),
        engine.ctx.pattern_cache is not None,
    )


class TestSweepConfigChannel:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_cell_gets_the_sweeps_controls(self, tmp_path, jobs):
        config = SupervisorConfig(
            cancel_path=str(tmp_path / "cancel.flag"),
            shared_pattern_store=True,
        )
        report = supervised_map(
            _engine_controls, range(3), jobs=jobs, config=config
        )
        assert report.results == [(True, True)] * 3
        # Nothing leaks out of the sweep into the next run.
        assert _engine_controls(None) == (False, False)

    def test_deadline_alone_attaches_the_hook(self):
        report = supervised_map(
            _engine_controls, [0],
            config=SupervisorConfig(deadline_ts=4e9),
        )
        assert report.results == [(True, False)]


class TestSupervisorCancellation:
    def _items(self, tmp_path, n=6):
        flag = str(tmp_path / "cancel.flag")
        return [(i, flag) for i in range(n)], flag

    def test_serial_cancel_stops_between_cells(self, tmp_path):
        items, flag = self._items(tmp_path)
        config = SupervisorConfig(
            journal_dir=str(tmp_path / "j"), cancel_path=flag
        )
        with pytest.raises(JobCancelled) as exc:
            supervised_map(_cancel_cell, items, jobs=1, config=config)
        report = exc.value.report
        # Cells 0 and 1 finished; the flag check before cell 2 cancels.
        assert report.results[:2] == [0, 1]
        assert all(r is None for r in report.results[2:])
        assert report.counters["n_cancelled"] == 4
        assert any(e.kind == "cancel" for e in report.events)

    def test_serial_cancel_journal_is_resumable_bit_identically(
        self, tmp_path
    ):
        items, flag = self._items(tmp_path)
        config = SupervisorConfig(
            journal_dir=str(tmp_path / "j"), cancel_path=flag
        )
        with pytest.raises(JobCancelled):
            supervised_map(_cancel_cell, items, jobs=1, config=config)
        # The journal the cancel left behind is valid and loadable.
        journal = SweepJournal(
            str(tmp_path / "j"), sweep_key(_cancel_cell, items),
            n_cells=len(items), resume=True,
        )
        done = journal.completed()
        assert set(done) == {0, 1}
        # Clear the flag; --resume completes the remaining cells and
        # merges bit-identically with an uninterrupted run.
        CancelToken(flag).clear()
        resumed = supervised_map(
            _cancel_cell, items, jobs=1,
            config=SupervisorConfig(
                journal_dir=str(tmp_path / "j"), resume=True
            ),
        )
        assert resumed.results == [i * i for i in range(6)]
        assert resumed.counters["n_resume_hits"] == 2

    def test_pool_cancel_drains_and_resumes(self, tmp_path):
        items, flag = self._items(tmp_path, n=8)
        config = SupervisorConfig(
            journal_dir=str(tmp_path / "j"), cancel_path=flag,
            cancel_grace_s=5.0,
        )
        with pytest.raises(JobCancelled) as exc:
            supervised_map(_slow_cancel_cell, items, jobs=2, config=config)
        report = exc.value.report
        assert report.counters["n_cancelled"] >= 1
        assert any(e.kind == "cancel" for e in report.events)
        CancelToken(flag).clear()
        resumed = supervised_map(
            _slow_cancel_cell, items, jobs=2,
            config=SupervisorConfig(
                journal_dir=str(tmp_path / "j"), resume=True
            ),
        )
        assert resumed.results == [i * i for i in range(8)]


class TestRunnerCancellation:
    PARAMS = {
        "scales": [512], "steps": 60,
        "policies": ["baseline", "cplx:0", "cplx:50", "cplx:100"],
    }

    def test_cancelled_job_resumes_bit_identically_via_cli(self, tmp_path):
        from repro.cli import main
        from repro.service import (
            CANCELLED_EXIT_CODE,
            JobRunner,
            spec_from_params,
        )
        from repro.perf.supervisor import SupervisorConfig

        journal = str(tmp_path / "j")
        flag = str(tmp_path / "cancel.flag")
        CancelToken(flag).set()  # cancel before the first cell starts
        spec = spec_from_params(
            "sedov", self.PARAMS,
            supervise=SupervisorConfig(journal_dir=journal, cancel_path=flag),
        )
        result = JobRunner().run(spec)
        assert result.cancelled
        assert result.exit_code == CANCELLED_EXIT_CODE
        assert result.text.startswith("cancelled: ")

        # Reference: the same sweep, never cancelled, fresh journal.
        ref = JobRunner().run(
            spec_from_params(
                "sedov", self.PARAMS,
                supervise=SupervisorConfig(journal_dir=str(tmp_path / "ref")),
            )
        )
        # `repro sedov --resume` on the cancelled journal completes it
        # and reports the same digest as the uninterrupted run.
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(
                ["sedov", "--scales", "512", "--steps", "60",
                 "--policies", "baseline", "cplx:0", "cplx:50", "cplx:100",
                 "--journal", journal, "--resume"]
            )
        assert code == 0
        assert f"result digest: {ref.digest}" in out.getvalue()
