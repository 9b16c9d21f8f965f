"""Supervised sweep execution: chaos recovery, quarantine, journal resume.

Chaos is injected with ``REPRO_CHAOS`` inside the worker processes, so
these tests exercise exactly the supervision paths real faults (OOM
kills, hangs, flaky cells) would.  The CI chaos matrix re-runs this
file with ``REPRO_SUP_JOBS`` ∈ {2, 4}; locally both widths run.

The destructive interruption tests (SIGINT, ``kill -9``) run the sweep
in a subprocess so the signal cannot take the test session down, then
resume in-process and require a bit-identical merge with the
uninterrupted serial run.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.bench.sedov_experiment import SedovSweepConfig, run_sedov_sweep
from repro.engine.types import DriverConfig
from repro.perf import supervisor
from repro.perf.executor import CellExecutionError
from repro.perf.journal import JournalMismatchError, SweepJournal, sweep_key
from repro.perf.supervisor import (
    CHAOS_ENV,
    EVENT_CODES,
    CellFailure,
    SupervisorConfig,
    events_table,
    parse_chaos_spec,
    supervised_map,
)

# CI chaos matrix pins one pool width per job; locally run both.
if "REPRO_SUP_JOBS" in os.environ:
    _JOBS = [int(os.environ["REPRO_SUP_JOBS"])]
else:
    _JOBS = [2, 4]


def _square(x):
    return x * x


def _journal_cell(x):
    # Deterministic, structured, and slow enough that an interrupt
    # lands mid-sweep (see the interruption tests' sleep knob).
    time.sleep(float(os.environ.get("REPRO_TEST_CELL_SLEEP", "0")))
    return (x, x * x, f"cell-{x}")


#: a 2-cell sedov job and a 5-cell scalebench job (five X values)
_SEDOV = {"scales": [512], "steps": 20, "policies": ["baseline", "cplx:50"]}
_SCALEBENCH = {"scales": [256], "repeats": 1, "distributions": ["exponential"]}


class TestChaosSpec:
    def test_parse(self):
        rules = parse_chaos_spec("crash:2;hang:5@1;flaky:7@2")
        assert len(rules) == 3
        kinds = {(r.kind, r.cell, r.max_attempt) for r in rules}
        assert ("crash", 2, None) in kinds
        assert ("hang", 5, 1) in kinds
        assert ("flaky", 7, 2) in kinds

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_chaos_spec("explode:1")
        with pytest.raises(ValueError):
            parse_chaos_spec("crash")


class TestChaosRecovery:
    @pytest.mark.parametrize("jobs", _JOBS)
    def test_crash_once_recovers(self, monkeypatch, jobs):
        monkeypatch.setenv(CHAOS_ENV, "crash:2@1")
        report = supervised_map(
            _square, list(range(6)), jobs=jobs,
            config=SupervisorConfig(retries=2),
        )
        assert report.results == [x * x for x in range(6)]
        assert report.counters["n_crashes"] == 1
        assert report.counters["n_retries"] == 1
        assert report.counters["n_quarantined"] == 0

    @pytest.mark.parametrize("jobs", _JOBS)
    def test_flaky_twice_recovers(self, monkeypatch, jobs):
        monkeypatch.setenv(CHAOS_ENV, "flaky:1@2")
        report = supervised_map(
            _square, list(range(4)), jobs=jobs,
            config=SupervisorConfig(retries=2),
        )
        assert report.results == [x * x for x in range(4)]
        assert report.counters["n_errors"] == 2
        assert report.counters["n_retries"] == 2

    @pytest.mark.parametrize("jobs", _JOBS)
    def test_hang_times_out_and_retries(self, monkeypatch, jobs):
        monkeypatch.setenv(CHAOS_ENV, "hang:0@1")
        report = supervised_map(
            _square, list(range(4)), jobs=jobs,
            config=SupervisorConfig(retries=1, timeout_s=0.4),
        )
        assert report.results == [x * x for x in range(4)]
        assert report.counters["n_timeouts"] == 1
        assert report.counters["n_quarantined"] == 0

    def test_serial_flaky_recovers_in_process(self, monkeypatch):
        # jobs=1 with no timeout supervises in-process; 'flaky' raises
        # and is retried exactly like in the pool.
        monkeypatch.setenv(CHAOS_ENV, "flaky:3@1")
        report = supervised_map(
            _square, list(range(5)), jobs=1,
            config=SupervisorConfig(retries=1),
        )
        assert report.results == [x * x for x in range(5)]
        assert report.counters["n_errors"] == 1


class TestFaultFreeCost:
    """The price of supervision when nothing fails, pinned by counted
    work.  A wall-clock ratio against a bare pool read 0.18 and 0.93 in
    two runs on one unchanged 2-vCPU host (the cells' BLAS threads
    contended with the pool); these counts change only when the pool's
    code does."""

    def test_fault_free_pool_does_counted_work(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        counts = {"workers": 0, "assigns": 0, "journals": 0}

        class CountingWorker(supervisor._Worker):
            def __init__(self, *args, **kwargs):
                counts["workers"] += 1
                super().__init__(*args, **kwargs)

            def assign(self, *args, **kwargs):
                counts["assigns"] += 1
                super().assign(*args, **kwargs)

        class CountingJournal(SweepJournal):
            def __init__(self, *args, **kwargs):
                counts["journals"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(supervisor, "_Worker", CountingWorker)
        monkeypatch.setattr(supervisor, "SweepJournal", CountingJournal)
        report = supervised_map(
            _square, range(8), jobs=2, config=SupervisorConfig(retries=0)
        )
        assert report.results == [x * x for x in range(8)]
        # One worker per job slot and never a respawn, one assignment
        # per cell, no journal.
        assert counts == {"workers": 2, "assigns": 8, "journals": 0}
        # One event per cell, and it is its completion: no retry, crash
        # or timeout.
        assert [e.kind for e in report.events] == ["complete"] * 8
        assert sorted(e.cell for e in report.events) == list(range(8))

    @pytest.mark.parametrize("kind, params, service, fsyncs", [
        # meta.json (file + directory) and two per cell record ...
        ("sedov", _SEDOV, True, 6),
        ("scalebench", _SCALEBENCH, True, 12),
        # ... plus, for the CLI, the events partition and its manifest
        ("sedov", _SEDOV, False, 12),
        ("scalebench", _SCALEBENCH, False, 18),
    ])
    def test_journaled_job_fsyncs_counted(
        self, tmp_path, monkeypatch, kind, params, service, fsyncs
    ):
        """A journaled job's durability cost, pinned by counted fsyncs.
        A service job (``on_event`` given) keeps its events itself, so
        its journal holds only metadata and cell records."""
        from repro.perf.trajcache import CACHE_ENV
        from repro.service import JobRunner, spec_from_params

        monkeypatch.delenv(CHAOS_ENV, raising=False)
        monkeypatch.delenv(CACHE_ENV, raising=False)
        spec = spec_from_params(kind, params, supervise=SupervisorConfig(
            journal_dir=str(tmp_path), shared_pattern_store=service,
        ))
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        result = JobRunner().run(
            spec, on_event=(lambda ev: None) if service else None
        )
        assert result.exit_code == 0
        assert len(calls) == fsyncs


class TestQuarantine:
    @pytest.mark.parametrize("jobs", _JOBS)
    def test_poison_crash_is_quarantined(self, monkeypatch, jobs):
        monkeypatch.setenv(CHAOS_ENV, "crash:1")       # every attempt
        report = supervised_map(
            _square, list(range(5)), jobs=jobs,
            config=SupervisorConfig(retries=1),
        )
        failure = report.results[1]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "crash"
        assert failure.attempts == 2                   # retries + 1
        # Healthy cells are unaffected and in order.
        assert [report.results[i] for i in (0, 2, 3, 4)] == [0, 4, 9, 16]
        assert report.counters["n_quarantined"] == 1

    def test_poison_timeout_is_quarantined(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "hang:0")
        report = supervised_map(
            _square, list(range(3)), jobs=2,
            config=SupervisorConfig(retries=1, timeout_s=0.3),
        )
        failure = report.results[0]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "timeout"
        assert report.results[1:] == [1, 4]

    def test_strict_mode_raises_instead(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "flaky:2")
        with pytest.raises(CellExecutionError) as exc_info:
            supervised_map(
                _square, list(range(4)), jobs=2,
                config=SupervisorConfig(retries=0, strict=True),
            )
        assert exc_info.value.index == 2
        # The partial report rides on the exception, as on a cancel.
        assert exc_info.value.report.results[2] is None


class TestChaosAcceptance:
    """The ISSUE acceptance gate: under mixed chaos, quarantines stay
    bounded by the injected poison cells and every healthy cell is
    bit-identical to the serial, chaos-free sweep."""

    def test_sedov_sweep_under_mixed_chaos(self, monkeypatch):
        config = SedovSweepConfig(
            scales=(512,),
            policies=("baseline", "lpt", "cplx:50"),
            steps=120,
            driver=DriverConfig(placement_charge_s=0.005),
        )
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        serial = run_sedov_sweep(config, jobs=1)
        # Cell 1 (lpt) is poison (crashes every attempt); cell 2 is
        # flaky once and must recover.
        monkeypatch.setenv(CHAOS_ENV, "crash:1;flaky:2@1")
        chaotic = run_sedov_sweep(
            config, jobs=2,
            supervise=SupervisorConfig(retries=1),
        )
        assert len(chaotic.failures) == 1               # ≤ injected poison
        assert chaotic.failures[0].index == 1
        assert chaotic.failures[0].kind == "crash"
        # Healthy cells: bit-identical simulation results.
        healthy = {(o.scale, o.policy_label): o for o in chaotic.outcomes}
        assert set(healthy) == {(512, "baseline"), (512, "CPL50")}
        for o in serial.outcomes:
            key = (o.scale, o.policy_label)
            if key not in healthy:
                continue
            c = healthy[key]
            assert (o.msg_local, o.msg_remote, o.msg_intra) == (
                c.msg_local, c.msg_remote, c.msg_intra
            )
            assert o.summary.total_steps == c.summary.total_steps
            assert o.summary.final_blocks == c.summary.final_blocks
        assert chaotic.executor.counters["n_quarantined"] == 1


class TestJournalResume:
    def test_sedov_cell_record_is_small(self, tmp_path, monkeypatch):
        """A sedov cell's record holds its outcome without the arm's
        telemetry rows, which no sweep report reads after the run."""
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        config = SedovSweepConfig(
            scales=(512,), policies=("baseline", "cplx:50"), steps=20,
        )
        result = run_sedov_sweep(
            config, supervise=SupervisorConfig(journal_dir=str(tmp_path)),
        )
        records = list(result.executor.journal_path.glob("cell-*.rec"))
        assert len(records) == 2
        for rec in records:
            assert rec.stat().st_size < 16 * 1024
        assert all(o.summary.collector is None for o in result.outcomes)

    def test_full_resume_replays_everything(self, tmp_path):
        items = list(range(6))
        cfg = SupervisorConfig(journal_dir=str(tmp_path))
        first = supervised_map(_journal_cell, items, jobs=2, config=cfg)
        assert first.counters["n_executed"] == 6
        resumed = supervised_map(
            _journal_cell, items, jobs=2,
            config=SupervisorConfig(journal_dir=str(tmp_path), resume=True),
        )
        assert resumed.counters["n_executed"] == 0
        assert resumed.counters["n_resume_hits"] == 6
        assert resumed.results == first.results

    def test_partial_resume_runs_only_remainder(self, tmp_path):
        items = list(range(8))
        key = sweep_key(_journal_cell, items)
        journal = SweepJournal(tmp_path, key, len(items), resume=True)
        for i in (0, 3, 7):
            journal.record(i, _journal_cell(items[i]))
        report = supervised_map(
            _journal_cell, items, jobs=2,
            config=SupervisorConfig(journal_dir=str(tmp_path), resume=True),
        )
        assert report.counters["n_resume_hits"] == 3
        assert report.counters["n_executed"] == 5
        assert report.results == [_journal_cell(x) for x in items]

    def test_fresh_run_wipes_stale_records(self, tmp_path):
        items = list(range(4))
        key = sweep_key(_journal_cell, items)
        journal = SweepJournal(tmp_path, key, len(items), resume=True)
        journal.record(2, ("stale", "value", "!"))
        report = supervised_map(
            _journal_cell, items, jobs=1,
            config=SupervisorConfig(journal_dir=str(tmp_path), resume=False),
        )
        assert report.counters["n_executed"] == 4
        assert report.results[2] == _journal_cell(2)

    def test_corrupt_record_is_reexecuted(self, tmp_path):
        items = list(range(4))
        key = sweep_key(_journal_cell, items)
        journal = SweepJournal(tmp_path, key, len(items), resume=True)
        for i in items:
            journal.record(i, _journal_cell(i))
        # Truncate one record and bit-flip another's payload.
        rec1 = journal.dir / "cell-00001.rec"
        rec1.write_bytes(rec1.read_bytes()[:-7])
        rec2 = journal.dir / "cell-00002.rec"
        raw = bytearray(rec2.read_bytes())
        raw[-1] ^= 0xFF
        rec2.write_bytes(bytes(raw))
        report = supervised_map(
            _journal_cell, items, jobs=1,
            config=SupervisorConfig(journal_dir=str(tmp_path), resume=True),
        )
        assert report.counters["n_resume_hits"] == 2
        assert report.counters["n_executed"] == 2
        assert report.results == [_journal_cell(x) for x in items]

    def test_mismatched_journal_refuses(self, tmp_path):
        items = list(range(4))
        key = sweep_key(_journal_cell, items)
        SweepJournal(tmp_path, key, len(items))
        with pytest.raises(JournalMismatchError):
            SweepJournal(tmp_path, key, n_cells=9, resume=True)

    def test_quarantined_cells_are_not_journaled(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "flaky:1")
        items = list(range(3))
        report = supervised_map(
            _square, items, jobs=2,
            config=SupervisorConfig(
                retries=0, journal_dir=str(tmp_path)
            ),
        )
        assert isinstance(report.results[1], CellFailure)
        journal = SweepJournal(
            tmp_path, sweep_key(_square, items), len(items), resume=True
        )
        done = journal.completed()
        assert set(done) == {0, 2}
        # The quarantined cell re-runs on resume (and succeeds once the
        # fault is gone).
        monkeypatch.delenv(CHAOS_ENV)
        resumed = supervised_map(
            _square, items, jobs=2,
            config=SupervisorConfig(journal_dir=str(tmp_path), resume=True),
        )
        assert resumed.results == [0, 1, 4]
        assert resumed.counters["n_resume_hits"] == 2


_INTERRUPT_SCRIPT = textwrap.dedent("""
    import sys
    sys.path.insert(0, {src!r})
    sys.path.insert(0, {root!r})
    from tests.test_perf_supervisor import _journal_cell
    from repro.perf.supervisor import SupervisorConfig, supervised_map

    report = supervised_map(
        _journal_cell, list(range(8)), jobs=2,
        config=SupervisorConfig(journal_dir={journal!r}),
    )
    print("COMPLETED", flush=True)
""")


def _launch_interruptible(tmp_path: Path) -> subprocess.Popen:
    """Start a journaled 8-cell sweep (0.25 s/cell) in a subprocess."""
    repo = Path(__file__).resolve().parent.parent
    script = _INTERRUPT_SCRIPT.format(
        src=str(repo / "src"), root=str(repo), journal=str(tmp_path)
    )
    env = dict(os.environ, REPRO_TEST_CELL_SLEEP="0.25")
    env.pop(CHAOS_ENV, None)
    return subprocess.Popen(
        [sys.executable, "-c", script],
        env=env, cwd=str(repo), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _wait_for_records(journal_dir: Path, n: int, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if len(list(journal_dir.glob("sweep-*/cell-*.rec"))) >= n:
            return
        time.sleep(0.05)
    raise AssertionError(
        f"journal never reached {n} records in {timeout_s}s "
        f"(have {list(journal_dir.glob('sweep-*/*'))})"
    )


class TestInterruption:
    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGKILL])
    def test_interrupted_sweep_resumes_bit_identically(self, tmp_path, sig):
        proc = _launch_interruptible(tmp_path)
        try:
            _wait_for_records(tmp_path, 2)
            if sig == signal.SIGKILL:
                # Kill the whole process group: parent AND workers die
                # with no chance to clean up — the crash-consistency
                # worst case.
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                # Ctrl-C goes to the parent; workers ignore SIGINT and
                # are shut down by the supervisor's unwind.
                proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)
        assert proc.returncode != 0

        sweep_dirs = list(tmp_path.glob("sweep-*"))
        assert len(sweep_dirs) == 1
        # The journal is valid: no torn staging files survive a resume
        # open, and at least the records we waited for verify.
        journal = SweepJournal(
            tmp_path, sweep_key(_journal_cell, list(range(8))), 8, resume=True
        )
        assert list(sweep_dirs[0].glob("*.tmp")) == []
        completed = journal.completed()
        assert len(completed) >= 2
        for index, result in completed.items():
            assert result == _journal_cell(index)

        # Resume merges bit-identically with the uninterrupted serial run.
        resumed = supervised_map(
            _journal_cell, list(range(8)), jobs=2,
            config=SupervisorConfig(journal_dir=str(tmp_path), resume=True),
        )
        assert resumed.results == [_journal_cell(x) for x in range(8)]
        assert resumed.counters["n_resume_hits"] == len(completed)
        assert resumed.counters["n_resume_hits"] + \
            resumed.counters["n_executed"] == 8


def _run_job(journal_dir, monkeypatch, resume=False, retries=2):
    """Run the 5-cell scalebench job through the CLI's runner path (no
    ``on_event``); returns its result and the reports of its sweep."""
    from repro.bench import scalebench
    from repro.service import JobRunner, spec_from_params

    reports = []
    real_map = scalebench.supervised_map

    def spy_map(*args, **kwargs):
        try:
            reports.append(real_map(*args, **kwargs))
        except BaseException as exc:
            reports.append(exc.report)
            raise
        return reports[-1]

    monkeypatch.setattr(scalebench, "supervised_map", spy_map)
    spec = spec_from_params("scalebench", _SCALEBENCH, supervise=SupervisorConfig(
        retries=retries, journal_dir=str(journal_dir), resume=resume,
    ))
    return JobRunner().run(spec), reports


class TestTelemetryEvents:
    """Without an ``on_event`` caller the runner keeps each run
    segment's executor events beside the journal, as one partition of
    ``<journal>/telemetry``."""

    def test_events_are_queryable_through_plan_engine(self, tmp_path, monkeypatch):
        from repro.telemetry.dataset import TelemetryDataset
        from repro.telemetry.query import sql_query

        monkeypatch.setenv(CHAOS_ENV, "flaky:1@1")
        result, _ = _run_job(tmp_path, monkeypatch, retries=1)
        assert result.counters["n_executed"] == 5
        ds = TelemetryDataset.open(Path(result.journal_path) / "telemetry")
        table = sql_query(
            ds, "SELECT kind, count(cell) FROM events GROUP BY kind"
        ).run()
        by_kind = {
            int(k): int(n)
            for k, n in zip(table["kind"], table["count_cell"])
        }
        assert by_kind[EVENT_CODES["complete"]] == 5
        assert by_kind[EVENT_CODES["error"]] == 1
        assert by_kind[EVENT_CODES["retry"]] == 1

    def test_spooled_events_equal_events_table(self, tmp_path, monkeypatch):
        """One partition per run segment, each the segment's in-memory
        report table (same columns, dtypes and ids), and the rendered
        journal line points at the dataset."""
        from repro.telemetry.columnar import read_table
        from repro.telemetry.dataset import TelemetryDataset

        monkeypatch.setenv(CHAOS_ENV, "flaky:1@1")
        first, (report1,) = _run_job(tmp_path, monkeypatch, retries=1)
        assert first.counters["n_retries"] == 1
        monkeypatch.delenv(CHAOS_ENV)
        second, (report2,) = _run_job(tmp_path, monkeypatch, resume=True)
        assert second.counters["n_resume_hits"] == 5
        telemetry = Path(first.journal_path) / "telemetry"
        parts = TelemetryDataset.open(telemetry).partition_files()
        assert len(parts) == 2
        assert read_table(parts[0]) == events_table(report1.events)
        assert read_table(parts[1]) == events_table(report2.events)
        assert f"repro query {telemetry} " in second.text

    def test_events_table_in_memory(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        report = supervised_map(
            _square, list(range(3)), jobs=1, config=SupervisorConfig()
        )
        table = events_table(report.events)
        assert table.n_rows == 3
        assert list(table["kind"]) == [EVENT_CODES["complete"]] * 3

    def test_resume_events_accumulate_partitions(self, tmp_path, monkeypatch):
        from repro.telemetry.dataset import TelemetryDataset

        monkeypatch.delenv(CHAOS_ENV, raising=False)
        _run_job(tmp_path, monkeypatch)
        result, _ = _run_job(tmp_path, monkeypatch, resume=True)
        ds = TelemetryDataset.open(Path(result.journal_path) / "telemetry")
        assert ds.n_partitions == 2
        assert ds.labels() == ["run-000", "run-001"]

    def test_spool_recreates_a_torn_dataset(self, tmp_path, monkeypatch):
        """A dataset create killed before its manifest landed leaves an
        empty telemetry directory; the next run segment writes into it
        instead of dropping its events."""
        from repro.telemetry.dataset import TelemetryDataset

        monkeypatch.delenv(CHAOS_ENV, raising=False)
        first, _ = _run_job(tmp_path, monkeypatch)
        telemetry = Path(first.journal_path) / "telemetry"
        for f in telemetry.iterdir():
            f.unlink()
        result, _ = _run_job(tmp_path, monkeypatch, resume=True)
        ds = TelemetryDataset.open(telemetry)
        assert ds.labels() == ["run-000"]
        assert ds.n_partitions == 1
        assert result.counters["n_resume_hits"] == 5

    @pytest.mark.parametrize("stop_cell", [2, 0])
    def test_interrupted_run_keeps_events_seen_so_far(
        self, tmp_path, monkeypatch, stop_cell
    ):
        """Ctrl-C in a serial cell: the propagated exception carries the
        partial report, and its events land as the segment's partition
        (none when no event was recorded yet)."""
        from repro.bench import scalebench
        from repro.telemetry.columnar import read_table
        from repro.telemetry.dataset import TelemetryDataset

        monkeypatch.delenv(CHAOS_ENV, raising=False)
        real_cell = scalebench._run_scalebench_cell
        stop_x = [0.0, 25.0, 50.0, 75.0, 100.0][stop_cell]

        def interrupted_cell(cell):
            if cell.x == stop_x:
                raise KeyboardInterrupt
            return real_cell(cell)

        monkeypatch.setattr(scalebench, "_run_scalebench_cell", interrupted_cell)
        with pytest.raises(KeyboardInterrupt) as exc_info:
            _run_job(tmp_path, monkeypatch)
        report = exc_info.value.report
        assert [(e.cell, e.kind) for e in report.events] == [
            (i, "complete") for i in range(stop_cell)
        ]
        telemetry = report.journal_path / "telemetry"
        if not report.events:
            assert not telemetry.exists()
            return
        ds = TelemetryDataset.open(telemetry)
        assert ds.labels() == ["run-000"]
        assert read_table(ds.partition_files()[0]) == events_table(report.events)


class TestReportShape:
    def test_summary_line_and_pickle(self):
        report = supervised_map(
            _square, list(range(4)), jobs=1, config=SupervisorConfig()
        )
        line = report.summary_line()
        assert "4 cells" in line and "4 executed" in line
        # Reports travel across process boundaries in sweep results.
        clone = pickle.loads(pickle.dumps(report))
        assert clone.results == report.results
