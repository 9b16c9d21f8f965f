"""Durability layer: the job store, restart recovery, and the
hardening it enables (deadlines, shedding, poison breaker, drain).

Acceptance pins from the durable-service PR:

* store records are atomic, CRC-framed, and monotonic — torn records
  are quarantined as ``*.torn``, never trusted;
* a restart loses no job: queued records re-admit (bypassing quotas
  they already paid), mid-run records resume their sweep journals to a
  digest **bit-identical** to an uninterrupted run, terminal records
  stay queryable, and stale cancel flags don't insta-cancel recovery;
* a spec that keeps crashing the server is quarantined as failed by
  the poison circuit breaker instead of crash-looping the pool;
* ``deadline_s`` stops an overrunning job at an epoch boundary
  (``failed``, exit 124) leaving a resumable journal;
* a full queue sheds lowest-priority-first, and an un-sheddable submit
  gets a structured ``overloaded`` + ``retry_after_s`` response;
* drain shutdown checkpoints running jobs so the next boot finishes
  them.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.engine.hooks import CancellationHook
from repro.perf.supervisor import ExecutorEvent
from repro.service import JobRunner, spec_from_params
from repro.service import store as store_module
from repro.service.client import ServiceError
from repro.service.queue import QuotaConfig
from repro.service.recovery import POISON_ERROR_PREFIX, recover_jobs
from repro.service.store import (
    STATE_ORDER,
    TERMINAL_STATES,
    JobRecord,
    JobStore,
    StoreError,
    _write_checksummed,
    spec_hash,
)

from tests.helpers import LiveService, wait_for

TINY = {"scales": [512], "steps": 40, "policies": ["baseline", "cplx:50"]}
WIDE = {
    "scales": [512], "steps": 60,
    "policies": ["baseline", "cplx:0", "cplx:25", "cplx:50",
                 "cplx:75", "cplx:100"],
}


def make_record(job_id, seq, params=TINY, tenant="alice", state="queued",
                journal_dir="", **kwargs):
    return JobRecord(
        job_id=job_id, seq=seq, kind="sedov", params=dict(params),
        tenant=tenant, priority=kwargs.pop("priority", 0),
        jobs=1, state=state, journal_dir=journal_dir,
        spec_hash=spec_hash("sedov", dict(params)), **kwargs,
    )


def observe(c, job):
    """A job's (cells_done, n_events), its (cell, kind, attempt) event
    stream and its full ``query`` reply."""
    status = c.status(job)
    events = [(e["cell"], e["kind"], e["attempt"])
              for e in c.events(job)["events"]]
    return ((status["cells_done"], status["n_events"]), events,
            c.query(job, "SELECT * FROM events"))


@pytest.fixture
def live_service(tmp_path):
    services = []

    def make(**kwargs):
        svc = LiveService(tmp_path / "svc", **kwargs)
        services.append(svc)
        return svc

    yield make
    for svc in services:
        if svc.thread.is_alive():
            svc.stop()


# ---------------------------------------------------------------------- #
# the store itself
# ---------------------------------------------------------------------- #


class TestJobStore:
    def test_record_roundtrip(self, tmp_path):
        store = JobStore(tmp_path)
        rec = make_record("job-0001", 1, deadline_s=5.0,
                          idempotency_key="k", crashes=1)
        store.write(rec)
        back = store.load("job-0001")
        assert back == rec
        # A finished record carries its executor events, detail included.
        rec = make_record("job-0002", 2, state="done", events=[
            ExecutorEvent(0.25, 0, "error", 1, "ValueError: boom"),
            ExecutorEvent(0.5, 0, "complete", 2),
        ])
        store.write(rec)
        back = store.load("job-0002")
        assert back == rec
        assert back.events[0].detail == "ValueError: boom"
        # A record written before events were kept names its spool
        # partitions instead; it loads with no events.
        old = make_record("job-0003", 3, state="done").to_json()
        del old["events"]
        old["spool"] = ["sweep-0/telemetry/part-00000.rprc"]
        _write_checksummed(store._record_path("job-0003"),
                           json.dumps(old, sort_keys=True))
        back = store.load("job-0003")
        assert back == make_record("job-0003", 3, state="done")
        assert back.events == []

    def test_monotonic_transitions_enforced(self, tmp_path):
        store = JobStore(tmp_path)
        rec = make_record("job-0001", 1, state="running")
        store.write(rec)
        rec.state = "queued"
        with pytest.raises(StoreError, match="non-monotonic"):
            store.write(rec)
        store.write(rec, force=True)   # the recovery escape hatch

    def test_terminal_states_frozen(self, tmp_path):
        store = JobStore(tmp_path)
        rec = make_record("job-0001", 1, state="done")
        store.write(rec)
        rec.state = "running"
        with pytest.raises(StoreError, match="terminal"):
            store.write(rec)
        # Rewriting the same terminal state (result enrichment) is fine.
        rec.state = "done"
        rec.digest = "abc"
        store.write(rec)

    def test_torn_record_quarantined(self, tmp_path):
        store = JobStore(tmp_path)
        store.write(make_record("job-0001", 1))
        store.write(make_record("job-0002", 2))
        # Bit-flip one record's payload: CRC must catch it.
        victim = tmp_path / "jobs" / "job-0002.json"
        doc = json.loads(victim.read_text())
        doc["payload"] = doc["payload"].replace("alice", "mallory")
        victim.write_text(json.dumps(doc))
        records, torn = JobStore(tmp_path).load_all()
        assert [r.job_id for r in records] == ["job-0001"]
        assert len(torn) == 1 and torn[0].name.endswith(".torn")
        assert not victim.exists()

    def test_truncated_record_quarantined(self, tmp_path):
        store = JobStore(tmp_path)
        store.write(make_record("job-0001", 1))
        victim = tmp_path / "jobs" / "job-0001.json"
        victim.write_text(victim.read_text()[: len(victim.read_text()) // 2])
        records, torn = JobStore(tmp_path).load_all()
        assert records == [] and len(torn) == 1

    def test_poison_ledger_persists(self, tmp_path):
        store = JobStore(tmp_path)
        shash = spec_hash("sedov", TINY)
        assert store.record_crash(shash) == 1
        assert store.record_crash(shash) == 2
        fresh = JobStore(tmp_path)
        assert fresh.crash_count(shash) == 2
        assert fresh.is_poisoned(shash, threshold=2)
        assert not fresh.is_poisoned(shash, threshold=3)
        fresh.clear_poison(shash)
        assert JobStore(tmp_path).crash_count(shash) == 0

    def test_one_job_writes_one_record_per_transition(
        self, tmp_path, live_service, monkeypatch
    ):
        """The durable store's price per job, pinned by counted work:
        one fsync'd record per lifecycle transition (queued, running,
        done) and no other write on the submit-to-done path."""
        writes = []
        real_write = store_module._write_checksummed

        def counting_write(path, payload):
            writes.append((Path(path).name, json.loads(payload).get("state")))
            real_write(path, payload)

        monkeypatch.setattr(store_module, "_write_checksummed", counting_write)
        svc = live_service(state_dir=str(tmp_path / "state"))
        with svc.client() as c:
            job = c.submit("sedov", TINY)
            assert c.result(job, timeout_s=300)["state"] == "done"
        assert writes == [
            (f"{job}.json", state) for state in ("queued", "running", "done")
        ]

    def test_state_order_is_monotonic_lattice(self):
        assert STATE_ORDER["submitted"] < STATE_ORDER["queued"]
        assert STATE_ORDER["queued"] < STATE_ORDER["running"]
        for s in TERMINAL_STATES:
            assert STATE_ORDER["running"] < STATE_ORDER[s]


# ---------------------------------------------------------------------- #
# the recovery classifier
# ---------------------------------------------------------------------- #


class TestRecoverJobs:
    def test_classification_matrix(self, tmp_path):
        store = JobStore(tmp_path)
        store.write(make_record("job-0001", 1, state="queued"))
        store.write(make_record("job-0002", 2, state="submitted"))
        store.write(make_record("job-0003", 3, state="running",
                                params=WIDE))
        store.write(make_record("job-0004", 4, state="done",
                                digest="d", exit_code=0))
        plan = recover_jobs(JobStore(tmp_path))
        assert [r.job_id for r in plan.requeue] == [
            "job-0001", "job-0002", "job-0003",
        ]
        assert all(r.state == "queued" for r in plan.requeue)
        assert [r.job_id for r in plan.resumed] == ["job-0003"]
        assert [r.job_id for r in plan.finished] == ["job-0004"]
        assert plan.max_seq == 4
        # The mid-run record was charged one crash against its spec.
        assert JobStore(tmp_path).crash_count(
            spec_hash("sedov", WIDE)
        ) == 1
        # Verdicts were persisted: recovery-of-recovery is idempotent
        # apart from the crash charge.
        plan2 = recover_jobs(JobStore(tmp_path))
        assert [r.job_id for r in plan2.requeue] == [
            "job-0001", "job-0002", "job-0003",
        ]

    def test_poison_threshold_quarantines(self, tmp_path):
        store = JobStore(tmp_path)
        shash = spec_hash("sedov", TINY)
        store.record_crash(shash)
        store.record_crash(shash)
        store.write(make_record("job-0001", 1, state="running", crashes=2))
        plan = recover_jobs(JobStore(tmp_path), poison_threshold=3)
        assert plan.requeue == []
        assert [r.job_id for r in plan.poisoned] == ["job-0001"]
        rec = plan.poisoned[0]
        assert rec.state == "failed" and rec.exit_code == 1
        assert rec.error.startswith(POISON_ERROR_PREFIX)
        # The quarantine verdict is durable.
        assert JobStore(tmp_path).load("job-0001").state == "failed"


# ---------------------------------------------------------------------- #
# restart recovery through a live server
# ---------------------------------------------------------------------- #


class TestRestartRecovery:
    def test_recovery_matrix_no_job_lost_or_duplicated(
        self, tmp_path, live_service
    ):
        """Kill at queued / running-pre-checkpoint / running-mid-sweep /
        cancelling, plus a torn record: every job survives exactly once
        and completes bit-identically."""
        state = tmp_path / "state"
        journals = tmp_path / "svc"

        # Manufacture a mid-sweep journal the honest way: run the job
        # in a first server incarnation and cancel after >= 1 cell.
        svc1 = live_service(state_dir=str(state))
        with svc1.client() as c:
            mid = c.submit("sedov", WIDE, tenant="alice",
                           idempotency_key="mid-key")
            wait_for(lambda: c.status(mid)["cells_done"] >= 1)
            c.cancel(mid)
            c.result(mid, timeout_s=300)
            journal_of_mid = c.status(mid)["journal_dir"]
        svc1.stop()

        # Rewrite history as the moment of a crash: the mid-sweep job
        # was *running* (partial journal on disk), one job was queued,
        # one was running with no checkpoint yet, one was cancelling
        # (running + cancel flag), and one record is torn garbage.
        store = JobStore(state)
        store.write(make_record(mid, 1, params=WIDE, state="running",
                                journal_dir=journal_of_mid,
                                idempotency_key="mid-key"), force=True)
        store.write(make_record("job-0002", 2, state="queued",
                                journal_dir=str(journals / "job-0002")))
        store.write(make_record("job-0003", 3, state="running",
                                tenant="bob",
                                journal_dir=str(journals / "job-0003")))
        store.write(make_record("job-0004", 4, state="running",
                                tenant="bob",
                                journal_dir=str(journals / "job-0004")))
        (journals / "job-0004.cancel").parent.mkdir(
            parents=True, exist_ok=True
        )
        (journals / "job-0004.cancel").touch()    # killed mid-cancel
        (state / "jobs" / "job-0099.json").write_text("torn garbage{")

        svc2 = live_service(state_dir=str(state))
        recovery = svc2.service.recovery
        assert recovery.n_torn == 1
        assert [r.job_id for r in recovery.requeue] == [
            mid, "job-0002", "job-0003", "job-0004",
        ]
        assert (state / "jobs" / "job-0099.json.torn").exists()

        with svc2.client() as c:
            for job_id in (mid, "job-0002", "job-0003", "job-0004"):
                reply = c.result(job_id, timeout_s=600)
                assert reply["state"] == "done", (job_id, reply)
            # The mid-sweep job replayed its journaled cells ...
            wide_reply = c.result(mid, timeout_s=10)
            assert wide_reply["result"]["counters"]["n_resume_hits"] >= 1
            # ... and nothing was duplicated: alice owns exactly the
            # two jobs she submitted, bob his two.
            assert len(c.tenant_status("alice")["jobs"]) == 2
            assert len(c.tenant_status("bob")["jobs"]) == 2
            # No double-charge left behind in the admission accounting.
            assert c.tenant_status("alice")["active"] == 0
            assert c.tenant_status("alice")["queued"] == 0
            # Idempotency keys were re-indexed across the restart.
            assert c.submit("sedov", WIDE, tenant="alice",
                            idempotency_key="mid-key") == mid

        serial_wide = JobRunner().run(spec_from_params("sedov", WIDE))
        serial_tiny = JobRunner().run(spec_from_params("sedov", TINY))
        with svc2.client() as c:
            assert (c.result(mid, timeout_s=10)["result"]["digest"]
                    == serial_wide.digest)
            for job_id in ("job-0002", "job-0003", "job-0004"):
                assert (c.result(job_id, timeout_s=10)["result"]["digest"]
                        == serial_tiny.digest), job_id

    def test_finished_job_query_survives_restart(
        self, tmp_path, live_service
    ):
        """A finished job's status counts, event stream and query rows
        are the same before a ``--state`` restart and after it, when the
        job's events are read back from its journal."""
        state = tmp_path / "state"
        svc1 = live_service(state_dir=str(state))
        with svc1.client() as c:
            job = c.submit("sedov", TINY, tenant="alice")
            assert c.result(job, timeout_s=300)["state"] == "done"
            before = observe(c, job)
        svc1.stop()

        svc2 = live_service(state_dir=str(state))
        with svc2.client() as c:
            assert c.status(job)["state"] == "done"
            after = observe(c, job)
        counts, events, rows = before
        assert counts == (2, 2)
        assert sorted(cell for cell, _, _ in events) == [0, 1]
        assert {kind for _, kind, _ in events} == {"complete"}
        assert rows["n_rows"] == 2
        assert after == before

    def test_resumed_journal_keeps_each_jobs_events(
        self, tmp_path, live_service
    ):
        """A cancelled job and its ``resume_of`` continuation share one
        journal; across a restart each still reports only the events of
        its own run."""
        state = tmp_path / "state"
        svc1 = live_service(state_dir=str(state))
        with svc1.client() as c:
            first = c.submit("sedov", WIDE)
            wait_for(lambda: c.status(first)["cells_done"] >= 1)
            c.cancel(first)
            assert c.result(first, timeout_s=300)["state"] == "cancelled"
            resumed = c.submit("sedov", WIDE, resume_of=first)
            assert c.result(resumed, timeout_s=600)["state"] == "done"
            before = {job: observe(c, job) for job in (first, resumed)}
        svc1.stop()

        svc2 = live_service(state_dir=str(state))
        with svc2.client() as c:
            after = {job: observe(c, job) for job in (first, resumed)}
        cells_done = before[first][0][0]
        assert 1 <= cells_done < 6
        assert before[resumed][0] == (6, 6)
        assert after == before

    def test_finished_job_keeps_its_events_without_its_journal(
        self, tmp_path, live_service
    ):
        """A finished job's events live in its store record: with its
        whole journal directory deleted, a restart still reports the
        same status counts, event stream and query rows."""
        state = tmp_path / "state"
        svc1 = live_service(state_dir=str(state))
        with svc1.client() as c:
            job = c.submit("sedov", TINY)
            assert c.result(job, timeout_s=300)["state"] == "done"
            before = observe(c, job)
        svc1.stop()
        journal = Path(svc1.service.jobs[job].journal_dir)
        shutil.rmtree(journal)

        svc2 = live_service(state_dir=str(state))
        with svc2.client() as c:
            assert c.status(job)["state"] == "done"
            after = observe(c, job)
        assert not journal.exists()
        assert before[0] == (2, 2)
        assert after == before

    def test_recovered_job_cancels_mid_run_and_resumes(
        self, tmp_path, live_service
    ):
        """A requeued job carries the same cancel flag and store setting
        as a fresh submit: it can be cancelled while it runs, and its
        journal then resumes bit-identically."""
        state = tmp_path / "state"
        JobStore(state).write(make_record(
            "job-0001", 1, params=WIDE, state="running",
            journal_dir=str(tmp_path / "svc" / "job-0001"),
        ), force=True)
        svc = live_service(state_dir=str(state))
        supervise = svc.service.jobs["job-0001"].spec.supervise
        assert supervise.cancel_path and supervise.shared_pattern_store
        with svc.client() as c:
            wait_for(lambda: c.status("job-0001")["cells_done"] >= 1)
            c.cancel("job-0001")
            reply = c.result("job-0001", timeout_s=300)
            assert reply["state"] == "cancelled"
            assert reply["result"]["exit_code"] == 130
            status = c.status("job-0001")
            assert status["cells_done"] < status["cells_total"]
            resumed = c.submit("sedov", WIDE, resume_of="job-0001")
            final = c.result(resumed, timeout_s=600)
            assert final["state"] == "done"
            assert final["result"]["counters"]["n_resume_hits"] >= 1
        serial = JobRunner().run(spec_from_params("sedov", WIDE))
        assert final["result"]["digest"] == serial.digest

    def test_recovered_queued_jobs_bypass_admission_quotas(
        self, tmp_path, live_service
    ):
        """Two queued records of one tenant survive a restart intact
        even when they exceed the per-tenant queue quota — quotas were
        paid at the original submit."""
        state = tmp_path / "state"
        store = JobStore(state)
        store.write(make_record("job-0001", 1, state="queued"))
        store.write(make_record("job-0002", 2, state="queued"))
        svc = live_service(
            state_dir=str(state),
            quotas=QuotaConfig(
                max_active=1, max_active_per_tenant=1,
                max_queued=64, max_queued_per_tenant=1,
            ),
        )
        with svc.client() as c:
            for job_id in ("job-0001", "job-0002"):
                assert c.result(job_id, timeout_s=600)["state"] == "done"

    def test_terminal_records_stay_queryable(self, tmp_path, live_service):
        state = tmp_path / "state"
        store = JobStore(state)
        store.write(make_record("job-0001", 1, state="done",
                                digest="d" * 64, exit_code=0))
        store.write(make_record("job-0002", 2, state="failed",
                                exit_code=1, error="boom"))
        svc = live_service(state_dir=str(state))
        with svc.client() as c:
            done = c.status("job-0001")
            assert done["state"] == "done"
            assert done["digest"] == "d" * 64
            failed = c.result("job-0002", timeout_s=10)
            assert failed["state"] == "failed"
            assert failed["error"] == "boom"
            # The id counter resumed past recovered seqs: a fresh
            # submit never collides with a recovered job id.
            fresh = c.submit("sedov", TINY)
            assert fresh == "job-0003"
            c.result(fresh, timeout_s=300)

    def test_record_with_unread_params_boots(self, tmp_path, live_service):
        """A record written before submits were checked may hold a
        params key its kind never read; it still boots, and the key is
        ignored as it was when the job ran."""
        state = tmp_path / "state"
        JobStore(state).write(make_record(
            "job-0001", 1, params=dict(TINY, stepz=20), state="done",
            digest="d" * 64, exit_code=0,
        ))
        svc = live_service(state_dir=str(state))
        with svc.client() as c:
            status = c.status("job-0001")
            assert (status["state"], status["cells_total"]) == ("done", 2)
            with pytest.raises(ServiceError, match="stepz"):
                c.submit("sedov", dict(TINY, stepz=20))


# ---------------------------------------------------------------------- #
# poison-spec circuit breaker, through the server
# ---------------------------------------------------------------------- #


class TestPoisonBreaker:
    def test_poisoned_spec_quarantined_and_rejected(
        self, tmp_path, live_service
    ):
        state = tmp_path / "state"
        store = JobStore(state)
        shash = spec_hash("sedov", TINY)
        store.record_crash(shash)
        store.record_crash(shash)
        store.write(make_record("job-0001", 1, state="running", crashes=2))
        svc = live_service(state_dir=str(state), poison_threshold=3)
        with svc.client() as c:
            status = c.status("job-0001")
            assert status["state"] == "failed"
            assert POISON_ERROR_PREFIX in status["error"]
            # A fresh submit of the quarantined spec is refused with a
            # structured response, not queued into another crash loop.
            with pytest.raises(ServiceError) as exc:
                c.submit("sedov", TINY)
            assert exc.value.response.get("poisoned") is True
            # A different spec is unaffected.
            other = c.submit("sedov", WIDE, tenant="bob")
            assert c.result(other, timeout_s=600)["state"] == "done"

    def test_clean_completion_closes_breaker(self, tmp_path, live_service):
        state = tmp_path / "state"
        store = JobStore(state)
        shash = spec_hash("sedov", TINY)
        store.record_crash(shash)     # one strike, below threshold
        store.write(make_record("job-0001", 1, state="running", crashes=1))
        svc = live_service(state_dir=str(state), poison_threshold=3)
        with svc.client() as c:
            assert c.result("job-0001", timeout_s=300)["state"] == "done"
        assert JobStore(state).crash_count(shash) == 0


# ---------------------------------------------------------------------- #
# deadlines
# ---------------------------------------------------------------------- #


class TestDeadlines:
    def test_deadline_fails_job_with_resumable_journal(
        self, tmp_path, live_service, monkeypatch
    ):
        # The deadline expires at a fixed point, not in a race with the
        # host: a process whose caches are warm finished this job inside
        # a 0.25 s wall-clock deadline.  The submit's deadline_s still
        # has to reach each cell's CancellationHook; the second cell's
        # hook then finds it expired at its first epoch boundary, so one
        # cell is journaled and the rest are left for resume_of.
        runs = []
        real_epoch_end = CancellationHook.on_epoch_end

        def expiring_epoch_end(self, ctx, epoch):
            if self.deadline_ts is not None:
                if self not in runs:
                    runs.append(self)
                if len(runs) == 2:
                    self.deadline_ts = 0.0
            real_epoch_end(self, ctx, epoch)

        monkeypatch.setattr(CancellationHook, "on_epoch_end", expiring_epoch_end)
        svc = live_service()
        with svc.client() as c:
            job = c.submit("sedov", WIDE, deadline_s=300)
            reply = c.result(job, timeout_s=300)
            assert reply["state"] == "failed"
            assert "deadline" in reply["error"]
            assert reply["result"]["deadline_exceeded"] is True
            assert reply["result"]["exit_code"] == 124
            status = c.status(job)
            assert status["cells_done"] == 1 < status["cells_total"]
            # The journal survives: resume_of completes bit-identically
            # with no deadline this time.
            resumed = c.submit("sedov", WIDE, resume_of=job)
            final = c.result(resumed, timeout_s=600)
            assert final["state"] == "done"
        serial = JobRunner().run(spec_from_params("sedov", WIDE))
        assert final["result"]["digest"] == serial.digest

    def test_deadline_stops_resilience_inside_first_arm(self, live_service):
        """The deadline reaches resilience arms at epoch boundaries, as
        it reaches sedov cells: the first arm never completes.  At 6000
        steps an arm runs for over a second, well past the deadline."""
        params = {"ranks": 256, "steps": 6000, "check_determinism": False}
        svc = live_service()
        with svc.client() as c:
            job = c.submit("resilience", params, deadline_s=0.5)
            reply = c.result(job, timeout_s=300)
            events = c.events(job)["events"]
        assert reply["state"] == "failed"
        assert reply["result"]["deadline_exceeded"] is True
        assert reply["result"]["exit_code"] == 124
        assert reply["result"]["text"].startswith("deadline exceeded: ")
        assert "complete" not in [e["kind"] for e in events]

    def test_invalid_deadline_rejected(self, live_service):
        svc = live_service()
        with svc.client() as c:
            with pytest.raises(ServiceError, match="deadline_s must be"):
                c.call({"op": "submit", "kind": "sedov", "params": TINY,
                        "deadline_s": -1})


# ---------------------------------------------------------------------- #
# overload shedding
# ---------------------------------------------------------------------- #


class TestOverloadShedding:
    def test_full_queue_sheds_lowest_priority_first(self, live_service):
        svc = live_service(
            quotas=QuotaConfig(
                max_active=1, max_active_per_tenant=1,
                max_queued=1, max_queued_per_tenant=1,
            )
        )
        with svc.client() as c:
            running = c.submit("sedov", TINY, tenant="t0")
            victim = c.submit("sedov", TINY, tenant="t1", priority=0)
            # Queue is now full; a higher-priority submit displaces the
            # lowest-priority queued job.
            winner = c.submit("sedov", TINY, tenant="t2", priority=5)
            shed = c.result(victim, timeout_s=10)
            assert shed["state"] == "shed"
            assert "shed" in shed["error"]
            # Queue full again with priority 5: an incoming priority 1
            # outranks nothing and gets the structured overload reply.
            with pytest.raises(ServiceError) as exc:
                c.call({"op": "submit", "kind": "sedov", "params": TINY,
                        "tenant": "t3", "priority": 1})
            assert exc.value.response.get("overloaded") is True
            assert exc.value.response.get("retry_after_s", 0) >= 1.0
            assert c.result(running, timeout_s=300)["state"] == "done"
            assert c.result(winner, timeout_s=300)["state"] == "done"


    def test_invalid_submit_on_full_queue_sheds_nothing(self, live_service):
        svc = live_service(
            quotas=QuotaConfig(
                max_active=1, max_active_per_tenant=1,
                max_queued=1, max_queued_per_tenant=1,
            )
        )
        bad = dict(TINY, policies=["baseline", "cplx:abc"])
        with svc.client() as c:
            running = c.submit("sedov", TINY, tenant="t0")
            queued = c.submit("sedov", TINY, tenant="t1", priority=0)
            # The queue is full and the submit outranks the queued job,
            # but it is invalid: it is rejected before any shedding.
            with pytest.raises(ServiceError) as exc:
                c.call({"op": "submit", "kind": "sedov", "params": bad,
                        "tenant": "t2", "priority": 5})
            assert exc.value.response["ok"] is False
            assert "cplx:abc" in exc.value.response["error"]
            assert c.result(queued, timeout_s=300)["state"] == "done"
            assert c.result(running, timeout_s=300)["state"] == "done"


# ---------------------------------------------------------------------- #
# graceful drain shutdown
# ---------------------------------------------------------------------- #


class TestDrainShutdown:
    def test_drain_checkpoints_running_job_for_next_boot(
        self, tmp_path, live_service
    ):
        state = tmp_path / "state"
        svc1 = live_service(state_dir=str(state))
        with svc1.client() as c:
            job = c.submit("sedov", WIDE, tenant="alice")
            wait_for(lambda: c.status(job)["cells_done"] >= 1)
        svc1.stop(drain=True)
        # The store kept the checkpointed job queued for the next boot.
        rec = JobStore(state).load(job)
        assert rec.state == "queued"

        svc2 = live_service(state_dir=str(state))
        assert [r.job_id for r in svc2.service.recovery.requeue] == [job]
        with svc2.client() as c:
            final = c.result(job, timeout_s=600)
            assert final["state"] == "done"
            assert final["result"]["counters"]["n_resume_hits"] >= 1
        serial = JobRunner().run(spec_from_params("sedov", WIDE))
        assert final["result"]["digest"] == serial.digest

    def test_drain_rejects_new_submits(self, tmp_path, live_service):
        state = tmp_path / "state"
        svc = live_service(state_dir=str(state))
        with svc.client() as c:
            job = c.submit("sedov", WIDE, tenant="alice")
            wait_for(lambda: c.status(job)["cells_done"] >= 1)
            c.call({"op": "shutdown", "drain": True})
            with pytest.raises((ServiceError, ConnectionError)) as exc:
                c.call({"op": "submit", "kind": "sedov", "params": TINY})
            if isinstance(exc.value, ServiceError):
                assert exc.value.response.get("draining") is True
        svc.thread.join(timeout=60)
        assert not svc.thread.is_alive()
