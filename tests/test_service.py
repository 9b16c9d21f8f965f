"""The multi-tenant job service, end to end over its real socket.

Acceptance pins from the service PR: two tenants run concurrently
under quota enforcement, priorities order the queue, SQL works
against a running job's events, cancellation leaves a resumable journal
whose ``resume_of`` completion is bit-identical, and admission control
rejects over-quota submits with an error (not a hang).
"""

import asyncio
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.perf.supervisor import CHAOS_ENV, EVENT_CODES
from repro.service import JobRunner, spec_from_params
from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import (
    AdmissionQueue,
    QueuedJob,
    QuotaConfig,
    QuotaExceeded,
)
from repro.service.server import JobService, ServiceConfig

TINY = {"scales": [512], "steps": 40, "policies": ["baseline", "cplx:50"]}
WIDE = {
    "scales": [512], "steps": 60,
    "policies": ["baseline", "cplx:0", "cplx:25", "cplx:50",
                 "cplx:75", "cplx:100"],
}


class TestAdmissionQueue:
    def test_priority_orders_dispatch(self):
        q = AdmissionQueue(QuotaConfig(max_active=1))
        q.submit(QueuedJob("a", "t1", priority=0))
        q.submit(QueuedJob("b", "t2", priority=5))
        q.submit(QueuedJob("c", "t3", priority=2))
        order = []
        while (job := q.next_job()) is not None:
            order.append(job.job_id)
            q.mark_started(job.tenant)
            q.mark_finished(job.tenant)
        assert order == ["b", "c", "a"]

    def test_fifo_within_equal_priority(self):
        q = AdmissionQueue()
        q.submit(QueuedJob("a", "t1"))
        q.submit(QueuedJob("b", "t2"))
        assert q.next_job().job_id == "a"

    def test_fairness_prefers_idle_tenant(self):
        q = AdmissionQueue(QuotaConfig(max_active=4, max_active_per_tenant=4))
        q.mark_started("busy")
        q.submit(QueuedJob("a", "busy"))
        q.submit(QueuedJob("b", "idle"))
        # Equal priority: the tenant with fewer running jobs goes first
        # even though "busy" submitted earlier.
        assert q.next_job().job_id == "b"

    def test_tenant_active_quota_blocks_dispatch(self):
        q = AdmissionQueue(QuotaConfig(max_active=4, max_active_per_tenant=1))
        q.mark_started("t1")
        q.submit(QueuedJob("a", "t1", priority=99))
        q.submit(QueuedJob("b", "t2"))
        assert q.next_job().job_id == "b"  # t1 at quota despite priority
        q.mark_started("t2")
        assert q.next_job() is None
        q.mark_finished("t1")
        assert q.next_job().job_id == "a"

    def test_global_active_cap(self):
        q = AdmissionQueue(QuotaConfig(max_active=2, max_active_per_tenant=2))
        q.mark_started("t1")
        q.mark_started("t1")
        q.submit(QueuedJob("a", "t2"))
        assert q.next_job() is None

    def test_queue_quotas_reject(self):
        q = AdmissionQueue(QuotaConfig(max_queued_per_tenant=2, max_queued=3))
        q.submit(QueuedJob("a", "t1"))
        q.submit(QueuedJob("b", "t1"))
        with pytest.raises(QuotaExceeded):
            q.submit(QueuedJob("c", "t1"))
        q.submit(QueuedJob("d", "t2"))
        with pytest.raises(QuotaExceeded):
            q.submit(QueuedJob("e", "t3"))

    def test_remove_withdraws_queued(self):
        q = AdmissionQueue()
        q.submit(QueuedJob("a", "t1"))
        assert q.remove("a").job_id == "a"
        assert q.remove("a") is None
        assert q.next_job() is None


class _LiveService:
    """A JobService on a background event-loop thread."""

    def __init__(self, tmp_path, **config_kwargs):
        config_kwargs.setdefault("journal_root", str(tmp_path / "svc"))
        self.config = ServiceConfig(port=0, **config_kwargs)
        self.service = JobService(self.config)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def body():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.service.start())
            started.set()
            self.loop.run_until_complete(self.service.serve_forever())
            self.loop.run_until_complete(self.service.close())
            self.loop.close()

        self.thread = threading.Thread(target=body, daemon=True)
        self.thread.start()
        if not started.wait(10):
            raise RuntimeError("service did not start")

    def client(self) -> ServiceClient:
        return ServiceClient(*self.service.address)

    def stop(self):
        with self.client() as c:
            c.shutdown()
        self.thread.join(timeout=10)


@pytest.fixture
def live_service(tmp_path):
    services = []

    def make(**kwargs):
        svc = _LiveService(tmp_path, **kwargs)
        services.append(svc)
        return svc

    yield make
    for svc in services:
        svc.stop()


def wait_for(predicate, timeout_s=120.0, poll_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll_s)
    raise TimeoutError("condition not met")


class TestServiceEndToEnd:
    def test_two_tenants_run_concurrently_and_match_serial(
        self, live_service
    ):
        svc = live_service(
            quotas=QuotaConfig(max_active=2, max_active_per_tenant=1)
        )
        with svc.client() as c:
            a = c.submit("sedov", TINY, tenant="alice")
            b = c.submit("sedov", TINY, tenant="bob")
            # Quota admits one running job per tenant; with two slots
            # the two tenants overlap.
            wait_for(
                lambda: c.status(a)["state"] == "running"
                and c.status(b)["state"] == "running"
            )
            ra = c.result(a, timeout_s=300)
            rb = c.result(b, timeout_s=300)
        assert ra["state"] == "done" and rb["state"] == "done"
        serial = JobRunner().run(spec_from_params("sedov", TINY))
        assert ra["result"]["digest"] == serial.digest
        assert rb["result"]["digest"] == serial.digest

    def test_priority_preempts_queue_order(self, live_service):
        svc = live_service(
            quotas=QuotaConfig(max_active=1, max_active_per_tenant=1)
        )
        with svc.client() as c:
            first = c.submit("sedov", TINY, tenant="t0")
            low = c.submit("sedov", TINY, tenant="t1", priority=0)
            high = c.submit("sedov", TINY, tenant="t2", priority=9)
            c.result(first, timeout_s=300)
            # One slot: after `first`, the high-priority submit runs
            # even though `low` was queued earlier.
            state = wait_for(
                lambda: (
                    c.status(high)["state"] != "queued"
                    and (c.status(high)["state"], c.status(low)["state"])
                )
            )
            assert state[1] == "queued", state
            c.result(high, timeout_s=300)
            c.result(low, timeout_s=300)

    def test_live_query_over_running_spool(self, live_service):
        svc = live_service()
        with svc.client() as c:
            job = c.submit("sedov", WIDE, tenant="alice")
            # Query the spool while the job is demonstrably running;
            # live mode must tolerate every mid-flush state.
            saw_running_query = False

            def try_query():
                nonlocal saw_running_query
                status = c.status(job)
                reply = c.query(
                    job,
                    "SELECT kind, count(cell) FROM events GROUP BY kind",
                )
                if status["state"] == "running" and reply["n_rows"]:
                    saw_running_query = True
                return saw_running_query

            wait_for(try_query)
            result = c.result(job, timeout_s=600)
            assert result["state"] == "done"
            final = c.query(
                job, "SELECT kind, count(cell) FROM events GROUP BY kind"
            )
        # All six cells completed: one "complete" (code 0) group row.
        assert 0 in final["columns"]["kind"]
        idx = final["columns"]["kind"].index(0)
        assert final["columns"]["count_cell"][idx] == 6

    def test_cancel_running_job_then_resume_bit_identically(
        self, live_service
    ):
        svc = live_service()
        with svc.client() as c:
            job = c.submit("sedov", WIDE, tenant="alice")
            # Let at least one cell land in the journal, then cancel.
            wait_for(lambda: c.status(job)["cells_done"] >= 1)
            c.cancel(job)
            result = c.call(
                {"op": "result", "job_id": job, "wait": True,
                 "timeout_s": 300}
            )
            assert result["state"] == "cancelled"
            assert result["result"]["cancelled"] is True
            assert result["result"]["exit_code"] == 130
            status = c.status(job)
            assert status["cells_done"] < status["cells_total"]

            resumed = c.submit("sedov", WIDE, tenant="alice", resume_of=job)
            final = c.result(resumed, timeout_s=600)
            assert final["state"] == "done"
            assert final["result"]["counters"]["n_resume_hits"] >= 1
        serial = JobRunner().run(spec_from_params("sedov", WIDE))
        assert final["result"]["digest"] == serial.digest

    def test_cancel_queued_job_never_runs(self, live_service):
        svc = live_service(
            quotas=QuotaConfig(max_active=1, max_active_per_tenant=1)
        )
        with svc.client() as c:
            running = c.submit("sedov", TINY, tenant="t0")
            queued = c.submit("sedov", TINY, tenant="t1")
            assert c.status(queued)["state"] == "queued"
            reply = c.cancel(queued)
            assert reply["state"] == "cancelled"
            assert c.status(queued)["state"] == "cancelled"
            c.result(running, timeout_s=300)
            assert c.status(queued)["state"] == "cancelled"

    def test_submit_quota_rejected_with_error(self, live_service):
        svc = live_service(
            quotas=QuotaConfig(
                max_active=1, max_active_per_tenant=1,
                max_queued_per_tenant=1, max_queued=64,
            )
        )
        with svc.client() as c:
            first = c.submit("sedov", TINY, tenant="alice")
            c.submit("sedov", TINY, tenant="alice")  # 1 queued: at quota
            with pytest.raises(ServiceError) as exc:
                c.submit("sedov", TINY, tenant="alice")
            assert exc.value.response.get("quota") is True
            # Another tenant is unaffected by alice's quota.
            c.submit("sedov", TINY, tenant="bob")
            c.result(first, timeout_s=300)

    def test_unknown_kind_and_job_errors(self, live_service):
        svc = live_service()
        with svc.client() as c:
            with pytest.raises(ServiceError, match="unknown experiment"):
                c.submit("fusion", {})
            with pytest.raises(ServiceError, match="unknown job_id"):
                c.status("job-9999")

    def test_tenant_status_aggregates_cache_counters(self, live_service):
        svc = live_service()
        with svc.client() as c:
            job = c.submit("sedov", TINY, tenant="alice")
            c.result(job, timeout_s=300)
            agg = c.tenant_status("alice")
            assert [j["job_id"] for j in agg["jobs"]] == [job]
            assert "pattern_misses" in agg["cache"]
            # The engine ran with the shared pattern cache wired in.
            # (The store is process-wide, so earlier tests may have
            # warmed it — all-hits is as valid as all-misses here.)
            cache = agg["cache"]
            assert cache["pattern_hits"] + cache["pattern_misses"] > 0

    def test_second_identical_job_hits_the_shared_store(self, live_service):
        svc = live_service()
        with svc.client() as c:
            for _ in range(2):
                job = c.submit("sedov", TINY, tenant="carol")
                c.result(job, timeout_s=300)
            assert c.status(job)["pattern_cache"]["hits"] > 0
            assert c.tenant_status("carol")["cache"]["pattern_hits"] > 0

    def test_resilience_job_matches_in_process_run(self, live_service):
        """Resilience arms run under the same job controls as sedov
        cells, shared pattern store included, with unchanged results."""
        params = {"ranks": 128, "steps": 200, "check_determinism": False}
        svc = live_service()
        with svc.client() as c:
            job = c.submit("resilience", params, tenant="dave")
            reply = c.result(job, timeout_s=600)
        assert reply["state"] == "done"
        ref = JobRunner().run(spec_from_params("resilience", params))
        assert reply["result"]["digest"] == ref.digest
        assert reply["result"]["text"] == ref.text
        cache = reply["result"]["pattern_cache"]
        assert cache["hits"] + cache["misses"] > 0

    def test_events_stream_reaches_completion(self, live_service):
        svc = live_service()
        with svc.client() as c:
            job = c.submit("sedov", TINY, tenant="alice")
            kinds = [e["kind"] for e in c.stream_events(job, poll_s=0.1)]
            assert kinds.count("complete") == 2
            assert c.status(job)["state"] == "done"

    def test_finished_job_journal_holds_no_event_dataset(self, live_service):
        """The server keeps a job's events in its record, so the job's
        journal holds only its metadata and cell records: ``events`` and
        ``query`` still answer, and the result text names no dataset."""
        svc = live_service()
        with svc.client() as c:
            job = c.submit("sedov", TINY, tenant="alice")
            reply = c.result(job, timeout_s=300)
            assert reply["state"] == "done"
            kinds = [e["kind"] for e in c.events(job)["events"]]
            rows = c.query(job, "SELECT kind, count(cell) FROM events "
                                "GROUP BY kind")
        (sweep,) = Path(svc.service.jobs[job].journal_dir).glob("sweep-*")
        assert sorted(p.name for p in sweep.iterdir()) == [
            "cell-00000.rec", "cell-00001.rec", "meta.json",
        ]
        assert kinds == ["complete", "complete"]
        assert rows["columns"] == {
            "kind": [EVENT_CODES["complete"]], "count_cell": [2],
        }
        assert reply["result"]["journal_path"] == str(sweep)
        assert f"journal: {sweep}\n" in reply["result"]["text"]
        assert "telemetry" not in reply["result"]["text"]

    def test_query_and_events_read_one_source(self, live_service, monkeypatch):
        """Per-kind counts from SQL equal those of the streamed records,
        on a job whose first cell fails once and is retried."""
        monkeypatch.setenv(CHAOS_ENV, "flaky:0@1")
        svc = live_service()
        with svc.client() as c:
            job = c.submit("sedov", TINY, tenant="alice")
            assert c.result(job, timeout_s=300)["state"] == "done"
            records = c.events(job)["events"]
            reply = c.query(
                job, "SELECT kind, count(cell) FROM events GROUP BY kind"
            )
        from_query = dict(
            zip(reply["columns"]["kind"], reply["columns"]["count_cell"])
        )
        from_events = Counter(EVENT_CODES[e["kind"]] for e in records)
        assert from_query == dict(from_events)
        assert from_events[EVENT_CODES["retry"]] == 1
        assert from_events[EVENT_CODES["complete"]] == 2
