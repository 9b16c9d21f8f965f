#!/usr/bin/env python
"""Server chaos harness: SIGKILL ``repro serve`` mid-job, restart it
against the same ``--state`` dir, and verify nothing was lost.

The scenario (the PR 8 acceptance check, also run by the
``service-crash-recovery`` CI job and ``tests/test_service_chaos.py``):

1. compute the reference digest of the experiment with an in-process
   :class:`~repro.service.runner.JobRunner` (no server involved);
2. start a real ``repro serve --state DIR`` subprocess, submit the same
   experiment through :class:`~repro.service.client.ServiceClient`
   with an idempotency key, and wait until at least one sweep cell has
   completed (so the kill lands mid-job, with a partially-filled
   journal);
3. ``SIGKILL`` the server — no atexit, no flush, no goodbye;
4. restart the server on the same port with the same state dir.  Boot
   recovery re-admits the job with ``resume=True``: journaled cells
   replay, the rest run fresh;
5. assert the recovered job's digest is byte-identical to the
   uninterrupted reference, and that resubmitting with the same
   idempotency key returns the *same* job id (never a twin);
6. shut the server down cleanly and boot it a third time: the finished
   job's ``status`` counts and its per-kind event ``query`` must equal
   server #2's (its events are read back from the job store).

Exit code 0 on success; non-zero with a diagnostic on any mismatch.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

PARAMS = {"scales": [512], "steps": 40,
          "policies": ["baseline", "cplx:0", "cplx:25", "cplx:50",
                       "cplx:75", "cplx:100"]}
KIND = "sedov"
IDEMPOTENCY_KEY = "chaos-sedov-1"
EVENTS_SQL = "SELECT kind, count(cell) FROM events GROUP BY kind"

_LISTEN_RE = re.compile(r"repro service listening on ([\d.]+):(\d+)")


def reference_digest() -> str:
    """The uninterrupted, serverless run's digest (the ground truth)."""
    from repro.service.runner import JobRunner
    from repro.service.spec import spec_from_params

    result = JobRunner().run(spec_from_params(KIND, PARAMS))
    assert result.exit_code == 0, result.text
    return result.digest


def start_server(state_dir: Path, journal_root: Path, port: int = 0):
    """Launch ``repro serve`` and return (process, actual_port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port),
         "--state", str(state_dir),
         "--journal-root", str(journal_root),
         "--max-active", "1"],
        env=env, cwd=str(REPO),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited during startup (code {proc.poll()})"
            )
        match = _LISTEN_RE.search(line)
        if match:
            return proc, int(match.group(2))
    proc.kill()
    raise RuntimeError("server never printed its listen line")


def connect(port: int, attempts: int = 50):
    from repro.service.client import ServiceClient

    last = None
    for _ in range(attempts):
        try:
            return ServiceClient("127.0.0.1", port, timeout_s=300)
        except OSError as exc:
            last = exc
            time.sleep(0.1)
    raise RuntimeError(f"could not connect to server on :{port}: {last}")


def wait_first_cell(client, job_id: str, timeout_s: float = 120) -> None:
    """Block until the job has at least one completed (not replayed)
    cell — the precondition for a *mid-job* kill."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = client.status(job_id)
        if status["state"] in ("done", "failed"):
            raise RuntimeError(
                f"job finished before the kill landed: {status}"
            )
        done = sum(
            1 for e in client.events(job_id)["events"]
            if e["kind"] == "complete"
        )
        if status["state"] == "running" and done >= 1:
            return
        time.sleep(0.05)
    raise RuntimeError("job never completed a first cell")


def finished_view(client, job_id: str):
    """A finished job's status counts and per-kind event counts."""
    status = client.status(job_id)
    reply = client.query(job_id, EVENTS_SQL)
    return ((status["cells_done"], status["n_events"]),
            reply["columns"])


def run_chaos(workdir: Path, verbose: bool = True) -> None:
    state = workdir / "state"
    journals = workdir / "journals"

    def log(msg: str) -> None:
        if verbose:
            print(f"chaos: {msg}", flush=True)

    log("computing uninterrupted reference digest ...")
    expected = reference_digest()
    log(f"reference digest {expected[:16]}…")

    proc, port = start_server(state, journals)
    log(f"server #1 up on :{port} (pid {proc.pid})")
    try:
        client = connect(port)
        job_id = client.submit(
            KIND, PARAMS, tenant="chaos",
            idempotency_key=IDEMPOTENCY_KEY,
        )
        log(f"submitted {job_id}")
        wait_first_cell(client, job_id)
        log("first cell journaled; sending SIGKILL")
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
    try:
        client.close()
    except OSError:
        pass

    proc2, port2 = start_server(state, journals, port=port)
    log(f"server #2 up on :{port2} (pid {proc2.pid}), recovering ...")
    try:
        client = connect(port2)
        # Idempotency across the restart: the same key must map to the
        # recovered job, not a twin.
        resubmitted = client.submit(
            KIND, PARAMS, tenant="chaos",
            idempotency_key=IDEMPOTENCY_KEY,
        )
        if resubmitted != job_id:
            raise SystemExit(
                f"FAIL: resubmit created a twin: {resubmitted} != {job_id}"
            )
        log(f"resubmit deduped to {job_id}")
        reply = client.result(job_id, timeout_s=300)
        result = reply["result"]
        if reply["state"] != "done" or result["exit_code"] != 0:
            raise SystemExit(f"FAIL: recovered job did not finish: {reply}")
        if result["digest"] != expected:
            raise SystemExit(
                f"FAIL: digest mismatch after recovery:\n"
                f"  expected {expected}\n  recovered {result['digest']}"
            )
        resumed = result["counters"].get("n_resume_hits", 0)
        log(f"recovered digest matches ({resumed} cell(s) replayed "
            f"from the journal)")
        view = finished_view(client, job_id)
        if view[0][0] < len(PARAMS["policies"]):
            raise SystemExit(f"FAIL: recovered job's status counts {view}")
        client.shutdown()
        proc2.wait(timeout=60)
    finally:
        if proc2.poll() is None:
            proc2.terminate()
        proc2.wait()

    proc3, port3 = start_server(state, journals, port=port)
    log(f"server #3 up on :{port3} (pid {proc3.pid}), clean restart ...")
    try:
        client = connect(port3)
        after = finished_view(client, job_id)
        if after != view:
            raise SystemExit(
                f"FAIL: finished job changed across a clean restart:\n"
                f"  server #2 {view}\n  server #3 {after}"
            )
        log(f"status {view[0]} and event counts survive the restart")
        client.shutdown()
    finally:
        if proc3.poll() is None:
            proc3.terminate()
        proc3.wait()
    log("PASS: recovered digest byte-identical to uninterrupted run; "
        "events survive a restart")


def main() -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None,
                        help="state/journal scratch dir (default: temp)")
    args = parser.parse_args()
    if args.workdir:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        run_chaos(workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            run_chaos(Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
