"""Talk to the placement job service: submit, watch, query, cancel.

``repro serve`` exposes the same job layer the ``sedov`` / ``scalebench``
/ ``resilience`` subcommands run in-process — this script is the
service's worked example and plays one full multi-tenant session:

1. two tenants submit the same Sedov sweep with different priorities
   and run concurrently under the per-tenant quota;
2. the supervised executor's progress events stream back over the
   socket as each cell completes;
3. a plan-engine SQL query runs over one job's executor events —
   the same query that works *while* the job is still running;
4. a third job is cancelled mid-run, leaving a resumable journal, and
   a ``resume_of`` submit completes it to the same digest an
   uninterrupted run produces;
5. the server is restarted out from under a connected client (private
   service only): a durable ``--state`` incarnation comes back on the
   same port, the client's retry loop reconnects transparently, and a
   resubmit with the same idempotency key dedups to the recovered job
   instead of minting a twin.

By default the script starts a private in-process service on a loopback
port, so it is runnable with no setup::

    PYTHONPATH=src python examples/service_client.py

Point it at a real server instead (``repro serve --port 7461``) with::

    PYTHONPATH=src python examples/service_client.py --port 7461
"""

import argparse
import asyncio
import contextlib
import tempfile
import threading
import time

from repro.service.client import ServiceClient

#: small enough to finish in seconds, wide enough to cancel mid-run
SWEEP = {
    "scales": [512],
    "steps": 60,
    "policies": ["baseline", "cplx:0", "cplx:50"],
}


@contextlib.contextmanager
def private_service(state_dir=None, port=0):
    """A throwaway in-process service on an OS-assigned loopback port.

    Pass ``state_dir``/``port`` to bring up a *durable* incarnation that
    a later call can restart in place (act 5)."""
    from repro.service.server import JobService, ServiceConfig

    with tempfile.TemporaryDirectory(prefix="repro-service-") as root:
        service = JobService(ServiceConfig(
            port=port, journal_root=root, state_dir=state_dir,
        ))
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def body():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(service.start())
            started.set()
            loop.run_until_complete(service.serve_forever())
            loop.run_until_complete(service.close())
            loop.close()

        thread = threading.Thread(target=body, daemon=True)
        thread.start()
        if not started.wait(10):
            raise RuntimeError("in-process service did not start")
        try:
            yield service.address
        finally:
            with ServiceClient(*service.address) as c:
                c.shutdown()
            thread.join(timeout=10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=None,
        help="connect to a running `repro serve` (default: start a "
        "private in-process service)",
    )
    # parse_known_args: the example-smoke suite runs this file under
    # pytest's own argv, which must not be mistaken for ours.
    args, _ = parser.parse_known_args(argv)

    stack = contextlib.ExitStack()
    with stack:
        if args.port is None:
            host, port = stack.enter_context(private_service())
        else:
            host, port = args.host, args.port
        client = stack.enter_context(ServiceClient(host, port))

        hello = client.ping()
        print(f"connected to {host}:{port} "
              f"({hello['active']} active, {hello['queued']} queued)")

        # -- 1. two tenants, different priorities ---------------------- #
        alice = client.submit("sedov", SWEEP, tenant="alice", priority=0)
        bob = client.submit("sedov", SWEEP, tenant="bob", priority=5)
        print(f"submitted {alice} (alice, prio 0) and {bob} (bob, prio 5)")

        # -- 2. stream bob's executor events --------------------------- #
        for event in client.stream_events(bob, poll_s=0.1):
            print(f"  [{bob}] cell {event['cell']} {event['kind']}")

        # -- 3. SQL over the job's executor events --------------------- #
        reply = client.query(
            bob, "SELECT kind, count(cell) FROM events GROUP BY kind"
        )
        by_kind = dict(
            zip(reply["columns"]["kind"], reply["columns"]["count_cell"])
        )
        print(f"event summary for {bob}: {by_kind}")

        ra = client.result(alice, timeout_s=600)
        rb = client.result(bob, timeout_s=600)
        print(f"{alice} digest: {ra['result']['digest']}")
        print(f"{bob} digest:   {rb['result']['digest']}")

        # -- 4. cancel mid-run, then resume bit-identically ------------ #
        doomed = client.submit("sedov", SWEEP, tenant="alice")
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if client.status(doomed)["cells_done"] >= 1:
                break
            time.sleep(0.05)
        client.cancel(doomed)
        cancelled = client.result(doomed, timeout_s=600)
        status = client.status(doomed)
        print(f"{doomed} cancelled after {status['cells_done']}/"
              f"{status['cells_total']} cells "
              f"(exit {cancelled['result']['exit_code']})")

        resumed = client.submit(
            "sedov", SWEEP, tenant="alice", resume_of=doomed
        )
        rr = client.result(resumed, timeout_s=600)
        hits = rr["result"]["counters"]["n_resume_hits"]
        print(f"{resumed} resumed {doomed}: {hits} journal hit(s), "
              f"digest {rr['result']['digest']}")

        match = rr["result"]["digest"] == ra["result"]["digest"]
        print(f"resume digest matches uninterrupted run: {match}")

    # -- 5. survive a server restart (private service only) ------------ #
    # A durable incarnation (``repro serve --state DIR``) writes every
    # job transition through a crash-safe store, so a restarted server
    # recovers its job table; the client's retry loop hides the
    # reconnect from idempotent calls.
    survived = True
    if args.port is None:
        with tempfile.TemporaryDirectory(prefix="repro-state-") as state:
            with private_service(state_dir=state) as (host, port):
                durable = ServiceClient(host, port, retries=8,
                                        backoff_base_s=0.05,
                                        backoff_max_s=0.5)
                job = durable.submit("sedov", SWEEP, tenant="alice",
                                     idempotency_key="example-restart")
                first = durable.result(job, timeout_s=600)
                print(f"[durable] {job} done, digest "
                      f"{first['result']['digest'][:16]}…; "
                      f"restarting the server ...")
            # Server #1 is gone.  Server #2: same port, same state dir.
            with private_service(state_dir=state, port=port):
                state_seen = durable.status(job)["state"]
                again = durable.submit("sedov", SWEEP, tenant="alice",
                                       idempotency_key="example-restart")
                deduped = again == job
                print(f"[durable] after restart: {job} is {state_seen}; "
                      f"resubmit deduped: {deduped}")
                survived = state_seen == "done" and deduped
            durable.close()
    else:
        print("(skipping restart act against an external server)")

    ok = match and survived
    return 0 if ok else 1


if __name__ == "__main__":
    code = main()
    if code:
        raise SystemExit(code)
