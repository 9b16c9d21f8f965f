"""Supervised sweep execution: quarantine, journaling, and resume.

A sweep is only as reliable as its flakiest cell: one OOM-killed worker
or one hung configuration used to abort the whole grid with nothing
salvaged.  This example runs a small placement sweep on the supervised
executor (``repro.perf.supervisor``) with *injected* faults:

* cell 2 is **poison** — it hard-crashes its worker on every attempt
  and ends up quarantined (the sweep still completes around it);
* cell 5 is **flaky** — it crashes once and is recovered by a retry.

Every completed cell is journaled to disk the moment it finishes, so
the second ``supervised_map`` call (``resume=True``) replays the
completed cells instead of re-running them — exactly what
``repro sedov --journal DIR --resume`` does after a Ctrl-C or
``kill -9``.  The executor's events come back on the report as
ordinary telemetry, queryable through the plan engine.

Run with::

    PYTHONPATH=src python examples/supervised_sweep.py
"""

import os
import tempfile

from repro.bench.distributions import make_costs
from repro.core.metrics import normalized_makespan
from repro.core.policy import get_policy
from repro.perf.supervisor import (
    CHAOS_ENV,
    CellFailure,
    SupervisorConfig,
    events_table,
    supervised_map,
)
from repro.telemetry.query import sql_query


def place_cell(x: float) -> float:
    """One sweep cell: place an exponential workload with CPLX(x).

    Deterministic given the item (the seed is derived from ``x``), as
    the supervisor's bit-identical-retry contract requires.
    """
    costs = make_costs("exponential", 512, seed=int(x))
    result = get_policy(f"cplx:{x}").place(costs, 128)
    return round(normalized_makespan(costs, result.assignment, 128), 6)


def main() -> None:
    items = [float(x) for x in (0, 10, 25, 40, 50, 60, 75, 100)]
    saved_chaos = os.environ.get(CHAOS_ENV)
    with tempfile.TemporaryDirectory(prefix="repro-supervised-") as journal:
        try:
            # Poison cell 2 (crashes every attempt) + flaky cell 5
            # (crashes on attempt 1 only).  The hook runs inside the
            # worker, so these are real worker deaths.
            os.environ[CHAOS_ENV] = "crash:2;crash:5@1"
            report = supervised_map(
                place_cell, items, jobs=2,
                config=SupervisorConfig(retries=1, journal_dir=journal),
            )
        finally:
            if saved_chaos is None:
                os.environ.pop(CHAOS_ENV, None)
            else:
                os.environ[CHAOS_ENV] = saved_chaos

        print(report.summary_line())
        for i, r in enumerate(report.results):
            if isinstance(r, CellFailure):
                print(f"  X={items[i]:>5}  QUARANTINED  [{r.kind}] {r.error}")
            else:
                print(f"  X={items[i]:>5}  norm makespan {r:.4f}")

        # The fault is gone now; --resume replays the 7 journaled cells
        # and executes only the quarantined one.
        resumed = supervised_map(
            place_cell, items, jobs=2,
            config=SupervisorConfig(journal_dir=journal, resume=True),
        )
        print()
        print(resumed.summary_line())
        assert resumed.counters["n_resume_hits"] == 7
        assert resumed.counters["n_executed"] == 1
        assert not resumed.failures

        # Executor events are telemetry: count the faulty run's events by
        # kind through the plan engine (codes per
        # repro.perf.supervisor.EVENT_CODES).
        table = sql_query(
            events_table(report.events),
            "SELECT kind, count(cell) FROM events GROUP BY kind",
        ).run()
        print()
        print("executor events by kind (0=complete 1=crash 4=retry "
              "5=quarantine):")
        for kind, n in zip(table["kind"], table["count_cell"]):
            print(f"  kind={int(kind)}  n={int(n)}")


if __name__ == "__main__":
    main()
