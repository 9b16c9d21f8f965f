"""Record the digests the benchmark's correctness gate compares against.

    python3 perfbench/record_digests.py --workload sedov-sweep --seeds 0-19
    python3 perfbench/record_digests.py --workload scalebench-placement --seeds 0-19

For each seed this runs the same fixed work as ``run.py`` would (its
timings are ignored) and stores the result digests in
``perfbench/digests.json``: one ``SedovSweepResult.digest()`` per seed
for ``sedov-sweep``, and one ``scalebench_digest`` per unit (the unit
count follows ``run_seconds`` in ``BENCHMARK.json``) for
``scalebench-placement``.  Re-record only in a change that means to
alter the program's results, and say so.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import sys

import run


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(workload: str, seed: int) -> dict:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())[
        "run_seconds"]
    bench = run.Run(workload, seed, seconds, trace=False)
    try:
        if workload == "sedov-sweep":
            report, _, err = bench.child(run.sedov_args(bench))
        else:
            seeds = run.scale_seeds(bench)
            report, _, err = bench.child(
                ["scalebench", "--unit-seeds", ",".join(map(str, seeds)),
                 "--ranks", run.SCALE_RANKS,
                 "--shard-ranks", run.SCALE_SHARD_RANKS])
    finally:
        bench.close()
    if report is None:
        raise SystemExit(f"seed {seed}: child failed\n{err[-2000:]}")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sedov-sweep", "scalebench-placement"])
    parser.add_argument("--seeds", required=True, help="e.g. 0-19")
    args = parser.parse_args()
    path = run.BENCH / "digests.json"
    for seed in seed_range(args.seeds):
        report = record(args.workload, seed)
        with open(path, "r+") as fh:
            # Several recorders may share the file, one per seed range.
            fcntl.flock(fh, fcntl.LOCK_EX)
            table = json.load(fh)
            entry = table[args.workload]
            if args.workload == "sedov-sweep":
                (entry["shape"],) = report["shape"]
                entry["digests"][str(seed)] = report["digest"]
            else:
                entry["digests"][str(seed)] = [u["digest"]
                                               for u in report["units"]]
            fh.seek(0)
            fh.truncate()
            fh.write(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"{args.workload} seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
