"""One fresh process running a share of a workload's fixed work.

Started by ``run.py`` with the program's ``src`` on ``PYTHONPATH``; it
imports the program (that import is the set-up the parent times), runs
its units, and prints one JSON line with what it measured.  The parent
does every correctness check against the values printed here.

    python perfbench/child.py sedov --driver-seed D --steps N --ranks R
    python perfbench/child.py scalebench --unit-seeds S1,S2 --ranks R --shard-ranks Q
    python perfbench/child.py refs --jobs JSON

``--spans PATH`` records spans around the program's layer entry points
(see ``spans.py``) and writes them to PATH when the work ends; the
child marks its ready point on standard error before it installs the
span recorder.  An untraced ``sedov`` or ``scalebench`` child also
times the calibration kernel (``calibrate.py``) from its start,
interleaved with the imports and the work; every timing it reports
excludes the kernel's own time and comes with the kernel's median time
beside it.  A traced child does not time the kernel: its work time is
compared only with an untraced child's of the same run, unscaled.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tracer(path):
    if path is None:
        return None
    import spans

    spans.mark_ready()
    tracer = spans.Tracer()
    spans.install(tracer)
    return tracer


def sedov(args, sampler) -> dict:
    # The import order of ``repro sedov``: the job layer, then the sweep.
    from repro.service import render
    from repro.bench import SedovSweepConfig, run_sedov_sweep
    from repro.engine.types import DriverConfig

    ready = time.time()
    report = {}
    if sampler:
        sampler.ready()
        report.update(setup_spent=sampler.spent,
                      setup_kernel_s=statistics.median(
                          sampler.samples[:sampler.n_setup]))
    tracer = _tracer(args.spans)
    config = SedovSweepConfig(
        scales=(args.ranks,), steps=args.steps,
        driver=DriverConfig(seed=args.driver_seed))
    t0 = time.perf_counter()
    root = tracer.begin("bench.unit") if tracer else None
    result = run_sedov_sweep(config, jobs=1)
    text = "\n".join(
        render.render_sedov(result, show_transport=False, profile=False))
    if tracer:
        tracer.end(root)
    run_s = time.perf_counter() - t0
    if sampler:
        sampler.stop()
        run_s -= sampler.spent - report["setup_spent"]
        report["run_kernel_s"] = statistics.median(
            sampler.samples[sampler.n_setup:])
    if tracer:
        tracer.dump(args.spans)
    best = result.best_label(args.ranks)
    report.update({
        "ready_ts": ready,
        "run_s": run_s,
        "peak_rss_mib": _peak_rss_mib(),
        "digest": result.digest(),
        "labels": result.labels(),
        "failures": len(result.failures),
        "shape": sorted({
            (o.summary.total_steps, o.summary.n_epochs, o.summary.final_blocks)
            for o in result.outcomes
        }),
        "best_label": best,
        "best_reduction_pct": 100.0 * result.reduction_vs_baseline(
            args.ranks, best),
        "report_has_best": f"{args.ranks} ranks: best {best}" in text,
    })
    return report


def scalebench(args, sampler) -> dict:
    """Each unit is the grid at ``--ranks`` plus one sharded CPLX:50
    cell, run one cell at a time (rows and digest are those of the
    whole grid: each cell derives its costs from the cell alone), with
    a calibration kernel before, between and after the cells."""
    from repro.bench import ScalebenchConfig, run_scalebench, scalebench_digest

    ready = time.time()
    report = {}
    if sampler:
        sampler.ready()
        sampler.stop()
        report.update(setup_spent=sampler.spent,
                      setup_kernel_s=statistics.median(
                          sampler.samples[:sampler.n_setup]))
    tracer = _tracer(args.spans)
    grid = ScalebenchConfig(scales=(args.ranks,), repeats=1)
    cells = [(args.ranks, d, x) for d in grid.distributions
             for x in grid.x_values]
    cells.append((args.shard_ranks, "exponential", 50.0))
    units = []
    for seed in (int(s) for s in args.unit_seeds.split(",")):
        rows, kernels = [], []
        if sampler:
            kernels.append(sampler.take())
        t0 = time.perf_counter()
        root = tracer.begin("bench.unit") if tracer else None
        for n_ranks, dist, x in cells:
            rows += run_scalebench(ScalebenchConfig(
                scales=(n_ranks,), x_values=(x,), distributions=(dist,),
                repeats=1, seed=seed))
            if sampler:
                kernels.append(sampler.take())
        if tracer:
            tracer.end(root)
        run_s = time.perf_counter() - t0 - sum(kernels[1:])
        unit = {
            "seed": seed,
            "run_s": run_s,
            "digest": scalebench_digest(rows),
            "cells": [[r.n_ranks, r.distribution, r.x] for r in rows],
            "norm_makespan": [r.norm_makespan for r in rows],
        }
        if sampler:
            unit["kernel_s"] = statistics.median(kernels)
        units.append(unit)
    if tracer:
        tracer.dump(args.spans)
    report.update({"ready_ts": ready, "peak_rss_mib": _peak_rss_mib(),
                   "units": units})
    return report


def refs(args, _sampler) -> dict:
    """In-process digests of service job specs (``[[kind, params], ...]``)."""
    from repro.service.runner import JobRunner
    from repro.service.spec import spec_from_params

    ready = time.time()
    digests = [
        JobRunner().run(spec_from_params(kind, params)).digest
        for kind, params in json.loads(args.jobs)
    ]
    return {"ready_ts": ready, "digests": digests}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="workload", required=True)
    p = sub.add_parser("sedov")
    p.add_argument("--driver-seed", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--ranks", type=int, required=True)
    p.add_argument("--spans")
    p = sub.add_parser("scalebench")
    p.add_argument("--unit-seeds", required=True)
    p.add_argument("--ranks", type=int, required=True)
    p.add_argument("--shard-ranks", type=int, required=True)
    p.add_argument("--spans")
    p = sub.add_parser("refs")
    p.add_argument("--jobs", required=True)
    args = parser.parse_args()
    sampler = None
    if args.workload != "refs" and not args.spans:
        import calibrate

        sampler = calibrate.Sampler().start()
    work = {"sedov": sedov, "scalebench": scalebench, "refs": refs}
    out = work[args.workload](args, sampler)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
