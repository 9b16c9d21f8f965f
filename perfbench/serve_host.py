"""``repro serve`` with the benchmark's calibration sampler or, in a
traced run, its span recorder installed.

    python perfbench/serve_host.py CALIBRATION_PATH [--spans PATH] \
        serve [repro serve flags]

Runs the real ``repro serve`` entry point in this process and marks
the ready point on standard error when the service starts.  Untraced,
it times the calibration kernel (``calibrate.py``) from its start, on
the main thread's CPU clock, beside the job threads once they run; the
samples, the interval of each, and how many came before the service
had booted are written to CALIBRATION_PATH as JSON when the server
exits (after a drain shutdown), so the benchmark can take their time
out of the timings they overlap.  With ``--spans`` it runs no kernel
and instead records spans around the layer entry points
(``spans.install``), each job's execution as a root span, and the
service's own boot, and writes them to PATH at exit.
"""

from __future__ import annotations

import json
import sys
import time

import spans


def main() -> int:
    calibration_path, argv = sys.argv[1], sys.argv[2:]
    spans_path = None
    if argv[0] == "--spans":
        spans_path, argv = argv[1], argv[2:]
    sampler = tracer = None
    if spans_path:
        tracer = spans.Tracer()
    else:
        import calibrate

        sampler = calibrate.Sampler(clock=time.thread_time).start()
    # The imports of ``repro serve``, in its order.
    from repro.cli import main as cli_main
    from repro.service.server import JobService

    start = JobService.__dict__["start"]

    async def ready_start(self):
        spans.mark_ready()
        if tracer is None:
            await start(self)
            sampler.ready()
            return
        spans.install(tracer)
        spans.install_service_job_root(tracer)
        with tracer.span("service.boot"):
            await start(self)

    JobService.start = ready_start
    try:
        return cli_main(argv)
    finally:
        calibration = {"samples": [], "ticks": [], "n_setup": 0}
        if sampler:
            sampler.stop()
            calibration = {"samples": sampler.samples, "ticks": sampler.ticks,
                           "n_setup": sampler.n_setup}
        with open(calibration_path, "w") as fh:
            json.dump(calibration, fh)
        if tracer:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
