"""End-to-end benchmark of the repro program (see ``perfbench/README.md``).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a checkout against the program in
``src/``, checks its outputs, and prints one JSON object as the last
line of standard output::

    {"correct": true, "attempted": 42, "failed": 0,
     "metrics": {"run_s": {"value": 9.87, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the workload's end-to-end metrics;
with ``--trace 1`` they are the per-layer metrics of a traced run (the
spans are also written to ``.perfbench-out/``).  Timings are scaled to
a reference machine speed (``calibrate.py``).  Every input comes from
``--seed``.  Scratch state lives in ``.perfbench-tmp/`` and is removed
before the benchmark exits.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import calibrate
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench-tmp"
OUT_ROOT = ROOT / ".perfbench-out"

#: seconds a child gets before it counts as hung
CHILD_TIMEOUT_S = 150
#: the CPU every measured process (child, server) runs on: it never
#: migrates, and in serve-mixed never shares a CPU with the load generator
BENCH_CPU = {0}

# sedov-sweep: the paper's Fig. 6 cell (512 ranks, six default arms)
SEDOV_RANKS = 512
SEDOV_STEPS = 300
SEDOV_ARMS = ["baseline", "CPL0", "CPL25", "CPL50", "CPL75", "CPL100"]
#: nominal seconds per sweep process, used to size a run from --seconds
SEDOV_UNIT_S = 10.0

# scalebench-placement: the CPLX grid at 8192 ranks + one sharded cell
SCALE_RANKS = 8192
SCALE_SHARD_RANKS = 16384
SCALE_CELLS = 16              # 5 X values x 3 distributions + 1 sharded
SCALE_UNIT_S = 4.5

# serve-mixed: two tenants, each a closed-loop client
SERVE_CLIENTS = 2             # closed-loop clients, one per tenant
SERVE_SESSIONS = 2            # servers put under load, one after another
SERVE_BOOTS = 3               # servers booted per run (set-up samples)
SERVE_WARMUP = 3              # untimed jobs per client after a boot
SERVE_LOAD_SHARE = 0.8        # share of --seconds under timed load
#: nominal seconds of one client's pass over the six-job pool with both
#: clients running, used to size a run from --seconds
SERVE_PASS_S = 2.4
#: refused submissions a client retries before it gives up
SERVE_MAX_REJECTED = 20
SERVE_QUERY = "SELECT kind, count(cell) FROM events GROUP BY kind"


def declared_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in the
    order ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program defect)."""


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def raw(name, values):
    """Report the unscaled median of a timing on standard error."""
    print(f"perfbench: raw {name} median {median(values):.4f} "
          f"over {len(values)}", file=sys.stderr)


# ---------------------------------------------------------------------- #
# run-wide state: scratch dir, child processes, checks
# ---------------------------------------------------------------------- #


class Run:
    """One benchmark invocation: scratch dir, children and the tally."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(f"{workload}/{seed}")
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        TMP_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["TMPDIR"] = str(self.work)
        self.env["PYTHONUNBUFFERED"] = "1"
        # the same string hashing in every process and every run
        self.env["PYTHONHASHSEED"] = "0"

    def tally(self, attempted: int, failed: int = 0, problem: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)

    def child(self, args, traced: bool = False, env=None):
        """Run ``child.py ARGS`` in a fresh process.

        Returns ``(report, setup_s, stderr)``; ``report`` is ``None`` if
        the child failed.  ``setup_s`` runs from spawn to the child's
        ready point (its program imports done), without the time of the
        child's calibration samples, and scaled by the samples taken
        during it when the child calibrated (untraced).  The child runs on
        ``BENCH_CPU``.  A ``traced`` child runs under ``-X importtime``
        and records spans.  ``env`` adds environment variables.
        """
        cmd = [sys.executable]
        spans_path = None
        if traced:
            spans_path = self.work / f"spans-{len(os.listdir(self.work))}.json"
            cmd += ["-X", "importtime"]
            args = list(args) + ["--spans", str(spans_path)]
        cmd += [str(BENCH / "child.py")] + [str(a) for a in args]
        t_spawn = time.time()
        proc = subprocess.Popen(
            cmd, cwd=self.work, env={**self.env, **(env or {})}, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            preexec_fn=lambda: pin(BENCH_CPU))
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, 0.0, "timeout"
        if proc.returncode != 0 or not out.strip():
            sys.stderr.write(err[-4000:])
            return None, 0.0, err
        report = json.loads(out.strip().splitlines()[-1])
        if spans_path is not None:
            report["spans"] = json.loads(spans_path.read_text())
        setup_s = report["ready_ts"] - t_spawn - report.get("setup_spent", 0)
        if "setup_kernel_s" in report:
            setup_s = calibrate.scale(setup_s, report["setup_kernel_s"])
        return report, setup_s, err

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def digest_table() -> dict:
    return json.loads((BENCH / "digests.json").read_text())


def import_times(stderr: str) -> dict:
    """Import cost from ``-X importtime`` output, up to the process's
    ready mark (later imports are the tracer's or the work's).

    ``total`` sums the cumulative time of the top-level ``repro``
    imports; ``repro.telemetry`` and ``repro.service`` are the cumulative
    time of each package's first import (its dependencies included).
    """
    lines = stderr.splitlines()
    if spans.READY_MARK not in lines:
        raise BenchError("traced process wrote no ready mark")
    out = {"import.total_s": 0.0, "import.telemetry_s": 0.0,
           "import.service_s": 0.0}
    for line in lines[:lines.index(spans.READY_MARK)]:
        if not line.startswith("import time:"):
            continue
        _self, cumulative, field = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        name = field.strip()
        seconds = int(cumulative) / 1e6
        if field.startswith(" repro") and name.split(".")[0] == "repro":
            out["import.total_s"] += seconds
        for pkg in ("telemetry", "service"):
            key = f"import.{pkg}_s"
            if name == f"repro.{pkg}" and not out[key]:
                out[key] = seconds
    return out


#: the spans behind the per-layer metrics; the self time of every other
#: span inside a root (the root's own, ``engine.run``'s) is unattributed
LAYER_SPANS = {
    "amr.trajectory", "amr.tracker", "mesh.remesh", "mesh.neighbor_graph",
    "mesh.shard.materialize", "engine.measure", "engine.redistribute",
    "engine.steps", "core.place", "simnet.step", "simnet.pattern",
    "telemetry.record", "perf.supervisor", "bench.render",
}


def layer_metrics(snap: dict, root: str, extra: dict) -> dict:
    """Every per-layer metric from a span snapshot (0 where a layer did
    no work), plus the workload-specific values in ``extra``."""
    s = spans.Summary(snap)
    counters = s.counters
    touched = s.samples.get("mesh.remesh.touched_frac", [])
    peaks = s.samples.get("mesh.shard.peak_bytes", [])
    values = {
        "amr.trajectory.self_s": s.self_s("amr.trajectory"),
        "amr.trajectory.epochs": counters.get("amr.trajectory.epochs", 0),
        "amr.tracker.calls": s.calls("amr.tracker"),
        "amr.tracker.busy_s": s.busy("amr.tracker"),
        "mesh.remesh.calls": s.calls("mesh.remesh"),
        "mesh.remesh.busy_s": s.busy("mesh.remesh"),
        "mesh.neighbor_graph.busy_s": s.busy("mesh.neighbor_graph"),
        "mesh.remesh.touched_frac": median(touched),
        "mesh.shard.materialize_s": s.busy("mesh.shard.materialize"),
        "mesh.shard.peak_bytes": max(peaks, default=0),
        "engine.measure.busy_s": s.busy("engine.measure"),
        "engine.redistribute.busy_s": s.busy("engine.redistribute"),
        "engine.steps.busy_s": s.busy("engine.steps"),
        "engine.epochs": counters.get("engine.epochs", 0),
        "core.place.calls": s.calls("core.place"),
        "core.place.busy_s": s.busy("core.place"),
        "core.place.p50_ms": 1e3 * s.p50("core.place"),
        "simnet.step.calls": s.calls("simnet.step"),
        "simnet.step.busy_s": s.busy("simnet.step"),
        "simnet.pattern.busy_s": s.busy("simnet.pattern"),
        "perf.pattern_cache.hit_ratio": ratio(
            counters.get("perf.pattern_cache.hits", 0),
            counters.get("perf.pattern_cache.lookups", 0)),
        "telemetry.record.busy_s": s.busy("telemetry.record"),
        "perf.supervisor.self_s": s.self_s("perf.supervisor"),
        "service.boot_s": s.busy("service.boot"),
        "service.submit.p50_ms": 1e3 * s.p50("service.submit"),
        "service.status.p50_ms": 1e3 * s.p50("service.status"),
        "service.query.p50_ms": 1e3 * s.p50("service.query"),
        "service.result_wait.p50_s": s.p50("service.result_wait"),
        "bench.render.busy_s": s.busy("bench.render"),
        "trace.unattributed_frac": s.unattributed(root, LAYER_SPANS),
    }
    values.update(extra)
    return {name: values.get(name, 0) for name in declared_units("per_layer")}


def write_spans(run: Run, snap: dict) -> None:
    OUT_ROOT.mkdir(exist_ok=True)
    path = OUT_ROOT / f"spans-{run.workload}-seed{run.seed}.json"
    path.write_text(json.dumps(snap))


# ---------------------------------------------------------------------- #
# sedov-sweep
# ---------------------------------------------------------------------- #


def sedov_args(run: Run) -> list:
    """The Sedov problem is the default (Table I geometry, workload seed
    42); the seed drives the engine's measurement and network noise."""
    return ["sedov", "--driver-seed", run.rng.randrange(1, 2**31),
            "--steps", SEDOV_STEPS, "--ranks", SEDOV_RANKS]


def sedov_sweep(run: Run) -> dict:
    """Fig. 6 cell: each sweep in its own process, serial, no caches."""
    table = digest_table()["sedov-sweep"]
    expected = table["digests"].get(str(run.seed))
    args = sedov_args(run)
    n = 2 if run.trace else max(1, round(run.seconds / SEDOV_UNIT_S))
    reports = []
    for i in range(n):
        traced = run.trace and i == n - 1
        report, setup_s, err = run.child(args, traced=traced)
        arms = len(SEDOV_ARMS)
        if report is None:
            run.tally(arms, arms, f"sedov child failed: {err[-300:]}")
            continue
        problems = []
        if report["failures"] or report["labels"] != SEDOV_ARMS:
            problems.append(f"arms {report['labels']} "
                            f"({report['failures']} quarantined)")
        if report["shape"] != [list(table["shape"])]:
            problems.append(f"trajectory shape {report['shape']}")
        if not report["report_has_best"]:
            problems.append("rendered report lacks the best-arm line")
        if expected is not None and report["digest"] != expected:
            problems.append(f"digest {report['digest']} != recorded {expected}")
        if reports and report["digest"] != reports[0]["digest"]:
            problems.append("digest differs between processes of one run")
        run.tally(arms, arms if problems else 0, "; ".join(problems))
        report["setup_s"] = setup_s
        report["stderr"] = err
        reports.append(report)
    if not reports:
        raise BenchError("no sedov sweep completed")
    if run.trace:
        plain, traced = reports[0], reports[-1]
        extra = import_times(traced["stderr"])
        extra["trace.overhead_frac"] = traced["run_s"] / plain["run_s"] - 1
        extra["bench.best_reduction_pct"] = traced["best_reduction_pct"]
        write_spans(run, traced["spans"])
        return layer_metrics(traced["spans"], "bench.unit", extra)
    raw("run_s", [r["run_s"] for r in reports])
    return {
        "setup_s": median([r["setup_s"] for r in reports]),
        "run_s": median([calibrate.scale(r["run_s"], r["run_kernel_s"])
                         for r in reports]),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in reports]),
        "ok_frac": 1 - ratio(run.failed, run.attempted),
    }


# ---------------------------------------------------------------------- #
# scalebench-placement
# ---------------------------------------------------------------------- #


def scale_seeds(run: Run) -> list:
    """One cost seed per unit; the unit count follows ``--seconds``."""
    n_units = max(1, math.ceil(run.seconds / SCALE_UNIT_S))
    return [run.rng.randrange(1, 2**31) for _ in range(n_units)]


def scalebench_placement(run: Run) -> dict:
    """CPLX grid at 8192 ranks (global path) + one auto-sharded cell."""
    seeds = scale_seeds(run)
    n_units = len(seeds)
    expected = digest_table()["scalebench-placement"]["digests"].get(
        str(run.seed), [])
    if expected and len(expected) != n_units:
        raise BenchError(
            f"digests.json records {len(expected)} units for seed "
            f"{run.seed} and a run makes {n_units}; re-record the digests "
            f"with record_digests.py")
    if run.trace:
        half = seeds[:max(1, n_units // 2)]
        shares = [(half, False), (half, True)]
    else:
        n_children = min(3, n_units)
        cut = [round(i * n_units / n_children) for i in range(n_children + 1)]
        shares = [(seeds[a:b], False) for a, b in zip(cut, cut[1:])]
    children = []
    for unit_seeds, traced in shares:
        report, setup_s, err = run.child(
            ["scalebench", "--unit-seeds", ",".join(map(str, unit_seeds)),
             "--ranks", SCALE_RANKS, "--shard-ranks", SCALE_SHARD_RANKS],
            traced=traced)
        if report is None:
            run.tally(SCALE_CELLS * len(unit_seeds),
                      SCALE_CELLS * len(unit_seeds),
                      f"scalebench child failed: {err[-300:]}")
            continue
        for unit in report["units"]:
            i = seeds.index(unit["seed"])
            problems = []
            if len(unit["cells"]) != SCALE_CELLS:
                problems.append(f"{len(unit['cells'])} cells")
            if not all(math.isfinite(m) and m >= 1.0 - 1e-12
                       for m in unit["norm_makespan"]):
                problems.append("normalized makespan below the area bound")
            if i < len(expected) and unit["digest"] != expected[i]:
                problems.append(f"unit {i} digest {unit['digest']} != "
                                f"recorded {expected[i]}")
            run.tally(SCALE_CELLS, SCALE_CELLS if problems else 0,
                      "; ".join(problems))
        report["setup_s"] = setup_s
        report["stderr"] = err
        children.append((report, traced))
    if not children:
        raise BenchError("no scalebench process completed")
    if run.trace:
        plain = [u["run_s"] for r, t in children if not t for u in r["units"]]
        traced = [r for r, t in children if t]
        if not plain or not traced:
            raise BenchError("traced scalebench run incomplete")
        report = traced[0]
        extra = import_times(report["stderr"])
        extra["trace.overhead_frac"] = median(
            [u["run_s"] for u in report["units"]]) / median(plain) - 1
        extra["bench.norm_makespan"] = statistics.fmean(
            m for u in report["units"] for m in u["norm_makespan"])
        write_spans(run, report["spans"])
        return layer_metrics(report["spans"], "bench.unit", extra)
    units = [u for r, _ in children for u in r["units"]]
    raw("run_s", [u["run_s"] for u in units])
    return {
        "setup_s": median([r["setup_s"] for r, _ in children]),
        "run_s": median([calibrate.scale(u["run_s"], u["kernel_s"])
                         for u in units]),
        "peak_rss_mib": median([r["peak_rss_mib"] for r, _ in children]),
        "ok_frac": 1 - ratio(run.failed, run.attempted),
    }


# ---------------------------------------------------------------------- #
# serve-mixed
# ---------------------------------------------------------------------- #


_LISTEN = re.compile(r"repro service listening on ([\d.]+):(\d+)")


def job_pool(rng: random.Random) -> list:
    """Three small sedov jobs and three small scalebench jobs.

    Both kinds take about 0.2 s alone, so job latency is one population.
    The sedov jobs split the six default arms into fixed pairs, all on
    one 512-rank, 20-step trajectory (so the server's trajectory cache
    stays warm); each scalebench job covers one cost distribution at all
    five X values.  The seed draws the scalebench cost seeds and the job
    order, so every seed's pool has the same mix of work.
    """
    pairs = [["baseline", "cplx:50"], ["cplx:0", "cplx:75"],
             ["cplx:25", "cplx:100"]]
    sedov = [["sedov", {"scales": [512], "steps": 20, "policies": arms}]
             for arms in pairs]
    scale = [["scalebench", {"scales": [1024], "repeats": 1,
                             "distributions": [d],
                             "seed": rng.randrange(2**31)}]
             for d in ["exponential", "gaussian", "power-law"]]
    rng.shuffle(sedov)
    rng.shuffle(scale)
    return [job for pair in zip(sedov, scale) for job in pair]


class Server:
    """A private ``repro serve --state`` process on an ephemeral port."""

    def __init__(self, run: Run, name: str, traced: bool) -> None:
        state = run.work / name
        self.spans_path = state / "spans.json" if traced else None
        self.calibration_path = state / "calibration.json"
        flags = ["serve", "--port", "0", "--state", str(state / "state"),
                 "--journal-root", str(state / "journals"),
                 "--traj-cache", str(run.work / "traj")]
        cmd = [sys.executable, str(BENCH / "serve_host.py"),
               str(self.calibration_path)]
        if traced:
            cmd[1:1] = ["-X", "importtime"]
            cmd += ["--spans", str(self.spans_path)]
        cmd += flags
        state.mkdir()
        self.stderr_path = state / "stderr.txt"
        self._stderr = open(self.stderr_path, "w")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=run.work, env=run.env, text=True,
            stdout=subprocess.PIPE, stderr=self._stderr,
            preexec_fn=lambda: pin(BENCH_CPU))
        self.port = None
        found = threading.Event()

        def drain_stdout():
            for line in self.proc.stdout:
                match = _LISTEN.search(line)
                if match and self.port is None:
                    self.port = int(match.group(2))
                    found.set()
            found.set()

        self._reader = threading.Thread(target=drain_stdout, daemon=True)
        self._reader.start()
        if not found.wait(60) or self.port is None:
            self.stop()
            raise BenchError("server did not print its listen line")

    def ping_ready(self, client_cls) -> float:
        """Connect and ping; returns seconds from spawn to first pong."""
        deadline = time.perf_counter() + 30
        while True:
            try:
                with client_cls("127.0.0.1", self.port, retries=0) as c:
                    c.ping()
                return time.perf_counter() - self.t_spawn
            except OSError:
                if time.perf_counter() > deadline:
                    raise BenchError("server never answered ping")
                time.sleep(0.02)

    def calibration(self) -> tuple:
        """``(setup_kernel_s, kernel_s, ticks)``, read after :meth:`stop`:
        the median calibration-kernel time the server measured while it
        booted and after, and its sampler's ticks.  The reference time
        (no scaling) and no ticks for a traced server, which runs no
        kernel, or one that did not exit by itself, which fails the run
        anyway."""
        try:
            cal = json.loads(self.calibration_path.read_text())
        except OSError:
            cal = {"samples": [], "ticks": [], "n_setup": 0}
        n, samples = cal["n_setup"], cal["samples"]
        return (median(samples[:n]) or calibrate.REFERENCE_KERNEL_S,
                median(samples[n:]) or calibrate.REFERENCE_KERNEL_S,
                cal["ticks"])

    def peak_rss_mib(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self, client_cls=None) -> bool:
        """Drain-shutdown; True iff the process exited by itself."""
        clean = False
        if client_cls is not None and self.proc.poll() is None:
            try:
                with client_cls("127.0.0.1", self.port, retries=0) as c:
                    c.shutdown(drain=True)
                self.proc.wait(timeout=60)
                clean = True
            except (OSError, subprocess.TimeoutExpired):
                clean = False
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        self._stderr.close()
        return clean


def closed_loop(port, pool, refs, tenant, offset, passes, tracer, stats):
    """One tenant: submit, poll status and query the running job's
    telemetry once, then wait for the result.  The first
    ``SERVE_WARMUP`` jobs fill the new server's caches and are checked
    but not timed; then come ``passes`` timed passes over the pool."""
    try:
        _closed_loop(port, pool, refs, tenant, offset, passes, tracer, stats)
    except Exception as exc:    # the client thread must report, not vanish
        stats.setdefault("errors", []).append(f"{tenant}: {exc!r}")


def _closed_loop(port, pool, refs, tenant, offset, passes, tracer, stats):
    from repro.service.client import ServiceClient, ServiceError

    def timed(name, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    rejected = 0
    with ServiceClient("127.0.0.1", port, timeout_s=120) as client:
        i = 0
        pass_start = None
        while i < SERVE_WARMUP + passes * len(pool):
            k = (offset + i) % len(pool)
            kind, params = pool[k]
            t_submit = time.perf_counter()
            try:
                job_id = timed("service.submit", client.submit, kind, params,
                               tenant=tenant)
            except ServiceError as exc:
                stats.setdefault("rejected", []).append(str(exc))
                rejected += 1
                if rejected > SERVE_MAX_REJECTED:
                    raise
                time.sleep(float(exc.response.get("retry_after_s", 0.1)))
                continue    # the same job again
            n_timed = i - SERVE_WARMUP    # timed jobs before this one
            if n_timed >= 0 and n_timed % len(pool) == 0:
                pass_start = t_submit
            i += 1
            status = timed("service.status", client.status, job_id)
            if status["state"] == "running":
                timed("service.query", client.query, job_id, SERVE_QUERY)
            reply = timed("service.result_wait", client.result, job_id,
                          timeout_s=110)
            t_end = time.perf_counter()
            result = reply.get("result") or {}
            ok = (reply["state"] == "done"
                  and result.get("exit_code") == 0
                  and result.get("digest") == refs[k]
                  and not result.get("counters", {}).get("n_quarantined"))
            stats.setdefault("jobs", []).append({
                "interval": (t_submit, t_end), "ok": ok,
                "timed": n_timed >= 0,
                "traj_cache": result.get("traj_cache", {}),
                "retries": result.get("counters", {}).get("n_retries", 0)})
            if n_timed >= 0 and (n_timed + 1) % len(pool) == 0:
                stats.setdefault("passes", []).append((pass_start, t_end))


def leaked_processes(token: str) -> list:
    """PIDs whose command line or environment mentions ``token``.

    Every process the benchmark starts, and everything those start,
    inherits ``TMPDIR`` pointing at the run's scratch dir.
    """
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            seen = ((entry / "cmdline").read_bytes()
                    + (entry / "environ").read_bytes())
        except OSError:
            continue
        if token.encode() in seen:
            pids.append(int(entry.name))
    return pids


def pin(cpus) -> None:
    """Keep the calling process on ``cpus`` if it may run there."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def serve_mixed(run: Run) -> dict:
    """Two tenants' closed loops against a private ``repro serve``.

    The server runs on one CPU and the load generator on the others, so
    the generator never takes CPU time from the server's job threads.
    """
    sys.path.insert(0, str(SRC))
    from repro.service.client import ServiceClient

    pin(os.sched_getaffinity(0) - BENCH_CPU or BENCH_CPU)
    pool = job_pool(run.rng)
    # The reference run also fills the trajectory cache the servers share.
    report, _setup, err = run.child(
        ["refs", "--jobs", json.dumps(pool)],
        env={"REPRO_TRAJ_CACHE": str(run.work / "traj")})
    if report is None:
        raise BenchError(f"in-process reference digests failed: {err[-300:]}")
    refs = report["digests"]

    # Under load: one server per session.  Set-up only: the extra boots.
    sessions = 2 if run.trace else SERVE_SESSIONS
    boots = sessions if run.trace else SERVE_BOOTS
    passes = max(1, round(run.seconds * SERVE_LOAD_SHARE / SERVE_SESSIONS
                          / SERVE_PASS_S))
    n_jobs = SERVE_WARMUP + passes * len(pool)
    results = []
    for s in range(boots):
        traced = run.trace and s == sessions - 1
        server = Server(run, f"session-{s}", traced)
        tracer = spans.Tracer() if traced else None
        stats: dict = {}
        clean = False
        try:
            setup_s = server.ping_ready(ServiceClient)
            threads = [
                threading.Thread(target=closed_loop, args=(
                    server.port, pool, refs, f"tenant-{c}",
                    c * len(pool) // SERVE_CLIENTS, passes, tracer, stats))
                for c in range(SERVE_CLIENTS if s < sessions else 0)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60 + 2 * n_jobs)
            if any(t.is_alive() for t in threads):
                raise BenchError("a client never finished its last job")
            rss = server.peak_rss_mib()
        finally:
            clean = server.stop(ServiceClient)
        jobs = stats.get("jobs", [])
        rejected = len(stats.get("rejected", []))
        bad = sum(1 for j in jobs if not j["ok"])
        problems = list(stats.get("errors", []))
        if not clean:
            problems.append("server did not exit after a drain shutdown")
        if bad:
            problems.append(f"{bad} job(s) failed or returned a wrong digest")
        errors = len(stats.get("errors", []))
        run.tally(len(jobs) + rejected + errors, bad + rejected + errors,
                  "; ".join(problems))
        # The server's calibration samples took its CPU; take their time
        # out of every interval they overlap, as the sweep processes do.
        setup_kernel_s, kernel_s, ticks = server.calibration()

        def net(lo, hi):
            return hi - lo - calibrate.stolen(ticks, lo, hi)

        results.append({
            "setup_s": calibrate.scale(
                net(server.t_spawn, server.t_spawn + setup_s), setup_kernel_s),
            "rss": rss, "server": server, "jobs": jobs, "rejected": rejected,
            "passes": [net(*w) for w in stats.get("passes", [])],
            "latencies": [net(*j["interval"]) for j in jobs
                          if j["ok"] and j["timed"]],
            "kernel_s": kernel_s,
        })
    if run.trace:
        plain, traced = results[0], results[-1]
        snap = spans.merge([json.loads(traced["server"].spans_path.read_text()),
                            tracer.snapshot()])
        traj = [j["traj_cache"] for j in traced["jobs"] if j["traj_cache"]]
        extra = import_times(traced["server"].stderr_path.read_text())
        extra.update({
            "perf.trajcache.hit_ratio": ratio(
                sum(t.get("hits", 0) for t in traj),
                sum(t.get("hits", 0) + t.get("misses", 0) for t in traj)),
            "perf.executor.retries": sum(j["retries"] for j in traced["jobs"]),
            "service.rejected": traced["rejected"],
            "trace.overhead_frac": (median(traced["latencies"])
                                    / median(plain["latencies"]) - 1),
        })
        write_spans(run, snap)
        return layer_metrics(snap, "service.job", extra)

    loaded = results[:sessions]
    raw("run_s", [v for r in loaded for v in r["passes"]])
    return {
        "setup_s": median([r["setup_s"] for r in results]),
        "run_s": median([calibrate.scale(v, r["kernel_s"]) for r in loaded
                         for v in r["passes"]]),
        "peak_rss_mib": median([r["rss"] for r in loaded]),
        "ok_frac": 1 - ratio(run.failed, run.attempted),
    }


WORKLOADS = {
    "sedov-sweep": sedov_sweep,
    "scalebench-placement": scalebench_placement,
    "serve-mixed": serve_mixed,
}


def repo_root_dirs() -> set:
    return {p.name for p in ROOT.iterdir()
            if p.is_dir() and (p.name.startswith("sweep-")
                               or p.name == ".repro-service")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    # Bytecode is built once here so no measured process compiles it.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("perfbench: the program's sources do not compile",
              file=sys.stderr)
        return 2
    before = repo_root_dirs()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    token = str(run.work)
    try:
        values = WORKLOADS[args.workload](run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        leaked = leaked_processes(token)
        for pid in leaked:
            try:
                os.kill(pid, 9)
            except OSError:
                pass
        run.close()
    if leaked:
        run.tally(0, 1, f"leaked process(es) {leaked}")
    stray = repo_root_dirs() - before
    if stray:
        run.tally(0, 1, f"new directories in the checkout root: {sorted(stray)}")
    for problem in run.problems:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    # every declared metric, and no end-to-end metric that reads 0
    if set(values) != set(units) or (not args.trace
                                     and not all(values.values())):
        print(f"perfbench: the workload measured {values}, not every "
              f"declared metric", file=sys.stderr)
        return 1
    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
