"""CLI ↔ job-layer parity: the service refactor changed plumbing, not
output.

Each test runs a frozen copy of the pre-refactor subcommand body
(``tests/_golden_cli.py``) and the live CLI with equivalent flags, and
asserts byte-identical stdout and exit codes.  Host-measured regions
(the scalebench overhead table, which times real placement calls, and
journal directory paths, which are per-run temp dirs) are masked; every
simulated value — tables, digests, report text — is compared raw.
"""

import argparse
import contextlib
import io
import re
from unittest import mock

import pytest

from tests import _golden_cli as golden
from repro.cli import main
from repro.core import chunked

SUPERVISOR_DEFAULTS = dict(
    jobs=1, timeout_s=None, retries=None, journal=None, resume=False
)


class _FakeClock:
    """Deterministic stand-in for ``time`` inside the policy module.

    The engine charges the *measured* placement time into the simulated
    wall (``DriverConfig.placement_charge_s is None``), so real runs
    carry sub-millisecond host noise that can cross a printed rounding
    boundary and flake a byte-equality test.  Pinning the clock makes
    both the golden and the live run charge identical placement times —
    any remaining output difference is a real refactor regression.
    """

    def __init__(self):
        self.t = 0.0

    def perf_counter(self):
        self.t += 0.001
        return self.t


@pytest.fixture(autouse=True)
def deterministic_placement_timing(monkeypatch):
    monkeypatch.setattr("repro.core.policy.time", _FakeClock())


def _cold_split_memo():
    """An empty process-wide split memo for one run.

    A memo hit charges its recorded solve time on the pinned clock,
    which counts clock reads rather than work, so a run answered from
    the previous run's entries charges differently.  Starting each run
    cold gives the golden and the live run the same sequence of solves
    and hits.
    """
    return mock.patch.object(chunked, "_SPLIT_MEMO", chunked._SplitMemo())


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            _cold_split_memo():
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_golden(fn, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    ns = argparse.Namespace(**{**SUPERVISOR_DEFAULTS, **kwargs})
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            _cold_split_memo():
        code = fn(ns)
    return code, out.getvalue(), err.getvalue()


def mask_journal(text, journal_dir):
    return text.replace(str(journal_dir), "<journal>")


def mask_overhead(text, pool=False):
    """Blank the host-measured numbers in the Fig. 7c overhead table.

    Decimal numbers are masked.  With ``pool`` every time cell of a body
    row is masked, integral ones included: under a worker pool, whether a
    cell's split is a memo hit (charged its recorded solve time on the
    pinned clock) depends on which worker ran which cell before it.  The
    title, the header and the ``ranks`` column are still compared.
    """
    lines = text.splitlines(keepends=True)
    out, masking = [], False
    for line in lines:
        if "placement computation time (ms)" in line:
            masking = True
        elif masking and not line.strip():
            masking = False
        if masking:
            fields = line.split()
            if pool and fields and fields[0].isdigit():
                line = " ".join(fields[:1] + ["#"] * (len(fields) - 1)) + "\n"
            # Column widths follow the masked digits; normalize both.
            line = re.sub(r"\d+\.\d+", "#", line)
            line = re.sub(r" +", " ", line)
        out.append(line)
    return "".join(out)


SEDOV = dict(
    traj_cache=None, scales=[512], steps=60, paper_scale=False,
    policies=["baseline", "cplx:50"], profile=False, transport_faults=None,
)


class TestSedovParity:
    def test_bare(self):
        gc, gout, _ = run_golden(golden.golden_cmd_sedov, **SEDOV)
        nc, nout, _ = run_cli(
            ["sedov", "--scales", "512", "--steps", "60",
             "--policies", "baseline", "cplx:50"]
        )
        assert (gc, gout) == (nc, nout)

    def test_transport_block(self):
        spec = "loss=0.05,retries=3,seed=7"
        gc, gout, _ = run_golden(
            golden.golden_cmd_sedov, **{**SEDOV, "transport_faults": spec}
        )
        nc, nout, _ = run_cli(
            ["sedov", "--scales", "512", "--steps", "60",
             "--policies", "baseline", "cplx:50", "--transport-faults", spec]
        )
        assert (gc, gout) == (nc, nout)
        assert "transport (unreliable fabric):" in nout

    def test_supervised_with_journal(self, tmp_path):
        d1, d2 = tmp_path / "g", tmp_path / "n"
        gc, gout, _ = run_golden(
            golden.golden_cmd_sedov, **{**SEDOV, "journal": str(d1)}
        )
        nc, nout, _ = run_cli(
            ["sedov", "--scales", "512", "--steps", "60",
             "--policies", "baseline", "cplx:50", "--journal", str(d2)]
        )
        assert gc == nc
        assert mask_journal(gout, d1) == mask_journal(nout, d2)
        assert "result digest:" in nout

    def test_resume_without_journal_is_error(self):
        gc, _, gerr = run_golden(
            golden.golden_cmd_sedov, **{**SEDOV, "resume": True}
        )
        nc, _, nerr = run_cli(
            ["sedov", "--scales", "512", "--steps", "60",
             "--policies", "baseline", "--resume"]
        )
        assert (gc, gerr) == (nc, nerr) == (2, gerr)
        assert "--resume requires --journal" in nerr


class TestScalebenchParity:
    SCALES = [256]

    def test_bare(self):
        gc, gout, _ = run_golden(
            golden.golden_cmd_scalebench, scales=self.SCALES, repeats=1
        )
        nc, nout, _ = run_cli(
            ["scalebench", "--scales", "256", "--repeats", "1"]
        )
        assert gc == nc
        assert mask_overhead(gout) == mask_overhead(nout)
        # The digest covers the simulated rows only — compare raw.
        assert gout.splitlines()[-1] == nout.splitlines()[-1]
        assert nout.splitlines()[-1].startswith("result digest: ")

    def test_supervised_pool(self, tmp_path):
        d1, d2 = tmp_path / "g", tmp_path / "n"
        gc, gout, _ = run_golden(
            golden.golden_cmd_scalebench, scales=self.SCALES, repeats=1,
            jobs=2, journal=str(d1),
        )
        nc, nout, _ = run_cli(
            ["scalebench", "--scales", "256", "--repeats", "1",
             "--jobs", "2", "--journal", str(d2)]
        )
        assert gc == nc
        assert mask_overhead(mask_journal(gout, d1), pool=True) == \
            mask_overhead(mask_journal(nout, d2), pool=True)


RESILIENCE = dict(
    ranks=64, steps=60, policy="lpt", seed=3, crash_step=15, crash_node=3,
    throttle_step=25, throttle_nodes=[5], throttle_factor=8.0,
    transport_faults=None, checkpoint_interval=2,
    no_determinism_check=False, profile=False,
)

RESILIENCE_ARGV = [
    "resilience", "--ranks", "64", "--steps", "60", "--crash-step", "15",
    "--throttle-step", "25",
]


class TestResilienceParity:
    def test_bare(self):
        gc, gout, _ = run_golden(golden.golden_cmd_resilience, **RESILIENCE)
        nc, nout, _ = run_cli(RESILIENCE_ARGV)
        assert (gc, gout) == (nc, nout)

    def test_exit_code_is_determinism_verdict(self):
        code, out, _ = run_cli(RESILIENCE_ARGV)
        assert code == 0
        assert out  # full three-arm report

    def test_disabled_faults_parity(self):
        gc, gout, _ = run_golden(
            golden.golden_cmd_resilience,
            **{**RESILIENCE, "crash_step": -1, "throttle_step": -1},
        )
        nc, nout, _ = run_cli(
            ["resilience", "--ranks", "64", "--steps", "60",
             "--crash-step", "-1", "--throttle-step", "-1"]
        )
        assert (gc, gout) == (nc, nout)
