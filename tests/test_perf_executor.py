"""The sweep executor is bit-identical to the serial path.

Every sweep runs on ``supervised_map``; without requested supervision
it uses the ``STRICT`` config (no retries, the first failing cell
raises).  Every sweep cell re-derives its stochastic streams from its
config alone, so sharding cells across workers must reproduce the
serial results bit for bit.  Host-measured wall-clock (``policy.place``
timing) is the one nondeterministic input; the sedov comparisons pin
it with ``DriverConfig.placement_charge_s`` and skip the fields that
record the raw measurement (``placement_s_max``, collector tables).
"""

import dataclasses

import pytest

from repro.bench.scalebench import ScalebenchConfig, run_scalebench
from repro.bench.sedov_experiment import SedovSweepConfig, run_sedov_sweep
from repro.engine.types import DriverConfig, RunSummary
from repro.perf.executor import JOBS_ENV, CellExecutionError, effective_jobs
from repro.perf.supervisor import STRICT, supervised_map
from repro.resilience.experiment import (
    ResilienceExperimentConfig,
    run_resilience_experiment,
)

#: RunSummary fields that record host measurements or bookkeeping
#: rather than simulated results.
_HOST_FIELDS = ("collector", "placement_s_max")


def assert_summaries_identical(a: RunSummary, b: RunSummary) -> None:
    for f in dataclasses.fields(RunSummary):
        if f.name in _HOST_FIELDS:
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        assert va == vb, f"RunSummary.{f.name}: {va!r} != {vb!r}"


def _double(x):
    return 2 * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x * x


def strict_map(fn, items, jobs):
    """The results of ``supervised_map`` under the strict config."""
    return supervised_map(fn, items, jobs, config=STRICT).results


class TestParallelMap:
    """The sweeps' ordered parallel map: ``supervised_map`` under
    :data:`STRICT`."""

    def test_serial_and_parallel_agree_in_order(self):
        items = list(range(7))
        assert strict_map(_double, items, jobs=1) == [2 * x for x in items]
        assert strict_map(_double, items, jobs=3) == [2 * x for x in items]

    def test_single_item_stays_serial(self):
        assert strict_map(_double, [21], jobs=8) == [42]

    def test_empty(self):
        assert strict_map(_double, [], jobs=4) == []

    def test_effective_jobs(self):
        assert effective_jobs(1) == 1
        assert effective_jobs(3) == 3
        assert effective_jobs(None) >= 1
        assert effective_jobs(0) >= 1
        with pytest.raises(ValueError):
            effective_jobs(-2)

    def test_effective_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert effective_jobs(1) == 3
        assert effective_jobs(8) == 3
        assert effective_jobs(None) == 3
        monkeypatch.setenv(JOBS_ENV, "-1")
        with pytest.raises(ValueError):
            effective_jobs(1)

    def test_effective_jobs_caps_at_cell_count(self, monkeypatch):
        assert effective_jobs(8, n_items=3) == 3
        assert effective_jobs(8, n_items=0) == 1
        monkeypatch.setenv(JOBS_ENV, "16")
        assert effective_jobs(1, n_items=5) == 5


class TestCellExecutionError:
    def test_serial_wraps_with_cell_context(self):
        with pytest.raises(CellExecutionError) as exc_info:
            strict_map(_fail_on_three, [1, 2, 3, 4], jobs=1)
        err = exc_info.value
        assert err.index == 2
        assert "cell 2" in str(err)
        assert "3" in err.item_repr
        assert "three is right out" in str(err)
        assert isinstance(err.__context__, ValueError)

    def test_pool_wraps_with_cell_context(self):
        with pytest.raises(CellExecutionError) as exc_info:
            strict_map(_fail_on_three, [1, 2, 3, 4], jobs=2)
        err = exc_info.value
        assert err.index == 2
        assert "cell 2" in str(err)
        assert "ValueError" in str(err)


class TestSedovSweepParity:
    @pytest.fixture(scope="class")
    def config(self):
        return SedovSweepConfig(
            scales=(512,),
            policies=("baseline", "lpt", "cplx:50"),
            steps=120,
            driver=DriverConfig(placement_charge_s=0.005),
        )

    @pytest.fixture(scope="class")
    def serial(self, config):
        return run_sedov_sweep(config, jobs=1)

    @pytest.fixture(scope="class")
    def parallel(self, config):
        return run_sedov_sweep(config, jobs=4)

    def test_outcomes_bit_identical(self, serial, parallel):
        assert len(serial.outcomes) == len(parallel.outcomes) == 3
        for s, p in zip(serial.outcomes, parallel.outcomes):
            assert (s.scale, s.policy_label) == (p.scale, p.policy_label)
            assert (s.msg_local, s.msg_remote, s.msg_intra) == (
                p.msg_local, p.msg_remote, p.msg_intra
            )
            assert_summaries_identical(s.summary, p.summary)

    def test_table_i_identical(self, serial, parallel):
        assert serial.table_i == parallel.table_i


class TestScalebenchParity:
    def test_rows_bit_identical(self):
        config = ScalebenchConfig(
            scales=(128, 256), x_values=(0.0, 50.0),
            distributions=("exponential", "power-law"), repeats=2,
        )
        serial = run_scalebench(config, jobs=1)
        parallel = run_scalebench(config, jobs=4)
        assert len(serial) == len(parallel) == 2 * 2 * 2
        for s, p in zip(serial, parallel):
            assert (s.n_ranks, s.distribution, s.x) == (p.n_ranks, p.distribution, p.x)
            # Assignment-derived values are exact; placement_s is a host
            # measurement and differs run to run even serially.
            assert s.norm_makespan == p.norm_makespan


class TestResilienceParity:
    def test_arms_bit_identical(self):
        config = ResilienceExperimentConfig(
            n_ranks=64, steps=120, crash_step=40, throttle_step=60,
        )
        serial = run_resilience_experiment(config, jobs=1)
        parallel = run_resilience_experiment(config, jobs=4)
        for arm in ("healthy", "unmitigated", "resilient"):
            assert_summaries_identical(
                getattr(serial, arm), getattr(parallel, arm)
            )
        assert serial.deterministic is True
        assert parallel.deterministic is True
        assert serial.recovery_fraction == parallel.recovery_fraction
