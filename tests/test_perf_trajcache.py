"""On-disk trajectory cache: roundtrip, reuse, keying, corruption."""

import dataclasses

import numpy as np
import pytest

from repro.amr.sedov import scaled_config
from repro.perf import trajcache
from repro.perf.trajcache import (
    CACHE_ENV,
    cached_full_trajectory,
    trajectory_cache_dir,
    trajectory_key,
)


@pytest.fixture()
def config():
    return scaled_config(512, scale=8, steps=100)


def assert_trajectories_equal(a, b):
    assert len(a) == len(b)
    for ea, eb in zip(a, b):
        assert (ea.index, ea.step_start, ea.n_steps) == (
            eb.index, eb.step_start, eb.n_steps
        )
        assert np.array_equal(ea.keys, eb.keys)
        assert np.array_equal(ea.base_costs, eb.base_costs)
        assert ea.graph.edges.shape == eb.graph.edges.shape
        assert np.array_equal(ea.graph.edges, eb.graph.edges)


class TestKeying:
    def test_key_depends_on_config_and_truncation(self, config):
        k = trajectory_key(config)
        assert len(k) == 32 and k == trajectory_key(config)
        other = dataclasses.replace(config, seed=config.seed + 1)
        assert trajectory_key(other) != k
        assert trajectory_key(config, max_steps=10) != k

    def test_dir_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert trajectory_cache_dir() is None
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        assert trajectory_cache_dir() == tmp_path
        assert trajectory_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"
        monkeypatch.setenv(CACHE_ENV, "")
        assert trajectory_cache_dir() is None


class TestRoundtrip:
    def test_cached_equals_regenerated(self, config, tmp_path):
        fresh = cached_full_trajectory(config, cache_dir=tmp_path)
        assert list(tmp_path.glob("sedov-*.pkl"))
        reloaded = cached_full_trajectory(config, cache_dir=tmp_path)
        assert_trajectories_equal(fresh, reloaded)

    def test_cache_file_is_actually_used(self, config, tmp_path, monkeypatch):
        cached_full_trajectory(config, cache_dir=tmp_path)

        def boom(*a, **k):
            raise AssertionError("regenerated despite a valid cache entry")

        monkeypatch.setattr(trajcache.SedovWorkload, "full_trajectory", boom)
        cached_full_trajectory(config, cache_dir=tmp_path)

    def test_corrupt_entry_falls_back(self, config, tmp_path):
        first = cached_full_trajectory(config, cache_dir=tmp_path)
        [path] = tmp_path.glob("sedov-*.pkl")
        path.write_bytes(b"not a pickle")
        again = cached_full_trajectory(config, cache_dir=tmp_path)
        assert_trajectories_equal(first, again)

    def test_no_dir_means_plain_generation(self, config, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        cached_full_trajectory(config)
        assert not list(tmp_path.iterdir())
