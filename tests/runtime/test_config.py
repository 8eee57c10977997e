"""Tests for :class:`repro.runtime.config.RuntimeConfig`."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import ExecutionError
from repro.runtime import BACKENDS, DistributedConfig, RuntimeConfig


def test_defaults_are_serial_and_uncached():
    config = RuntimeConfig()
    assert config.backend == "serial"
    assert config.jobs == 1
    assert config.cache_dir is None
    assert config.distributed is None


def test_backends_constant_covers_all():
    assert BACKENDS == ("serial", "process", "distributed")
    for backend in BACKENDS:
        assert RuntimeConfig(backend=backend).backend == backend


def test_unknown_backend_rejected():
    for backend in ("gpu", "thread"):
        with pytest.raises(ExecutionError):
            RuntimeConfig(backend=backend)


def test_negative_jobs_rejected():
    with pytest.raises(ExecutionError):
        RuntimeConfig(jobs=-1)


def test_jobs_zero_resolves_to_cpu_count():
    resolved = RuntimeConfig(jobs=0).resolve_jobs()
    assert resolved >= 1


def test_explicit_jobs_resolve_unchanged():
    assert RuntimeConfig(backend="process", jobs=3).resolve_jobs() == 3


def test_cache_dir_coerced_to_path(tmp_path):
    config = RuntimeConfig(cache_dir=str(tmp_path))
    assert isinstance(config.cache_dir, Path)


def test_with_cache_round_trip(tmp_path):
    config = RuntimeConfig(backend="process", jobs=2)
    cached = config.with_cache(tmp_path)
    assert cached.cache_dir == tmp_path
    assert cached.backend == "process"
    assert cached.with_cache(None).cache_dir is None


def test_config_is_hashable_and_frozen():
    config = RuntimeConfig()
    assert hash(config) == hash(RuntimeConfig())
    with pytest.raises(Exception):
        config.jobs = 4  # type: ignore[misc]


def test_resolve_distributed_defaults_when_unset():
    config = RuntimeConfig(backend="distributed")
    resolved = config.resolve_distributed()
    assert resolved == DistributedConfig()
    assert resolved.spool_dir is None
    assert resolved.max_attempts >= 1


def test_distributed_config_coerces_spool_dir(tmp_path):
    config = DistributedConfig(spool_dir=str(tmp_path))
    assert isinstance(config.spool_dir, Path)


def test_distributed_config_is_hashable_and_frozen():
    config = DistributedConfig()
    assert hash(config) == hash(DistributedConfig())
    with pytest.raises(Exception):
        config.max_attempts = 5  # type: ignore[misc]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"local_workers": -1},
        {"task_timeout": 0.0},
        {"lease_timeout": -1.0},
        {"heartbeat_interval": 0.0},
        {"max_attempts": 0},
        {"backoff_base": 0.0},
        {"attach_deadline": 0.0},
        {"poll_interval": 0.0},
        {"max_worker_restarts": -1},
        # A lease timeout at or below the heartbeat interval would
        # declare every healthy worker dead between beats.
        {"lease_timeout": 1.0, "heartbeat_interval": 1.0},
    ],
)
def test_distributed_config_rejects_invalid(kwargs):
    with pytest.raises(ExecutionError):
        DistributedConfig(**kwargs)
