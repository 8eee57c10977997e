"""Tests for :class:`repro.runtime.config.RuntimeConfig`."""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import pytest

from repro.errors import ExecutionError
from repro.runtime import BACKENDS, RuntimeConfig


def test_defaults_are_serial_and_uncached():
    config = RuntimeConfig()
    assert config.backend == "serial"
    assert config.jobs == 1
    assert config.cache_dir is None
    assert [field.name for field in fields(RuntimeConfig)] == [
        "backend", "jobs", "cache_dir",
    ]


def test_backends_constant_covers_all():
    assert BACKENDS == ("serial", "process")
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


def test_retired_distributed_backend_is_refused():
    """The distributed backend is retired (DESIGN.md §8): asking for it
    fails at construction and names the two backends that remain."""
    with pytest.raises(ExecutionError) as caught:
        RuntimeConfig(backend="distributed")
    assert "('serial', 'process')" in str(caught.value)
