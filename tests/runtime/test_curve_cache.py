"""Tests for the mined-curve cache (key scheme, hit/miss, coexistence)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import MiningConfig
from repro.errors import RunCacheError
from repro.runtime import (
    CurveCache,
    RunCache,
    curve_key,
    transactions_fingerprint,
)

TXNS = [frozenset({1, 2, 3}), frozenset({2, 3}), frozenset({1})]
MINING = MiningConfig(min_support=0.05)


def test_fingerprint_ignores_repeated_items():
    # Repeats within a transaction do not change what is mined, so they
    # must not change the key either.
    assert transactions_fingerprint([[1, 2, 2]]) == transactions_fingerprint(
        [{1, 2}]
    )
    assert transactions_fingerprint([(3, 1, 3), [2, 2]]) == (
        transactions_fingerprint([{1, 3}, {2}])
    )


def test_curve_keys_are_pinned():
    # Recorded before runs carried transaction planes: cached curves
    # keyed then must still be found.
    pool = [{1, 2, 3}, {2, 5}, {7}, {3, 1}, set()]
    fingerprint = transactions_fingerprint(pool)
    assert fingerprint == (
        "963329927f268de11ad00d166f3092f63bcf9c8c62403352400c467b97356fc6"
    )
    assert curve_key(fingerprint, MINING) == (
        "9dd7f7847cfa792c28df5be9d9918eb1915d79322dd422173eeea2496dc6029b"
    )


def test_fingerprint_is_content_addressed():
    same = transactions_fingerprint([{3, 2, 1}, {3, 2}, {1}])
    assert transactions_fingerprint(TXNS) == same  # item order irrelevant
    reordered = transactions_fingerprint([TXNS[1], TXNS[0], TXNS[2]])
    assert reordered != transactions_fingerprint(TXNS)  # txn order matters
    assert transactions_fingerprint([]) != transactions_fingerprint([set()])


def test_curve_key_covers_mining_config_and_kind():
    fp = transactions_fingerprint(TXNS)
    base = curve_key(fp, MINING)
    assert curve_key(fp, MINING) == base
    assert curve_key(fp, MiningConfig(min_support=0.1)) != base
    assert curve_key(fp, MiningConfig(max_size=2)) != base
    assert curve_key(fp, MINING, level="category") != base
    assert curve_key(fp, MINING, kind="mining") != base
    other_fp = transactions_fingerprint([{9}])
    assert curve_key(other_fp, MINING) != base


def test_hit_miss_store_roundtrip(tmp_path):
    cache = CurveCache(tmp_path)
    key = curve_key(transactions_fingerprint(TXNS), MINING)
    assert cache.get(key) is None
    assert cache.stats.misses == 1
    frequencies = np.array([0.9, 0.5, 0.5])
    cache.put(key, frequencies)
    loaded = cache.get(key)
    assert np.array_equal(loaded, frequencies)
    assert cache.stats.hits == 1 and cache.stats.stores == 1


def test_changed_fingerprint_or_config_misses(tmp_path):
    cache = CurveCache(tmp_path)
    fp = transactions_fingerprint(TXNS)
    cache.put(curve_key(fp, MINING), np.array([1.0]))
    # Different transactions -> miss.
    assert cache.get(
        curve_key(transactions_fingerprint([{4}]), MINING)
    ) is None
    # Different mining config -> miss.
    assert cache.get(
        curve_key(fp, MiningConfig(min_support=0.2))
    ) is None


def test_shares_directory_with_run_cache(tmp_path):
    run_cache = RunCache(tmp_path)
    curve_cache = CurveCache(tmp_path)
    run_cache.put("a" * 64, {"fake": "run"})
    curve_cache.put("a" * 64, np.array([1.0]))
    # Same key, different stores: no collision, independent counts.
    assert len(run_cache) == 1
    assert len(curve_cache) == 1
    assert curve_cache.clear() == 1
    assert len(run_cache) == 1  # clearing curves leaves runs intact


def test_corrupt_entry_is_evicted(tmp_path):
    cache = CurveCache(tmp_path)
    key = "b" * 64
    cache.put(key, np.array([1.0]))
    cache.path_for(key).write_bytes(b"not a pickle")
    assert cache.get(key) is None
    assert not cache.path_for(key).exists()


def test_prune_only_touches_curves(tmp_path):
    run_cache = RunCache(tmp_path)
    curve_cache = CurveCache(tmp_path)
    run_cache.put("c" * 64, {"fake": "run"})
    curve_cache.put("c" * 64, np.array([1.0]))
    assert curve_cache.prune_older_than(0.0, now=1e12) == 1
    assert len(run_cache) == 1


def test_not_a_directory(tmp_path):
    path = tmp_path / "file"
    path.write_text("x")
    with pytest.raises(RunCacheError):
        CurveCache(path)


def test_bare_pickle_store_is_unusable(tmp_path):
    # The base class declares no suffix; instantiating it directly
    # would glob-and-clear every sibling store's entries.
    from repro.runtime import PickleStore

    with pytest.raises(RunCacheError, match="suffix"):
        PickleStore(tmp_path)
