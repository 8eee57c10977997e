"""Exactness of the batched engine's stacked initial-recipe draws.

The stream contract (DESIGN.md §7) draws each run's initial recipes as
``n0`` successive ``Generator.choice(m0, L, replace=False)`` calls.
:func:`~repro.models.batched._initial_recipes` replays numpy's own
algorithm for those calls over every run at once; these tests pin the
replay to ``choice`` itself, including where each generator is left.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import batched
from repro.models.batched import _initial_recipes
from repro.rng import rng_from_seed

SEEDS = (0, 1, 7, 42, 2019)


def _choice_loop(rngs, pool_size, length, count):
    return np.stack(
        [
            np.stack(
                [
                    rng.choice(pool_size, size=length, replace=False)
                    for _ in range(count)
                ]
            )
            for rng in rngs
        ]
    )


def _generators(offset=0):
    rngs = [rng_from_seed(seed) for seed in SEEDS]
    # Leave some generators holding a buffered 32-bit half, as the
    # initial pool ``choice`` can.
    for k, rng in enumerate(rngs):
        rng.integers(0, 2**32, k + offset, dtype=np.uint32)
    return rngs


def _assert_streams_agree(left, right):
    for a, b in zip(left, right):
        assert a.integers(0, 2**32, dtype=np.uint32) == b.integers(
            0, 2**32, dtype=np.uint32
        )
        assert a.random() == b.random()


#: (m0, L) with L in {1, 2, m0 - 1, m0}; L = m0 starts Floyd's range at
#: 0, the bound that draws no word.
SIZES = sorted(
    {
        (pool_size, length)
        for pool_size in (1, 5, 20)
        for length in (1, 2, pool_size - 1, pool_size)
        if 1 <= length <= pool_size
    }
)


@pytest.mark.parametrize("count", [1, 916])
@pytest.mark.parametrize("pool_size,length", SIZES)
def test_replay_equals_choice_loop(pool_size, length, count):
    expected_rngs = _generators()
    expected = _choice_loop(expected_rngs, pool_size, length, count)
    replay_rngs = _generators()
    got = _initial_recipes(replay_rngs, pool_size, length, count)
    assert got.shape == (len(SEEDS), count, length)
    assert np.array_equal(got, expected)
    # The generators stand where the choice loop left them: the next
    # 32-bit word (numpy's buffered half) and the next double agree.
    _assert_streams_agree(replay_rngs, expected_rngs)


def test_words_per_choice_counts_what_choice_reads():
    for pool_size in (1, 2, 5, 20):
        for length in range(1, pool_size + 1):
            rng = rng_from_seed(3)
            mirror = rng_from_seed(3)
            rng.choice(pool_size, size=length, replace=False)
            mirror.integers(
                0,
                2**32,
                batched._words_per_choice(pool_size, length),
                dtype=np.uint32,
            )
            _assert_streams_agree([rng], [mirror])


def test_forced_rejection_falls_back_for_that_run_only(monkeypatch):
    """A flagged (run, recipe) sends exactly its run through ``choice``."""
    pool_size, length, count = 20, 6, 9
    flagged_run, flagged_recipe = 2, 4
    replay = batched._replay_choice

    def flag_one(words, pool_size, length):
        drawn, rejected = replay(words, pool_size, length)
        rejected[flagged_run * count + flagged_recipe] = True
        # Whatever the replay made of a rejected row is discarded.
        drawn[flagged_run * count + flagged_recipe] = -1
        return drawn, rejected

    fallback_runs = []
    choice_rows = batched._choice_rows

    def spy(rng, *args):
        fallback_runs.append(rng)
        return choice_rows(rng, *args)

    monkeypatch.setattr(batched, "_replay_choice", flag_one)
    monkeypatch.setattr(batched, "_choice_rows", spy)
    replay_rngs = _generators(offset=1)
    got = _initial_recipes(replay_rngs, pool_size, length, count)
    assert fallback_runs == [replay_rngs[flagged_run]]

    expected_rngs = _generators(offset=1)
    assert np.array_equal(
        got, _choice_loop(expected_rngs, pool_size, length, count)
    )
    _assert_streams_agree(replay_rngs, expected_rngs)


def test_lemire_flags_exactly_the_rejected_words():
    """numpy rejects a word when its low product half is < 2**32 mod span."""
    bound = 6
    span = bound + 1
    threshold = 2**32 % span
    # Words whose low product half lands just under, at and over the
    # threshold: w * span ≡ r (mod 2**32) for r in those values.
    inverse = pow(span, -1, 2**32)
    lows = [0, threshold - 1, threshold, threshold + 1]
    words = np.array([(r * inverse) % 2**32 for r in lows], dtype=np.uint32)
    values, rejected = batched._lemire(words, bound)
    assert rejected.tolist() == [True, True, False, False]
    assert values.tolist() == [
        (int(w) * span) >> 32 for w in words.tolist()
    ]


@pytest.mark.parametrize("length", [200, 201])
def test_large_pool_matches_choice_on_both_sides_of_the_tail_shuffle(length):
    """Past 10,000 and 1/50 of the pool numpy tail-shuffles instead."""
    pool_size = 10001
    expected_rngs = _generators()
    expected = _choice_loop(expected_rngs, pool_size, length, 2)
    replay_rngs = _generators()
    got = _initial_recipes(replay_rngs, pool_size, length, 2)
    assert np.array_equal(got, expected)
    _assert_streams_agree(replay_rngs, expected_rngs)
