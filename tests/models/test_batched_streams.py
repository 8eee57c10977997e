"""Tests for the batched engine's stacked uniform streams.

The contract of :class:`~repro.models.batched.BatchedStreams`: per run,
the stacked stream serves exactly the variates a plain buffered stream
over that run's generator would, whatever the other runs' cursors.
"""

from __future__ import annotations

import numpy as np

from repro.models.batched import BatchedStreams
from repro.rng import rng_from_seed

SEEDS = (3, 5, 8, 13)
BLOCK = 16


def _streams() -> BatchedStreams:
    return BatchedStreams([rng_from_seed(seed) for seed in SEEDS], block=BLOCK)


def test_take_each_mixed_fit_and_refill_matches_per_run_walks():
    """Rows that fit their block and rows that refill, in one call."""
    stacked = _streams()
    solo = _streams()
    # Stagger the cursors: row r has consumed 4 * (r + 1) variates, so
    # a 2 x 3 request fits rows 0 and 1 and refills rows 2 and 3.
    for row in range(len(SEEDS)):
        stacked.take_run(row, row + 1, 4)
        solo.take_run(row, row + 1, 4)
    need = 2 * 3
    fits = [4 * (row + 1) <= BLOCK - need for row in range(len(SEEDS))]
    assert any(fits) and not all(fits)

    got = stacked.take_each(2, 3)
    assert got.shape == (len(SEEDS), 2, 3)
    for row in range(len(SEEDS)):
        assert np.array_equal(got[row], solo.take_run(row, 2, 3))
    # The cursors moved exactly as the per-run walks moved them.
    follow = stacked.take_each(3, 5)
    for row in range(len(SEEDS)):
        assert np.array_equal(follow[row], solo.take_run(row, 3, 5))


def test_take_ragged_matches_per_run_takes():
    """One ragged take equals per-run ``take_run`` calls, row by row.

    Rows that fit their block, rows that refill and (at a full-block
    count) rows that bypass the buffer, in one call.
    """
    stacked = _streams()
    solo = _streams()
    for row in range(len(SEEDS)):
        stacked.take_run(row, 1, 3 * row + 1)
        solo.take_run(row, 1, 3 * row + 1)
    rows = np.array([0, 1, 3])
    takes = np.array([2, 1, 3])
    got = stacked.take_ragged(rows, takes, 3)
    assert got.shape == (int(takes.sum()), 3)
    want = np.concatenate(
        [solo.take_run(int(row), int(t), 3) for row, t in zip(rows, takes)]
    )
    assert np.array_equal(got, want)
    # Every listed run fits: one gather serves them all.
    both = stacked.take_ragged(np.array([1, 2]), np.array([1, 2]), 2)
    want = np.concatenate([solo.take_run(1, 1, 2), solo.take_run(2, 2, 2)])
    assert np.array_equal(both, want)
    bypass = stacked.take_ragged(rows[:2], takes[:2], BLOCK)
    want = np.concatenate(
        [
            solo.take_run(int(row), int(t), BLOCK)
            for row, t in zip(rows[:2], takes[:2])
        ]
    )
    assert np.array_equal(bypass, want)
    # Cursors moved exactly as the per-run takes moved them.
    follow = stacked.take_each(1, 4)
    for row in range(len(SEEDS)):
        assert np.array_equal(follow[row], solo.take_run(row, 1, 4))
