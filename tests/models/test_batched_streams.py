"""Tests for the batched engine's stacked uniform streams.

The contract of :class:`~repro.models.batched.BatchedStreams`: per run,
the stacked stream serves exactly the variates a plain buffered stream
over that run's generator would, whatever the other runs' cursors.
"""

from __future__ import annotations

import copy
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.batched import _WINDOW_MIN, BLOCK_SIZE, BatchedStreams
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


# ----------------------------------------------------------------------
# Oracle: the window against whole pre-drawn blocks
# ----------------------------------------------------------------------


class _FullBlocks:
    """The stream contract with every block drawn whole at its refill.

    Per run: a block of ``size`` variates drawn when the stream starts
    and at every refill; ``take(count)`` serves the next ``count``,
    refilling first (dropping the tail) when they do not fit, and a
    request of at least a block bypasses the buffer; ``one`` serves the
    next variate from the buffer, refilling an exhausted block.
    """

    def __init__(self, rngs, size):
        self.rngs = rngs
        self.size = size
        self.blocks = [rng.random(size) for rng in rngs]
        self.index = [0] * len(rngs)

    def take(self, row, count):
        if count >= self.size:
            return self.rngs[row].random(count)
        if self.index[row] + count > self.size:
            self.refill_row(row)
        start = self.index[row]
        self.index[row] += count
        return self.blocks[row][start : start + count]

    def one(self, row):
        if self.index[row] >= self.size:
            self.refill_row(row)
        self.index[row] += 1
        return self.blocks[row][self.index[row] - 1]

    def refill_row(self, row):
        self.blocks[row] = self.rngs[row].random(self.size)
        self.index[row] = 0

    def takes(self, row, takes, count):
        if takes == 0:
            return np.empty((0, count))
        return np.stack([self.take(row, count) for _ in range(takes)])


def _generators(seeds, words):
    """Generators that have drawn ``words`` 32-bit words, as the batched
    engine's initial recipes do (an odd count leaves half a word)."""
    rngs = [rng_from_seed(seed) for seed in seeds]
    for rng in rngs:
        rng.integers(0, 2**32, words, dtype=np.uint32)
    return rngs


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("one_each")),
        st.tuples(st.just("take_each"), st.integers(0, 3), st.integers(0, 40)),
        st.tuples(
            st.just("take_ragged"),
            st.permutations(range(4)),
            st.lists(st.integers(1, 3), min_size=4, max_size=4),
            st.integers(1, 40),
            st.integers(1, 4),
        ),
        st.tuples(
            st.just("take_run"),
            st.integers(0, 3),
            st.integers(1, 3),
            st.integers(1, 40),
        ),
        st.tuples(st.just("take_lockstep"), st.integers(0, 24)),
        st.tuples(st.just("refill")),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 24),
    st.data(),
    st.integers(0, 3),
    _OPS,
)
def test_window_serves_and_leaves_what_full_blocks_do(
    runs, block, data, words, ops
):
    """Random calls on small blocks: same variates, same generators.

    The window starts ``narrowest`` variates wide, at most the block:
    narrower than the block, requests move unread variates to its
    front and widen it.  After every call each run's generator, moved
    on by the part of its block the window has not drawn yet, stands
    where the full-block reference's does.
    """
    narrowest = data.draw(st.integers(1, block), label="narrowest")
    seeds = SEEDS[:runs]
    with mock.patch("repro.models.batched._WINDOW_MIN", narrowest):
        streams = BatchedStreams(_generators(seeds, words), block=block)
    reference = _FullBlocks(_generators(seeds, words), block)
    for op, *args in ops:
        if op == "one_each":
            got = streams.one_each()
            want = np.array([reference.one(row) for row in range(runs)])
        elif op == "take_each":
            takes, count = args
            got = streams.take_each(takes, count)
            want = np.stack(
                [reference.takes(row, takes, count) for row in range(runs)]
            ).reshape(runs, takes, count)
        elif op == "take_ragged":
            order, takes, count, listed = args
            rows = np.array([row for row in order if row < runs][:listed])
            takes = np.array(takes[: rows.size])
            got = streams.take_ragged(rows, takes, count)
            want = np.concatenate(
                [reference.takes(int(r), int(t), count) for r, t in zip(rows, takes)]
            )
        elif op == "take_run":
            row, takes, count = args
            row %= runs
            got = streams.take_run(row, takes, count)
            want = reference.takes(row, takes, count)
        elif op == "take_lockstep":
            (width,) = args
            width = min(width, block)
            cursor = reference.index[0]
            if set(reference.index) != {cursor} or cursor + width > block:
                streams.refill()
                for row in range(runs):
                    reference.refill_row(row)
                cursor = 0
            assert streams.lockstep_cursor() == cursor
            got = streams.take_lockstep(width)
            want = np.stack(
                [reference.blocks[row][cursor : cursor + width]
                 for row in range(runs)]
            )
            for row in range(runs):
                reference.index[row] += width
        else:
            streams.refill()
            for row in range(runs):
                reference.refill_row(row)
            got = want = np.empty(0)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        for row, rng in enumerate(streams._rngs):
            caught_up = copy.deepcopy(rng)
            caught_up.random(block - int(streams._drawn[row]))
            assert (
                caught_up.bit_generator.state
                == reference.rngs[row].bit_generator.state
            )


def test_window_is_bounded_by_the_largest_request():
    """100 runs at the production block size hold a small window each.

    A copy-mutate span of 64 steps at 13 draws each reads 832 variates
    per run, and the window is at least ``_WINDOW_MIN`` wide; whole
    blocks would hold 100 x 16,384 float64 (12.5 MiB).
    """
    runs, span = 100, 832
    width = max(span, _WINDOW_MIN)
    tracemalloc.start()
    try:
        streams = BatchedStreams(_generators(range(1, runs + 1), 1))
        for _ in range(BLOCK_SIZE // span):
            streams.take_lockstep(span)
        streams.refill()
        streams.take_each(4, 13)
        for _ in range(300):
            streams.one_each()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert streams._window.nbytes <= runs * width * 8
    assert peak < 2 * runs * width * 8 < runs * BLOCK_SIZE * 8 // 3
