"""The batched Algorithm 1 engine (``engine="batched"``, the default).

The reference engine (DESIGN.md §5) executes one scalar ``Generator``
round-trip per random decision, and an ensemble of 100 paper-scale runs
walks 22k+ recipe steps each, one step at a time.  This engine stacks an
entire same-cell ensemble into ``(runs, …)`` arrays and advances **all**
runs together; a single run is a batch of one.  Two structural facts
make that possible without changing any run's result:

* **Lockstep trajectories.**  The ∂-vs-φ alternation is a pure function
  of ``(m₀, n₀, φ, N, |I|)`` — no random draw enters the branch
  predicate — so every run of a (model, cuisine) cell takes the *same*
  step type at every iteration.  Control flow never diverges across the
  stacked runs.
* **Append-only spans.**  Recipe steps never touch the pool, and a
  pool-growth step only appends: to the pool, to one category list and
  (by a swap-move) to the removed tail of the remaining universe.  A
  recipe step therefore depends only on its mother row, its own draws,
  and the pool size and category counts of its *epoch* (the growth
  steps before it).  The engine plans a *span* of consecutive loop
  steps — growth and recipe steps interleaved — whose draws all sit in
  the current block of every run, applies the span's growth steps in
  order, and then resolves every recipe step of the span, across every
  run, as a handful of numpy passes over ``(runs·steps, …)`` arrays,
  each entry with its own epoch's pool size and counts.  Small
  follow-up waves handle the rare steps whose mother was itself
  created earlier in the same span.

**Per-run streams** (DESIGN.md §7): each stacked run keeps its *own*
``Generator`` and consumes it as uniform [0, 1) variates through its
own row of a block buffer (:class:`BatchedStreams`), with integer draws
derived as ``⌊u·k⌋``.  A run's draw sequence therefore depends only on
its own seed: the batch composition is immaterial — any subset of
seeds, in any order, yields the same per-run transactions, trace and
history — which is what keeps per-run results individually cacheable
(:data:`BATCHED_STREAM_VERSION` is the stream-contract version the
run-cache key carries; ``tests/models/engine_digests.json`` pins it).
The initial recipes are one ``Generator.choice(m₀, s, replace=False)``
per recipe in that contract; :func:`_initial_recipes` replays numpy's
own algorithm for that call over every run's recipes at once, from the
same 32-bit words (``tests/models/test_batched_init.py`` pins it to
``choice``).

Models opt in through their ``batched_kind``: the copy-mutate kinds
(``"pool"``/``"category"``/``"mixture"``) and ``"null"``
(:data:`BATCHED_KINDS`).  Any other model — CM-V's variable-length
recipes have no fixed row width to stack — runs on the reference engine
(see :meth:`repro.models.base.CulinaryEvolutionModel.resolve_engine`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ModelError
from repro.models.state import (
    CATEGORIES_BY_CODE,
    CATEGORY_CODES,
    EvolutionTraceCounters,
)
from repro.transactions import TransactionPlane, position_dtype

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.models.base import CulinaryEvolutionModel, EvolutionRun
    from repro.models.params import CuisineSpec

__all__ = [
    "BATCHED_KINDS",
    "BATCHED_STREAM_VERSION",
    "BatchedStreams",
    "run_batched",
]

#: Version of the batched engine's RNG-stream contract.  The contract
#: is *per run*: the order, count and interpretation of the variates
#: each run draws from its own generator through :class:`BatchedStreams`
#: (fitness, pool and initial-recipe draws first, then the buffered
#: main-loop stream).  Bump on any change to that sequence; cached runs
#: then key differently instead of replaying a stale stream.
BATCHED_STREAM_VERSION = 1

#: Uniform variates drawn per buffer refill.  Part of the stream
#: contract: refills discard any unconsumed tail, so changing the block
#: size changes the stream (bump :data:`BATCHED_STREAM_VERSION`).
BLOCK_SIZE = 16384

#: Narrowest window (variates per run) :class:`BatchedStreams` keeps of
#: each run's block.  A draw fills the window, so small requests reach
#: a run's generator about once per this many variates; at 100 runs the
#: window is 1.6 MiB.  Not part of the stream contract.
_WINDOW_MIN = 2048

#: ``batched_kind`` values the batched engine can stack.
BATCHED_KINDS = ("pool", "category", "mixture", "null")

#: Largest number of (run, loop step) entries in one span: a span of a
#: ``runs``-run batch covers at most ``_SPAN_ENTRIES // runs`` loop
#: steps (growth or recipe), at least one.  Bounds a span's transient
#: arrays — its ``(runs, steps, draws_per_step)`` float64 draws,
#: mutated rows and per-epoch category counts — to about 3 MiB (64
#: steps at 100 runs; longer spans measured no faster there), without
#: affecting results: a span consumes each run's stream exactly as the
#: step-by-step loop does, and a span cut short leaves its successor to
#: read the finished rows from the shared recipe array
#: (``test_span_cap_leaves_digests_unchanged`` runs every digest case
#: with spans of 1 and 7 steps).
_SPAN_ENTRIES = 6400

#: numpy's ``Generator.choice(pop, size, replace=False)`` switches from
#: Floyd's algorithm to a tail shuffle of ``arange(pop)`` when ``pop``
#: exceeds this and ``size > pop // 50``.  :func:`_initial_recipes`
#: replays only Floyd's algorithm and leaves the other case to
#: ``choice`` itself.
_FLOYD_MAX_POPULATION = 10000


def _lemire(words: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw from ``[0, bound]``, one 32-bit word each.

    Returns the draws and a mask of the words Lemire's method rejects
    (numpy then draws another word, which this replay does not model).
    The rejection threshold is ``2**32 mod (bound + 1)``, so a word is
    rejected with probability below ``(bound + 1) / 2**32``.
    """
    span = np.uint64(bound + 1)
    product = words.astype(np.uint64) * span
    rejected = (product & np.uint64(0xFFFFFFFF)) < np.uint64(2**32) % span
    return (product >> np.uint64(32)).astype(np.intp), rejected


def _words_per_choice(pool_size: int, length: int) -> int:
    """32-bit words one rejection-free ``choice(pool_size, length)`` uses.

    One per Floyd bound ``j`` in ``[pool_size - length, pool_size)``
    except ``j = 0`` (a range of 0 draws nothing), then one per shuffle
    swap.
    """
    return min(length, pool_size - 1) + length - 1


def _replay_choice(
    words: np.ndarray, pool_size: int, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.choice(pool_size, length, replace=False)`` per word row.

    ``words`` is ``(rows, _words_per_choice(pool_size, length))``: each
    row the 32-bit words one ``choice`` call would read.  The replay is
    numpy's: Floyd's algorithm (a draw already chosen is replaced by
    the bound itself), then a Fisher–Yates shuffle of positions
    ``length - 1`` down to 1.  Returns the ``(rows, length)`` draws and
    a per-row mask of rows that hit a Lemire rejection, whose draws are
    not valid.
    """
    rows = words.shape[0]
    # Column-major work array: each step below is a pass over ``rows``.
    drawn = np.empty((length, rows), dtype=np.intp)
    rejected = np.zeros(rows, dtype=bool)
    column = 0
    for t, bound in enumerate(range(pool_size - length, pool_size)):
        if bound == 0:
            value = np.zeros(rows, dtype=np.intp)
        else:
            value, bad = _lemire(words[:, column], bound)
            rejected |= bad
            column += 1
        if t:
            value[(drawn[:t] == value).any(axis=0)] = bound
        drawn[t] = value
    flat = drawn.reshape(-1)
    every = np.arange(rows)
    for i in range(length - 1, 0, -1):
        j, bad = _lemire(words[:, column], i)
        rejected |= bad
        column += 1
        swap = j * rows + every
        held = flat.take(swap)
        flat[swap] = drawn[i]
        drawn[i] = held
    return drawn.T, rejected


def _choice_rows(
    rng: np.random.Generator, pool_size: int, length: int, count: int
) -> np.ndarray:
    """``count`` successive ``rng.choice(pool_size, length, replace=False)``."""
    out = np.empty((count, length), dtype=np.intp)
    for i in range(count):
        out[i] = rng.choice(pool_size, size=length, replace=False)
    return out


def _initial_recipes(
    rngs: Sequence[np.random.Generator],
    pool_size: int,
    length: int,
    count: int,
) -> np.ndarray:
    """Per run, ``count`` successive ``choice(pool_size, length)`` draws.

    Returns a ``(runs, count, length)`` array equal to calling
    ``rng.choice(pool_size, size=length, replace=False)`` ``count``
    times on each generator, which it leaves where those calls would
    (buffered 32-bit half included).  Each run's words come from one
    ``integers(0, 2**32, dtype=np.uint32)`` call — exactly the words
    ``choice`` reads through the same 32-bit path — and
    :func:`_replay_choice` turns every run's words into draws at once.
    A run whose words hit a Lemire rejection gets its generator state
    back and makes the ``choice`` calls itself.
    """
    runs = len(rngs)
    if count == 0:
        return np.empty((runs, 0, length), dtype=np.intp)
    if pool_size > _FLOYD_MAX_POPULATION and length > pool_size // 50:
        return np.stack(
            [_choice_rows(rng, pool_size, length, count) for rng in rngs]
        ).reshape(runs, count, length)
    per_choice = _words_per_choice(pool_size, length)
    words = np.empty((runs, count * per_choice), dtype=np.uint32)
    states = []
    for row, rng in enumerate(rngs):
        states.append(rng.bit_generator.state)
        words[row] = rng.integers(
            0, 2**32, count * per_choice, dtype=np.uint32
        )
    drawn, rejected = _replay_choice(
        words.reshape(runs * count, per_choice), pool_size, length
    )
    drawn = drawn.reshape(runs, count, length)
    for row in np.flatnonzero(rejected.reshape(runs, count).any(axis=1)).tolist():
        rngs[row].bit_generator.state = states[row]
        drawn[row] = _choice_rows(rngs[row], pool_size, length, count)
    return drawn


class BatchedStreams:
    """Per-run block-buffered uniform streams over stacked generators.

    Per run, the semantics are those of a plain buffered stream over
    blocks of :data:`BLOCK_SIZE` variates, with a per-run cursor — the
    "per-run stream offsets" of DESIGN.md §7: ``one`` serves the next
    variate, ``take(count)`` the next ``count``; a request that does not
    fit the rest of the block refills it and drops the unconsumed tail;
    a request of at least a full block is drawn straight from the
    generator, bypassing the buffer.  Nothing here depends on the other
    runs, which is what makes batch composition immaterial.

    The block is not held whole.  Each run keeps a *window* of its
    current block — block positions ``[base, drawn)`` in its row of one
    ``(runs, width)`` matrix — and draws the block from its generator in
    chunks as its cursor reaches them: ``Generator.random`` calls of any
    sizes leave the same values and the same state as one block-sized
    call.  A draw fills the window up to its width (or the block's
    end); a request that does not fit the window first moves the unread
    variates to its front.  The window is :data:`_WINDOW_MIN` wide and
    widens to the largest request served, at most a block.  The
    generator therefore stands ``block - drawn`` variates behind the
    full-block stream, and catches up wherever the stream reads past
    the block: a refill draws and drops the undrawn tail, and a
    full-block bypass first draws the rest of the block into the
    window.  The unused tail of a run's last block is never drawn.
    """

    __slots__ = ("_rngs", "_window", "_base", "_drawn", "_index", "_size", "_rows")

    def __init__(
        self, rngs: Sequence[np.random.Generator], block: int = BLOCK_SIZE
    ):
        self._rngs = list(rngs)
        self._size = block
        runs = len(self._rngs)
        self._window = np.empty((runs, min(block, _WINDOW_MIN)), dtype=np.float64)
        self._base = np.zeros(runs, dtype=np.intp)
        self._drawn = np.zeros(runs, dtype=np.intp)
        self._index = np.zeros(runs, dtype=np.intp)
        self._rows = np.arange(runs)

    # Window upkeep: per run, block positions [base, drawn) sit in
    # window columns [0, drawn - base), and base <= index <= drawn.

    def _fill(
        self, stop: np.ndarray | int, rows: np.ndarray | None = None
    ) -> None:
        """Make block positions up to ``stop`` readable for the listed runs.

        ``rows`` lists the runs (``None``: every run) and ``stop`` holds
        one position per listed run, or one for all; each is at most
        the block size.  Keeps each run's variates from its cursor on;
        those before it are consumed and may be overwritten.
        """
        short = (self._drawn if rows is None else self._drawn[rows]) < stop
        if not short.any():
            return
        rows = np.flatnonzero(short) if rows is None else rows[short]
        if isinstance(stop, np.ndarray):
            stop = stop[short]
        index = self._index[rows]
        reach = int((stop - index).max())
        if reach > self._window.shape[1]:
            self._widen(reach)
        width = self._window.shape[1]
        base = self._base[rows]
        drawn = self._drawn[rows]
        move = stop - base > width
        if move.any():
            # Move the unread variates to the front of the window.
            for row, lo, hi in zip(
                rows[move].tolist(),
                (index - base)[move].tolist(),
                (drawn - base)[move].tolist(),
            ):
                window = self._window[row]
                window[: hi - lo] = window[lo:hi]
            base = np.where(move, index, base)
            self._base[rows] = base
        end = np.minimum(self._size, base + width)
        for row, lo, hi in zip(
            rows.tolist(), (drawn - base).tolist(), (end - base).tolist()
        ):
            self._rngs[row].random(out=self._window[row, lo:hi])
        self._drawn[rows] = end

    def _widen(self, width: int) -> None:
        """Widen every run's window to ``width`` columns, keeping them."""
        window = np.empty((len(self._rngs), width), dtype=np.float64)
        window[:, : self._window.shape[1]] = self._window
        self._window = window

    def _refill_row(self, row: int) -> None:
        """Start run ``row``'s next block, drawing and dropping the tail."""
        left = self._size - int(self._drawn[row])
        scratch = self._window[row]
        rng = self._rngs[row]
        while left:
            chunk = min(left, scratch.size)
            rng.random(out=scratch[:chunk])
            left -= chunk
        self._base[row] = self._drawn[row] = self._index[row] = 0

    def _bypass(self, row: int, takes: int, count: int) -> np.ndarray:
        """``takes`` full-block requests of ``count`` variates for one run.

        Served straight from the generator once the rest of the block is
        drawn; the cursor does not move.
        """
        self._fill(self._size, self._rows[row : row + 1])
        out = np.empty((takes, count), dtype=np.float64)
        for take in out:
            self._rngs[row].random(out=take)
        return out

    def _columns(self, rows: np.ndarray) -> np.ndarray:
        """The window columns of the listed runs' cursors."""
        return self._index[rows] - self._base[rows]

    def one_each(self) -> np.ndarray:
        """One variate per run (each run's next buffered variate)."""
        index = self._index
        size = self._size
        if (index >= size).any():
            for row in np.nonzero(index >= size)[0].tolist():
                self._refill_row(row)
        self._fill(index + 1)
        u = self._window[self._rows, index - self._base]
        index += 1
        return u

    def take_each(self, takes: int, count: int) -> np.ndarray:
        """Per run, ``takes`` successive ``take(count)`` calls.

        Returns a ``(runs, takes, count)`` array whose row ``r`` holds
        exactly the variates ``takes`` consecutive ``take(count)``
        requests return for run ``r`` (see the class docstring).
        """
        runs = len(self._rngs)
        size = self._size
        if count == 0:
            return np.empty((runs, takes, 0), dtype=np.float64)
        if count >= size:
            out = np.empty((runs, takes, count), dtype=np.float64)
            for row in range(runs):
                out[row] = self._bypass(row, takes, count)
            return out
        need = takes * count
        index = self._index
        fits = index <= size - need
        if fits.all():
            self._fill(index + need)
            cols = (index - self._base)[:, None] + np.arange(need)
            out = np.take_along_axis(self._window, cols, axis=1)
            index += need
            return out.reshape(runs, takes, count)
        out = np.empty((runs, need), dtype=np.float64)
        fast = np.nonzero(fits)[0]
        if fast.size:
            self._fill(index[fast] + need, fast)
            cols = self._columns(fast)[:, None] + np.arange(need)
            out[fast] = self._window[fast[:, None], cols]
            index[fast] += need
        for row in np.nonzero(~fits)[0].tolist():
            out[row] = self._walk_run(row, takes, count)
        return out.reshape(runs, takes, count)

    def _walk_run(self, row: int, takes: int, count: int) -> np.ndarray:
        """``takes`` successive ``take(count)`` calls for one run (refill path)."""
        size = self._size
        pieces = []
        done = 0
        while done < takes:
            i = int(self._index[row])
            avail = (size - i) // count
            if avail == 0:
                self._refill_row(row)
                i = 0
                avail = size // count
            chunk = min(avail, takes - done)
            stop = i + chunk * count
            self._fill(stop, self._rows[row : row + 1])
            base = int(self._base[row])
            pieces.append(self._window[row, i - base : stop - base].copy())
            self._index[row] = stop
            done += chunk
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def take_run(self, row: int, takes: int, count: int) -> np.ndarray:
        """``takes`` successive ``take(count)`` calls for a single run.

        Per-take semantics are the class's (refill drops the tail,
        full-block requests bypass the buffer without moving the
        cursor).
        """
        if count >= self._size:
            return self._bypass(row, takes, count)
        return self._walk_run(row, takes, count).reshape(takes, count)

    def take_ragged(
        self, rows: np.ndarray, takes: np.ndarray, count: int
    ) -> np.ndarray:
        """Per listed run, ``takes[i]`` successive ``take(count)`` calls.

        ``rows`` are distinct run indices and ``takes`` their take
        counts.  Returns a ``(takes.sum(), count)`` array holding run
        ``rows[0]``'s takes, then ``rows[1]``'s, and so on — what
        :meth:`take_run` would return row by row.  Runs whose takes fit
        the rest of their block are served by one gather; only runs
        that refill (or bypass) take the per-run walk.
        """
        size = self._size
        need = takes * count
        ends = np.cumsum(need)
        starts = ends - need
        out = np.empty(int(ends[-1]) if len(ends) else 0, dtype=np.float64)
        index = self._index
        fits = index[rows] <= size - need
        if count >= size:
            fits[:] = False
        fast = np.nonzero(fits)[0]
        if fast.size:
            fast_rows = rows[fast]
            fast_need = need[fast]
            self._fill(index[fast_rows] + fast_need, fast_rows)
            # Output element k of a fitting run sits at flat window
            # position ``row * width + column[row] + (k - starts[run])``.
            width = self._window.shape[1]
            shift = fast_rows * width + self._columns(fast_rows) - starts[fast]
            if fast.size == len(rows):
                target = np.arange(out.size)
            else:
                target = np.concatenate(
                    [np.arange(starts[i], ends[i]) for i in fast.tolist()]
                )
            out[target] = self._window.reshape(-1).take(
                np.repeat(shift, fast_need) + target
            )
            index[fast_rows] += fast_need
        out = out.reshape(-1, count)
        for i in np.nonzero(~fits)[0].tolist():
            first = int(starts[i]) // count
            out[first : first + int(takes[i])] = self.take_run(
                int(rows[i]), int(takes[i]), count
            )
        return out

    # Lockstep access.  The copy-mutate kinds move every run's cursor by
    # the same count at every step, so all cursors share one column and
    # every run refills at the same step; these methods serve that case
    # with scalar bookkeeping.

    @property
    def block_size(self) -> int:
        return self._size

    def lockstep_cursor(self) -> int:
        """The column every run's cursor stands at (runs in lockstep)."""
        return int(self._index[0])

    def refill(self) -> None:
        """Refill every run's block, dropping the unconsumed tails.

        What a request that does not fit the rest of the block does,
        for every run at once.
        """
        for row in range(len(self._rngs)):
            self._refill_row(row)

    def take_lockstep(self, width: int) -> np.ndarray:
        """The next ``width`` variates of every run, as ``(runs, width)``.

        Every cursor must stand at :meth:`lockstep_cursor` and the
        ``width`` variates must fit the rest of the block; the result
        is a view, valid until the next call on these streams.
        """
        start = self.lockstep_cursor()
        self._fill(start + width)
        self._index += width
        column = start - self._base
        if (column == column[0]).all():
            return self._window[:, column[0] : column[0] + width]
        return np.take_along_axis(
            self._window, column[:, None] + np.arange(width), axis=1
        )


def run_batched(
    model: "CulinaryEvolutionModel",
    spec: "CuisineSpec",
    rngs: Sequence[np.random.Generator],
    record_history: bool = False,
) -> list["EvolutionRun"]:
    """Execute one Algorithm 1 run per generator, all runs stacked.

    Args:
        model: A model whose ``batched_kind`` is in
            :data:`BATCHED_KINDS`.
        spec: Cuisine inputs, shared by every run.
        rngs: One generator per run (from
            :func:`repro.rng.rng_from_seed`); result order follows
            generator order.
        record_history: Also record the (shared, lockstep) ``(m, n)``
            trajectory.

    Returns:
        One :class:`~repro.models.base.EvolutionRun` per generator,
        each identical to the same seed run alone.

    Raises:
        ModelError: If the model's exact class declares no stackable
            ``batched_kind``.
    """
    from repro.models.base import EvolutionRun

    kind = type(model).__dict__.get("batched_kind")
    if kind not in BATCHED_KINDS:
        raise ModelError(
            f"model {type(model).__qualname__} does not support the "
            f"batched engine (batched_kind={kind!r}); run it with "
            "engine='reference'"
        )
    runs = len(rngs)
    if runs == 0:
        return []

    params = model.params
    universe_size = len(spec.ingredient_ids)
    m0 = min(params.initial_pool_size, universe_size)
    if m0 < 1:
        raise ModelError("initial pool must hold at least one ingredient")
    n0 = min(params.derive_initial_recipes(spec.phi), spec.n_recipes)
    target = spec.n_recipes
    phi = spec.phi
    recipe_size = spec.recipe_size

    category_mode = kind == "category"
    mixture_mode = kind == "mixture"
    null_mode = kind == "null"
    mutations = params.mutations
    skip_duplicates = params.duplicate_policy == "skip"
    fallback_random = params.category_fallback == "random"
    mixture_p = params.mixture_category_probability
    null_from_pool = getattr(model, "sample_from", "pool") == "pool"
    draws_per_step = 1 + (3 if mixture_mode else 2) * mutations

    category_codes = np.array(
        [CATEGORY_CODES[category] for category in spec.categories],
        dtype=np.intp,
    )
    n_codes = len(CATEGORIES_BY_CODE)
    initial_length = min(recipe_size, m0)
    row_width = (
        min(recipe_size, universe_size) if null_mode else initial_length
    )

    # ------------------------------------------------------------------
    # Stacked state: run-major arrays, one row per run.  Valid column
    # counts (m, rem, n) are lockstep scalars shared by every run.
    # ------------------------------------------------------------------
    fitness = np.empty((runs, universe_size), dtype=np.float64)
    pool = np.zeros((runs, universe_size), dtype=np.intp)
    remaining = np.zeros((runs, universe_size), dtype=np.intp)
    # A category list never outgrows its category's share of the
    # universe, so its width is the largest category's size.
    member_width = int(np.bincount(category_codes, minlength=1).max())
    members = np.zeros((runs, n_codes, member_width), dtype=np.intp)
    counts = np.zeros((runs, n_codes), dtype=np.intp)
    # Positions into the universe: uint16 wherever the universe allows,
    # so each run's plane is a view the run cache pickles as it stands.
    recipes = np.zeros(
        (runs, target, row_width), dtype=position_dtype(universe_size)
    )
    lengths = np.empty(target, dtype=np.intp)
    lengths[:n0] = initial_length

    # Per-run initialization draw order (part of the stream
    # contract): fitness assignment, then the pool `choice`, then
    # one `choice` per initial recipe, then the first buffer block
    # (drawn by BatchedStreams below).  Runs are independent
    # generators, so the cross-run order is immaterial, and the
    # initial-recipe draws of every run are replayed in one pass.
    for row, rng in enumerate(rngs):
        fitness[row] = np.asarray(
            model.fitness.assign(spec.ingredient_ids, rng),
            dtype=np.float64,
        )
        picked = rng.choice(universe_size, size=m0, replace=False)
        mask = np.zeros(universe_size, dtype=bool)
        mask[picked] = True
        pool_row = np.nonzero(mask)[0]
        pool[row, :m0] = pool_row
        remaining[row, : universe_size - m0] = np.nonzero(~mask)[0]
        codes_row = category_codes[pool_row]
        for code in range(n_codes):
            selected = pool_row[codes_row == code]
            members[row, code, : len(selected)] = selected
            counts[row, code] = len(selected)
    row_index = np.arange(runs)
    recipes[:, :n0, :initial_length] = pool[
        row_index[:, None, None],
        _initial_recipes(rngs, m0, initial_length, n0),
    ]
    streams = BatchedStreams(rngs)

    m = m0
    n = n0
    rem = universe_size - m0
    attempted = 0
    ingredients_added = 0
    accepted = np.zeros(runs, dtype=np.float64)
    rejected_fitness = np.zeros(runs, dtype=np.float64)
    rejected_duplicate = np.zeros(runs, dtype=np.float64)
    skipped_no_candidate = np.zeros(runs, dtype=np.float64)
    history: list[tuple[int, int]] | None = (
        [(m, n)] if record_history else None
    )

    def grow(u: np.ndarray, size: int, left: int) -> None:
        """One pool-growth step for every run, at pool size ``size``.

        Each run's variate ``u`` selects its victim among the ``left``
        remaining-universe columns; an O(1) swap-move keeps those
        contiguous, and the pool and per-category lists are
        append-only.
        """
        drawn = (u * left).astype(np.intp)
        position = remaining[row_index, drawn]
        remaining[row_index, drawn] = remaining[:, left - 1]
        pool[:, size] = position
        code = category_codes[position]
        members[row_index, code, counts[row_index, code]] = position
        counts[row_index, code] += 1

    def mutate_entries(
        columns: np.ndarray,
        draws: np.ndarray,
        run_of: np.ndarray,
        pool_size: np.ndarray,
        epoch_counts: np.ndarray | None,
        count_base: np.ndarray | None,
        counted: np.ndarray | None,
    ) -> None:
        """Apply the M sequential mutations to every (run, step) entry.

        ``columns`` holds the entries' rows column-major, as a
        C-contiguous ``(length, entries)`` array, and is mutated in
        place; ``draws`` is the entries' ``(entries, draws_per_step)``
        variate rows; ``run_of`` maps each entry back to its run for
        state lookups and counter attribution; ``pool_size`` is each
        entry's epoch pool size and, for the category kinds,
        ``count_base`` the offset of its epoch's per-category counts in
        the flat ``epoch_counts`` snapshots.  Only entries flagged in
        ``counted`` (all when ``None``) add to the trace counters.  The
        gate order per mutation is the reference loop's: no-candidate
        skip, candidate == victim, fitness, in-row duplicate.
        """
        length, entries = columns.shape
        # Flat views + hoisted row bases turn every per-mutation state
        # lookup into a 1-D ``take``; the column-major layout makes the
        # in-row duplicate test a reduction over the short axis
        # ``length`` with long contiguous inner loops.
        columns_flat = columns.reshape(-1)
        entry_index = np.arange(entries)
        row_base = run_of * universe_size
        fit_flat = fitness.reshape(-1)
        pool_flat = pool.reshape(-1)
        if category_mode or mixture_mode:
            members_flat = members.reshape(-1)
            code_base = run_of * n_codes
        acc = np.zeros(entries, dtype=np.int64)
        rej_fit = np.zeros(entries, dtype=np.int64)
        rej_dup = np.zeros(entries, dtype=np.int64)
        skipped = np.zeros(entries, dtype=np.int64)
        for g in range(mutations):
            position = (draws[:, 1 + g] * length).astype(np.intp)
            flat_position = position * entries + entry_index
            victim = columns_flat.take(flat_position)
            selector = draws[:, 1 + mutations + g]
            # ``selector * m`` is the same float64 product whether the
            # pool size is a scalar or one integer per entry.
            pool_candidate = pool_flat.take(
                row_base + (selector * pool_size).astype(np.intp)
            )
            active = None
            if category_mode or mixture_mode:
                victim_code = category_codes.take(victim)
                code_count = epoch_counts.take(count_base + victim_code)
                have = code_count > 0
                category_candidate = members_flat.take(
                    (code_base + victim_code) * member_width
                    + (selector * code_count).astype(np.intp)
                )
                if mixture_mode:
                    want_category = (
                        draws[:, 1 + 2 * mutations + g] < mixture_p
                    )
                    picked_category = want_category & have
                else:
                    # Pure category mode wants the category every time;
                    # the all-True mask would be dead weight.
                    picked_category = have
                candidate = np.where(
                    picked_category, category_candidate, pool_candidate
                )
                if not fallback_random:
                    skip = (
                        want_category & ~have if mixture_mode else ~have
                    )
                    skipped += skip
                    active = have if not mixture_mode else ~skip
            else:
                candidate = pool_candidate
            not_victim = candidate != victim
            better = fit_flat.take(row_base + candidate) > fit_flat.take(
                row_base + victim
            )
            dup_victim = ~not_victim
            fit_reject = not_victim & ~better
            consider = not_victim & better
            if active is not None:
                dup_victim &= active
                fit_reject &= active
                consider &= active
            in_row = (columns == candidate).any(axis=0)
            if skip_duplicates:
                rej_dup += consider & in_row
                apply = consider & ~in_row
            else:
                apply = consider
            rej_dup += dup_victim
            rej_fit += fit_reject
            acc += apply
            # Non-applied positions already hold their victim; scatter
            # only the accepted candidates.
            hit = np.nonzero(apply)[0]
            columns_flat[flat_position.take(hit)] = candidate.take(hit)
        if counted is not None:
            acc *= counted
            rej_fit *= counted
            rej_dup *= counted
            skipped *= counted
        accepted[:] += np.bincount(run_of, weights=acc, minlength=runs)
        rejected_fitness[:] += np.bincount(
            run_of, weights=rej_fit, minlength=runs
        )
        rejected_duplicate[:] += np.bincount(
            run_of, weights=rej_dup, minlength=runs
        )
        skipped_no_candidate[:] += np.bincount(
            run_of, weights=skipped, minlength=runs
        )

    def resolve_steps(
        first: int,
        draws: np.ndarray,
        step_pool: np.ndarray,
        step_epoch: np.ndarray,
        epoch_counts: np.ndarray | None,
    ) -> None:
        """Resolve a span's recipe steps ``first, first + 1, …`` for every run.

        ``draws`` is ``(runs, steps, draws_per_step)``; step ``s`` runs
        at pool size ``step_pool[s]`` after ``step_epoch[s]`` of the
        span's growth steps, and ``epoch_counts`` (category kinds) is
        the ``(runs, epochs, n_codes)`` per-category counts after each
        of them.  Wave 0 settles every (run, step) whose mother
        predates the span — the overwhelming majority; follow-up waves
        handle steps whose mother row was itself produced in this span,
        in dependency order (each wave's mothers were finished by an
        earlier wave, so per-run semantics match the sequential loop).
        """
        steps = draws.shape[1]
        mother = (draws[:, :, 0] * (first + np.arange(steps))).astype(
            np.intp
        )
        dependency = mother - first
        done = dependency < 0
        flat_counts = None
        if epoch_counts is not None:
            epochs = epoch_counts.shape[1]
            flat_counts = epoch_counts.reshape(-1)

        def mutate_steps(columns, wave_draws, run_of, step_of, counted):
            count_base = None
            if epoch_counts is not None:
                count_base = (
                    run_of * epochs + step_epoch.take(step_of)
                ) * n_codes
            mutate_entries(
                columns,
                wave_draws,
                run_of,
                step_pool.take(step_of),
                flat_counts,
                count_base,
                counted,
            )

        # Wave 0 runs every (run, step) entry in run-major order, straight
        # off the span's draws.  An entry whose mother is made in this
        # span reads a row not written yet (still in bounds), so its
        # counts are dropped here and a follow-up wave redoes it.  Rows
        # are worked on column-major (see mutate_entries).
        every_run = np.repeat(row_index, steps)
        columns = recipes[every_run, mother.reshape(-1)].T.astype(
            np.intp, order="C"
        )
        mutate_steps(
            columns,
            draws.reshape(runs * steps, draws_per_step),
            every_run,
            np.tile(np.arange(steps), runs),
            done.reshape(-1),
        )
        columns_out = columns.reshape(initial_length, runs, steps)
        while not done.all():
            run_todo, step_todo = np.nonzero(~done)
            ready = done[run_todo, dependency[run_todo, step_todo]]
            run_of = run_todo[ready]
            step_of = step_todo[ready]
            columns = np.ascontiguousarray(
                columns_out[:, run_of, dependency[run_of, step_of]]
            )
            mutate_steps(
                columns, draws[run_of, step_of], run_of, step_of, None
            )
            columns_out[:, run_of, step_of] = columns
            done[run_of, step_of] = True
        recipes[:, first : first + steps, :initial_length] = (
            columns_out.transpose(1, 2, 0)
        )
        lengths[first : first + steps] = initial_length

    if not null_mode:
        # Copy-mutate: every run's cursor moves in lockstep (the
        # initial draws came straight from the generators), so each
        # span is planned once, as scalars, and served from one column
        # range of the stacked blocks.
        size = streams.block_size
        bypass = draws_per_step >= size
        step_width = 0 if bypass else draws_per_step
        cursor = streams.lockstep_cursor()
        span_steps = max(1, _SPAN_ENTRIES // runs)
        while n < target:
            # Plan: walk the loop predicate (the exact float comparisons
            # of the sequential loop) until the span is full, the run
            # ends, or the next step's draws would refill the block.
            grow_columns: list[int] = []
            step_columns: list[int] = []
            step_pool: list[int] = []
            step_epoch: list[int] = []
            first = n
            start = cursor
            for _ in range(span_steps):
                if n >= target:
                    break
                if m / n < phi and rem:
                    if cursor + 1 > size:
                        break
                    grow_columns.append(cursor - start)
                    cursor += 1
                    m += 1
                    rem -= 1
                else:
                    if cursor + step_width > size:
                        break
                    step_columns.append(cursor - start)
                    step_pool.append(m)
                    step_epoch.append(len(grow_columns))
                    cursor += step_width
                    n += 1
                if history is not None:
                    history.append((m, n))
            if not grow_columns and not step_columns:
                streams.refill()
                cursor = 0
                continue
            span = streams.take_lockstep(cursor - start)
            # The span's growth steps, in order, at the pool sizes the
            # plan walked through; category kinds keep the counts after
            # each as the next epoch's snapshot.
            grown = len(grow_columns)
            snapshots = None
            if category_mode or mixture_mode:
                snapshots = np.empty((runs, grown + 1, n_codes), dtype=np.intp)
                snapshots[:, 0] = counts
            for e, column in enumerate(grow_columns):
                grow(span[:, column], m - grown + e, rem + grown - e)
                if snapshots is not None:
                    snapshots[:, e + 1] = counts
            ingredients_added += grown
            if not step_columns:
                continue
            if bypass:
                draws = streams.take_each(len(step_columns), draws_per_step)
            else:
                draws = span[
                    :,
                    np.asarray(step_columns)[:, None]
                    + np.arange(draws_per_step),
                ]
            resolve_steps(
                first,
                draws,
                np.asarray(step_pool, dtype=np.intp),
                np.asarray(step_epoch, dtype=np.intp),
                snapshots,
            )
        attempted = mutations * (target - n0)

    else:
        while n < target:
            if m / n < phi and rem:
                grow(streams.one_each(), m, rem)
                m += 1
                rem -= 1
                ingredients_added += 1
                if history is not None:
                    history.append((m, n))
                continue
            # NM: the pool is frozen until ∂ next drops below φ, so the
            # whole stretch of recipe steps is drawn for all runs at once:
            # rejection-sample whole rows (exactly uniform over distinct
            # index sets, conditional on acceptance) and repair only rows
            # with within-row collisions by Floyd's sampling on that run's
            # own stream.
            if rem:
                cap = int(m / phi)
                while m / (cap + 1) >= phi:
                    cap += 1
                while cap > n and m / cap < phi:
                    cap -= 1
                steps = min(max(cap - n + 1, 1), target - n)
            else:
                steps = target - n
            count = m if null_from_pool else universe_size
            size = recipe_size if recipe_size <= count else count
            first_upper = count - size
            index_matrix = (
                (streams.take_each(1, steps * size)[:, 0, :] * count)
                .astype(np.intp)
                .reshape(runs, steps, size)
            )
            if size > 1:
                ordered = np.sort(index_matrix, axis=2)
                collided_run, collided_step = np.nonzero(
                    (ordered[:, :, 1:] == ordered[:, :, :-1]).any(axis=2)
                )
                if collided_run.size:
                    # np.nonzero is run-major with steps ascending — the
                    # exact order a per-row loop would consume each stream
                    # in — so one ragged take serves every repair draw;
                    # then Floyd's sampling runs across all collided rows
                    # at once.
                    takes_per = np.bincount(collided_run, minlength=runs)
                    rows_with = np.nonzero(takes_per)[0]
                    repairs = streams.take_ragged(
                        rows_with, takes_per[rows_with], size
                    )
                    chosen = np.empty((collided_run.size, size), dtype=np.intp)
                    for d in range(size):
                        upper = first_upper + d
                        index = (repairs[:, d] * (upper + 1)).astype(np.intp)
                        if d:
                            dup = (chosen[:, :d] == index[:, None]).any(axis=1)
                            index[dup] = upper
                        chosen[:, d] = index
                    index_matrix[collided_run, collided_step] = chosen
            if null_from_pool:
                rows = pool[row_index[:, None, None], index_matrix]
            else:
                rows = index_matrix
            recipes[:, n : n + steps, :size] = rows
            lengths[n : n + steps] = size
            if history is not None:
                history.extend((m, past) for past in range(n + 1, n + steps + 1))
            n += steps

    # ------------------------------------------------------------------
    # Per-run result assembly.  Each run's transactions are a plane over
    # its slice of the shared position matrix (no copy); "allow"-policy
    # rows may repeat a position, so those planes are deduplicated once
    # here.
    # ------------------------------------------------------------------
    uniform_rows = bool(target == 0 or (lengths == row_width).all())
    shared_lengths = None if uniform_rows else lengths
    ids = np.asarray(spec.ingredient_ids, dtype=np.int64)
    shared_history = tuple(history) if history is not None else None
    results: list["EvolutionRun"] = []
    for row in range(runs):
        transactions = TransactionPlane.from_positions(
            recipes[row], shared_lengths, ids, distinct=skip_duplicates
        )
        trace = EvolutionTraceCounters(
            recipes_added=target - n0,
            ingredients_added=ingredients_added,
            mutations_attempted=attempted,
            mutations_accepted=int(accepted[row]),
            mutations_rejected_fitness=int(rejected_fitness[row]),
            mutations_rejected_duplicate=int(rejected_duplicate[row]),
            mutations_skipped_no_candidate=int(skipped_no_candidate[row]),
        )
        results.append(
            EvolutionRun(
                model_name=model.name,
                region_code=spec.region_code,
                transactions=transactions,
                final_pool_size=m,
                initial_recipes=n0,
                trace=trace,
                history=shared_history,
            )
        )
    return results
