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
* **Frozen segments.**  Between two pool-growth events, the pool, the
  per-category membership and the fitness table are all constant, so
  every recipe step of the segment — across every run — depends only on
  its mother row and its own draws.  The engine therefore resolves a
  whole segment as a handful of numpy passes over ``(runs·steps, …)``
  arrays, falling back to small follow-up waves only for the rare steps
  whose mother was itself created earlier in the same segment.

**Per-run streams** (DESIGN.md §7): each stacked run keeps its *own*
``Generator`` and consumes it as uniform [0, 1) variates through its
own row of a block buffer (:class:`BatchedStreams`), with integer draws
derived as ``⌊u·k⌋``.  A run's draw sequence therefore depends only on
its own seed: the batch composition is immaterial — any subset of
seeds, in any order, yields the same per-run transactions, trace and
history — which is what keeps per-run results individually cacheable
(:data:`BATCHED_STREAM_VERSION` is the stream-contract version the
run-cache key carries; ``tests/models/engine_digests.json`` pins it).

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
from repro.transactions import TransactionPlane

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

#: ``batched_kind`` values the batched engine can stack.
BATCHED_KINDS = ("pool", "category", "mixture", "null")

#: Largest number of recipe steps resolved in one array pass.  Bounds
#: peak memory (draws are ``(runs, steps, draws_per_step)`` float64)
#: without affecting results: a segment split into chunks consumes the
#: per-run streams identically, and later chunks read earlier chunks'
#: rows from the shared recipe array exactly like a later segment would.
_MAX_SEGMENT = 4096


class BatchedStreams:
    """Per-run block-buffered uniform streams over stacked generators.

    One block of :data:`BLOCK_SIZE` pre-drawn variates per run, stored
    as one ``(runs, BLOCK_SIZE)`` matrix with a per-run cursor — the
    "per-run stream offsets" of DESIGN.md §7.  Per run, the semantics
    are those of a plain buffered stream: ``one`` serves the next
    variate, ``take(count)`` the next ``count``; a request that does not
    fit the rest of the block refills it and drops the unconsumed tail;
    a request of at least a full block is drawn straight from the
    generator, bypassing the buffer.  Nothing here depends on the other
    runs, which is what makes batch composition immaterial.
    """

    __slots__ = ("_rngs", "_blocks", "_index", "_size", "_rows")

    def __init__(
        self, rngs: Sequence[np.random.Generator], block: int = BLOCK_SIZE
    ):
        self._rngs = list(rngs)
        self._size = block
        self._blocks = np.empty((len(self._rngs), block), dtype=np.float64)
        for row, rng in enumerate(self._rngs):
            self._blocks[row] = rng.random(block)
        self._index = np.zeros(len(self._rngs), dtype=np.intp)
        self._rows = np.arange(len(self._rngs))

    def one_each(self) -> np.ndarray:
        """One variate per run (each run's next buffered variate)."""
        index = self._index
        size = self._size
        if (index >= size).any():
            for row in np.nonzero(index >= size)[0].tolist():
                self._blocks[row] = self._rngs[row].random(size)
                index[row] = 0
        u = self._blocks[self._rows, index]
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
            # Full-block bypass: each take comes straight from the
            # generator and the buffer cursor does not move.
            out = np.empty((runs, takes, count), dtype=np.float64)
            for row, rng in enumerate(self._rngs):
                for t in range(takes):
                    out[row, t] = rng.random(count)
            return out
        need = takes * count
        index = self._index
        fits = index <= size - need
        if fits.all():
            cols = index[:, None] + np.arange(need)
            out = np.take_along_axis(self._blocks, cols, axis=1)
            index += need
            return out.reshape(runs, takes, count)
        out = np.empty((runs, need), dtype=np.float64)
        fast = np.nonzero(fits)[0]
        if fast.size:
            cols = index[fast][:, None] + np.arange(need)
            out[fast] = self._blocks[fast[:, None], cols]
            index[fast] += need
        for row in np.nonzero(~fits)[0].tolist():
            out[row] = self._walk_run(row, takes, count)
        return out.reshape(runs, takes, count)

    def _walk_run(self, row: int, takes: int, count: int) -> np.ndarray:
        """``takes`` successive ``take(count)`` calls for one run (refill path)."""
        size = self._size
        rng = self._rngs[row]
        i = int(self._index[row])
        pieces = []
        done = 0
        while done < takes:
            avail = (size - i) // count
            if avail == 0:
                self._blocks[row] = rng.random(size)
                i = 0
                avail = size // count
            chunk = min(avail, takes - done)
            pieces.append(self._blocks[row, i : i + chunk * count].copy())
            i += chunk * count
            done += chunk
        self._index[row] = i
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def take_run(self, row: int, takes: int, count: int) -> np.ndarray:
        """``takes`` successive ``take(count)`` calls for a single run.

        Lets the NM collision repair gather all of one run's repair
        draws in one buffered walk; per-take semantics are the class's
        (refill drops the tail, full-block requests bypass the buffer
        without moving the cursor).
        """
        if count >= self._size:
            rng = self._rngs[row]
            return np.stack([rng.random(count) for _ in range(takes)])
        return self._walk_run(row, takes, count).reshape(takes, count)


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
    members = np.zeros((runs, n_codes, universe_size), dtype=np.intp)
    counts = np.zeros((runs, n_codes), dtype=np.intp)
    recipes = np.zeros((runs, target, row_width), dtype=np.int32)
    lengths = np.empty(target, dtype=np.intp)
    lengths[:n0] = initial_length

    # Per-run initialization draw order (part of the stream
    # contract): fitness assignment, then the pool `choice`, then
    # one `choice` per initial recipe, then the first buffer block
    # (drawn by BatchedStreams below).  Runs are independent
    # generators, so the cross-run loop order is immaterial.
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
        for i in range(n0):
            drawn = rng.choice(m0, size=initial_length, replace=False)
            recipes[row, i, :initial_length] = pool_row[
                drawn.astype(np.intp)
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
    row_index = np.arange(runs)

    def mutate_entries(
        rows: np.ndarray, draws: np.ndarray, run_of: np.ndarray
    ) -> np.ndarray:
        """Apply the M sequential mutations to every (run, step) entry.

        ``rows`` is ``(entries, length)`` and is mutated in place;
        ``draws`` is the entries' ``(entries, draws_per_step)`` variate
        rows; ``run_of`` maps each entry back to its run for state
        lookups and counter attribution.  The gate order per mutation is
        the reference loop's: no-candidate skip, candidate == victim,
        fitness, in-row duplicate.
        """
        nonlocal attempted
        entries, length = rows.shape
        # Flat views + hoisted row bases turn every per-mutation state
        # lookup into a 1-D ``take`` — same integer arithmetic as the
        # 2-D/3-D fancy indexing it replaces, identical results.  The
        # caller always passes freshly-copied (C-contiguous) rows, so
        # the reshape is a view and in-place scatters land in ``rows``.
        rows_flat = rows.reshape(-1)
        entry_base = np.arange(entries) * length
        row_base = run_of * universe_size
        positions = (draws[:, 1 : 1 + mutations] * length).astype(np.intp)
        selectors = draws[:, 1 + mutations : 1 + 2 * mutations]
        fit_flat = fitness.reshape(-1)
        pool_candidates = pool.reshape(-1).take(
            row_base[:, None] + (selectors * m).astype(np.intp)
        )
        if category_mode or mixture_mode:
            counts_flat = counts.reshape(-1)
            members_flat = members.reshape(-1)
            code_base = run_of * n_codes
        if mixture_mode:
            use_category = (
                draws[:, 1 + 2 * mutations : 1 + 3 * mutations] < mixture_p
            )
        acc = np.zeros(entries, dtype=np.int64)
        rej_fit = np.zeros(entries, dtype=np.int64)
        rej_dup = np.zeros(entries, dtype=np.int64)
        skipped = np.zeros(entries, dtype=np.int64)
        for g in range(mutations):
            flat_position = entry_base + positions[:, g]
            victim = rows_flat.take(flat_position)
            active = None
            if category_mode or mixture_mode:
                code_key = code_base + category_codes.take(victim)
                code_count = counts_flat.take(code_key)
                have = code_count > 0
                category_candidate = members_flat.take(
                    code_key * universe_size
                    + (selectors[:, g] * code_count).astype(np.intp)
                )
                if mixture_mode:
                    want_category = use_category[:, g]
                    picked_category = want_category & have
                else:
                    # Pure category mode wants the category every time;
                    # the all-True mask would be dead weight.
                    picked_category = have
                candidate = np.where(
                    picked_category, category_candidate, pool_candidates[:, g]
                )
                if not fallback_random:
                    skip = (
                        want_category & ~have if mixture_mode else ~have
                    )
                    skipped += skip
                    active = have if not mixture_mode else ~skip
            else:
                candidate = pool_candidates[:, g]
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
            in_row = (rows == candidate[:, None]).any(axis=1)
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
            rows_flat[flat_position.take(hit)] = candidate.take(hit)
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
        attempted += mutations
        return rows

    def copy_mutate_segment(segment_start: int, steps: int) -> None:
        """Resolve ``steps`` consecutive recipe steps for every run.

        Wave 0 handles every (run, step) whose mother predates the
        segment — the overwhelming majority; follow-up waves handle
        steps whose mother row was itself produced in this segment, in
        dependency order (each wave's mothers were finished by an
        earlier wave, so per-run semantics match the sequential loop).
        """
        nonlocal attempted
        draws = streams.take_each(steps, draws_per_step)
        mother = (
            draws[:, :, 0] * (segment_start + np.arange(steps))
        ).astype(np.intp)
        dependency = mother - segment_start
        rows_out = np.empty(
            (runs, steps, initial_length), dtype=np.intp
        )
        done = np.zeros((runs, steps), dtype=bool)
        run_of, step_of = np.nonzero(dependency < 0)
        rows = recipes[run_of, mother[run_of, step_of]].astype(np.intp)
        while True:
            saved_attempted = attempted
            mutate_entries(rows, draws[run_of, step_of], run_of)
            # `attempted` is lockstep (M per step per run); mutate_entries
            # bumps it once per call, so correct it to count steps.
            attempted = saved_attempted
            rows_out[run_of, step_of] = rows
            done[run_of, step_of] = True
            if done.all():
                break
            run_todo, step_todo = np.nonzero(~done)
            ready = done[
                run_todo, dependency[run_todo, step_todo]
            ]
            run_of = run_todo[ready]
            step_of = step_todo[ready]
            rows = rows_out[run_of, dependency[run_of, step_of]].copy()
        attempted += mutations * steps
        recipes[:, segment_start : segment_start + steps, :initial_length] = (
            rows_out
        )
        lengths[segment_start : segment_start + steps] = initial_length

    while n < target:
        if m / n < phi and rem:
            # Pool growth, all runs at once: one buffered variate per
            # run selects its remaining-universe victim; an O(1)
            # swap-move keeps the remaining columns contiguous, and the
            # pool and per-category lists are append-only.
            u = streams.one_each()
            drawn = (u * rem).astype(np.intp)
            position = remaining[row_index, drawn]
            last = remaining[:, rem - 1].copy()
            remaining[row_index, drawn] = last
            rem -= 1
            pool[:, m] = position
            code = category_codes[position]
            members[row_index, code, counts[row_index, code]] = position
            counts[row_index, code] += 1
            m += 1
            ingredients_added += 1
            if history is not None:
                history.append((m, n))
            continue
        if null_mode:
            # NM: the pool is frozen until ∂ next drops below φ, so the
            # whole stretch of recipe steps is drawn for all runs at
            # once: rejection-sample whole rows (exactly uniform over
            # distinct index sets, conditional on acceptance) and repair
            # only rows with within-row collisions by Floyd's sampling
            # on that run's own stream.
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
                    # Gather each run's repair draws in one buffered
                    # walk (np.nonzero is run-major with steps
                    # ascending — the exact order a per-row loop would
                    # consume each stream in), then run Floyd's
                    # sampling across all collided rows at once.
                    repaired = collided_run.size
                    repairs = np.empty((repaired, size), dtype=np.float64)
                    rows_with, takes_per = np.unique(
                        collided_run, return_counts=True
                    )
                    start = 0
                    for row, takes in zip(
                        rows_with.tolist(), takes_per.tolist()
                    ):
                        repairs[start : start + takes] = streams.take_run(
                            row, takes, size
                        )
                        start += takes
                    chosen = np.empty((repaired, size), dtype=np.intp)
                    for d in range(size):
                        upper = first_upper + d
                        index = (repairs[:, d] * (upper + 1)).astype(
                            np.intp
                        )
                        if d:
                            dup = (chosen[:, :d] == index[:, None]).any(
                                axis=1
                            )
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
                history.extend(
                    (m, past) for past in range(n + 1, n + steps + 1)
                )
            n += steps
            continue
        # Copy-mutate segment: count the consecutive recipe steps the
        # sequential loop would take before its next growth step (the
        # exact float comparisons of the loop predicate), then resolve
        # them in memory-bounded chunks.
        steps = 1
        while n + steps < target and not (m / (n + steps) < phi and rem):
            steps += 1
        while steps:
            chunk = min(steps, _MAX_SEGMENT)
            copy_mutate_segment(n, chunk)
            if history is not None:
                history.extend(
                    (m, past) for past in range(n + 1, n + chunk + 1)
                )
            n += chunk
            steps -= chunk

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
