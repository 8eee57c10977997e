"""Algorithm 1's shared simulation loop.

All four models of Sec. V share the same skeleton — fitness assignment,
pool initialization, and the ∂-vs-φ alternation between recipe creation
and ingredient-pool growth.  They differ only in how a new recipe is
produced: the copy-mutate variants copy a mother recipe and mutate it
(differing in replacement choice, the single abstract method here); the
null model composes a fresh random recipe.

Loop-bound resolution (see DESIGN.md §2): the paper's line 7 reads
``for l = 1 to N − n`` yet only recipe steps create recipes and the text
fixes the number of evolved recipes to ``N − n₀``; we therefore iterate
until the recipe pool reaches ``N``, with pool-growth steps not consuming
the recipe budget.  If the universe is exhausted while ∂ < φ, recipe
steps proceed anyway (nothing else can change ∂).

Engines (DESIGN.md §5, §7): :meth:`CulinaryEvolutionModel.run`
dispatches on the selected engine.  The scalar loop in this module is
the ``"reference"`` engine — the executable specification.  The
``"batched"`` engine (:mod:`repro.models.batched`, the default) replays
the same dynamics over stacked array state with block-buffered RNG
draws, advancing a whole same-cell ensemble together; a single run is a
batch of one.  Models opt in by declaring ``batched_kind`` on their
class; any other model runs on the reference engine.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from repro.errors import ModelError
from repro.models.batched import (
    BATCHED_KINDS,
    BATCHED_STREAM_VERSION,
    run_batched,
)
from repro.models.fitness import FitnessStrategy, UniformFitness
from repro.models.params import ENGINES, CuisineSpec, ModelParams
from repro.models.state import EvolutionState, EvolutionTraceCounters
from repro.rng import SeedLike, ensure_rng
from repro.transactions import TransactionPlane

__all__ = ["EvolutionRun", "CulinaryEvolutionModel", "CopyMutateBase"]

#: RNG-stream contract version of the reference engine (scalar draws in
#: loop order).  Part of the run-cache key; bump on any change to the
#: draw sequence.
REFERENCE_STREAM_VERSION = 1


@dataclass(frozen=True)
class EvolutionRun:
    """Result of one full Algorithm 1 simulation.

    Attributes:
        model_name: Registry name of the model that produced it.
        region_code: Cuisine simulated.
        transactions: Final recipe pool as a
            :class:`~repro.transactions.TransactionPlane` — position
            arrays over the cuisine's id table that read as
            ``frozenset`` rows and pickle as the arrays (every engine
            emits one).
        final_pool_size: ``m`` at termination.
        initial_recipes: ``n₀`` used.
        trace: Event counters accumulated during the run.
        history: Optional ``(m, n)`` trajectory sampled after every
            iteration when the run was started with
            ``record_history=True`` — the non-equilibrium growth curve
            of the ingredient pool vs the recipe pool.
    """

    model_name: str
    region_code: str
    transactions: TransactionPlane
    final_pool_size: int
    initial_recipes: int
    trace: EvolutionTraceCounters
    history: tuple[tuple[int, int], ...] | None = None

    @property
    def n_recipes(self) -> int:
        return len(self.transactions)

    def pool_trajectory(self) -> tuple[tuple[int, int], ...]:
        """The recorded ``(m, n)`` trajectory.

        Raises:
            ModelError: If the run was not started with
                ``record_history=True``.
        """
        if self.history is None:
            raise ModelError(
                "run was not recorded; pass record_history=True to run()"
            )
        return self.history


class CulinaryEvolutionModel(abc.ABC):
    """Base class for the Sec. V culinary evolution models.

    Args:
        params: Model parameters (Sec. VI defaults).
        fitness: Fitness strategy (paper: Uniform(0, 1)).
        engine: Convenience override for ``params.engine``
            (``"reference"`` or ``"batched"``); ``None`` keeps the
            params' choice.
    """

    #: Registry name, e.g. ``"CM-R"`` — set by concrete classes.
    name: ClassVar[str] = ""

    #: Batched recipe-step kind (``"pool"``/``"category"``/
    #: ``"mixture"``/``"null"``), declared by classes the batched engine
    #: supports.  Deliberately looked up on the *exact* class (never
    #: inherited): a subclass that changes mutation behavior without
    #: redeclaring it falls back to the reference engine instead of
    #: running a mismatched batched step.
    batched_kind: ClassVar[str | None] = None

    def __init__(
        self,
        params: ModelParams | None = None,
        fitness: FitnessStrategy | None = None,
        engine: str | None = None,
    ):
        self.params = params if params is not None else self.default_params()
        if engine is not None:
            self.params = replace(self.params, engine=engine)
        self.fitness = fitness if fitness is not None else UniformFitness()

    @classmethod
    def default_params(cls) -> ModelParams:
        """Paper defaults for this model (overridden per variant)."""
        return ModelParams()

    # ------------------------------------------------------------------
    # Engine selection
    # ------------------------------------------------------------------

    def resolve_engine(self, engine: str | None = None) -> str:
        """The engine a run would actually execute on.

        Args:
            engine: Per-run override; ``None`` uses ``params.engine``.

        Returns:
            ``"batched"`` or ``"reference"``.  A batched request
            resolves to ``"reference"`` instead of erroring when the
            model's exact class does not declare a ``batched_kind`` in
            :data:`~repro.models.batched.BATCHED_KINDS` (extensions
            with custom recipe steps, such as CM-V).

        Raises:
            ModelError: On an unknown engine name.
        """
        requested = engine if engine is not None else self.params.engine
        if requested not in ENGINES:
            raise ModelError(
                f"unknown engine {requested!r}; available: {ENGINES}"
            )
        if (
            requested == "batched"
            and type(self).__dict__.get("batched_kind") in BATCHED_KINDS
        ):
            return "batched"
        return "reference"

    def engine_contract(self, engine: str | None = None) -> dict[str, object]:
        """The resolved engine plus its RNG-stream contract version.

        This is what the run cache keys on (beyond the model state
        itself): two configurations that consume the RNG stream
        differently must never share a cache entry.
        """
        resolved = self.resolve_engine(engine)
        version = (
            BATCHED_STREAM_VERSION
            if resolved == "batched"
            else REFERENCE_STREAM_VERSION
        )
        return {"engine": resolved, "stream_version": version}

    # ------------------------------------------------------------------
    # The shared loop
    # ------------------------------------------------------------------

    def run(
        self,
        spec: CuisineSpec,
        seed: SeedLike = None,
        record_history: bool = False,
        engine: str | None = None,
    ) -> EvolutionRun:
        """Simulate one cuisine evolution (Algorithm 1).

        Args:
            spec: Cuisine inputs (``I``, ``s̄``, ``N``, ``φ``).
            seed: RNG seed; fixed seeds reproduce runs exactly (per
                engine — the ``"reference"`` engine consumes the stream
                in a different order from ``"batched"``, so the same
                seed yields a different, equally valid run there).
            record_history: Also record the ``(m, n)`` trajectory after
                every iteration (pool growth analysis).
            engine: Per-run engine override (default:
                ``params.engine``): ``"reference"`` or ``"batched"`` —
                the latter is supported by the four paper models, and a
                batched request on any other model (CM-V, extensions)
                runs on the reference engine; see :meth:`resolve_engine`.

        Returns:
            The completed :class:`EvolutionRun`.
        """
        rng = ensure_rng(seed)
        resolved = self.resolve_engine(engine)
        if resolved == "batched":
            # A single run is a batch of one; run_batched keeps every
            # run's result independent of batch composition.
            return run_batched(
                self, spec, [rng], record_history=record_history
            )[0]
        fitness_values = np.asarray(
            self.fitness.assign(spec.ingredient_ids, rng), dtype=np.float64
        )
        n0 = min(
            self.params.derive_initial_recipes(spec.phi), spec.n_recipes
        )
        state = EvolutionState(
            spec=spec,
            fitness=fitness_values,
            rng=rng,
            initial_pool_size=self.params.initial_pool_size,
            initial_recipes=n0,
        )
        history: list[tuple[int, int]] | None = (
            [(state.m, state.n)] if record_history else None
        )
        while state.n < spec.n_recipes:
            if state.pool_ratio() >= spec.phi or not state.can_grow_pool():
                self._recipe_step(state, rng)
            else:
                state.grow_pool()
            if history is not None:
                history.append((state.m, state.n))
        return EvolutionRun(
            model_name=self.name,
            region_code=spec.region_code,
            transactions=state.transactions(),
            final_pool_size=state.m,
            initial_recipes=n0,
            trace=state.trace,
            history=tuple(history) if history is not None else None,
        )

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _recipe_step(
        self, state: EvolutionState, rng: np.random.Generator
    ) -> None:
        """Produce and add one new recipe (lines 10-19 / null variant)."""


class CopyMutateBase(CulinaryEvolutionModel):
    """Shared copy-mutate recipe step (Algorithm 1 lines 10-19).

    Subclasses implement :meth:`_choose_replacement` — the only point
    where CM-R, CM-C and CM-M differ.

    Two public seams exist for engines that supply their own mother
    recipe (the island engine, extensions):

    * :meth:`mutate_recipe` — copy a given mother and apply the full
      M-mutation loop, consuming exactly the draws the standard recipe
      step would;
    * :meth:`choose_replacement` — one candidate draw, wrapping the
      subclass hook.

    Code outside the class hierarchy must use these instead of reaching
    into ``_choose_replacement``/``_recipe_step``.
    """

    def _recipe_step(
        self, state: EvolutionState, rng: np.random.Generator
    ) -> None:
        mother = state.recipes[state.random_recipe_index()]
        state.add_recipe(self.mutate_recipe(state, mother, rng))

    def mutate_recipe(
        self,
        state: EvolutionState,
        mother: list[int],
        rng: np.random.Generator,
    ) -> list[int]:
        """Copy ``mother`` and apply the M-mutation loop (lines 11-18).

        The supported seam for callers that pick the mother themselves
        (e.g. a borrowed recipe under migration, DESIGN.md §10): given
        the same mother, it consumes exactly the RNG draws the standard
        recipe step would, and updates the state's mutation counters.
        The caller adds the result via ``state.add_recipe``.
        """
        recipe = list(mother)
        for _g in range(self.params.mutations):
            state.trace.mutations_attempted += 1
            victim_position = int(rng.integers(0, len(recipe)))
            victim = recipe[victim_position]
            replacement = self.choose_replacement(state, victim, rng)
            if replacement is None:
                state.trace.mutations_skipped_no_candidate += 1
                continue
            if replacement == victim:
                state.trace.mutations_rejected_duplicate += 1
                continue
            if state.fitness_of(replacement) <= state.fitness_of(victim):
                state.trace.mutations_rejected_fitness += 1
                continue
            if replacement in recipe:
                if self.params.duplicate_policy == "skip":
                    state.trace.mutations_rejected_duplicate += 1
                    continue
                # "allow": the duplicate collapses when the recipe is
                # treated as a set, shrinking it by one.
            recipe[victim_position] = replacement
            state.trace.mutations_accepted += 1
        return recipe

    def choose_replacement(
        self,
        state: EvolutionState,
        victim: int,
        rng: np.random.Generator,
    ) -> int | None:
        """Pick the candidate ``j`` from the pool, or ``None`` to skip.

        Public wrapper around the variant hook — the one supported
        mutation seam for extensions and the island engine.
        """
        return self._choose_replacement(state, victim, rng)

    @abc.abstractmethod
    def _choose_replacement(
        self,
        state: EvolutionState,
        victim: int,
        rng: np.random.Generator,
    ) -> int | None:
        """Pick the candidate ``j`` from the pool, or ``None`` to skip."""
