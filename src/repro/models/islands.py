"""Island-model migration engine (DESIGN.md §10).

Sec. VII names horizontal (cross-region) transmission as the open
modeling frontier; Kinouchi et al.'s *The Nonequilibrium Nature of
Culinary Evolution* (PAPERS.md) supplies the population-dynamics frame.
This module is the first-class multi-population engine: ``N`` cuisines
evolve concurrently under any copy-mutate model, coupled by a
:class:`MigrationTopology` — a directed graph of ``donor → borrower``
edges with per-edge migration rates.  At each recipe step the borrower
draws one uniform against its cumulative inbound rates; on a hit the
mother recipe is *borrowed* from that donor (deduplicated, imported
through the borrower's pool accounting, refilled from the local pool)
instead of copied from the borrower's own recipe pool, then mutated
through the inner model's supported seam
(:meth:`~repro.models.base.CopyMutateBase.mutate_recipe`).

Determinism follows the §5 runtime contract, extended per island:

* every island derives a ``(dynamics, migration)`` seed-stream pair
  from ``(master_seed, region_code)`` alone
  (:func:`island_seed_streams`), so adding or removing an island never
  perturbs the streams of the others;
* all migration decisions (the borrow coin, donor recipe choice, pool
  refills) consume only the *migration* stream, so an island with zero
  inbound rate replays its dynamics stream exactly like an isolated
  reference-engine run — bit-identical transactions, pool, trace and
  history;
* islands advance in round-robin spec order, one ∂-vs-φ step per
  active island per round, so the interleaving is deterministic and
  disconnected islands cannot observe each other.

:class:`IslandMemberModel` adapts one island into a standard
dispatchable model: its result is a pure function of
``(simulation, member, seed)``, keyed per island under the versioned
:data:`ISLANDS_STREAM_VERSION` contract, and
:func:`run_island_ensemble` fans whole archipelago ensembles out
through :func:`~repro.runtime.runner.dispatch_work` (serial or
process backend) as one archipelago execution per master seed,
cached as one :class:`~repro.runtime.cache.RunCache` entry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ModelError, ParameterError
from repro.models.base import CopyMutateBase, CulinaryEvolutionModel, EvolutionRun
from repro.models.params import CuisineSpec
from repro.models.state import EvolutionState
from repro.rng import SeedLike, derive_seed, ensure_rng, rng_from_seed, spawn_seeds

__all__ = [
    "ISLANDS_STREAM_VERSION",
    "IslandEnsembleResult",
    "IslandMemberModel",
    "IslandOutcome",
    "IslandSimulation",
    "MigrationEdge",
    "MigrationTopology",
    "island_seed_streams",
    "run_island_ensemble",
]

#: RNG-stream contract version of the island engine: the per-island
#: ``(dynamics, migration)`` stream derivation of
#: :func:`island_seed_streams` plus the draw order of the archipelago
#: loop.  Part of every member run's cache key; bump on any change to
#: either.
ISLANDS_STREAM_VERSION = 1

#: Supported policies for borrowed ingredients the borrower knows but
#: has not pooled yet: ``"adopt"`` moves them into the pool through
#: :meth:`~repro.models.state.EvolutionState.adopt_ingredient` (counted
#: in ``trace.ingredients_added``); ``"filter"`` drops them from the
#: mother like truly foreign ingredients.
IMPORT_POLICIES = ("adopt", "filter")


def island_seed_streams(master_seed: int, region_code: str) -> tuple[int, int]:
    """The ``(dynamics_seed, migration_seed)`` pair for one island.

    Derived from ``(master_seed, region_code)`` *only* — never from the
    archipelago's composition — via a stable SHA-256 mix feeding
    :func:`repro.rng.spawn_seeds`, so adding or removing other islands
    cannot perturb this island's streams.  Both halves reconstruct with
    :func:`repro.rng.rng_from_seed`.
    """
    payload = (
        f"islands/v{ISLANDS_STREAM_VERSION}/{int(master_seed)}/{region_code}"
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    root = rng_from_seed(int.from_bytes(digest[:8], "big") >> 1)
    dynamics_seed, migration_seed = spawn_seeds(root, 2)
    return dynamics_seed, migration_seed


def _master_seed(seed: SeedLike) -> int:
    """Coerce any :data:`~repro.rng.SeedLike` into the integer master seed.

    Integers pass through untouched (the documented master-seed form);
    generators (and ``None``) contribute one :func:`derive_seed` draw.
    """
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return derive_seed(ensure_rng(seed))


@dataclass(frozen=True)
class MigrationEdge:
    """One directed migration channel: ``borrower`` borrows from ``donor``.

    Attributes:
        donor: Region code recipes flow *from*.
        borrower: Region code recipes flow *to*.
        rate: Per-recipe-step borrow probability contributed by this
            edge, in ``[0, 1]``.
    """

    donor: str
    borrower: str
    rate: float

    def __post_init__(self) -> None:
        if self.donor == self.borrower:
            raise ParameterError(
                f"migration edge cannot be a self-loop: {self.donor!r}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ParameterError(
                f"migration rate must be in [0, 1], got {self.rate} "
                f"({self.donor} -> {self.borrower})"
            )


@dataclass(frozen=True)
class MigrationTopology:
    """A directed migration graph with per-edge rates (DESIGN.md §10).

    At each recipe step a borrower with inbound edges draws one uniform
    and matches it against the cumulative inbound rates in stable donor
    order — so an island's total borrow probability per recipe step is
    the *sum* of its inbound rates, which must not exceed 1.

    Construct via the factories (:meth:`ring`, :meth:`star`,
    :meth:`full_mesh`, :meth:`custom`, :meth:`isolated`) or directly
    from :class:`MigrationEdge` tuples; edges normalize into a stable
    sorted order, so equal topologies fingerprint equally regardless of
    construction order.
    """

    edges: tuple[MigrationEdge, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.edges, key=lambda e: (e.borrower, e.donor))
        )
        object.__setattr__(self, "edges", ordered)
        seen: set[tuple[str, str]] = set()
        inbound_totals: dict[str, float] = {}
        for edge in ordered:
            pair = (edge.donor, edge.borrower)
            if pair in seen:
                raise ParameterError(
                    f"duplicate migration edge {edge.donor} -> "
                    f"{edge.borrower}"
                )
            seen.add(pair)
            inbound_totals[edge.borrower] = (
                inbound_totals.get(edge.borrower, 0.0) + edge.rate
            )
        for code, total in inbound_totals.items():
            if total > 1.0 + 1e-12:
                raise ParameterError(
                    f"inbound migration rates for {code!r} sum to "
                    f"{total:.4f} > 1; a recipe step draws one uniform "
                    f"against the cumulative inbound rates"
                )

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    @classmethod
    def isolated(cls) -> "MigrationTopology":
        """No migration channels at all."""
        return cls(edges=())

    @classmethod
    def ring(
        cls,
        codes: Sequence[str],
        rate: float,
        bidirectional: bool = False,
    ) -> "MigrationTopology":
        """A cycle: each island borrows from its predecessor.

        ``codes[i]`` donates to ``codes[(i + 1) % len]``;
        ``bidirectional`` adds the reverse edges (deduplicated, so a
        two-island bidirectional ring is just the two directed edges).
        """
        if len(codes) < 2:
            raise ParameterError("a ring needs at least two islands")
        pairs: list[tuple[str, str]] = []
        for i, donor in enumerate(codes):
            pairs.append((donor, codes[(i + 1) % len(codes)]))
        if bidirectional:
            for donor, borrower in list(pairs):
                if (borrower, donor) not in pairs:
                    pairs.append((borrower, donor))
        return cls(edges=tuple(
            MigrationEdge(donor, borrower, rate) for donor, borrower in pairs
        ))

    @classmethod
    def star(
        cls, hub: str, leaves: Sequence[str], rate: float
    ) -> "MigrationTopology":
        """A hub exchanging both ways with every leaf at ``rate``.

        Leaves are not connected to each other; anything reaching one
        leaf from another must pass through the hub.
        """
        if not leaves:
            raise ParameterError("a star needs at least one leaf")
        edges: list[MigrationEdge] = []
        for leaf in leaves:
            edges.append(MigrationEdge(hub, leaf, rate))
            edges.append(MigrationEdge(leaf, hub, rate))
        return cls(edges=tuple(edges))

    @classmethod
    def full_mesh(cls, codes: Sequence[str], rate: float) -> "MigrationTopology":
        """Every ordered pair connected at the same per-edge ``rate``."""
        if len(codes) < 2:
            raise ParameterError("a mesh needs at least two islands")
        return cls(edges=tuple(
            MigrationEdge(donor, borrower, rate)
            for donor in codes
            for borrower in codes
            if donor != borrower
        ))

    @classmethod
    def custom(
        cls, edges: Iterable[tuple[str, str, float]]
    ) -> "MigrationTopology":
        """An arbitrary adjacency: ``(donor, borrower, rate)`` triples."""
        return cls(edges=tuple(
            MigrationEdge(donor, borrower, float(rate))
            for donor, borrower, rate in edges
        ))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def codes(self) -> frozenset[str]:
        """Every region code touched by an edge."""
        return frozenset(
            code for edge in self.edges for code in (edge.donor, edge.borrower)
        )

    def inbound(self, code: str) -> tuple[MigrationEdge, ...]:
        """Inbound edges of ``code``, in stable donor order.

        This order defines the cumulative-rate intervals the borrow
        uniform is matched against; it is part of the
        :data:`ISLANDS_STREAM_VERSION` contract.
        """
        return tuple(
            edge for edge in self.edges if edge.borrower == code
        )

    def restricted_to(self, codes: Iterable[str]) -> "MigrationTopology":
        """The sub-topology induced by ``codes`` (edges fully inside)."""
        kept = frozenset(codes)
        return MigrationTopology(edges=tuple(
            edge for edge in self.edges
            if edge.donor in kept and edge.borrower in kept
        ))


@dataclass(frozen=True)
class IslandOutcome:
    """Result of one whole-archipelago simulation.

    Attributes:
        runs: Per-island evolution runs, keyed by region code.
        borrow_events: Borrowed recipe steps per *borrower* code (every
            island present, zeros included); equals each run's
            ``trace.recipes_borrowed``.
        edge_borrows: Borrow counts per ``(donor, borrower)`` edge that
            fired at least once.
        pools: Final ingredient pool per island (insertion order) —
            every transaction of an island is a subset of its pool, the
            m/n invariant migration must preserve.
    """

    runs: dict[str, EvolutionRun]
    borrow_events: dict[str, int]
    edge_borrows: dict[tuple[str, str], int] = field(default_factory=dict)
    pools: dict[str, tuple[int, ...]] = field(default_factory=dict)


class _Island:
    """Live per-island state of one archipelago execution."""

    __slots__ = (
        "spec", "state", "dynamics", "migration", "inbound",
        "inbound_total", "initial_recipes", "history",
    )

    def __init__(
        self,
        spec: CuisineSpec,
        state: EvolutionState,
        dynamics: np.random.Generator,
        migration: np.random.Generator,
        inbound: tuple[MigrationEdge, ...],
        initial_recipes: int,
        record_history: bool,
    ):
        self.spec = spec
        self.state = state
        self.dynamics = dynamics
        self.migration = migration
        self.inbound = inbound
        self.inbound_total = sum(edge.rate for edge in inbound)
        self.initial_recipes = initial_recipes
        self.history: list[tuple[int, int]] | None = (
            [(state.m, state.n)] if record_history else None
        )


class IslandSimulation:
    """N cuisines co-evolving under a migration topology (DESIGN.md §10).

    Args:
        inner_model: A :class:`CopyMutateBase` instance whose dynamics
            (fitness, ∂-vs-φ alternation, mutation seam) every island
            shares.  Borrowed mothers are mutated through the model's
            public :meth:`~CopyMutateBase.mutate_recipe` seam; local
            steps run the model's own recipe step, so variant behavior
            (CM-C categories, CM-V insert/delete moves) is preserved.
        specs: One :class:`CuisineSpec` per island; distinct region
            codes required.  Spec order fixes the round-robin stepping
            order.
        topology: Migration graph; ``None`` means fully isolated.
            Every edge endpoint must name one of ``specs``.
        import_policy: How borrowed ingredients outside the borrower's
            *pool* but inside its *universe* are handled — see
            :data:`IMPORT_POLICIES`.  Ingredients outside the universe
            are always dropped.
    """

    def __init__(
        self,
        inner_model: CopyMutateBase,
        specs: Sequence[CuisineSpec],
        topology: MigrationTopology | None = None,
        import_policy: str = "adopt",
    ):
        if not isinstance(inner_model, CopyMutateBase):
            raise ModelError(
                "island migration requires a copy-mutate inner model"
            )
        specs = tuple(specs)
        if not specs:
            raise ModelError("an archipelago needs at least one island")
        codes = [spec.region_code for spec in specs]
        if len(set(codes)) != len(codes):
            raise ModelError("cuisine specs must have distinct region codes")
        topology = topology if topology is not None else MigrationTopology()
        unknown = topology.codes() - set(codes)
        if unknown:
            raise ModelError(
                f"topology names islands without specs: {sorted(unknown)}"
            )
        if import_policy not in IMPORT_POLICIES:
            raise ParameterError(
                f"import_policy must be one of {IMPORT_POLICIES}, "
                f"got {import_policy!r}"
            )
        self.inner_model = inner_model
        self.specs = specs
        self.topology = topology
        self.import_policy = import_policy

    @property
    def name(self) -> str:
        """Model name stamped on every member run."""
        return f"ISL({self.inner_model.name})"

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(spec.region_code for spec in self.specs)

    def member(self, member: int | str) -> "IslandMemberModel":
        """One island as a dispatchable :class:`IslandMemberModel`."""
        if isinstance(member, str):
            try:
                member = self.codes.index(member)
            except ValueError:
                raise ModelError(
                    f"no island with region code {member!r}"
                ) from None
        if not 0 <= member < len(self.specs):
            raise ModelError(
                f"member index {member} out of range for "
                f"{len(self.specs)} islands"
            )
        return IslandMemberModel(self, member)

    def members(self) -> tuple["IslandMemberModel", ...]:
        return tuple(self.member(i) for i in range(len(self.specs)))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self, seed: SeedLike = None, record_history: bool = False
    ) -> IslandOutcome:
        """Co-evolve every island to its target recipe-pool size.

        Args:
            seed: Integer master seed (the documented form — per-island
                streams derive from it via :func:`island_seed_streams`),
                a generator (one :func:`~repro.rng.derive_seed` draw
                fixes the master), or ``None`` for a fresh random
                master.
            record_history: Record each island's ``(m, n)`` trajectory.
        """
        master = _master_seed(seed)
        model = self.inner_model
        islands: dict[str, _Island] = {}
        for spec in self.specs:
            dynamics_seed, migration_seed = island_seed_streams(
                master, spec.region_code
            )
            dynamics = rng_from_seed(dynamics_seed)
            fitness = np.asarray(
                model.fitness.assign(spec.ingredient_ids, dynamics),
                dtype=np.float64,
            )
            n0 = min(
                model.params.derive_initial_recipes(spec.phi), spec.n_recipes
            )
            state = EvolutionState(
                spec=spec,
                fitness=fitness,
                rng=dynamics,
                initial_pool_size=model.params.initial_pool_size,
                initial_recipes=n0,
            )
            islands[spec.region_code] = _Island(
                spec=spec,
                state=state,
                dynamics=dynamics,
                migration=rng_from_seed(migration_seed),
                inbound=self.topology.inbound(spec.region_code),
                initial_recipes=n0,
                record_history=record_history,
            )

        edge_borrows: dict[tuple[str, str], int] = {}
        active = [
            islands[code] for code in self.codes
            if islands[code].state.n < islands[code].spec.n_recipes
        ]
        while active:
            still_active: list[_Island] = []
            for island in active:
                state = island.state
                if (
                    state.pool_ratio() >= island.spec.phi
                    or not state.can_grow_pool()
                ):
                    self._recipe_step(island, islands, edge_borrows)
                else:
                    state.grow_pool()
                if island.history is not None:
                    island.history.append((state.m, state.n))
                if state.n < island.spec.n_recipes:
                    still_active.append(island)
            active = still_active

        runs = {
            code: EvolutionRun(
                model_name=self.name,
                region_code=code,
                transactions=islands[code].state.transactions(),
                final_pool_size=islands[code].state.m,
                initial_recipes=islands[code].initial_recipes,
                trace=islands[code].state.trace,
                history=(
                    tuple(islands[code].history)
                    if islands[code].history is not None
                    else None
                ),
            )
            for code in self.codes
        }
        return IslandOutcome(
            runs=runs,
            borrow_events={
                code: islands[code].state.trace.recipes_borrowed
                for code in self.codes
            },
            edge_borrows=edge_borrows,
            pools={code: islands[code].state.pool for code in self.codes},
        )

    def run_members(
        self,
        members: Sequence[int],
        seed: SeedLike = None,
        record_history: bool = False,
    ) -> list[EvolutionRun]:
        """Run the whole archipelago once, return the selected members.

        The archipelago-dispatch entry (see
        :func:`~repro.runtime.runner.execute_archipelago`): one
        execution serves every member of the dispatched item.
        """
        outcome = self.run(seed, record_history=record_history)
        codes = self.codes
        return [outcome.runs[codes[index]] for index in members]

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------

    def _recipe_step(
        self,
        island: _Island,
        islands: Mapping[str, _Island],
        edge_borrows: dict[tuple[str, str], int],
    ) -> None:
        """One recipe step: maybe borrow a mother, then mutate and add.

        Migration decisions consume only the island's *migration*
        stream; an island whose inbound rate totals zero draws nothing
        from it, which is what keeps rate-0 runs bit-identical to
        isolated ones.
        """
        state = island.state
        mother: list[int] | None = None
        if island.inbound_total > 0.0:
            u = float(island.migration.random())
            cumulative = 0.0
            for edge in island.inbound:
                cumulative += edge.rate
                if u < cumulative:
                    donor = islands[edge.donor].state
                    mother = self._borrow_mother(state, donor, island.migration)
                    state.trace.recipes_borrowed += 1
                    pair = (edge.donor, edge.borrower)
                    edge_borrows[pair] = edge_borrows.get(pair, 0) + 1
                    break
        if mother is None:
            self.inner_model._recipe_step(state, island.dynamics)
            return
        state.add_recipe(
            self.inner_model.mutate_recipe(state, mother, island.dynamics)
        )

    def _borrow_mother(
        self,
        state: EvolutionState,
        donor: EvolutionState,
        migration: np.random.Generator,
    ) -> list[int]:
        """Import one donor recipe into the borrower's ingredient space.

        Donor ingredients are deduplicated, then routed through the
        borrower's pool accounting: pool members stay; universe-known
        non-pool ingredients are adopted into the pool (``"adopt"``,
        counted in ``trace.ingredients_added``) or dropped
        (``"filter"``); foreign ingredients are always dropped.
        Dropped slots are refilled with distinct local pool members —
        capped at the pool size, truncating the mother when the pool is
        smaller than the donor recipe (the old unbounded
        reject-duplicates loop spun forever on exactly that case).
        """
        rows = migration.integers(0, donor.n)
        donor_recipe = donor.recipes[int(rows)]
        adopt = self.import_policy == "adopt"
        mother: list[int] = []
        taken: set[int] = set()
        for ingredient in donor_recipe:
            if ingredient in taken:
                continue
            if state.in_pool(ingredient):
                mother.append(ingredient)
                taken.add(ingredient)
            elif adopt and state.in_universe(ingredient):
                state.adopt_ingredient(ingredient)
                mother.append(ingredient)
                taken.add(ingredient)
        target = min(len(donor_recipe), state.m)
        if len(mother) < target:
            candidates = [
                ingredient for ingredient in state.pool
                if ingredient not in taken
            ]
            while len(mother) < target:
                row = int(migration.integers(0, len(candidates)))
                candidates[row], candidates[-1] = (
                    candidates[-1], candidates[row]
                )
                mother.append(candidates.pop())
        return mother


class IslandMemberModel(CulinaryEvolutionModel):
    """One island of an :class:`IslandSimulation` as a standard model.

    A member run is a pure function of ``(simulation, member, seed)``:
    ``run()`` executes the *whole* archipelago for the given seed and
    returns this island's :class:`EvolutionRun`.  That makes islands
    first-class runtime citizens — a solo member run is keyed and
    cached like any run (the key canonicalizes the full simulation:
    inner model, every spec, topology, import policy, plus the
    :data:`ISLANDS_STREAM_VERSION` contract) and dispatches through
    any backend, while :func:`run_island_ensemble` plans all members of
    one master seed as one
    :class:`~repro.runtime.runner.ArchipelagoRequest`, one cache entry,
    so an N-island execution costs one simulation, not N.  A solo
    member run never serves an archipelago's entry.
    """

    def __init__(self, simulation: IslandSimulation, member_index: int):
        super().__init__(
            params=simulation.inner_model.params,
            fitness=simulation.inner_model.fitness,
        )
        self.simulation = simulation
        self.member_index = int(member_index)
        self.name = simulation.name

    @property
    def spec(self) -> CuisineSpec:
        """The member island's cuisine spec."""
        return self.simulation.specs[self.member_index]

    def resolve_engine(self, engine: str | None = None) -> str:
        """Always the scalar archipelago loop; overrides are ignored.

        The island engine is reference-dynamics by construction (its
        bit-identity contract is against isolated reference runs), so
        batched requests do not apply.
        """
        return "reference"

    def engine_contract(self, engine: str | None = None) -> dict[str, object]:
        """The islands key space: engine name plus stream contract."""
        return {"engine": "islands", "stream_version": ISLANDS_STREAM_VERSION}

    def run(
        self,
        spec: CuisineSpec,
        seed: SeedLike = None,
        record_history: bool = False,
        engine: str | None = None,
    ) -> EvolutionRun:
        """Execute the archipelago and return this member's run.

        ``spec`` must be the member's own spec (the request carries it
        for cache keying); ``engine`` is accepted for dispatch
        compatibility and ignored — the archipelago loop is scalar.
        """
        if spec is not self.spec and spec != self.spec:
            raise ModelError(
                f"IslandMemberModel for {self.spec.region_code!r} cannot "
                f"run spec {spec.region_code!r}; members are bound to "
                f"their island"
            )
        return self.simulation.run_members(
            [self.member_index], seed=seed, record_history=record_history
        )[0]

    def _recipe_step(self, state, rng) -> None:  # pragma: no cover
        raise ModelError(
            "IslandMemberModel has no standalone recipe step; it runs "
            "through IslandSimulation"
        )


@dataclass(frozen=True)
class IslandEnsembleResult:
    """An ensemble of whole-archipelago runs, split per island.

    Attributes:
        codes: Island region codes, in spec order.
        seeds: Integer master seeds, one per archipelago execution.
        runs: Per-island run tuples keyed by code, aligned with
            ``seeds``.
        executed: How many member runs were actually executed (the rest
            were served from cache).
        keys: Per-island run-cache keys keyed by code, aligned with
            ``seeds``; ``None`` when the ensemble ran without a cache.
            They also key the runs' mined curves.
    """

    codes: tuple[str, ...]
    seeds: tuple[int, ...]
    runs: dict[str, tuple[EvolutionRun, ...]]
    executed: int
    keys: dict[str, tuple[str, ...]] | None = None

    @property
    def n_runs(self) -> int:
        return len(self.seeds)


def run_island_ensemble(
    simulation: IslandSimulation,
    n_runs: int,
    seed: SeedLike = None,
    runtime: "object | None" = None,
    cache: "object | None" = None,
    record_history: bool = False,
) -> IslandEnsembleResult:
    """Run ``n_runs`` archipelago simulations through the runtime.

    Plans one :class:`~repro.runtime.runner.ArchipelagoRequest` per
    master seed, so each uncached archipelago executes exactly once and
    is cached as one :class:`~repro.runtime.cache.RunCache` entry
    holding every member's run; a cached archipelago is served whole.
    Bit-identical across the serial and process backends for a fixed
    ``seed``.

    Args:
        simulation: The configured archipelago.
        n_runs: Independent archipelago executions.
        seed: Root seed; per-archipelago master seeds are spawned from
            it via :func:`~repro.rng.spawn_seeds`.
        runtime: :class:`~repro.runtime.RuntimeConfig` backend/cache
            selection; ``None`` = serial, no cache.
        cache: Explicit :class:`~repro.runtime.cache.RunCache`
            (overrides ``runtime.cache_dir``).
        record_history: Record every island's ``(m, n)`` trajectory.
    """
    from repro.runtime import (
        ArchipelagoRequest,
        RunCache,
        RuntimeConfig,
        fingerprint_many,
    )
    from repro.runtime.runner import dispatch_work

    if n_runs < 1:
        raise ModelError(f"n_runs must be >= 1, got {n_runs}")
    root = ensure_rng(seed)
    master_seeds = spawn_seeds(root, n_runs)
    members = simulation.members()

    config = runtime if runtime is not None else RuntimeConfig()
    if cache is None and config.cache_dir is not None:
        cache = RunCache(config.cache_dir)

    keys: list = [None] * n_runs
    if cache is not None:
        # One canonicalization per member covers all of its seeds; an
        # archipelago's keys are its members' keys for its seed.
        keys = list(zip(*(
            fingerprint_many(
                member, member.spec, master_seeds, record_history, None
            )
            for member in members
        )))
    done = dispatch_work(
        [
            (
                ArchipelagoRequest(
                    simulation=simulation,
                    members=tuple(range(len(members))),
                    seed=master,
                    record_history=record_history,
                ),
                archipelago_keys,
            )
            for master, archipelago_keys in zip(master_seeds, keys)
        ],
        config,
        cache,
    )

    codes = simulation.codes
    runs = {
        code: tuple(member_runs[k] for member_runs, _ in done)
        for k, code in enumerate(codes)
    }
    return IslandEnsembleResult(
        codes=codes,
        seeds=tuple(master_seeds),
        runs=runs,
        executed=n_runs * len(members) - sum(cached for _, cached in done),
        keys=None if cache is None else {
            code: tuple(archipelago_keys[k] for archipelago_keys in keys)
            for k, code in enumerate(codes)
        },
    )
