"""WorldKitchen: the calibrated synthetic corpus generator.

This is the repository's substitute for the paper's 158,544 scraped
recipes (see DESIGN.md §2).  For each of the 25 regions it

1. selects a cuisine *vocabulary* of the Table I size — signature
   ingredients and archetype cores first, the rest drawn with
   category-emphasis weights;
2. assigns Zipf base popularity over that vocabulary (signatures at the
   top ranks);
3. draws each recipe from a *dish archetype* (latent template): recipe
   size from a truncated normal in [2, 38], ingredients sampled without
   replacement via Gumbel top-k with weights =
   base popularity × archetype core boost × category multipliers ×
   signature boost.

The generator is deliberately **not** the paper's copy-mutate process, so
the Sec. VI model comparison run against this corpus is not circular.

Outputs come in two forms: standardized :class:`Recipe` datasets (fast
path used by experiments) and raw website-style records
(:class:`RawRecipe`, exercising the full ETL pipeline).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.corpus.dataset import RecipeDataset
from repro.corpus.recipe import RawRecipe, Recipe
from repro.corpus.regions import REGIONS, Region, get_region
from repro.corpus.sources import SOURCES
from repro.errors import SynthesisError
from repro.lexicon.categories import Category
from repro.lexicon.lexicon import Lexicon
from repro.rng import SeedLike, derive_seed, ensure_rng
from repro.synthesis.archetypes import (
    ARCHETYPES,
    REGION_PROFILES,
    validate_archetypes,
)
from repro.synthesis.noise import MentionRenderer
from repro.synthesis.popularity import (
    gumbel_topk,
    truncated_normal_sizes,
    zipf_weights,
)

__all__ = ["WorldKitchen", "CuisineBlueprint", "generate_world_corpus"]

_SIZE_MIN = 2
_SIZE_MAX = 38


@dataclass(frozen=True)
class CuisineBlueprint:
    """Frozen sampling state for one cuisine.

    Attributes:
        region: The Table I region record.
        vocabulary_ids: Lexicon ids forming the cuisine vocabulary,
            ordered by popularity rank (rank 0 most popular).
        base_log_weights: Log base popularity per vocabulary position.
        archetype_keys: Keys of the archetypes this cuisine mixes.
        archetype_probs: Mixing probabilities aligned to
            ``archetype_keys``.
        archetype_log_weights: ``(n_archetypes, V)`` matrix of per-
            archetype log sampling weights over the vocabulary.
    """

    region: Region
    vocabulary_ids: np.ndarray
    base_log_weights: np.ndarray
    archetype_keys: tuple[str, ...]
    archetype_probs: np.ndarray
    archetype_log_weights: np.ndarray


class WorldKitchen:
    """Generator of calibrated synthetic recipe corpora.

    Args:
        lexicon: Standardized lexicon the corpus is expressed in.
        seed: Root seed; every output is deterministic given it.

    All public ``generate_*`` methods are pure with respect to the stored
    root seed — calling them repeatedly yields the same data.
    """

    def __init__(self, lexicon: Lexicon, seed: SeedLike = 0):
        validate_archetypes(lexicon)
        self._lexicon = lexicon
        self._root_seed = derive_seed(ensure_rng(seed))
        self._blueprints: dict[str, CuisineBlueprint] = {}

    @property
    def lexicon(self) -> Lexicon:
        return self._lexicon

    # ------------------------------------------------------------------
    # Blueprint construction
    # ------------------------------------------------------------------

    def blueprint(self, region_code: str) -> CuisineBlueprint:
        """The (cached) sampling blueprint for one region."""
        region = get_region(region_code)
        cached = self._blueprints.get(region.code)
        if cached is None:
            cached = self._build_blueprint(region)
            self._blueprints[region.code] = cached
        return cached

    def _region_rng(self, region: Region, purpose: str) -> np.random.Generator:
        # Independent, reproducible stream per (seed, region, purpose).
        # The key must be derived hash-stably: Python's str hashing is
        # salted per process (PYTHONHASHSEED), which used to make every
        # corpus differ across interpreter invocations — poisoning the
        # runtime's on-disk run cache and any cross-process comparison.
        digest = hashlib.sha256(
            f"{self._root_seed}:{region.code}:{purpose}".encode("utf-8")
        ).digest()
        key = int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
        return np.random.default_rng(np.random.SeedSequence((self._root_seed, key)))

    def _build_blueprint(self, region: Region) -> CuisineBlueprint:
        profile = REGION_PROFILES[region.code]
        rng = self._region_rng(region, "blueprint")
        lexicon = self._lexicon

        emphasis = {Category(value): mult for value, mult in profile.category_emphasis}

        # -- mandatory vocabulary: signatures then archetype cores.
        mandatory: list[int] = []
        seen: set[int] = set()
        for name in region.overrepresented:
            ingredient = lexicon.by_name(name)
            if ingredient.ingredient_id not in seen:
                seen.add(ingredient.ingredient_id)
                mandatory.append(ingredient.ingredient_id)
        for key, _weight in profile.archetype_weights:
            for name, _boost in ARCHETYPES[key].core:
                ingredient = lexicon.by_name(name)
                if ingredient.ingredient_id not in seen:
                    seen.add(ingredient.ingredient_id)
                    mandatory.append(ingredient.ingredient_id)

        target_size = region.n_ingredients
        if target_size < len(mandatory):
            raise SynthesisError(
                f"region {region.code}: vocabulary target {target_size} "
                f"smaller than mandatory pool {len(mandatory)}"
            )

        # -- fill the rest by category-emphasis weighted draw.
        candidates = np.array(
            [i.ingredient_id for i in lexicon if i.ingredient_id not in seen],
            dtype=np.int64,
        )
        n_fill = min(target_size - len(mandatory), candidates.size)
        if n_fill > 0:
            weights = np.array(
                [
                    emphasis.get(lexicon.category_of(int(i)), 1.0)
                    for i in candidates
                ]
            )
            log_w = np.log(np.maximum(weights, 1e-12))
            (fill_rows,) = gumbel_topk(
                rng, log_w, np.array([n_fill], dtype=np.int64)
            )
            fill_ids = candidates[fill_rows]
        else:
            fill_ids = np.empty(0, dtype=np.int64)

        vocabulary = np.concatenate(
            [np.asarray(mandatory, dtype=np.int64), fill_ids]
        )
        vocab_size = vocabulary.size

        # -- base popularity: Zipf over rank order (mandatory first).
        base = zipf_weights(vocab_size, profile.zipf_exponent)
        base_log = np.log(base)

        # signature boost on Table I overrepresented entities.
        signature_ids = {
            lexicon.by_name(name).ingredient_id
            for name in region.overrepresented
        }
        category_by_pos = [
            lexicon.category_of(int(ingredient_id)) for ingredient_id in vocabulary
        ]
        emphasis_log = np.log(
            np.array([max(emphasis.get(c, 1.0), 1e-12) for c in category_by_pos])
        )
        signature_log = np.log(profile.signature_boost) * np.array(
            [1.0 if int(i) in signature_ids else 0.0 for i in vocabulary]
        )
        base_log = base_log + emphasis_log + signature_log

        # -- per-archetype weight matrices.
        keys = tuple(key for key, _w in profile.archetype_weights)
        mix = np.array([w for _k, w in profile.archetype_weights])
        mix = mix / mix.sum()

        position_of = {int(ingredient_id): pos for pos, ingredient_id in enumerate(vocabulary)}
        matrices = np.tile(base_log, (len(keys), 1))
        for row, key in enumerate(keys):
            archetype = ARCHETYPES[key]
            multipliers = {
                Category(value): mult
                for value, mult in archetype.category_multipliers
            }
            if multipliers:
                matrices[row] += np.log(
                    np.array(
                        [max(multipliers.get(c, 1.0), 1e-12) for c in category_by_pos]
                    )
                )
            for name, boost in archetype.core:
                pos = position_of.get(lexicon.by_name(name).ingredient_id)
                if pos is not None:
                    matrices[row, pos] += math.log(boost)

        return CuisineBlueprint(
            region=region,
            vocabulary_ids=vocabulary,
            base_log_weights=base_log,
            archetype_keys=keys,
            archetype_probs=mix,
            archetype_log_weights=matrices,
        )

    # ------------------------------------------------------------------
    # Recipe generation
    # ------------------------------------------------------------------

    def generate_cuisine(
        self,
        region_code: str,
        n_recipes: int | None = None,
        start_recipe_id: int = 0,
    ) -> list[Recipe]:
        """Generate standardized recipes for one cuisine.

        Args:
            region_code: Table I region.
            n_recipes: Recipe count (defaults to the region's Table I
                count).
            start_recipe_id: First recipe id.

        Returns:
            Recipes in generation order with sequential ids.
        """
        blueprint = self.blueprint(region_code)
        region = blueprint.region
        profile = REGION_PROFILES[region.code]
        count = region.n_recipes if n_recipes is None else int(n_recipes)
        if count < 0:
            raise SynthesisError(f"n_recipes must be >= 0, got {count}")
        if count == 0:
            return []

        rng = self._region_rng(region, "recipes")
        lengths, flat_ids, recipe_ids, titles = self._cuisine_arrays(
            blueprint, rng, count, start_recipe_id
        )
        recipes: list[Recipe] = []
        bounds = np.cumsum(lengths)
        for row in range(count):
            ids = flat_ids[int(bounds[row] - lengths[row]):int(bounds[row])]
            recipes.append(
                Recipe(
                    recipe_id=int(recipe_ids[row]),
                    region_code=region.code,
                    ingredient_ids=tuple(int(i) for i in ids),
                    title=titles[row],
                    source="",
                )
            )
        return recipes

    def _cuisine_arrays(
        self,
        blueprint: CuisineBlueprint,
        rng: np.random.Generator,
        count: int,
        start_recipe_id: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
        """The sampling core, emitting flat arrays instead of objects.

        Draws ``count`` recipes from ``rng`` (one archetype assignment,
        then per-archetype size and Gumbel top-k draws) and returns them
        CSR-shaped — per-recipe lengths, concatenated sorted ingredient
        ids, recipe ids and titles in row order.
        """
        region = blueprint.region
        profile = REGION_PROFILES[region.code]
        assignment = rng.choice(
            len(blueprint.archetype_keys), size=count, p=blueprint.archetype_probs
        )
        vocab = blueprint.vocabulary_ids
        per_row_ids: list[np.ndarray | None] = [None] * count
        titles: list[str] = [""] * count
        for archetype_row in range(len(blueprint.archetype_keys)):
            rows = np.flatnonzero(assignment == archetype_row)
            if rows.size == 0:
                continue
            archetype = ARCHETYPES[blueprint.archetype_keys[archetype_row]]
            sizes = truncated_normal_sizes(
                rng,
                rows.size,
                mean=profile.size_mean + archetype.size_shift,
                sigma=profile.size_sigma,
                lower=_SIZE_MIN,
                upper=min(_SIZE_MAX, vocab.size),
            )
            draws = gumbel_topk(
                rng, blueprint.archetype_log_weights[archetype_row], sizes
            )
            for row, positions in zip(rows, draws):
                per_row_ids[row] = np.sort(vocab[positions])
                titles[row] = (
                    f"{region.code} {archetype.title} #{int(row)}"
                )
        lengths = np.fromiter(
            (ids.size for ids in per_row_ids), dtype=np.int64, count=count
        )
        flat_ids = (
            np.concatenate(per_row_ids)
            if count
            else np.empty(0, dtype=np.int64)
        )
        recipe_ids = start_recipe_id + np.arange(count, dtype=np.int64)
        return lengths, flat_ids, recipe_ids, titles

    def generate_dataset(
        self,
        region_codes: tuple[str, ...] | list[str] | None = None,
        scale: float = 1.0,
        min_recipes: int = 30,
    ) -> RecipeDataset:
        """Generate the multi-cuisine corpus.

        Args:
            region_codes: Regions to include (default: all 25).
            scale: Multiplier on every region's Table I recipe count —
                ``1.0`` reproduces the full published corpus size;
                experiments and benches use smaller scales.
            min_recipes: Per-region floor after scaling, so tiny scales
                still produce analyzable cuisines.

        Returns:
            A :class:`RecipeDataset` covering the requested regions.
        """
        if scale <= 0:
            raise SynthesisError(f"scale must be > 0, got {scale}")
        codes = (
            tuple(region.code for region in REGIONS)
            if region_codes is None
            else tuple(get_region(code).code for code in region_codes)
        )
        recipes: list[Recipe] = []
        next_id = 0
        for code in codes:
            region = get_region(code)
            count = max(int(round(region.n_recipes * scale)), min_recipes)
            generated = self.generate_cuisine(
                code, n_recipes=count, start_recipe_id=next_id
            )
            next_id += count
            recipes.extend(generated)
        return RecipeDataset(recipes)

    # ------------------------------------------------------------------
    # Raw (website-style) generation
    # ------------------------------------------------------------------

    def generate_raw_cuisine(
        self,
        region_code: str,
        n_recipes: int | None = None,
        start_raw_id: int = 0,
    ) -> list[RawRecipe]:
        """Generate raw website-style records for one cuisine.

        Ingredient sets come from the same process as
        :meth:`generate_cuisine`; each ingredient is rendered as a messy
        free-text mention and the record carries continent/region/country
        annotation plus a source website drawn with the published
        per-source proportions.
        """
        region = get_region(region_code)
        recipes = self.generate_cuisine(region_code, n_recipes=n_recipes)
        rng = self._region_rng(region, "raw")
        renderer = MentionRenderer(
            seed=derive_seed(rng), validate_with=self._lexicon.resolver
        )
        source_keys = [source.key for source in SOURCES]
        source_probs = np.array([source.n_recipes for source in SOURCES], dtype=float)
        source_probs /= source_probs.sum()

        raw_records = []
        for offset, recipe in enumerate(recipes):
            ingredients = [
                self._lexicon.by_id(ingredient_id)
                for ingredient_id in recipe.ingredient_ids
            ]
            raw_records.append(
                RawRecipe(
                    raw_id=start_raw_id + offset,
                    title=recipe.title,
                    mentions=renderer.render_all(ingredients),
                    continent=region.continent,
                    region=region.code,
                    country=region.name,
                    source=source_keys[int(rng.choice(len(source_keys), p=source_probs))],
                    instructions="Combine all ingredients and cook.",
                )
            )
        return raw_records


def generate_world_corpus(
    lexicon: Lexicon,
    seed: SeedLike = 0,
    scale: float = 1.0,
    region_codes: tuple[str, ...] | None = None,
) -> RecipeDataset:
    """One-call convenience wrapper around :class:`WorldKitchen`."""
    return WorldKitchen(lexicon, seed=seed).generate_dataset(
        region_codes=region_codes, scale=scale
    )
