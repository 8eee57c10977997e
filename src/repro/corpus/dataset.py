"""Recipe dataset containers.

:class:`RecipeDataset` holds the whole world corpus as CSR arrays: the
ingredient count of every recipe, every recipe's sorted ingredient ids
concatenated in row order, the recipe ids and one region index per row.
:class:`CuisineView` is a per-region view answering exactly the
quantities the paper computes per cuisine (recipe count, vocabulary,
average recipe size, the φ ratio of Algorithm 1, the transaction plane
Figs. 3-4 mine, ...) from those arrays.

:class:`~repro.corpus.recipe.Recipe` objects are built only for callers
that ask for them (:attr:`RecipeDataset.recipes`, iteration,
:meth:`RecipeDataset.filter`, JSONL I/O); a corpus generated for an
experiment never builds one.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.corpus.recipe import Recipe
from repro.corpus.regions import get_region
from repro.errors import CorpusError, EmptyCorpusError
from repro.transactions import TransactionPlane

__all__ = ["RecipeDataset", "CuisineView"]


def _recipe_counts(flat: np.ndarray) -> Counter:
    """ingredient id -> recipes holding it (rows are duplicate-free)."""
    counts = np.bincount(flat) if flat.size else np.zeros(0, dtype=np.int64)
    (ids,) = np.nonzero(counts)
    return Counter(dict(zip(ids.tolist(), counts[ids].tolist())))


class CuisineView:
    """All recipes of one cuisine (region) within a dataset.

    Thin immutable view over its dataset's arrays; analytics modules
    take these as input.  Built from ``recipes`` directly, it wraps a
    one-cuisine dataset of them.
    """

    def __init__(self, region_code: str, recipes: Sequence[Recipe]):
        recipes = tuple(recipes)
        for recipe in recipes:
            if recipe.region_code != region_code:
                raise CorpusError(
                    f"recipe {recipe.recipe_id} belongs to "
                    f"{recipe.region_code!r}, not {region_code!r}"
                )
        self._bind(region_code, RecipeDataset(recipes), slice(0, len(recipes)))

    @classmethod
    def _of_rows(
        cls,
        dataset: "RecipeDataset",
        region_code: str,
        rows: slice | np.ndarray,
    ) -> "CuisineView":
        view = cls.__new__(cls)
        view._bind(region_code, dataset, rows)
        return view

    def _bind(
        self,
        region_code: str,
        dataset: "RecipeDataset",
        rows: slice | np.ndarray,
    ) -> None:
        self._region_code = region_code
        self._dataset = dataset
        self._rows = rows
        self._lengths, self._flat = dataset._csr(rows)
        self._plane: TransactionPlane | None = None

    @property
    def region_code(self) -> str:
        return self._region_code

    @property
    def recipes(self) -> tuple[Recipe, ...]:
        """The cuisine's recipes as objects (its dataset's, built on first
        access)."""
        recipes = self._dataset.recipes
        if isinstance(self._rows, slice):
            return recipes[self._rows]
        return tuple(recipes[row] for row in self._rows.tolist())

    def __len__(self) -> int:
        return self._lengths.size

    def __iter__(self) -> Iterator[Recipe]:
        return iter(self.recipes)

    def __bool__(self) -> bool:
        return self._lengths.size > 0

    # ------------------------------------------------------------------
    # Paper quantities
    # ------------------------------------------------------------------

    @property
    def n_recipes(self) -> int:
        """N in Algorithm 1: total recipes in the cuisine."""
        return self._lengths.size

    def transaction_plane(self) -> TransactionPlane:
        """The recipes as one ingredient-level transaction plane (cached).

        Its id table is :meth:`ingredient_universe`; the category level
        is a :meth:`~repro.transactions.TransactionPlane.remap` of it.
        """
        if self._plane is None:
            self._plane = TransactionPlane.from_csr(self._lengths, self._flat)
        return self._plane

    def ingredient_universe(self) -> tuple[int, ...]:
        """Sorted unique ingredient ids used by this cuisine (I)."""
        return tuple(self.transaction_plane().ids.tolist())

    @property
    def n_ingredients(self) -> int:
        """Unique ingredient count (the Table I 'Ingredients' column)."""
        return self.transaction_plane().ids.size

    def average_recipe_size(self) -> float:
        """s̄ in Algorithm 1: mean distinct-ingredient count per recipe."""
        self._require_nonempty()
        return float(np.mean(self._lengths))

    def phi(self) -> float:
        """φ in Algorithm 1: unique ingredients / recipes."""
        self._require_nonempty()
        return self.n_ingredients / self.n_recipes

    def sizes(self) -> np.ndarray:
        """Recipe sizes as an integer array (Fig. 1 input)."""
        return self._lengths.copy()

    def ingredient_recipe_counts(self) -> Counter:
        """ingredient id -> number of recipes containing it (n_i of Eq. 1)."""
        return _recipe_counts(self._flat)

    def as_id_sets(self) -> list[frozenset[int]]:
        """Recipes as frozensets of ingredient ids (mining input)."""
        items = self._flat.tolist()
        ends = np.cumsum(self._lengths).tolist()
        return [
            frozenset(items[end - length:end])
            for end, length in zip(ends, self._lengths.tolist())
        ]

    def _require_nonempty(self) -> None:
        if not self:
            raise EmptyCorpusError(
                f"cuisine {self._region_code!r} has no recipes"
            )


class RecipeDataset:
    """The full multi-cuisine recipe corpus, held as CSR arrays.

    Iterable over recipes; indexable by region code via :meth:`cuisine`.
    Built from :class:`~repro.corpus.recipe.Recipe` objects, or from the
    arrays themselves with :meth:`from_arrays` (the generator's path).
    """

    def __init__(self, recipes: Iterable[Recipe]):
        recipes = tuple(recipes)
        n = len(recipes)
        index: dict[str, int] = {}
        region_of = np.fromiter(
            (index.setdefault(r.region_code, len(index)) for r in recipes),
            dtype=np.int64, count=n,
        )
        self._init(
            region_of=region_of,
            region_codes=tuple(index),
            lengths=np.fromiter(
                (len(r.ingredient_ids) for r in recipes), dtype=np.int64, count=n
            ),
            ingredient_ids=np.fromiter(
                chain.from_iterable(r.ingredient_ids for r in recipes),
                dtype=np.int64,
            ),
            recipe_ids=np.fromiter(
                (r.recipe_id for r in recipes), dtype=np.int64, count=n
            ),
            titles=tuple(r.title for r in recipes),
            sources=tuple(r.source for r in recipes),
        )
        self._recipes = recipes

    @classmethod
    def from_arrays(
        cls,
        region_codes: Sequence[str],
        region_of: np.ndarray,
        lengths: np.ndarray,
        ingredient_ids: np.ndarray,
        recipe_ids: np.ndarray,
        titles: Sequence[str],
    ) -> "RecipeDataset":
        """A dataset over CSR arrays, building no recipe object.

        Args:
            region_codes: Region code of each region index.
            region_of: ``(n,)`` region index of every recipe.
            lengths: ``(n,)`` ingredient count of every recipe (>= 1).
            ingredient_ids: Every recipe's ingredient ids, ascending and
                duplicate-free within a recipe, concatenated in row order.
            recipe_ids: ``(n,)`` unique recipe ids.
            titles: Display title of every recipe (any sequence; read
                only when a recipe object is built).

        Raises:
            CorpusError: If a recipe is empty, repeats or misorders an
                ingredient, or two recipes share an id.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        flat = np.asarray(ingredient_ids, dtype=np.int64)
        if lengths.size and int(lengths.min()) < 1:
            raise CorpusError("every recipe needs at least one ingredient")
        ascending = flat[1:] > flat[:-1]
        if int(lengths.sum()) == flat.size:
            ascending[np.cumsum(lengths)[:-1] - 1] = True  # row boundaries
        if int(lengths.sum()) != flat.size or not ascending.all():
            raise CorpusError(
                "ingredient ids must be ascending and distinct within each "
                "recipe, one run of them per recipe"
            )
        dataset = cls.__new__(cls)
        dataset._init(
            region_of=np.asarray(region_of, dtype=np.int64),
            region_codes=tuple(region_codes),
            lengths=lengths,
            ingredient_ids=flat,
            recipe_ids=np.asarray(recipe_ids, dtype=np.int64),
            titles=titles,
            sources=None,
        )
        dataset._recipes = None
        return dataset

    def _init(
        self,
        region_of: np.ndarray,
        region_codes: tuple[str, ...],
        lengths: np.ndarray,
        ingredient_ids: np.ndarray,
        recipe_ids: np.ndarray,
        titles: Sequence[str],
        sources: Sequence[str] | None,
    ) -> None:
        ordered = np.sort(recipe_ids)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise CorpusError(f"duplicate recipe id {int(repeated[0])}")
        self._region_of = region_of
        self._index = {code: k for k, code in enumerate(region_codes)}
        self._lengths = lengths
        self._starts = np.cumsum(lengths) - lengths
        self._flat = ingredient_ids
        self._recipe_ids = recipe_ids
        self._titles = titles
        self._sources = sources
        self._views: dict[str, CuisineView] = {}

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------

    def _rows_of(self, region: int) -> slice | np.ndarray:
        """The rows of one region index, as a slice when contiguous."""
        rows = np.flatnonzero(self._region_of == region)
        if rows.size and int(rows[-1]) - int(rows[0]) + 1 == rows.size:
            return slice(int(rows[0]), int(rows[-1]) + 1)
        return rows

    def _csr(self, rows: slice | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lengths, ingredient ids)`` of ``rows``, in row order."""
        lengths = self._lengths[rows]
        if isinstance(rows, slice):
            start, stop = rows.indices(len(self))[:2]
            if start >= stop:
                return lengths, self._flat[:0]
            end = int(self._starts[stop - 1] + self._lengths[stop - 1])
            return lengths, self._flat[int(self._starts[start]):end]
        offsets = np.cumsum(lengths) - lengths
        gather = np.repeat(self._starts[rows] - offsets, lengths)
        return lengths, self._flat[gather + np.arange(gather.size)]

    def _build_recipes(self) -> tuple[Recipe, ...]:
        """Every row as a :class:`Recipe`, in row order."""
        codes = tuple(self._index)
        items = self._flat.tolist()
        titles, sources = self._titles, self._sources
        recipes = []
        end = 0
        for row, (region, recipe_id, length) in enumerate(zip(
            self._region_of.tolist(),
            self._recipe_ids.tolist(),
            self._lengths.tolist(),
        )):
            start, end = end, end + length
            recipes.append(
                Recipe(
                    recipe_id=recipe_id,
                    region_code=codes[region],
                    ingredient_ids=tuple(items[start:end]),
                    title=titles[row],
                    source="" if sources is None else sources[row],
                )
            )
        return tuple(recipes)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._lengths.size

    def __iter__(self) -> Iterator[Recipe]:
        return iter(self.recipes)

    def __bool__(self) -> bool:
        return self._lengths.size > 0

    @property
    def recipes(self) -> tuple[Recipe, ...]:
        """Every recipe as an object, in row order, built on first access."""
        if self._recipes is None:
            self._recipes = self._build_recipes()
        return self._recipes

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def region_codes(self) -> tuple[str, ...]:
        """Region codes present, sorted."""
        return tuple(sorted(self._index))

    def cuisine(self, region_code: str) -> CuisineView:
        """The per-cuisine view for ``region_code``.

        Accepts codes or full region names (resolved through the Table I
        registry); unknown regions raise, and known regions with no
        recipes return an empty view.
        """
        code = (
            region_code if region_code in self._index
            else get_region(region_code).code
        )
        view = self._views.get(code)
        if view is None:
            region = self._index.get(code)
            if region is None:
                return CuisineView(code, ())
            view = CuisineView._of_rows(self, code, self._rows_of(region))
            self._views[code] = view
        return view

    def cuisines(self) -> dict[str, CuisineView]:
        """All per-cuisine views keyed by region code."""
        return {code: self.cuisine(code) for code in self._index}

    def filter(self, predicate: Callable[[Recipe], bool]) -> "RecipeDataset":
        """New dataset containing recipes satisfying ``predicate``."""
        return RecipeDataset(r for r in self.recipes if predicate(r))

    def subset(self, region_codes: Iterable[str]) -> "RecipeDataset":
        """New dataset restricted to the given regions."""
        wanted = {get_region(code).code for code in region_codes}
        return self.filter(lambda recipe: recipe.region_code in wanted)

    # ------------------------------------------------------------------
    # Aggregate quantities
    # ------------------------------------------------------------------

    def total_recipes_by_region(self) -> dict[str, int]:
        """Region code -> recipe count."""
        counts = np.bincount(self._region_of, minlength=len(self._index))
        return dict(zip(self._index, counts.tolist()))

    def ingredient_universe(self) -> tuple[int, ...]:
        """Sorted unique ingredient ids across the whole corpus."""
        return tuple(np.flatnonzero(np.bincount(self._flat)).tolist())

    def global_ingredient_recipe_counts(self) -> Counter:
        """ingredient id -> recipe count across all cuisines.

        This is Eq. 1's global term numerator (Σ_c n_i^c).
        """
        return _recipe_counts(self._flat)

    def sizes(self) -> np.ndarray:
        """All recipe sizes (aggregate Fig. 1 inset input)."""
        return self._lengths.copy()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RecipeDataset({len(self)} recipes, "
            f"{len(self._index)} cuisines)"
        )
