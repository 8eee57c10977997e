"""Property-based round-trip tests for the columnar store (DESIGN.md §11)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.dataset import RecipeDataset
from repro.corpus.recipe import Recipe
from repro.storage.columnar import COLUMNAR_SUFFIX, pack_dataset

recipe_strategy = st.builds(
    Recipe,
    recipe_id=st.integers(0, 10**6),
    region_code=st.sampled_from(["ITA", "KOR", "MEX", "USA", "IND"]),
    ingredient_ids=st.sets(st.integers(0, 720), min_size=1, max_size=20).map(
        lambda ids: tuple(sorted(ids))
    ),
    title=st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=20
    ),
    source=st.sampled_from(["", "allrecipes", "epicurious"]),
)


@st.composite
def dataset_strategy(draw):
    recipes = draw(st.lists(recipe_strategy, min_size=1, max_size=30))
    unique = {}
    for recipe in recipes:
        unique[recipe.recipe_id] = recipe
    return RecipeDataset(unique.values())


def _pack(tmp_path_factory, dataset, **kwargs):
    path = (
        tmp_path_factory.mktemp("colprop") / f"corpus{COLUMNAR_SUFFIX}"
    )
    return pack_dataset(dataset, path, **kwargs)


@given(dataset_strategy())
@settings(max_examples=40, deadline=None)
def test_roundtrip_exact(tmp_path_factory, dataset):
    with _pack(tmp_path_factory, dataset) as packed:
        assert list(packed.to_dataset()) == list(dataset)


@given(dataset_strategy())
@settings(max_examples=25, deadline=None)
def test_cuisine_slices_and_ids(tmp_path_factory, dataset):
    with _pack(tmp_path_factory, dataset) as packed:
        assert packed.region_codes() == dataset.region_codes()
        for code in dataset.region_codes():
            view = dataset.cuisine(code)
            assert packed.cuisine_size(code) == len(view)
            rows = packed.cuisine_rows(code)
            got_ids = [int(packed.recipe_ids[row]) for row in rows]
            assert got_ids == [r.recipe_id for r in view.recipes]


@given(dataset_strategy())
@settings(max_examples=25, deadline=None)
def test_transaction_sets_roundtrip(tmp_path_factory, dataset):
    with _pack(tmp_path_factory, dataset) as packed:
        for code in dataset.region_codes():
            assert packed.transactions(code) == dataset.cuisine(code).as_id_sets()


@given(dataset_strategy(), st.booleans())
@settings(max_examples=20, deadline=None)
def test_packed_mining_matches_object_path(tmp_path_factory, dataset, bitplanes):
    from repro.analysis.itemsets import mine_frequent_itemsets

    with _pack(tmp_path_factory, dataset, bitplanes=bitplanes) as packed:
        for code in dataset.region_codes():
            reference = mine_frequent_itemsets(
                dataset.cuisine(code).as_id_sets(),
                min_support=0.4,
                max_size=3,
            )
            mined = packed.mine(code, min_support=0.4, max_size=3)
            assert mined.itemsets == reference.itemsets
