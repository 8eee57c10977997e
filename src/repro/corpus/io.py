"""Dataset persistence: JSON-lines and CSV round-trips.

JSONL is the one corpus file (one recipe per line, order-preserving):
``repro generate`` writes it and ``--corpus`` reads it back.  It is
written through :func:`repro.durable.atomic_write` with fsync, so a
killed writer leaves the previous file or none, never a truncated
corpus that reads as a shorter valid one.  The memory-mapped columnar
container it replaced is retired (DESIGN.md §11).  CSV is provided for
interoperability with spreadsheet tooling.  Both formats round-trip
exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

from repro import durable
from repro.corpus.dataset import RecipeDataset
from repro.corpus.recipe import RawRecipe, Recipe
from repro.errors import SerializationError

__all__ = [
    "save_jsonl",
    "load_jsonl",
    "save_csv",
    "load_csv",
    "save_raw_jsonl",
    "load_raw_jsonl",
]


def _recipe_to_record(recipe: Recipe) -> dict:
    return {
        "recipe_id": recipe.recipe_id,
        "region_code": recipe.region_code,
        "ingredient_ids": list(recipe.ingredient_ids),
        "title": recipe.title,
        "source": recipe.source,
    }


def _recipe_from_record(record: dict, line_number: int) -> Recipe:
    try:
        return Recipe(
            recipe_id=int(record["recipe_id"]),
            region_code=str(record["region_code"]),
            ingredient_ids=tuple(int(i) for i in record["ingredient_ids"]),
            title=str(record.get("title", "")),
            source=str(record.get("source", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"malformed recipe record at line {line_number}: {exc}"
        ) from exc


def save_jsonl(dataset: RecipeDataset | Iterable[Recipe], path: str | Path) -> int:
    """Write recipes to a JSONL file atomically; returns the number written."""
    recipes = dataset.recipes if isinstance(dataset, RecipeDataset) else tuple(dataset)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with durable.atomic_write(target, durable=True) as handle:
        for recipe in recipes:
            line = json.dumps(_recipe_to_record(recipe)) + "\n"
            handle.write(line.encode("utf-8"))
    return len(recipes)


def load_jsonl(path: str | Path) -> RecipeDataset:
    """Read a JSONL file written by :func:`save_jsonl`."""
    source = Path(path)
    if not source.exists():
        raise SerializationError(f"no such dataset file: {source}")
    recipes = []
    with source.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SerializationError(
                    f"invalid JSON at line {line_number} of {source}: {exc}"
                ) from exc
            recipes.append(_recipe_from_record(record, line_number))
    return RecipeDataset(recipes)


_CSV_FIELDS = ("recipe_id", "region_code", "ingredient_ids", "title", "source")


def save_csv(dataset: RecipeDataset | Iterable[Recipe], path: str | Path) -> int:
    """Write recipes to CSV (ingredient ids space-separated)."""
    recipes = dataset.recipes if isinstance(dataset, RecipeDataset) else tuple(dataset)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for recipe in recipes:
            writer.writerow(
                {
                    "recipe_id": recipe.recipe_id,
                    "region_code": recipe.region_code,
                    "ingredient_ids": " ".join(map(str, recipe.ingredient_ids)),
                    "title": recipe.title,
                    "source": recipe.source,
                }
            )
    return len(recipes)


def load_csv(path: str | Path) -> RecipeDataset:
    """Read a CSV file written by :func:`save_csv`."""
    source = Path(path)
    if not source.exists():
        raise SerializationError(f"no such dataset file: {source}")
    recipes = []
    with source.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for line_number, row in enumerate(reader, start=2):
            try:
                ids = tuple(int(i) for i in row["ingredient_ids"].split())
                recipes.append(
                    Recipe(
                        recipe_id=int(row["recipe_id"]),
                        region_code=row["region_code"],
                        ingredient_ids=ids,
                        title=row.get("title", ""),
                        source=row.get("source", ""),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise SerializationError(
                    f"malformed CSV row at line {line_number}: {exc}"
                ) from exc
    return RecipeDataset(recipes)


def save_raw_jsonl(raw_recipes: Iterable[RawRecipe], path: str | Path) -> int:
    """Write raw (pre-standardization) records to JSONL."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with target.open("w", encoding="utf-8") as handle:
        for raw in raw_recipes:
            handle.write(
                json.dumps(
                    {
                        "raw_id": raw.raw_id,
                        "title": raw.title,
                        "mentions": list(raw.mentions),
                        "continent": raw.continent,
                        "region": raw.region,
                        "country": raw.country,
                        "source": raw.source,
                        "instructions": raw.instructions,
                    }
                )
                + "\n"
            )
            count += 1
    return count


def load_raw_jsonl(path: str | Path) -> list[RawRecipe]:
    """Read raw records written by :func:`save_raw_jsonl`."""
    source = Path(path)
    if not source.exists():
        raise SerializationError(f"no such raw dataset file: {source}")
    raw_recipes = []
    with source.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                raw_recipes.append(
                    RawRecipe(
                        raw_id=int(record["raw_id"]),
                        title=str(record["title"]),
                        mentions=tuple(record["mentions"]),
                        continent=str(record["continent"]),
                        region=str(record["region"]),
                        country=str(record.get("country", "")),
                        source=str(record.get("source", "")),
                        instructions=str(record.get("instructions", "")),
                    )
                )
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise SerializationError(
                    f"malformed raw record at line {line_number}: {exc}"
                ) from exc
    return raw_recipes
