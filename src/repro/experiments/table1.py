"""Experiment ``table1``: regenerate Table I.

Per cuisine: recipe count, unique-ingredient count, and the top five
overrepresented ingredients (Eq. 1), side by side with the paper's
published values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.overrepresentation import top_overrepresented
from repro.corpus.regions import get_region
from repro.experiments.base import ExperimentContext
from repro.runtime import select_regions
from repro.viz.ascii import render_table
from repro.viz.export import write_csv

__all__ = ["Table1Row", "Table1Result", "run_table1"]


@dataclass(frozen=True)
class Table1Row:
    """One cuisine's Table I row, measured vs published.

    Attributes:
        region_code: Cuisine.
        n_recipes: Measured recipe count.
        paper_recipes: Published recipe count (unscaled).
        n_ingredients: Measured unique ingredients.
        paper_ingredients: Published unique ingredients.
        top5: Measured top-5 overrepresented ingredient names.
        paper_top5: Published top-5 (or six, for INSC) names.
        overlap: |measured ∩ published| for the top-5 sets.
    """

    region_code: str
    n_recipes: int
    paper_recipes: int
    n_ingredients: int
    paper_ingredients: int
    top5: tuple[str, ...]
    paper_top5: tuple[str, ...]
    overlap: int


@dataclass(frozen=True)
class Table1Result:
    """Regenerated Table I."""

    rows: tuple[Table1Row, ...]
    scale: float

    def mean_top5_overlap(self) -> float:
        """Average overlap between measured and published top-5 sets."""
        return sum(row.overlap for row in self.rows) / len(self.rows)

    def render(self) -> str:
        table_rows = [
            (
                row.region_code,
                row.n_recipes,
                row.paper_recipes,
                row.n_ingredients,
                row.paper_ingredients,
                ", ".join(row.top5),
                f"{row.overlap}/5",
            )
            for row in self.rows
        ]
        return render_table(
            (
                "Region", "Recipes", "Paper", "Ingredients", "Paper",
                "Top-5 overrepresented (measured)", "Overlap",
            ),
            table_rows,
            title=(
                f"Table I reproduction (scale={self.scale}); mean top-5 "
                f"overlap {self.mean_top5_overlap():.2f}/5"
            ),
        )

    def to_payload(self) -> dict:
        return {
            "experiment": "table1",
            "scale": self.scale,
            "mean_top5_overlap": self.mean_top5_overlap(),
            "rows": [
                {
                    "region": row.region_code,
                    "recipes": row.n_recipes,
                    "paper_recipes": row.paper_recipes,
                    "ingredients": row.n_ingredients,
                    "paper_ingredients": row.paper_ingredients,
                    "top5": list(row.top5),
                    "paper_top5": list(row.paper_top5),
                    "overlap": row.overlap,
                }
                for row in self.rows
            ],
        }


def run_table1(
    context: ExperimentContext,
    k: int = 5,
    region_codes: tuple[str, ...] | None = None,
) -> Table1Result:
    """Regenerate Table I from the context's corpus.

    The cuisine grid is resolved through the sweep API
    (:func:`repro.runtime.select_regions`) — same selection and
    validation semantics as the model-grid experiments.
    """

    def row_for(code: str) -> Table1Row:
        region = get_region(code)
        view = context.dataset.cuisine(code)
        top = top_overrepresented(context.dataset, code, context.lexicon, k=k)
        names = tuple(entry.name for entry in top)
        return Table1Row(
            region_code=code,
            n_recipes=view.n_recipes,
            paper_recipes=region.n_recipes,
            n_ingredients=view.n_ingredients,
            paper_ingredients=region.n_ingredients,
            top5=names,
            paper_top5=region.overrepresented,
            overlap=len(set(names) & set(region.overrepresented)),
        )

    codes = select_regions(context.dataset.region_codes(), region_codes)
    rows = tuple(row_for(code) for code in codes)
    result = Table1Result(rows=rows, scale=context.scale)
    path = context.artifact_path("table1.csv")
    if path is not None:
        write_csv(
            path,
            ("region", "recipes", "paper_recipes", "ingredients",
             "paper_ingredients", "top5", "paper_top5", "overlap"),
            [
                (row.region_code, row.n_recipes, row.paper_recipes,
                 row.n_ingredients, row.paper_ingredients,
                 ";".join(row.top5), ";".join(row.paper_top5), row.overlap)
                for row in result.rows
            ],
        )
    return result
