"""Experiment framework.

An *experiment* regenerates one paper artifact (a table or figure) from a
calibrated synthetic corpus.  :class:`ExperimentContext` bundles the
shared inputs — lexicon, corpus, mining configuration, ensemble sizing —
so every experiment driver is a pure function
``run_<id>(context) -> <Result>``; result objects know how to render
themselves as text and to export their underlying series.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Protocol

from repro.config import DEFAULT_MINING, MiningConfig
from repro.corpus.dataset import RecipeDataset
from repro.errors import ExperimentError
from repro.lexicon.builder import standard_lexicon
from repro.lexicon.lexicon import Lexicon
from repro.rng import DEFAULT_SEED
from repro.runtime import CurveCache, RuntimeConfig, select_regions
from repro.synthesis.worldgen import WorldKitchen

__all__ = ["ExperimentContext", "ExperimentResultProtocol"]


class ExperimentResultProtocol(Protocol):
    """What every experiment result can do."""

    def render(self) -> str:
        """Human-readable report (tables/plots as text)."""
        ...  # pragma: no cover - protocol

    def to_payload(self) -> dict:
        """JSON-serializable summary of the result."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class ExperimentContext:
    """Shared inputs for experiment drivers.

    Attributes:
        lexicon: The standardized ingredient lexicon.
        dataset: The (synthetic) empirical corpus.
        scale: Scale the corpus was generated at (1.0 = full Table I
            counts).
        seed: Root seed for any model runs inside experiments.
        mining: Frequent-combination mining configuration (paper: 0.05).
        ensemble_runs: Model runs aggregated per (model, cuisine) —
            the paper uses 100; interactive contexts default lower.
        artifacts_dir: Where results write CSV/JSON artifacts (``None``
            disables writing).
        runtime: Execution backend/jobs/cache for model ensembles and
            per-cuisine fan-out (:mod:`repro.runtime`); the default is
            serial with no cache, and results are backend-independent
            for a fixed ``seed``.
        engine: Simulation engine for every model the experiments
            instantiate (``"reference"`` or ``"batched"``); ``None``
            keeps each model's default (batched, which executes each
            ensemble's uncached runs as one stacked pass; CM-V runs on
            reference; DESIGN.md §7).
            Part of the run cache key, so switching engines never
            replays another engine's cached runs.
    """

    lexicon: Lexicon
    dataset: RecipeDataset
    scale: float
    seed: int = DEFAULT_SEED
    mining: MiningConfig = DEFAULT_MINING
    ensemble_runs: int = 10
    artifacts_dir: Path | None = None
    runtime: RuntimeConfig = RuntimeConfig()
    engine: str | None = None

    @classmethod
    def create(
        cls,
        scale: float = 0.1,
        seed: int = DEFAULT_SEED,
        region_codes: tuple[str, ...] | None = None,
        mining: MiningConfig = DEFAULT_MINING,
        ensemble_runs: int = 10,
        artifacts_dir: str | Path | None = None,
        lexicon: Lexicon | None = None,
        runtime: RuntimeConfig | None = None,
        engine: str | None = None,
        corpus_path: str | Path | None = None,
    ) -> "ExperimentContext":
        """Build a context with a freshly generated corpus.

        Args:
            scale: Corpus scale (1.0 reproduces full Table I counts).
            seed: Root seed (corpus and model runs derive from it).
            region_codes: Regions to include (default all 25).
            mining: Mining configuration.
            ensemble_runs: Runs per model ensemble.
            artifacts_dir: Optional artifact output directory.
            lexicon: Override lexicon (default: the standard 721-entity
                one).
            runtime: Execution runtime configuration (default serial).
            engine: Simulation engine for model runs —
                ``"reference"`` or ``"batched"`` (default: each
                model's own, i.e. batched).
            corpus_path: Open a packed columnar corpus (DESIGN.md §11)
                instead of generating one; ``scale``/``seed`` then do
                not shape the corpus (seed still drives model runs) and
                ``region_codes`` selects from it.  The experiments' model
                calibration needs object views, so the corpus is
                materialized here — packing wins by making worldgen a
                one-time cost, not by keeping experiments zero-copy.

        Raises:
            ExecutionError: If ``region_codes`` names a cuisine the
                packed corpus lacks, or names one twice.
        """
        if scale <= 0:
            raise ExperimentError(f"scale must be > 0, got {scale}")
        if ensemble_runs < 1:
            raise ExperimentError(
                f"ensemble_runs must be >= 1, got {ensemble_runs}"
            )
        lex = lexicon if lexicon is not None else standard_lexicon()
        if corpus_path is not None:
            from repro.storage.columnar import ColumnarCorpus

            with ColumnarCorpus.open(corpus_path) as corpus:
                dataset = corpus.to_dataset()
            if region_codes is not None:
                # Against the corpus itself, not the global region
                # table: a code the corpus lacks must fail, not vanish.
                dataset = dataset.subset(
                    select_regions(dataset.region_codes(), region_codes)
                )
        else:
            kitchen = WorldKitchen(lex, seed=seed)
            dataset = kitchen.generate_dataset(
                region_codes=region_codes, scale=scale
            )
        return cls(
            lexicon=lex,
            dataset=dataset,
            scale=scale,
            seed=seed,
            mining=mining,
            ensemble_runs=ensemble_runs,
            artifacts_dir=Path(artifacts_dir) if artifacts_dir else None,
            runtime=runtime if runtime is not None else RuntimeConfig(),
            engine=engine,
        )

    def with_dataset(self, dataset: RecipeDataset) -> "ExperimentContext":
        """Copy of this context over a different corpus."""
        return replace(self, dataset=dataset)

    def with_runtime(self, runtime: RuntimeConfig) -> "ExperimentContext":
        """Copy of this context executing through a different runtime."""
        return replace(self, runtime=runtime)

    def curve_cache(self) -> CurveCache | None:
        """The mined-curve cache this context's runtime implies.

        ``None`` without a ``runtime.cache_dir``.  One instance per call
        so drivers can read its hit/miss stats for exactly their own
        lookups; every instance shares the same on-disk store.
        """
        if self.runtime.cache_dir is None:
            return None
        return CurveCache(self.runtime.cache_dir)

    def artifact_path(self, name: str) -> Path | None:
        """Path for an artifact file, or ``None`` if writing is disabled."""
        if self.artifacts_dir is None:
            return None
        return self.artifacts_dir / name
