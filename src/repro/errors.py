"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the failure domain (lexicon, corpus,
model, ...) when they need to.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "LexiconError",
    "UnknownIngredientError",
    "UnknownCategoryError",
    "AliasConflictError",
    "CorpusError",
    "UnknownRegionError",
    "EmptyCorpusError",
    "SerializationError",
    "SynthesisError",
    "CalibrationError",
    "AnalysisError",
    "MiningError",
    "MetricError",
    "ModelError",
    "ParameterError",
    "ExperimentError",
    "ExecutionError",
    "RunCacheError",
]


class ReproError(Exception):
    """Base class for all errors raised by the library."""


# ---------------------------------------------------------------------------
# Lexicon domain
# ---------------------------------------------------------------------------


class LexiconError(ReproError):
    """A problem with the ingredient lexicon or its construction."""


class UnknownIngredientError(LexiconError, KeyError):
    """An ingredient name or id could not be resolved against the lexicon."""

    def __init__(self, query: str):
        super().__init__(f"unknown ingredient: {query!r}")
        self.query = query


class UnknownCategoryError(LexiconError, KeyError):
    """A category name could not be resolved against the 21 paper categories."""

    def __init__(self, query: str):
        super().__init__(f"unknown ingredient category: {query!r}")
        self.query = query


class AliasConflictError(LexiconError):
    """Two distinct lexicon entities claim the same alias."""

    def __init__(self, alias: str, first: str, second: str):
        super().__init__(
            f"alias {alias!r} maps to both {first!r} and {second!r}"
        )
        self.alias = alias
        self.first = first
        self.second = second


# ---------------------------------------------------------------------------
# Corpus domain
# ---------------------------------------------------------------------------


class CorpusError(ReproError):
    """A problem with recipe data or datasets."""


class UnknownRegionError(CorpusError, KeyError):
    """A region code or name is not one of the paper's 25 regions."""

    def __init__(self, query: str):
        super().__init__(f"unknown region: {query!r}")
        self.query = query


class EmptyCorpusError(CorpusError):
    """An operation that requires recipes was applied to an empty dataset."""


class SerializationError(CorpusError):
    """Reading or writing a dataset failed."""


# ---------------------------------------------------------------------------
# Storage domain
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Synthesis domain
# ---------------------------------------------------------------------------


class SynthesisError(ReproError):
    """A problem while generating the synthetic corpus."""


class CalibrationError(SynthesisError):
    """Generated data failed to match its calibration targets."""


# ---------------------------------------------------------------------------
# Analysis domain
# ---------------------------------------------------------------------------


class AnalysisError(ReproError):
    """A problem in a statistical analysis routine."""


class MiningError(AnalysisError):
    """A problem during frequent-itemset mining."""


class MetricError(AnalysisError):
    """A distance/similarity metric was given invalid input."""


# ---------------------------------------------------------------------------
# Models domain
# ---------------------------------------------------------------------------


class ModelError(ReproError):
    """A problem inside a culinary evolution model."""


class ParameterError(ModelError, ValueError):
    """Model parameters are inconsistent or out of range."""


# ---------------------------------------------------------------------------
# Experiments domain
# ---------------------------------------------------------------------------


class ExperimentError(ReproError):
    """A problem while running an experiment driver."""


# ---------------------------------------------------------------------------
# Runtime domain
# ---------------------------------------------------------------------------


class ExecutionError(ReproError):
    """A problem in the parallel execution runtime (backends, jobs)."""


class RunCacheError(ExecutionError):
    """A problem reading or writing the on-disk run cache."""
