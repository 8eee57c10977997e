"""Popularity models for the synthetic corpus.

The culinary literature the paper builds on (refs [3]-[8]) consistently
reports Zipf-like ingredient rank-frequency distributions.  The
WorldKitchen generator therefore equips every cuisine with a Zipf
popularity vector over its vocabulary, and samples recipes *without
replacement* proportionally to (boosted) popularity using the Gumbel
top-k trick — equivalent to Plackett-Luce sampling, but vectorizable
across thousands of recipes at once.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SynthesisError

__all__ = [
    "zipf_weights",
    "gumbel_topk",
    "gumbel_topk_flat",
    "truncated_normal_sizes",
]


def zipf_weights(n: int, exponent: float = 0.9) -> np.ndarray:
    """Normalized Zipf weight vector of length ``n``.

    ``weights[r] ∝ (r + 1) ** -exponent`` — rank 0 is the most popular.

    Args:
        n: Vocabulary size.
        exponent: Zipf exponent ``s``; larger = steeper head.

    Returns:
        A float array summing to 1.
    """
    if n < 1:
        raise SynthesisError(f"vocabulary size must be >= 1, got {n}")
    if exponent < 0:
        raise SynthesisError(f"zipf exponent must be >= 0, got {exponent}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -exponent
    return weights / weights.sum()


def gumbel_topk(
    rng: np.random.Generator,
    log_weights: np.ndarray,
    sizes: np.ndarray,
) -> list[np.ndarray]:
    """Weighted sampling without replacement for many draws at once.

    Adding i.i.d. Gumbel noise to log-weights and taking the top-k indices
    draws ``k`` items without replacement with probabilities proportional
    to the weights (the Gumbel-max construction of Plackett-Luce).

    Args:
        rng: Random generator.
        log_weights: ``(V,)`` log weight vector (``-inf`` excludes items).
        sizes: ``(G,)`` integer array; row ``g`` draws ``sizes[g]`` items.

    Returns:
        A list of ``G`` index arrays, each of length ``sizes[g]``,
        ordered by descending perturbed score.
    """
    ranked = _ranked(rng, log_weights, sizes)
    return [ranked[row, : int(sizes[row])] for row in range(sizes.size)]


def gumbel_topk_flat(
    rng: np.random.Generator,
    log_weights: np.ndarray,
    sizes: np.ndarray,
) -> np.ndarray:
    """:func:`gumbel_topk` with its rows concatenated in row order.

    Consumes ``rng`` exactly as :func:`gumbel_topk` does, so both give
    the same draws; this one builds no per-row array.
    """
    ranked = _ranked(rng, log_weights, sizes)
    return ranked[np.arange(ranked.shape[1]) < sizes[:, None]]


def _ranked(
    rng: np.random.Generator,
    log_weights: np.ndarray,
    sizes: np.ndarray,
) -> np.ndarray:
    """``(G, max(sizes))`` item indexes, each row by descending score."""
    if log_weights.ndim != 1:
        raise SynthesisError("log_weights must be one-dimensional")
    n_rows = int(sizes.size)
    if n_rows == 0:
        return np.empty((0, 0), dtype=np.int64)
    vocabulary = log_weights.size
    max_k = int(sizes.max())
    if max_k > vocabulary:
        raise SynthesisError(
            f"cannot draw {max_k} distinct items from a vocabulary of "
            f"{vocabulary}"
        )
    gumbel = rng.gumbel(size=(n_rows, vocabulary))
    scores = log_weights[None, :] + gumbel
    # argpartition to the largest max_k, then order those by score.
    top = np.argpartition(scores, vocabulary - max_k, axis=1)[:, vocabulary - max_k:]
    top_scores = np.take_along_axis(scores, top, axis=1)
    order = np.argsort(-top_scores, axis=1)
    return np.take_along_axis(top, order, axis=1)


def truncated_normal_sizes(
    rng: np.random.Generator,
    count: int,
    mean: float,
    sigma: float,
    lower: int,
    upper: int,
    max_tries: int = 64,
) -> np.ndarray:
    """Integer recipe sizes from a truncated normal (Fig. 1's shape).

    Draws are rounded then resampled while out of ``[lower, upper]``;
    stubborn leftovers are clipped (the tail mass involved is tiny).

    Args:
        rng: Random generator.
        count: Number of sizes to draw.
        mean: Target mean before truncation.
        sigma: Standard deviation before truncation.
        lower: Inclusive lower bound (paper: 2).
        upper: Inclusive upper bound (paper: 38).
        max_tries: Resampling rounds before clipping.

    Returns:
        ``(count,)`` int64 array within bounds.
    """
    if lower > upper:
        raise SynthesisError(f"invalid size bounds [{lower}, {upper}]")
    if count < 0:
        raise SynthesisError(f"count must be >= 0, got {count}")
    sizes = np.rint(rng.normal(mean, sigma, size=count)).astype(np.int64)
    for _ in range(max_tries):
        bad = (sizes < lower) | (sizes > upper)
        n_bad = int(bad.sum())
        if n_bad == 0:
            break
        sizes[bad] = np.rint(rng.normal(mean, sigma, size=n_bad)).astype(np.int64)
    return np.clip(sizes, lower, upper)
