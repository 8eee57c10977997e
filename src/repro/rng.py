"""Random-number discipline for the library.

Every stochastic component in :mod:`repro` takes either an integer seed or
a :class:`numpy.random.Generator`.  This module centralizes the coercion
rules so that results are reproducible bit-for-bit for a fixed seed and so
that independent subsystems can derive *independent* child streams from a
single root seed (via :func:`spawn`).
"""

from __future__ import annotations

from typing import Iterator, Sequence, TypeVar, Union

import numpy as np

__all__ = [
    "SeedLike",
    "ensure_rng",
    "spawn",
    "spawn_seeds",
    "rng_from_seed",
    "derive_seed",
    "choice_index",
    "shuffled",
]

SeedLike = Union[int, np.random.Generator, None]

T = TypeVar("T")

#: Default root seed used across examples and experiments when the caller
#: does not provide one.  Chosen arbitrarily; fixed for reproducibility.
DEFAULT_SEED = 20190408  # ICDE 2019 week.


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Args:
        seed: ``None`` (fresh nondeterministic generator), an ``int`` seed,
            or an existing ``Generator`` (returned unchanged).

    Returns:
        A numpy random generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(
        f"seed must be None, int, or numpy Generator, got {type(seed).__name__}"
    )


def spawn_seeds(rng: np.random.Generator, n: int) -> list[int]:
    """Draw ``n`` independent 63-bit child seeds from ``rng``.

    This is the transportable half of :func:`spawn`: integer seeds can
    cross process boundaries and key on-disk caches, and
    :func:`rng_from_seed` reconstructs the exact child generator
    :func:`spawn` would have produced.  The draw consumes ``rng`` state
    exactly like :func:`spawn` does, so the two are interchangeable
    without disturbing downstream streams.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of seeds: {n}")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [int(s) for s in seeds]


def rng_from_seed(seed: int) -> np.random.Generator:
    """Reconstruct the child generator for one :func:`spawn_seeds` seed.

    Every backend of :mod:`repro.runtime` builds its per-run generators
    through this single function, which is what makes serial, process
    and distributed execution bit-identical for a fixed master seed.
    """
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators from ``rng``.

    Children are derived through :class:`numpy.random.SeedSequence`
    spawning, so different children never share a stream even when used
    concurrently.
    """
    return [rng_from_seed(seed) for seed in spawn_seeds(rng, n)]


def derive_seed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit integer seed from ``rng``.

    Useful when a child component accepts only integer seeds.
    """
    return int(rng.integers(0, 2**63 - 1, dtype=np.int64))


def choice_index(rng: np.random.Generator, n: int) -> int:
    """Return a uniform index in ``[0, n)``.

    Thin wrapper that raises a clear error for empty ranges instead of the
    opaque numpy message.
    """
    if n <= 0:
        raise ValueError("cannot choose from an empty range")
    return int(rng.integers(0, n))


def shuffled(rng: np.random.Generator, items: Sequence[T]) -> list[T]:
    """Return a new list with the elements of ``items`` in random order."""
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def iter_child_rngs(seed: SeedLike, n: int) -> Iterator[np.random.Generator]:
    """Yield ``n`` independent generators derived from ``seed``."""
    root = ensure_rng(seed)
    yield from spawn(root, n)
