"""On-disk cache of mined rank-frequency curves (the mining fast path).

Mining is a pure function of ``(transactions, mining config)``, so a
mined curve can be keyed by anything that determines its transactions.
There are two kinds of curve, and each is keyed by the cheapest name
that determines it:

* **Model curves** (one entry per ensemble cell, holding the per-run
  curves of its runs) are keyed by :func:`cell_curve_key`: a SHA-256
  over the cell's ordered run-cache keys
  (:func:`~repro.runtime.cache.fingerprint_many`: model, parameters,
  spec, seed, resolved engine and its stream version), the level, the
  mining configuration, the payload kind and
  :data:`CURVE_FORMAT_VERSION`.  The run keys already name every input
  that decides the runs, and the run cache already trusts them, so a
  cell's curves are found without reading or hashing a plane.  The
  category level maps ingredients through the runs' spec, which the
  run keys cover.  A cell hits whole or is mined whole.
* **Empirical curves** (one per corpus cuisine) are keyed by
  :func:`curve_key`, over a fingerprint of the exact transactions mined
  (:func:`transactions_fingerprint`; order-sensitive across
  transactions, a set within one).  A corpus has no run key, so its
  curves stay content-addressed.

A :class:`CurveCache` shares its directory with the
:class:`~repro.runtime.cache.RunCache` (entries are namespaced by
suffix), so one ``--cache-dir`` warms both layers: the run cache skips
simulation, the curve cache skips re-mining — a warm
``repro experiment fig4`` performs zero mining calls.

Invalidation is automatic either way: a different seed, engine, model
parameter or spec changes a run key, a different corpus changes the
content fingerprint, and a changed mining config or level changes the
key directly.  Because run keys and runs are identical across backends
(DESIGN.md §5), a curve cache warmed by a process-parallel sweep is
reused verbatim by a serial rerun.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Sequence

import numpy as np

from repro.config import MiningConfig
from repro.runtime.cache import PickleStore
from repro.transactions import TransactionPlane

__all__ = [
    "CURVE_FORMAT_VERSION",
    "CurveCache",
    "cell_curve_key",
    "curve_key",
    "transactions_fingerprint",
]

#: Bump when the key layout or the pickled payload layout changes; old
#: entries then miss instead of deserializing garbage.
#: v3: one entry per ensemble cell (:func:`cell_curve_key`), holding
#: the tuple of its runs' frequency arrays, in the protocol-5 frame.
CURVE_FORMAT_VERSION = 3


def _mix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — a bijective 64-bit scramble."""
    x = values + np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def transactions_fingerprint(
    transactions: Iterable[Iterable[int]],
) -> str:
    """SHA-256 over the exact transaction content to be mined.

    Transactions are hashed in order (run results are ordered); within
    a transaction the combination is a set — item order and repeats do
    not count, exactly as they do not count for mining.  Two pools with
    equal content — whatever model, seed or backend produced them —
    share a fingerprint, which is exactly when their mined curves
    coincide.

    A :class:`~repro.transactions.TransactionPlane` is hashed straight
    from its arrays; any other iterable is converted into one first
    (which deduplicates each row).  A vectorized splitmix64 scramble of
    the items is summed per transaction (commutative, so
    within-transaction ordering cannot leak in), and SHA-256 runs over
    the length and digest arrays.  An accidental collision needs two
    *different* transactions at the same position whose scrambled-item
    sums agree, a ~2^-64 event.
    """
    plane = TransactionPlane.of(transactions)
    lengths, positions = plane.csr()
    lengths = np.ascontiguousarray(lengths, dtype="<i8")
    flat = np.ascontiguousarray(plane.ids[positions], dtype="<i8")
    hasher = hashlib.sha256()
    with np.errstate(over="ignore"):
        mixed = _mix64(flat.view("<u8"))
        sums = np.zeros(lengths.size, dtype="<u8")
        nonzero = lengths > 0
        if flat.size:
            # Consecutive nonzero segment starts delimit exactly the
            # per-transaction slices (empty segments have zero width).
            starts = (np.cumsum(lengths) - lengths)[nonzero]
            sums[nonzero] = np.add.reduceat(mixed, starts.astype(np.intp))
        digests = _mix64(sums ^ _mix64(lengths.view("<u8")))
    hasher.update(lengths.tobytes())
    hasher.update(digests.tobytes())
    return hasher.hexdigest()


def _digest(payload: dict) -> str:
    """SHA-256 over the canonical JSON encoding of a key payload."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _mining_payload(mining: MiningConfig) -> dict:
    return {"min_support": mining.min_support, "max_size": mining.max_size}


def curve_key(
    transactions_fp: str,
    mining: MiningConfig,
    level: str = "ingredient",
    kind: str = "frequencies",
) -> str:
    """Content key for one mined curve of transactions with no run key.

    The empirical path: a corpus cuisine has no run key, so its curve
    is keyed by the transaction content, the support threshold and the
    size cap.  There is one miner (DESIGN.md §6), so no miner name is
    keyed.  Model cells are keyed by :func:`cell_curve_key` instead.

    Args:
        transactions_fp: :func:`transactions_fingerprint` of the mined
            transactions.
        mining: Mining configuration; a change to ``min_support`` or
            ``max_size`` keys a different entry.
        level: ``"ingredient"`` or ``"category"`` — recorded for
            observability even though the level conversion is already
            baked into the transaction content.
        kind: Payload kind: ``"frequencies"`` (a float ndarray) or
            ``"mining"`` (a pickled
            :class:`~repro.analysis.itemsets.MiningResult`, the
            empirical path).  Distinct kinds must never alias.
    """
    return _digest({
        "version": CURVE_FORMAT_VERSION,
        "kind": kind,
        "transactions": transactions_fp,
        "level": level,
        "mining": _mining_payload(mining),
    })


def cell_curve_key(
    run_keys: Sequence[str],
    mining: MiningConfig,
    level: str = "ingredient",
    kind: str = "frequencies",
) -> str:
    """Key for the mined curves of one ensemble cell, named by its runs'
    keys.

    A run is a pure function of the inputs its run-cache key covers
    (:func:`~repro.runtime.cache.fingerprint_many`), so a cell's per-run
    curves are a pure function of its ordered run keys, the level and
    the mining configuration; no plane is read to key them.  The
    payload carries a ``runs`` field where :func:`curve_key`'s carries
    ``transactions``, so the two schemes never alias.

    Args:
        run_keys: The cell's run-cache keys, in run order.
        mining: Mining configuration; a change to ``min_support`` or
            ``max_size`` keys a different entry.
        level: ``"ingredient"`` or ``"category"``.  Both levels mine the
            same runs, so the level is what keeps them apart.
        kind: Payload kind (``"frequencies"`` on the ensemble path).
    """
    return _digest({
        "version": CURVE_FORMAT_VERSION,
        "kind": kind,
        "runs": list(run_keys),
        "level": level,
        "mining": _mining_payload(mining),
    })


class CurveCache(PickleStore):
    """A directory of mined-curve payloads keyed by :func:`cell_curve_key`
    (model cells) or :func:`curve_key` (empirical curves).

    Payloads are either tuples of 1-D float arrays of descending
    normalized frequencies, one per run of an ensemble cell (unlabelled:
    the caller averages them as arrays and labels only the average, so
    one entry serves every labeling), or full
    :class:`~repro.analysis.itemsets.MiningResult` objects (empirical
    curves, whose callers also need the itemsets).  Shares its directory
    with :class:`~repro.runtime.cache.RunCache` — entries are
    namespaced by the ``.curve.pkl`` suffix.
    """

    suffix = ".curve.pkl"
    format_version = CURVE_FORMAT_VERSION
