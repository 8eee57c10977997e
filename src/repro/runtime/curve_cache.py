"""On-disk cache of mined rank-frequency curves (the mining fast path).

Mining is a pure function of ``(transactions, mining config)``, so a
mined curve can be keyed by anything that determines its transactions.
There are two kinds of curve, and each is keyed by the cheapest name
that determines it:

* **Model curves** (one per simulated run, the ensemble path) are keyed
  by :func:`run_curve_key`: a SHA-256 over the run's run-cache key
  (:func:`~repro.runtime.cache.fingerprint_many`: model, parameters,
  spec, seed, resolved engine and its stream version), the level, the
  mining configuration, the payload kind and
  :data:`CURVE_FORMAT_VERSION`.  The run key already names every input
  that decides the run, and the run cache already trusts it, so a
  model curve is found without reading or hashing the run's plane.
  The category level maps ingredients through the run's spec, which
  the run key covers.
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
parameter or spec changes the run key, a different corpus changes the
content fingerprint, and a changed mining config or level changes the
key directly.  Because run keys and runs are identical across backends
(DESIGN.md §5), a curve cache warmed by a process-parallel sweep is
reused verbatim by a serial rerun.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

import numpy as np

from repro.config import MiningConfig
from repro.runtime.cache import PickleStore
from repro.transactions import TransactionPlane

__all__ = [
    "CURVE_FORMAT_VERSION",
    "CurveCache",
    "curve_key",
    "fingerprint_planes",
    "run_curve_key",
    "transactions_fingerprint",
]

#: Bump when the key layout or the pickled payload layout changes; old
#: entries then miss instead of deserializing garbage.
CURVE_FORMAT_VERSION = 2


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
    (which deduplicates each row).  See :func:`fingerprint_planes` for
    the digest itself.
    """
    plane = TransactionPlane.of(transactions)
    lengths, flat = plane.csr()
    return fingerprint_planes(lengths, plane.ids[flat])


def fingerprint_planes(lengths: np.ndarray, flat: np.ndarray) -> str:
    """:func:`transactions_fingerprint` computed from CSR-shaped planes.

    The digest core shared by transaction planes and the columnar
    store: ``lengths`` holds each transaction's item count, ``flat``
    the concatenated items in transaction order.  A vectorized
    splitmix64 scramble of the items is summed per transaction
    (commutative, so within-transaction ordering cannot leak in), and
    SHA-256 runs over the length and digest arrays.  A columnar
    corpus's (sorted) CSR planes therefore fingerprint identically to
    the same recipes held in a plane, and one warm :class:`CurveCache`
    serves both paths.  An accidental collision needs two *different*
    transactions at the same position whose scrambled-item sums agree,
    a ~2^-64 event.

    Args:
        lengths: ``(n,)`` per-transaction item counts, int64-compatible.
        flat: Concatenated items (each transaction duplicate-free),
            int64-compatible, ``flat.size == lengths.sum()``.
    """
    lengths = np.ascontiguousarray(lengths, dtype="<i8")
    flat = np.ascontiguousarray(flat, dtype="<i8")
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
    keyed.  Model runs are keyed by :func:`run_curve_key` instead.

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


def run_curve_key(
    run_key: str,
    mining: MiningConfig,
    level: str = "ingredient",
    kind: str = "frequencies",
) -> str:
    """Key for the mined curve of one model run, named by its run key.

    A run is a pure function of the inputs its run-cache key covers
    (:func:`~repro.runtime.cache.fingerprint_many`), so its curve is a
    pure function of that key, the level and the mining configuration;
    no plane is read to key it.  The payload carries a ``run`` field
    where :func:`curve_key`'s carries ``transactions``, so the two
    schemes never alias.

    Args:
        run_key: The run's run-cache key.
        mining: Mining configuration; a change to ``min_support`` or
            ``max_size`` keys a different entry.
        level: ``"ingredient"`` or ``"category"``.  Both levels mine the
            same run, so the level is what keeps them apart.
        kind: Payload kind (``"frequencies"`` on the ensemble path).
    """
    return _digest({
        "version": CURVE_FORMAT_VERSION,
        "kind": kind,
        "run": run_key,
        "level": level,
        "mining": _mining_payload(mining),
    })


class CurveCache(PickleStore):
    """A directory of mined-curve payloads keyed by :func:`run_curve_key`
    (model runs) or :func:`curve_key` (empirical curves).

    Payloads are either 1-D float arrays of descending normalized
    frequencies (ensemble per-run curves; labels are reattached by the
    caller, so one entry serves every labeling) or full
    :class:`~repro.analysis.itemsets.MiningResult` objects (empirical
    curves, whose callers also need the itemsets).  Shares its directory
    with :class:`~repro.runtime.cache.RunCache` — entries are
    namespaced by the ``.curve.pkl`` suffix.  Curve keys predate the
    frame, so an unframed older entry reads as one recorded ``torn``
    miss and the curve is re-mined.
    """

    suffix = ".curve.pkl"
    format_version = CURVE_FORMAT_VERSION
