"""On-disk cache of mined rank-frequency curves (the mining fast path).

Mining is a pure function of ``(transactions, mining config)``: the same
recipe pool mined at the same support always yields the same frequent
itemsets, whatever produced the pool.
That makes mined curves content-addressable — the key is a SHA-256 over

* a fingerprint of the exact transactions mined
  (:func:`transactions_fingerprint`; order-sensitive across
  transactions, a set within one),
* the mining configuration (support threshold and size cap),
* the payload kind (aggregated frequencies vs a full
  :class:`~repro.analysis.itemsets.MiningResult`), and
* :data:`CURVE_FORMAT_VERSION`.

A :class:`CurveCache` shares its directory with the
:class:`~repro.runtime.cache.RunCache` (entries are namespaced by
suffix), so one ``--cache-dir`` warms both layers: the run cache skips
simulation, the curve cache skips re-mining — a warm
``repro experiment fig4`` performs zero mining calls.

Content addressing means invalidation is automatic: a different seed,
engine, model parameter or corpus produces different transactions and
therefore a different key; a changed mining config changes the key
directly.  Because every run is bit-identical across backends
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


def curve_key(
    transactions_fp: str,
    mining: MiningConfig,
    level: str = "ingredient",
    kind: str = "frequencies",
) -> str:
    """Cache key for one mined curve.

    The key covers every input that changes the *output* of mining:
    the transaction content, the support threshold and the size cap.
    There is one miner (DESIGN.md §6), so no miner name is keyed.

    Args:
        transactions_fp: :func:`transactions_fingerprint` of the mined
            transactions.
        mining: Mining configuration; a change to ``min_support`` or
            ``max_size`` keys a different entry.
        level: ``"ingredient"`` or ``"category"`` — recorded for
            observability even though the level conversion is already
            baked into the transaction content.
        kind: Payload kind: ``"frequencies"`` (a float ndarray, the
            ensemble path) or ``"mining"`` (a pickled
            :class:`~repro.analysis.itemsets.MiningResult`, the
            empirical path).  Distinct kinds must never alias.
    """
    payload = {
        "version": CURVE_FORMAT_VERSION,
        "kind": kind,
        "transactions": transactions_fp,
        "level": level,
        "mining": {
            "min_support": mining.min_support,
            "max_size": mining.max_size,
        },
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class CurveCache(PickleStore):
    """A directory of mined-curve payloads keyed by :func:`curve_key`.

    Payloads are either 1-D float arrays of descending normalized
    frequencies (ensemble per-run curves; labels are reattached by the
    caller, so one entry serves every labeling) or full
    :class:`~repro.analysis.itemsets.MiningResult` objects (empirical
    curves, whose callers also need the itemsets).  Shares its directory
    with :class:`~repro.runtime.cache.RunCache` — entries are
    namespaced by the ``.curve.pkl`` suffix.
    """

    suffix = ".curve.pkl"
