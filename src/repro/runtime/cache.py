"""On-disk cache of completed :class:`~repro.models.base.EvolutionRun`s.

Runs are pure functions of ``(model configuration, cuisine spec, seed,
record_history)``, so they cache perfectly: a run's key is a SHA-256
over a canonical JSON encoding of exactly those inputs (plus a format
version).  An entry holds one work item — a batched cell, one
reference run or one archipelago execution — as the tuple of its runs,
keyed by :func:`item_key` over the item's ordered run keys, so a cold
100-run batched cell creates one file rather than a hundred.  Because
every backend derives the same per-run integer seeds
(:func:`repro.rng.spawn_seeds`) and plans the same items, a cache
populated by a process-parallel sweep is byte-for-byte reusable by a
serial rerun — and vice versa — which is what lets experiments resume
and share runs across invocations.

Entries are written through :mod:`repro.durable`: atomically (temp
file + rename, so a cache directory can be shared by concurrent
workers) and inside a SHA-256 frame, but without fsync — an entry is
recomputable, so one torn or bit-flipped by a crash or a bad disk is
detected on read and evicted as a miss rather than raised, with a
:class:`~repro.runtime.events.CacheCorruption` in the runtime event log
(:func:`~repro.runtime.events.cache_corruptions`; recorded in a worker,
it is replayed in the caller).

The storage mechanics live in :class:`PickleStore` so sibling stores can
share one directory, distinguished by entry suffix: :class:`RunCache`
(``*.run.pkl``, this module) holds simulation outputs and
:class:`~repro.runtime.curve_cache.CurveCache` (``*.curve.pkl``) holds
mined rank-frequency curves layered on top of them.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import pickle
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, ClassVar, Mapping, NamedTuple, Sequence

import numpy as np

from repro import durable
from repro.errors import RunCacheError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.models.base import CulinaryEvolutionModel, EvolutionRun
    from repro.models.params import CuisineSpec

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheDiskStats",
    "CacheStats",
    "PickleStore",
    "RunCache",
    "SweepCounts",
    "fingerprint_many",
    "item_key",
    "run_fingerprint",
]

#: Bump when the canonical encoding or the pickled payload layout
#: changes; old entries then miss instead of deserializing garbage.
#: v2: the payload gained the resolved engine + RNG-stream contract
#: version (``ModelParams`` also grew the ``engine`` field), so
#: reference and vectorized runs can never share an entry.
#: v3: the ``"batched"`` engine landed (its own key space under
#: ``BATCHED_STREAM_VERSION``), ``ENGINES`` grew a third member, and
#: CM-V gained a vectorized step — keys that previously resolved to
#: its reference engine now resolve to vectorized (DESIGN.md §7).
#: v4: the island engine landed (DESIGN.md §10) — the pickled payload
#: layout changed (``EvolutionTraceCounters`` gained
#: ``recipes_borrowed``), so pre-v4 entries would unpickle traces
#: missing the attribute; they miss and re-run instead.
#: Retiring the ``"vectorized"`` engine needed no bump: ``reference``
#: and ``batched`` keys keep their meaning, and ``vectorized`` keys
#: (CM-V's included — it now resolves to reference) are never looked
#: up again.
#: v5: runs carry a :class:`~repro.transactions.TransactionPlane` that
#: pickles as its position arrays; v4 entries hold frozenset lists
#: and miss instead of replaying the old representation.
#: v6: entries are stored inside the :mod:`repro.durable` checksum
#: frame, so a torn or bit-flipped entry reads as a recorded miss; v5
#: entries are plain pickles under keys that are never looked up again.
#: v7: one entry per work item (:func:`item_key`), holding the tuple of
#: its runs, in the protocol-5 frame with out-of-band buffers; v6
#: entries hold one run each under keys that are never looked up again.
CACHE_FORMAT_VERSION = 7


#: Types ``_canonical`` returns as they are; a spec is mostly these.
_SCALARS = frozenset({bool, int, float, str, type(None)})


def _canonical(value: object) -> object:
    """Reduce ``value`` to a JSON-stable structure for fingerprinting.

    Dataclasses and plain objects carry their class name plus their
    attribute state (two models with equal params must not collide, and
    user-supplied strategies — a plain class implementing the
    ``FitnessStrategy`` protocol — must key on *what they are*, never
    on ``repr``, whose default form embeds the instance's memory
    address and is different every run).  Mappings are sorted, enums
    use their value, callables their qualified name.
    """
    if type(value) in _SCALARS:  # exact types: no enum or subclass
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__class__": type(value).__qualname__,
            **{
                field.name: _canonical(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {
            "__mapping__": [
                [_canonical(k), _canonical(v)]
                for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
            ]
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canonical(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    if callable(value) and hasattr(value, "__qualname__"):
        return {
            "__callable__": f"{getattr(value, '__module__', '?')}."
                            f"{value.__qualname__}"
        }
    state = getattr(value, "__dict__", None)
    if state is not None:
        return {
            "__class__": type(value).__qualname__,
            "state": _canonical(state),
        }
    return repr(value)


#: The canonical JSON of each live spec, by identity.  A spec's entry
#: leaves with the spec (``weakref.finalize``), so the memo holds only
#: specs still in use and an id is never served after its object dies.
_SPEC_ENCODINGS: dict[int, str] = {}


def _encode(value: object) -> str:
    """The canonical JSON text every run key is hashed over."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _spec_encoding(spec: object) -> str:
    """``_encode(_canonical(spec))``, computed once per live spec.

    Only a frozen dataclass is remembered: its fields cannot be rebound
    (a :class:`~repro.models.params.CuisineSpec` holds tuples of ints
    and enums), so its encoding cannot go stale.  Equal but distinct
    specs each encode once, to the same text.
    """
    params = getattr(type(spec), "__dataclass_params__", None)
    if params is None or not params.frozen:
        return _encode(_canonical(spec))
    key = id(spec)
    encoded = _SPEC_ENCODINGS.get(key)
    if encoded is None:
        encoded = _SPEC_ENCODINGS[key] = _encode(_canonical(spec))
        weakref.finalize(spec, _SPEC_ENCODINGS.pop, key, None).atexit = False
    return encoded


def fingerprint_many(
    model: "CulinaryEvolutionModel",
    spec: "CuisineSpec",
    seeds: "Sequence[int]",
    record_history: bool = False,
    engine: str | None = None,
) -> list[str]:
    """SHA-256 keys for many runs sharing one (model, spec).

    A run key hashes ``{"base":<base>,"seed":<seed>}``, where the base
    is the canonical JSON of the model, its resolved engine, the spec
    and ``record_history`` (keys sorted, no spaces).  The base is
    encoded once per call and its spec part once per live spec — by
    far the expensive part to canonicalize (a real cuisine spec holds
    hundreds of ingredient ids), and a grid reuses each cuisine's spec
    across its models.  Each seed's key then continues a SHA-256 state
    primed with everything before the seed.

    Args:
        model: The configured model.
        spec: Cuisine inputs.
        seeds: Per-run integer seeds.
        record_history: Whether the runs record trajectories.
        engine: Per-run engine override (as carried by
            :class:`~repro.runtime.runner.RunRequest`); ``None`` uses
            the model's own ``params.engine``.  The key always covers
            the *resolved* engine plus its RNG-stream contract version,
            so runs produced by different engines — or by an engine
            whose stream contract changed — never collide (DESIGN.md
            §5).
    """
    # The fields of the base in sorted order, each encoded as
    # ``_encode`` would encode it inside the whole dict.
    fields = {
        "engine": _encode(_canonical(model.engine_contract(engine))),
        "model": _encode({
            "class": type(model).__qualname__,
            "name": model.name,
            # Full instance state, not just params/fitness: models may
            # carry extra behavioral knobs as plain attributes (e.g.
            # NullModel.sample_from, CM-V's insert/delete rates), and
            # two configurations that run differently must never share
            # a cache key.
            "state": _canonical(vars(model)),
        }),
        "record_history": _encode(bool(record_history)),
        "spec": _spec_encoding(spec),
        "version": _encode(CACHE_FORMAT_VERSION),
    }
    encoded_base = "{" + ",".join(
        f"{_encode(name)}:{text}" for name, text in sorted(fields.items())
    ) + "}"
    primed = hashlib.sha256(f'{{"base":{encoded_base},"seed":'.encode("utf-8"))
    keys = []
    for seed in seeds:
        digest = primed.copy()
        digest.update(f"{int(seed)}}}".encode("utf-8"))
        keys.append(digest.hexdigest())
    return keys


def run_fingerprint(
    model: "CulinaryEvolutionModel",
    spec: "CuisineSpec",
    seed: int,
    record_history: bool = False,
    engine: str | None = None,
) -> str:
    """SHA-256 key identifying one run's complete inputs."""
    return fingerprint_many(model, spec, [seed], record_history, engine)[0]


def item_key(run_keys: "Sequence[str]") -> str:
    """Run-cache key of one work item: SHA-256 over its ordered run keys.

    The encoded payload is namespaced (an ``"item"`` field where a run
    key's carries ``"base"`` and ``"seed"``), so an item key never
    equals a run key, even for an item of one run.
    """
    encoded = json.dumps(
        {"item": list(run_keys), "version": CACHE_FORMAT_VERSION},
        separators=(",", ":"),
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheDiskStats:
    """What one cache directory holds on disk right now.

    Attributes:
        entries: Number of entries (a run-cache entry holds one work
            item's runs, a curve-cache entry one cell's curves).
        total_bytes: Their combined size.
        oldest_mtime: Epoch mtime of the oldest entry (``None`` when
            empty).
        newest_mtime: Epoch mtime of the newest entry.
    """

    entries: int
    total_bytes: int
    oldest_mtime: float | None = None
    newest_mtime: float | None = None


class SweepCounts(NamedTuple):
    """Files one :meth:`PickleStore.sweep` removed, by category."""

    entries: int
    orphan_tmp: int


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`RunCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0


class PickleStore:
    """A directory of framed pickles keyed by SHA-256 hex strings.

    The shared mechanics of the run cache and curve cache, built on
    :mod:`repro.durable`: framed atomic writes without fsync (an entry
    is recomputable, and a torn one fails its frame check), corrupt
    entries evicted and read as misses, hit/miss accounting, disk
    stats, clearing and age-based pruning.  Subclasses fix the entry
    suffix and format version in the class attributes below (so
    several stores can share one directory without colliding).

    Args:
        directory: Store root; created (with parents) if missing.

    Raises:
        RunCacheError: If the path exists but is not a directory, or
            the class declares no entry suffix (the base class is not
            directly usable — a generic ``*.pkl`` glob would match and
            clear *every* sibling store's entries).
    """

    #: Entry filename suffix — namespaces this store within a shared
    #: cache directory.  Subclasses must override with a unique value.
    suffix: ClassVar[str] = ""

    #: Format version stamped into every entry's frame.
    format_version: ClassVar[int] = CACHE_FORMAT_VERSION

    def __init__(self, directory: str | Path):
        if not self.suffix:
            raise RunCacheError(
                f"{type(self).__name__} declares no entry suffix; "
                "subclass PickleStore and set a unique `suffix`"
            )
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise RunCacheError(
                f"cache path {self.directory} exists and is not a directory"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        """On-disk location of one cache entry."""
        return self.directory / f"{key}{self.suffix}"

    def get(
        self, key: str, valid: Callable[[object], bool] | None = None
    ) -> object | None:
        """Load a cached payload, or ``None`` on miss (or corrupt entry).

        A corrupt entry is evicted, not raised — recorded as a
        :class:`~repro.runtime.events.CacheCorruption` with a warning
        once per store and kind, so a flaky shared disk looks different
        from a cold cache.  So is an intact entry whose payload fails
        ``valid`` (the wrong shape for what its key names), as a
        ``format-version`` corruption.
        """
        path = self.path_for(key)
        try:
            payload = durable.load_framed(path, self.format_version)
            if valid is not None and not valid(payload):
                raise durable.CorruptFileError(
                    durable.FORMAT_VERSION,
                    f"unexpected payload {type(payload).__name__}",
                )
        except FileNotFoundError:
            payload = None
        except durable.CorruptFileError as exc:
            durable.quarantine(type(self).__name__, path, exc)
            payload = None
        if payload is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return payload

    def put(self, key: str, payload: object) -> None:
        """Store a payload atomically (safe under concurrent writers).

        Raises:
            RunCacheError: If the write fails or the payload does not
                pickle (pickle raises ``TypeError`` or
                ``AttributeError`` for a lock or a local class); no temp
                is left behind either way.
        """
        path = self.path_for(key)
        try:
            with durable.atomic_write(path, durable=False) as handle:
                durable.dump_framed(handle, payload, self.format_version)
        except (OSError, pickle.PicklingError, TypeError, AttributeError) as exc:
            raise RunCacheError(f"failed to write {path.name}: {exc}") from exc
        self.stats.stores += 1

    def _entry_paths(self) -> list[Path]:
        return sorted(self.directory.glob(f"*{self.suffix}"))

    def orphan_tmp_paths(self) -> list[Path]:
        """Temps stranded by writers killed mid-:meth:`put`.

        :meth:`clear` removes them all, :meth:`prune_older_than` the
        stale ones.
        """
        return durable.orphan_temps(self.directory, f"*{self.suffix}")

    def __len__(self) -> int:
        return len(self._entry_paths())

    def disk_stats(self) -> CacheDiskStats:
        """Entry count, byte total and age bounds of the directory.

        Entries that vanish mid-scan (a concurrent ``clear``) are
        skipped rather than raised — stats are advisory.
        """
        entries = 0
        total_bytes = 0
        oldest: float | None = None
        newest: float | None = None
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries += 1
            total_bytes += stat.st_size
            if oldest is None or stat.st_mtime < oldest:
                oldest = stat.st_mtime
            if newest is None or stat.st_mtime > newest:
                newest = stat.st_mtime
        return CacheDiskStats(
            entries=entries,
            total_bytes=total_bytes,
            oldest_mtime=oldest,
            newest_mtime=newest,
        )

    def sweep(self, older_than: float | None = None) -> SweepCounts:
        """Remove entries and orphan temps.

        Args:
            older_than: When given, only files whose mtime is strictly
                before this epoch time go (see :meth:`prune_older_than`).
        """
        return SweepCounts(
            entries=durable.sweep(self._entry_paths(), older_than),
            orphan_tmp=durable.sweep(self.orphan_tmp_paths(), older_than),
        )

    def clear(self) -> int:
        """Delete every entry and orphan temp; returns the count."""
        return sum(self.sweep())

    def prune_older_than(
        self, max_age_seconds: float, now: float | None = None
    ) -> int:
        """Delete files whose mtime is older than ``max_age_seconds``.

        The age-based GC policy for long-lived cache directories: a
        periodic ``repro cache prune --max-age-days N`` keeps a shared
        cache bounded.  Age is measured from the entry's *write* mtime
        — :meth:`get` never refreshes it — so an entry older than the
        cutoff is removed even if it was read recently.  Orphaned temps
        past the cutoff go too (age-gated, not unconditionally: a fresh
        temp may be a concurrent writer's in-flight :meth:`put`).

        Args:
            max_age_seconds: Age threshold; files strictly older are
                removed.
            now: Reference epoch time (defaults to the current time;
                injectable for tests).

        Returns:
            The number of files removed.

        Raises:
            RunCacheError: If the threshold is negative.
        """
        if max_age_seconds < 0:
            raise RunCacheError(
                f"max_age_seconds must be >= 0, got {max_age_seconds}"
            )
        if now is None:
            now = time.time()
        return sum(self.sweep(now - max_age_seconds))


class RunCache(PickleStore):
    """A directory of work items' runs keyed by :func:`item_key`.

    Payloads are tuples of complete
    :class:`~repro.models.base.EvolutionRun` objects, one per run of the
    item, in its run order — a run is a pure function of ``(model, spec,
    seed, record_history, engine)``, and its run key covers exactly
    those inputs.  An item is served whole or runs whole.
    """

    suffix = ".run.pkl"

    def get(
        self, key: str, n_runs: int | None = None
    ) -> "tuple[EvolutionRun, ...] | None":
        """Load an item's runs, or ``None`` on miss.

        With ``n_runs``, an entry that is not a tuple of that many runs
        is evicted and recorded as corrupt.
        """
        return super().get(  # type: ignore[return-value]
            key,
            None if n_runs is None else (
                lambda runs: isinstance(runs, tuple) and len(runs) == n_runs
            ),
        )

    def put(self, key: str, runs: "Sequence[EvolutionRun]") -> None:
        """Store an item's runs atomically (safe under concurrent writers)."""
        super().put(key, tuple(runs))
