"""On-disk cache of completed :class:`~repro.models.base.EvolutionRun`s.

Runs are pure functions of ``(model configuration, cuisine spec, seed,
record_history)``, so they cache perfectly: the key is a SHA-256 over a
canonical JSON encoding of exactly those inputs (plus a format version),
and the value is the pickled run.  Because every backend derives the
same per-run integer seeds (:func:`repro.rng.spawn_seeds`), a cache
populated by a process-parallel sweep is byte-for-byte reusable by a
serial rerun — and vice versa — which is what lets experiments resume
and share runs across invocations.

Entries are written through :mod:`repro.durable`: atomically (temp
file + rename, so a cache directory can be shared by concurrent
workers) and inside a SHA-256 frame, but without fsync — an entry is
recomputable, so one torn or bit-flipped by a crash or a bad disk is
detected on read, recorded and evicted as a miss rather than raised.

The storage mechanics live in :class:`PickleStore` so sibling stores can
share one directory, distinguished by entry suffix: :class:`RunCache`
(``*.run.pkl``, this module) holds simulation outputs,
:class:`~repro.runtime.curve_cache.CurveCache` (``*.curve.pkl``) holds
mined rank-frequency curves layered on top of them, and
:class:`~repro.runtime.checkpoint.CheckpointStore` (``*.ckpt.pkl``)
holds mid-run snapshots.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, Mapping, NamedTuple, Sequence

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
CACHE_FORMAT_VERSION = 6


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


def fingerprint_many(
    model: "CulinaryEvolutionModel",
    spec: "CuisineSpec",
    seeds: "Sequence[int]",
    record_history: bool = False,
    engine: str | None = None,
) -> list[str]:
    """SHA-256 keys for many runs sharing one (model, spec).

    The model/spec half of the payload — by far the expensive part to
    canonicalize (a real cuisine spec holds hundreds of ingredient ids)
    — is encoded once and reused for every seed, so keying a 100-run
    ensemble costs one canonicalization, not a hundred.

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
    base = {
        "version": CACHE_FORMAT_VERSION,
        "model": {
            "class": type(model).__qualname__,
            "name": model.name,
            # Full instance state, not just params/fitness: models may
            # carry extra behavioral knobs as plain attributes (e.g.
            # NullModel.sample_from, CM-V's insert/delete rates), and
            # two configurations that run differently must never share
            # a cache key.
            "state": _canonical(vars(model)),
        },
        "engine": _canonical(model.engine_contract(engine)),
        "spec": _canonical(spec),
        "record_history": bool(record_history),
    }
    encoded_base = json.dumps(base, sort_keys=True, separators=(",", ":"))
    return [
        hashlib.sha256(
            f'{{"base":{encoded_base},"seed":{int(seed)}}}'.encode("utf-8")
        ).hexdigest()
        for seed in seeds
    ]


def run_fingerprint(
    model: "CulinaryEvolutionModel",
    spec: "CuisineSpec",
    seed: int,
    record_history: bool = False,
    engine: str | None = None,
) -> str:
    """SHA-256 key identifying one run's complete inputs."""
    return fingerprint_many(model, spec, [seed], record_history, engine)[0]


@dataclass(frozen=True)
class CacheDiskStats:
    """What one cache directory holds on disk right now.

    Attributes:
        entries: Number of cached runs.
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
    quarantined: int


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

    The shared mechanics of the run cache, curve cache and checkpoint
    store, built on :mod:`repro.durable`: framed atomic writes, corrupt
    entries quarantined and read as misses, hit/miss accounting, disk
    stats, clearing and age-based pruning.  Subclasses fix the per-store
    facts in the class attributes below, the entry suffix first (so
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

    #: fsync every write, file and directory.  Off for caches: a lost
    #: entry is recomputed, and a torn one fails its frame check.
    fsync: ClassVar[bool] = False

    #: Suffix replacing :attr:`suffix` when a corrupt entry is renamed
    #: aside for post-mortem; ``None`` evicts it instead.
    quarantine_suffix: ClassVar[str | None] = None

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

    def _entry(self, name: str) -> Path:
        # get/put use this, not path_for, which CheckpointStore re-keys
        # by (key, step).
        return self.directory / f"{name}{self.suffix}"

    def path_for(self, key: str) -> Path:
        """On-disk location of one cache entry."""
        return self._entry(key)

    def _read(self, path: Path) -> object | None:
        """The payload at ``path``; ``None`` when absent or corrupt.

        A corrupt entry is quarantined, not raised — recorded as a
        :class:`~repro.runtime.integrity.CacheCorruption` with a warning
        once per store and kind, so a flaky shared disk looks different
        from a cold cache.
        """
        try:
            return durable.load_framed(path, self.format_version)
        except FileNotFoundError:
            return None
        except durable.CorruptFileError as exc:
            bad_path = None
            if self.quarantine_suffix is not None:
                bad_path = path.with_name(
                    path.name[: -len(self.suffix)] + self.quarantine_suffix
                )
            durable.quarantine(type(self).__name__, path, exc, bad_path)
            return None

    def _write(self, path: Path, payload: object) -> None:
        try:
            with durable.atomic_write(path, durable=self.fsync) as handle:
                durable.dump_framed(handle, payload, self.format_version)
        except (OSError, pickle.PicklingError) as exc:
            raise RunCacheError(f"failed to write {path.name}: {exc}") from exc

    def get(self, key: str) -> object | None:
        """Load a cached payload, or ``None`` on miss (or corrupt entry)."""
        payload = self._read(self._entry(key))
        if payload is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return payload

    def put(self, key: str, payload: object) -> None:
        """Store a payload atomically (safe under concurrent writers)."""
        self._write(self._entry(key), payload)
        self.stats.stores += 1

    def _entry_paths(self) -> list[Path]:
        return sorted(self.directory.glob(f"*{self.suffix}"))

    def orphan_tmp_paths(self) -> list[Path]:
        """Temps stranded by writers killed mid-:meth:`put`.

        :meth:`clear` removes them all, :meth:`prune_older_than` the
        stale ones.
        """
        return durable.orphan_temps(self.directory, f"*{self.suffix}")

    def quarantined_paths(self) -> list[Path]:
        """Corrupt entries renamed aside (empty for evicting stores)."""
        if self.quarantine_suffix is None:
            return []
        return sorted(self.directory.glob(f"*{self.quarantine_suffix}"))

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
        """Remove entries, orphan temps and quarantined files.

        Args:
            older_than: When given, only files whose mtime is strictly
                before this epoch time go (see :meth:`prune_older_than`).
        """
        return SweepCounts(
            entries=durable.sweep(self._entry_paths(), older_than),
            orphan_tmp=durable.sweep(self.orphan_tmp_paths(), older_than),
            quarantined=durable.sweep(self.quarantined_paths(), older_than),
        )

    def clear(self) -> int:
        """Delete every entry, orphan temp and quarantined file; a count."""
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
        and quarantined files past the cutoff go too (age-gated, not
        unconditionally: a fresh temp may be a concurrent writer's
        in-flight :meth:`put`).

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
    """A directory of pickled runs keyed by :func:`run_fingerprint`.

    Payloads are complete :class:`~repro.models.base.EvolutionRun`
    objects — a run is a pure function of ``(model, spec, seed,
    record_history, engine)``, so its key covers exactly those inputs.
    """

    suffix = ".run.pkl"

    def get(self, key: str) -> "EvolutionRun | None":
        """Load a cached run, or ``None`` on miss."""
        return super().get(key)  # type: ignore[return-value]

    def put(self, key: str, run: "EvolutionRun") -> None:
        """Store a run atomically (safe under concurrent writers)."""
        super().put(key, run)
