"""Content-hashed, on-disk caching of simulation results.

The campaign engine identifies every simulation by a *canonical run key*: a
SHA-256 digest of the full :class:`~repro.config.SimulationConfig` (every
field, via :meth:`~repro.config.SimulationConfig.to_dict`) plus the workload
parameters that shape the generated task program (benchmark, problem scale,
explicit granularity or the runtime whose optimal granularity is used, and
the workload seed).

This replaces the old hand-written ``SimulationRunner._config_token``
string, which silently dropped several DMU fields (``tat_associativity``,
``elements_per_list_entry``, ``ready_queue_entries``, ...) and collapsed the
scheduler to the runtime name for the hardware baselines — both of which
caused sweeps varying those fields to return stale cached results.  Hashing
the complete configuration dictionary makes collisions impossible by
construction: any field that can change simulation output is part of the
digest.

:class:`ResultCache` persists :class:`~repro.sim.machine.SimulationResult`
rows as one JSON document per key under ``<dir>/<key[:2]>/<key>.json``.
Writes go through a temporary file followed by :func:`os.replace`, so
concurrent campaign processes sharing a cache directory can never observe a
half-written entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
import time
import warnings
from typing import Dict, List, Mapping, Optional, Union

from ..config import SimulationConfig
from ..reliability.faults import maybe_fault
from ..sim.machine import SimulationResult

#: Bumped whenever the serialized result layout changes incompatibly; stale
#: entries are treated as misses and resimulated rather than misread.
CACHE_FORMAT_VERSION = 1

#: Subdirectory of a cache directory receiving torn/corrupt entry files
#: (moved aside verbatim, with a ``.reason`` sidecar).  Not two hex chars,
#: so the ``??/*.json`` entry enumeration never sees it.
QUARANTINE_DIRNAME = "quarantine"

#: Orphaned ``*.tmp.<pid>`` files younger than this survive the sweep —
#: they may belong to a live writer between tmp-write and rename.
ORPHAN_TMP_MAX_AGE_S = 300.0


def atomic_write(
    path: pathlib.Path,
    data: Union[str, bytes],
    fault_key: Optional[str] = None,
) -> None:
    """Write ``data`` to ``path`` via tmp+fsync+rename, creating parents.

    The single publication primitive for cache entries, merged shard copies
    and shard manifests: a concurrent reader sees either the old file or the
    complete new one, never a torn write (the tmp name embeds the pid and
    thread so concurrent writers of one key cannot collide either).  The tmp file is
    fsynced before the rename so a machine crash cannot publish a name whose
    bytes never reached disk.

    ``fault_key`` arms the ``commit`` fault-injection site *between* the tmp
    write and the rename — a ``crash`` fault there leaves exactly the
    orphaned ``*.tmp`` file a SIGKILL'd writer would
    (:meth:`ResultCache.sweep_orphans` reclaims them).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}.{threading.get_ident()}")
    blob = data if isinstance(data, bytes) else data.encode("utf-8")
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    if fault_key is not None:
        fault = maybe_fault("commit", fault_key)
        if fault is not None and fault.kind == "corrupt":
            # Publish a torn entry: the first half of the bytes, as if the
            # writer died mid-write on a filesystem without atomic rename.
            with open(tmp, "wb") as handle:
                handle.write(blob[: max(1, len(blob) // 2)])
                handle.flush()
                os.fsync(handle.fileno())
    os.replace(tmp, path)


def canonical_run_key(
    config: Union[SimulationConfig, Mapping[str, object]],
    benchmark: str,
    scale: float,
    granularity: Optional[int] = None,
    granularity_runtime: Optional[str] = None,
    seed: int = 0,
) -> str:
    """SHA-256 digest identifying one simulation, collision-free.

    ``granularity_runtime`` only matters when no explicit ``granularity`` is
    given (the workload generator ignores it otherwise), so it is normalized
    to ``None`` in that case — two requests that generate the identical
    workload always map to the same key.  ``config`` may be given as its
    :meth:`~repro.config.SimulationConfig.to_dict` form (the campaign
    engine passes the dict it derived once); both hash the same bytes.
    """
    if isinstance(config, SimulationConfig):
        config = config.to_dict()
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "benchmark": benchmark,
        "scale": repr(float(scale)),
        "granularity": granularity,
        "granularity_runtime": None if granularity is not None else granularity_runtime,
        "workload_seed": seed,
        "config": config,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_checksum(result_dict: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON of a serialized result.

    Embedded in every entry document (the ``sha256`` field) and verified on
    read: a torn, truncated or bit-flipped entry is detected even when it
    still parses as JSON.  Computed over the ``result`` payload only — the
    envelope (version, key) is validated structurally — and over the
    *parsed* canonical form, so the digest survives a JSON round trip.
    Entries written before the field existed verify as legacy (no digest,
    structural checks only); the cache format version is unchanged because
    canonical run keys embed it.
    """
    blob = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _entry_defect(blob: bytes) -> Optional[str]:
    """Why a serialized entry document is corrupt, or None when it is sound.

    The merge-time mirror of the :meth:`ResultCache.get` corruption checks.
    A stale-but-well-formed layout (version mismatch) is *not* a defect —
    readers gate on the version themselves — only torn/invalid JSON,
    structural breakage and checksum mismatches count.
    """
    try:
        document = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        return f"invalid JSON: {error}"
    if not isinstance(document, dict):
        return "malformed entry: not a JSON object"
    if document.get("version") != CACHE_FORMAT_VERSION:
        return None
    result = document.get("result")
    if not isinstance(result, dict):
        return "malformed entry: missing result payload"
    recorded = document.get("sha256")
    if recorded is not None and recorded != result_checksum(result):
        return "checksum mismatch"
    return None


class ResultCache:
    """On-disk store of serialized simulation results, one JSON file per key.

    Layout and behavioral guarantees (relied on by the sharded campaign
    layer and documented in ``docs/architecture.md``):

    * ``<directory>/<key[:2]>/<key>.json`` — two-level fan-out; entry
      enumeration is pinned to that shape, so auxiliary data (shard
      manifests under ``manifests/``, or any stray top-level file) can live
      inside the cache directory without being mistaken for entries.
    * **Atomic writes** — every put is tmp + rename, so a reader (or a
      crashed writer) never observes a torn entry; ``CACHE_FORMAT_VERSION``
      gates stale layouts on read.
    * **LRU pruning** — :meth:`get` refreshes the entry's mtime and
      :meth:`prune` evicts oldest-mtime first (deterministic key order on
      ties), so a result the campaign just used is never the next evicted.
    * **Byte-preserving union** — :meth:`merge_from` copies entry files
      verbatim, which is what keeps shard merges byte-identical to serial
      runs (see ``docs/determinism.md``).

    Serialization is ``SimulationResult.to_dict`` / ``from_dict``; timeline
    intervals and per-task instances are intentionally not persisted (the
    totals and finished-task count are).
    """

    def __init__(self, directory: Union[str, pathlib.Path]) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Entries moved to ``quarantine/`` after failing to parse or to
        #: verify their embedded checksum (each is also counted as a miss).
        self.quarantined = 0
        #: Orphaned ``*.tmp.*`` files removed by :meth:`sweep_orphans`.
        self.orphans_swept = 0
        #: LRU mtime refreshes that failed for a reason other than the entry
        #: vanishing (read-only NFS mount, permission change, ...).  Reads
        #: keep working — eviction order just degrades toward write-order for
        #: the affected entries — and the first failure emits one warning.
        self.mtime_refresh_failures = 0

    def path_for(self, key: str) -> pathlib.Path:
        """Cache file for ``key`` (two-level fan-out keeps directories small)."""
        return self.directory / key[:2] / f"{key}.json"

    def _entries(self):
        """Every cache entry file.  The ``??/*.json`` pattern pins the
        two-hex-char fan-out layout, so every non-entry artifact inside the
        cache directory — ``manifests/`` (shard manifests) and any
        top-level file — is never counted, pruned, merged or cleared.
        ``tests/test_campaign.py`` pins this."""
        return self.directory.glob("??/*.json")

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def quarantine(self, path: pathlib.Path, reason: str) -> None:
        """Move a corrupt entry file into ``quarantine/`` with a reason note.

        Quarantined files keep their original bytes (forensics: was it a
        torn write, a bit flip, a stale layout?) and leave the entry
        namespace — the key becomes a plain miss everywhere, including
        :meth:`merge_from`, and the ``??/*.json`` enumeration never counts
        the quarantine directory.  A name collision (the same key corrupted
        twice) appends a numeric suffix rather than overwriting evidence.
        """
        target_dir = self.directory / QUARANTINE_DIRNAME
        target = target_dir / path.name
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            suffix = 0
            while target.exists():
                suffix += 1
                target = target_dir / f"{path.name}.{suffix}"
            os.replace(path, target)
            target.with_name(target.name + ".reason").write_text(
                reason + "\n", encoding="utf-8"
            )
        except OSError:
            # Read-only cache, or the file vanished under a concurrent
            # quarantine: the entry is still treated as a miss either way.
            return
        self.quarantined += 1

    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, or None on miss/corruption.

        Corrupt entries — unparseable JSON, a structurally malformed
        document, or a checksum mismatch against the embedded ``sha256``
        field — are quarantined and counted as misses: the campaign
        resimulates the point rather than aborting or serving bad data.
        """
        path = self.path_for(key)
        fault = maybe_fault("cache-read", key)
        if fault is not None and fault.kind == "corrupt" and path.is_file():
            # Chaos hook: tear the on-disk entry in half so this very read
            # exercises the quarantine path.
            try:
                blob = path.read_bytes()
                path.write_bytes(blob[: max(1, len(blob) // 2)])
            except OSError:
                pass
        try:
            with path.open("r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError:
            self.misses += 1
            return None
        except json.JSONDecodeError as error:
            self.misses += 1
            self.quarantine(path, f"invalid JSON: {error}")
            return None
        try:
            if document.get("version") != CACHE_FORMAT_VERSION:
                self.misses += 1
                return None
            recorded = document.get("sha256")
            if recorded is not None and recorded != result_checksum(document["result"]):
                self.misses += 1
                self.quarantine(path, "checksum mismatch")
                return None
            result = SimulationResult.from_dict(document["result"])
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            # Structurally malformed (parses as JSON but is not an entry).
            self.misses += 1
            self.quarantine(path, f"malformed entry: {type(error).__name__}: {error}")
            return None
        self.hits += 1
        try:
            # Refresh the mtime so :meth:`prune` is least-recently-*used*
            # eviction: a key the current campaign just read back cannot be
            # the next one evicted mid-run.
            os.utime(path)
        except FileNotFoundError:  # vanished under a concurrent prune — still a hit
            pass
        except OSError:
            # Read-only cache directory (an NFS mount a daemon or shard
            # serves from, a permission squash): the result itself was read
            # fine, so keep serving hits — only the LRU refresh is lost.
            # Warn once per cache object; the counter stays visible (the
            # results daemon reports it in /healthz).
            self.mtime_refresh_failures += 1
            if self.mtime_refresh_failures == 1:
                warnings.warn(
                    f"result cache {self.directory} is not writable; serving "
                    "reads without LRU mtime refreshes (prune order degrades "
                    "to write-order for these entries)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return result

    def put(self, key: str, result: SimulationResult) -> pathlib.Path:
        """Persist ``result`` under ``key`` atomically; returns the file path."""
        return self.put_serialized(key, result.to_dict())

    def put_serialized(self, key: str, result_dict: Dict[str, object]) -> pathlib.Path:
        """Persist an already-serialized result (the parallel-merge path).

        The document embeds a ``sha256`` integrity checksum of the result
        payload (verified by :meth:`get` and :meth:`merge_from`); entries
        written before the field existed remain readable.
        """
        path = self.path_for(key)
        document = {
            "version": CACHE_FORMAT_VERSION,
            "key": key,
            "result": result_dict,
            "sha256": result_checksum(result_dict),
        }
        atomic_write(path, json.dumps(document, sort_keys=True), fault_key=key)
        return path

    def sweep_orphans(self, max_age_s: float = ORPHAN_TMP_MAX_AGE_S) -> int:
        """Delete orphaned ``*.tmp.<pid>`` files left by killed writers.

        A writer SIGKILL'd between tmp-write and rename leaks its tmp file
        forever (the pid embedded in the name may even be reused, so the
        name is not self-cleaning).  Files younger than ``max_age_s`` are
        kept — they may belong to a live writer mid-publication.  Invoked
        by :meth:`prune` and by shard merges; returns deletions.
        """
        swept = 0
        cutoff = time.time() - max_age_s
        for tmp in self.directory.glob("??/*.json.tmp.*"):
            try:
                if tmp.stat().st_mtime > cutoff:
                    continue
                tmp.unlink()
            except OSError:  # vanished (its writer finished the rename)
                continue
            swept += 1
        self.orphans_swept += swept
        return swept

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def keys(self) -> List[str]:
        """Every cached key, sorted (the canonical enumeration order)."""
        return sorted(entry.stem for entry in self._entries())

    def merge_from(self, source: "ResultCache") -> int:
        """Union another cache directory into this one; returns copies made.

        Keys are content hashes of the full run configuration and results
        are deterministic, so two caches can only ever disagree on a key by
        holding byte-identical documents — entries already present locally
        are therefore skipped, and copies preserve the source bytes exactly
        (atomic tmp+rename, like :meth:`put_serialized`).  This is the merge
        point of multi-host campaigns: union every shard's cache, then
        render from the union.

        Only ``??/*.json`` entries are copied: shard manifests are read in
        place, and cost profiles are unioned separately (with their own
        merge semantics) by ``merge_shards``.

        Every copied entry is validated first (JSON shape + embedded
        checksum, exactly the :meth:`get` criteria): a torn or corrupt
        source entry is quarantined *in the source* and skipped, so the
        merged cache never inherits corruption — the key simply stays
        missing and the completeness check names it for resimulation.
        """
        copied = 0
        for entry in sorted(source._entries()):
            destination = self.path_for(entry.stem)
            if destination.is_file():
                continue
            try:
                blob = entry.read_bytes()
            except OSError:  # vanished mid-merge (concurrent prune)
                continue
            reason = _entry_defect(blob)
            if reason is not None:
                source.quarantine(entry, reason)
                continue
            atomic_write(destination, blob)
            copied += 1
        return copied

    def total_bytes(self) -> int:
        """Total on-disk size of all cached entries."""
        total = 0
        for entry in self._entries():
            try:
                total += entry.stat().st_size
            except OSError:  # entry vanished (concurrent prune/clear)
                continue
        return total

    def prune(self, max_bytes: int) -> int:
        """Evict oldest entries (by mtime) until the cache fits ``max_bytes``.

        Returns the number of entries deleted.  Eviction order is
        oldest-modification-first — and since :meth:`get` refreshes the mtime
        of every hit, effectively least-recently-used — so long-lived cache
        directories shed the results that have gone longest without being
        read or rewritten.  mtime ties (common on coarse-timestamp
        filesystems and just-merged shard caches) are broken by key, so the
        eviction order is deterministic.  Entries that vanish mid-scan
        (another process pruning the same directory) are skipped.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.sweep_orphans()
        entries = []
        total = 0
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path.name, path, stat.st_size))
            total += stat.st_size
        if total <= max_bytes:
            return 0
        evicted = 0
        for _mtime, _name, path, size in sorted(entries):
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        return evicted

    def clear(self) -> None:
        """Delete every cached entry (keeps the directory itself)."""
        for entry in self._entries():
            entry.unlink()
