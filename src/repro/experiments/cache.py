"""Content-hashed, on-disk caching of simulation results.

The campaign engine identifies every simulation by a *canonical run key*: a
SHA-256 digest of the full :class:`~repro.config.SimulationConfig` (every
field, via :meth:`~repro.config.SimulationConfig.to_dict`) plus the workload
parameters that shape the generated task program (benchmark, problem scale,
explicit granularity or the runtime whose optimal granularity is used, and
the workload seed).

Hashing the complete configuration dictionary makes collisions impossible
by construction: any field that can change simulation output is part of the
digest.  (The hand-written token it replaced dropped several DMU fields, such
as ``tat_associativity`` and ``ready_queue_entries``, and so returned stale
results to sweeps that varied them.)

:class:`ResultCache` persists :class:`~repro.sim.machine.SimulationResult`
rows as one JSON document per key under ``<dir>/<key[:2]>/<key>.json``.
Writes go through a temporary file followed by :func:`os.replace`, so
concurrent campaign processes sharing a cache directory can never observe a
half-written entry.

Every JSON text that is hashed is :func:`canonical_json`: sorted keys,
compact separators.  A run key hashes the canonical text of its payload,
which embeds the config's canonical text verbatim (the engine encodes each
config once).  An entry document is itself canonical JSON, so it stores the
checksummed bytes of its ``result`` verbatim between a fixed prefix and
suffix; a read checks the envelope and hashes the bytes it read instead of
re-encoding the parsed result.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
import time
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..config import SimulationConfig
from ..reliability.faults import maybe_fault
from ..sim.machine import SimulationResult

#: Bumped whenever the entry or result layout changes incompatibly; stale
#: entries are treated as misses and resimulated rather than misread.  Every
#: canonical run key hashes it, so a bump moves every key.
CACHE_FORMAT_VERSION = 2

#: Subdirectory of a cache directory receiving torn/corrupt entry files
#: (moved aside verbatim, with a ``.reason`` sidecar).  Not two hex chars,
#: so the ``??/*.json`` entry enumeration never sees it.
QUARANTINE_DIRNAME = "quarantine"

#: Orphaned ``*.tmp.<pid>`` files younger than this survive the sweep —
#: they may belong to a live writer between tmp-write and rename.
ORPHAN_TMP_MAX_AGE_S = 300.0


def atomic_write(
    path: Union[str, pathlib.Path],
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
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}.{threading.get_ident()}"
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


def canonical_json(value: object) -> str:
    """The one canonical JSON text: sorted keys, compact separators.

    What run keys, result checksums and entry documents are made of.  A
    container's canonical text embeds each member's canonical text
    verbatim, which is what lets :func:`canonical_run_key` splice in a
    config text encoded earlier and lets :func:`_parse_entry` hash the
    ``result`` bytes of an entry in place.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_run_key(
    config: Union[SimulationConfig, Mapping[str, object], str],
    benchmark: str,
    scale: float,
    granularity: Optional[int] = None,
    granularity_runtime: Optional[str] = None,
    seed: int = 0,
) -> str:
    """SHA-256 digest identifying one simulation, collision-free.

    The digest is over the canonical JSON of ``{"version", "benchmark",
    "scale", "granularity", "granularity_runtime", "workload_seed",
    "config"}``.  ``granularity_runtime`` only matters when no explicit
    ``granularity`` is given (the workload generator ignores it otherwise),
    so it is normalized to ``None`` in that case — two requests that
    generate the identical workload always map to the same key.

    ``config`` may be a :class:`~repro.config.SimulationConfig`, its
    :meth:`~repro.config.SimulationConfig.to_dict` form, or the
    :func:`canonical_json` text of that dict (the campaign engine encodes
    each config once and passes the text).  All three hash the same bytes:
    the payload text is assembled around the config text, byte-identical
    to the canonical JSON of the whole payload dict.
    """
    if isinstance(config, SimulationConfig):
        config = config.to_dict()
    if not isinstance(config, str):
        config = canonical_json(config)
    dumps = json.dumps
    if granularity is not None:
        granularity_runtime = None
    blob = (
        f'{{"benchmark":{dumps(benchmark)},"config":{config},'
        f'"granularity":{dumps(granularity)},'
        f'"granularity_runtime":{dumps(granularity_runtime)},'
        f'"scale":{dumps(repr(float(scale)))},'
        f'"version":{dumps(CACHE_FORMAT_VERSION)},"workload_seed":{dumps(seed)}}}'
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _envelope(key: str, digest: str) -> Tuple[bytes, bytes]:
    """The bytes around ``result`` in the canonical document of one entry.

    Canonical key order is ``key``, ``result``, ``sha256``, ``version``, so
    an entry is exactly ``prefix + canonical_json(result) + suffix``.
    """
    prefix = f'{{"key":{json.dumps(key)},"result":'
    suffix = f',"sha256":{json.dumps(digest)},"version":{CACHE_FORMAT_VERSION}}}'
    return prefix.encode("utf-8"), suffix.encode("utf-8")


def _parse_entry(
    blob: bytes,
    key: str,
    config: Optional[SimulationConfig] = None,
    config_dict: Optional[Mapping[str, object]] = None,
) -> Tuple[Optional[SimulationResult], Optional[str]]:
    """Parse and check one entry document: ``(result, defect)``.

    The one corruption check of :meth:`ResultCache.get` and
    :meth:`ResultCache.merge_from`; ``key`` is the key the entry is filed
    under, and ``config``/``config_dict`` are passed on to
    :meth:`~repro.sim.machine.SimulationResult.from_dict`.  A sound current
    entry gives its result and no defect; torn/invalid JSON, structural
    breakage, a document recorded under another key, a checksum mismatch
    and a payload that is not a result give None and the quarantine
    reason.  A well-formed document of another format version gives
    neither: it is a plain miss, not corruption (its key is not one the
    current format computes anyway).

    The checksum is verified on the bytes read, and only there: an entry
    written by :meth:`ResultCache.put_serialized` is its envelope around
    the canonical bytes of ``result``, so the blob must start and end with
    the envelope of its key and recorded digest, and the bytes in between
    must hash to that digest.  A match means they are byte for byte what
    the writer hashed, and so ``result`` is exactly that value.  Anything
    else — a re-encoded document included — is a checksum mismatch.
    """
    try:
        document = json.loads(blob.decode("utf-8"))
    except ValueError as error:  # UnicodeDecodeError and JSONDecodeError
        return None, f"invalid JSON: {error}"
    if not isinstance(document, dict):
        return None, "malformed entry: not a JSON object"
    if document.get("version") != CACHE_FORMAT_VERSION:
        return None, None
    result = document.get("result")
    if not isinstance(result, dict):
        return None, "malformed entry: missing result payload"
    if document.get("key") != key:
        return None, "key mismatch"
    recorded = document.get("sha256")
    if not isinstance(recorded, str):
        return None, "malformed entry: missing sha256"
    prefix, suffix = _envelope(key, recorded)
    end = len(blob) - len(suffix)
    if (
        end < len(prefix)
        or not blob.startswith(prefix)
        or not blob.endswith(suffix)
        or hashlib.sha256(blob[len(prefix):end]).hexdigest() != recorded
    ):
        return None, "checksum mismatch"
    try:
        return SimulationResult.from_dict(result, config, config_dict), None
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        # A sound envelope around a payload that is not a result.
        return None, f"malformed entry: {type(error).__name__}: {error}"


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
    * **Pure reads** — :meth:`get` writes nothing for a hit, so a
      read-only cache directory serves every hit it holds.
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
        #: ``directory`` as a string ending in a separator.  :meth:`get`,
        #: :meth:`put_serialized` and ``in`` build entry paths from it as
        #: strings: two ``pathlib`` joins cost about as much as the read.
        self._root = os.path.join(os.fspath(self.directory), "")
        self.hits = 0
        self.misses = 0
        #: Entries moved to ``quarantine/`` after failing to parse or to
        #: verify their embedded checksum (each is also counted as a miss).
        self.quarantined = 0
        #: Orphaned ``*.tmp.*`` files removed by :meth:`sweep_orphans`.
        self.orphans_swept = 0

    def path_for(self, key: str) -> pathlib.Path:
        """Cache file for ``key`` (two-level fan-out keeps directories small)."""
        return pathlib.Path(self._entry_path(key))

    def _entry_path(self, key: str) -> str:
        """:meth:`path_for` as a string."""
        return f"{self._root}{key[:2]}{os.sep}{key}.json"

    def _entries(self):
        """Every cache entry file.  The ``??/*.json`` pattern pins the
        two-hex-char fan-out layout, so every non-entry artifact inside the
        cache directory — ``manifests/`` (shard manifests) and any
        top-level file — is never counted or merged.
        ``tests/test_campaign.py`` pins this."""
        return self.directory.glob("??/*.json")

    def __contains__(self, key: str) -> bool:
        return os.path.isfile(self._entry_path(key))

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

    def get(
        self,
        key: str,
        config: Optional[SimulationConfig] = None,
        config_dict: Optional[Mapping[str, object]] = None,
    ) -> Optional[SimulationResult]:
        """The cached result for ``key``, or None on miss/corruption.

        Corrupt entries — unparseable JSON, a structurally malformed
        document, or a checksum mismatch against the embedded ``sha256``
        field — are quarantined and counted as misses: the campaign
        resimulates the point rather than aborting or serving bad data.
        ``config`` and its ``to_dict()`` form ``config_dict`` are the
        config the caller resolved ``key`` from; a result whose stored
        config equals it shares it (see
        :meth:`~repro.sim.machine.SimulationResult.from_dict`).
        """
        path = self._entry_path(key)
        fault = maybe_fault("cache-read", key)
        if fault is not None and fault.kind == "corrupt" and os.path.isfile(path):
            # Chaos hook: tear the on-disk entry in half so this very read
            # exercises the quarantine path.
            try:
                entry = pathlib.Path(path)
                blob = entry.read_bytes()
                entry.write_bytes(blob[: max(1, len(blob) // 2)])
            except OSError:
                pass
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            self.misses += 1
            return None
        result, defect = _parse_entry(blob, key, config, config_dict)
        if result is None:
            self.misses += 1
            if defect is not None:
                self.quarantine(pathlib.Path(path), defect)
            return None
        self.hits += 1
        return result

    def put_serialized(self, key: str, result_dict: Dict[str, object]) -> pathlib.Path:
        """Persist a serialized result under ``key`` atomically; returns the path.

        The result is encoded once, as :func:`canonical_json`, and those
        bytes are both hashed (the document's ``sha256`` field) and written
        verbatim: the file is the canonical JSON of ``{"key", "result",
        "sha256", "version"}``, which :meth:`get` and :meth:`merge_from`
        verify without re-encoding.
        """
        path = self._entry_path(key)
        payload = canonical_json(result_dict).encode("utf-8")
        prefix, suffix = _envelope(key, hashlib.sha256(payload).hexdigest())
        atomic_write(path, prefix + payload + suffix, fault_key=key)
        return pathlib.Path(path)

    def sweep_orphans(self, max_age_s: float = ORPHAN_TMP_MAX_AGE_S) -> int:
        """Delete orphaned ``*.tmp.<pid>`` files left by killed writers.

        A writer SIGKILL'd between tmp-write and rename leaks its tmp file
        forever (the pid embedded in the name may even be reused, so the
        name is not self-cleaning).  Files younger than ``max_age_s`` are
        kept — they may belong to a live writer mid-publication.  Invoked
        by shard merges; returns deletions.
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
        place and any other file in the directory is left alone.

        Every entry is validated first by the check :meth:`get` uses
        (envelope, embedded checksum, result payload), and only one that
        :meth:`get` would serve is copied: a torn or corrupt source entry
        is quarantined *in the source* and skipped, so the merged cache
        never inherits corruption — the key simply stays missing and the
        completeness check names it for resimulation.  An entry of another
        format version is skipped and left in place, as :meth:`get` leaves
        it.
        """
        copied = 0
        for entry in sorted(source._entries()):
            destination = self.path_for(entry.stem)
            if destination.is_file():
                continue
            try:
                blob = entry.read_bytes()
            except OSError:  # vanished mid-merge (a concurrent reader quarantined it)
                continue
            result, defect = _parse_entry(blob, entry.stem)
            if result is None:
                if defect is not None:
                    source.quarantine(entry, defect)
                continue
            atomic_write(destination, blob)
            copied += 1
        return copied
