"""Sharded (multi-host) campaign execution on top of the campaign engine.

The campaign engine already made every simulation content-addressed: a run
is its canonical key, results are one JSON document per key, and a cache
directory is a pure function of the key set it holds.  That makes
distribution almost free — the only things a multi-host campaign needs are

* a **deterministic partition** of a figure's key space into N shards.
  :class:`ShardPlan` assigns every canonical key to shard
  ``int(key, 16) % N``: a pure function of the key *value*, so the split is
  identical on every host regardless of plan enumeration order, Python
  hash randomization, or how many duplicate requests a harness plans;
* a **shard worker** (:func:`run_shard_worker`, reachable as
  ``tdm-repro <experiment> --shard i/N``) that simulates only its slice —
  through the campaign engine's one simulation loop, with its retries and
  watchdog — into a shared or per-shard cache directory
  and records a :class:`ShardManifest` — keys attempted, cache hits,
  simulations, failures (with the offending key and workload parameters),
  and wall time.  Rerunning a shard whose cache survived is a pure cache
  warm-up: zero simulations, so a killed host is repaired by rerunning it;
* a **merge step** (:func:`merge_shards`) that unions the shard caches into
  one directory, unions the manifests, and verifies *completeness* — every
  key of the full plan must be present — before any figure is rendered.
  Rendering from the merged union is then simulation-free, and because the
  harness assembles its rows from per-key results, the final CSV bytes are
  identical whether the sweep ran serial, ``--jobs N`` on one host, or as
  N shards on N hosts.  ``tests/test_shard_determinism.py`` pins exactly
  that contract.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Union

from ..errors import ExperimentError
from ..reliability.faults import maybe_fault
from .cache import CACHE_FORMAT_VERSION, ResultCache, atomic_write
from .campaign import CampaignRunError, ResolvedRun
from .common import SimulationRunner

#: Subdirectory of a cache directory where shard manifests are written.
#: Cache entry enumeration pins the ``??/`` fan-out layout, so manifests can
#: live inside the cache directory without being counted or merged as results.
MANIFEST_DIRNAME = "manifests"

#: Shard-manifest schema version.  The reader accepts this version only,
#: with the fields :meth:`ShardManifest.to_dict` writes.
MANIFEST_VERSION = 4


def shard_of(key: str, count: int) -> int:
    """The 0-based shard owning ``key`` among ``count`` shards.

    A pure function of the key's hash value (the key *is* a SHA-256 digest,
    so the low bits are uniformly distributed): stable across hosts, Python
    processes, and any reordering of the plan that produced the key.
    """
    if count < 1:
        raise ExperimentError(f"shard count must be >= 1, got {count}")
    return int(key, 16) % count


@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity: shard ``index`` of ``count`` (1-based, CLI style)."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ExperimentError(f"shard count must be >= 1, got {self.count}")
        if not (1 <= self.index <= self.count):
            raise ExperimentError(
                f"shard index must be in 1..{self.count}, got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``i/N`` (e.g. ``2/3`` = second of three)."""
        head, sep, tail = text.partition("/")
        try:
            if not sep:
                raise ValueError(text)
            return cls(int(head), int(tail))
        except ValueError:
            raise ExperimentError(
                f"invalid shard spec {text!r}; expected i/N with 1 <= i <= N"
            ) from None

    def owns(self, key: str) -> bool:
        return shard_of(key, self.count) == self.index - 1

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


class ShardPlan:
    """A deterministic partition of a plan's canonical key space.

    Built from resolved runs (anything carrying a ``.key`` attribute);
    duplicates collapse by key (first occurrence wins — all occurrences of
    one key describe the identical simulation by construction) and the
    retained runs are key-sorted, so two hosts enumerating the same
    experiment always agree on both membership and order.  Every key goes
    to shard ``int(key, 16) % N`` (:func:`shard_of`), which needs no
    information beyond the key.  The partition never affects results:
    canonical keys ignore it, and merged output is byte-identical
    regardless of who ran what.
    """

    def __init__(self, resolved: Iterable[ResolvedRun], count: int) -> None:
        if count < 1:
            raise ExperimentError(f"shard count must be >= 1, got {count}")
        self.count = count
        unique: Dict[str, ResolvedRun] = {}
        for item in resolved:
            unique.setdefault(item.key, item)
        self._runs: List[ResolvedRun] = [unique[key] for key in sorted(unique)]

    def __len__(self) -> int:
        return len(self._runs)

    def keys(self) -> List[str]:
        """Every canonical key of the plan, sorted."""
        return [item.key for item in self._runs]

    def runs(self) -> List[ResolvedRun]:
        """Every run of the plan, key-sorted."""
        return list(self._runs)

    def shard(self, spec: Union[ShardSpec, int]) -> List[ResolvedRun]:
        """The key-sorted runs owned by one shard."""
        if isinstance(spec, int):
            spec = ShardSpec(spec, self.count)
        if spec.count != self.count:
            raise ExperimentError(
                f"shard spec {spec} does not match plan sharded {self.count} ways"
            )
        return [item for item in self._runs if spec.owns(item.key)]

    def assignment(self) -> Dict[str, int]:
        """Canonical key -> owning shard index (1-based), for every key."""
        return {item.key: shard_of(item.key, self.count) + 1 for item in self._runs}

    def describe(self, experiment: str = "") -> str:
        """Human-readable plan audit: the ``--dry-run`` output.

        Per-shard key counts over key-sorted rows (key prefix, owning
        shard, workload parameters).
        """
        owners = self.assignment()
        counts = [0] * self.count
        for owner in owners.values():
            counts[owner - 1] += 1
        lines = [f"[plan] {experiment or 'plan'} shards={self.count}: {len(self)} keys"]
        for index in range(self.count):
            lines.append(f"  shard {index + 1}/{self.count}: {counts[index]} keys")
        lines.append("  key          shard  run")
        for item in self._runs:
            request = item.request
            described = f"{request.benchmark} {request.runtime}/{request.scheduler}"
            if request.granularity is not None:
                described += f" granularity={request.granularity}"
            lines.append(f"  {item.key[:12]}  {owners[item.key]:>5}  {described}")
        return "\n".join(lines)


@dataclass
class ShardManifest:
    """What one shard worker attempted and how it went (JSON round-trip)."""

    experiment: str
    shard_index: int
    shard_count: int
    scale: float
    seed: int
    benchmarks: Optional[List[str]]
    keys: List[str]
    cached_hits: int = 0
    simulated: int = 0
    failures: Dict[str, Dict[str, object]] = field(default_factory=dict)
    wall_time_s: float = 0.0
    cache_format_version: int = CACHE_FORMAT_VERSION
    manifest_version: int = MANIFEST_VERSION

    @property
    def attempted(self) -> int:
        return len(self.keys)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "scale": self.scale,
            "seed": self.seed,
            "benchmarks": list(self.benchmarks) if self.benchmarks is not None else None,
            "keys": list(self.keys),
            "cached_hits": self.cached_hits,
            "simulated": self.simulated,
            "failures": {key: dict(value) for key, value in sorted(self.failures.items())},
            "wall_time_s": self.wall_time_s,
            "cache_format_version": self.cache_format_version,
            "manifest_version": self.manifest_version,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardManifest":
        """Rebuild a manifest from :meth:`to_dict` output.

        Raises ``ValueError`` for a manifest of another ``manifest_version``
        or one whose keys name entries of another ``cache_format_version``,
        and ``TypeError`` for an unknown or missing field; a merge skips
        such a manifest like an unreadable one.
        """
        versions = (data.get("manifest_version"), data.get("cache_format_version"))
        if versions != (MANIFEST_VERSION, CACHE_FORMAT_VERSION):
            raise ValueError(f"unsupported shard manifest versions {versions}")
        return cls(**data)

    def write(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Persist the manifest atomically (tmp+rename, like cache entries)."""
        path = pathlib.Path(path)
        atomic_write(path, json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    @classmethod
    def read(cls, path: Union[str, pathlib.Path]) -> "ShardManifest":
        with pathlib.Path(path).open("r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def summary(self) -> str:
        return (
            f"[shard {self.shard_index}/{self.shard_count}] {self.experiment}: "
            f"{self.attempted} keys, {self.cached_hits} cached, "
            f"{self.simulated} simulated, {len(self.failures)} failures "
            f"in {self.wall_time_s:.1f}s"
        )

    def report(self, out: TextIO = sys.stdout, err: TextIO = sys.stderr) -> int:
        """Print the worker-facing summary + failures; returns the exit code.

        The output contract of ``tdm-repro --shard`` — which the CI
        resumability smoke greps (`` 0 simulated``) — has this one
        definition.
        """
        print(self.summary(), file=out)
        for key, failure in sorted(self.failures.items()):
            print(
                f"  FAILED {key[:12]}… {failure['params']}: "
                f"{failure['error_type']}: {failure['error_message']}",
                file=err,
            )
        return 1 if self.failures else 0


def manifest_path(
    cache_dir: Union[str, pathlib.Path], experiment: str, spec: ShardSpec
) -> pathlib.Path:
    """Default manifest location inside a (shared or per-shard) cache dir."""
    name = f"{experiment}.shard-{spec.index}-of-{spec.count}.json"
    return pathlib.Path(cache_dir) / MANIFEST_DIRNAME / name


def find_manifests(
    cache_dir: Union[str, pathlib.Path], experiment: Optional[str] = None
) -> List[pathlib.Path]:
    """Manifest files inside one cache directory, sorted (optionally filtered)."""
    root = pathlib.Path(cache_dir) / MANIFEST_DIRNAME
    pattern = f"{experiment}.shard-*.json" if experiment else "*.shard-*.json"
    return sorted(root.glob(pattern)) if root.is_dir() else []


def run_shard_worker(
    experiment: str,
    shard: ShardSpec,
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
    manifest: Optional[Union[str, pathlib.Path]] = None,
    **plan_kwargs: object,
) -> ShardManifest:
    """Execute one shard of an experiment's plan and write its manifest.

    The runner must persist to a cache directory — the cache *is* the
    shard's output (the manifest is metadata about it).  Individual
    simulation failures are collected into the manifest rather than
    aborting the shard, so a bad point costs one manifest entry, not the
    whole slice.  Rerunning a shard against a surviving cache is a pure
    warm-up: every key hits, ``simulated`` stays 0, and the manifest is
    rewritten to reflect the healthy state — which is how a dead shard is
    repaired.
    """
    from .registry import resolve_plan  # local import: registry imports experiments

    engine = runner.engine
    if engine.disk_cache is None:
        raise ExperimentError("shard workers require --cache-dir (the cache is the shard output)")
    resolved = resolve_plan(experiment, runner, benchmarks=benchmarks, **plan_kwargs)
    mine = ShardPlan(resolved, shard.count).shard(shard)
    failures: Dict[str, CampaignRunError] = {}
    hits_before = engine.memory_hits + engine.disk_hits
    simulated_before = engine.simulations_run
    started = time.perf_counter()
    engine.run_many([item.request for item in mine], failures=failures)
    record = ShardManifest(
        experiment=experiment,
        shard_index=shard.index,
        shard_count=shard.count,
        scale=runner.scale,
        seed=runner.seed,
        benchmarks=list(benchmarks) if benchmarks is not None else None,
        keys=[item.key for item in mine],
        cached_hits=engine.memory_hits + engine.disk_hits - hits_before,
        simulated=engine.simulations_run - simulated_before,
        failures={key: error.to_dict() for key, error in failures.items()},
        wall_time_s=time.perf_counter() - started,
    )
    record.write(manifest or manifest_path(engine.disk_cache.directory, experiment, shard))
    return record


@dataclass
class MergeReport:
    """Outcome of merging shard caches for one experiment."""

    experiment: str
    entries_copied: int
    planned_keys: int
    missing_keys: List[str]
    manifests: List[ShardManifest]
    failures: Dict[str, Dict[str, object]]
    missing_shards: List[int]
    #: Corrupt entries moved to a ``quarantine/`` during the merge: source
    #: entries refused by the copy and destination entries refused by the
    #: completeness read (each leaves its key missing — and thus reported —
    #: unless a healthy copy existed in another shard).
    quarantined: int = 0

    @property
    def complete(self) -> bool:
        return not self.missing_keys

    def verify(self) -> "MergeReport":
        """Raise unless every planned key made it into the merged cache."""
        if not self.missing_keys:
            return self
        preview = ", ".join(key[:12] + "…" for key in self.missing_keys[:5])
        counts = {manifest.shard_count for manifest in self.manifests}
        if len(counts) == 1:
            # The owning shard of every missing key is computable — name the
            # shards to rerun rather than making the operator guess.
            count = counts.pop()
            owners = sorted({shard_of(key, count) + 1 for key in self.missing_keys})
            hint = f"rerun shards {owners} of {count} and re-merge"
        elif self.missing_shards:
            hint = f"rerun shards {self.missing_shards} (no manifest) and re-merge"
        else:
            hint = "rerun the shards that produced no manifest and re-merge"
        failed = [key for key in self.missing_keys if key in self.failures]
        if failed:
            hint += (
                f"; {len(failed)} of the missing keys *failed* to simulate "
                "(rerunning alone will not converge — see the manifest "
                "failures for the offending workload parameters)"
            )
        raise ExperimentError(
            f"{self.experiment}: merged shard caches are incomplete — "
            f"{len(self.missing_keys)}/{self.planned_keys} planned keys missing "
            f"({preview}); {hint}"
        )

    def summary(self) -> str:
        failed = len(self.failures)
        line = (
            f"[merge] {self.experiment}: {self.entries_copied} entries copied, "
            f"{self.planned_keys - len(self.missing_keys)}/{self.planned_keys} planned keys "
            f"present, {len(self.manifests)} manifests, {failed} recorded failures"
        )
        if self.quarantined:
            line += f", quarantined={self.quarantined} corrupt entries"
        return line


def merge_shards(
    experiment: str,
    sources: Sequence[Union[str, pathlib.Path]],
    runner: SimulationRunner,
    benchmarks: Optional[Sequence[str]] = None,
    **plan_kwargs: object,
) -> MergeReport:
    """Union shard cache directories into the runner's cache and verify them.

    ``runner`` must point at the destination cache directory (it may be one
    of the sources — merging a shared-filesystem campaign is then just the
    completeness check).  The full plan is re-resolved locally, so
    completeness is judged against the authoritative key set, not against
    whatever the manifests claim; manifests contribute shard-coverage
    diagnostics and the union of recorded failures.
    """
    from .registry import resolve_plan  # local import: registry imports experiments

    engine = runner.engine
    if engine.disk_cache is None:
        raise ExperimentError("merging shards requires --cache-dir (the merge destination)")
    maybe_fault("merge", key=experiment)
    destination = engine.disk_cache
    dest_root = destination.directory.resolve()
    destination.sweep_orphans()
    copied = 0
    quarantined = 0
    manifests: List[ShardManifest] = []
    for source in sources:
        source_path = pathlib.Path(source)
        if source_path.resolve() != dest_root:
            source_cache = ResultCache(source_path)
            copied += destination.merge_from(source_cache)
            quarantined += source_cache.quarantined
        for manifest_file in find_manifests(source_path, experiment):
            try:
                manifests.append(ShardManifest.read(manifest_file))
            except (AttributeError, OSError, TypeError, ValueError):
                continue  # advisory metadata only; completeness is key-based
    planned = ShardPlan(
        resolve_plan(experiment, runner, benchmarks=benchmarks, **plan_kwargs), count=1
    )
    # A verifying read of every planned entry, as a render would make: a
    # torn or corrupt one (a shared-cache source is never copied, so never
    # checked above) is quarantined and counts as missing.
    quarantined_before = destination.quarantined
    missing = [item.key for item in planned.runs() if engine.cached(item) is None]
    quarantined += destination.quarantined - quarantined_before
    failures: Dict[str, Dict[str, object]] = {}
    seen_shards: Dict[int, int] = {}
    for manifest in manifests:
        failures.update(manifest.failures)
        seen_shards[manifest.shard_index] = manifest.shard_count
    count = max(seen_shards.values()) if seen_shards else 0
    missing_shards = [
        index for index in range(1, count + 1) if index not in seen_shards
    ] if count else []
    return MergeReport(
        experiment=experiment,
        entries_copied=copied,
        planned_keys=len(planned),
        missing_keys=missing,
        manifests=manifests,
        failures=failures,
        missing_shards=missing_shards,
        quarantined=quarantined,
    )
