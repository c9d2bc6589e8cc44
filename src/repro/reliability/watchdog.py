"""Heartbeat files and per-key deadlines for hung-worker detection.

``multiprocessing.Pool`` has a blind spot the campaign cannot tolerate: a
worker SIGKILL'd mid-task is silently respawned, but its task is never
completed nor failed — ``pool.map`` waits forever.  A hung simulation stalls
the merge the same way.  The watchdog turns both into the same observable:

* every worker writes a **heartbeat file** (``hb-<pid>.json`` in a per-batch
  directory) naming the key it started and when;
* the parent gives every key the same **deadline**, ``min_seconds``: one
  constant well above the longest simulation of the paper-scale campaign,
  so a slow run on a loaded machine is not a false positive;
* a key whose heartbeat is older than its deadline — whether the worker is
  hung *or* dead — is reported overdue; the engine terminates the pool,
  strikes the overdue keys and requeues the rest without penalty.

Heartbeats are written atomically (tmp + ``os.replace``) so the parent never
parses a torn file.  Deadlines shape scheduling only: a killed-and-retried
key commits the identical result bytes (``docs/determinism.md``).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Optional, Union

HEARTBEAT_PREFIX = "hb-"


@dataclass(frozen=True)
class WatchdogConfig:
    """Deadline knobs (env-overridable for chaos smokes)."""

    #: Every key's deadline.  The longest simulation of the paper-scale
    #: campaign (``all --scale 1.0 --jobs 2``) takes 17-20 s on a 2-vCPU
    #: box; the headroom keeps machine load from looking like a hang.
    min_seconds: float = 90.0
    #: Parent-side completion/heartbeat poll cadence.
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.min_seconds < 0 or self.poll_interval_s <= 0:
            raise ValueError("watchdog min_seconds/poll_interval_s out of range")

    @classmethod
    def from_env(cls) -> "WatchdogConfig":
        """Config with ``REPRO_WATCHDOG_MIN_S`` applied."""
        raw = os.environ.get("REPRO_WATCHDOG_MIN_S", "").strip()
        return cls(min_seconds=float(raw)) if raw else cls()


def write_heartbeat(directory: Union[str, pathlib.Path], key: str,
                    attempt: int = 1) -> None:
    """Record (atomically) that this process started simulating ``key``.

    Called by pool workers at the top of the simulation body; one file per
    worker pid, overwritten per task.  Failures are swallowed — a heartbeat
    that cannot be written only degrades hang detection for that task, it
    must never fail the simulation itself.
    """
    path = pathlib.Path(directory) / f"{HEARTBEAT_PREFIX}{os.getpid()}.json"
    document = {"pid": os.getpid(), "key": key, "attempt": attempt,
                "started": time.time()}
    try:
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(document), encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        pass


def read_heartbeats(directory: Union[str, pathlib.Path]) -> Dict[str, float]:
    """key -> earliest observed start time, from every heartbeat file.

    Torn or vanished files are skipped (workers overwrite concurrently).
    When two workers ever claimed one key (a requeue raced a slow worker)
    the earliest start wins — the conservative choice for deadlines.
    """
    started: Dict[str, float] = {}
    root = pathlib.Path(directory)
    try:
        files = list(root.glob(f"{HEARTBEAT_PREFIX}*.json"))
    except OSError:
        return started
    for path in files:
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
            key = document["key"]
            when = float(document["started"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            continue
        if key not in started or when < started[key]:
            started[key] = when
    return started


class Watchdog:
    """Owns a heartbeat directory and judges overdue keys against deadlines."""

    def __init__(
        self,
        config: Optional[WatchdogConfig] = None,
        directory: Optional[Union[str, pathlib.Path]] = None,
    ) -> None:
        self.config = config or WatchdogConfig()
        self._owns_directory = directory is None
        self.directory = pathlib.Path(
            directory if directory is not None else tempfile.mkdtemp(prefix="repro-hb-")
        )
        self.directory.mkdir(parents=True, exist_ok=True)

    def deadline_for(self, resolved: object) -> float:
        """Wall-second budget for one resolved run: the same for every key."""
        return self.config.min_seconds

    def reset(self) -> None:
        """Drop all heartbeats (called between retry rounds: stale heartbeats
        from a terminated pool must not condemn the requeued attempt)."""
        for path in self.directory.glob(f"{HEARTBEAT_PREFIX}*"):
            try:
                path.unlink()
            except OSError:
                pass

    def overdue(self, deadlines: Dict[str, float],
                now: Optional[float] = None) -> Dict[str, float]:
        """Keys whose heartbeat-recorded start exceeds their deadline.

        Returns ``key -> seconds running``.  Deadlines count from the
        worker-recorded start, not from submission — a task queued behind
        batchmates has not started and cannot be overdue.
        """
        now = time.time() if now is None else now
        started = read_heartbeats(self.directory)
        verdicts: Dict[str, float] = {}
        for key, deadline in deadlines.items():
            begun = started.get(key)
            if begun is not None and now - begun > deadline:
                verdicts[key] = now - begun
        return verdicts

    def cleanup(self) -> None:
        """Remove the heartbeat directory (when this watchdog created it)."""
        if self._owns_directory:
            shutil.rmtree(self.directory, ignore_errors=True)
