"""The per-key deadline of pooled simulation attempts.

A campaign pool worker that hangs never answers its payload.  Each engine
builds its one pool (:class:`~repro.experiments.campaign.WorkerPool`) with
one deadline, ``min_seconds`` from the moment a payload reaches a worker;
a worker still busy at its deadline is killed and its key struck as
``WorkerTimeout``, a transient failure that is retried.  A worker that
dies needs no deadline: the dispatcher sees the death at once.  Deadlines shape
scheduling only: a killed-and-retried key commits the identical result
bytes (``docs/determinism.md``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class WatchdogConfig:
    """The deadline knob (env-overridable for chaos smokes)."""

    #: Every key's deadline.  The longest simulation of the paper-scale
    #: campaign (``all --scale 1.0 --jobs 2``) takes 17-20 s on a 2-vCPU
    #: box; the headroom keeps machine load from looking like a hang.
    min_seconds: float = 90.0

    def __post_init__(self) -> None:
        if self.min_seconds < 0:
            raise ValueError("watchdog min_seconds out of range")

    @classmethod
    def from_env(cls) -> "WatchdogConfig":
        """Config with ``REPRO_WATCHDOG_MIN_S`` applied."""
        raw = os.environ.get("REPRO_WATCHDOG_MIN_S", "").strip()
        return cls(min_seconds=float(raw)) if raw else cls()
