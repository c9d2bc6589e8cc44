"""The attempt budget and the transient/permanent split of campaign retries.

The one simulation loop of :meth:`CampaignEngine.run_many` (serial runs,
pool batches and shard workers) requeues a transiently-failed key for the
next round until it has had :data:`MAX_ATTEMPTS` attempts, and the chaos
suite asserts that bound.  A retry waits for nothing: the worker that was
struck has already been replaced, and injected faults are gated by
attempt number.

**Transient vs permanent.**  A simulation is a pure function of its
canonical key, so a *deterministic* exception (a workload bug, a config
validation error) will recur on every attempt — retrying it only burns
time.  Only infrastructure failures are worth retrying: crashed or hung
pool workers (struck by the pool), OS-level errors, and injected
faults from :mod:`repro.reliability.faults`.  Classification is by exception
*type name* because pool workers report failures as serialized markers, not
live exception objects.
"""

from __future__ import annotations

from typing import FrozenSet

#: Total attempts per key, including the first.
MAX_ATTEMPTS = 3

#: Exception type names classified transient: worker-process casualties
#: (pool strikes), OS/infrastructure errors and injected faults.
TRANSIENT_ERROR_TYPES: FrozenSet[str] = frozenset(
    {
        "WorkerTimeout",
        "WorkerCrash",
        "InjectedFault",
        "OSError",
        "ConnectionError",
        "ConnectionResetError",
        "BrokenPipeError",
        "EOFError",
        "MemoryError",
        "TimeoutError",
    }
)
