"""Fault injection, bounded retries and worker deadlines for campaigns.

The campaign stack (``repro.experiments``) survives worker crashes, hung
simulations and corrupted cache entries through three cooperating pieces
that live here:

* :mod:`repro.reliability.faults` — a seeded, deterministic fault-injection
  plan (``REPRO_FAULTS`` / ``--faults``) with named sites threaded through
  the cache and the campaign engine;
* :mod:`repro.reliability.retry` — the attempt budget (``MAX_ATTEMPTS``)
  and the transient-vs-permanent error classification;
* :mod:`repro.reliability.watchdog` — the one per-key deadline past which
  the campaign pool kills a hung worker and strikes its key.

Every recovery path preserves the determinism contract: recovered campaign
output is byte-identical to a fault-free serial run (``docs/reliability.md``
and ``docs/determinism.md``).
"""
