"""Seeded, deterministic fault injection for chaos testing the campaign.

A *fault plan* is parsed from a comma-separated spec (the ``REPRO_FAULTS``
environment variable or the ``--faults`` CLI flag)::

    crash@sim:key%7,hang@cache-read:2,corrupt@commit:1

Each entry is ``kind@site[:selector][xT]``:

* **kind** — what happens when the fault fires:

  - ``crash``   — the process exits immediately via ``os._exit`` (the moral
    equivalent of a SIGKILL mid-task: no cleanup, no exception);
  - ``hang``    — the call sleeps for the plan's hang duration
    (``REPRO_FAULTS_HANG_S``, default 30 s) and then continues;
  - ``error``   — raises :class:`InjectedFault` (a classified-transient
    exception, exercising the retry path without killing anything);
  - ``corrupt`` — returned to the instrumented call site, which applies a
    site-appropriate corruption (e.g. truncating the cache entry bytes).

* **site** — a named instrumentation point (:data:`FAULT_SITES`):
  ``sim`` (worker simulation body), ``cache-read`` (:meth:`ResultCache.get`),
  ``commit`` (cache entry publication, *between* tmp write and rename —
  a ``crash`` here leaves an orphaned ``*.tmp`` file), ``merge``
  (:func:`merge_shards`) and ``serve`` (daemon request handling).

* **selector** — when the fault fires.  ``:N`` fires on the N-th hit of the
  site in this process (a per-site counter); ``:key%M`` fires for every key
  whose hex digest satisfies ``int(key, 16) % M == 0`` (``key%M=R`` selects
  residue ``R`` instead).  Omitted → fires on every hit.

* **xT** — fire on attempts 1..T of a key (default ``x1``).  Faults are
  attempt-gated so that a retried key succeeds on its second attempt and
  the recovered campaign converges to the fault-free bytes; ``xT`` with a
  large ``T`` makes a *permanent* fault for exhaustion tests.

Determinism: selectors are pure functions of (site counter, key, attempt) —
no wall clock, no RNG — so a fault plan replays identically across runs and
the chaos suite can assert exact recovery behavior.

The no-plan fast path is two module-global reads and a ``None`` compare, so
the instrumented hot paths (cache reads, commits) pay nothing measurable
when ``REPRO_FAULTS`` is unset.  ``tests/test_reliability.py`` pins this:
with no plan, :func:`maybe_fault` calls neither :func:`active_plan` nor
:meth:`FaultPlan.fire`, and an armed plan whose selectors never match
returns None.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ExperimentError

#: Exit status a ``crash`` fault dies with (distinguishable from real
#: segfaults and Python tracebacks in pool post-mortems).
CRASH_EXIT_CODE = 86

FAULT_KINDS = ("crash", "hang", "error", "corrupt")

FAULT_SITES = ("sim", "cache-read", "commit", "merge", "serve")

#: Default sleep of a ``hang`` fault; long enough that any realistic
#: watchdog deadline trips first.
DEFAULT_HANG_SECONDS = 30.0


class InjectedFault(ExperimentError):
    """Raised by an ``error``-kind fault (classified transient by retry)."""


@dataclass
class Fault:
    """One parsed fault: kind, site, firing rule, and a fired counter."""

    kind: str
    site: str
    #: Fire on exactly the N-th hit of the site (per process); None = every.
    nth: Optional[int] = None
    #: Fire when ``int(key, 16) % modulo == residue``; None = key-blind.
    modulo: Optional[int] = None
    residue: int = 0
    #: Fire on attempts 1..times of a key (1 = first attempt only).
    times: int = 1
    fired: int = 0

    def matches(self, count: int, key: Optional[str], attempt: int) -> bool:
        if attempt > self.times:
            return False
        if self.nth is not None and count != self.nth:
            return False
        if self.modulo is not None:
            if key is None:
                return False
            try:
                value = int(key, 16)
            except ValueError:
                return False
            if value % self.modulo != self.residue:
                return False
        return True

    def describe(self) -> str:
        selector = ""
        if self.nth is not None:
            selector = f":{self.nth}"
        elif self.modulo is not None:
            selector = f":key%{self.modulo}"
            if self.residue:
                selector += f"={self.residue}"
        suffix = f"x{self.times}" if self.times != 1 else ""
        return f"{self.kind}@{self.site}{selector}{suffix}"


class FaultPlan:
    """A parsed set of faults plus per-site hit counters."""

    def __init__(self, faults: List[Fault], spec: str,
                 hang_seconds: Optional[float] = None) -> None:
        self.faults = list(faults)
        self.spec = spec
        if hang_seconds is None:
            hang_seconds = float(os.environ.get("REPRO_FAULTS_HANG_S", "")
                                 or DEFAULT_HANG_SECONDS)
        self.hang_seconds = hang_seconds
        self._counts: Dict[str, int] = {}
        self._by_site: Dict[str, List[Fault]] = {}
        for fault in self.faults:
            self._by_site.setdefault(fault.site, []).append(fault)

    def fire(self, site: str, key: Optional[str], attempt: int) -> Optional[Fault]:
        """The first fault matching this hit of ``site``, counting the hit."""
        candidates = self._by_site.get(site)
        if not candidates:
            return None
        count = self._counts.get(site, 0) + 1
        self._counts[site] = count
        for fault in candidates:
            if fault.matches(count, key, attempt):
                fault.fired += 1
                return fault
        return None

    def describe(self) -> str:
        return ",".join(fault.describe() for fault in self.faults)


def _parse_selector(fault: Fault, selector: str, entry: str) -> None:
    if selector.startswith("key%"):
        spec = selector[len("key%"):]
        modulo, _, residue = spec.partition("=")
        try:
            fault.modulo = int(modulo)
            fault.residue = int(residue) if residue else 0
        except ValueError:
            raise ExperimentError(f"malformed fault selector in {entry!r}") from None
        if fault.modulo < 1 or not (0 <= fault.residue < fault.modulo):
            raise ExperimentError(f"fault selector out of range in {entry!r}")
        return
    try:
        fault.nth = int(selector)
    except ValueError:
        raise ExperimentError(
            f"malformed fault selector in {entry!r} (use :N or :key%M[=R])"
        ) from None
    if fault.nth < 1:
        raise ExperimentError(f"fault occurrence must be >= 1 in {entry!r}")


def parse_faults(spec: str, hang_seconds: Optional[float] = None) -> FaultPlan:
    """Parse a ``kind@site[:selector][xT],...`` spec into a :class:`FaultPlan`."""
    faults: List[Fault] = []
    for entry in (part.strip() for part in spec.split(",")):
        if not entry:
            continue
        head, _, tail = entry.partition("@")
        if not tail:
            raise ExperimentError(
                f"malformed fault {entry!r} (expected kind@site[:selector][xT])"
            )
        kind = head.strip().lower()
        if kind not in FAULT_KINDS:
            raise ExperimentError(
                f"unknown fault kind {kind!r} in {entry!r} "
                f"(one of {', '.join(FAULT_KINDS)})"
            )
        site, _, selector = tail.partition(":")
        times = 1
        # The xT attempt suffix binds to the last component present.
        carrier = selector if selector else site
        base, x, repeat = carrier.rpartition("x")
        if x and repeat.isdigit():
            times = int(repeat)
            if times < 1:
                raise ExperimentError(f"fault attempt count must be >= 1 in {entry!r}")
            carrier = base
            if selector:
                selector = carrier
            else:
                site = carrier
        site = site.strip().lower()
        if site not in FAULT_SITES:
            raise ExperimentError(
                f"unknown fault site {site!r} in {entry!r} "
                f"(one of {', '.join(FAULT_SITES)})"
            )
        fault = Fault(kind=kind, site=site, times=times)
        if selector:
            _parse_selector(fault, selector.strip(), entry)
        faults.append(fault)
    if not faults:
        raise ExperimentError(f"empty fault spec {spec!r}")
    return FaultPlan(faults, spec, hang_seconds=hang_seconds)


# --------------------------------------------------------------------------
# Process-wide active plan.  ``_LOADED`` makes the no-faults fast path two
# module-global reads; the environment is consulted exactly once.
# --------------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None
_LOADED = False


def active_plan() -> Optional[FaultPlan]:
    """The installed fault plan (lazily loaded from ``REPRO_FAULTS``)."""
    global _PLAN, _LOADED
    if not _LOADED:
        _LOADED = True
        spec = os.environ.get("REPRO_FAULTS", "").strip()
        if spec:
            _PLAN = parse_faults(spec)
    return _PLAN


def active_spec() -> Optional[str]:
    """The active plan's spec string (forwarded to pool workers), or None."""
    plan = active_plan()
    return plan.spec if plan is not None else None


def install_plan(plan: Optional[FaultPlan | str]) -> Optional[FaultPlan]:
    """Install (or with None, clear) the process-wide fault plan.

    Accepts a parsed plan or a spec string.  The CLI installs ``--faults``
    here; pool workers install the spec forwarded in their payload; tests
    install and clear plans around chaos scenarios.
    """
    global _PLAN, _LOADED
    if isinstance(plan, str):
        plan = parse_faults(plan)
    _PLAN = plan
    _LOADED = True
    return plan


def ensure_plan(spec: str) -> FaultPlan:
    """Install ``spec`` unless an identical plan is already active.

    Worker-side idempotent install: under the fork start method a worker
    inherits the parent's plan (same spec), which must keep its counters
    rather than being re-parsed per task.
    """
    plan = active_plan()
    if plan is not None and plan.spec == spec:
        return plan
    return install_plan(spec)  # type: ignore[return-value]


def maybe_fault(
    site: str, key: Optional[str] = None, attempt: int = 1
) -> Optional[Fault]:
    """Fire any matching fault at ``site`` for ``key``/``attempt``.

    ``crash`` exits the process, ``hang`` sleeps then returns the fault,
    ``error`` raises :class:`InjectedFault`; ``corrupt`` (and a finished
    ``hang``) is returned so the call site applies its own corruption.
    Returns None — at near-zero cost — when no plan is active.
    """
    plan = _PLAN if _LOADED else active_plan()
    if plan is None:
        return None
    fault = plan.fire(site, key, attempt)
    if fault is None:
        return None
    if fault.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if fault.kind == "hang":
        time.sleep(plan.hang_seconds)
        return fault
    if fault.kind == "error":
        raise InjectedFault(
            f"injected fault {fault.describe()} "
            f"(key={key[:12] + '…' if key else None}, attempt={attempt})"
        )
    return fault
