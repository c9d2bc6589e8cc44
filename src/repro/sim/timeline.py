"""Per-thread phase accounting.

Figure 2 and Figure 10 of the paper break the execution time of every thread
into four categories:

* ``DEPS``  — task creation and dependence management (including finish-time
  dependence bookkeeping),
* ``SCHED`` — selecting a ready task from the pool,
* ``EXEC``  — executing task code,
* ``IDLE``  — waiting because no ready task exists (or outside the parallel
  region).

The :class:`TimelineRecorder` collects (phase, start, end) intervals for each
thread; :class:`Timeline` aggregates them into per-thread and per-group
breakdowns and drives the energy model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Sequence


class Phase(str, Enum):
    """Execution phases tracked for every simulated thread."""

    DEPS = "DEPS"
    SCHED = "SCHED"
    EXEC = "EXEC"
    IDLE = "IDLE"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: ``(phase, serialized name)`` pairs in phase order, so
#: :meth:`Timeline.from_dict` restores totals without per-thread enum work.
_PHASE_NAMES = tuple((phase, phase.value) for phase in Phase)


@dataclass(frozen=True)
class Interval:
    """A contiguous span of time a thread spent in one phase."""

    phase: Phase
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


class ThreadTimeline:
    """Phase accounting for a single thread.

    The default is *totals-only*: :meth:`begin`/:meth:`end` accumulate per-
    phase cycle counts and no :class:`Interval` objects are materialized
    (nothing downstream of a finished experiment consumes them, and
    :meth:`Timeline.to_dict` never serialized them).  Pass
    ``record_intervals=True`` (wired to ``SimulationConfig.record_timeline``)
    to additionally keep the interval trace for visualization workloads.
    ``totals`` seeds the per-phase counts (every phase, in phase order) of a
    restored thread; a new thread starts at zero.
    """

    __slots__ = ("thread_id", "record_intervals", "intervals", "totals",
                 "_current_phase", "_current_start")

    def __init__(self, thread_id: int, record_intervals: bool = False,
                 totals: Dict[Phase, int] | None = None) -> None:
        self.thread_id = thread_id
        self.record_intervals = record_intervals
        self.intervals: List[Interval] = []
        self.totals: Dict[Phase, int] = (
            {phase: 0 for phase in Phase} if totals is None else totals
        )
        self._current_phase: Phase | None = None
        self._current_start = 0

    def begin(self, phase: Phase, now: int) -> None:
        """Enter ``phase`` at time ``now``, closing any open phase.

        Re-entering the phase that is already open is a no-op: the open span
        simply continues, so adjacent same-phase intervals are merged instead
        of churning bookkeeping (totals are unaffected either way).
        """
        current = self._current_phase
        if current is phase:
            return
        if current is not None:
            duration = now - self._current_start
            if duration:
                if duration < 0:
                    raise ValueError("timeline interval ends before it starts")
                self.totals[current] += duration
                if self.record_intervals:
                    self.intervals.append(Interval(current, self._current_start, now))
        self._current_phase = phase
        self._current_start = now

    def end(self, now: int) -> None:
        """Close the currently open phase at time ``now``."""
        current = self._current_phase
        if current is None:
            return
        duration = now - self._current_start
        if duration < 0:
            raise ValueError("timeline interval ends before it starts")
        self.totals[current] += duration
        if self.record_intervals and duration > 0:
            self.intervals.append(Interval(current, self._current_start, now))
        self._current_phase = None

    def add(self, phase: Phase, start: int, end: int) -> None:
        """Record a closed interval directly (used for instantaneous accounting)."""
        if end < start:
            raise ValueError("timeline interval ends before it starts")
        self.totals[phase] += end - start
        if self.record_intervals and end > start:
            self.intervals.append(Interval(phase, start, end))

    @property
    def total_cycles(self) -> int:
        return sum(self.totals.values())

    def fraction(self, phase: Phase) -> float:
        """Fraction of this thread's accounted time spent in ``phase``."""
        total = self.total_cycles
        if total == 0:
            return 0.0
        return self.totals[phase] / total


class TimelineRecorder:
    """Creates and owns one :class:`ThreadTimeline` per thread."""

    def __init__(self, num_threads: int, record_intervals: bool = False) -> None:
        self.threads = [ThreadTimeline(i, record_intervals) for i in range(num_threads)]

    def thread(self, thread_id: int) -> ThreadTimeline:
        return self.threads[thread_id]

    def close_all(self, now: int) -> None:
        """Close every open interval at the end of the simulation."""
        for thread in self.threads:
            thread.end(now)

    def finalize(self, now: int) -> "Timeline":
        """Close open intervals and freeze the result into a :class:`Timeline`."""
        self.close_all(now)
        return Timeline(self.threads, end_cycle=now)


class Timeline:
    """Aggregated per-thread phase accounting for a finished simulation."""

    def __init__(self, threads: Sequence[ThreadTimeline], end_cycle: int) -> None:
        self.threads = list(threads)
        self.end_cycle = end_cycle

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def totals(self, thread_ids: Iterable[int] | None = None) -> Dict[Phase, int]:
        """Sum of cycles per phase over the selected threads (all by default)."""
        selected = self.threads if thread_ids is None else [self.threads[i] for i in thread_ids]
        result = {phase: 0 for phase in Phase}
        for thread in selected:
            for phase, cycles in thread.totals.items():
                result[phase] += cycles
        return result

    def breakdown(self, thread_ids: Iterable[int] | None = None) -> Dict[Phase, float]:
        """Per-phase fraction of the selected threads' accounted time."""
        totals = self.totals(thread_ids)
        grand_total = sum(totals.values())
        if grand_total == 0:
            return {phase: 0.0 for phase in Phase}
        return {phase: cycles / grand_total for phase, cycles in totals.items()}

    def master_breakdown(self) -> Dict[Phase, float]:
        """Breakdown of thread 0, the master thread."""
        return self.breakdown([0])

    def worker_breakdown(self) -> Dict[Phase, float]:
        """Breakdown aggregated over worker threads (all but thread 0)."""
        if self.num_threads <= 1:
            return {phase: 0.0 for phase in Phase}
        return self.breakdown(range(1, self.num_threads))

    def phase_cycles(self, phase: Phase, thread_ids: Iterable[int] | None = None) -> int:
        """Total cycles the selected threads spent in ``phase``."""
        return self.totals(thread_ids)[phase]

    def busy_fraction(self) -> float:
        """Fraction of total thread-time spent outside IDLE."""
        totals = self.totals()
        grand_total = sum(totals.values())
        if grand_total == 0:
            return 0.0
        return 1.0 - totals[Phase.IDLE] / grand_total

    # ------------------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form: end cycle plus the per-thread phase totals.

        Individual intervals are *not* serialized — they can number in the
        millions for full-scale runs and nothing downstream of a finished
        experiment consumes them (all reported metrics derive from the
        totals).  A timeline restored via :meth:`from_dict` therefore has
        empty ``intervals`` lists.
        """
        return {
            "end_cycle": self.end_cycle,
            "threads": [
                {phase.value: thread.totals[phase] for phase in Phase}
                for thread in self.threads
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Timeline":
        """Rebuild a totals-only :class:`Timeline` from :meth:`to_dict` output."""
        threads = [
            ThreadTimeline(
                thread_id, totals={phase: int(totals[name]) for phase, name in _PHASE_NAMES}
            )
            for thread_id, totals in enumerate(data["threads"])
        ]
        return cls(threads, end_cycle=int(data["end_cycle"]))

    def as_relative_rows(self) -> List[Mapping[str, float]]:
        """One row per thread with the relative time per phase (for reports)."""
        rows: List[Mapping[str, float]] = []
        for thread in self.threads:
            row: Dict[str, float] = {"thread": float(thread.thread_id)}
            for phase in Phase:
                row[phase.value] = thread.fraction(phase)
            rows.append(row)
        return rows
