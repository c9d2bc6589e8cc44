"""DMU activity statistics.

The statistics collected here drive three parts of the evaluation:

* the design-space exploration (blocked instructions per structure explain
  the performance loss of undersized TAT/DAT/list arrays — Figures 7 and 8),
* the DAT occupancy study (Figure 11),
* the power model (SRAM accesses per structure feed the dynamic-energy
  estimate of the DMU).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Mapping


@dataclass
class DMUStats:
    """Counters accumulated by the DMU across a simulation."""

    instructions: Counter = field(default_factory=Counter)
    structure_accesses: Counter = field(default_factory=Counter)
    blocked_by_structure: Counter = field(default_factory=Counter)
    total_cycles: int = 0
    tasks_created: int = 0
    tasks_finished: int = 0
    dependences_added: int = 0
    ready_pops: int = 0
    null_ready_pops: int = 0

    def record_access(self, structure: str, count: int = 1) -> None:
        self.structure_accesses[structure] += count

    @property
    def total_instructions(self) -> int:
        return sum(self.instructions.values())

    @property
    def total_blocked(self) -> int:
        return sum(self.blocked_by_structure.values())

    @property
    def total_accesses(self) -> int:
        return sum(self.structure_accesses.values())

    def average_cycles_per_instruction(self) -> float:
        """Mean DMU processing cycles per retired instruction."""
        retired = self.total_instructions
        return self.total_cycles / retired if retired else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary representation for reports and tests."""
        return {
            "total_instructions": self.total_instructions,
            "total_cycles": self.total_cycles,
            "total_accesses": self.total_accesses,
            "total_blocked": self.total_blocked,
            "tasks_created": self.tasks_created,
            "tasks_finished": self.tasks_finished,
            "dependences_added": self.dependences_added,
            "ready_pops": self.ready_pops,
            "null_ready_pops": self.null_ready_pops,
            "instructions": dict(self.instructions),
            "structure_accesses": dict(self.structure_accesses),
            "blocked_by_structure": dict(self.blocked_by_structure),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DMUStats":
        """Rebuild :class:`DMUStats` from :meth:`as_dict` output.

        Only the raw counters are read, each required; the derived totals
        in the dictionary (``total_instructions``, ...) recompute from them.
        """
        return cls(
            instructions=Counter(data["instructions"]),
            structure_accesses=Counter(data["structure_accesses"]),
            blocked_by_structure=Counter(data["blocked_by_structure"]),
            total_cycles=int(data["total_cycles"]),
            tasks_created=int(data["tasks_created"]),
            tasks_finished=int(data["tasks_finished"]),
            dependences_added=int(data["dependences_added"]),
            ready_pops=int(data["ready_pops"]),
            null_ready_pops=int(data["null_ready_pops"]),
        )
