"""Storage and area model of the DMU and of the comparison baselines.

Reproduces Table III of the paper (storage in KB and area in mm² of every
DMU structure) and the hardware-complexity comparison of Section VI-C
(769 KB for Task Superscalar, i.e. 7.3× the DMU's 105.25 KB).

Storage is computed from explicit field widths:

* internal task IDs are ``log2(task_table_entries)`` bits and dependence IDs
  ``log2(dependence_table_entries)`` bits (11 bits in the default
  configuration, as stated in Section III-B1),
* list-array pointers are ``log2(list_entries)`` bits (10 bits by default),
* alias-table entries store the full 64-bit address plus the internal ID,
* Task Table entries store the 64-bit descriptor address, the predecessor and
  successor counters and the two list pointers,
* Dependence Table entries store the last-writer ID and the reader-list
  pointer,
* list-array entries store ``elements_per_entry`` IDs plus the Next pointer,
* the Ready Queue stores one task ID per entry.

Area uses a small regression calibrated against the CACTI 6.0 numbers of
Table III at 22 nm: a per-structure fixed overhead (decoders, sense
amplifiers) plus a per-bit cell cost, with a higher cost for the associative
alias tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..config import DMUConfig
from ..units import bits_to_kilobytes

# Calibrated area regression (22 nm, single-port SRAM).
_DIRECT_FIXED_MM2 = 0.0075
_DIRECT_PER_BIT_UM2 = 0.100
_ASSOC_FIXED_MM2 = 0.0120
_ASSOC_PER_BIT_UM2 = 0.125
_UM2_PER_MM2 = 1e6

ADDRESS_BITS = 64
#: Counter widths used by Table III's storage accounting.
PREDECESSOR_COUNT_BITS = 4
SUCCESSOR_COUNT_BITS = 4


def _log2_bits(entries: int) -> int:
    """Number of bits needed to name one of ``entries`` items."""
    return max(1, (entries - 1).bit_length())


def sram_area_mm2(bits: int, associative: bool = False) -> float:
    """Area estimate of an SRAM structure of ``bits`` bits at 22 nm."""
    if bits <= 0:
        return 0.0
    if associative:
        return _ASSOC_FIXED_MM2 + bits * _ASSOC_PER_BIT_UM2 / _UM2_PER_MM2
    return _DIRECT_FIXED_MM2 + bits * _DIRECT_PER_BIT_UM2 / _UM2_PER_MM2


def sram_access_energy_pj(bits_per_entry: int, entries: int, associative: bool = False) -> float:
    """Per-access dynamic energy estimate (pJ) of a small SRAM structure."""
    base = 1.2 if associative else 0.6
    return base + 0.004 * bits_per_entry + 0.0006 * entries


@dataclass(frozen=True)
class StructureStorage:
    """Storage accounting of one hardware structure."""

    name: str
    entries: int
    bits_per_entry: int
    associative: bool = False

    @property
    def total_bits(self) -> int:
        return self.entries * self.bits_per_entry

    @property
    def kilobytes(self) -> float:
        return bits_to_kilobytes(self.total_bits)

    @property
    def area_mm2(self) -> float:
        return sram_area_mm2(self.total_bits, self.associative)

    @property
    def access_energy_pj(self) -> float:
        return sram_access_energy_pj(self.bits_per_entry, self.entries, self.associative)


class DMUStorageModel:
    """Storage/area breakdown of the DMU for a given configuration (Table III)."""

    def __init__(self, config: DMUConfig | None = None) -> None:
        self.config = config or DMUConfig()
        self.config.validate()

    def _task_id_bits(self) -> int:
        return _log2_bits(self.config.task_table_entries)

    def _dependence_id_bits(self) -> int:
        return _log2_bits(self.config.dependence_table_entries)

    def structures(self) -> List[StructureStorage]:
        """Per-structure storage accounting in Table III order."""
        cfg = self.config
        task_id_bits = self._task_id_bits()
        dep_id_bits = self._dependence_id_bits()
        sla_ptr_bits = _log2_bits(cfg.successor_list_entries)
        dla_ptr_bits = _log2_bits(cfg.dependence_list_entries)
        rla_ptr_bits = _log2_bits(cfg.reader_list_entries)

        task_table_bits = (
            ADDRESS_BITS
            + PREDECESSOR_COUNT_BITS
            + SUCCESSOR_COUNT_BITS
            + sla_ptr_bits
            + dla_ptr_bits
        )
        dep_table_bits = task_id_bits + rla_ptr_bits
        tat_bits = ADDRESS_BITS + task_id_bits
        dat_bits = ADDRESS_BITS + dep_id_bits
        sla_bits = cfg.elements_per_list_entry * task_id_bits + sla_ptr_bits
        dla_bits = cfg.elements_per_list_entry * dep_id_bits + dla_ptr_bits
        rla_bits = cfg.elements_per_list_entry * task_id_bits + rla_ptr_bits
        ready_queue_bits = task_id_bits

        return [
            StructureStorage("Task Table", cfg.task_table_entries, task_table_bits),
            StructureStorage("Dep Table", cfg.dependence_table_entries, dep_table_bits),
            StructureStorage("TAT", cfg.tat_entries, tat_bits, associative=True),
            StructureStorage("DAT", cfg.dat_entries, dat_bits, associative=True),
            StructureStorage("SLA", cfg.successor_list_entries, sla_bits),
            StructureStorage("DLA", cfg.dependence_list_entries, dla_bits),
            StructureStorage("RLA", cfg.reader_list_entries, rla_bits),
            StructureStorage("ReadyQ", cfg.ready_queue_entries, ready_queue_bits),
        ]

    def by_name(self) -> Dict[str, StructureStorage]:
        return {structure.name: structure for structure in self.structures()}

    @property
    def total_kilobytes(self) -> float:
        return sum(structure.kilobytes for structure in self.structures())

    @property
    def total_area_mm2(self) -> float:
        return sum(structure.area_mm2 for structure in self.structures())

    def average_access_energy_pj(self) -> float:
        """Mean per-access energy over the DMU structures (power model input)."""
        structures = self.structures()
        return sum(s.access_energy_pj for s in structures) / len(structures)


class TaskSuperscalarStorageModel:
    """Storage of the Task Superscalar pipeline for the same in-flight window.

    Section VI-C of the paper: for 2048 in-flight tasks and dependences, Task
    Superscalar requires a 1 KB Gateway, a 256 KB TRS (2048 entries x 128 B),
    a 256 KB ORT (2048 entries x 128 B) and a 256 KB Ready Queue
    (2048 entries x 128 B) — 769 KB in total; the OVT is excluded because the
    DMU does not perform dependence renaming either.
    """

    def __init__(self, in_flight_entries: int = 2048) -> None:
        if in_flight_entries < 1:
            raise ValueError("in_flight_entries must be >= 1")
        self.in_flight_entries = in_flight_entries

    def structures(self) -> List[StructureStorage]:
        entry_bits = 128 * 8
        return [
            StructureStorage("Gateway", 64, 128, associative=False),
            StructureStorage("TRS", self.in_flight_entries, entry_bits),
            StructureStorage("ORT", self.in_flight_entries, entry_bits, associative=True),
            StructureStorage("ReadyQueue", self.in_flight_entries, entry_bits),
        ]

    @property
    def total_kilobytes(self) -> float:
        return sum(structure.kilobytes for structure in self.structures())

    @property
    def total_area_mm2(self) -> float:
        return sum(structure.area_mm2 for structure in self.structures())


class CarbonStorageModel:
    """Storage of Carbon's distributed hardware task queues.

    Carbon [10] keeps ready tasks in per-core hardware queues with work
    stealing; the paper calls this "simple hardware queues" without giving a
    size, so this model assumes 64 task descriptors of 16 bytes per core
    (an estimate listed under "Deviations from the paper" in
    ``docs/architecture.md``).
    """

    def __init__(self, num_cores: int = 32, entries_per_core: int = 64, bytes_per_entry: int = 16) -> None:
        self.num_cores = num_cores
        self.entries_per_core = entries_per_core
        self.bytes_per_entry = bytes_per_entry

    def structures(self) -> List[StructureStorage]:
        return [
            StructureStorage(
                f"LTQ{core}", self.entries_per_core, self.bytes_per_entry * 8
            )
            for core in range(self.num_cores)
        ]

    @property
    def total_kilobytes(self) -> float:
        return sum(structure.kilobytes for structure in self.structures())

    @property
    def total_area_mm2(self) -> float:
        return sum(structure.area_mm2 for structure in self.structures())
