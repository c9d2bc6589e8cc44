"""Table III: DMU storage and area, plus the hardware-complexity comparison.

Table III of the paper reports the storage (KB) and area (mm², CACTI 6.0 at
22 nm) of every DMU structure for the selected configuration: 105.25 KB and
0.17 mm² in total.  Section VI-C additionally compares against Task
Superscalar (769 KB for the same number of in-flight tasks/dependences, i.e.
7.3x the DMU's storage).  This experiment evaluates the analytical models —
no simulation is involved.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import DMUConfig
from ..core.storage import (
    CarbonStorageModel,
    DMUStorageModel,
    TaskSuperscalarStorageModel,
)
from .common import ExperimentResult

#: Table III of the paper (storage in KB, area in mm^2).
PAPER_TABLE3 = {
    "Task Table": (23.00, 0.026),
    "Dep Table": (5.25, 0.013),
    "TAT": (18.75, 0.031),
    "DAT": (18.75, 0.031),
    "SLA": (12.25, 0.019),
    "DLA": (12.25, 0.019),
    "RLA": (12.25, 0.019),
    "ReadyQ": (2.75, 0.012),
}
PAPER_TOTAL_KB = 105.25
PAPER_TOTAL_MM2 = 0.17
PAPER_TSS_KB = 769.0
PAPER_COMPLEXITY_RATIO = 7.3

COLUMNS = ("structure", "storage_kb", "paper_storage_kb", "area_mm2", "paper_area_mm2")


def run(
    runner: object,
    benchmarks: Optional[Sequence[str]] = None,
    dmu: Optional[DMUConfig] = None,
) -> ExperimentResult:
    """Reproduce Table III and the Section VI-C storage comparison."""
    model = DMUStorageModel(dmu or DMUConfig())
    result = ExperimentResult(
        experiment="table_03",
        title="Table III: DMU storage (KB) and area (mm^2) requirements",
        columns=COLUMNS,
        paper_reference={
            "per_structure": PAPER_TABLE3,
            "total_kb": PAPER_TOTAL_KB,
            "total_mm2": PAPER_TOTAL_MM2,
            "task_superscalar_kb": PAPER_TSS_KB,
            "complexity_ratio": PAPER_COMPLEXITY_RATIO,
        },
    )
    for structure in model.structures():
        paper_kb, paper_mm2 = PAPER_TABLE3.get(structure.name, (None, None))
        result.add_row(
            structure=structure.name,
            storage_kb=structure.kilobytes,
            paper_storage_kb=paper_kb,
            area_mm2=structure.area_mm2,
            paper_area_mm2=paper_mm2,
        )
    result.add_row(
        structure="Total",
        storage_kb=model.total_kilobytes,
        paper_storage_kb=PAPER_TOTAL_KB,
        area_mm2=model.total_area_mm2,
        paper_area_mm2=PAPER_TOTAL_MM2,
    )

    tss = TaskSuperscalarStorageModel(in_flight_entries=model.config.tat_entries)
    carbon = CarbonStorageModel()
    ratio = tss.total_kilobytes / model.total_kilobytes
    result.add_note(
        f"Task Superscalar storage for the same in-flight window: {tss.total_kilobytes:.2f} KB "
        f"(paper: {PAPER_TSS_KB:.0f} KB)"
    )
    result.add_note(
        f"Hardware-complexity ratio Task Superscalar / DMU: {ratio:.1f}x (paper: {PAPER_COMPLEXITY_RATIO}x)"
    )
    result.add_note(
        f"Carbon hardware queues (estimate): {carbon.total_kilobytes:.2f} KB"
    )
    return result
