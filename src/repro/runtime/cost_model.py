"""Calibrated cycle costs of runtime-system phases.

This is the bridge between the functional models (dependence tracker, DMU)
and the discrete-event simulation: every runtime-system action is converted
into a number of cycles the acting thread is busy.

Software costs model a Nanos++-style runtime: allocating and initializing a
task descriptor, and, per dependence, hashing the address, comparing against
the dependence's current readers and last writer, and linking the task into
the TDG.  The reader/successor-proportional terms are what make benchmarks
with wide reader sets (QR, Cholesky, Histogram) creation-bound, which is the
behaviour Figure 2 of the paper reports.

TDM costs model only the software work that remains once the DMU tracks
dependences: allocating the descriptor and issuing the ISA instructions (the
DMU processing cycles are computed separately by the DMU model itself, and
the NoC round trip by :class:`~repro.sim.noc.NocModel`).
"""

from __future__ import annotations

from ..config import CostModelConfig
from .tracker import MatchResult


# The runtimes read fixed per-operation costs straight from
# ``CostModelConfig``; only the three costs that depend on the matching work
# performed are formulas.
def sw_dependence_lookup_cycles(costs: CostModelConfig, num_dependences: int) -> int:
    """Address hashing / region lookup work, performed outside the lock.

    Nanos++-style runtimes resolve each dependence region before taking the
    dependence-domain lock; only linking the task into the TDG needs mutual
    exclusion.  Splitting the cost keeps lock contention realistic (the
    paper measures thread-synchronization overheads below 1% of the
    dependence-management time).
    """
    return num_dependences * costs.sw_dep_base_cycles


def sw_dependence_commit_cycles(costs: CostModelConfig, match: MatchResult) -> int:
    """TDG linking work (reader traversals, successor inserts), under the lock."""
    return (
        match.readers_traversed * costs.sw_dep_per_reader_cycles
        + match.successor_links * costs.sw_dep_per_successor_cycles
    )


def sw_finish_cycles(costs: CostModelConfig, num_successors: int) -> int:
    """Software task-finalization cost (wake up successors, update the TDG)."""
    return costs.sw_finish_base_cycles + num_successors * costs.sw_finish_per_successor_cycles

