"""Workload registry and the paper's reference benchmark data.

``PAPER_TABLE2`` embeds Table II of the paper (task counts and average task
durations at the optimal granularity of the software runtime and of TDM) so
that the Table II experiment can print generated-vs-paper numbers side by
side, and so that tests can assert the generators stay close to the published
characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError
from .base import Workload
from .blackscholes import BlackscholesWorkload
from .cholesky import CholeskyWorkload
from .dedup import DedupWorkload
from .ferret import FerretWorkload
from .fluidanimate import FluidanimateWorkload
from .histogram import HistogramWorkload
from .lu import LUWorkload
from .qr import QRWorkload
from .streamcluster import StreamclusterWorkload

WorkloadFactory = Callable[..., Workload]

_REGISTRY: Dict[str, WorkloadFactory] = {
    BlackscholesWorkload.name: BlackscholesWorkload,
    CholeskyWorkload.name: CholeskyWorkload,
    DedupWorkload.name: DedupWorkload,
    FerretWorkload.name: FerretWorkload,
    FluidanimateWorkload.name: FluidanimateWorkload,
    HistogramWorkload.name: HistogramWorkload,
    LUWorkload.name: LUWorkload,
    QRWorkload.name: QRWorkload,
    StreamclusterWorkload.name: StreamclusterWorkload,
}

#: The nine benchmarks of the paper, in the order used by its figures.
PAPER_BENCHMARKS = (
    "blackscholes",
    "cholesky",
    "dedup",
    "ferret",
    "fluidanimate",
    "histogram",
    "lu",
    "qr",
    "streamcluster",
)

#: Short labels used on the paper's x axes.
PAPER_LABELS = {
    "blackscholes": "bla",
    "cholesky": "cho",
    "dedup": "ded",
    "ferret": "fer",
    "fluidanimate": "flu",
    "histogram": "hist",
    "lu": "LU",
    "qr": "QR",
    "streamcluster": "str",
}


@dataclass(frozen=True)
class Table2Row:
    """One row of Table II of the paper."""

    benchmark: str
    sw_tasks: int
    sw_duration_us: float
    tdm_tasks: int
    tdm_duration_us: float


#: Table II of the paper: number of tasks and average task duration with the
#: optimal granularity for the software runtime and for TDM.
PAPER_TABLE2: Dict[str, Table2Row] = {
    "blackscholes": Table2Row("blackscholes", 3_300, 1_770.0, 6_500, 823.0),
    "cholesky": Table2Row("cholesky", 5_984, 183.0, 5_984, 183.0),
    "dedup": Table2Row("dedup", 244, 27_748.0, 244, 27_748.0),
    "ferret": Table2Row("ferret", 1_536, 7_667.0, 1_536, 7_667.0),
    "fluidanimate": Table2Row("fluidanimate", 2_560, 1_804.0, 2_560, 1_804.0),
    "histogram": Table2Row("histogram", 512, 3_824.0, 512, 3_824.0),
    "lu": Table2Row("lu", 1_512, 424.0, 1_512, 424.0),
    "qr": Table2Row("qr", 1_496, 997.0, 11_440, 96.0),
    "streamcluster": Table2Row("streamcluster", 42_115, 376.0, 42_115, 376.0),
}


def register_workload(name: str, factory: WorkloadFactory, replace: bool = False) -> None:
    """Register a custom workload generator under ``name``."""
    key = name.lower()
    if key in _REGISTRY and not replace:
        raise ConfigurationError(f"workload {name!r} is already registered")
    _REGISTRY[key] = factory


def available_workloads() -> List[str]:
    """Names of all registered workloads (sorted)."""
    return sorted(_REGISTRY)


def workload_factory(name: str) -> WorkloadFactory:
    """The generator registered under ``name``; ``ConfigurationError`` if none."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown workload {name!r}; available: {', '.join(available_workloads())}"
        ) from exc


def create_workload(
    name: str,
    scale: float = 1.0,
    granularity: Optional[int] = None,
    runtime: Optional[str] = None,
    seed: int = 0,
) -> Workload:
    """Instantiate the workload registered under ``name``.

    ``granularity`` selects an explicit granularity value; when omitted,
    ``runtime`` ('software' or 'tdm') selects that runtime's optimal
    granularity from Table II (defaulting to the software one).
    """
    workload = workload_factory(name)(scale=scale, granularity=granularity, seed=seed)
    if granularity is None and runtime is not None:
        workload = workload.for_runtime(runtime)
    return workload
