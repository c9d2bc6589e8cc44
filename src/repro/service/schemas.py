"""JSON request validation and ETag derivation for the results daemon.

The wire format is deliberately tiny: a render request is one flat JSON
object of knobs, every knob optional, unknown knobs rejected (a typoed
``"scales"`` should fail loudly, not silently render the default).  The
ETag digests the *identity* of the response — experiment, normalized
render parameters and the resolved canonical key set — not its bytes, so
revalidation (``If-None-Match`` → 304) needs no simulation and no render.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ExperimentError

#: Response body formats ``POST /figures/<name>`` can produce.
RENDER_FORMATS = ("md", "csv")

#: Content types per render format.
CONTENT_TYPES = {"md": "text/markdown; charset=utf-8", "csv": "text/csv; charset=utf-8"}

_KNOWN_FIELDS = frozenset(
    {"scale", "seed", "benchmarks", "schedulers", "format"}
)


@dataclass(frozen=True)
class RenderRequest:
    """A validated ``POST /figures/<name>`` body."""

    scale: float = 1.0
    seed: int = 0
    benchmarks: Optional[List[str]] = None
    #: Scheduler subset, forwarded to experiments that sweep schedulers
    #: (e.g. ``figure_12``); rejected by experiments that do not.
    schedulers: Optional[List[str]] = None
    format: str = "md"

    def plan_kwargs(self) -> Dict[str, object]:
        """Extra keyword arguments for ``plan``/``run_experiment``."""
        return {"schedulers": list(self.schedulers)} if self.schedulers is not None else {}


def _string_list(value: object, name: str) -> List[str]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ExperimentError(f"{name!r} must be a list of strings")
    return list(value)


def parse_render_request(body: bytes) -> RenderRequest:
    """Parse and validate a render-request body (empty body = defaults)."""
    if not body:
        return RenderRequest()
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ExperimentError(f"request body is not valid JSON: {error}") from error
    if not isinstance(data, dict):
        raise ExperimentError("request body must be a JSON object")
    unknown = sorted(set(data) - _KNOWN_FIELDS)
    if unknown:
        raise ExperimentError(
            f"unknown request field(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(_KNOWN_FIELDS))}"
        )
    scale = data.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) or not (
        0.0 < float(scale) <= 1.0
    ):
        raise ExperimentError(f"'scale' must be a number in (0, 1], got {scale!r}")
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ExperimentError(f"'seed' must be an integer, got {seed!r}")
    benchmarks = data.get("benchmarks")
    if benchmarks is not None:
        benchmarks = _string_list(benchmarks, "benchmarks")
    schedulers = data.get("schedulers")
    if schedulers is not None:
        schedulers = _string_list(schedulers, "schedulers")
    render_format = data.get("format", "md")
    if render_format not in RENDER_FORMATS:
        raise ExperimentError(
            f"'format' must be one of {', '.join(RENDER_FORMATS)}, got {render_format!r}"
        )
    return RenderRequest(
        scale=float(scale),
        seed=seed,
        benchmarks=benchmarks,
        schedulers=schedulers,
        format=render_format,
    )


def etag_for(experiment: str, request: RenderRequest, keys: Sequence[str]) -> str:
    """The strong ETag of one render: a digest of its deterministic identity.

    Covers the canonical experiment name, every output-shaping knob
    (``scale``/``seed``/``benchmarks``/``schedulers``/``format`` — order
    matters for row order, so lists are digested as given), and the sorted
    canonical key set the render resolves to.
    """
    material = json.dumps(
        {
            "experiment": experiment,
            "scale": repr(request.scale),
            "seed": request.seed,
            "benchmarks": request.benchmarks,
            "schedulers": request.schedulers,
            "format": request.format,
            "keys": sorted(keys),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return '"' + hashlib.sha256(material.encode("utf-8")).hexdigest() + '"'


def etag_matches(if_none_match: Optional[str], etag: str) -> bool:
    """RFC 7232 ``If-None-Match`` comparison (weak-insensitive, ``*`` aware)."""
    if if_none_match is None:
        return False
    if if_none_match.strip() == "*":
        return True
    candidates = [value.strip() for value in if_none_match.split(",")]
    stripped = {value[2:] if value.startswith("W/") else value for value in candidates}
    return etag in stripped
