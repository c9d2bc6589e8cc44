"""Long-running campaign results daemon (``tdm-repro serve``).

A stdlib-only asyncio HTTP/JSON service that keeps one
:class:`~repro.experiments.cache.ResultCache` and one built-``TaskProgram``
cache open for its whole lifetime, so repeated figure renders are served
from memory instead of paying a cold CLI process per request
(``docs/architecture.md`` has the full protocol).

* :class:`~repro.service.server.ResultsService` — the daemon: request
  routing, per-parameter :class:`~repro.experiments.campaign.CampaignEngine`
  pool, simulation offload through the engine's retrying, watchdogged loop
  (at most ``workers`` simulating processes).
* :class:`~repro.service.singleflight.SingleFlight` — coalesces concurrent
  identical work by canonical run key (N clients, one simulation).
* :class:`~repro.service.jobs.JobTable` — per-request progress records in
  the ``ShardManifest`` vocabulary (``GET /jobs/<id>``).
* :mod:`~repro.service.schemas` — JSON request validation and the
  canonical-key-set ETag derivation.
"""

from .jobs import JobTable
from .schemas import RenderRequest, etag_for
from .server import ResultsService, serve
from .singleflight import SingleFlight

__all__ = [
    "JobTable",
    "RenderRequest",
    "ResultsService",
    "SingleFlight",
    "etag_for",
    "serve",
]
