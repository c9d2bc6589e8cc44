"""The results daemon's service contract, pinned as tests.

The daemon's pitch is the cache story: one long-lived ``ResultCache``
serves every request, concurrent identical requests coalesce to one
simulation per canonical key (single-flight), and the bytes a client
receives are *identical* to the CLI render of the same figure —
with an ETag over the resolved key set so revalidation costs nothing.
"""

from __future__ import annotations

import asyncio
import http.client
import io
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.schemas import RenderRequest, etag_for, etag_matches, parse_render_request
from repro.service.server import ResultsService
from repro.service.singleflight import SingleFlight
from repro.errors import ExperimentError

from tests.util import experiment_output

SCALE = 0.05
BENCHMARKS = ["blackscholes"]


class ServiceThread:
    """A live daemon on an ephemeral port, driven from test threads."""

    def __init__(self, cache_dir=None, workers=2):
        self.log = io.StringIO()
        self.service = ResultsService(cache_dir=cache_dir, workers=workers, log=self.log)
        self.address = None
        self._ready = threading.Event()
        self._loop = None
        self._task = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        ready = asyncio.Event()
        bound = []
        self._task = asyncio.create_task(self.service.serve(port=0, ready=ready, bound=bound))
        await ready.wait()
        self.address = bound[0]
        self._ready.set()
        try:
            await self._task
        except asyncio.CancelledError:
            pass

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30), "daemon did not come up"
        return self

    def __exit__(self, *_exc):
        self._loop.call_soon_threadsafe(self._task.cancel)
        self._thread.join(timeout=30)

    def request(self, method, path, body=None, headers=None):
        """One HTTP exchange; returns (status, headers-dict, body-bytes)."""
        host, port = self.address
        connection = http.client.HTTPConnection(host, port, timeout=120)
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            connection.close()

    def render(self, name, body=None, headers=None):
        payload = json.dumps(body).encode() if body is not None else None
        return self.request("POST", f"/figures/{name}", payload, headers)


@pytest.fixture(scope="module")
def cli_outputs():
    """Reference CLI bytes of the figures the service tests render."""
    return {
        name: experiment_output(name, SCALE, BENCHMARKS)
        for name in ("figure_02", "figure_12")
    }


@pytest.fixture()
def daemon(tmp_path):
    with ServiceThread(cache_dir=tmp_path / "cache") as live:
        yield live


RENDER_BODY = {"scale": SCALE, "benchmarks": BENCHMARKS, "format": "csv"}


class TestEndpoints:
    def test_healthz(self, daemon):
        status, _, body = daemon.request("GET", "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["cache_dir"] is not None

    def test_experiments_lists_the_registry(self, daemon):
        status, _, body = daemon.request("GET", "/experiments")
        catalog = json.loads(body)["experiments"]
        assert status == 200
        names = [entry["name"] for entry in catalog]
        assert "figure_02" in names and "table_03" in names
        by_name = {entry["name"]: entry for entry in catalog}
        assert by_name["figure_02"]["simulates"] is True
        assert by_name["table_03"]["simulates"] is False
        assert "fig2" in by_name["figure_02"]["aliases"]

    def test_unknown_route_and_job_and_experiment_404(self, daemon):
        assert daemon.request("GET", "/nope")[0] == 404
        assert daemon.request("GET", "/jobs/job-999")[0] == 404
        assert daemon.render("figure_99", RENDER_BODY)[0] == 404

    def test_wrong_method_405(self, daemon):
        assert daemon.request("POST", "/experiments", b"{}")[0] == 405
        assert daemon.request("GET", "/figures/figure_02")[0] == 405

    def test_invalid_bodies_400(self, daemon):
        assert daemon.render("figure_02", {"scale": 7})[0] == 400
        assert daemon.render("figure_02", {"scales": 0.1})[0] == 400
        assert daemon.render("figure_02", {"format": "pdf"})[0] == 400
        # The retired DMU backend knob is an unknown field like any other.
        assert daemon.render("figure_02", {"backend": "pure"})[0] == 400
        status, _, body = daemon.request("POST", "/figures/figure_02", b"not json")
        assert status == 400 and b"JSON" in body

    def test_unsupported_option_400(self, daemon):
        # figure_02 has no scheduler sweep; the knob must fail loudly.
        status, _, _ = daemon.render(
            "figure_02", dict(RENDER_BODY, schedulers=["fifo"])
        )
        assert status == 400


class TestRenderContract:
    def test_served_bytes_identical_to_cli_render(self, daemon, cli_outputs):
        status, headers, body = daemon.render("figure_02", RENDER_BODY)
        assert status == 200
        assert body.decode("utf-8") == cli_outputs["figure_02"][0]
        assert headers["Content-Type"].startswith("text/csv")
        status, _, markdown = daemon.render("figure_02", dict(RENDER_BODY, format="md"))
        assert status == 200
        assert markdown.decode("utf-8") == cli_outputs["figure_02"][1]

    def test_warm_rerequest_is_simulation_free_and_revalidates_304(self, daemon):
        status, headers, body = daemon.render("figure_02", RENDER_BODY)
        assert status == 200
        etag = headers["ETag"]
        job = json.loads(daemon.request("GET", "/jobs/" + headers["X-Job-Id"])[2])
        assert job["status"] == "done" and job["simulated"] == job["attempted"] == 1

        # Warm re-request: same bytes, same ETag, zero simulations.
        status2, headers2, body2 = daemon.render("figure_02", RENDER_BODY)
        assert (status2, body2) == (200, body)
        assert headers2["ETag"] == etag
        job2 = json.loads(daemon.request("GET", "/jobs/" + headers2["X-Job-Id"])[2])
        assert job2["simulated"] == 0 and job2["cached_hits"] == 1
        assert "simulated=0" in daemon.log.getvalue()

        # Conditional request: 304, no body, no new job.
        status3, headers3, body3 = daemon.render(
            "figure_02", RENDER_BODY, headers={"If-None-Match": etag}
        )
        assert (status3, body3) == (304, b"")
        assert headers3["ETag"] == etag

    def test_engines_are_keyed_by_scale_and_seed(self, daemon):
        assert daemon.render("figure_02", RENDER_BODY)[0] == 200
        assert daemon.render("figure_02", dict(RENDER_BODY, format="md"))[0] == 200
        assert list(daemon.service.engines) == [(SCALE, 0)]
        assert daemon.render("figure_02", dict(RENDER_BODY, seed=1))[0] == 200
        assert sorted(daemon.service.engines) == [(SCALE, 0), (SCALE, 1)]

    def test_analytic_table_renders_and_revalidates(self, daemon):
        status, headers, body = daemon.render("table_03", {"format": "md"})
        assert status == 200 and b"|" in body
        job = json.loads(daemon.request("GET", "/jobs/" + headers["X-Job-Id"])[2])
        assert job["attempted"] == 0 and job["simulated"] == 0
        status2, _, _ = daemon.render(
            "table_03", {"format": "md"}, headers={"If-None-Match": headers["ETag"]}
        )
        assert status2 == 304

    def test_aliases_resolve(self, daemon, cli_outputs):
        status, _, body = daemon.render("fig2", RENDER_BODY)
        assert status == 200
        assert body.decode("utf-8") == cli_outputs["figure_02"][0]


class TestSingleFlight:
    def test_concurrent_identical_requests_simulate_each_key_once(
        self, daemon, cli_outputs
    ):
        clients = 6
        body = dict(RENDER_BODY)
        with ThreadPoolExecutor(max_workers=clients) as pool:
            outcomes = list(
                pool.map(lambda _: daemon.render("figure_12", body), range(clients))
            )
        assert all(status == 200 for status, _, _ in outcomes)
        bodies = {payload for _, _, payload in outcomes}
        etags = {headers["ETag"] for _, headers, _ in outcomes}
        assert len(bodies) == 1 and len(etags) == 1
        assert bodies.pop().decode("utf-8") == cli_outputs["figure_12"][0]
        service = daemon.service
        engine = next(iter(service.engines.values()))
        planned = len(
            json.loads(daemon.request("GET", "/jobs/job-1")[2])["keys"]
        )
        assert planned > 1  # a real sweep, not a one-key figure
        # The contract: exactly one simulation per canonical key, ever.
        assert engine.simulations_run == planned
        assert service.flights.started >= planned
        assert len(service.flights) == 0

    def test_singleflight_unit_semantics(self):
        async def scenario():
            flights = SingleFlight()
            gate = asyncio.Event()
            runs = []

            async def work():
                await gate.wait()
                runs.append(1)
                return len(runs)

            tasks = [asyncio.create_task(flights.run("key", work)) for _ in range(5)]
            await asyncio.sleep(0)  # let every caller join the flight
            gate.set()
            results = await asyncio.gather(*tasks)
            assert results == [1] * 5 and len(runs) == 1
            assert flights.started == 1 and flights.joined == 4
            # The flight landed, the registry is clean, a rerun re-executes.
            assert len(flights) == 0
            assert await flights.run("key", work) == 2

        asyncio.run(scenario())


class TestSchemas:
    def test_defaults_and_roundtrip(self):
        request = parse_render_request(b"")
        assert request == RenderRequest()
        request = parse_render_request(
            json.dumps(
                {"scale": 0.5, "seed": 3, "benchmarks": ["qr"], "format": "csv"}
            ).encode()
        )
        assert request.scale == 0.5 and request.seed == 3

    def test_rejects_bad_types(self):
        for payload in (
            {"scale": "big"},
            {"scale": True},
            {"seed": 1.5},
            {"benchmarks": "qr"},
            {"schedulers": [1]},
            {"backend": "pure"},
            [1, 2],
        ):
            with pytest.raises(ExperimentError):
                parse_render_request(json.dumps(payload).encode())

    def test_etag_covers_output_shaping_knobs_only(self):
        base = RenderRequest(scale=0.5, benchmarks=["qr"], format="csv")
        keys = ["aa" * 32, "bb" * 32]
        etag = etag_for("figure_02", base, keys)
        assert etag == etag_for("figure_02", base, list(reversed(keys)))
        # Pinned: ETags cached by clients stay valid across releases.
        assert etag == '"1726de094a187d127df81904b7f5638a56e65636a6a643245bb1f9911555134d"'
        assert etag != etag_for("figure_02", base, keys[:1])
        assert etag != etag_for(
            "figure_02", RenderRequest(scale=0.5, benchmarks=["qr"], format="md"), keys
        )
        assert etag != etag_for("figure_10", base, keys)

    def test_etag_matches_rfc7232(self):
        etag = '"abc"'
        assert etag_matches(etag, etag)
        assert etag_matches('W/"abc"', etag)
        assert etag_matches('"zzz", "abc"', etag)
        assert etag_matches("*", etag)
        assert not etag_matches(None, etag)
        assert not etag_matches('"zzz"', etag)
