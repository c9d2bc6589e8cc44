"""The reliability subsystem, pinned as tests.

Fault injection (``repro.reliability.faults``) is the instrument; the claims
under test are the recovery contracts:

* a campaign disturbed by crashed, hung or erroring workers recovers and
  renders bytes *identical* to an undisturbed serial run;
* every key is attempted at most ``RetryPolicy.max_attempts`` times, with
  deterministic backoff, and deterministic failures are never retried;
* corrupt cache entries (torn writes, bit flips) are quarantined and
  resimulated instead of being served or aborting the run;
* the results daemon degrades predictably: clean 400s for malformed input,
  503 + ``Retry-After`` for cached failures and deadline misses, and a
  ``/healthz`` that says *why* it is degraded.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.errors import ExperimentError
from repro.experiments.cache import (
    QUARANTINE_DIRNAME,
    ResultCache,
    load_cost_profile,
    result_checksum,
)
from repro.experiments.campaign import CampaignEngine, CampaignRunError, RunRequest
from repro.experiments.cli import main as cli_main
from repro.experiments.common import SimulationRunner
from repro.experiments.registry import resolve_plan
from repro.experiments.shard import MergeReport
from repro.reliability import faults
from repro.reliability.faults import FaultPlan, InjectedFault, maybe_fault, parse_faults
from repro.reliability.retry import RetryPolicy
from repro.reliability.watchdog import (
    Watchdog,
    WatchdogConfig,
    read_heartbeats,
    write_heartbeat,
)
from repro.service.server import ResultsService, _HttpError

from tests.test_service import ServiceThread
from tests.util import experiment_output

SCALE = 0.05
BENCHMARKS = ["blackscholes"]
REQUEST = RunRequest(benchmark="blackscholes", runtime="software")

#: A retry policy with no real sleeping, for fast chaos tests.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """Every test leaves the process with no fault plan installed."""
    yield
    faults.install_plan(None)


# ---------------------------------------------------------------------------
# Fault spec grammar and firing rules
# ---------------------------------------------------------------------------
class TestFaultGrammar:
    def test_spec_roundtrips_through_describe(self):
        spec = "crash@sim:key%7,hang@cache-read:2,corrupt@commit:1,error@sim:key%3=1x2"
        plan = parse_faults(spec)
        assert plan.describe() == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "explode@sim",          # unknown kind
            "crash@warehouse",      # unknown site
            "crash",                # no site
            "crash@sim:zero",       # malformed selector
            "crash@sim:0",          # occurrence < 1
            "crash@sim:key%0",      # modulo < 1
            "crash@sim:key%3=7",    # residue out of range
            "",                     # empty spec
            " , ,",                 # only separators
            "crash@claim",          # site of the removed work stealing
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ExperimentError):
            parse_faults(bad)

    def test_occurrence_selector_counts_per_site(self):
        plan = parse_faults("error@sim:2")
        assert plan.fire("sim", "00", 1) is None       # first hit passes
        assert plan.fire("cache-read", "00", 1) is None  # other site, own counter
        assert plan.fire("sim", "00", 1) is not None   # second hit fires
        assert plan.fire("sim", "00", 1) is None       # third hit passes

    def test_modulo_selector_is_key_deterministic(self):
        plan = parse_faults("error@sim:key%4=1")
        assert plan.fire("sim", "09", 1) is not None   # 9 % 4 == 1
        assert plan.fire("sim", "08", 1) is None
        assert plan.fire("sim", None, 1) is None       # key-blind hits pass
        assert plan.fire("sim", "zz", 1) is None       # non-hex key passes

    def test_attempt_gating_defaults_to_first_attempt(self):
        plan = parse_faults("error@sim:key%1")
        assert plan.fire("sim", "0a", 1) is not None
        assert plan.fire("sim", "0a", 2) is None       # retry converges
        permanent = parse_faults("error@sim:key%1x99")
        assert permanent.fire("sim", "0a", 7) is not None

    def test_maybe_fault_error_raises_and_corrupt_returns(self):
        faults.install_plan(parse_faults("error@sim,corrupt@commit"))
        with pytest.raises(InjectedFault):
            maybe_fault("sim", "0a")
        fault = maybe_fault("commit", "0a")
        assert fault is not None and fault.kind == "corrupt"
        assert maybe_fault("merge") is None            # un-faulted site

    def test_no_plan_fast_path_returns_none(self):
        faults.install_plan(None)
        assert maybe_fault("sim", "0a") is None

    def test_env_spec_is_loaded_lazily(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@serve")
        faults._PLAN = None
        faults._LOADED = False
        try:
            plan = faults.active_plan()
            assert plan is not None and plan.describe() == "error@serve"
            assert faults.active_spec() == "error@serve"
        finally:
            faults.install_plan(None)

    def test_ensure_plan_keeps_identical_plan_counters(self):
        plan = faults.install_plan(parse_faults("error@sim:2"))
        plan.fire("sim", "00", 1)
        assert faults.ensure_plan("error@sim:2") is plan  # counters preserved
        assert faults.ensure_plan("error@sim:3") is not plan

    def test_hang_seconds_from_argument_and_env(self, monkeypatch):
        assert parse_faults("hang@sim", hang_seconds=1.5).hang_seconds == 1.5
        monkeypatch.setenv("REPRO_FAULTS_HANG_S", "2.5")
        assert parse_faults("hang@sim").hang_seconds == 2.5


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.1, max_delay_s=0.5)
        delays = [policy.delay(attempt, "deadbeef") for attempt in (1, 2, 3, 4)]
        assert delays == [policy.delay(a, "deadbeef") for a in (1, 2, 3, 4)]
        assert all(d <= 0.5 * (1 + policy.jitter) for d in delays)
        assert delays[1] > delays[0]  # exponential up to the cap
        # Distinct keys decorrelate; zero jitter removes the spread.
        assert policy.delay(1, "deadbeef") != policy.delay(1, "cafebabe")
        flat = RetryPolicy(base_delay_s=0.1, jitter=0.0)
        assert flat.delay(2, "x") == pytest.approx(0.2)

    def test_transient_classification(self):
        policy = RetryPolicy()
        for name in ("WorkerTimeout", "WorkerCrash", "WorkerStall",
                     "InjectedFault", "OSError", "BrokenProcessPool"):
            assert policy.transient(name), name
        for name in ("ExperimentError", "KeyError", "ZeroDivisionError"):
            assert not policy.transient(name), name

    def test_budget_and_validation(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.exhausted(2) and policy.exhausted(3)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_MAX", "7")
        monkeypatch.setenv("REPRO_RETRY_DELAY_S", "0.125")
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 7
        assert policy.base_delay_s == 0.125


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------
class TestWatchdog:
    def test_heartbeat_roundtrip_and_torn_files(self, tmp_path):
        write_heartbeat(tmp_path, "abc123", attempt=2)
        (tmp_path / "hb-9999999.json").write_text("{torn", encoding="utf-8")
        started = read_heartbeats(tmp_path)
        assert set(started) == {"abc123"}
        assert started["abc123"] == pytest.approx(time.time(), abs=5.0)

    def test_earliest_start_wins_for_duplicate_keys(self, tmp_path):
        (tmp_path / "hb-1.json").write_text(
            json.dumps({"pid": 1, "key": "k", "attempt": 1, "started": 100.0}))
        (tmp_path / "hb-2.json").write_text(
            json.dumps({"pid": 2, "key": "k", "attempt": 2, "started": 50.0}))
        assert read_heartbeats(tmp_path) == {"k": 50.0}

    def test_deadline_is_prediction_times_slack_with_floor(self):
        class Model:
            def predict(self, resolved):
                return 10.0

        class Broken:
            def predict(self, resolved):
                raise RuntimeError("no profile")

        config = WatchdogConfig(slack=4.0, min_seconds=2.0)
        assert Watchdog(config, Model()).deadline_for(object()) == 40.0
        assert Watchdog(config, Broken()).deadline_for(object()) == 2.0
        assert Watchdog(config, None).deadline_for(object()) == 2.0

    def test_overdue_counts_from_worker_start(self, tmp_path):
        dog = Watchdog(WatchdogConfig(slack=1.0, min_seconds=1.0), None, tmp_path)
        (tmp_path / "hb-1.json").write_text(
            json.dumps({"pid": 1, "key": "slow", "started": 100.0}))
        deadlines = {"slow": 5.0, "queued": 5.0}  # "queued" never heartbeat
        verdicts = dog.overdue(deadlines, now=110.0)
        assert verdicts == {"slow": pytest.approx(10.0)}
        assert dog.overdue(deadlines, now=104.0) == {}
        dog.reset()
        assert read_heartbeats(tmp_path) == {}

    def test_config_validation_and_env(self, monkeypatch):
        with pytest.raises(ValueError):
            WatchdogConfig(slack=0.0)
        monkeypatch.setenv("REPRO_WATCHDOG_SLACK", "3.0")
        monkeypatch.setenv("REPRO_WATCHDOG_MIN_S", "1.0")
        config = WatchdogConfig.from_env()
        assert config.slack == 3.0 and config.min_seconds == 1.0


# ---------------------------------------------------------------------------
# Cache integrity: checksums, quarantine, orphan sweeping
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def real_entry(tmp_path_factory):
    """(key, entry bytes) of one genuine cached simulation result."""
    directory = tmp_path_factory.mktemp("entry-source")
    engine = CampaignEngine(scale=SCALE, cache_dir=directory)
    resolved = engine.resolve(REQUEST)
    engine.run(REQUEST)
    return resolved.key, engine.disk_cache.path_for(resolved.key).read_bytes()


def plant(cache: ResultCache, key: str, blob: bytes) -> None:
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)


class TestCacheIntegrity:
    def test_intact_entry_hits(self, tmp_path, real_entry):
        key, blob = real_entry
        cache = ResultCache(tmp_path)
        plant(cache, key, blob)
        assert cache.get(key) is not None
        assert cache.hits == 1 and cache.quarantined == 0

    def test_bit_flip_is_quarantined_as_a_miss(self, tmp_path, real_entry):
        key, blob = real_entry
        document = json.loads(blob)
        document["result"]["total_cycles"] += 1  # stored sha256 now stale
        cache = ResultCache(tmp_path)
        plant(cache, key, json.dumps(document).encode())
        assert cache.get(key) is None
        assert cache.misses == 1 and cache.quarantined == 1
        quarantine = tmp_path / QUARANTINE_DIRNAME
        assert (quarantine / f"{key}.json").is_file()
        reason = (quarantine / f"{key}.json.reason").read_text()
        assert "checksum mismatch" in reason
        assert not cache.path_for(key).exists()

    def test_truncated_entry_is_quarantined(self, tmp_path, real_entry):
        key, blob = real_entry
        cache = ResultCache(tmp_path)
        plant(cache, key, blob[: len(blob) // 2])
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert "invalid JSON" in (
            tmp_path / QUARANTINE_DIRNAME / f"{key}.json.reason"
        ).read_text()

    def test_legacy_entry_without_checksum_still_reads(self, tmp_path, real_entry):
        key, blob = real_entry
        document = json.loads(blob)
        del document["sha256"]
        cache = ResultCache(tmp_path)
        plant(cache, key, json.dumps(document).encode())
        assert cache.get(key) is not None
        assert cache.hits == 1 and cache.quarantined == 0

    def test_structurally_malformed_entry_is_quarantined(self, tmp_path, real_entry):
        key, _ = real_entry
        cache = ResultCache(tmp_path)
        plant(cache, key, b"[1, 2, 3]")
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_checksum_covers_canonical_json(self, real_entry):
        _, blob = real_entry
        document = json.loads(blob)
        assert document["sha256"] == result_checksum(document["result"])

    def test_orphaned_tmp_files_are_swept_by_age(self, tmp_path):
        cache = ResultCache(tmp_path)
        bucket = tmp_path / "ab"
        bucket.mkdir()
        stale = bucket / "deadbeef.json.tmp.12345"
        stale.write_text("{half a wri")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        fresh = bucket / "cafebabe.json.tmp.12346"
        fresh.write_text("{being written right now")
        assert cache.sweep_orphans(max_age_s=300.0) == 1
        assert not stale.exists() and fresh.exists()
        assert cache.orphans_swept == 1

    def test_merge_from_quarantines_corrupt_sources(self, tmp_path, real_entry):
        key, blob = real_entry
        source = ResultCache(tmp_path / "source")
        plant(source, key, blob[: len(blob) // 2])      # torn shard entry
        other = "0" * 64
        plant(source, other, blob)                      # healthy entry
        destination = ResultCache(tmp_path / "merged")
        copied = destination.merge_from(source)
        assert copied == 1
        assert source.quarantined == 1
        assert (tmp_path / "source" / QUARANTINE_DIRNAME / f"{key}.json").is_file()
        assert destination.get(other) is not None

    def test_merge_report_mentions_quarantined_entries(self):
        report = MergeReport(
            experiment="figure_02", entries_copied=3, planned_keys=4,
            missing_keys=["a" * 64], manifests=[], failures={},
            missing_shards=[], quarantined=2,
        )
        assert "quarantined=2" in report.summary()


# ---------------------------------------------------------------------------
# Campaign recovery: the byte-identity contract under fire
# ---------------------------------------------------------------------------
class TestCampaignRecovery:
    def test_serial_transient_error_is_retried_once(self):
        faults.install_plan(parse_faults("error@sim:key%1"))
        engine = CampaignEngine(scale=SCALE, retry_policy=FAST_RETRY)
        disturbed = engine.run(REQUEST)
        assert engine.retries == 1
        faults.install_plan(None)
        clean = CampaignEngine(scale=SCALE).run(REQUEST)
        assert disturbed.total_cycles == clean.total_cycles

    def test_permanent_fault_exhausts_with_attempt_history(self):
        faults.install_plan(parse_faults("error@sim:key%1x99"))
        engine = CampaignEngine(scale=SCALE, retry_policy=FAST_RETRY)
        with pytest.raises(CampaignRunError) as excinfo:
            engine.run_many([REQUEST])
        error = excinfo.value
        assert len(error.attempts) == FAST_RETRY.max_attempts
        assert [record["attempt"] for record in error.attempts] == [1, 2, 3]
        assert all(r["error_type"] == "InjectedFault" for r in error.attempts)
        assert "attempts" in error.to_dict()

    def test_deterministic_error_is_never_retried(self):
        from repro.errors import ConfigurationError

        engine = CampaignEngine(scale=SCALE, retry_policy=FAST_RETRY)
        with pytest.raises(ConfigurationError):
            engine.run(RunRequest(benchmark="no-such-benchmark", runtime="software"))
        assert engine.retries == 0

    def test_torn_commit_is_quarantined_and_resimulated(self, tmp_path):
        faults.install_plan(parse_faults("corrupt@commit:1"))
        first = CampaignEngine(scale=SCALE, cache_dir=tmp_path)
        reference = first.run(REQUEST)
        faults.install_plan(None)
        second = CampaignEngine(scale=SCALE, cache_dir=tmp_path)
        recovered = second.run(REQUEST)
        assert second.disk_cache.quarantined == 1
        assert recovered.total_cycles == reference.total_cycles
        # The resimulated entry is sound: a third engine reads it as a hit.
        third = CampaignEngine(scale=SCALE, cache_dir=tmp_path)
        assert third.run(REQUEST).total_cycles == reference.total_cycles
        assert third.disk_cache.hits == 1

    def test_parallel_campaign_recovers_crashes_and_hangs_byte_identically(self):
        # Every key draws exactly one fault on its first attempt: even keys
        # crash the worker outright (SIGKILL-equivalent), odd keys hang
        # until the watchdog strikes them.  The recovered parallel campaign
        # must render bytes identical to an undisturbed serial run.
        faults.install_plan(
            parse_faults("crash@sim:key%2,hang@sim:key%2=1", hang_seconds=600.0)
        )
        engine = CampaignEngine(
            scale=SCALE,
            jobs=2,
            retry_policy=FAST_RETRY,
            watchdog_config=WatchdogConfig(
                slack=4.0, min_seconds=2.0, poll_interval_s=0.02
            ),
        )
        plan = resolve_plan(
            "figure_12", SimulationRunner(engine=engine), benchmarks=BENCHMARKS
        )
        assert len(plan) > 1  # the pool path, not the serial fallback
        engine.run_many([item.request for item in plan])
        assert engine.retries >= 1
        assert engine.watchdog_kills >= 1
        # Attempts stayed within budget: every retry is a counted strike.
        assert engine.retries <= (FAST_RETRY.max_attempts - 1) * len(plan)
        faults.install_plan(None)  # render (and any stragglers) fault-free
        disturbed = experiment_output(
            "figure_12", SCALE, BENCHMARKS, runner=SimulationRunner(engine=engine)
        )
        assert disturbed == experiment_output("figure_12", SCALE, BENCHMARKS)
        info = engine.reliability_info()
        assert info["retries"] == engine.retries
        assert info["watchdog_kills"] == engine.watchdog_kills


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCLI:
    def test_malformed_faults_spec_fails_fast(self, capsys):
        assert cli_main(["figure_02", "--faults", "explode@warehouse"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_faults_flag_installs_plan_and_reports_recovery(self, capsys):
        code = cli_main([
            "figure_02", "--scale", str(SCALE),
            "--benchmarks", "blackscholes",
            "--faults", "error@sim:key%1",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "[reliability]" in captured.out
        assert "retries=" in captured.out

    def test_clean_run_prints_no_reliability_line(self, capsys):
        code = cli_main([
            "figure_02", "--scale", str(SCALE), "--benchmarks", "blackscholes",
        ])
        assert code == 0
        assert "[reliability]" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Results daemon degradation
# ---------------------------------------------------------------------------
RENDER_BODY = {"scale": SCALE, "benchmarks": BENCHMARKS, "format": "csv"}


def reliability_daemon(cache_dir, **service_kwargs):
    """A ServiceThread whose service takes the reliability knobs."""
    thread = ServiceThread(cache_dir=cache_dir)
    thread.service = ResultsService(
        cache_dir=cache_dir, workers=2, log=thread.log, **service_kwargs
    )
    return thread


def raw_exchange(address, payload: bytes) -> bytes:
    with socket.create_connection(tuple(address), timeout=30) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class ChildProcessSampler:
    """Peak number of live child processes while the ``with`` block runs."""

    def __enter__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        while not self._stop.is_set():
            try:
                self.peak = max(self.peak, len(multiprocessing.active_children()))
            except RuntimeError:  # the child set changed while listed
                pass
            self._stop.wait(0.005)

    def __exit__(self, *_exc):
        self._stop.set()
        self._thread.join()


class TestDaemonDegradation:
    def test_crashed_worker_is_retried_and_cold_renders_keep_serving(
        self, tmp_path, monkeypatch
    ):
        # A pool worker that dies mid-simulation (os._exit) must cost the
        # daemon one retry, not its pool: the crashed figure and the next
        # cold figure both render the CLI bytes, with never more than
        # `workers` simulating processes alive.
        expected = {
            name: experiment_output(name, SCALE, BENCHMARKS)[0]
            for name in ("figure_12", "figure_09")
        }
        plan = resolve_plan("figure_12", SimulationRunner(scale=SCALE), benchmarks=BENCHMARKS)
        modulo = 3
        assert any(int(item.key, 16) % modulo == 0 for item in plan)
        monkeypatch.setenv("REPRO_WATCHDOG_MIN_S", "2")
        monkeypatch.setenv("REPRO_RETRY_DELAY_S", "0")
        faults.install_plan(parse_faults(f"crash@sim:key%{modulo}"))
        with reliability_daemon(tmp_path / "cache") as live, ChildProcessSampler() as sampler:
            first = live.render("figure_12", RENDER_BODY)
            assert first[0] == 200, first[2]
            engine = live.service.engines[(SCALE, 0)]
            simulated = engine.simulations_run
            second = live.render("figure_09", RENDER_BODY)
            assert engine.simulations_run > simulated  # the second figure was cold
            _, _, body = live.request("GET", "/healthz")
        assert second[0] == 200, second[2]
        assert first[2].decode() == expected["figure_12"]
        assert second[2].decode() == expected["figure_09"]
        health = json.loads(body)["reliability"]
        assert health["retries"] >= 1
        assert health["watchdog_kills"] >= 1
        assert 1 <= sampler.peak <= live.service.workers
        # The daemon's runs calibrate the cache's cost profile too.
        assert len(load_cost_profile(tmp_path / "cache")) == engine.simulations_run

    def test_oversized_request_line_is_a_clean_400(self, tmp_path):
        with reliability_daemon(tmp_path / "cache") as live:
            response = raw_exchange(
                live.address, b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n"
            )
            assert response.startswith(b"HTTP/1.1 400 ")
            assert b"oversized request line" in response
            # The daemon survived; the next request is served normally.
            status, _, _ = live.request("GET", "/healthz")
            assert status == 200

    def test_header_flood_is_a_clean_400(self, tmp_path):
        with reliability_daemon(tmp_path / "cache") as live:
            flood = b"".join(b"X-Padding-%d: a\r\n" % i for i in range(150))
            response = raw_exchange(
                live.address, b"GET /healthz HTTP/1.1\r\n" + flood + b"\r\n"
            )
            assert response.startswith(b"HTTP/1.1 400 ")
            assert b"header lines" in response

    def test_internal_errors_do_not_leak_exception_text(self, tmp_path):
        faults.install_plan(parse_faults("error@serve"))
        with reliability_daemon(tmp_path / "cache") as live:
            status, _, body = live.render("figure_02", RENDER_BODY)
        assert status == 500
        assert json.loads(body) == {"error": "internal server error"}
        assert "InjectedFault" in live.log.getvalue()  # logged, not served

    def test_failure_caching_and_degraded_healthz(self, tmp_path):
        # Every simulation attempt of every key fails deterministically; the
        # first render pays the simulation and answers 500, the second is
        # answered from the negative-TTL failure cache without simulating.
        faults.install_plan(parse_faults("error@sim:key%1x999"))
        with reliability_daemon(tmp_path / "cache", failure_ttl_s=60.0) as live:
            status, _, _ = live.render("figure_02", RENDER_BODY)
            assert status == 500
            # Rerequest until the first-probed key's failure is in the
            # negative cache (its flight-mates may still be landing); the
            # TTL (60 s) far outlives the loop, so 503 is reached.
            for _ in range(40):
                status, headers, body = live.render("figure_02", RENDER_BODY)
                if status == 503:
                    break
                assert status == 500
                time.sleep(0.1)
            assert status == 503
            assert int(headers["Retry-After"]) >= 1
            assert "cached failure" in json.loads(body)["error"]
            assert live.service.failure_cache_hits >= 1
            # A cached refusal starts no new simulation flights.
            flights_started = live.service.flights.started
            status, _, _ = live.render("figure_02", RENDER_BODY)
            assert status == 503
            assert live.service.flights.started == flights_started
            status, _, body = live.request("GET", "/healthz")
            health = json.loads(body)
            assert health["status"] == "degraded"
            assert any("failure cache" in reason
                       for reason in health["degraded_reasons"])
            assert health["reliability"]["failure_cache"] >= 1

    def test_render_deadline_expires_into_503_then_warms(self, tmp_path):
        # The first simulation of the run hangs for 2 s against a 0.3 s
        # request deadline: the render answers 503 + Retry-After while the
        # simulations (shielded by single-flight) finish in the background;
        # a retried render is then served from the warm cache.
        faults.install_plan(parse_faults("hang@sim:1", hang_seconds=2.0))
        with reliability_daemon(
            tmp_path / "cache", request_timeout_s=0.3
        ) as live:
            status, headers, body = live.render("figure_02", RENDER_BODY)
            assert status == 503
            assert headers["Retry-After"] == "2"
            assert "deadline" in json.loads(body)["error"]
            assert live.service.deadline_expired == 1
            faults.install_plan(None)
            deadline = time.time() + 60
            while time.time() < deadline:
                status, _, _ = live.render("figure_02", RENDER_BODY)
                if status == 200:
                    break
                time.sleep(0.25)
            assert status == 200

    def test_queue_budget_refuses_with_retry_after(self):
        service = ResultsService(workers=1, queue_budget=0)
        service.inflight_sims = 5
        with pytest.raises(_HttpError) as excinfo:
            service._check_queue_budget(1)
        assert excinfo.value.status == 503
        assert "Retry-After" in excinfo.value.headers
        assert service.rejected_busy == 1
        _, body, _, _ = asyncio.run(service.handle_healthz())
        health = json.loads(body)
        assert health["status"] == "degraded"
        assert any("queue" in reason for reason in health["degraded_reasons"])

    def test_validation_rejects_bad_knobs(self):
        with pytest.raises(ExperimentError):
            ResultsService(queue_budget=-1)
        # Non-positive deadlines mean "unbounded", not "instant timeout".
        assert ResultsService(request_timeout_s=0).request_timeout_s is None

    def test_shutdown_drains_and_flags_draining(self, tmp_path):
        with reliability_daemon(tmp_path / "cache") as live:
            status, _, _ = live.request("GET", "/healthz")
            assert status == 200
        assert live.service.draining is True
        assert live.service._active_requests == 0
