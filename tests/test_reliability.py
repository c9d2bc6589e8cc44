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
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import re
import socket
import threading
import time
from contextlib import closing

import pytest

from repro.core.stats import DMUStats
from repro.errors import ExperimentError
from repro.experiments import campaign
from repro.experiments.cache import (
    CACHE_FORMAT_VERSION,
    QUARANTINE_DIRNAME,
    ResultCache,
    canonical_json,
)
from repro.experiments.campaign import CampaignEngine, CampaignRunError, RunRequest, WorkerPool
from repro.experiments.cli import main as cli_main
from repro.experiments.common import SimulationRunner
from repro.experiments.registry import resolve_plan
from repro.experiments.shard import MergeReport
from repro.reliability import faults
from repro.reliability.faults import FaultPlan, InjectedFault, maybe_fault, parse_faults
from repro.reliability.retry import RetryPolicy
from repro.reliability.watchdog import WatchdogConfig
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

    def test_no_plan_hook_is_two_global_reads(self, monkeypatch):
        """The cost every production run pays per hook: no call beyond it."""
        faults.install_plan(None)

        def slow_path(*args, **kwargs):
            raise AssertionError("the no-plan hook left its fast path")

        monkeypatch.setattr(faults, "active_plan", slow_path)
        monkeypatch.setattr(FaultPlan, "fire", slow_path)
        for site in faults.FAULT_SITES:
            assert maybe_fault(site, "deadbeef", 1) is None

    def test_quiet_armed_plan_returns_none(self):
        faults.install_plan("error@sim:key%3=1")  # 0xdeadbeef % 3 == 2
        for attempt in (1, 2):
            assert maybe_fault("sim", "deadbeef", attempt) is None

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
        for name in ("WorkerTimeout", "WorkerCrash", "InjectedFault", "OSError"):
            assert policy.transient(name), name
        for name in ("ExperimentError", "KeyError", "ZeroDivisionError",
                     "WorkerStall", "BrokenProcessPool", "IOError"):
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
class DeadlineRecordingPool:
    """A stand-in pool that runs each payload in-process and records the
    deadline it was submitted with."""

    def __init__(self):
        self.deadlines = []

    def submit(self, payloads, landed, deadline_s):
        self.deadlines.extend(deadline_s for _ in payloads)
        for payload in payloads:
            landed(campaign._simulate_entry(payload))

    def cancel(self, landed):
        pass


class TestWatchdog:
    def test_every_key_gets_the_one_deadline(self):
        pool = DeadlineRecordingPool()
        engine = CampaignEngine(scale=SCALE, jobs=2, worker_pool=pool,
                                watchdog_config=WatchdogConfig(min_seconds=2.0))
        plan = resolve_plan("figure_12", SimulationRunner(engine=engine), benchmarks=BENCHMARKS)
        engine.run_many([item.request for item in plan])
        assert pool.deadlines == [2.0] * engine.simulations_run
        assert engine.simulations_run > 1
        assert WatchdogConfig().min_seconds == 90.0

    def test_config_validation_and_env(self, monkeypatch):
        with pytest.raises(ValueError):
            WatchdogConfig(min_seconds=-1.0)
        monkeypatch.delenv("REPRO_WATCHDOG_MIN_S", raising=False)
        assert WatchdogConfig.from_env() == WatchdogConfig()
        monkeypatch.setenv("REPRO_WATCHDOG_MIN_S", "1.0")
        assert WatchdogConfig.from_env().min_seconds == 1.0

    @pytest.mark.parametrize("raw,seconds", [("", 90.0), ("  ", 90.0), ("2.5", 2.5), ("0", 0.0)])
    def test_env_sets_every_key_s_deadline(self, monkeypatch, raw, seconds):
        monkeypatch.setenv("REPRO_WATCHDOG_MIN_S", raw)
        assert WatchdogConfig.from_env().min_seconds == seconds

    def test_negative_env_deadline_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG_MIN_S", "-3")
        with pytest.raises(ValueError):
            WatchdogConfig.from_env()

    def test_engine_reads_its_deadline_from_the_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG_MIN_S", "7")
        assert CampaignEngine(scale=SCALE).watchdog_config.min_seconds == 7.0
        monkeypatch.delenv("REPRO_WATCHDOG_MIN_S")
        assert CampaignEngine(scale=SCALE).watchdog_config == WatchdogConfig()


# ---------------------------------------------------------------------------
# Cache integrity: checksums, quarantine, orphan sweeping
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def real_entry(tmp_path_factory):
    """(key, entry bytes) of one genuine cached TDM result, DMU stats included."""
    request = RunRequest(benchmark="blackscholes", runtime="tdm")
    engine = CampaignEngine(scale=SCALE, cache_dir=tmp_path_factory.mktemp("entry-source"))
    engine.run(request)
    key = engine.resolve(request).key
    return key, engine.disk_cache.path_for(key).read_bytes()


def plant(cache: ResultCache, key: str, blob: bytes) -> None:
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)


def quarantine_reason(cache_dir, key: str) -> str:
    return (cache_dir / QUARANTINE_DIRNAME / f"{key}.json.reason").read_text()


def rejected_by_get_and_merge(tmp_path, key: str, blob: bytes):
    """The quarantine reasons of ``get`` and of ``merge_from`` for one entry."""
    read = ResultCache(tmp_path / "read")
    plant(read, key, blob)
    assert read.get(key) is None
    assert (read.hits, read.misses, read.quarantined) == (0, 1, 1)
    source = ResultCache(tmp_path / "source")
    plant(source, key, blob)
    merged = ResultCache(tmp_path / "merged")
    assert merged.merge_from(source) == 0 and source.quarantined == 1
    return tuple(quarantine_reason(tmp_path / name, key) for name in ("read", "source"))


class TestCacheIntegrity:
    def test_intact_entry_hits(self, tmp_path, real_entry):
        key, blob = real_entry
        cache = ResultCache(tmp_path)
        plant(cache, key, blob)
        assert cache.get(key) is not None
        assert cache.hits == 1 and cache.quarantined == 0

    def test_put_serialized_writes_the_canonical_document(self, tmp_path, real_entry):
        key, blob = real_entry
        document = json.loads(blob)
        assert blob == canonical_json(document).encode()
        cache = ResultCache(tmp_path)
        assert cache.put_serialized(key, document["result"]).read_bytes() == blob

    def test_bit_flip_is_quarantined_as_a_miss(self, tmp_path, real_entry):
        key, blob = real_entry
        # Flip the low bit of one digit inside the payload: still valid JSON,
        # and the stored sha256 is now stale.
        flipped, count = re.subn(
            rb'("total_cycles":)(\d+)',
            lambda match: match.group(1) + str(int(match.group(2)) ^ 1).encode(),
            blob,
            count=1,
        )
        assert count == 1
        cache = ResultCache(tmp_path)
        plant(cache, key, flipped)
        assert cache.get(key) is None
        assert cache.misses == 1 and cache.quarantined == 1
        quarantine = tmp_path / QUARANTINE_DIRNAME
        assert (quarantine / f"{key}.json").read_bytes() == flipped
        assert "checksum mismatch" in quarantine_reason(tmp_path, key)
        assert not cache.path_for(key).exists()

    def test_flipped_checksum_is_quarantined(self, tmp_path, real_entry):
        key, blob = real_entry
        digest = json.loads(blob)["sha256"].encode()
        other = b"0" if digest[:1] != b"0" else b"1"
        flipped = blob.replace(digest, other + digest[1:])
        cache = ResultCache(tmp_path)
        plant(cache, key, flipped)
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert "checksum mismatch" in quarantine_reason(tmp_path, key)

    def test_misfiled_entry_is_quarantined(self, tmp_path, real_entry):
        key, blob = real_entry
        other = "0" * 64
        cache = ResultCache(tmp_path)
        plant(cache, other, blob)    # intact, wrong filename
        assert cache.get(other) is None
        assert cache.misses == 1 and cache.quarantined == 1
        assert "key mismatch" in quarantine_reason(tmp_path, other)

    def test_truncated_entry_is_quarantined(self, tmp_path, real_entry):
        key, blob = real_entry
        cache = ResultCache(tmp_path)
        plant(cache, key, blob[: len(blob) // 2])
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert "invalid JSON" in quarantine_reason(tmp_path, key)

    def test_sort_keys_entry_is_a_checksum_mismatch(self, tmp_path, real_entry):
        # The layout older writers used, now at the current version: the
        # byte check is the only way an entry verifies.
        key, blob = real_entry
        reencoded = json.dumps(json.loads(blob), sort_keys=True).encode()
        reasons = rejected_by_get_and_merge(tmp_path, key, reencoded)
        assert reasons == ("checksum mismatch\n",) * 2

    @pytest.mark.parametrize("sha256", [{}, {"sha256": 7}], ids=["absent", "not-a-string"])
    def test_entry_without_a_string_checksum_is_quarantined(self, tmp_path, real_entry, sha256):
        key, blob = real_entry
        document = {name: value for name, value in json.loads(blob).items() if name != "sha256"}
        blob = canonical_json(dict(document, **sha256)).encode()
        reasons = rejected_by_get_and_merge(tmp_path, key, blob)
        assert reasons == ("malformed entry: missing sha256\n",) * 2

    @pytest.mark.parametrize(
        "path",
        [(name,) for name in ("dmu_stats", "runtime_stats", "dat_average_occupied_sets",
                              "locality_hit_fraction", "finished_task_count")]
        + [("dmu_stats", field.name) for field in dataclasses.fields(DMUStats)],
        ids=".".join,
    )
    def test_payload_missing_a_result_field_is_quarantined(self, tmp_path, real_entry, path):
        # A sound envelope and checksum around a payload the writer would
        # never write: every field it writes is required.
        key, blob = real_entry
        payload = json.loads(blob)["result"]
        del (payload["dmu_stats"] if len(path) == 2 else payload)[path[-1]]
        blob = ResultCache(tmp_path / "writer").put_serialized(key, payload).read_bytes()
        for reason in rejected_by_get_and_merge(tmp_path, key, blob):
            assert reason.startswith(f"malformed entry: KeyError: {path[-1]!r}")

    def test_merge_leaves_a_stale_version_entry_alone(self, tmp_path, real_entry):
        key, blob = real_entry
        stale = blob.replace(b'"version":%d}' % CACHE_FORMAT_VERSION, b'"version":1}')
        source = ResultCache(tmp_path / "source")
        plant(source, key, stale)
        assert ResultCache(tmp_path / "merged").merge_from(source) == 0
        assert source.quarantined == 0
        assert source.path_for(key).read_bytes() == stale != blob

    def test_structurally_malformed_entry_is_quarantined(self, tmp_path, real_entry):
        key, _ = real_entry
        cache = ResultCache(tmp_path)
        plant(cache, key, b"[1, 2, 3]")
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_checksum_covers_the_canonical_result_bytes(self, real_entry):
        _, blob = real_entry
        document = json.loads(blob)
        payload = canonical_json(document["result"]).encode()
        assert document["sha256"] == hashlib.sha256(payload).hexdigest()

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
        source.put_serialized(other, json.loads(blob)["result"])   # healthy entry
        destination = ResultCache(tmp_path / "merged")
        copied = destination.merge_from(source)
        assert copied == 1
        assert source.quarantined == 1
        assert (tmp_path / "source" / QUARANTINE_DIRNAME / f"{key}.json").is_file()
        assert destination.get(other) is not None

    def test_merge_from_quarantines_misfiled_sources(self, tmp_path, real_entry):
        key, blob = real_entry
        source = ResultCache(tmp_path / "source")
        plant(source, key, blob)                        # filed under its key
        other = "0" * 64
        plant(source, other, blob)                      # intact, wrong filename
        destination = ResultCache(tmp_path / "merged")
        assert destination.merge_from(source) == 1
        assert destination.keys() == [key]
        assert destination.path_for(key).read_bytes() == blob
        assert source.quarantined == 1
        assert "key mismatch" in quarantine_reason(tmp_path / "source", other)

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

    def test_a_crash_is_struck_at_once_at_the_default_deadline(self, monkeypatch):
        # A dead worker is seen by its sentinel, not by a deadline: its key
        # retries in well under the default 90 s, and its one replacement
        # forks only after it is reaped.
        monkeypatch.delenv("REPRO_WATCHDOG_MIN_S", raising=False)
        faults.install_plan(parse_faults("crash@sim"))
        started = time.monotonic()
        with ChildProcessSampler() as sampler, closing(
            CampaignEngine(scale=SCALE, jobs=2, retry_policy=FAST_RETRY)
        ) as engine:
            result = engine.run(REQUEST)
        elapsed = time.monotonic() - started
        faults.install_plan(None)
        assert engine.watchdog_config.min_seconds == 90.0
        assert elapsed < 10.0
        assert (engine.watchdog_kills, engine.retries) == (1, 1)
        assert 1 <= sampler.peak <= engine.jobs
        assert result.to_dict() == CampaignEngine(scale=SCALE).run(REQUEST).to_dict()

    def test_parallel_campaign_recovers_crashes_and_hangs_byte_identically(self):
        # Every key draws exactly one fault on its first attempt: even keys
        # crash the worker outright (SIGKILL-equivalent), odd keys hang
        # until their deadline kills the worker.  The recovered parallel
        # campaign must render bytes identical to an undisturbed serial run.
        faults.install_plan(
            parse_faults("crash@sim:key%2,hang@sim:key%2=1", hang_seconds=600.0)
        )
        with closing(CampaignEngine(
            scale=SCALE,
            jobs=2,
            retry_policy=FAST_RETRY,
            watchdog_config=WatchdogConfig(min_seconds=2.0),
        )) as engine:
            plan = resolve_plan(
                "figure_12", SimulationRunner(engine=engine), benchmarks=BENCHMARKS
            )
            assert len(plan) > 1  # the pool path, not the serial fallback
            engine.run_many([item.request for item in plan])
            # Every key was struck once, as a crash or a timeout, and
            # retried once.
            keys = {item.key for item in plan}
            assert engine.retries == engine.watchdog_kills == len(keys)
            faults.install_plan(None)  # render fault-free
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
        # `workers` simulating processes alive.  The death is seen at once,
        # so the default 90 s deadline is never waited for.
        expected = {
            name: experiment_output(name, SCALE, BENCHMARKS)[0]
            for name in ("figure_12", "figure_09")
        }
        plan = resolve_plan("figure_12", SimulationRunner(scale=SCALE), benchmarks=BENCHMARKS)
        modulo = 3
        assert any(int(item.key, 16) % modulo == 0 for item in plan)
        monkeypatch.delenv("REPRO_WATCHDOG_MIN_S", raising=False)
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

    def test_evicted_engines_and_shutdown_leave_no_worker(self, tmp_path, monkeypatch):
        # Engines borrow the daemon's one pool: evicting one orphans no
        # process, and shutdown reaps every worker.
        monkeypatch.setattr(ResultsService, "ENGINE_LIMIT", 1)
        before = {child.pid for child in multiprocessing.active_children()}
        with reliability_daemon(tmp_path / "cache") as live, ChildProcessSampler() as sampler:
            for seed in (0, 1):
                status, _, body = live.render("figure_02", dict(RENDER_BODY, seed=seed))
                assert status == 200, body
            assert list(live.service.engines) == [(SCALE, 1)]
            workers = {child.pid for child in multiprocessing.active_children()} - before
            assert 1 <= len(workers) <= live.service.workers
        assert sampler.peak - len(before) <= live.service.workers
        assert not {child.pid for child in multiprocessing.active_children()} - before

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


# ---------------------------------------------------------------------------
# One worker pool shared by concurrent callers
# ---------------------------------------------------------------------------
class TestSharedWorkerPool:
    def test_a_hang_kills_only_its_own_worker(self, tmp_path, monkeypatch):
        # Two engines share one pool, as the daemon's do.  One's key hangs
        # past its deadline while the other's batch runs: only the hung
        # worker is killed, so every key of that batch is simulated exactly
        # once, with no retry and no strike, on at most two live workers.
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("a patched worker body reaches the pool only by fork")
        shared = WorkerPool(2)
        striking = CampaignEngine(
            scale=SCALE, jobs=2, worker_pool=shared, retry_policy=FAST_RETRY,
            watchdog_config=WatchdogConfig(min_seconds=1.0),
        )
        patient = CampaignEngine(scale=SCALE, seed=1, jobs=2, worker_pool=shared,
                                 retry_policy=FAST_RETRY)
        plan = [item.request for item in resolve_plan(
            "figure_12", SimulationRunner(engine=patient), benchmarks=BENCHMARKS)]
        patient_keys = {patient.resolve(request).key for request in plan}
        hung = int(striking.resolve(REQUEST).key, 16)
        modulo = next(m for m in range(2, 1000)
                      if all(int(key, 16) % m != hung % m for key in patient_keys))
        attempts = tmp_path / "attempts"
        original = campaign._simulate_entry

        @functools.wraps(original)
        def slow_entry(payload):
            if payload["key"] in patient_keys:
                with attempts.open("a") as handle:
                    handle.write(payload["key"] + "\n")
                time.sleep(0.4)
            return original(payload)

        monkeypatch.setattr(campaign, "_simulate_entry", slow_entry)
        faults.install_plan(parse_faults(f"hang@sim:key%{modulo}={hung % modulo}",
                                         hang_seconds=600.0))
        struck = []
        with closing(shared), ChildProcessSampler() as sampler:
            first = threading.Thread(target=lambda: struck.append(striking.run(REQUEST)))
            first.start()
            time.sleep(0.2)
            patient.run_many(plan)
            first.join(timeout=60)
            faults.install_plan(None)
        assert not first.is_alive() and len(struck) == 1
        assert (striking.watchdog_kills, striking.retries) == (1, 1)
        assert (patient.watchdog_kills, patient.retries) == (0, 0)
        assert sorted(attempts.read_text().split()) == sorted(patient_keys)  # once each
        assert 1 <= sampler.peak <= 2
        assert multiprocessing.active_children() == []
        serial = CampaignEngine(scale=SCALE, seed=1)
        assert [result.to_dict() for result in patient.run_many(plan)] == [
            result.to_dict() for result in serial.run_many(plan)
        ]
