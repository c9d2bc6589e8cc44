"""The reliability subsystem, pinned as tests.

Fault injection (``repro.reliability.faults``) is the instrument; the claims
under test are the recovery contracts:

* a campaign disturbed by crashed, hung or erroring workers recovers and
  renders bytes *identical* to an undisturbed serial run;
* every key is attempted at most ``MAX_ATTEMPTS`` times, and
  deterministic failures are never retried;
* corrupt cache entries (torn writes, bit flips) are quarantined and
  resimulated instead of being served or aborting the run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import pathlib
import re
import threading
import time
from contextlib import closing

import pytest

from repro.core.stats import DMUStats
from repro.errors import ExperimentError
from repro.experiments import campaign
from repro.experiments.cache import QUARANTINE_DIRNAME, ResultCache, canonical_json
from repro.experiments.campaign import CampaignEngine, CampaignRunError, RunRequest
from repro.experiments.cli import main as cli_main
from repro.experiments.common import SimulationRunner
from repro.experiments.registry import resolve_plan, run_experiment
from repro.reliability import faults
from repro.reliability.faults import FaultPlan, InjectedFault, maybe_fault, parse_faults
from repro.reliability.retry import MAX_ATTEMPTS, TRANSIENT_ERROR_TYPES
from repro.reliability.watchdog import WatchdogConfig

from tests.util import experiment_output

SCALE = 0.05
BENCHMARKS = ["blackscholes"]
REQUEST = RunRequest(benchmark="blackscholes", runtime="software")



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
            "error@merge",          # site of the removed shard merge
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ExperimentError):
            parse_faults(bad)

    @pytest.mark.parametrize("site", faults.FAULT_SITES)
    def test_every_site_is_hooked(self, site):
        # A site the grammar accepts but no code reaches would inject nothing.
        package = pathlib.Path(faults.__file__).resolve().parents[1]
        assert any(f'maybe_fault("{site}"' in path.read_text(encoding="utf-8")
                   for path in package.rglob("*.py"))

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
        assert maybe_fault("cache-read") is None       # un-faulted site

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
        monkeypatch.setenv("REPRO_FAULTS", "error@commit")
        faults._PLAN = None
        faults._LOADED = False
        try:
            plan = faults.active_plan()
            assert plan is not None and plan.describe() == "error@commit"
            assert faults.active_spec() == "error@commit"
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
# Retry budget
# ---------------------------------------------------------------------------
class TestRetryBudget:
    def test_transient_classification(self):
        for name in ("WorkerTimeout", "WorkerCrash", "InjectedFault", "OSError"):
            assert name in TRANSIENT_ERROR_TYPES, name
        for name in ("ExperimentError", "KeyError", "ZeroDivisionError",
                     "WorkerStall", "BrokenProcessPool", "IOError"):
            assert name not in TRANSIENT_ERROR_TYPES, name

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_last_of_three_attempts_still_recovers(self, jobs):
        # A transient fault on attempts 1 and 2 leaves the third, which
        # commits the fault-free result; one more faulty attempt exhausts
        # the budget (``test_permanent_fault_exhausts_with_attempt_history``).
        assert MAX_ATTEMPTS == 3
        faults.install_plan(parse_faults("error@sim:key%1x2"))
        with closing(CampaignEngine(scale=SCALE, jobs=jobs)) as engine:
            disturbed = engine.run(REQUEST)
        faults.install_plan(None)
        assert engine.retries == 2
        assert disturbed.to_dict() == CampaignEngine(scale=SCALE).run(REQUEST).to_dict()

    def test_a_retry_waits_for_nothing(self, monkeypatch):
        # Every key of a figure fails its first two attempts; the loop
        # requeues them at once, so nothing in the campaign ever sleeps.
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        faults.install_plan(parse_faults("error@sim:key%1x2"))
        engine = CampaignEngine(scale=SCALE)
        plan = resolve_plan("figure_12", SimulationRunner(engine=engine), benchmarks=BENCHMARKS)
        engine.run_many([item.request for item in plan])
        assert engine.retries == 2 * engine.simulations_run > 0
        assert sleeps == []

    def test_retry_variables_in_the_environment_change_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_MAX", "1")
        monkeypatch.setenv("REPRO_RETRY_DELAY_S", "30")
        faults.install_plan(parse_faults("error@sim:key%1"))
        started = time.monotonic()
        engine = CampaignEngine(scale=SCALE)
        engine.run(REQUEST)
        assert engine.retries == 1
        assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------
class DeadlineRecordingPool:
    """A stand-in pool that records what it is built with and runs each
    payload in-process."""

    def __init__(self, processes, deadline_s):
        self.built_with = (processes, deadline_s)
        self.submitted = 0

    def submit(self, payloads, landed):
        for payload in payloads:
            self.submitted += 1
            landed(campaign._simulate_entry(payload))

    def cancel(self, landed):
        pass


class TestWatchdog:
    def test_every_key_gets_the_one_deadline(self, monkeypatch):
        # The engine builds its one pool with its one deadline, and every
        # key it simulates goes through that pool.
        monkeypatch.setattr(campaign, "WorkerPool", DeadlineRecordingPool)
        engine = CampaignEngine(scale=SCALE, jobs=2,
                                watchdog_config=WatchdogConfig(min_seconds=2.0))
        pool = engine.worker_pool
        assert pool.built_with == (2, 2.0)
        plan = resolve_plan("figure_12", SimulationRunner(engine=engine), benchmarks=BENCHMARKS)
        engine.run_many([item.request for item in plan])
        assert pool.submitted == engine.simulations_run > 1
        assert CampaignEngine(scale=SCALE).worker_pool is None
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
# Cache integrity: checksums, quarantine, orphaned tmp files
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


def rejected_by_get(tmp_path, key: str, blob: bytes) -> str:
    """The quarantine reason of ``get`` for one entry."""
    read = ResultCache(tmp_path / "read")
    plant(read, key, blob)
    assert read.get(key) is None
    assert read.quarantined == 1
    return quarantine_reason(tmp_path / "read", key)


class TestCacheIntegrity:
    def test_intact_entry_hits(self, tmp_path, real_entry):
        key, blob = real_entry
        cache = ResultCache(tmp_path)
        plant(cache, key, blob)
        assert cache.get(key) is not None
        assert cache.quarantined == 0

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
        assert cache.quarantined == 1
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
        assert cache.quarantined == 1
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
        assert rejected_by_get(tmp_path, key, reencoded) == "checksum mismatch\n"

    @pytest.mark.parametrize("sha256", [{}, {"sha256": 7}], ids=["absent", "not-a-string"])
    def test_entry_without_a_string_checksum_is_quarantined(self, tmp_path, real_entry, sha256):
        key, blob = real_entry
        document = {name: value for name, value in json.loads(blob).items() if name != "sha256"}
        blob = canonical_json(dict(document, **sha256)).encode()
        assert rejected_by_get(tmp_path, key, blob) == "malformed entry: missing sha256\n"

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
        reason = rejected_by_get(tmp_path, key, blob)
        assert reason.startswith(f"malformed entry: KeyError: {path[-1]!r}")

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

    def test_a_render_never_sweeps_orphans(self, tmp_path):
        # No read opens a ``*.tmp.*`` file, so nothing sweeps: a render, cold
        # or warm, leaves the hour-old tmp file of a writer killed
        # mid-publish where it is.
        stale = tmp_path / "ab" / "deadbeef.json.tmp.12345"
        stale.parent.mkdir()
        stale.write_text("{half a wri")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        for _ in range(2):
            runner = SimulationRunner(scale=SCALE, cache_dir=tmp_path)
            run_experiment("figure_12", scale=SCALE, benchmarks=BENCHMARKS, runner=runner)
            assert not any(runner.reliability_info().values())
        assert stale.exists()


# ---------------------------------------------------------------------------
# Campaign recovery: the byte-identity contract under fire
# ---------------------------------------------------------------------------
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


class TestCampaignRecovery:
    def test_serial_transient_error_is_retried_once(self):
        faults.install_plan(parse_faults("error@sim:key%1"))
        engine = CampaignEngine(scale=SCALE)
        disturbed = engine.run(REQUEST)
        assert engine.retries == 1
        faults.install_plan(None)
        clean = CampaignEngine(scale=SCALE).run(REQUEST)
        assert disturbed.total_cycles == clean.total_cycles

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_permanent_fault_exhausts_with_attempt_history(self, jobs):
        faults.install_plan(parse_faults("error@sim:key%1x99"))
        with closing(CampaignEngine(scale=SCALE, jobs=jobs)) as engine:
            with pytest.raises(CampaignRunError) as excinfo:
                engine.run_many([REQUEST])
        assert engine.retries == MAX_ATTEMPTS - 1
        error = excinfo.value
        assert len(error.attempts) == MAX_ATTEMPTS
        assert [record["attempt"] for record in error.attempts] == [1, 2, 3]
        assert all(r["error_type"] == "InjectedFault" for r in error.attempts)
        assert f"after {MAX_ATTEMPTS} attempts" in str(error)

    def test_deterministic_error_is_never_retried(self):
        from repro.errors import ConfigurationError

        engine = CampaignEngine(scale=SCALE)
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
        assert third.simulations_run == 0 and third.disk_hits == 1

    def test_a_crash_is_struck_at_once_at_the_default_deadline(self, monkeypatch):
        # A dead worker is seen by its sentinel, not by a deadline: its key
        # retries in well under the default 90 s, and its one replacement
        # forks only after it is reaped.
        monkeypatch.delenv("REPRO_WATCHDOG_MIN_S", raising=False)
        faults.install_plan(parse_faults("crash@sim"))
        started = time.monotonic()
        with ChildProcessSampler() as sampler, closing(
            CampaignEngine(scale=SCALE, jobs=2)
        ) as engine:
            result = engine.run(REQUEST)
        elapsed = time.monotonic() - started
        faults.install_plan(None)
        assert engine.watchdog_config.min_seconds == 90.0
        assert elapsed < 10.0
        assert (engine.watchdog_kills, engine.retries) == (1, 1)
        assert 1 <= sampler.peak <= engine.jobs
        assert result.to_dict() == CampaignEngine(scale=SCALE).run(REQUEST).to_dict()

    def test_a_hang_costs_its_batchmates_nothing(self, tmp_path, monkeypatch):
        # One key of a pooled round hangs past its deadline.  Only its
        # worker is killed: that key is struck and retried once, every
        # other key of the round is simulated exactly once, and no more
        # than `jobs` workers are ever alive.
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("a patched worker body reaches the pool only by fork")
        engine = CampaignEngine(scale=SCALE, jobs=2,
                                watchdog_config=WatchdogConfig(min_seconds=1.0))
        plan = [item.request for item in resolve_plan(
            "figure_12", SimulationRunner(engine=engine), benchmarks=BENCHMARKS)]
        hung, *batchmates = sorted({engine.resolve(request).key for request in plan})
        assert len(batchmates) >= 3
        # The hung key is dispatched first, so the whole round runs past it.
        residue = int(hung, 16)
        modulo = next(m for m in range(2, 1000)
                      if all(int(key, 16) % m != residue % m for key in batchmates))
        marks = tmp_path / "attempts"
        original = campaign._simulate_entry

        @functools.wraps(original)
        def marking_entry(payload):
            with marks.open("a") as handle:
                handle.write(f"{payload['key']} {payload['attempt']}\n")
            if payload["key"] != hung:
                time.sleep(0.3)  # the round outlasts the hung key's deadline
            return original(payload)

        monkeypatch.setattr(campaign, "_simulate_entry", marking_entry)
        faults.install_plan(parse_faults(f"hang@sim:key%{modulo}={residue % modulo}",
                                         hang_seconds=600.0))
        with closing(engine), ChildProcessSampler() as sampler:
            results = engine.run_many(plan)
        faults.install_plan(None)
        assert (engine.watchdog_kills, engine.retries) == (1, 1)
        attempts = sorted(tuple(line.split()) for line in marks.read_text().splitlines())
        assert attempts == sorted(
            [(hung, "1"), (hung, "2")] + [(key, "1") for key in batchmates]
        )
        assert 1 <= sampler.peak <= engine.jobs
        serial = CampaignEngine(scale=SCALE).run_many(plan)
        assert [result.to_dict() for result in results] == [
            result.to_dict() for result in serial
        ]

    def test_a_crashed_round_leaves_the_pool_serving_the_next_cold_figure(self, monkeypatch):
        # Workers that die mid-simulation cost their keys one retry each,
        # not the engine its pool: the crashed figure and the next cold
        # figure both render the serial bytes, with never more than `jobs`
        # workers alive.  The deaths are seen at once, so the default
        # deadline is never waited for.
        expected = {
            name: experiment_output(name, SCALE, BENCHMARKS)
            for name in ("figure_12", "figure_09")
        }
        plan = resolve_plan("figure_12", SimulationRunner(scale=SCALE), benchmarks=BENCHMARKS)
        modulo = 3
        assert any(int(item.key, 16) % modulo == 0 for item in plan)
        monkeypatch.delenv("REPRO_WATCHDOG_MIN_S", raising=False)
        faults.install_plan(parse_faults(f"crash@sim:key%{modulo}"))
        engine = CampaignEngine(scale=SCALE, jobs=2)
        runner = SimulationRunner(engine=engine)
        with closing(engine), ChildProcessSampler() as sampler:
            first = experiment_output("figure_12", SCALE, BENCHMARKS, runner=runner)
            simulated = engine.simulations_run
            second = experiment_output("figure_09", SCALE, BENCHMARKS, runner=runner)
            assert engine.simulations_run > simulated  # the second figure was cold
        assert (first, second) == (expected["figure_12"], expected["figure_09"])
        assert engine.retries >= 1 and engine.watchdog_kills >= 1
        assert 1 <= sampler.peak <= engine.jobs

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
    @pytest.mark.parametrize("spec,message", [
        ("explode@warehouse", "unknown fault kind"),
        ("error@serve", "unknown fault site"),  # the removed daemon's site
    ])
    def test_malformed_faults_spec_fails_fast(self, capsys, spec, message):
        assert cli_main(["figure_02", "--faults", spec]) == 2
        assert message in capsys.readouterr().err

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
