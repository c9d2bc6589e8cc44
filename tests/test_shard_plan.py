"""Property-based tests of the shard partition, plus pinned canonical keys.

The shard layer's whole correctness argument rests on two facts:

1. :func:`shard_of` is a *partition*: every canonical key lands in exactly
   one shard, for any shard count, regardless of how (or in what order) a
   plan enumerated it.  Hypothesis drives that over random key sets.
2. :func:`canonical_run_key` is a *stable contract*: hosts built from
   different checkouts agree on keys, and cached corpora stay valid across
   PRs.  The golden values pinned here fail loudly on any accidental
   key-schema drift (new hashed field, float formatting change, version
   bump, ...).  If a change is intentional, bump ``CACHE_FORMAT_VERSION``,
   regenerate these constants, and note that old caches resimulate.
"""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DMUConfig, default_paper_config
from repro.errors import ExperimentError
from repro.experiments.cache import canonical_run_key
from repro.experiments.campaign import CampaignEngine, RunRequest
from repro.experiments.common import SimulationRunner
from repro.experiments.registry import resolve_plan
from repro.experiments.shard import ShardPlan, ShardSpec, shard_of

from tests.util import make_config

hex_keys = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)
key_sets = st.lists(hex_keys, min_size=1, max_size=64, unique=True)
shard_counts = st.integers(min_value=1, max_value=16)


def _runs(keys):
    """Lightweight stand-ins for ResolvedRun (ShardPlan only reads ``.key``)."""
    return [SimpleNamespace(key=key) for key in keys]


class TestPartitionProperties:
    @given(keys=key_sets, count=shard_counts)
    @settings(max_examples=200, deadline=None)
    def test_every_key_lands_in_exactly_one_shard(self, keys, count):
        plan = ShardPlan(_runs(keys), count)
        slices = [plan.shard(ShardSpec(index, count)) for index in range(1, count + 1)]
        # Disjoint cover: the concatenation is a permutation of the key set …
        combined = [item.key for piece in slices for item in piece]
        assert sorted(combined) == sorted(keys)
        # … and each key's owner matches the pure hash function.
        for index, piece in enumerate(slices, start=1):
            for item in piece:
                assert shard_of(item.key, count) == index - 1

    @given(keys=key_sets, count=shard_counts, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_assignment_is_stable_under_plan_reordering(self, keys, count, seed):
        shuffled = list(keys)
        random.Random(seed).shuffle(shuffled)
        original = ShardPlan(_runs(keys), count)
        reordered = ShardPlan(_runs(shuffled), count)
        assert original.assignment() == reordered.assignment()
        assert original.keys() == reordered.keys()  # both key-sorted

    @given(keys=key_sets, count=shard_counts)
    @settings(max_examples=100, deadline=None)
    def test_duplicates_collapse(self, keys, count):
        plan = ShardPlan(_runs(keys + keys), count)
        assert len(plan) == len(keys)

    @given(key=hex_keys, count=shard_counts)
    @settings(max_examples=200, deadline=None)
    def test_exactly_one_spec_owns_each_key(self, key, count):
        owners = [index for index in range(1, count + 1) if ShardSpec(index, count).owns(key)]
        assert len(owners) == 1
        assert owners[0] == shard_of(key, count) + 1


class TestModuloPartition:
    """The one partition: shard ``int(key, 16) % N``, pinned and audited."""

    @given(keys=key_sets, count=shard_counts)
    @settings(max_examples=100, deadline=None)
    def test_owner_is_the_key_value_modulo_the_count(self, keys, count):
        plan = ShardPlan(_runs(keys), count)
        assert plan.assignment() == {key: int(key, 16) % count + 1 for key in keys}

    @given(keys=key_sets)
    @settings(max_examples=50, deadline=None)
    def test_one_shard_owns_every_key(self, keys):
        plan = ShardPlan(_runs(keys), 1)
        assert [item.key for item in plan.shard(1)] == sorted(keys)

    @given(keys=key_sets, count=shard_counts)
    @settings(max_examples=100, deadline=None)
    def test_every_slice_is_key_sorted(self, keys, count):
        plan = ShardPlan(_runs(keys), count)
        for index in range(1, count + 1):
            slice_keys = [item.key for item in plan.shard(index)]
            assert slice_keys == sorted(slice_keys)

    @given(keys=key_sets, count=shard_counts)
    @settings(max_examples=100, deadline=None)
    def test_integer_index_selects_the_same_slice_as_a_spec(self, keys, count):
        plan = ShardPlan(_runs(keys), count)
        for index in range(1, count + 1):
            assert plan.shard(index) == plan.shard(ShardSpec(index, count))

    def test_first_run_of_a_duplicate_key_is_kept(self):
        first = SimpleNamespace(key="ab" * 32, tag="first")
        second = SimpleNamespace(key="ab" * 32, tag="second")
        plan = ShardPlan([first, second], 2)
        (kept,) = plan.shard(shard_of(first.key, 2) + 1)
        assert kept is first

    @pytest.mark.parametrize("key,count,owner", [
        ("7cdb155fdc5f0c6703da6dbf27b25907555e5220e302d037847791a08d6ec3ec", 2, 1),
        ("7cdb155fdc5f0c6703da6dbf27b25907555e5220e302d037847791a08d6ec3ec", 3, 3),
        ("7cdb155fdc5f0c6703da6dbf27b25907555e5220e302d037847791a08d6ec3ec", 7, 2),
        ("4a376a11ada6195c228c623fde3bef9901e827a96ec87acf2b4df763346f68b0", 7, 1),
        ("866c126c467ad8a9a7698fe4dd6bdaeb61f0b62a62a462610a902c360dec3f31", 2, 2),
        ("866c126c467ad8a9a7698fe4dd6bdaeb61f0b62a62a462610a902c360dec3f31", 3, 2),
        ("866c126c467ad8a9a7698fe4dd6bdaeb61f0b62a62a462610a902c360dec3f31", 7, 5),
    ])
    def test_pinned_owners_of_golden_keys(self, key, count, owner):
        """Hosts from different checkouts must agree on who owns a key."""
        assert shard_of(key, count) + 1 == owner
        assert ShardSpec(owner, count).owns(key)

    def test_real_figure_plan_is_covered_by_its_shards(self):
        runner = SimulationRunner(scale=0.05)
        resolved = resolve_plan("figure_07", runner, benchmarks=["blackscholes"])
        plan = ShardPlan(resolved, 3)
        slices = [plan.shard(index) for index in (1, 2, 3)]
        assert sum(len(piece) for piece in slices) == len(plan) == len(set(plan.keys()))
        assert sorted(item.key for piece in slices for item in piece) == plan.keys()


class TestPlanAudit:
    def test_describe_reports_counts_owners_and_every_key(self):
        runner = SimulationRunner(scale=0.05)
        resolved = resolve_plan("figure_10", runner, benchmarks=["blackscholes"])
        plan = ShardPlan(resolved, 2)
        text = plan.describe("figure_10")
        assert text.splitlines()[0] == f"[plan] figure_10 shards=2: {len(plan)} keys"
        owners = plan.assignment()
        for index in (1, 2):
            count = sum(1 for owner in owners.values() if owner == index)
            assert f"shard {index}/2: {count} keys" in text
        for key in plan.keys():
            assert f"{key[:12]}  {owners[key]:>5}  blackscholes" in text

    def test_describe_names_the_granularity_of_granularity_sweeps(self):
        runner = SimulationRunner(scale=0.05)
        resolved = resolve_plan("figure_06", runner, benchmarks=["blackscholes"])
        plan = ShardPlan(resolved, 3)
        text = plan.describe("figure_06")
        owners = plan.assignment()
        for item in resolved:
            granularity = item.request.granularity
            assert granularity is not None
            assert (
                f"{item.key[:12]}  {owners[item.key]:>5}  blackscholes "
                f"{item.request.runtime}/{item.request.scheduler} granularity={granularity}"
            ) in text


class TestSpecValidation:
    @pytest.mark.parametrize("text,index,count", [("1/1", 1, 1), ("2/3", 2, 3), ("16/16", 16, 16)])
    def test_parse_round_trip(self, text, index, count):
        spec = ShardSpec.parse(text)
        assert (spec.index, spec.count) == (index, count)
        assert str(spec) == text

    @pytest.mark.parametrize("text", ["", "3", "0/3", "4/3", "-1/3", "1/0", "a/b", "1/3/5"])
    def test_invalid_specs_rejected(self, text):
        with pytest.raises(ExperimentError):
            ShardSpec.parse(text)

    def test_mismatched_spec_rejected_by_plan(self):
        plan = ShardPlan(_runs(["ab" * 32]), 3)
        with pytest.raises(ExperimentError, match="does not match"):
            plan.shard(ShardSpec(1, 4))

    def test_zero_shards_rejected(self):
        with pytest.raises(ExperimentError):
            ShardPlan(_runs(["ab" * 32]), 0)
        with pytest.raises(ExperimentError):
            shard_of("ab" * 32, 0)


class TestCanonicalKeyGoldenValues:
    """Pinned key digests: the cross-host / cross-PR key-schema contract."""

    def test_workload_parameter_keys(self):
        config = default_paper_config()
        assert (
            canonical_run_key(config, "cholesky", 0.1)
            == "7cdb155fdc5f0c6703da6dbf27b25907555e5220e302d037847791a08d6ec3ec"
        )
        assert (
            canonical_run_key(config, "cholesky", 0.1, granularity=8)
            == "4a376a11ada6195c228c623fde3bef9901e827a96ec87acf2b4df763346f68b0"
        )
        assert (
            canonical_run_key(config, "qr", 1.0, granularity_runtime="tdm", seed=3)
            == "f500931c5262dcd4048255f5a8568707ba1b69001602bad6eee0dc0695fe4b1b"
        )

    def test_resolved_request_keys(self):
        engine = CampaignEngine(scale=0.1)
        assert (
            engine.resolve(RunRequest("blackscholes", "tdm", "lifo")).key
            == "866c126c467ad8a9a7698fe4dd6bdaeb61f0b62a62a462610a902c360dec3f31"
        )
        assert (
            engine.resolve(RunRequest("histogram", "software")).key
            == "6ce3873d2f63a7ed0a40e1956c5becafbf84d53694f463fb67a01e6ce0ca2518"
        )

    def test_key_still_sees_semantic_dmu_fields(self):
        base = DMUConfig(
            tat_entries=32, dat_entries=32,
            tat_associativity=4, dat_associativity=4,
            successor_list_entries=16, dependence_list_entries=16,
            reader_list_entries=16, elements_per_list_entry=4,
            ready_queue_entries=32,
        )
        resized = dataclasses.replace(base, tat_entries=16)
        assert canonical_run_key(
            make_config(dmu=base), benchmark="cholesky", scale=0.1
        ) != canonical_run_key(
            make_config(dmu=resized), benchmark="cholesky", scale=0.1
        )
