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
from repro.experiments.shard import ShardPlan, ShardSpec, lpt_assignment, shard_of
from repro.runtime.cost_model import CampaignCostModel

from tests.util import make_config

hex_keys = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)
key_sets = st.lists(hex_keys, min_size=1, max_size=64, unique=True)
shard_counts = st.integers(min_value=1, max_value=16)
cost_values = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
cost_maps = st.dictionaries(hex_keys, cost_values, min_size=1, max_size=48)


def _runs(keys):
    """Lightweight stand-ins for ResolvedRun (ShardPlan only reads ``.key``)."""
    return [SimpleNamespace(key=key) for key in keys]


class _TableModel:
    """A cost model that is just a lookup table (duck-typed ``predict``)."""

    def __init__(self, costs):
        self.costs = dict(costs)

    def predict(self, item):
        return self.costs[item.key]


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


class TestCostStrategyProperties:
    """The ``strategy="cost"`` partition obeys the same laws as modulo."""

    @given(costs=cost_maps, count=shard_counts)
    @settings(max_examples=200, deadline=None)
    def test_cost_partition_is_a_disjoint_cover(self, costs, count):
        plan = ShardPlan(_runs(costs), count, strategy="cost", cost_model=_TableModel(costs))
        slices = [plan.shard(ShardSpec(index, count)) for index in range(1, count + 1)]
        combined = [item.key for piece in slices for item in piece]
        assert sorted(combined) == sorted(costs)
        # Per-shard loads tile the total predicted cost exactly.
        assert sum(plan.shard_loads()) == pytest.approx(sum(costs.values()))

    @given(costs=cost_maps, count=shard_counts, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_cost_assignment_is_stable_under_plan_reordering(self, costs, count, seed):
        shuffled = list(costs)
        random.Random(seed).shuffle(shuffled)
        model = _TableModel(costs)
        original = ShardPlan(_runs(costs), count, strategy="cost", cost_model=model)
        reordered = ShardPlan(_runs(shuffled), count, strategy="cost", cost_model=model)
        assert original.assignment() == reordered.assignment()
        assert original.keys() == reordered.keys()

    @given(keys=key_sets, count=shard_counts, cost=cost_values)
    @settings(max_examples=100, deadline=None)
    def test_equal_costs_degenerate_to_round_robin_over_sorted_keys(self, keys, count, cost):
        model = _TableModel({key: cost for key in keys})
        plan = ShardPlan(_runs(keys), count, strategy="cost", cost_model=model)
        assignment = plan.assignment()
        for position, key in enumerate(sorted(keys)):
            assert assignment[key] == (position % count) + 1

    @given(costs=cost_maps, count=shard_counts)
    @settings(max_examples=100, deadline=None)
    def test_lpt_places_keys_in_decreasing_cost_order(self, costs, count):
        # The first ``count`` keys by (cost desc, key) each open their own
        # bin — the defining LPT move, and the reason one giant key can
        # never share a bin with the runner-up while an empty bin exists.
        assignment = lpt_assignment(costs, count)
        ordered = sorted(costs, key=lambda key: (-costs[key], key))
        heads = ordered[: count]
        assert sorted(assignment[key] for key in heads) == list(range(len(heads)))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ExperimentError, match="unknown shard strategy"):
            ShardPlan(_runs(["ab" * 32]), 2, strategy="random")

    def test_modulo_plans_ignore_the_cost_model_for_ownership(self):
        # A model may still be attached (dry-run audits price modulo bins),
        # but ownership must stay the pure hash function.
        keys = [f"{index:064x}" for index in range(8)]
        costs = {key: float(index + 1) for index, key in enumerate(keys)}
        plan = ShardPlan(_runs(keys), 3, strategy="modulo", cost_model=_TableModel(costs))
        assert plan.assignment() == {key: shard_of(key, 3) + 1 for key in keys}
        assert plan.predicted_cost(keys[4]) == 5.0


class TestCostStrategyBalancesRealPlans:
    """The acceptance scenario: mixed-cost figures balance better than modulo."""

    def test_figure_07_three_shard_peak_load_drops_under_cost_binning(self):
        runner = SimulationRunner(scale=0.05)
        resolved = resolve_plan("figure_07", runner)
        model = CampaignCostModel(scale=0.05)
        modulo = ShardPlan(resolved, 3, strategy="modulo", cost_model=model)
        cost = ShardPlan(resolved, 3, strategy="cost", cost_model=model)
        assert cost.keys() == modulo.keys()  # same key space, different bins
        assert max(cost.shard_loads()) < max(modulo.shard_loads())
        # And the balanced peak sits within 1% of the ideal mean load.
        mean = sum(cost.shard_loads()) / 3
        assert max(cost.shard_loads()) < 1.01 * mean

    def test_describe_reports_loads_and_every_key(self):
        runner = SimulationRunner(scale=0.05)
        resolved = resolve_plan("figure_10", runner, benchmarks=["blackscholes"])
        plan = ShardPlan(resolved, 2, strategy="cost", cost_model=CampaignCostModel(scale=0.05))
        text = plan.describe("figure_10")
        assert "strategy=cost" in text and "shards=2" in text
        for item in plan.runs:
            assert item.key[:12] in text
        for line in ("shard 1/2", "shard 2/2", "max shard", "mean shard"):
            assert line in text


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
