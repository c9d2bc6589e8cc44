"""The Machine wrapper and SimulationResult conveniences."""

import collections
import dataclasses
import gc

import pytest

from repro.config import DMUConfig
from repro.errors import SimulationError
from repro.runtime.factory import available_runtimes
from repro.sim.machine import Machine, run_simulation
from repro.sim.timeline import Phase

from tests.util import make_config


class TestMachine:
    def test_run_returns_consistent_result(self, diamond, small_config):
        result = Machine(diamond, small_config).run()
        assert result.program_name == "diamond"
        assert result.runtime_name == "tdm"
        assert result.total_cycles > 0
        assert result.seconds > 0
        assert result.microseconds == pytest.approx(result.seconds * 1e6)

    def test_determinism(self, diamond, small_config):
        first = Machine(diamond, small_config).run()
        second = Machine(diamond, small_config).run()
        assert first.total_cycles == second.total_cycles
        assert first.energy.total_energy_mj == pytest.approx(second.energy.total_energy_mj)

    def test_speedup_and_edp_relations(self, small_chain_program):
        software = run_simulation(small_chain_program, make_config(runtime="software"))
        tdm = run_simulation(small_chain_program, make_config(runtime="tdm"))
        speedup = tdm.speedup_over(software)
        assert speedup == pytest.approx(software.total_cycles / tdm.total_cycles)
        assert tdm.normalized_edp(software) == pytest.approx(tdm.edp / software.edp)
        assert software.speedup_over(software) == pytest.approx(1.0)

    def test_master_creation_fraction_in_range(self, small_chain_program):
        result = run_simulation(small_chain_program, make_config(runtime="software"))
        assert 0.0 < result.master_creation_fraction < 1.0
        assert 0.0 <= result.idle_fraction < 1.0

    def test_breakdowns_sum_to_one(self, diamond, small_config):
        result = Machine(diamond, small_config).run()
        assert sum(result.master_breakdown().values()) == pytest.approx(1.0)
        assert sum(result.worker_breakdown().values()) == pytest.approx(1.0)

    def test_more_cores_do_not_slow_down_parallel_work(self, small_random_program):
        two = run_simulation(small_random_program, make_config(num_cores=2))
        eight = run_simulation(small_random_program, make_config(num_cores=8))
        assert eight.total_cycles <= two.total_cycles

    def test_cycle_budget_enforced(self, diamond):
        config = make_config(max_cycles=10)
        with pytest.raises(SimulationError):
            Machine(diamond, config).run()

    def test_single_core_executes_everything_on_master(self, diamond):
        result = run_simulation(diamond, make_config(num_cores=1))
        assert result.num_tasks_executed == 4
        assert result.timeline.threads[0].totals[Phase.EXEC] > 0

    def test_scheduler_name_reflects_fixed_hardware_policy(self, diamond):
        result = run_simulation(diamond, make_config(runtime="carbon", scheduler="age"))
        assert result.scheduler_name == "carbon"

    def test_record_timeline_false_still_accumulates_totals(self, diamond):
        config = make_config(record_timeline=False)
        result = run_simulation(diamond, config)
        assert sum(result.timeline.totals().values()) > 0
        assert result.timeline.threads[0].intervals == []

    def test_small_dmu_still_completes(self, small_random_program):
        dmu = DMUConfig(
            tat_entries=16,
            dat_entries=16,
            successor_list_entries=16,
            dependence_list_entries=16,
            reader_list_entries=16,
            ready_queue_entries=16,
        )
        result = run_simulation(small_random_program, make_config(runtime="tdm", dmu=dmu))
        assert result.num_tasks_executed == small_random_program.num_tasks

    def test_dat_occupancy_recorded_for_tdm(self, diamond, small_config):
        result = Machine(diamond, small_config).run()
        assert result.dat_average_occupied_sets > 0

    def test_validation_can_be_disabled(self, diamond):
        config = dataclasses.replace(make_config(), validate_execution=False)
        result = run_simulation(diamond, config)
        assert result.num_tasks_executed == 4


@pytest.mark.parametrize("runtime", available_runtimes())
def test_finished_run_leaves_no_cyclic_garbage(runtime, small_random_program):
    # A campaign worker runs hundreds of simulations; each must be freed by
    # reference counting alone, leaving nothing for the cyclic collector.
    config = make_config(runtime=runtime)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run_simulation(small_random_program, config)
        assert result.num_tasks_executed == small_random_program.num_tasks
        del result
        gc.collect()
        leftovers = collections.Counter(type(thing).__name__ for thing in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not leftovers, leftovers.most_common(8)
