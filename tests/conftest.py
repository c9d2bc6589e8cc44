"""Shared fixtures for the test suite.

Simulation tests run on a small chip (8 cores) and small programs so the
whole suite stays fast; the full 32-core paper configurations are
exercised by ``tests/test_paper_claims.py`` at scale 0.25 and by the
experiment CLI at any scale.
"""

from __future__ import annotations

import pytest

from repro.workloads.synthetic import chain_program, fork_join_program, random_dag_program

from tests.util import diamond_program, make_config

__all__ = ["diamond_program", "make_config"]


@pytest.fixture
def small_config():
    return make_config()


@pytest.fixture
def software_config():
    return make_config(runtime="software")


@pytest.fixture
def diamond():
    return diamond_program()


@pytest.fixture
def small_chain_program():
    return chain_program(num_chains=4, chain_length=6, work_us=80.0)


@pytest.fixture
def small_fork_join_program():
    return fork_join_program(num_waves=3, tasks_per_wave=12, work_us=60.0)


@pytest.fixture
def small_random_program():
    return random_dag_program(num_tasks=40, num_addresses=10, seed=7)
