"""Golden program digests and the shared-dependence contract of builds.

* ``PINNED_CAMPAIGN_PROGRAMS``: :func:`tests.util.program_digest` at seed 0
  of every (benchmark, granularity, workload runtime) point the paper
  campaign plans at scale 0.05 (the ``cold_campaign`` benchmark's plan).
  The key set is pinned too, so a figure that starts or stops building a
  point shows up here.
* ``PINNED_TABLE2_PROGRAMS``: the digests of the nine scale-1.0 TDM
  programs (Table II task counts) the ``dmu_replay`` benchmark builds.

Both were captured before builds started sharing one
:class:`~repro.runtime.task.DependenceSpec` per distinct dependence, so they
prove that sharing changed no program.  A generator change that moves
them is a semantic change (``docs/determinism.md``); fluidanimate's entries
move with the fix of its task graph (ROADMAP item 1(a)).

The sharing contract: within one build, equal dependences are one object;
a shared spec is still immutable; and the memo that holds them is bounded,
with room for the largest program the paper campaign builds.
"""

from __future__ import annotations

import pytest

from repro.experiments import registry
from repro.experiments.common import SimulationRunner
from repro.workloads.base import (
    _SHARED_SPEC_MEMO_SIZE,
    in_dep,
    out_dep,
    shared_dependence,
)
from repro.workloads.registry import PAPER_BENCHMARKS, create_workload
from repro.workloads.synthetic import random_dag_program

from tests.util import program_digest

#: Scale and seed of the pinned campaign plan.
CAMPAIGN_SCALE = 0.05
SEED = 0

PINNED_CAMPAIGN_PROGRAMS = {
    ("blackscholes", 1, None):
        "ca969d579104a22ac1567494c7fa017e878f19d85380680be88774cd7372f1c7",
    ("blackscholes", 2, None):
        "a18ff736bfec43d7ce8fd013d1f35a14f36c19587d108f59caa1b80c4e1734a1",
    ("blackscholes", 4, None):
        "01d5d85d43549969be9bcc49f61578f5c98fa3bc113e39a4edb101b1de5ac188",
    ("blackscholes", 8, None):
        "c4eb773c45e4f5bb046218a8e9177130f5949235e74e3d1fdc27546187d622db",
    ("blackscholes", None, "software"):
        "01d5d85d43549969be9bcc49f61578f5c98fa3bc113e39a4edb101b1de5ac188",
    ("blackscholes", None, "tdm"):
        "a18ff736bfec43d7ce8fd013d1f35a14f36c19587d108f59caa1b80c4e1734a1",
    ("cholesky", 4, None):
        "93e8b77c9ce5d23e985a7e4f5e0afc53d0c41f856b084fc9292a0b6a46fd87c0",
    ("cholesky", 16, None):
        "120b9bf98dc4849964f550cf02e408c599760733a6256f95610017b852c63e92",
    ("cholesky", 64, None):
        "6944149fc3cf130ac6a7dec1ada9f4c9a769810e43a0fada29cfffe21ec47191",
    ("cholesky", 256, None):
        "09c0f2f59bd78ee616a9e147b76fee68e069b88324bf5d07ba817325ea653efc",
    ("cholesky", None, "software"):
        "120b9bf98dc4849964f550cf02e408c599760733a6256f95610017b852c63e92",
    ("cholesky", None, "tdm"):
        "120b9bf98dc4849964f550cf02e408c599760733a6256f95610017b852c63e92",
    ("dedup", None, "software"):
        "00b8c9d827251a239812ad3e13dafd768a70ffeaf46369fa5ea1c078f6caf7c5",
    ("dedup", None, "tdm"):
        "00b8c9d827251a239812ad3e13dafd768a70ffeaf46369fa5ea1c078f6caf7c5",
    ("ferret", None, "software"):
        "b3db8863b8efb4333fc339e9cc20ae8bb5bc10fd2e026c93fccd5bc8b6857046",
    ("ferret", None, "tdm"):
        "b3db8863b8efb4333fc339e9cc20ae8bb5bc10fd2e026c93fccd5bc8b6857046",
    ("fluidanimate", 32, None):
        "979e441aac7b51e7e9f9b30e8d1cf419c55b0c4396788700589d259b4e971cfd",
    ("fluidanimate", 64, None):
        "c36e4b08d384bdfa16e61d532a7eb1f672de3a5971de591d15474e5fe9d47e32",
    ("fluidanimate", 128, None):
        "d1d792fe0db0678ef7ad0f33953eb0160c90ff54099efae8b84d709a30abf593",
    ("fluidanimate", 256, None):
        "a5f8753c7cc4762524f54d2586414906e03424ef72aae72103d79e442e015fbb",
    ("fluidanimate", None, "software"):
        "d1d792fe0db0678ef7ad0f33953eb0160c90ff54099efae8b84d709a30abf593",
    ("fluidanimate", None, "tdm"):
        "d1d792fe0db0678ef7ad0f33953eb0160c90ff54099efae8b84d709a30abf593",
    ("histogram", 16, None):
        "c90ebe689a93d5cf8854e506e79e713ff9eaab26af88b53148a99f9b04a46a7b",
    ("histogram", 64, None):
        "7747689dfdbc8a49bd7c7d36e170a8ce11eab661c44e58db7e86b793eb15bb9f",
    ("histogram", 256, None):
        "e675218e239288b8cde6cbe8bc34e6a5bbcbd34d182cf21a5a87005821591632",
    ("histogram", 1024, None):
        "d4f50096d435e27bf7a40422cc04ef3cbafe335a2498d8cb7df2bac41047e815",
    ("histogram", None, "software"):
        "e675218e239288b8cde6cbe8bc34e6a5bbcbd34d182cf21a5a87005821591632",
    ("histogram", None, "tdm"):
        "e675218e239288b8cde6cbe8bc34e6a5bbcbd34d182cf21a5a87005821591632",
    ("lu", 4, None):
        "f2ccc1bdd460637d3eb8b9f0fdf4f820c97b5d52f29a9d32a43974728bf7eaa9",
    ("lu", 16, None):
        "8b55fa7dc4c745ae2b4c59bd833b253c15fdd4fe896abd0ef5565ff055fa8297",
    ("lu", 64, None):
        "3192425150a6adfd0a4b1032f048142dd58998a73c3d74f37b1a6c4f384bd484",
    ("lu", 256, None):
        "609927d4a2011ba4e07c4f6d14bf961a2a18b9029b468b33b3f352fadf81ebfc",
    ("lu", None, "software"):
        "3192425150a6adfd0a4b1032f048142dd58998a73c3d74f37b1a6c4f384bd484",
    ("lu", None, "tdm"):
        "3192425150a6adfd0a4b1032f048142dd58998a73c3d74f37b1a6c4f384bd484",
    ("qr", 2, None):
        "8a867262a57db14910681f8c95ba89b00f63b28d7247e1f563bcf9b648e08c09",
    ("qr", 4, None):
        "46330d243b5d380d415b2d63cd6da172173216af195362ea1090673423a771d2",
    ("qr", 16, None):
        "60a76b8aa81b92d463964c7259a23651518fb2f75764f843d51735fb2cf08a8c",
    ("qr", 64, None):
        "c65bae0a743491231670545de901463979e3b06f84c5e1375f6942bcc81a214b",
    ("qr", 256, None):
        "8b566873558e51608c98553b3a98c5772cdb43e1a54898df3080f1af6ba686af",
    ("qr", None, "software"):
        "60a76b8aa81b92d463964c7259a23651518fb2f75764f843d51735fb2cf08a8c",
    ("qr", None, "tdm"):
        "46330d243b5d380d415b2d63cd6da172173216af195362ea1090673423a771d2",
    ("streamcluster", 64, None):
        "7da90a768f4d2c38facb9631285c3d72720b7554f5876a6453f80a899b5362b0",
    ("streamcluster", 128, None):
        "305148ee4ee12f168fd88de1bc7044d68d2202353c3c5bc9d04c158256808adc",
    ("streamcluster", 256, None):
        "ebfd528faa95bc3a3482eacb820c6f3a36b8d16f031579fd1a623b07ed1e47e5",
    ("streamcluster", 512, None):
        "c4b5dbd20c69427c56457959c72c100d3efaf5e42fde7ad153afa6137fbfe693",
    ("streamcluster", 1024, None):
        "ffa99d8fdd458bb8e9091d963511a88b1e907d6386e7632a8bf0b872b66f4a9b",
    ("streamcluster", None, "software"):
        "ebfd528faa95bc3a3482eacb820c6f3a36b8d16f031579fd1a623b07ed1e47e5",
    ("streamcluster", None, "tdm"):
        "ebfd528faa95bc3a3482eacb820c6f3a36b8d16f031579fd1a623b07ed1e47e5",
}

PINNED_TABLE2_PROGRAMS = {
    "blackscholes": "86c12c3e0724138a625eeeb6db883b0003157482e7f4439bffa208977233336a",
    "cholesky": "267698841460097ca828ad0d3b4b6b2745babab7309e2d8809bb916ee180b6b1",
    "dedup": "32bd70921f3979dd6258f5832a6568c548ee48bd295dc3b9f06fbc6daefa7fb6",
    "ferret": "655c54d483bc50559149030d6bfee47f10e1ea4102ae13ac140a48d673e9c237",
    "fluidanimate": "42cea12eb830fa61e9b5ad8acadf797dc1a573b8c348e29f36972600d73fc5f3",
    "histogram": "9099ea1ec96f15dad53cc259635db163c0abdb67ce9a634efcba0a81774f3ab3",
    "lu": "e33d6edc3dc44a8559031b1d7f1842f86129574a1f2c5bc7b5aa5ac9f1e0d9bf",
    "qr": "9a7f6803515942d889243c8735a61e5c7efdcc5eaf42651eda7341aba9e65dd0",
    "streamcluster": "5f2ada38a507e22379e26f6ab364238163660f994550923dff5aa5dd9e147ad4",
}


def _campaign_points():
    """Every (benchmark, granularity, workload runtime) the campaign plans."""
    runner = SimulationRunner(scale=CAMPAIGN_SCALE, seed=SEED)
    points = set()
    for entry in registry.experiment_catalog():
        if entry["kind"] != "paper" or not entry["simulates"]:
            continue
        for item in registry.resolve_plan(entry["name"], runner):
            points.add((item.request.benchmark, item.request.granularity,
                        item.workload_runtime))
    return points


@pytest.fixture(scope="module")
def campaign_programs():
    return {
        (benchmark, granularity, runtime): create_workload(
            benchmark, scale=CAMPAIGN_SCALE, granularity=granularity,
            runtime=runtime, seed=SEED,
        ).build_program()
        for benchmark, granularity, runtime in _campaign_points()
    }


@pytest.fixture(scope="module")
def table2_programs():
    return {
        name: create_workload(name, scale=1.0, runtime="tdm", seed=SEED).build_program()
        for name in PAPER_BENCHMARKS
    }


def _dependences(program):
    return [dependence for task in program.all_tasks() for dependence in task.dependences]


def _assert_shared(program):
    """Equal dependences of ``program`` are one object."""
    dependences = _dependences(program)
    assert len({id(dependence) for dependence in dependences}) == len(set(dependences))


class TestPinnedProgramDigests:
    def test_campaign_programs(self, campaign_programs):
        digests = {point: program_digest(program)
                   for point, program in campaign_programs.items()}
        assert digests == PINNED_CAMPAIGN_PROGRAMS

    def test_table2_programs(self, table2_programs):
        digests = {name: program_digest(program)
                   for name, program in table2_programs.items()}
        assert digests == PINNED_TABLE2_PROGRAMS


class TestSharedDependences:
    def test_equal_dependences_are_one_object_within_a_build(
        self, campaign_programs, table2_programs
    ):
        for program in [*campaign_programs.values(), *table2_programs.values()]:
            _assert_shared(program)
        _assert_shared(random_dag_program(num_tasks=200, num_addresses=16, seed=3))
        # Sharing is real: the Table II programs repeat most dependences.
        dependences = [d for p in table2_programs.values() for d in _dependences(p)]
        assert len({id(d) for d in dependences}) * 10 < len(dependences)

    def test_one_object_per_address_size_and_mode(self):
        spec = in_dep(0x7000_0000, 64)
        assert in_dep(0x7000_0000, 64) is spec
        assert out_dep(0x7000_0000, 64) is not spec
        assert in_dep(0x7000_0000, 128) is not spec

    def test_a_shared_spec_stays_immutable(self):
        spec = in_dep(0x7000_1000, 64)
        for name, value in (("address", 0x7000_2000), ("size", 8), ("is_output", True)):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(spec, name, value)
        again = in_dep(0x7000_1000, 64)
        assert again is spec
        assert (again.address, again.size, again.direction) == (0x7000_1000, 64, "in")

    def test_the_memo_is_bounded_and_holds_the_largest_paper_program(self):
        assert shared_dependence.cache_info().maxsize == _SHARED_SPEC_MEMO_SIZE
        # Histogram at granularity 16 is the paper campaign's largest
        # program at scale 1.0 by distinct dependences (20,477, all distinct).
        largest = create_workload("histogram", scale=1.0, granularity=16,
                                  seed=SEED).build_program()
        assert len(set(_dependences(largest))) <= _SHARED_SPEC_MEMO_SIZE
        _assert_shared(largest)
