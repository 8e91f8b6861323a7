"""Golden digests of the JSON artifacts: scenarios, fault plans, cluster
topologies, shard jobs/results and the cluster report.

Each digest is the sha256 of a group of canonical dumps, pinned from a
known-good tree.  Any byte of drift in how one of these artifacts
serialises fails here, so a codec change cannot silently re-key a
corpus, a checkpoint or a report.  Update a digest only for a deliberate,
documented schema change.
"""

import hashlib
import json

import pytest

from repro.cluster import ClusterDriver, ClusterTopology
from repro.cluster.shard import run_shard_job
from repro.faults.plan import Fault, FaultPlan
from repro.scenario.dsl import (
    ENGINE_LEG_NAMES,
    CoreSpec,
    FaultSpec,
    Scenario,
    TimerSpec,
    UipiLink,
    WorkloadSpec,
)
from repro.scenario.generate import ScenarioGenerator

#: The cluster topology of ``tests/cluster/test_driver.py``.
TOPOLOGY = ClusterTopology(
    name="unit", tenants=32, shards=2, hosts=2, tenant_rps=2000.0,
    duration_ms=10.0, seed=5,
)

GOLDEN = {
    "generator_0": "49bd7edbf1e5c130c7b4a328b3ba9819189cf6df1106a770f23845012d49935d",
    "generator_7": "7a5acdd1c829fa33533d58a77f370d64bcd60a1a216406aba4f34ae027ef4646",
    "rich_scenario": "f8dcc58f513b2a48c751a4fdb21bb00947442052f1b70688b1f9cb67f7da98b5",
    "random_fault_scenario": "dd214b2f085ed5157aef2761f97d55137e65d0ff9ae361ad80e781267df51841",
    "random_plans": "2e942d9faf268b8f503986330bea71333ee0a4eb2d93087207be2a5209a184f0",
    "default_topology": "7e2ff6002df0f11f6879686c4f15160ee33b1d6afeafddce219e240498700442",
    "unit_topology": "87e85ccd842b7ccc17244040b827b30097a65bf88ab525bab4d864ac70f6c2c7",
    "unit_topology_id": "87e85ccd842b",
    "unit_shard_jobs": "ebb877f2be6a5ed191551b33958c9f06a6d18abf5fcf466ea5ef5a8ec3fb2751",
    "unit_shard_results": "41f3ff640006ccbc46f819018f8ac5b5b083aa64074cb070312828e67a65a534",
    "unit_report": "db45206af90632689b5e286b7105b1a7f5cf245c991b02c3573bebffa615f5a7",
}


def _sha(texts):
    return hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _rich():
    """The ``_rich()`` scenario of ``tests/scenario/test_dsl.py``: every
    optional core field set, an explicit fault list, a non-default vector."""
    sender = CoreSpec(role="uipi_sender", interval=500, count=3)
    receiver = CoreSpec(
        role="workload",
        workload=WorkloadSpec(kind="quicksort", knobs=(("n", 16), ("seed", 5))),
        strategy="tracked",
        safepoint=True,
        kb_timer=TimerSpec(period=1024),
    )
    return Scenario(
        name="t",
        cores=(receiver, sender, CoreSpec(role="idle")),
        links=(UipiLink(sender=1, receiver=0, vector=33),),
        faults=FaultSpec(
            seed=9,
            faults=(
                Fault(kind="upid_stall", core=0, at=700),
                Fault(kind="drop_send", core=0, index=1),
            ),
        ),
        engines=ENGINE_LEG_NAMES,
        max_cycles=10_000,
        seed=7,
    )


def _random_fault_scenario():
    """A seeded random fault spec (``count > 0`` emits its random-form keys)."""
    return Scenario(
        name="random-faults",
        cores=(
            CoreSpec(
                role="workload",
                workload=WorkloadSpec(kind="count_loop", knobs=(("iterations", 100),)),
            ),
        ),
        faults=FaultSpec(seed=3, count=4),
    )


@pytest.fixture(scope="module")
def digests():
    driver = ClusterDriver(TOPOLOGY, jobs=1)
    jobs = driver.shard_jobs()
    results = [run_shard_job(job) for job in jobs]
    report = driver.run()
    return {
        "generator_0": _sha(ScenarioGenerator(0).generate(i).dumps() for i in range(150)),
        "generator_7": _sha(ScenarioGenerator(7).generate(i).dumps() for i in range(150)),
        "rich_scenario": _sha([_rich().dumps()]),
        "random_fault_scenario": _sha([_random_fault_scenario().dumps()]),
        "random_plans": _sha(FaultPlan.random(s, cores=3).dumps() for s in range(60)),
        "default_topology": _sha([ClusterTopology().dumps()]),
        "unit_topology": _sha([TOPOLOGY.dumps()]),
        "unit_topology_id": hashlib.sha256(TOPOLOGY.dumps().encode("utf-8")).hexdigest()[:12],
        "unit_shard_jobs": _sha(_canonical(job.to_json()) for job in jobs),
        "unit_shard_results": _sha(_canonical(result.to_json()) for result in results),
        "unit_report": _sha([report.dumps()]),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes_match_golden(name, digests):
    assert digests[name] == GOLDEN[name]
