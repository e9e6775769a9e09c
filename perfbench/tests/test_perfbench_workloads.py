"""Op-list generation: deterministic, inside the pool, fully referenced."""

import json

import pytest

import workloads
from run import HERE


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    a = workloads.generate(workload, 7)
    assert a == workloads.generate(workload, 7)
    assert workloads.ops_digest(a) == workloads.ops_digest(workloads.generate(workload, 7))


@pytest.mark.parametrize("workload", ["lattice_queries", "identity_queries"])
def test_other_seed_other_ops_same_mix(workload):
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert workloads.ops_digest(a) != workloads.ops_digest(b)

    def mix(ops):
        return sorted((op["kind"], op.get("inst", ""), op.get("cocycle") is None) for op in ops)

    assert mix(a) == mix(b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_drawable_op_has_a_reference(workload):
    with open(HERE / "references.json") as fh:
        refs = json.load(fh)["digests"]
    pool = set(workloads.pool_keys(workload))
    assert pool <= set(refs)
    for seed in range(12):
        assert {op["key"] for op in workloads.generate(workload, seed)} <= pool


def test_identity_stream_shares():
    ops = workloads.generate("identity_queries", 0)
    powered = [op for op in ops if op["poly"].startswith("(")]
    cob = [op for op in ops if op["cocycle"] is not None]
    # powered sums sit above op_p90 with at least ten ops beyond it
    assert len(ops) - len(powered) < 0.9 * len(ops) - 5
    assert len(powered) >= 10 and len(ops) >= 100
    # op_p50 falls inside the short trivial-cocycle queries
    assert len(ops) - len(powered) - len(cob) > 0.55 * len(ops)
