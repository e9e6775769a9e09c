"""Installing and removing the layer wrappers."""

import importlib
import sys
from types import FunctionType

from tracing import LAYERS, Tracer

MODULES = [importlib.import_module(f"hopfgen.{name}") for name in LAYERS]


def _snapshot():
    """Every object reachable as a module global, a class attribute or a
    module-level dict entry in the hopfgen package."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("hopfgen"):
            continue
        for name, value in vars(mod).items():
            snap[(modname, name)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    snap[(modname, name, attr)] = member
            elif isinstance(value, dict):
                for k, v in value.items():
                    if isinstance(v, FunctionType):
                        snap[(modname, name, "item", k)] = v
    return snap


def test_install_then_uninstall_restores_every_object():
    from hopfgen import arith, generic_base, lattice, selftest

    before = _snapshot()
    tracer = Tracer()
    tracer.install(sys.modules)
    try:
        assert generic_base.solve_in_lattice is not before[("hopfgen.generic_base", "solve_in_lattice")]
        assert lattice.solve_in_lattice.__wrapped__ is before[("hopfgen.lattice", "solve_in_lattice")]
        assert selftest._FUNCS[11].__wrapped__ is before[("hopfgen.selftest", "criterion_11")]
        assert vars(arith.Scalar)["__mul__"] is not before[("hopfgen.arith", "Scalar", "__mul__")]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_traced_calls_give_the_same_results_and_counts():
    from hopfgen import cocycle, hopf, identities, lattice, selftest

    h = hopf.taft(3)
    alpha = cocycle.trivial_cocycle(h)
    poly = identities.parse_ncpoly("X[y]*X[x]-X[x]*X[y]", h)
    want = identities.classify(h, alpha, poly)
    tracer = Tracer()
    tracer.install(sys.modules)
    try:
        got = identities.classify(h, alpha, poly)
        reports = selftest.run_criteria([11], seed=0, jobs=1)
        basis = lattice.hnf_basis([[2, 0], [0, 3], [2, 3]])
    finally:
        tracer.uninstall()
    assert got == want
    assert reports[0][2].ok
    assert basis == [[2, 0], [0, 3]]
    calls = tracer.summary()["calls"]
    assert calls["identities:mu"] == 1
    assert calls["selftest:criterion_11"] == 1
    assert calls["arith:Scalar.__mul__"] > 0
    assert tracer.counters["lattice.hnf.u_discarded"] >= 1
