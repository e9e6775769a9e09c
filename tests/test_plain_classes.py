"""Behaviour pins for the package's record classes: `report.Check` and
`report.Report`, `groups.FiniteAbelianGroup`, `lattice.YLattice`, and
`generic_base.GammaPresentation`, `generic_base.DecompositionPlan` and
`generic_base.DecompositionWitness`.

They pin construction (positional and keyword, with the defaults), value
equality where a caller compares, equal hashes for equal instances of the
read-only classes, `AttributeError` on assignment to a read-only field,
and the cached properties of the presentation, its decomposition plan
among them: built once per presentation, kept on it, read-only, and
ignored by equality and hashing."""

import pytest

from hopfgen.generic_base import (
    DecompositionPlan,
    DecompositionWitness,
    GammaPresentation,
    decompose,
    gamma_generators,
)
from hopfgen.groups import FiniteAbelianGroup, abelianization, group_from_spec
from hopfgen.hopf import group_algebra, taft
from hopfgen.lattice import ReducedBasis, YLattice, y_group
from hopfgen.report import Check, Report
from hopfgen.tring import t_ring


def test_check_construction_and_defaults():
    c = Check("name", True)
    assert (c.name, c.passed, c.details) == ("name", True, "")
    k = Check(name="n", passed=False, details="d")
    assert (k.name, k.passed, k.details) == ("n", False, "d")
    k.details = "changed"
    assert k.details == "changed"


def test_report_construction_defaults_and_methods():
    a, b = Report(), Report()
    assert a.title == "" and a.checks == [] and a.checks is not b.checks
    a.add("x", 1, "first")
    assert b.checks == []
    assert a.ok and a.failures() == []
    a.add("y", 0)
    assert not a.ok
    assert [c.name for c in a.failures()] == ["y"]
    assert a.checks[0].passed is True and a.checks[1].passed is False
    assert a.to_dict() == {
        "title": "",
        "ok": False,
        "checks": [
            {"name": "x", "passed": True, "details": "first"},
            {"name": "y", "passed": False, "details": ""},
        ],
    }
    kept = [Check("z", True)]
    r = Report("titled", kept)
    assert r.title == "titled" and r.checks is kept
    r = Report(title="kw", checks=kept)
    assert r.title == "kw" and r.ok


def test_finite_abelian_group_is_a_read_only_value():
    a = FiniteAbelianGroup((2, 6))
    b = FiniteAbelianGroup(invariant_factors=(2, 6))
    assert a == b and hash(a) == hash(b)
    assert a != FiniteAbelianGroup((12,))
    assert a.order == 12 and a.identity == (0, 0)
    with pytest.raises(AttributeError):
        a.invariant_factors = (3,)
    assert a.invariant_factors == (2, 6)
    # the abelianization kept on a group equals a fresh one
    ab, _ = abelianization(group_from_spec("sym:3"))
    assert ab == FiniteAbelianGroup((2,)) and hash(ab) == hash(FiniteAbelianGroup((2,)))


def test_y_lattice_construction_and_equality():
    g = group_from_spec("cyclic:4")
    y = y_group(g)
    assert y == y_group(g) and y is not y_group(g)
    assert y == YLattice(g, [list(r) for r in y.basis], y.index)
    assert y == YLattice(group=g, basis=y.basis, index=y.index)
    assert y != YLattice(g, y.basis, y.index + 1)
    assert y != YLattice(group_from_spec("cyclic:4"), y.basis, y.index)
    assert y.rank == len(y.basis) == 4
    y.index = 7
    assert y.index == 7


def test_gamma_presentation_is_a_read_only_value():
    h = taft(3)
    pres = gamma_generators(h)
    assert pres.special_case is False
    args = (h, "taft", pres.invertible_gens, pres.plain_gens, pres.residue_vars)
    same = GammaPresentation(*args)
    kw = GammaPresentation(
        hopf=h,
        family_tag="taft",
        invertible_gens=pres.invertible_gens,
        plain_gens=pres.plain_gens,
        residue_vars=pres.residue_vars,
        special_case=False,
    )
    assert pres == same == kw and hash(pres) == hash(same) == hash(kw)
    assert pres != GammaPresentation(*args, True)
    assert GammaPresentation(*args, special_case=True).special_case is True
    with pytest.raises(AttributeError):
        pres.family_tag = "e"
    with pytest.raises(AttributeError):
        pres.special_case = True
    assert pres.family_tag == "taft" and pres.special_case is False
    assert pres.generators == pres.invertible_gens + pres.plain_gens
    # the quadratic instance is the one special case
    assert gamma_generators(taft(2)).special_case is True


def test_gamma_presentation_cached_properties():
    h = taft(3)
    pres = gamma_generators(h)
    ring = t_ring(h)
    fresh = GammaPresentation(h, "taft", pres.invertible_gens, pres.plain_gens, pres.residue_vars)
    for name in ("factors", "torus_rows", "torus_lattice", "plain_owner", "plan"):
        value = getattr(fresh, name)
        assert getattr(fresh, name) is value
    assert fresh.factors == tuple(
        (next(iter(g.terms)), None) for g in fresh.generators
    )
    assert fresh.torus_rows == ((1, 0, 0), (0, 1, 1), (0, -2, 1))
    assert isinstance(fresh.torus_lattice, ReducedBasis)
    assert fresh.torus_lattice.solve([0, 1, 1]) == [0, 1, 0]
    assert sorted(fresh.plain_owner) == list(range(3, 9))
    for v, (p, mon) in fresh.plain_owner.items():
        assert fresh.plain_gens[p] == ring.element({mon: h.field.one})
        assert v in dict(mon.exps)
    # a cached value is not a field: equality and hashing ignore it
    other = GammaPresentation(h, "taft", pres.invertible_gens, pres.plain_gens, pres.residue_vars)
    assert fresh == other and hash(fresh) == hash(other)
    assert "plan" in fresh.__dict__ and "plan" not in other.__dict__


def test_gamma_presentation_plan():
    h = taft(3)
    pres = gamma_generators(h)
    ring = t_ring(h)
    plan = pres.plan
    assert isinstance(plan, DecompositionPlan)
    assert plan.moduli == (3,) and plan.torus_size == 3 and plan.plain_size == 6
    assert plan.width == ring.width
    pairs = ring.degree_pairs()
    # t[1] is group-like, at torus position 1 with degree 1
    assert plan.variables[1] == (pairs[1], 1, None, ()) == (((0, 1),), 1, None, ())
    # t[3] = t[y] is owned by the plain generator t[y] t[g^2]
    slot, mon = pres.plain_owner[3]
    assert plan.variables[3] == (pairs[3], None, slot, ((2, 1),))
    assert pres.plain_gens[slot] == ring.element({mon: h.field.one})
    assert plan.generators == tuple((m.key, m.bound, c) for m, c in pres.factors)
    assert plan.residues == ((1, ring.monomial(((1, 1),)).key),)
    with pytest.raises(AttributeError):
        plan.width = 8
    assert plan.width == ring.width


def test_gamma_presentation_plan_is_built_once_and_kept(monkeypatch):
    h = taft(3)
    builds = []
    real = DecompositionPlan.__init__

    def counted(self, *args):
        builds.append(args)
        real(self, *args)

    monkeypatch.setattr(DecompositionPlan, "__init__", counted)
    pres = gamma_generators(h)
    elem = pres.plain_gens[0] * pres.invertible_gens[1] + pres.plain_gens[2] * 3
    for _ in range(3):
        decompose(h, elem)
    assert len(builds) == 1
    assert pres.__dict__["plan"] is pres.plan
    # an equal presentation computes its own plan, and equal plans
    # keep the presentations equal
    other = GammaPresentation(h, "taft", pres.invertible_gens, pres.plain_gens, pres.residue_vars)
    assert other.plan is not pres.plan and len(builds) == 2
    assert other == pres and hash(other) == hash(pres)
    # the presentation stays read-only, the plan included
    with pytest.raises(AttributeError):
        pres.plan = other.plan
    with pytest.raises(AttributeError):
        pres.invertible_gens = ()


def test_decomposition_witness_is_a_read_only_value():
    h = group_algebra(group_from_spec("cyclic:3"))
    ring = t_ring(h)
    elem = ring.var(1) * ring.var(2) * ring.var(0, -1) * ring.var(0, -1)
    (w,) = decompose(h, elem)
    pres = gamma_generators(h)
    assert w.presentation is pres
    same = DecompositionWitness(
        pres, w.coefficient, w.invertible_exps, w.plain_exps, w.residue_exps
    )
    kw = DecompositionWitness(
        presentation=pres,
        coefficient=w.coefficient,
        invertible_exps=w.invertible_exps,
        plain_exps=w.plain_exps,
        residue_exps=w.residue_exps,
    )
    assert w == same == kw and hash(w) == hash(same) == hash(kw)
    assert w != DecompositionWitness(
        pres, w.coefficient + 1, w.invertible_exps, w.plain_exps, w.residue_exps
    )
    assert same.remultiply() == elem
    with pytest.raises(AttributeError):
        w.coefficient = h.field.one
    with pytest.raises(AttributeError):
        w.residue_exps = ()
    assert same.remultiply() == elem
