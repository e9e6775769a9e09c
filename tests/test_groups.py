"""Group layer: table validation, constructors, abelianization, characters."""

import re
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fast_path_reference import (
    InvalidAction,
    conjugation_action,
    embed_by_labels,
    semidirect_product,
)
from hopfgen import groups
from hopfgen.arith import make_field
from hopfgen.errors import DatumError, RangeError, UnknownLabel
from hopfgen.groups import (
    Character,
    FiniteGroup,
    abelianization,
    alternating,
    character_from_exponents,
    commutator_subgroup,
    cyclic,
    dihedral,
    direct_product,
    group_from_spec,
    subgroup_closure,
    symmetric,
    trivial,
    validate_monomial_datum,
)


def is_abelian(g):
    return commutator_subgroup(g) == {g.identity}


def test_cyclic_basics():
    g = cyclic(3)
    assert g.labels == ["e", "a", "a^2"]
    assert g.identity == 0
    assert g.mul(1, 2) == 0
    assert g.inv(1) == 2
    assert g.element_order(1) == 3
    assert is_abelian(g)


def test_cyclic_rejects_bad_order():
    with pytest.raises(RangeError):
        cyclic(0)
    with pytest.raises(RangeError):
        cyclic(49)


def test_order_cap_env_override(monkeypatch):
    monkeypatch.setenv("HOPFGEN_MAX_GROUP_ORDER", "4")
    with pytest.raises(RangeError):
        cyclic(5)
    monkeypatch.setenv("HOPFGEN_MAX_GROUP_ORDER", "nope")
    with pytest.raises(RangeError):
        cyclic(2)


def test_table_validation_catches_corruption():
    g = cyclic(3)
    bad = [row[:] for row in g.table]
    bad[1][1] = 1  # a*a = a breaks associativity/inverses
    with pytest.raises(ValueError):
        FiniteGroup(g.labels, bad)
    with pytest.raises(ValueError):
        FiniteGroup(["e", "e"], [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        FiniteGroup(["e"], [[5]])


def test_symmetric_three():
    g = symmetric(3)
    assert g.order == 6
    assert g.labels[0] == "e"
    t = g.index_of("(1 2)")
    c = g.index_of("(1 2 3)")
    assert g.element_order(t) == 2
    assert g.element_order(c) == 3
    assert not is_abelian(g)
    # (1 2)(1 2 3) applies the cycle first: 1->2->1, 2->3, 3->1->2
    assert g.labels[g.mul(t, c)] == "(2 3)"


def test_dihedral_relations():
    g = dihedral(4)
    r = g.index_of("r")
    s = g.index_of("s")
    assert g.element_order(r) == 4
    assert g.element_order(s) == 2
    # s r s = r^{-1}
    assert g.mul(g.mul(s, r), s) == g.inv(r)
    assert is_abelian(dihedral(2))


def test_direct_product_labels_and_structure():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    assert g.labels[0] == "(e,e)"
    a = g.index_of("(a,e)")
    b = g.index_of("(e,a)")
    assert g.element_order(g.mul(a, b)) == 6


def test_alternating_four():
    g = alternating(4)
    assert g.order == 12
    assert all(g.element_order(x) in (1, 2, 3) for x in range(12))
    assert commutator_subgroup(g) == {
        g.index_of(lbl) for lbl in ["e", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"]
    }


def test_subgroup_closure():
    g = symmetric(3)
    c = g.index_of("(1 2 3)")
    assert subgroup_closure(g, [c]) == {
        g.identity,
        c,
        g.index_of("(1 3 2)"),
    }


@pytest.mark.parametrize(
    "group, factors",
    [
        (trivial(), ()),
        (cyclic(6), (6,)),
        (cyclic(12), (12,)),
        (direct_product(cyclic(2), cyclic(2)), (2, 2)),
        (direct_product(cyclic(2), cyclic(4)), (2, 4)),
        (direct_product(cyclic(2), cyclic(3)), (6,)),
        (symmetric(3), (2,)),
        (symmetric(4), (2,)),
        (alternating(4), (3,)),
        (dihedral(4), (2, 2)),
        (dihedral(3), (2,)),
    ],
)
def test_abelianization_invariant_factors(group, factors):
    ab, _ = abelianization(group)
    assert ab.invariant_factors == factors
    assert ab.order * len(commutator_subgroup(group)) == group.order


def test_abelianization_projection_is_multiplicative():
    for group in (symmetric(3), dihedral(4), alternating(4)):
        ab, proj = abelianization(group)
        assert proj[group.identity] == ab.identity
        for a in range(group.order):
            for b in range(group.order):
                assert ab.add(proj[a], proj[b]) == proj[group.mul(a, b)]


# factors of the products in the oracle specs, with their orders
ORACLE_FACTORS = {
    "cyclic:2": 2, "cyclic:3": 3, "cyclic:4": 4, "cyclic:6": 6, "cyclic:12": 12,
    "dihedral:3": 6, "dihedral:4": 8, "sym:3": 6, "alt:4": 12, "sym:4": 24,
}
# every spec of these shapes that the default cap of 48 admits
ORACLE_SPECS = (
    [f"cyclic:{n}" for n in range(1, 49)]
    + [f"dihedral:{n}" for n in range(1, 25)]
    + [f"sym:{n}" for n in range(1, 5)]
    + [f"alt:{n}" for n in range(1, 5)]
    + [
        f"product:{a},{b}"
        for a, b in combinations_with_replacement(ORACLE_FACTORS, 2)
        if ORACLE_FACTORS[a] * ORACLE_FACTORS[b] <= 48
    ]
    + [
        "product:cyclic:2,cyclic:2,cyclic:2",
        "product:cyclic:2,cyclic:2,cyclic:2,cyclic:2",
        "product:cyclic:2,cyclic:2,cyclic:2,cyclic:3",
        "product:cyclic:2,cyclic:2,cyclic:2,cyclic:6",
        "product:cyclic:2,cyclic:2,sym:3",
        "product:cyclic:2,cyclic:4,sym:3",
    ]
)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_abelianization_matches_the_brute_force_oracle(spec, monkeypatch):
    """proj is a surjective homomorphism onto A whose kernel is the
    commutator subgroup, and the factors of A form a divisibility chain."""
    monkeypatch.delenv("HOPFGEN_MAX_GROUP_ORDER", raising=False)
    group = group_from_spec(spec)
    ab, proj = abelianization(group)
    factors = ab.invariant_factors
    assert all(d > 1 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert all(len(p) == len(factors) and all(0 <= x < d for x, d in zip(p, factors))
               for p in proj)
    for a in range(group.order):
        for b in range(group.order):
            assert proj[group.mul(a, b)] == ab.add(proj[a], proj[b])
    assert set(proj) == set(ab.elements())
    kernel = {g for g in range(group.order) if proj[g] == ab.identity}
    assert kernel == commutator_subgroup(group)


def relation_matrix(group):
    """Z^G modulo these rows is the abelianization: e_1, then e_g + e_h -
    e_gh for every pair."""
    n = group.order
    rows = [[int(g == group.identity) for g in range(n)]]
    for g in range(n):
        for h in range(n):
            row = [0] * n
            row[g] += 1
            row[h] += 1
            row[group.mul(g, h)] -= 1
            rows.append(row)
    return rows


def test_abelianization_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    for spec in ("trivial", "cyclic:12", "cyclic:20", "sym:3", "sym:4", "alt:4",
                 "dihedral:4", "dihedral:9", "product:cyclic:2,cyclic:6",
                 "product:cyclic:4,cyclic:4", "product:cyclic:2,cyclic:2,cyclic:2,cyclic:3",
                 "product:cyclic:3,sym:3", "product:cyclic:2,alt:4",
                 "product:cyclic:4,cyclic:12"):
        group = group_from_spec(spec)
        want = [abs(d) for d in invariant_factors(sympy.Matrix(relation_matrix(group)))]
        got = abelianization(group)[0].invariant_factors
        assert got == tuple(d for d in want if d != 1), spec


def test_abelianization_alternating_five_with_raised_cap(monkeypatch):
    monkeypatch.setenv("HOPFGEN_MAX_GROUP_ORDER", "60")
    g = alternating(5)
    ab, proj = abelianization(g)
    assert ab.invariant_factors == ()
    assert all(p == () for p in proj)


def test_semidirect_builds_symmetric_four():
    s4 = symmetric(4)
    a4 = alternating(4)
    c2 = cyclic(2)
    tau = "(1 2)"
    act = [list(range(12)), conjugation_action(s4, a4, tau)]
    g = semidirect_product(a4, c2, act)
    assert g.order == 24
    emb = embed_by_labels(a4, s4)
    t = s4.index_of(tau)
    # explicit isomorphism (h, k) -> h * tau^k
    phi = [
        s4.mul(emb[h], s4.power(t, k))
        for h in range(12)
        for k in range(2)
    ]
    assert sorted(phi) == list(range(24))
    for x in range(24):
        for y in range(24):
            assert phi[g.mul(x, y)] == s4.mul(phi[x], phi[y])


def test_semidirect_rejects_bad_actions():
    c3, c2 = cyclic(3), cyclic(2)
    with pytest.raises(InvalidAction):
        semidirect_product(c3, c2, [[0, 1, 2]])
    with pytest.raises(InvalidAction):
        semidirect_product(c3, c2, [[0, 1, 2], [0, 1, 1]])
    with pytest.raises(InvalidAction):
        semidirect_product(c3, c2, [[0, 1, 2], [1, 0, 2]])
    # inversion has order two, so assigning it to the identity slot breaks
    # the homomorphism requirement
    with pytest.raises(InvalidAction):
        semidirect_product(c3, c2, [[0, 2, 1], [0, 1, 2]])


def test_conjugation_action_requires_closed_subgroup():
    s4 = symmetric(4)
    c3 = cyclic(3)
    with pytest.raises(UnknownLabel):
        conjugation_action(s4, c3, "(1 2)")


def test_group_from_spec():
    assert group_from_spec("cyclic:6").order == 6
    assert group_from_spec("sym:4").name == "S4"
    assert group_from_spec("alt:4").order == 12
    assert group_from_spec("dihedral:4").order == 8
    g = group_from_spec("product:cyclic:2,cyclic:2")
    assert g.order == 4 and is_abelian(g)
    assert group_from_spec("trivial").order == 1
    with pytest.raises(RangeError):
        group_from_spec("frieze:7")
    with pytest.raises(RangeError):
        group_from_spec("cyclic:x")


def test_json_round_trip():
    g = symmetric(3)
    data = g.to_json()
    h = FiniteGroup.from_json(data)
    assert h.labels == g.labels
    assert h.table == g.table


small_groups = st.sampled_from(
    [cyclic(1), cyclic(4), cyclic(5), dihedral(3), symmetric(3),
     direct_product(cyclic(2), cyclic(2))]
)


@given(small_groups, st.data())
@settings(max_examples=60)
def test_group_identities_randomized(group, data):
    n = group.order
    g = data.draw(st.integers(min_value=0, max_value=n - 1))
    h = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert group.inv(group.mul(g, h)) == group.mul(group.inv(h), group.inv(g))
    assert group.power(g, group.element_order(g)) == group.identity
    assert group.commutator(g, group.identity) == group.identity


def test_character_validation():
    g = cyclic(3)
    f = make_field(3)
    chi = character_from_exponents(g, f, [0, 1, 2])
    assert chi(1) == f.q
    with pytest.raises(DatumError):
        character_from_exponents(g, f, [0, 1, 1])
    with pytest.raises(DatumError):
        Character(g, f, [f.q, f.one, f.one])


def test_monomial_datum_on_klein_group():
    g = direct_product(cyclic(2), cyclic(2))
    f = make_field(2)
    x = g.index_of("(a,e)")
    chi = character_from_exponents(g, f, [0, 0, 1, 1])
    validate_monomial_datum(g, x, chi, f)


def test_monomial_datum_rejections():
    g = direct_product(cyclic(2), cyclic(2))
    f = make_field(2)
    chi = character_from_exponents(g, f, [0, 0, 1, 1])
    with pytest.raises(DatumError) as info:
        validate_monomial_datum(g, g.identity, chi, f)
    assert info.value.condition == "x-order"
    triv_chi = character_from_exponents(g, f, [0, 0, 0, 0])
    with pytest.raises(DatumError) as info:
        validate_monomial_datum(g, g.index_of("(a,e)"), triv_chi, f)
    assert info.value.condition == "chi-at-x"
    s3 = symmetric(3)
    f3 = make_field(3)
    chi3 = character_from_exponents(s3, f3, [0] * 6)
    with pytest.raises(DatumError) as info:
        validate_monomial_datum(s3, s3.index_of("(1 2 3)"), chi3, f3)
    assert info.value.condition == "x-central"


def _count_abelianize(monkeypatch):
    calls = []
    real = groups._abelianize

    def counted(group):
        calls.append(group.order)
        return real(group)

    monkeypatch.setattr(groups, "_abelianize", counted)
    return calls


def test_abelianization_is_kept_on_its_group(monkeypatch):
    calls = _count_abelianize(monkeypatch)
    g = dihedral(4)
    ab, proj = abelianization(g)
    assert len(calls) == 1
    again_ab, again_proj = abelianization(g)
    assert len(calls) == 1
    assert (again_ab, again_proj) == (ab, proj)
    again_proj[0] = (1, 1)
    again_proj.append(())
    assert abelianization(g)[1] == proj
    assert len(calls) == 1
    assert abelianization(dihedral(4)) == (ab, proj)
    assert len(calls) == 2


@pytest.mark.parametrize("spec", ["sym:3", "dihedral:4", "product:cyclic:2,cyclic:2"])
def test_ygroup_query_reduces_once(monkeypatch, spec):
    from hopfgen.lattice import pq_generation_check, y_group

    calls = _count_abelianize(monkeypatch)
    g = group_from_spec(spec)
    abelianization(g)
    y_group(g)
    assert pq_generation_check(g).ok
    assert len(calls) == 1


@pytest.mark.parametrize("spec", ["cyclic:7", "dihedral:3"])
def test_niceness_query_reduces_once(monkeypatch, spec):
    from hopfgen.generic_base import gamma_generators, niceness_witnesses
    from hopfgen.hopf import group_algebra

    calls = _count_abelianize(monkeypatch)
    h = group_algebra(group_from_spec(spec))
    gamma_generators(h)
    assert niceness_witnesses(h)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "spec,order",
    [
        ("cyclic:49", "49"),
        ("dihedral:25", "50"),
        ("sym:5", "120"),
        ("alt:5", "60"),
        ("sym:100000", "100000!"),
        ("alt:21", "21!/2"),
        ("product:cyclic:8,cyclic:8,cyclic:8", "512"),
        ("product:sym:4,cyclic:3", "72"),
    ],
)
def test_group_orders_are_checked_before_any_table(spec, order, monkeypatch):
    """The order is read from the spec and refused before a permutation
    list or a table exists; the factors of a product are at most the cap
    each and are built, their product is not."""
    monkeypatch.delenv("HOPFGEN_MAX_GROUP_ORDER", raising=False)

    def no_table(*args, **kwargs):
        raise AssertionError("work was done for a group over the cap")

    if spec.startswith("product:"):
        monkeypatch.setattr(groups, "direct_product", no_table)
    else:
        monkeypatch.setattr(groups, "permutations", no_table)
        monkeypatch.setattr(groups, "FiniteGroup", no_table)
    with pytest.raises(RangeError, match=rf"^group order {re.escape(order)} exceeds the cap 48$"):
        group_from_spec(spec)


@pytest.mark.parametrize(
    "spec,order",
    [("cyclic:48", 48), ("dihedral:24", 48), ("sym:4", 24), ("alt:4", 12), ("alt:1", 1),
     ("product:sym:4,cyclic:2", 48)],
)
def test_group_orders_at_the_cap_are_built(spec, order, monkeypatch):
    monkeypatch.delenv("HOPFGEN_MAX_GROUP_ORDER", raising=False)
    assert group_from_spec(spec).order == order
