"""Hopf layer: family tables, antipode solve, axioms, center, grading."""

import time
from fractions import Fraction

import pytest
from fast_path_reference import reference_antipode_dict as antipode_dict
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgen.arith import make_field, q_binomial
from hopfgen.errors import NotPointedOrder, RangeError
from hopfgen.groups import (
    character_from_exponents,
    cyclic,
    direct_product,
    symmetric,
)
from hopfgen.hopf import (
    HopfAlgebra,
    center,
    e_algebra,
    group_algebra,
    hab_grading,
    monomial_type_i,
    structure_equal,
    taft,
    verify_hopf_axioms,
)
from hopfgen.linalg import collect


def basis(h, key):
    """The basis element of h with the given label or index, as the
    {index: Scalar} dict of every algebra element."""
    i = key if isinstance(key, int) else h.index_of(key)
    return {i: h.field.one}


def power(h, a, k):
    out = {h.unit_index: h.field.one}
    for _ in range(k):
        out = h.multiply_dicts(out, a)
    return out


def scaled(a, c):
    return collect((i, c * v) for i, v in a.items())


def plus(*elems):
    return collect(kv for a in elems for kv in a.items())


def klein_monomial():
    g = direct_product(cyclic(2), cyclic(2))
    f = make_field(2)
    chi = character_from_exponents(g, f, [0, 0, 1, 1])
    return monomial_type_i(g, g.index_of("(a,e)"), chi, f)


def test_taft_labels_and_indexing():
    h = taft(3)
    assert h.dim == 9
    assert h.labels[0] == "1"
    assert h.labels[2] == "x^2"
    assert h.labels[3] == "y"
    assert h.labels[5] == "x^2 y"
    assert h.labels[8] == "x^2 y^2"
    assert h.unit_index == 0
    assert h.grouplikes == [0, 1, 2]


def test_taft_commutation_and_truncation():
    h = taft(3)
    q = h.field.q
    x, y = basis(h, "x"), basis(h, "y")
    assert h.multiply_dicts(y, x) == scaled(h.multiply_dicts(x, y), q)
    assert power(h, x, 3) == basis(h, h.unit_index)
    assert power(h, y, 3) == {}
    assert power(h, y, 2) != {}


def test_taft_comult_of_y_squared():
    h = taft(3)
    f = h.field
    i = h.index_of("y^2")
    expect = {
        (h.index_of("1"), h.index_of("y^2")): f.one,
        (h.index_of("y"), h.index_of("x y")): f.one + f.q,
        (h.index_of("y^2"), h.index_of("x^2")): f.one,
    }
    assert h.comult_dict({i: f.one}) == expect
    assert q_binomial(2, 1, f) == f.one + f.q


def test_taft_antipode_values():
    h = taft(3)
    f = h.field
    assert antipode_dict(h, {h.index_of("x"): f.one}) == {h.index_of("x^2"): f.one}
    # S(y) = -y x^2, expanded into the basis
    want = scaled(h.multiply_dicts(basis(h, "y"), basis(h, "x^2")), -f.one)
    assert antipode_dict(h, {h.index_of("y"): f.one}) == want
    # Sweedler case: S(y) = x y
    h2 = taft(2)
    assert antipode_dict(h2, {h2.index_of("y"): h2.field.one}) == {
        h2.index_of("x y"): h2.field.one
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_taft_antipode_has_order_2n(n):
    h = taft(n)
    f = h.field
    for i in range(h.dim):
        cur = {i: f.one}
        for _ in range(2 * n):
            cur = antipode_dict(h, cur)
        assert cur == {i: f.one}


def test_e_algebra_labels_and_signs():
    h = e_algebra(2)
    assert h.labels == ["1", "x", "y_1", "y_2", "x y_1", "x y_2", "y_{1,2}", "x y_{1,2}"]
    one = h.field.one
    x = basis(h, "x")
    y1, y2 = basis(h, "y_1"), basis(h, "y_2")
    mul = h.multiply_dicts
    assert mul(y1, y1) == {}
    assert mul(y1, y2) == scaled(mul(y2, y1), -one)
    assert mul(y1, x) == scaled(mul(x, y1), -one)
    assert mul(x, x) == basis(h, h.unit_index)
    assert mul(y1, y2) == {h.index_of("y_{1,2}"): one}


def test_e_algebra_comult_on_pair():
    h = e_algebra(2)
    f = h.field
    i = h.index_of("y_{1,2}")
    got = h.comult_dict({i: f.one})
    expect = {
        (h.index_of("1"), i): f.one,
        (h.index_of("y_1"), h.index_of("x y_2")): f.one,
        (h.index_of("y_2"), h.index_of("x y_1")): -f.one,
        # diagonal term carries x^{|I|} = x^2 = 1 on the right leg
        (i, h.index_of("1")): f.one,
    }
    assert got == expect


def test_sweedler_is_e_one():
    e1 = e_algebra(1)
    assert structure_equal(e1, _with_tables(taft(2), labels=e1.labels))
    assert not structure_equal(e1, taft(2))


def test_monomial_on_cyclic_group_matches_taft():
    # the same tables, entry for entry and in the same dict order
    for n in range(2, 8):
        g = cyclic(n)
        f = make_field(n)
        chi = character_from_exponents(g, f, list(range(n)))
        h = monomial_type_i(g, 1, chi, f)
        t = taft(n)
        assert structure_equal(h, _with_tables(t, labels=h.labels))
        assert list(h.mult.items()) == list(t.mult.items())
        assert (h.comult, h.counit, h.antipode) == (t.comult, t.counit, t.antipode)
        assert h.labels[0] == "e"
        assert (t.labels[1], t.family, t.name) == ("x", {"kind": "taft", "n": n}, f"taft({n})")


def test_monomial_klein_labels():
    h = klein_monomial()
    assert h.dim == 8
    assert "(a,e) y" in h.labels
    assert h.labels[h.unit_index] == "(e,e)"


@pytest.mark.parametrize(
    "make",
    [
        lambda: taft(2),
        lambda: taft(3),
        lambda: taft(4),
        lambda: e_algebra(1),
        lambda: e_algebra(2),
        lambda: e_algebra(3),
        lambda: group_algebra(symmetric(3)),
        lambda: group_algebra(cyclic(6)),
        klein_monomial,
    ],
    ids=["taft2", "taft3", "taft4", "e1", "e2", "e3", "kS3", "kZ6", "monomial"],
)
def test_axioms_pass(make):
    rep = verify_hopf_axioms(make())
    assert rep.ok, rep.failures()


def test_axioms_catch_corruption():
    h = taft(3)
    bad = dict(h.mult)
    key = (h.index_of("x"), h.index_of("y"))
    ((k, c),) = bad[key]
    bad[key] = ((k, c * h.field.q),)
    broken = HopfAlgebra(
        h.field,
        ["b" + lbl for lbl in h.labels],
        bad,
        h.comult,
        h.counit,
        h.unit_index,
        {"kind": "generic"},
        antipode=h.antipode,
    )
    rep = verify_hopf_axioms(broken)
    assert not rep.ok
    one = broken.field.one
    first = next(
        (i, j, k)
        for i in range(broken.dim)
        for j in range(broken.dim)
        for k in range(broken.dim)
        if broken.multiply_dicts(broken.multiply_dicts({i: one}, {j: one}), {k: one})
        != broken.multiply_dicts({i: one}, broken.multiply_dicts({j: one}, {k: one}))
    )
    (assoc,) = [c for c in rep.checks if c.name == "associativity"]
    assert not assoc.passed
    assert assoc.details == "fails at ({}, {}, {})".format(*(broken.labels[i] for i in first))
    assert all(c.details == "" for c in verify_hopf_axioms(h).checks if c.passed)


def test_non_pointed_order_rejected():
    f = make_field(1)
    one = f.one
    # idempotent c with diagonal comult but counit 0: no antipode recursion
    mult = {(0, 0): ((0, one),), (0, 1): ((1, one),), (1, 0): ((1, one),), (1, 1): ((1, one),)}
    comult = [((0, 0, one),), ((1, 1, one),)]
    with pytest.raises(NotPointedOrder):
        HopfAlgebra(f, ["1", "c"], mult, comult, [one, f.zero], 0, {"kind": "generic"})


def test_center_taft_is_scalars():
    for n in (2, 3, 4):
        zs = center(taft(n))
        assert len(zs) == 1
        assert set(zs[0]) == {0}


def test_center_group_algebra_abelian():
    h = group_algebra(cyclic(4))
    assert len(center(h)) == 4


def test_center_e2_contains_claimed_basis_and_volume_term():
    h = e_algebra(2)
    zs = center(h)
    # direct commutator oracle, independent of the nullspace path
    vol = basis(h, "x y_{1,2}")
    for i in range(h.dim):
        b = basis(h, i)
        assert h.multiply_dicts(vol, b) == h.multiply_dicts(b, vol)
    from hopfgen.linalg import in_span, row_reduce

    reduced, pivots = row_reduce(zs, h.field)
    for lbl in ("1", "y_{1,2}", "x y_{1,2}"):
        assert in_span(reduced, pivots, basis(h, lbl))
    assert len(zs) == 3


@pytest.mark.parametrize("n, dim", [(1, 1), (2, 3), (3, 4), (4, 9)])
def test_center_e_algebra_dimensions(n, dim):
    # even-size y_I blocks are always central; for even n the x-times-top
    # monomial joins them, which is why the count exceeds 2^(n-1) there
    assert len(center(e_algebra(n))) == dim


def test_hab_grading_examples():
    h = taft(3)
    ab, deg = hab_grading(h)
    assert ab.invariant_factors == (3,)
    assert deg[h.index_of("x y^2")] == (0,)
    e2 = e_algebra(2)
    ab2, deg2 = hab_grading(e2)
    assert ab2.invariant_factors == (2,)
    assert deg2[e2.index_of("x y_1")] == (0,)
    assert deg2[e2.index_of("y_1")] == (1,)
    s3 = group_algebra(symmetric(3))
    ab3, deg3 = hab_grading(s3)
    g = s3.family["group"]
    comm = g.mul(g.index_of("(1 2)"), g.index_of("(1 2)"))
    assert deg3[comm] == ab3.identity


def test_e_row_without_its_diagonal_term_fails_the_grading_check():
    """e(1) loaded with the term y_1 (x) x dropped from the coproduct of
    y_1: the battery reports failed checks instead of raising."""
    h = e_algebra(1)
    data = h.to_json()
    y = h.index_of("y_1")
    data["comult"][y] = [term for term in data["comult"][y] if term[0] != y]
    broken = HopfAlgebra.from_json(data)
    assert hab_grading(broken)[1][y] == (0,)
    checks = {c.name: c for c in verify_hopf_axioms(broken).checks}
    assert not checks["grading"].passed
    assert checks["grading"].details == "fails at (x, y_1)"


def test_json_round_trips():
    # taft(8): the largest dimension and root-of-unity order that from_json admits
    for h in (taft(3), e_algebra(2), klein_monomial(), group_algebra(symmetric(3)), taft(8)):
        data = h.to_json()
        back = HopfAlgebra.from_json(data)
        assert structure_equal(h, back)
        assert back.family["kind"] == h.family["kind"]
        rep = verify_hopf_axioms(back)
        assert rep.ok, rep.failures()


def test_rejects_small_parameters():
    with pytest.raises(RangeError):
        taft(1)
    with pytest.raises(RangeError):
        e_algebra(0)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_algebra_element_ring_axioms(data):
    h = taft(3)
    f = h.field

    def rand_el():
        coeffs = {}
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            i = data.draw(st.integers(min_value=0, max_value=h.dim - 1))
            c = data.draw(st.integers(min_value=-4, max_value=4))
            coeffs[i] = coeffs.get(i, f.zero) + f.scalar(c)
        return plus(*(scaled(basis(h, i), c) for i, c in coeffs.items()))

    mul, one = h.multiply_dicts, basis(h, h.unit_index)
    a, b, c = rand_el(), rand_el(), rand_el()
    assert mul(plus(a, b), c) == plus(mul(a, c), mul(b, c))
    assert mul(a, plus(b, c)) == plus(mul(a, b), mul(a, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, one) == a
    assert mul(one, a) == a


def test_antipode_is_anti_multiplicative():
    for h in (taft(3), e_algebra(2)):
        f = h.field
        for i in range(h.dim):
            for j in range(h.dim):
                lhs = antipode_dict(h, h.multiply_dicts({i: f.one}, {j: f.one}))
                rhs = h.multiply_dicts(
                    antipode_dict(h, {j: f.one}), antipode_dict(h, {i: f.one})
                )
                assert lhs == rhs


def test_algebra_elements_refuse_floats():
    # an element's coefficients are Scalars, and the field refuses a float
    h = taft(3)
    y = basis(h, "y")
    for bad in (0.5, 1e-3):
        with pytest.raises(RangeError):
            h.field.scalar(bad)
    half = h.field.scalar(Fraction(1, 2))
    assert scaled(scaled(y, half), h.field.scalar(2)) == y


def _with_tables(h, mult=None, comult=None, labels=None):
    return HopfAlgebra(
        h.field,
        h.labels if labels is None else labels,
        h.mult if mult is None else mult,
        h.comult if comult is None else comult,
        h.counit,
        h.unit_index,
        h.family,
        antipode=h.antipode,
    )


@pytest.mark.parametrize("pair", [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y"), ("x y", "x")])
def test_axioms_name_a_corrupted_mult_entry(pair):
    """Moving the product of one basis pair to another basis element is
    reported at that pair by every pair check that reads it."""
    h = taft(3)
    key = tuple(h.index_of(lbl) for lbl in pair)
    mult = dict(h.mult)
    ((k, c),) = mult[key]
    mult[key] = (((k + 1) % h.dim, c),)
    checks = {c.name: c for c in verify_hopf_axioms(_with_tables(h, mult=mult)).checks}
    named = "fails at ({}, {})".format(*pair)
    assert checks["comult-multiplicative"].details == named
    assert checks["grading"].details == named
    if pair == ("x", "x"):
        assert checks["counit-multiplicative"].details == named


@pytest.mark.parametrize("label", ["y", "x y", "y^2", "x^2 y^2"])
@pytest.mark.parametrize("term", [0, -1])
def test_axioms_name_a_corrupted_comult_entry(label, term):
    """Scaling one term of the coproduct of b is reported at b by every
    element check that fails, and by the pair check at a pair that holds b
    or multiplies to it."""
    h = taft(3)
    i = h.index_of(label)
    row = list(h.comult[i])
    j, k, c = row[term]
    row[term] = (j, k, c * h.field.q)
    comult = list(h.comult)
    comult[i] = tuple(row)
    rep = verify_hopf_axioms(_with_tables(h, comult=comult))
    element_checks = ("coassociativity", "counit", "antipode-left", "antipode-right")
    failed = {c.name: c.details for c in rep.failures()}
    assert set(failed) & set(element_checks)
    for name in element_checks:
        assert failed.get(name, f"fails at ({label})") == f"fails at ({label})"
    a, b = (h.index_of(lbl) for lbl in failed["comult-multiplicative"][10:-1].split(", "))
    assert i in (a, b) or (a, b) in h.mult and h.mult[(a, b)][0][0] == i


def test_passing_axioms_have_empty_details():
    for h in (taft(3), e_algebra(2), group_algebra(symmetric(3)), klein_monomial()):
        rep = verify_hopf_axioms(h)
        assert rep.ok
        assert all(c.details == "" for c in rep.checks)


# -- table budgets of from_json ------------------------------------------------

UNPARSABLE = ["not a number"]


def _poisoned_taft2(edit=None) -> dict:
    """taft(2).to_json() with every coefficient unparsable, so that a table
    check that ran after the scalar parser would raise ValueError from
    Fraction instead of the RangeError expected below."""
    data = taft(2).to_json()
    data["mult"] = [[i, j, [[k, UNPARSABLE] for k, _ in row]] for i, j, row in data["mult"]]
    data["comult"] = [[[j, k, UNPARSABLE] for j, k, _ in row] for row in data["comult"]]
    data["counit"] = [UNPARSABLE for _ in data["counit"]]
    data["antipode"] = [[[k, UNPARSABLE] for k, _ in row] for row in data["antipode"]]
    if edit is not None:
        edit(data)
    return data


def test_from_json_parses_scalars_only_after_the_table_checks():
    with pytest.raises(ValueError) as info:
        HopfAlgebra.from_json(_poisoned_taft2())
    assert not isinstance(info.value, RangeError)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d["mult"].append([7, 9, [[99, UNPARSABLE]]]), "mult key 7 is not an index in 0..3"),
        (lambda d: d["mult"].append([2, 2, [[99, UNPARSABLE]]]), "mult target 99 is not an index"),
        (lambda d: d["mult"].append([0, -1, []]), "mult key -1 is not an index"),
        (lambda d: d["mult"].append([0, "1", []]), "mult key '1' is not an index"),
        (lambda d: d["mult"].append(list(d["mult"][0])), r"repeated mult key \(0, 0\)"),
        (lambda d: d["mult"][0][2].extend([[0, UNPARSABLE]] * 4), "mult row of 5 terms exceeds 4"),
        (lambda d: d["comult"].pop(), "comult has 3 rows, need 4"),
        (lambda d: d["counit"].append(UNPARSABLE), "counit has 5 rows, need 4"),
        (lambda d: d["antipode"].pop(), "antipode has 3 rows, need 4"),
        (lambda d: d["comult"][2].append([0, 4, UNPARSABLE]), "comult leg 4 is not an index"),
        (lambda d: d["comult"][0].extend([[0, 0, UNPARSABLE]] * 16), "comult row of 17 terms exceeds 16"),
        (lambda d: d["antipode"][3].append([5, UNPARSABLE]), "antipode index 5 is not an index"),
        (lambda d: d["antipode"][3].extend([[0, UNPARSABLE]] * 4), "antipode row of 5 terms exceeds 4"),
        (lambda d: d.update(unit_index=4), "unit_index 4 is not an index"),
        (lambda d: d.update(unit_index=True), "unit_index True is not an index"),
    ],
    ids=[
        "mult-key", "mult-target", "negative-key", "string-key", "repeated-key",
        "long-mult-row", "comult-rows", "counit-rows", "antipode-rows",
        "comult-leg", "long-comult-row", "antipode-index", "long-antipode-row",
        "unit-index", "bool-unit-index",
    ],
)
def test_from_json_refuses_tables_that_do_not_fit_the_basis(edit, message):
    with pytest.raises(RangeError, match=message):
        HopfAlgebra.from_json(_poisoned_taft2(edit))


def test_from_json_refuses_200k_repeated_entries_at_once():
    """The entry count is refused before any entry is read; parsing the
    scalars of 200,000 entries takes over a second."""
    data = _poisoned_taft2(lambda d: d["mult"].extend([d["mult"][0]] * 200_000))
    start = time.perf_counter()
    with pytest.raises(RangeError, match=r"200012 mult entries exceed dim\^2 = 16"):
        HopfAlgebra.from_json(data)
    assert time.perf_counter() - start < 0.5

