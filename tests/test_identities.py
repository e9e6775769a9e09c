"""Word algebra, parser, and the universal map into coordinates-tensor-algebra."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fast_path_reference import (
    comodule_map_check,
    reference_denominator_ncpoly,
    tautological_coaction,
)
from hopfgen.arith import make_field
from hopfgen.cocycle import TwistedAlgebra, coboundary_cocycle, trivial_cocycle
from hopfgen.errors import (
    CocycleMismatch,
    NotHopfMap,
    ParseError,
    RangeError,
    UnknownLabel,
    UnsupportedFamily,
)
from hopfgen.groups import character_from_exponents, cyclic, direct_product, symmetric
from hopfgen.hopf import e_algebra, group_algebra, monomial_type_i, taft
from hopfgen.identities import (
    HopfMap,
    LocalizedDenominator,
    NCPoly,
    classify,
    is_identity,
    monomial_group_maps,
    mu,
    mu_algebra,
    ncpoly_scalar,
    parse_ncpoly,
    push_forward,
    symbol,
)
from hopfgen.tring import TensorH, TRing, t_ring


def klein_monomial():
    g = direct_product(cyclic(2), cyclic(2))
    f = make_field(2)
    chi = character_from_exponents(g, f, [0, 0, 1, 1])
    return monomial_type_i(g, g.index_of("(a,e)"), chi, f)


def test_parser_accepts_the_grammar():
    h = taft(3)
    p = parse_ncpoly("X[y]*X[x] - q*X[x]*X[y]", h)
    iy, ix = h.index_of("y"), h.index_of("x")
    assert p.terms == {(iy, ix): h.field.one, (ix, iy): -h.field.q}
    assert parse_ncpoly("X[x]^3", h).terms == {(ix,) * 3: h.field.one}
    assert parse_ncpoly("X[1]", h).terms == {(h.unit_index,): h.field.one}
    assert parse_ncpoly("3/2", h).terms == {(): h.field.scalar(3) / h.field.scalar(2)}
    assert parse_ncpoly("-X[x] + X[x]", h).is_zero
    assert parse_ncpoly("(X[x] + X[y])^2", h) == parse_ncpoly(
        "X[x]^2 + X[x]*X[y] + X[y]*X[x] + X[y]^2", h
    )
    assert parse_ncpoly(" q ^ 2 * X[y] ", h).terms == {(iy,): h.field.q ** 2}


@pytest.mark.parametrize(
    "text",
    ["X[x", "3/0", "X[x]*", "(X[x]", "^2", "", "X[x] + ", "2^", "X[x]]"],
)
def test_parser_rejects_malformed_input(text):
    with pytest.raises(ParseError) as err:
        parse_ncpoly(text, taft(3))
    assert err.value.position >= 0


def test_parser_rejects_unknown_labels():
    with pytest.raises(UnknownLabel):
        parse_ncpoly("X[zz]", taft(3))


def test_word_cap_is_enforced_and_overridable():
    h = taft(2)
    x = symbol(h, "x", cap=3)
    with pytest.raises(RangeError):
        x ** 4
    assert len(next(iter((symbol(h, "x", cap=8) ** 4).terms))) == 4
    with pytest.raises(RangeError):
        parse_ncpoly("X[x]^65", h)


def test_mu_sends_grouplike_symbols_to_diagonal_tensors():
    h = taft(3)
    a0 = trivial_cocycle(h)
    ring = t_ring(h)
    for g in h.grouplikes:
        assert mu(h, a0, symbol(h, g)) == TensorH.from_element(ring, h, ring.var(g), g)


def test_mu_splits_the_skew_primitive():
    h = taft(3)
    im = mu(h, trivial_cocycle(h), symbol(h, "y"))
    ring = t_ring(h)
    expected = TensorH.from_element(ring, h, ring.var(h.unit_index), h.index_of("y"))
    expected += TensorH.from_element(ring, h, ring.var(h.index_of("y")), h.index_of("x"))
    assert im == expected


def test_mu_of_commutator_is_the_pinned_tensor():
    h = taft(3)
    p = parse_ncpoly("X[y]*X[x] - X[x]*X[y]", h)
    im = mu(h, trivial_cocycle(h), p)
    ring = t_ring(h)
    coeff = (h.field.q - 1) * ring.var(h.unit_index) * ring.var(h.index_of("x"))
    assert im == TensorH.from_element(ring, h, coeff, h.index_of("x y"))
    assert not is_identity(h, trivial_cocycle(h), p)


def test_unit_symbol_commutes_with_everything():
    h = taft(3)
    a0 = trivial_cocycle(h)
    for lbl in ("x", "y", "x^2 y"):
        p = parse_ncpoly(f"X[1]*X[{lbl}] - X[{lbl}]*X[1]", h)
        assert is_identity(h, a0, p)


def test_symbol_accepts_labels_and_rejects_bad_index():
    h = taft(2)
    for i, label in enumerate(h.labels):
        assert symbol(h, label) == symbol(h, i)
        assert symbol(h, label).to_text() == symbol(h, i).to_text()
    for bad in (h.dim, 99, -1):
        with pytest.raises(RangeError):
            symbol(h, bad)


def test_commutators_on_group_algebras():
    ab = group_algebra(direct_product(cyclic(2), cyclic(2)))
    p = parse_ncpoly("X[(a,e)]*X[(e,a)] - X[(e,a)]*X[(a,e)]", ab)
    assert is_identity(ab, trivial_cocycle(ab), p)

    s3 = group_algebra(symmetric(3))
    q = parse_ncpoly("X[(1 2)]*X[(1 3)] - X[(1 3)]*X[(1 2)]", s3)
    assert not is_identity(s3, trivial_cocycle(s3), q)


def test_twisted_product_keeps_symmetric_cocycle_identities():
    # coboundary weights give a symmetric cocycle, so commutation survives
    s3 = group_algebra(symmetric(3))
    alpha = coboundary_cocycle(s3, seed=7)
    commuting = parse_ncpoly("X[(1 2 3)]*X[(1 3 2)] - X[(1 3 2)]*X[(1 2 3)]", s3)
    assert is_identity(s3, alpha, commuting)
    clashing = parse_ncpoly("X[(1 2)]*X[(1 3)] - X[(1 3)]*X[(1 2)]", s3)
    assert not is_identity(s3, alpha, clashing)


def test_classify_flags():
    h = taft(3)
    a0 = trivial_cocycle(h)
    assert classify(h, a0, parse_ncpoly("X[x]^3", h)) == {
        "identity": False,
        "coinvariant": True,
        "central": True,
    }
    assert classify(h, a0, symbol(h, "y")) == {
        "identity": False,
        "coinvariant": False,
        "central": False,
    }
    zero = parse_ncpoly("X[1]*X[x] - X[x]*X[1]", h)
    assert classify(h, a0, zero)["identity"]

    e2 = e_algebra(2)
    flags = classify(e2, trivial_cocycle(e2), parse_ncpoly("X[x]^2", e2))
    assert flags["coinvariant"] and flags["central"]


def test_coinvariants_multiply_to_coinvariants():
    h = taft(3)
    a0 = trivial_cocycle(h)
    gens = [parse_ncpoly("X[1]", h), parse_ncpoly("X[x]^3", h), parse_ncpoly("X[x^2]^3", h)]
    for p in gens:
        assert classify(h, a0, p)["coinvariant"]
        for r in gens:
            assert classify(h, a0, p * r)["coinvariant"]


def test_tautological_coaction_pinned():
    h = taft(2)
    d = tautological_coaction(h, symbol(h, "y"))
    one = h.field.one
    assert d == {
        ((h.unit_index,), h.index_of("y")): one,
        ((h.index_of("y"),), h.index_of("x")): one,
    }


@pytest.mark.parametrize(
    "make",
    [lambda: taft(2), lambda: taft(3), lambda: e_algebra(2), klein_monomial],
)
def test_mu_is_a_comodule_map_on_short_words(make):
    h = make()
    a0 = trivial_cocycle(h)
    picks = [h.unit_index, h.dim - 1, h.dim // 2]
    polys = [
        NCPoly(h, {(i,): h.field.one for i in picks}),
        NCPoly(h, {(picks[0], picks[2]): h.field.one}),
        NCPoly(h, {(picks[2], picks[1], picks[0]): h.field.q}),
    ]
    for p in polys:
        assert comodule_map_check(h, a0, p)


words3 = st.lists(st.integers(0, 8), min_size=0, max_size=2).map(tuple)


@given(words3, words3)
@settings(max_examples=25, deadline=None)
def test_identities_absorb_products(r_word, s_word):
    h = taft(3)
    a0 = trivial_cocycle(h)
    p = parse_ncpoly("X[1]*X[x] - X[x]*X[1]", h)
    q = parse_ncpoly("X[1]*X[x^2] - X[x^2]*X[1]", h)
    r = NCPoly(h, {r_word: h.field.one})
    s = NCPoly(h, {s_word: h.field.q})
    assert is_identity(h, a0, p * r + s * q)


def test_push_forward_along_identity_map():
    h = taft(3)
    p = parse_ncpoly("X[y]*X[x] - q*X[x]*X[y]", h)
    identity = HopfMap(h, h, [{i: h.field.one} for i in range(h.dim)])
    assert push_forward(identity, p) == p


def test_monomial_group_maps_round_trip():
    h = klein_monomial()
    iota, pi = monomial_group_maps(h)
    kg = iota.source
    p = parse_ncpoly("X[(a,e)]*X[(e,a)] + 2*X[(a,a)] - X[(e,e)]", kg)
    assert push_forward(pi, push_forward(iota, p)) == p
    # the projection kills every positive level
    assert push_forward(pi, symbol(h, "(a,e) y")).is_zero


def test_monomial_group_maps_need_the_monomial_family():
    with pytest.raises(UnsupportedFamily):
        monomial_group_maps(taft(3))


def test_hopf_map_verification_rejects_bad_images():
    h = taft(2)
    one = h.field.one
    images = [{i: one} for i in range(h.dim)]
    images[h.index_of("y")] = {h.index_of("x"): one}  # x is not skew-primitive
    with pytest.raises(NotHopfMap):
        HopfMap(h, h, images)
    with pytest.raises(NotHopfMap):
        HopfMap(h, h, images[:2])


def test_localized_denominators_follow_the_whitelist():
    h3 = taft(3)
    d = LocalizedDenominator(h3, [("unit",), ("grouplike_power", h3.index_of("x"))])
    assert reference_denominator_ncpoly(d).to_text() == "X[1]*X[x]^3"
    with pytest.raises(UnsupportedFamily):
        LocalizedDenominator(h3, [("x_square",)])

    e2 = e_algebra(2)
    d2 = LocalizedDenominator(e2, [("x_square",)])
    assert reference_denominator_ncpoly(d2).to_text() == "X[x]^2"
    with pytest.raises(UnsupportedFamily):
        LocalizedDenominator(e2, [("grouplike_power", 1)])

    s3 = group_algebra(symmetric(3))
    g = s3.index_of("(1 2 3)")
    d3 = LocalizedDenominator(s3, [("pair_product", g)])
    assert reference_denominator_ncpoly(d3).to_text() == "X[(1 2 3)]*X[(1 3 2)]"
    t = s3.index_of("(1 2)")
    d4 = LocalizedDenominator(s3, [("triple_product", g, t)])
    prod = reference_denominator_ncpoly(d4)
    assert len(next(iter(prod.terms))) == 3


def test_ncpoly_text_and_json_round_trip():
    h = taft(3)
    p = parse_ncpoly("X[y]*X[x] - q*X[x]*X[y] + 3/2", h)
    assert parse_ncpoly(p.to_text(), h) == p
    assert ncpoly_scalar(h, 0).to_text() == "0"
    assert symbol(h, "x").to_text() == "X[x]"
    assert (symbol(h, "x") ** 3).to_text() == "X[x]^3"


def test_mu_algebra_belongs_to_its_cocycle():
    s3, other = group_algebra(symmetric(3)), group_algebra(symmetric(3))
    alpha = coboundary_cocycle(s3, seed=3)
    target = mu_algebra(s3, alpha)
    assert isinstance(target, TwistedAlgebra)
    assert mu_algebra(s3, alpha) is target
    assert mu_algebra(s3, trivial_cocycle(s3)) is s3
    with pytest.raises(CocycleMismatch):
        mu_algebra(s3, trivial_cocycle(other))
    with pytest.raises(CocycleMismatch):
        mu(other, alpha, symbol(other, 1))
    with pytest.raises(CocycleMismatch):
        mu_algebra(s3, alpha.values)


def _live(cls) -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


def test_dropped_cocycles_release_their_twisted_algebras():
    s3 = group_algebra(symmetric(3))
    p = parse_ncpoly("X[(1 2)]*X[(1 3)] - X[(1 3)]*X[(1 2)]", s3)
    before = _live(TwistedAlgebra)
    for seed in range(40):
        classify(s3, coboundary_cocycle(s3, seed), p)
    assert _live(TwistedAlgebra) <= before


def test_dropped_instances_release_their_rings():
    before = _live(TRing)
    for _ in range(20):
        h = taft(3)
        classify(h, trivial_cocycle(h), parse_ncpoly("X[y]*X[x]", h))
    del h
    assert _live(TRing) <= before


def test_polynomials_refuse_floats():
    h = taft(2)
    x = symbol(h, "x")
    for bad in (0.5, 1e-3):
        with pytest.raises(RangeError):
            ncpoly_scalar(h, bad)
        for op in (lambda: x * bad, lambda: bad * x, lambda: x + bad, lambda: bad - x):
            with pytest.raises(TypeError):
                op()
        assert x != bad
    assert (x * 2).terms == (x + x).terms
