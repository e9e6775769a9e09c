"""Coordinate-ring layer: Laurent monomials, the convolution inverse of the
coordinate map, the induced coproduct, grading, and tensor arithmetic."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgen.arith import make_field, q_binomial
from hopfgen.cocycle import trivial_cocycle, twisted_algebra
from hopfgen.errors import DivisionByZero, NotInvertible, OutOfLocalization, RangeError
from hopfgen.groups import character_from_exponents, cyclic, direct_product, symmetric
from hopfgen.hopf import e_algebra, group_algebra, monomial_type_i, taft
from hopfgen.tring import (
    TensorH,
    TMonomial,
    t_inverse_map,
    t_ring,
    tensor_t_product,
    verify_t_inverse,
)


def klein_monomial():
    g = direct_product(cyclic(2), cyclic(2))
    f = make_field(2)
    chi = character_from_exponents(g, f, [0, 0, 1, 1])
    return monomial_type_i(g, g.index_of("(a,e)"), chi, f)


def _mon(ring, *pairs):
    return ring.monomial(pairs)


def _var_tensor(h, algebra, var_index, basis_index):
    """The coordinate variable t[var_index] tensor the basis element of
    `algebra`, h itself or a twist of it."""
    ring = t_ring(h)
    return TensorH.from_element(ring, algebra, ring.var(var_index), basis_index)


def test_grouplike_inverses_are_reciprocals():
    h = taft(3)
    ring = t_ring(h)
    for g in h.grouplikes:
        assert ring.t_inverse(g) == ring.var(g, -1)


def test_sweedler_inverse_of_nilpotent_generator():
    h = taft(2)
    ring = t_ring(h)
    iy, ix, i1 = h.index_of("y"), h.index_of("x"), h.unit_index
    expected = -(ring.var(iy) * ring.var(i1, -1) * ring.var(ix, -1))
    assert ring.t_inverse(iy) == expected


def test_taft3_inverse_of_mixed_monomial():
    h = taft(3)
    ring = t_ring(h)
    got = ring.t_inverse(h.index_of("x y"))
    expected = -ring.var(h.index_of("x y")) / (
        ring.var(h.index_of("x")) * ring.var(h.index_of("x^2"))
    )
    assert got == expected


@pytest.mark.parametrize(
    "make",
    [
        lambda: taft(3),
        lambda: e_algebra(2),
        lambda: group_algebra(symmetric(3)),
        klein_monomial,
    ],
)
def test_convolution_identities_hold_on_every_basis_element(make):
    h = make()
    rep = verify_t_inverse(h)
    assert rep.ok, [c.name for c in rep.failures()]
    assert len(rep.checks) == 2 * h.dim


def test_inverse_map_covers_whole_basis():
    h = e_algebra(2)
    tinv = t_inverse_map(h)
    assert len(tinv) == h.dim
    ring = t_ring(h)
    # the map is cached on the ring, so the same objects come back
    assert all(tinv[i] == ring.t_inverse(i) for i in range(h.dim))


def test_coproduct_matches_gaussian_binomial_formula():
    h = taft(3)
    ring = t_ring(h)
    for i in range(3):
        for j in range(3):
            idx = j * 3 + i
            got = ring.coproduct(ring.var(idx))
            expected = {}
            for r in range(j + 1):
                left = TMonomial([(r * 3 + i, 1)])
                right = TMonomial([((j - r) * 3 + (i + r) % 3, 1)])
                expected[(left, right)] = q_binomial(j, r, h.field)
            assert got == expected


def test_coproduct_of_inverted_grouplike_is_diagonal():
    h = taft(2)
    ring = t_ring(h)
    ix = h.index_of("x")
    got = ring.coproduct(ring.var(ix, -1))
    key = (_mon(ring, (ix, -1)), _mon(ring, (ix, -1)))
    assert got == {key: h.field.one}


def test_coproduct_cancels_exponents_across_legs():
    h = taft(2)
    ring = t_ring(h)
    ix, iy = h.index_of("x"), h.index_of("y")
    got = ring.coproduct(ring.var(ix, -1) * ring.var(iy))
    one = h.field.one
    expected = {
        (_mon(ring, (ix, -1), (h.unit_index, 1)), _mon(ring, (ix, -1), (iy, 1))): one,
        (_mon(ring, (ix, -1), (iy, 1)), TMonomial(())): one,
    }
    assert got == expected


def test_coproduct_of_square_collects_cross_terms():
    h = taft(2)
    ring = t_ring(h)
    i1, ix, iy = h.unit_index, h.index_of("x"), h.index_of("y")
    got = ring.coproduct(ring.var(iy) * ring.var(iy))
    f = h.field
    expected = {
        (_mon(ring, (i1, 2)), _mon(ring, (iy, 2))): f.one,
        (_mon(ring, (i1, 1), (iy, 1)), _mon(ring, (ix, 1), (iy, 1))): f.scalar(2),
        (_mon(ring, (iy, 2)), _mon(ring, (ix, 2))): f.one,
    }
    assert got == expected


def _triple(ring, pairs, left_first):
    out = {}
    for (m1, m2), c in pairs.items():
        inner = ring.coproduct(ring.element({m1 if left_first else m2: ring.field.one}))
        for (a, b), cc in inner.items():
            key = (a, b, m2) if left_first else (m1, a, b)
            cur = out.get(key, ring.field.zero)
            cur = cur + c * cc
            if cur.is_zero:
                out.pop(key, None)
            else:
                out[key] = cur
    return out


def test_coproduct_coassociative_on_taft3_generators():
    h = taft(3)
    ring = t_ring(h)
    for i in range(h.dim):
        d = ring.coproduct(ring.var(i))
        assert _triple(ring, d, True) == _triple(ring, d, False)


taft3_monomials = st.builds(
    dict,
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(1, 2)),
        max_size=3,
        unique_by=lambda p: p[0],
    ),
).map(lambda d: list(d.items()))

taft3_gl_exps = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-2, 2)),
    max_size=2,
    unique_by=lambda p: p[0],
)


@given(taft3_monomials, taft3_gl_exps, taft3_monomials)
@settings(max_examples=30, deadline=None)
def test_coproduct_is_multiplicative(pos_a, gl_a, pos_b):
    h = taft(3)
    ring = t_ring(h)
    a = ring.element({ring.monomial(pos_a + gl_a): h.field.one})
    b = ring.element({ring.monomial(pos_b): h.field.one})
    left = ring.coproduct(a * b)
    right = tensor_t_product(ring.coproduct(a), ring.coproduct(b))
    assert left == right


@given(taft3_monomials, taft3_gl_exps, taft3_monomials)
@settings(max_examples=40, deadline=None)
def test_degree_is_a_monoid_homomorphism(pos_a, gl_a, pos_b):
    h = taft(3)
    ring = t_ring(h)
    ma = ring.monomial(pos_a + gl_a)
    mb = ring.monomial(pos_b)
    ab = ring.grading_group()
    assert ring.hab_degree(ma.mul(mb)) == ab.add(ring.hab_degree(ma), ring.hab_degree(mb))


@given(taft3_monomials, taft3_gl_exps, taft3_monomials)
@settings(max_examples=30, deadline=None)
def test_products_stay_inside_the_localization(pos_a, gl_a, pos_b):
    h = taft(3)
    ring = t_ring(h)
    m = ring.monomial(pos_a + gl_a).mul(ring.monomial(pos_b))
    for i, e in m.exps:
        assert e >= 0 or i in ring.grouplike_set
    # re-validation accepts the product
    assert ring.monomial(m.exps) == m


def test_negative_exponent_on_nilpotent_rejected():
    h = taft(2)
    ring = t_ring(h)
    with pytest.raises(OutOfLocalization):
        ring.monomial([(h.index_of("y"), -1)])
    with pytest.raises(OutOfLocalization):
        ring.var(h.index_of("y")).inverse()
    with pytest.raises(RangeError):
        ring.monomial([(99, 1)])


def test_inverse_requires_a_single_term():
    h = taft(2)
    ring = t_ring(h)
    mixed = ring.one() + ring.var(h.index_of("x"))
    with pytest.raises(NotInvertible):
        mixed.inverse()


def test_degree_examples():
    h3 = taft(3)
    r3 = t_ring(h3)
    m = r3.monomial([(h3.index_of("x^2 y"), 1), (h3.index_of("x"), -3)])
    assert r3.hab_degree(m) == (0,)
    assert r3.hab_degree(r3.monomial([(h3.index_of("y"), 1)])) == (1,)
    assert r3.hab_degree(TMonomial(())) == (0,)

    e2 = e_algebra(2)
    r2 = t_ring(e2)
    m2 = r2.monomial([(e2.index_of("x"), 1), (e2.index_of("x y_{1,2}"), 1)])
    assert r2.hab_degree(m2) == (0,)


def test_evaluate_substitutes_and_inverts():
    h = taft(3)
    ring = t_ring(h)
    f = h.field
    vals = [f.one for _ in range(h.dim)]
    vals[h.index_of("x")] = f.q
    elem = ring.var(h.index_of("x"), -2) + ring.var(h.unit_index)
    assert ring.evaluate(elem, vals) == f.q.inverse() ** 2 + f.one
    vals[h.unit_index] = f.zero
    with pytest.raises(DivisionByZero):
        ring.evaluate(ring.var(h.unit_index, -1), vals)


def test_tensor_square_of_grouplike_slice_is_coinvariant():
    h = taft(2)
    xi = _var_tensor(h, h, h.index_of("x"), h.index_of("x"))
    sq = xi * xi
    ring = t_ring(h)
    assert sq == TensorH.from_element(ring, h, ring.var(h.index_of("x")) ** 2, h.unit_index)
    assert sq.is_coinvariant()
    assert sq.is_central()


def test_tensor_product_picks_up_commutation_constants():
    h = taft(3)
    xi = _var_tensor(h, h, h.index_of("x"), h.index_of("x"))
    eta = _var_tensor(h, h, h.index_of("y"), h.index_of("y"))
    assert eta * xi == (xi * eta).scale(h.field.q)


def test_tensor_nilpotents_square_to_zero():
    h = taft(2)
    eta = _var_tensor(h, h, h.unit_index, h.index_of("y"))
    assert (eta * eta).is_zero
    assert (eta**2).is_zero
    assert eta**0 == TensorH.zero(t_ring(h), h).one()


def test_tensor_unit_is_central_and_coinvariant():
    h = e_algebra(2)
    one = TensorH.zero(t_ring(h), h).one()
    assert one.is_central()
    assert one.is_coinvariant()


def test_tensor_central_but_not_coinvariant():
    h = e_algebra(2)
    z = _var_tensor(h, h, h.unit_index, h.index_of("y_{1,2}"))
    assert z.is_central()
    assert not z.is_coinvariant()
    w = _var_tensor(h, h, h.unit_index, h.index_of("y_1"))
    assert not w.is_central()


def test_tensor_ops_over_twisted_algebra():
    h = taft(2)
    tw = twisted_algebra(h, trivial_cocycle(h))
    xi = _var_tensor(h, tw, h.index_of("x"), h.index_of("x"))
    assert (xi * xi).is_coinvariant()
    assert xi.algebra is tw


def test_tensor_operands_must_share_the_algebra():
    ha, hb = taft(2), taft(2)
    a = TensorH.zero(t_ring(ha), ha).one()
    b = TensorH.zero(t_ring(hb), hb).one()
    with pytest.raises(RangeError):
        a + b  # same family, different instances


def test_ring_cache_is_per_instance():
    h = taft(2)
    assert t_ring(h) is t_ring(h)
    assert t_ring(taft(2)) is not t_ring(h)


def test_text_and_terms_round_trip():
    h = taft(3)
    ring = t_ring(h)
    f = h.field
    m = ring.monomial([(h.index_of("x^2 y"), 1), (h.index_of("x"), -3)])
    el = ring.element({m: f.scalar(3) / f.scalar(2)})
    assert el.to_text() == "3/2*t[x]^-3*t[x^2 y]"
    assert ring.zero().to_text() == "0"
    assert ring.one().to_text() == "1"
    diff = ring.var(h.unit_index) - ring.var(h.index_of("x"))
    assert diff.to_text() == "t[1] - t[x]"
    for elem in (el, diff, ring.zero(), ring.t_inverse(h.index_of("x y"))):
        assert ring.element(elem.terms) == elem


def test_tensor_text_is_readable():
    h = taft(2)
    xi = _var_tensor(h, h, h.index_of("x"), h.index_of("x"))
    assert (xi * xi).to_text() == "t[x]^2 (x) 1"


def _scaling_cases():
    """(element, scalar) pairs over taft(3), e(2) and the Klein monomial
    algebra: several terms, negative exponents, integer, Fraction and
    genuinely cyclotomic scalars, and zero."""
    cases = []
    for h in (taft(3), e_algebra(2), klein_monomial()):
        ring = t_ring(h)
        f = h.field
        elems = [ring.t_inverse(i) for i in range(h.dim)]
        elems.append(elems[-1] * elems[1] + ring.var(h.unit_index, 2) - ring.one())
        scalars = [f.zero, f.one, f.q, f.scalar(Fraction(-3, 4)), f.one + f.q * 2, 5, Fraction(2, 7)]
        cases.extend((e, s) for e in elems for s in scalars)
    return cases


def test_scaling_by_a_scalar_matches_the_general_product():
    for elem, s in _scaling_cases():
        ring = elem.ring
        general = elem * ring.scalar(ring.field.scalar(s))
        for got in (elem * s, s * elem):
            assert list(got.terms.items()) == list(general.terms.items())
            assert got.ring is ring
        if s:
            inverse = ring.scalar(ring.field.scalar(s).inverse())
            assert list((elem / s).terms.items()) == list((elem * inverse).terms.items())
        else:
            with pytest.raises(DivisionByZero):
                elem / s


def test_scaling_does_not_multiply_monomials(monkeypatch):
    h = taft(3)
    ring = t_ring(h)
    elem = ring.t_inverse(h.index_of("x y"))
    want = elem * ring.scalar(h.field.q)

    def refuse(self, other):
        raise AssertionError("monomial product while scaling")

    monkeypatch.setattr(TMonomial, "mul", refuse)
    assert elem * h.field.q == want
    assert (elem / h.field.q) * h.field.q == elem


def test_coordinate_ring_refuses_floats():
    h = taft(3)
    ring = t_ring(h)
    x = ring.var(h.index_of("x"))
    for bad in (0.5, 1e-3, Decimal("0.5"), complex(1, 0)):
        for op in (
            lambda: x * bad,
            lambda: bad * x,
            lambda: x / bad,
            lambda: x + bad,
            lambda: bad - x,
        ):
            with pytest.raises(TypeError):
                op()
        assert x != bad
    tensor = _var_tensor(h, h, h.index_of("x"), h.index_of("y"))
    with pytest.raises(RangeError):
        tensor * 0.5
    with pytest.raises(RangeError):
        0.5 * tensor
