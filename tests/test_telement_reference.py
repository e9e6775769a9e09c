"""Differential tests of `tring.TElement`, integer numerators keyed by the
packed monomial key (Kronecker residues over fields of degree 2 or more),
against the Scalar coefficient element it replaced
(`telement_reference.py`).

Over the fields Q(q) with q of order n in {1, 2, 3, 4, 6}: sums,
differences, negation, products, powers, scaling, `inverse`, `==`, `hash`,
`to_text`, `terms` and `evaluate` must agree.  Elements are built by ring
arithmetic, so that they reach the comparisons with numerators that
canonical form still has to reduce (powers of q past n, and sums such as
1 + q^2 at n = 4 that vanish only modulo Phi_n).
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from telement_reference import ReferenceTElement, reference_element, reference_evaluate

from hopfgen.arith import make_field
from hopfgen.errors import NotInvertible, OutOfLocalization
from hopfgen.groups import cyclic
from hopfgen.hopf import group_algebra, taft
from hopfgen.tring import TElement, t_ring

ORDERS = (1, 2, 3, 4, 6)
# every variable of a group algebra is group-like, so any monomial is a
# unit; taft(n) has variables without inverse
RINGS = {n: t_ring(group_algebra(cyclic(3), make_field(n))) for n in ORDERS}
RINGS.update({f"taft{n}": t_ring(taft(n)) for n in (3, 4)})


@st.composite
def scalars(draw, field):
    """A nonzero scalar with small numerators over 1 to 3."""
    nums = draw(st.lists(st.integers(-3, 3), min_size=field.degree, max_size=field.degree))
    den = draw(st.integers(1, 3))
    return field.from_coeffs(Fraction(c, den) for c in nums) or field.one


@st.composite
def pairs_of(draw, ring):
    """A sum of at most four terms, each built by ring arithmetic as a
    scalar, times a power of q up to 2n, times variables; and the same sum
    of reference elements."""
    field, hopf = ring.field, ring.hopf
    q = ring.scalar(field.q)
    elem, ref = ring.zero(), reference_element(ring, {})
    for _ in range(draw(st.integers(0, 4))):
        c = draw(scalars(field))
        k = draw(st.integers(0, 2 * field.n))
        pairs = [
            (i, draw(st.integers(-2, 2) if i in ring.grouplike_set else st.integers(0, 2)))
            for i in draw(st.lists(st.integers(0, hopf.dim - 1), max_size=3, unique=True))
        ]
        term = ring.scalar(c) * q**k
        for i, e in pairs:
            term = term * ring.var(i, e)
        elem = elem + term
        ref = ref + reference_element(ring, {ring.monomial(pairs): c * field.q**k})
    return elem, ref


def same(got: TElement, want: ReferenceTElement) -> None:
    assert isinstance(got, TElement)
    assert got.is_zero == want.is_zero and bool(got) == bool(want)
    assert got.terms == want.terms
    assert got.to_text() == want.to_text()


def ring_and_data():
    return st.sampled_from(sorted(RINGS, key=str)), st.data()


@settings(max_examples=150, deadline=None)
@given(*ring_and_data())
def test_sums_products_and_powers_match_the_reference(name, data):
    ring = RINGS[name]
    (a, ra), (b, rb) = data.draw(pairs_of(ring)), data.draw(pairs_of(ring))
    c = data.draw(scalars(ring.field))
    # equality first, while the operands still hold their raw keys
    assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
    same(a + b, ra + rb)
    same(a - b, ra - rb)
    same(a - a, ra - ra)
    same(-a, -ra)
    same(a * b, ra * rb)
    same(b * a * b, rb * ra * rb)
    same(a * c, ra * c)
    same(c * a, c * ra)
    same(a / c, ra / c)
    for k in range(4):
        same(a**k, ra**k)
    same(a, ra)
    same(b, rb)


@settings(max_examples=150, deadline=None)
@given(*ring_and_data())
def test_equality_and_hash_match_the_reference(name, data):
    ring = RINGS[name]
    (a, ra), (b, rb) = data.draw(pairs_of(ring)), data.draw(pairs_of(ring))
    # two routes to one value: their keys differ until canonical form
    left, rleft = (a + b) * (a - b), (ra + rb) * (ra - rb)
    right, rright = a * a - b * b, ra * ra - rb * rb
    assert (left == right) == (rleft == rright)
    if left == right:
        assert hash(left) == hash(right)
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)
    assert (a == a + ring.zero()) and hash(a) == hash(a + ring.zero())
    for value in (0, 1, ring.field.q):
        assert (a == value) == (ra == value)


@settings(max_examples=100, deadline=None)
@given(*ring_and_data())
def test_inverse_and_evaluate_match_the_reference(name, data):
    ring = RINGS[name]
    field = ring.field
    a, ra = data.draw(pairs_of(ring))
    try:
        want = ra.inverse()
    except (NotInvertible, OutOfLocalization) as err:
        with pytest.raises(type(err), match=re.escape(str(err))):
            a.inverse()
    else:
        same(a.inverse(), want)
        same(a**-2, ra**-2)
        same(a / a, ra / ra)
    values = [data.draw(scalars(field)) for _ in range(ring.hopf.dim)]
    assert ring.evaluate(a, values) == reference_evaluate(ring, ra, values)


@pytest.mark.parametrize("n", ORDERS)
def test_the_powers_of_q_wrap_around(n):
    ring = RINGS[n]
    field = ring.field
    q = ring.scalar(field.q)
    x = ring.var(1)
    for k in range(3 * n):
        got = q**k * x
        assert got == ring.scalar(field.q_power(k)) * x
        assert got.terms == {ring.monomial([(1, 1)]): field.q_power(k)}
    assert q**n == ring.one() and hash(q**n) == hash(ring.one())


def test_a_sum_that_vanishes_only_modulo_phi_n_is_zero():
    ring = RINGS[4]
    q = ring.scalar(ring.field.q)
    for zero in (ring.one() + q**2, (ring.one() + q**2) * ring.var(2, -1), q**3 + q):
        assert zero.is_zero and not zero
        assert zero == ring.zero() and zero == 0
        assert hash(zero) == hash(ring.zero())
        assert zero.terms == {} and zero.to_text() == "0"
        assert ring.evaluate(zero, [ring.field.q] * 3) == ring.field.zero
    assert ring.one() + q**2 + ring.var(0) == ring.var(0)
    with pytest.raises(NotInvertible):
        (ring.one() + q**2).inverse()
