"""Differential tests: the integer-backed `hopfgen.arith.Scalar` against the
Fraction-backed scalars it replaced (`scalar_reference.py`), over
Q(q) for n = 1..12, with integer and non-integer coefficients.  The norm
inverse is compared with the reference's extended Euclid at every order
that `HopfAlgebra.from_json` admits, and the q-Pascal binomials with the
product-over-factorial formula for every order up to 16.

Every operation must give the same Fraction coefficients, the same truth
value and the same text, and a hash equal to that of the same value built
from its coefficients; every result must be in lowest terms.  A hash
builds no Fraction, and a scalar with a rational value hashes as the equal
int or Fraction.  Sympy is an independent oracle for the product reduction modulo
the cyclotomic polynomial, and the sort-free monomial product is checked
against the sort-and-sum construction it replaced.
"""

import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest
import scalar_reference as ref
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfgen.arith import (
    Scalar,
    format_scalar,
    make_field,
    q_binomial,
    q_binomial_rows,
    scalar_from_strings,
    scalar_to_strings,
)
from hopfgen.errors import DivisionByZero
from hopfgen.hopf import MAX_DIM
from hopfgen.tring import TMonomial

ORDERS = st.integers(1, 12)

# mostly small values and zeros, so that single-term scalars, sums that
# cancel and gcds above 1 all come up; now and then a large numerator
COEFFS = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.integers(-(10**15), 10**15),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)
INT_COEFFS = st.one_of(st.just(0), st.integers(-6, 6), st.integers(-(10**15), 10**15))
OPERANDS = st.one_of(st.integers(-7, 7), st.fractions(min_value=-9, max_value=9, max_denominator=6))


@st.composite
def scalar_pairs(draw, n, integral=None, length=None):
    """The same value as (hopfgen Scalar, reference Scalar), built from a
    coefficient list of the field's degree (or of the given length)."""
    if integral is None:
        integral = draw(st.booleans())
    d = make_field(n).degree
    size = d if length is None else length
    cs = draw(st.lists(INT_COEFFS if integral else COEFFS, min_size=size, max_size=size))
    return make_field(n).from_coeffs(cs), ref.make_field(n).from_coeffs(cs)


def assert_same(new, old):
    assert isinstance(new, Scalar)
    assert new.coeffs == old.coeffs
    assert all(type(c) is Fraction for c in new.coeffs)
    assert hash(new) == hash(new.field.from_coeffs(old.coeffs))
    assert bool(new) is bool(old)
    assert new.is_zero is old.is_zero
    assert format_scalar(new) == ref.format_scalar(old)
    assert scalar_to_strings(new) == ref.scalar_to_strings(old)
    assert_normalised(new)


def assert_normalised(s):
    assert len(s.num) == s.field.degree
    assert all(type(c) is int for c in s.num) and type(s.den) is int
    assert s.den > 0
    assert gcd(s.den, *s.num) == 1
    if not any(s.num):
        assert s.den == 1


@settings(max_examples=200, deadline=None)
@given(st.data(), ORDERS)
def test_binary_operations_match_the_reference(data, n):
    a, ra = data.draw(scalar_pairs(n))
    b, rb = data.draw(scalar_pairs(n))
    assert_same(a, ra)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(-a, -ra)
    assert_same(a * b, ra * rb)
    assert (a == b) is (ra == rb)
    assert (a == a.field.from_coeffs(a.coeffs)) and hash(a) == hash(a.field.from_coeffs(a.coeffs))
    if rb:
        assert_same(b.inverse(), rb.inverse())
        assert_same(a / b, ra / rb)
    else:
        with pytest.raises(DivisionByZero):
            b.inverse()
        with pytest.raises(DivisionByZero):
            a / b


@settings(max_examples=200, deadline=None)
@given(st.data(), ORDERS, OPERANDS)
def test_mixed_operands_match_the_reference(data, n, k):
    a, ra = data.draw(scalar_pairs(n))
    assert_same(a + k, ra + k)
    assert_same(k + a, k + ra)
    assert_same(a - k, ra - k)
    assert_same(k - a, k - ra)
    assert_same(a * k, ra * k)
    assert_same(k * a, k * ra)
    assert (a == k) is (ra == k)
    assert_same(a.field.scalar(k), ra.field.scalar(k))
    if k:
        assert_same(a / k, ra / k)
    if ra:
        assert_same(k / a, k / ra)


@settings(max_examples=150, deadline=None)
@given(st.data(), ORDERS, st.integers(-4, 7))
def test_powers_match_the_reference(data, n, k):
    a, ra = data.draw(scalar_pairs(n))
    if k < 0 and not ra:
        with pytest.raises(DivisionByZero):
            a**k
        return
    assert_same(a**k, ra**k)
    assert_same(a.field.q_power(k), ra.field.q_power(k))


@settings(max_examples=150, deadline=None)
@given(st.data(), ORDERS)
def test_from_coeffs_of_any_length_matches_the_reference(data, n):
    d = make_field(n).degree
    length = data.draw(st.integers(0, 3 * d + 2))
    a, ra = data.draw(scalar_pairs(n, length=length))
    assert_same(a, ra)
    assert_same(scalar_from_strings(a.field, scalar_to_strings(a)), ra)


@settings(max_examples=100, deadline=None)
@given(st.data(), ORDERS)
def test_rational_matches_the_reference(data, n):
    c = data.draw(COEFFS)
    a, ra = make_field(n).scalar(c), ref.make_field(n).scalar(c)
    assert_same(a, ra)
    # a rational value leaves as a Fraction in the first coefficient
    head, *rest = a.coeffs
    assert head == ra.rational() == c and not any(rest)
    assert type(head) is Fraction


def test_field_constants_match_the_reference():
    for n in range(1, 13):
        f, rf = make_field(n), ref.make_field(n)
        assert f.degree == rf.degree
        assert f.modulus == rf.modulus
        assert f._red == rf._red
        assert all(type(c) is int for row in f._red for c in row)
        for s, rs in ((f.zero, rf.zero), (f.one, rf.one), (f.q, rf.q)):
            assert_same(s, rs)


def test_integral_hash_is_the_hash_of_the_numerators():
    f = make_field(5)
    s = f.from_coeffs([3, 0, -2, 7])
    assert s.den == 1
    assert hash(s) == hash((5, s.num)) == hash((5, s.coeffs))


@contextmanager
def no_fractions():
    """A context in which building any Fraction fails the test."""

    def forbid(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", forbid)
        yield


# orders of the fields of degree 1, 2, 4 and 6, every degree up to 6
HASH_ORDERS = st.sampled_from([1, 2, 3, 4, 6, 5, 8, 10, 12, 7, 9])


@settings(max_examples=150, deadline=None)
@given(st.data(), HASH_ORDERS)
def test_fractional_hash_is_consistent_and_builds_no_fraction(data, n):
    field = make_field(n)
    cs = data.draw(st.lists(COEFFS, min_size=field.degree, max_size=field.degree))
    den = data.draw(st.integers(2, 30))
    a = field.from_coeffs([Fraction(c, den) for c in cs])
    assume(a.den != 1)
    b = field.from_coeffs(data.draw(st.lists(COEFFS, min_size=field.degree, max_size=field.degree)))
    # the same values reached by other routes, each in lowest terms
    pairs = [
        (a, field.from_coeffs(a.coeffs)),
        (a + b, b + a),
        (a * b, b * a),
        ((a + b) - b, a),
        (a * 3 / 3, a),
    ]
    if b:
        pairs.append(((a * b) / b, a))
    with no_fractions():
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)


RATIONALS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
    # denominators at and past the modulus of the numeric hash, and
    # multiples of it, which Python hashes as infinity
    st.builds(
        Fraction,
        st.integers(-(10**20), 10**20),
        st.sampled_from([2, 7, sys.hash_info.modulus, 3 * sys.hash_info.modulus,
                         sys.hash_info.modulus + 1, 10**30 + 1]),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), RATIONALS)
def test_a_rational_scalar_hashes_as_the_equal_int_or_fraction(n, r):
    field = make_field(n)
    s = field.scalar(r)
    with no_fractions():
        assert s == r and hash(s) == hash(r)
        assert {r: "value"}.get(s) == "value"
    if r.denominator == 1:
        assert hash(s) == hash(int(r))


@settings(max_examples=100, deadline=None)
@given(st.data(), ORDERS)
def test_product_reduction_matches_sympy(data, n):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    a, _ = data.draw(scalar_pairs(n))
    b, _ = data.draw(scalar_pairs(n))

    def poly(s):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(s.coeffs))

    rem = sympy.Poly(sympy.rem(sympy.expand(poly(a) * poly(b)), sympy.cyclotomic_poly(n, x), x), x)
    want = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    want += [Fraction(0)] * (a.field.degree - len(want))
    assert list((a * b).coeffs) == want


def inverse_inputs(n):
    """A seeded dense element with integer coefficients, one with
    fractional coefficients up to order 16 (the reference is slowest on
    those), and sparse ones: 1 + q, q^3 - 2, a power of q and
    3 - (5/2) q^(d-1)."""
    d = make_field(n).degree
    rng = random.Random(n)
    yield [rng.choice([c for c in range(-9, 10) if c]) for _ in range(d)]
    if n <= 16:
        yield [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(d)]
    yield [1, 1]
    yield [-2, 0, 0, 1]
    yield [0] * (d - 1) + [1]
    yield [3] + [0] * (d - 2) + [Fraction(-5, 2)]


@pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
def test_norm_inverse_matches_the_euclidean_reference(n):
    f, rf = make_field(n), ref.make_field(n)
    for cs in inverse_inputs(n):
        a = f.from_coeffs(cs)
        if a.is_zero:
            continue
        # the reference scalar is built from the reduced coefficients: its
        # from_coeffs runs a Horner scheme too slow for degree 60
        ra = ref.Scalar(rf, a.coeffs)
        assert_same(a.inverse(), ra.inverse())
        assert a * a.inverse() == f.one


def test_q_pascal_binomials_match_the_factorial_formula():
    # the formula over the integer scalars, whose inverse the test above
    # checks; over the Fraction scalars for the smaller orders
    for n in range(1, 17):
        f, rf = make_field(n), ref.make_field(n)
        rows = q_binomial_rows(n, f)
        assert [len(row) for row in rows] == list(range(1, n + 1))
        for j in range(n):
            for r in range(j + 1):
                want = ref.q_binomial(j, r, f)
                assert rows[j][r] == want
                assert q_binomial(j, r, f) == want
                if n <= 8:
                    assert_same(want, ref.q_binomial(j, r, rf))


EXPS = st.lists(
    st.tuples(st.integers(0, 9), st.integers(-3, 3)), max_size=6
).map(lambda pairs: TMonomial(pairs))


@settings(max_examples=300, deadline=None)
@given(EXPS, EXPS)
def test_monomial_merge_matches_from_pairs(a, b):
    got = a.mul(b)
    want = TMonomial(a.exps + b.exps)
    assert got == want
    assert got.exps == want.exps
    assert all(e for _, e in got.exps)
    assert [i for i, _ in got.exps] == sorted({i for i, _ in got.exps})
