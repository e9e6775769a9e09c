"""Cyclotomic field arithmetic.

Expected values were fixed by independent oracles before the implementation
was written: cyclotomic polynomials are validated by multiplying the full
divisor product back to X^n - 1, and inverses by multiplying back to 1.
"""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgen.arith import (
    cyclotomic_polynomial,
    format_scalar,
    make_field,
    q_binomial,
    scalar_from_strings,
    scalar_to_strings,
)
from hopfgen.errors import DivisionByZero, RangeError
from scalar_reference import q_factorial, q_int


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# frozen small table, checked by hand against the divisor-product oracle below
KNOWN_CYCLOTOMIC = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_known_values():
    for n, coeffs in KNOWN_CYCLOTOMIC.items():
        assert cyclotomic_polynomial(n) == coeffs


def test_cyclotomic_product_oracle():
    # prod over d | n of Phi_d must equal X^n - 1
    for n in range(1, 25):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected


def test_field_degenerate_cases():
    f1 = make_field(1)
    assert f1.degree == 1 and f1.q == 1
    f2 = make_field(2)
    assert f2.degree == 1 and f2.q == -1
    f3 = make_field(3)
    assert f3.degree == 2
    assert f3.modulus == (1, 1, 1)


def test_make_field_cached_and_validated():
    assert make_field(5) is make_field(5)
    with pytest.raises(RangeError):
        make_field(0)


def test_basic_ops_in_q_zeta3():
    F = make_field(3)
    q = F.q
    assert q**3 == F.one
    assert q**2 + q + 1 == F.zero
    assert q * q == -1 - q


def test_inverse_examples():
    F = make_field(3)
    q = F.q
    assert F.one.inverse() == F.one
    assert q.inverse() == q**2
    # multiply-back oracle pins the value: (1+q)(-q) = -q - q^2 = 1
    inv = (F.one + q).inverse()
    assert inv * (F.one + q) == F.one
    assert inv == -q
    with pytest.raises(DivisionByZero):
        F.zero.inverse()


def test_division_and_pow():
    F = make_field(4)
    q = F.q
    assert (q / q) == F.one
    assert q**-1 == q**3
    assert (F.scalar(2) / 3) == Fraction(2, 3)


def test_q_int_examples():
    F = make_field(3)
    assert q_int(0, F) == F.zero
    assert q_int(1, F) == F.one
    assert q_int(2, F) == F.one + F.q
    assert q_int(3, F) == F.zero
    with pytest.raises(RangeError):
        q_int(-1, F)


def test_q_binomial_examples():
    F = make_field(3)
    assert q_binomial(2, 1, F) == F.one + F.q
    for j in range(F.n):
        assert q_binomial(j, 0, F) == F.one
        assert q_binomial(j, j, F) == F.one
    for bad in [(1, 2), (2, -1), (3, 1), (-1, 0)]:
        with pytest.raises(RangeError):
            q_binomial(bad[0], bad[1], F)


def test_q_binomial_factorial_identity():
    for n in (3, 4, 5, 8):
        F = make_field(n)
        for j in range(n):
            for r in range(j + 1):
                lhs = q_binomial(j, r, F) * q_factorial(r, F) * q_factorial(j - r, F)
                assert lhs == q_factorial(j, F)


def test_pascal_identity():
    for n in (3, 4, 5, 6):
        F = make_field(n)
        for j in range(1, n):
            for r in range(1, j):
                lhs = q_binomial(j, r, F)
                rhs = F.q**r * q_binomial(j - 1, r, F) + q_binomial(j - 1, r - 1, F)
                assert lhs == rhs


@st.composite
def scalars(draw, field):
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-30, max_value=30, max_denominator=9),
            min_size=field.degree,
            max_size=field.degree,
        )
    )
    return field.from_coeffs(coeffs)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 3, 4, 6, 12]))
def test_field_axioms_on_random_triples(data, n):
    F = make_field(n)
    a = data.draw(scalars(F))
    b = data.draw(scalars(F))
    c = data.draw(scalars(F))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not a.is_zero:
        assert a * a.inverse() == F.one
        assert a.inverse() * a == F.one


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5, 8]))
def test_serialization_round_trip(data, n):
    F = make_field(n)
    a = data.draw(scalars(F))
    assert scalar_from_strings(F, scalar_to_strings(a)) == a


def test_format_scalar():
    F = make_field(3)
    assert format_scalar(F.zero) == "0"
    assert format_scalar(F.one + F.q) == "1 + q"
    assert format_scalar(-F.q) == "-q"


@pytest.mark.parametrize("bad", [0.1, 2.0, float("nan"), Decimal("0.5"), complex(1, 0), "1/2", None])
def test_field_accepts_only_exact_scalars(bad):
    F = make_field(3)
    with pytest.raises(RangeError):
        F.scalar(bad)
    with pytest.raises(RangeError):
        F.from_coeffs([1, bad])
    if isinstance(bad, (float, Decimal, complex)):
        for op in (lambda: F.q * bad, lambda: bad * F.q, lambda: F.q + bad, lambda: bad / F.q):
            with pytest.raises(TypeError):
                op()
        assert F.q != bad


def test_field_accepts_ints_fractions_and_its_own_scalars():
    F = make_field(3)
    assert F.scalar(True) == F.one and F.scalar(True).num == (1, 0)
    assert F.scalar(Fraction(6, 4)).coeffs == (Fraction(3, 2), Fraction(0))
    assert F.scalar(F.q) is F.q
    with pytest.raises(RangeError):
        F.scalar(make_field(6).q)
