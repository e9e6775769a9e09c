"""Exact linear algebra, checked against sympy as a test-only oracle."""

import random
from fractions import Fraction

import pytest

from hopfgen.arith import make_field
from hopfgen.linalg import scalar_det


def _random_matrix(rng, field, size, singular):
    def entry():
        return field.from_coeffs(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(field.degree)
        )

    rows = [[entry() for _ in range(size)] for _ in range(size)]
    if singular and size == 1:
        rows = [[field.zero]]
    elif singular:
        # the last row is a combination of the first and the second-to-last
        a, b = entry(), entry()
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
    return rows


@pytest.mark.parametrize("n", [1, 3])
def test_scalar_det_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = make_field(n)
    q = sympy.Symbol("q")
    ring = sympy.QQ[q]
    modulus = sum(sympy.Rational(c) * q**k for k, c in enumerate(field.modulus))

    def to_sympy(s):
        return sum(sympy.Rational(c) * q**k for k, c in enumerate(s.coeffs))

    rng = random.Random(1000 + n)
    seen_singular = seen_regular = 0
    for size in range(1, 7):
        for trial in range(4):
            rows = _random_matrix(rng, field, size, singular=trial % 2 == 1)
            got = scalar_det(rows, field)
            matrix = sympy.Matrix([[to_sympy(s) for s in row] for row in rows])
            want = ring.to_sympy(DomainMatrix.from_Matrix(matrix).convert_to(ring).det())
            want = sympy.rem(want, modulus, q)
            assert sympy.expand(to_sympy(got) - want) == 0, (size, trial)
            if got.is_zero:
                seen_singular += 1
            else:
                seen_regular += 1
    assert seen_singular >= 12 and seen_regular >= 1
