"""Exact linear algebra, checked against sympy as a test-only oracle, and
the sparse accumulation kernel, checked against the accumulator loop it
replaced."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgen.arith import make_field
from hopfgen.errors import RangeError
from hopfgen.hopf import taft
from hopfgen.identities import NCPoly
from hopfgen.linalg import collect, scalar_det
from hopfgen.tring import TensorH, t_ring


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


# --- the accumulation kernel --------------------------------------------------


def parent_accumulate(pairs, base=None):
    """Reference: the loop `collect` replaced, kept as it was in
    `TElement.__add__` (sum into a copy of the left operand) followed by
    the zero filter of `TRing.element`."""
    acc = dict(base) if base is not None else {}
    for m, c in pairs:
        cur = acc.get(m)
        acc[m] = c if cur is None else cur + c
    return {m: c for m, c in acc.items() if not c.is_zero}


def scalars(field):
    rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.lists(rational, min_size=field.degree, max_size=field.degree).map(
        field.from_coeffs
    )


@st.composite
def cancelling_pairs(draw, field, keys):
    """(key, coeff) pairs with repeated keys, zero coefficients, and some
    coefficients repeated with the opposite sign so that their sums cancel."""
    pairs = draw(st.lists(st.tuples(keys, scalars(field)), max_size=12))
    cancel = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return draw(st.permutations(pairs + [(k, -c) for k, c in cancel]))


def sweep_everything_collect(pairs, base=None):
    """Reference: `collect` as it was before it swept only the keys that
    `pairs` touch, testing every entry of the result for zero."""
    out = {} if base is None else dict(base)
    get = out.get
    for k, c in pairs:
        cur = get(k)
        out[k] = c if cur is None else cur + c
    for k in [k for k, c in out.items() if not c]:
        del out[k]
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 3, 4]), with_base=st.booleans())
def test_collect_matches_the_parent_accumulator(data, n, with_base):
    field = make_field(n)
    keys = st.integers(0, 5)
    pairs = data.draw(cancelling_pairs(field, keys))
    # collect's precondition: a base holds no zero
    base = parent_accumulate(data.draw(cancelling_pairs(field, keys))) if with_base else None
    frozen = dict(base) if base is not None else None
    got = collect(iter(pairs), base)
    want = parent_accumulate(pairs, base)
    assert list(got.items()) == list(want.items())
    assert all(not c.is_zero for c in got.values())
    assert base == frozen


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 3, 4]), keys=st.integers(1, 40))
def test_collect_matches_the_sweep_everything_reference(data, n, keys):
    """Long bases and few pairs, integer or Scalar coefficients: the same
    items in the same order as sweeping every entry."""
    field = make_field(n)
    key = st.integers(0, keys)
    if data.draw(st.booleans()):
        coeffs = st.integers(-2, 2)
        pairs = data.draw(st.lists(st.tuples(key, coeffs), max_size=6))
        base = {k: c for k, c in data.draw(st.dictionaries(key, coeffs)).items() if c}
    else:
        pairs = data.draw(cancelling_pairs(field, key))
        base = parent_accumulate(data.draw(cancelling_pairs(field, key)))
    if base:
        # pairs that cancel entries of the base
        cancel = data.draw(st.lists(st.sampled_from(sorted(base)), max_size=4))
        pairs = pairs + [(k, -base[k]) for k in cancel]
    pairs = data.draw(st.permutations(pairs))
    for b in (base, None):
        got = collect(iter(pairs), b)
        assert list(got.items()) == list(sweep_everything_collect(pairs, b).items())
        assert all(got.values())


def test_collect_drops_cancelled_and_zero_terms():
    f = make_field(3)
    q = f.q
    got = collect([(1, q), (2, f.one), (1, -q), (3, f.zero), (4, -q)], base={4: q, 2: q})
    assert got == {2: q + f.one}


def test_collect_drops_ring_values_that_cancel():
    ring = t_ring(taft(3))
    x, y = ring.var(1), ring.var(2)
    assert collect([("a", x + y), ("a", -x), ("b", y), ("a", -y), ("b", -y)]) == {}


# --- element arithmetic on top of the kernel ----------------------------------

H = taft(3)
RING = t_ring(H)
Y = H.index_of("y")
MONOMIALS = [RING.monomial([(1, a), (Y, b)]) for a in (-1, 0, 1) for b in (0, 1, 2)]
SLOTS = (0, 1, Y, H.index_of("x y"))


def _telement(terms):
    return RING.element(terms)


def _tensor(terms):
    return TensorH(RING, H, terms)


def _ncpoly(terms):
    return NCPoly(H, terms)


def _tensor_products(a, b):
    return (
        ((m1.mul(m2), k), c1 * c2 * c)
        for (m1, i), c1 in a.items()
        for (m2, j), c2 in b.items()
        for k, c in H.mult.get((i, j), ())
    )


KINDS = {
    "TElement": (
        _telement,
        st.sampled_from(MONOMIALS),
        lambda a, b: ((m1.mul(m2), c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items()),
    ),
    "TensorH": (
        _tensor,
        st.tuples(st.sampled_from(MONOMIALS), st.sampled_from(SLOTS)),
        _tensor_products,
    ),
    "NCPoly": (
        _ncpoly,
        st.lists(st.sampled_from(SLOTS), max_size=2).map(tuple),
        lambda a, b: ((w1 + w2, c1 * c2) for w1, c1 in a.items() for w2, c2 in b.items()),
    ),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_element_arithmetic_stores_no_zeros_and_matches_the_reference(kind, data):
    make, keys, products = KINDS[kind]
    a_terms = parent_accumulate(data.draw(cancelling_pairs(H.field, keys)))
    # b repeats some terms of a with the opposite sign, so a + b cancels
    cancel = []
    if a_terms:
        cancel = data.draw(st.lists(st.sampled_from(sorted(a_terms, key=repr)), max_size=3))
    b_terms = parent_accumulate(
        data.draw(cancelling_pairs(H.field, keys)) + [(k, -a_terms[k]) for k in cancel]
    )
    s = data.draw(scalars(H.field))
    a, b = make(a_terms), make(b_terms)
    results = {
        "+": (a + b, parent_accumulate(b_terms.items(), a_terms)),
        "-": (a - b, parent_accumulate(((k, -c) for k, c in b_terms.items()), a_terms)),
        "*": (a * b, parent_accumulate(products(a_terms, b_terms))),
        "scalar": (a * s, parent_accumulate((k, c * s) for k, c in a_terms.items())),
    }
    if kind == "TensorH":
        t = _telement({m: c for (m, _), c in b_terms.items()})
        want = parent_accumulate(
            ((m1.mul(m2), i), c1 * c2)
            for (m1, i), c1 in a_terms.items()
            for m2, c2 in t.terms.items()
        )
        results["scale"] = (a.scale(t), want)
    for op, (got, want) in results.items():
        assert all(not c.is_zero for c in got.terms.values()), op
        assert got.terms == want, op


def _small_element(data, kind):
    make, keys, _ = KINDS[kind]
    return make(parent_accumulate(data.draw(st.lists(st.tuples(keys, scalars(H.field)), max_size=4))))


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_element_types_obey_the_laws_of_a_linear_space_and_a_ring(kind, data):
    a, b, c = (_small_element(data, kind) for _ in range(3))
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert not (a - a) and (a - a).is_zero
    assert a * (b + c) == a * b + a * c
    assert (b + c) * a == b * a + c * a
    power = a.one()
    for k in range(6):
        assert a**k == power, k
        power = power * a
    assert a.scaled(H.field.zero).is_zero
    assert a.scaled(H.field.one) is a


# (constructor over a given instance, one key) per element type
OWNED = {
    "TElement": (lambda h, terms: t_ring(h).element(terms), MONOMIALS[4]),
    "TensorH": (lambda h, terms: TensorH(t_ring(h), h, terms), (MONOMIALS[4], Y)),
    "NCPoly": (NCPoly, (Y,)),
}


@pytest.mark.parametrize("kind", sorted(OWNED))
def test_operands_over_different_instances_do_not_mix(kind):
    make, key = OWNED[kind]
    a = make(H, {key: H.field.one})
    b = make(taft(3), {key: H.field.one})
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(RangeError, match="over different algebras"):
            op()
    assert a != b and not a == b
    assert a + a == a.scaled(H.field.scalar(2))
