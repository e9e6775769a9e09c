"""Differential tests of `tring.sum_of_products`, the sum of a * b * s over
(element, element, scalar) triples on integer numerators, against the
`acc = acc + a * b * s` loops it replaced (`fast_path_reference.py`).

- The kernel against the sum of `TElement` products over the fields Q(q)
  with q of order n in {1, 2, 3, 4, 6}: mixed denominators, powers of q
  past 2n, sums that vanish only modulo Phi_n, and exponents next to the
  field bound 2^(w-1), where the key sum would carry and the exponents are
  summed exactly instead.  Over Scalars the same call is the loop itself.
- `lifted_cocycle` and `verify_t_inverse` against the loop bodies.
- The failure paths: one entry of sigma, and separately of its inverse,
  corrupted on taft(3) and e(2); `generic_base.sigma_failure` and
  `convolution_failure` name the triple or pair that the loop bodies name,
  and the certificate passes exactly where the reference Light's test
  passes on the table twisted by the corrupted sigma.
"""

import random
from fractions import Fraction

import fast_path_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgen.arith import make_field
from hopfgen.cocycle import (
    convolution_failure,
    coboundary_cocycle,
    trivial_cocycle,
)
from hopfgen.errors import RangeError
from hopfgen.generic_base import lifted_cocycle, sigma_failure
from hopfgen.groups import cyclic, symmetric
from hopfgen.hopf import e_algebra, group_algebra, taft
from hopfgen.tring import TElement, sum_of_products, t_ring, verify_t_inverse

ORDERS = (1, 2, 3, 4, 6)
# every variable of a group algebra is group-like, so any monomial is a
# unit; taft(n) has variables without inverse
RINGS = {n: t_ring(group_algebra(cyclic(3), make_field(n))) for n in ORDERS}
RINGS.update({f"taft{n}": t_ring(taft(n)) for n in (3, 4)})


def loop_sum(zero, triples):
    acc = zero
    for a, b, s in triples:
        acc = acc + a * b * s
    return acc


def same(got: TElement, want: TElement) -> None:
    assert isinstance(got, TElement) and got.ring is want.ring
    assert got.is_zero == want.is_zero
    assert got == want and hash(got) == hash(want)
    assert got.terms == want.terms
    assert got.to_text() == want.to_text()


@st.composite
def scalars(draw, field):
    """A scalar, zero included, with small numerators over 1 to 3."""
    nums = draw(st.lists(st.integers(-3, 3), min_size=field.degree, max_size=field.degree))
    den = draw(st.integers(1, 3))
    return field.from_coeffs(Fraction(c, den) for c in nums)


@st.composite
def elements(draw, ring):
    """A sum of at most three terms, each built by ring arithmetic as a
    scalar, times a power of q up to 2n + 1, times variables, so that the
    keys still carry powers of q that canonical form would fold."""
    field, hopf = ring.field, ring.hopf
    q = ring.scalar(field.q)
    elem = ring.zero()
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, 2 * field.n + 1))
        term = ring.scalar(draw(scalars(field))) * q**k
        for i in draw(st.lists(st.integers(0, hopf.dim - 1), max_size=3, unique=True)):
            lo = -2 if i in ring.grouplike_set else 0
            term = term * ring.var(i, draw(st.integers(lo, 2)))
        elem = elem + term
    return elem


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(RINGS, key=str)), st.data())
def test_the_kernel_matches_the_sum_of_products(name, data):
    ring = RINGS[name]
    triples = [
        (data.draw(elements(ring)), data.draw(elements(ring)), data.draw(scalars(ring.field)))
        for _ in range(data.draw(st.integers(0, 5)))
    ]
    zero = ring.zero()
    got = sum_of_products(zero, triples)
    same(got, loop_sum(zero, triples))
    if not triples:
        assert got is zero


@pytest.mark.parametrize("n", [n for n in ORDERS if make_field(n).degree > 1])
def test_a_sum_that_vanishes_only_modulo_phi_n_is_zero(n):
    """Phi_n(q) b, written as the sum of its coefficients times q^j b with
    the power of q held in the key, and again with q^(j + n) and
    q^(j + 2n): zero only once the powers of q are reduced."""
    ring = RINGS[n]
    field = ring.field
    q = ring.scalar(field.q)
    b = ring.var(0) * ring.var(1, -1) + ring.scalar(field.scalar(Fraction(1, 3)))
    for shift in (0, n, 2 * n):
        triples = [
            (q ** (j + shift), b, field.scalar(c))
            for j, c in enumerate(field.modulus)
            if c
        ]
        got = sum_of_products(ring.zero(), triples)
        assert got.is_zero and got == 0 and got.to_text() == "0"
        same(got, loop_sum(ring.zero(), triples))
        # one coefficient off: q^j b is left over
        triples[0] = (triples[0][0], b, triples[0][2] + 1)
        left = sum_of_products(ring.zero(), triples)
        same(left, loop_sum(ring.zero(), triples))
        assert left == b


@pytest.mark.parametrize("n", ORDERS)
def test_mixed_denominators_share_one_denominator(n):
    ring = RINGS[n]
    field = ring.field
    x = ring.var(1)
    thirds = ring.scalar(field.scalar(Fraction(1, 3)))
    triples = [
        (x * thirds, ring.var(2), field.scalar(Fraction(3, 4))),
        (ring.var(2), x, field.scalar(Fraction(-1, 6))),
        (ring.one(), ring.scalar(field.scalar(Fraction(5, 7))), field.q),
    ]
    got = sum_of_products(ring.zero(), triples)
    same(got, loop_sum(ring.zero(), triples))


@pytest.mark.parametrize("n", ORDERS)
def test_exponents_at_the_field_bound_are_summed_exactly(n):
    """Bounds whose sum reaches 2^(w-1) leave no room in a field: the
    exponents are summed exactly, and one that leaves its field raises
    RangeError, in the kernel as in the product."""
    ring = RINGS[n]
    field = ring.field
    top = (1 << (ring.width - 1)) - 1
    v = ring.hopf.dim - 1
    q = ring.scalar(field.q)
    high = ring.var(v, top) * q**3
    below = ring.var(v, top - 1)
    inverse = ring.var(v, -1) + ring.var(0)
    one = field.one
    triples = [
        (below, ring.var(v), field.q),  # bound sum 2^(w-1) - 1: the keys add
        (high, inverse, one),  # bound sum 2^(w-1): exact
        (inverse, high, field.scalar(Fraction(-1, 2))),
        (ring.var(0), ring.var(v), one),
    ]
    got = sum_of_products(ring.zero(), triples)
    same(got, loop_sum(ring.zero(), triples))
    assert ring.monomial([(v, top - 1)]) in got.terms
    for bad in ([(high, ring.var(v), one)], [(below, high, one)]):
        with pytest.raises(RangeError, match="packed field"):
            sum_of_products(ring.zero(), bad)
        with pytest.raises(RangeError, match="packed field"):
            loop_sum(ring.zero(), bad)


def test_operands_of_another_ring_or_field_raise():
    ring, other = RINGS[3], RINGS[4]
    with pytest.raises(RangeError, match="different algebras"):
        sum_of_products(ring.zero(), [(ring.var(0), other.var(0), ring.field.one)])
    with pytest.raises(RangeError, match="different fields"):
        sum_of_products(ring.zero(), [(ring.var(0), ring.var(1), other.field.one)])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORDERS), st.data())
def test_over_scalars_the_call_is_the_loop(n, data):
    field = make_field(n)
    triples = [
        tuple(data.draw(scalars(field)) for _ in range(3))
        for _ in range(data.draw(st.integers(0, 5)))
    ]
    got = sum_of_products(field.zero, triples)
    assert got == loop_sum(field.zero, triples)
    if not triples:
        assert got is field.zero


# --- the callers ------------------------------------------------------------


def instances():
    return [
        (taft(2), None),
        (taft(3), None),
        (taft(4), None),
        (e_algebra(1), None),
        (e_algebra(2), None),
        (group_algebra(symmetric(3)), None),
        (group_algebra(cyclic(4), make_field(4)), "coboundary"),
    ]


@pytest.mark.parametrize("h,kind", instances(), ids=lambda v: getattr(v, "name", str(v)))
def test_lifted_cocycle_and_its_inverse_match_the_loops(h, kind):
    alpha = coboundary_cocycle(h, 5) if kind else trivial_cocycle(h)
    for vals, right in ((alpha.values, False), (alpha.inverse_values, True)):
        got = lifted_cocycle(h, vals, right)
        want = ref.reference_lifted_cocycle(h, vals, right)
        for row, wrow in zip(got, want):
            for g, w in zip(row, wrow):
                same(g, w)


@pytest.mark.parametrize("h,kind", instances(), ids=lambda v: getattr(v, "name", str(v)))
def test_verify_t_inverse_matches_the_loops(h, kind):
    assert verify_t_inverse(h).to_dict() == ref.reference_verify_t_inverse(h).to_dict()


@pytest.mark.parametrize("make", [lambda: taft(3), lambda: e_algebra(2)], ids=["taft3", "e2"])
def test_verify_t_inverse_names_the_same_failures(make, monkeypatch):
    h = make()
    ring = t_ring(h)
    tinv = [ring.t_inverse(i) for i in range(h.dim)]
    q = ring.scalar(h.field.q)
    for k, bump in ((h.dim - 1, ring.var(0)), (1, q * ring.var(2)), (h.unit_index, ring.one())):
        bad = list(tinv)
        bad[k] = bad[k] + bump
        monkeypatch.setattr(ring, "_tinv", bad)
        got, want = verify_t_inverse(h), ref.reference_verify_t_inverse(h)
        assert not got.ok
        assert got.to_dict() == want.to_dict()


# --- failure paths of the sigma checks --------------------------------------


def corrupted(matrix, i, j, bump):
    out = [list(row) for row in matrix]
    out[i][j] = out[i][j] + bump
    return out


@pytest.mark.parametrize("make", [lambda: taft(3), lambda: e_algebra(2)], ids=["taft3", "e2"])
@pytest.mark.parametrize("which", ["sigma", "inverse"])
def test_a_corrupted_entry_is_named_as_by_the_loops(make, which):
    h = make()
    ring = t_ring(h)
    zero = ring.zero()
    alpha = trivial_cocycle(h)
    sig = lifted_cocycle(h, alpha.values)
    inv = lifted_cocycle(h, alpha.inverse_values, right=True)
    q = ring.scalar(h.field.q)
    # the last bump is zero only modulo Phi_n: 1 + q + ... + q^(n-1)
    cyclic_sum = sum_of_products(
        zero, [(q**j, ring.var(1), h.field.one) for j in range(h.field.n)]
    )
    bumps = (ring.one(), ring.var(0) * q, ring.var(h.dim - 1) * h.field.scalar(-2), cyclic_sum)
    dim, u = h.dim, h.unit_index
    positions = random.Random(dim).sample([(i, j) for i in range(dim) for j in range(dim)], 4)
    positions += [(1, 1), (u, 1), (1, u)]
    failures = 0
    for n, (i, j) in enumerate(positions):
        bump = bumps[n % len(bumps)]
        if which == "sigma":
            s, v = corrupted(sig, i, j, bump), inv
        else:
            s, v = sig, corrupted(inv, i, j, bump)
        bad = sigma_failure(h, alpha, s)
        assert bad == ref.reference_loop_cocycle_failure(h, s, zero)
        conv = convolution_failure(h, s, v, zero)
        assert conv == ref.reference_loop_convolution_failure(h, s, v, zero)
        table = ref.reference_filtered_twist(h, h.mult, s)
        assert (bad is None) == ref.reference_associative(dim, table, u, s[u][u])
        if bump is cyclic_sum:
            assert (bad, conv) == (None, None)
        failures += conv is not None
    assert failures >= 3
