"""`tring.TElement` on the Kronecker codec, against two references: the
Scalar-coefficient element (`telement_reference.ReferenceTElement`) and
the element that kept the power of q in its term keys
(`qkey_telement_reference.QKeyTElement`).

- Sums, differences, products, powers, `sum_of_products`, `==`, `hash`
  and `evaluate` agree with both references over Q(q) with q of order n
  in {1, 2, 3, 4, 5, 6}, at the default slot width and with
  `arith.SLOT_WIDTH` set to 8 bits, at which nearly every product
  re-encodes its operands on a wider codec.
- One `sum_of_products` over operands on three codec widths.
- Over n = 4, the numerator 1 + q + q^2 + q^3 is a nonzero residue of
  value zero; times q - 1 it is the residue zero, and no product, scaling,
  sum of products or tensor scaling keeps a zero residue.
- `TensorH.from_element` and `TensorH.scale` on numerators against the
  tensors built from the decoded terms, on taft(3), taft(5) and e(2),
  with operands on different codec widths.
"""

from fractions import Fraction

import pytest
from fast_path_reference import ReferenceTensorH
from hypothesis import given, settings
from hypothesis import strategies as st
from qkey_telement_reference import QKeyRing, QKeyTElement, qkey_sum_of_products
from telement_reference import ReferenceTElement, reference_element, reference_evaluate

from hopfgen import arith
from hopfgen.arith import make_field
from hopfgen.groups import cyclic
from hopfgen.hopf import e_algebra, group_algebra, taft
from hopfgen.linalg import collect
from hopfgen.tring import TElement, TensorH, sum_of_products, t_ring

ORDERS = (1, 2, 3, 4, 5, 6)
# every variable of a group algebra is group-like, so any monomial is a
# unit; taft(n) has variables without inverse
RINGS = {n: t_ring(group_algebra(cyclic(3), make_field(n))) for n in ORDERS}
RINGS.update({f"taft{n}": t_ring(taft(n)) for n in (3, 5)})
QKEY = {name: QKeyRing(ring) for name, ring in RINGS.items()}
WIDTHS = (8, arith.SLOT_WIDTH)


@st.composite
def scalars(draw, field, top=3):
    """A nonzero scalar with numerators in [-top, top] over 1 to 3."""
    nums = draw(st.lists(st.integers(-top, top), min_size=field.degree, max_size=field.degree))
    den = draw(st.integers(1, 3))
    return field.from_coeffs(Fraction(c, den) for c in nums) or field.one


@st.composite
def triples_of(draw, name):
    """A sum of at most four terms, each built by ring arithmetic as a
    scalar with numerators up to 3 or 100, times a power of q up to 2n,
    times variables: as a TElement, a QKeyTElement and a
    ReferenceTElement."""
    ring, qring = RINGS[name], QKEY[name]
    field, hopf = ring.field, ring.hopf
    q, qq = ring.scalar(field.q), qring.scalar(field.q)
    elem, qelem, ref = ring.zero(), qring.zero(), reference_element(ring, {})
    for _ in range(draw(st.integers(0, 4))):
        c = draw(scalars(field, draw(st.sampled_from((3, 100)))))
        k = draw(st.integers(0, 2 * field.n))
        pairs = [
            (i, draw(st.integers(-2, 2) if i in ring.grouplike_set else st.integers(0, 2)))
            for i in draw(st.lists(st.integers(0, hopf.dim - 1), max_size=3, unique=True))
        ]
        term, qterm = ring.scalar(c) * q**k, qring.scalar(c) * qq**k
        for i, e in pairs:
            # built now rather than read from the ring, which keeps its
            # variables on the codec of the slot width it was built with
            var = TElement(ring, {ring.monomial([(i, e)]): field.one})
            term, qterm = term * var, qterm * qring.var(i, e)
        elem, qelem = elem + term, qelem + qterm
        ref = ref + reference_element(ring, {ring.monomial(pairs): c * field.q**k})
    return elem, qelem, ref


def same(got: TElement, qkey: QKeyTElement, want: ReferenceTElement) -> None:
    assert isinstance(got, TElement) and isinstance(qkey, QKeyTElement)
    assert got.is_zero == qkey.is_zero == want.is_zero
    assert got.terms == qkey.terms == want.terms
    assert got.to_text() == qkey.to_text() == want.to_text()


def ring_width_and_data():
    return st.sampled_from(sorted(RINGS, key=str)), st.sampled_from(WIDTHS), st.data()


@settings(max_examples=120, deadline=None)
@given(*ring_width_and_data())
def test_arithmetic_matches_both_references(name, width, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "SLOT_WIDTH", width)
        a, qa, ra = data.draw(triples_of(name))
        b, qb, rb = data.draw(triples_of(name))
        c = data.draw(scalars(RINGS[name].field))
        same(a, qa, ra)
        same(a + b, qa + qb, ra + rb)
        same(a - b, qa - qb, ra - rb)
        same(a - a, qa - qa, ra - ra)
        same(-a, -qa, -ra)
        same(a * b, qa * qb, ra * rb)
        same(b * a * b, qb * qa * qb, rb * ra * rb)
        same(a * c, qa * c, ra * c)
        same(a / c, qa / c, ra / c)
        for k in range(4):
            same(a**k, qa**k, ra**k)


@settings(max_examples=120, deadline=None)
@given(*ring_width_and_data())
def test_equality_hash_and_evaluate_match_both_references(name, width, data):
    ring, qring = RINGS[name], QKEY[name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "SLOT_WIDTH", width)
        a, qa, ra = data.draw(triples_of(name))
        b, qb, rb = data.draw(triples_of(name))
        # two routes to one value: their numerators differ until canonical form
        left, right = (a + b) * (a - b), a * a - b * b
        assert (left == right) == ((qa + qb) * (qa - qb) == qa * qa - qb * qb)
        assert (left == right) == ((ra + rb) * (ra - rb) == ra * ra - rb * rb)
        if left == right:
            assert hash(left) == hash(right)
        assert (a == b) == (qa == qb) == (ra == rb)
        if a == b:
            assert hash(a) == hash(b)
        assert a == a + ring.zero() and hash(a) == hash(a + ring.zero())
        for value in (0, 1, ring.field.q):
            assert (a == value) == (qa == value) == (ra == value)
        values = [data.draw(scalars(ring.field)) for _ in range(ring.hopf.dim)]
        want = reference_evaluate(ring, ra, values)
        assert ring.evaluate(a, values) == qring.evaluate(qa, values) == want
        assert ring.evaluate(a * b, values) == want * reference_evaluate(ring, rb, values)


@settings(max_examples=100, deadline=None)
@given(*ring_width_and_data())
def test_sum_of_products_matches_both_references(name, width, data):
    ring, qring = RINGS[name], QKEY[name]
    field = ring.field
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "SLOT_WIDTH", width)
        triples, qtriples = [], []
        want = reference_element(ring, {})
        for _ in range(data.draw(st.integers(0, 5))):
            a, qa, ra = data.draw(triples_of(name))
            b, qb, rb = data.draw(triples_of(name))
            s = data.draw(st.one_of(st.sampled_from((field.zero, field.one)), scalars(field)))
            triples.append((a, b, s))
            qtriples.append((qa, qb, s))
            want = want + ra * rb * s
        got = sum_of_products(ring.zero(), triples)
        same(got, qkey_sum_of_products(qring.zero(), qtriples), want)
        loop = ring.zero()
        for a, b, s in triples:
            loop = loop + a * b * s
        assert got == loop and hash(got) == hash(loop)


def test_a_narrow_slot_width_widens_the_codecs(monkeypatch):
    monkeypatch.setattr(arith, "SLOT_WIDTH", 8)
    ring = RINGS["taft5"]
    field = ring.field
    x, y = (TElement(ring, {ring.monomial([(i, 1)]): field.one}) for i in (1, 2))
    u = TElement(ring, {ring.monomial([(1, 1)]): field.from_coeffs([60, 60])})
    assert x.codec.width == y.codec.width == 8
    assert u.codec.width == 8
    widths = {(u + u).codec.width, (u * u).codec.width, u.scaled(field.scalar(3)).codec.width}
    assert widths == {16}
    p = (x + u * y) ** 5
    assert p.codec.width > 16
    assert p == reference_power(ring, u)


def reference_power(ring, u):
    """(x + u y)^5 over the Scalar reference, as a TElement."""
    x = reference_element(ring, {ring.monomial([(1, 1)]): ring.field.one})
    y = reference_element(ring, {ring.monomial([(2, 1)]): ring.field.one})
    ru = reference_element(ring, dict(u.terms))
    return TElement(ring, ((x + ru * y) ** 5).terms)


def test_one_sum_of_products_over_three_codec_widths(monkeypatch):
    monkeypatch.setattr(arith, "SLOT_WIDTH", 8)
    ring = RINGS["taft5"]
    field = ring.field
    m = ring.monomial
    narrow = TElement(ring, {m([(1, 1)]): field.from_coeffs([1, -2]), m([(2, 1)]): field.q})
    middle = TElement(ring, {m([(1, 2)]): field.from_coeffs([300, 1, 0, -5])})
    wide = TElement(ring, {m([(2, 1), (3, 1)]): field.from_coeffs([10**20, 3]) / 7})
    assert (narrow.codec.width, middle.codec.width, wide.codec.width) == (8, 16, 128)
    s = field.from_coeffs([2, 0, 1]) / 3
    triples = [(narrow, middle, s), (wide, narrow, field.one), (middle, wide, -s)]
    got = sum_of_products(ring.zero(), triples)
    assert got.codec.width >= 128
    loop = ring.zero()
    want = reference_element(ring, {})
    for a, b, c in triples:
        loop = loop + a * b * c
        want = want + reference_element(ring, dict(a.terms)) * reference_element(
            ring, dict(b.terms)
        ) * c
    assert got == loop and hash(got) == hash(loop)
    assert got.terms == want.terms
    # the sum stays on the widest codec of its operands, though its slot
    # norm needs fewer bits: the ring built its variables on default slots
    var = ring.var(1)
    assert var.codec.width == WIDTHS[1] > 16
    got = sum_of_products(ring.zero(), [(narrow, var, s)])
    assert got.codec.width == WIDTHS[1] and got == narrow * var * s


def test_a_zero_value_numerator_leaves_no_zero_residue():
    """At n = 4, 1 + q + q^2 + q^3 = (1 + q) Phi_4(q): a residue that is not
    zero and a value that is; times q - 1 it is q^4 - 1, the residue zero."""
    ring = RINGS[4]
    field = ring.field
    q = ring.scalar(field.q)
    x = ring.var(0)
    s = (ring.one() + q + q**2 + q**3) * x
    assert s.num and s.is_zero and s == 0 and s.terms == {}
    down = field.q - field.one
    for product in (
        s * (q - ring.one()),
        (q - ring.one()) * s,
        s.scaled(down),
        s * down,
        sum_of_products(ring.zero(), [(s, ring.one(), down), (x, s, down)]),
    ):
        assert product.num == {} and product.is_zero and product == ring.zero()
    h = ring.hopf
    tensor = TensorH.from_element(ring, h, ring.one(), h.unit_index)
    assert tensor.scale(s).num != {} and tensor.scale(s).is_zero
    assert tensor.scale(s).scale(down).num == {}
    assert tensor.scale(s * (q - ring.one())).num == {}


# -- TensorH on TElement numerators ------------------------------------------------


def decoded_from_element(ring, algebra, elem, index):
    """`TensorH.from_element` through the decoded terms of elem."""
    return TensorH(ring, algebra, {(m, index): c for m, c in elem.terms.items()})


def decoded_scale(tensor, elem):
    """`TensorH.scale` by an element through the decoded terms of both."""
    return TensorH(tensor.ring, tensor.algebra, collect(
        ((m1.mul(m2), i), c1 * c2)
        for (m1, i), c1 in tensor.terms.items()
        for m2, c2 in elem.terms.items()
    ))


def same_tensor(got: TensorH, want: TensorH, ref: ReferenceTensorH) -> None:
    assert got == want and hash(got) == hash(want)
    assert got.terms == want.terms == ref.terms
    assert got.to_text() == want.to_text() == ref.to_text()


TENSOR_RINGS = {"taft(3)": lambda: taft(3), "taft(5)": lambda: taft(5), "e(2)": lambda: e_algebra(2)}


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", sorted(TENSOR_RINGS))
def test_from_element_and_scale_match_the_decode_path(name, width, monkeypatch):
    monkeypatch.setattr(arith, "SLOT_WIDTH", width)
    h = TENSOR_RINGS[name]()
    ring, field = t_ring(h), h.field
    g = h.grouplikes[-1]
    q = ring.scalar(field.q)
    small = ring.var(1) * 2 - ring.var(h.dim - 1) * q
    big = ring.var(g, -1) * (10**30) + q**3 * ring.var(1) * ring.var(2) / 7
    vanishing = small * (ring.one() + q**2) - small - small * q**2
    elements = [ring.zero(), ring.one(), small, big, small * big, vanishing]
    if field.degree > 1:
        assert big.codec.width > small.codec.width
    for elem in elements:
        for index in (0, h.unit_index, h.dim - 1):
            got = TensorH.from_element(ring, h, elem, index)
            want = decoded_from_element(ring, h, elem, index)
            ref = ReferenceTensorH(ring, h, {(m, index): c for m, c in elem.terms.items()})
            same_tensor(got, want, ref)
    tensors = [
        TensorH.from_element(ring, h, small, 1) + TensorH.from_element(ring, h, big, 2),
        TensorH(ring, h, {(ring.monomial([(g, 3)]), 0): field.from_coeffs([10**25, 1])}),
        TensorH.zero(ring, h),
    ]
    for tensor in tensors:
        ref = ReferenceTensorH(ring, h, tensor.terms)
        for elem in elements:
            same_tensor(tensor.scale(elem), decoded_scale(tensor, elem), ref.scale(elem))
            assert elem * tensor == tensor.scale(elem)
