"""`tring.TensorH` on integer numerators against the `Scalar`-coefficient
tensor it replaced (`fast_path_reference.ReferenceTensorH`, with its `mu`
and its centre), and the centre on a generating set against the centre
from every basis element.

- `mu` images of short and powered polynomials, of every niceness witness
  word and denominator, and sums, differences, scalings and powers of
  tensors, must have the same `terms` and the same text as the reference,
  and the same identity, coinvariance and centrality flags.
- Products associate, and the two bracketings hash equal.
- The slot norm: coefficients of 10^40, chained powers over taft(5) and
  taft(7), and a slot width of 8 bits, at which nearly every product
  re-encodes its operands on a wider codec, all give the reference image.
- Exponents at the packed field boundary: products and scalings whose
  bounds sum past the field but whose exponents fit give the reference
  result, and one exponent past the field raises RangeError, as the
  reference does.
- `hopf.center_table` over a generating set gives the same basis as
  [z, b_j] = 0 for every j, on the roster, e(4), taft(5..7) and
  coboundary twists of three group algebras.
"""

import random

import pytest
from fast_path_reference import (
    ReferenceTensorH,
    reference_center_table,
    reference_denominator_ncpoly,
    reference_tensor_mu,
)

from hopfgen import arith
from hopfgen.cocycle import coboundary_cocycle, trivial_cocycle, twisted_algebra
from hopfgen.errors import RangeError
from hopfgen.generic_base import WITNESS_CAP, niceness_witnesses
from hopfgen.groups import cyclic, dihedral, direct_product, symmetric
from hopfgen.hopf import center, center_table, e_algebra, group_algebra, taft
from hopfgen.identities import mu, parse_ncpoly
from hopfgen.selftest import DECOMPOSE_NAMES, _instance, standard_instances
from hopfgen.tring import TensorH, t_ring

BUILDERS = {
    "e(1)": lambda: e_algebra(1),
    "e(2)": lambda: e_algebra(2),
    "e(3)": lambda: e_algebra(3),
    "taft(2)": lambda: taft(2),
    "taft(3)": lambda: taft(3),
    "taft(5)": lambda: taft(5),
    "taft(7)": lambda: taft(7),
    "k[S3]": lambda: group_algebra(symmetric(3)),
    "k[Z/6]": lambda: group_algebra(cyclic(6)),
}
GROUPS = ("k[S3]", "k[Z/6]")
COEFFS = ("1", "2", "3", "1/2", "5/3", "q", "2*q", "(1-q)")


def _instance_of(name: str):
    return BUILDERS[name]()


def assert_same(got: TensorH, want: ReferenceTensorH) -> None:
    assert got.terms == want.terms
    assert got.to_text() == want.to_text()
    assert got.is_zero == (not want.terms)
    assert got.is_coinvariant() == want.is_coinvariant()
    assert got.is_central() == want.is_central()


def _word(rng: random.Random, labels, length: int) -> str:
    return "*".join(f"X[{rng.choice(labels)}]" for _ in range(length))


def short_polys(h, seed: int, count: int) -> list[str]:
    """Sums of at most three coefficient-times-word terms, words of at most
    four letters."""
    rng = random.Random(f"short:{h.name}:{seed}")
    out = []
    for _ in range(count):
        text = ""
        for _ in range(rng.randint(1, 3)):
            word = _word(rng, h.labels, rng.randint(1, 4))
            text += f" {rng.choice('+-')} {rng.choice(COEFFS)}*{word}"
        out.append(text.strip().removeprefix("+ "))
    return out


def powered_polys(h, seed: int, count: int, top: int) -> list[str]:
    """Powers of two- and three-letter sums, and a product of two powers."""
    rng = random.Random(f"power:{h.name}:{seed}")
    out = []
    for _ in range(count):
        a, b, c = (rng.choice(h.labels) for _ in range(3))
        k = rng.randint(2, top)
        out.append(f"(X[{a}]+{rng.choice(COEFFS)}*X[{b}])^{k}")
        out.append(f"(X[{a}]-X[{b}]+X[{c}])^2*(X[{c}]+q*X[{a}])^{k - 1}")
    return out


def _cocycles(name: str, h):
    out = [("trivial", trivial_cocycle(h))]
    if name in GROUPS:
        out += [(f"coboundary {s}", coboundary_cocycle(h, s)) for s in (3, 11)]
    return out


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_mu_images_match_the_reference(name):
    h = _instance_of(name)
    top = 3 if name in ("taft(5)", "taft(7)", "e(3)") else 6
    texts = short_polys(h, 0, 12) + powered_polys(h, 0, 3, top)
    for _, alpha in _cocycles(name, h):
        for text in texts:
            poly = parse_ncpoly(text, h)
            assert_same(mu(h, alpha, poly), reference_tensor_mu(h, alpha, poly))


WITNESS_GROUPS = {
    "k[Z/2]": lambda: group_algebra(cyclic(2)),
    "k[Z/6]": lambda: group_algebra(cyclic(6)),
    "k[S3]": lambda: group_algebra(symmetric(3)),
    "k[D4]": lambda: group_algebra(dihedral(4)),
    "k[D5]": lambda: group_algebra(dihedral(5)),
    "k[Z/3 x Z/3]": lambda: group_algebra(direct_product(cyclic(3), cyclic(3))),
}


@pytest.mark.parametrize("name", list(DECOMPOSE_NAMES) + sorted(WITNESS_GROUPS))
def test_witness_words_and_denominators_match_the_reference(name):
    h = WITNESS_GROUPS[name]() if name in WITNESS_GROUPS else _instance(name)
    alpha = trivial_cocycle(h)
    witnesses = niceness_witnesses(h)
    assert witnesses
    for gamma, (word, dens) in witnesses.items():
        for poly in (word, reference_denominator_ncpoly(dens, WITNESS_CAP)):
            assert_same(mu(h, alpha, poly), reference_tensor_mu(h, alpha, poly))


def _tensor_pair(h, alpha, rng: random.Random, count: int):
    """The same random sum of coordinate monomials tensor basis elements,
    as a TensorH and as a ReferenceTensorH, over the mu target."""
    from hopfgen.identities import mu_algebra

    ring = t_ring(h)
    algebra = mu_algebra(h, alpha)
    field = h.field
    terms = {}
    for _ in range(count):
        mono = ring.monomial([(rng.randrange(h.dim), rng.randint(0, 2)) for _ in range(2)])
        coeffs = [rng.choice((0, 1, -1, 2, 3, -7)) for _ in range(field.degree)]
        terms[(mono, rng.randrange(h.dim))] = field.from_coeffs(coeffs) / rng.randint(1, 4)
    return TensorH(ring, algebra, terms), ReferenceTensorH(ring, algebra, terms)


@pytest.mark.parametrize("name", ["taft(2)", "taft(3)", "taft(5)", "e(2)", "k[S3]"])
def test_sums_differences_scalings_and_powers_match_the_reference(name):
    h = _instance_of(name)
    rng = random.Random(name)
    ring = t_ring(h)
    for _, alpha in _cocycles(name, h):
        for _ in range(4):
            a, ra = _tensor_pair(h, alpha, rng, 4)
            b, rb = _tensor_pair(h, alpha, rng, 3)
            assert_same(a + b, ra + rb)
            assert_same(a - b, ra - rb)
            assert_same(a - a, ra - ra)
            assert_same(-a, -ra)
            s = h.field.from_coeffs([3, -1]) / 5
            assert_same(a.scale(s), ra.scale(s))
            assert_same(a.scale(7), ra.scale(7))
            t = ring.var(h.grouplikes[-1], -1) * 2 - ring.var(h.dim - 1) * h.field.q
            assert_same(a.scale(t), ra.scale(t))
            assert_same(a * b, ra * rb)
            for k in (0, 1, 2, 3):
                assert_same(a**k, ra**k)


@pytest.mark.parametrize("name", ["taft(3)", "taft(5)", "e(2)", "k[Z/6]"])
def test_products_associate_and_hash_equal(name):
    h = _instance_of(name)
    rng = random.Random(f"assoc:{name}")
    for _, alpha in _cocycles(name, h):
        for _ in range(3):
            a, b, c = (_tensor_pair(h, alpha, rng, 3)[0] for _ in range(3))
            left, right = (a * b) * c, a * (b * c)
            assert left == right and hash(left) == hash(right)
            # equal values reached through different sums hash equal too
            assert (a + b) - b == a and hash((a + b) - b) == hash(a)


# -- the slot norm ---------------------------------------------------------------


BIG = str(10**40)


@pytest.mark.parametrize("name", ["taft(5)", "taft(7)"])
def test_large_coefficients_and_chained_powers_match_the_reference(name):
    h = _instance_of(name)
    alpha = trivial_cocycle(h)
    a, b, c = h.labels[1], h.labels[h.dim // 2], h.labels[-1]
    texts = [
        f"{BIG}*X[{a}]*X[{b}] - {BIG}*q*X[{b}]*X[{a}]",
        f"({BIG}*X[{a}]+X[{b}])^3",
        f"(({BIG}*X[{a}]-{BIG}*X[{c}])^2)^2",
        f"((X[{a}]+2*X[{b}])^2)^3",
        f"((X[{a}]+X[{b}]+X[{c}])^2*(X[{b}]-X[{a}])^2)^2",
    ]
    for text in texts:
        poly = parse_ncpoly(text, h)
        got = mu(h, alpha, poly)
        assert_same(got, reference_tensor_mu(h, alpha, poly))
        if BIG in text:
            # 10^40 does not fit the narrowest slots
            assert got.codec.width > arith.SLOT_WIDTH


@pytest.mark.parametrize("name", ["taft(3)", "taft(5)", "taft(7)"])
def test_a_narrow_slot_width_re_encodes_and_matches_the_reference(name, monkeypatch):
    monkeypatch.setattr(arith, "SLOT_WIDTH", 8)
    h = _instance_of(name)  # a fresh instance: no images or tables kept from wider codecs
    alpha = trivial_cocycle(h)
    a, b, c = h.labels[1], h.labels[h.dim // 2 + 1], h.labels[-1]
    texts = [
        f"(X[{a}]+X[{b}])^6",
        f"(3*X[{a}]-X[{c}])^4*(X[{b}]+q*X[{c}])^2",
        f"1000*X[{a}]*X[{b}]*X[{c}] - X[{c}]*X[{b}]",
    ]
    widths = set()
    for text in texts:
        poly = parse_ncpoly(text, h)
        got = mu(h, alpha, poly)
        widths.add(got.codec.width)
        assert_same(got, reference_tensor_mu(h, alpha, poly))
    assert max(widths) > 8
    # slot norm 120 fits 8-bit slots, and its sums and multiples do not
    ring = t_ring(h)
    terms = {(ring.monomial([(1, 1)]), 1): h.field.from_coeffs([100, 20])}
    u, ru = TensorH(ring, h, terms), ReferenceTensorH(ring, h, terms)
    assert u.codec.width == 8
    assert_same(u + u, ru + ru)
    assert_same(u - -u, ru - -ru)
    assert_same(u.scale(3) + u.scale(h.field.q), ru.scale(3) + ru.scale(h.field.q))
    rng = random.Random(f"narrow:{name}")
    x, rx = _tensor_pair(h, alpha, rng, 3)
    y, ry = _tensor_pair(h, alpha, rng, 3)
    assert_same(x * y + x, rx * ry + rx)
    assert_same((x - y) ** 3, (rx - ry) ** 3)


def test_exponents_at_the_field_boundary_match_the_reference():
    h = group_algebra(cyclic(6))
    ring = t_ring(h)
    top = (1 << (ring.width - 1)) - 1

    def pair(exp: int, index: int):
        terms = {(ring.monomial([(1, exp)]), index): h.field.one}
        return TensorH(ring, h, terms), ReferenceTensorH(ring, h, terms)

    a, ra = pair(top, 2)
    b, rb = pair(-top, 3)
    c, rc = pair(1, 0)
    # the bounds sum past the field, and the exponents stay inside it
    assert_same(a * b, ra * rb)
    assert_same((a + c) * b, (ra + rc) * rb)
    assert_same(a.scale(ring.var(1, -1)), ra.scale(ring.var(1, -1)))
    for bad in (lambda t, u: t * u, lambda t, u: (t + u) * (u + u)):
        for left, right in ((a, c), (ra, rc)):
            with pytest.raises(RangeError, match="packed field"):
                bad(left, right)
    with pytest.raises(RangeError, match="packed field"):
        a.scale(ring.var(1))


# -- the centre on a generating set ---------------------------------------------


def _centre_instances():
    out = [(label, h) for label, h in standard_instances()]
    out += [("e(4)", e_algebra(4))] + [(f"taft({n})", taft(n)) for n in (5, 6, 7)]
    for label, group in (("k[S3]", symmetric(3)), ("k[Z/6]", cyclic(6)), ("k[D4]", dihedral(4))):
        h = group_algebra(group)
        for seed in (1, 7):
            twisted = twisted_algebra(h, coboundary_cocycle(h, seed))
            out.append((f"{label} coboundary {seed}", twisted))
    return out


def test_centre_on_a_generating_set_matches_the_centre_from_every_basis_element():
    for label, alg in _centre_instances():
        field = alg.hopf.field if hasattr(alg, "hopf") else alg.field
        want = reference_center_table(alg.dim, alg.mult, field)
        assert center_table(alg.dim, alg.mult, alg.unit_index, field) == want, label
        if not hasattr(alg, "hopf"):
            assert center(alg) == want, label
