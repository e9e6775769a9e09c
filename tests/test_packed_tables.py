"""Structure-table sums on integer numerators, against the Scalar bodies
they replaced (`fast_path_reference.py`).

- `cocycle._twist` sums scalar forms on the packed tables of
  `hopf.pack_rows` and decodes each coefficient once; it must give the
  dict of `reference_filtered_twist`, in the same order, on the roster
  (the trivial cocycle, both sides), on coboundary cocycles of k[S3],
  k[Z/6] and k[D4], and on rescaled tables with fractional coefficients.
  `cotwist_hopf` keeps its left twist on integers; its table must equal
  the two-stage reference.
- `_counit_reduces` and `trivial_cocycle` read the counit checks on
  integers; their answers, targets and messages must be the references'.
- `TRing.evaluate` reads integer numerators; its value must equal the old
  body's, for counit values and for arbitrary ones, and a zero value
  under a negative exponent must raise as before.
- With `arith.SLOT_WIDTH` narrowed to 4 bits the battery, the twists and
  Light's test must re-encode on a wider codec and still match the
  references.  Without the re-encode, the battery on the rescaled taft(5)
  names a comult-multiplicative failure and the twist of the rescaled
  taft(3) decodes wrong coefficients.
"""

import random
from fractions import Fraction

import fast_path_reference as ref
import pytest
from test_fast_paths import DEGREE_CASES, rescaled

import hopfgen.arith as arith
from hopfgen.arith import make_field
from hopfgen.cocycle import (
    _counit_reduces,
    _twist,
    coboundary_cocycle,
    cotwist_hopf,
    trivial_cocycle,
)
from hopfgen.errors import DivisionByZero, NotInvertible
from hopfgen.generic_base import lifted_cocycle
from hopfgen.groups import cyclic, dihedral, symmetric
from hopfgen.hopf import (
    HopfAlgebra,
    associative,
    e_algebra,
    fitted,
    group_algebra,
    pack_rows,
    structure_equal,
    taft,
    verify_hopf_axioms,
)
from hopfgen.selftest import standard_instances
from hopfgen.tring import t_ring

ROSTER = standard_instances()


def assert_twists_match(h, vals):
    for right in (False, True):
        got = _twist(h, h.mult, vals, right)
        want = ref.reference_filtered_twist(h, h.mult, vals, right)
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("name,h", ROSTER, ids=[n for n, _ in ROSTER])
def test_trivial_twists_match_the_scalar_body_on_the_roster(name, h):
    alpha = trivial_cocycle(h)
    assert_twists_match(h, alpha.values)
    # the right twist of the left twist, which cotwist_hopf keeps on integers
    left = ref.reference_filtered_twist(h, h.mult, alpha.values)
    want = ref.reference_filtered_twist(h, left, alpha.inverse_values, right=True)
    assert list(_twist(h, left, alpha.inverse_values, right=True).items()) == list(want.items())
    assert cotwist_hopf(h, alpha).mult == want


@pytest.mark.parametrize("group", [symmetric(3), cyclic(6), dihedral(4)], ids=["S3", "Z6", "D4"])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_coboundary_twists_match_the_scalar_body(group, seed):
    h = group_algebra(group)
    alpha = coboundary_cocycle(h, seed)
    assert_twists_match(h, alpha.values)
    assert_twists_match(h, alpha.inverse_values)
    left = ref.reference_filtered_twist(h, h.mult, alpha.values)
    want = ref.reference_filtered_twist(h, left, alpha.inverse_values, right=True)
    assert list(cotwist_hopf(h, alpha).mult.items()) == list(want.items())


@pytest.mark.parametrize("name", sorted(DEGREE_CASES))
def test_twists_of_fractional_tables_match_the_scalar_body(name):
    h = DEGREE_CASES[name]
    alpha = trivial_cocycle(h)
    assert_twists_match(h, alpha.values)
    # a dense form with fractional values of 1 and q
    rng = random.Random(name)
    field = h.field
    vals = [
        [field.from_coeffs([Fraction(rng.randint(-4, 4), rng.randint(1, 5)), rng.randint(-2, 2)])
         for _ in range(h.dim)]
        for _ in range(h.dim)
    ]
    assert_twists_match(h, vals)
    twisted = cotwist_hopf(h, alpha)
    assert structure_equal(twisted, h)


def broken_algebras():
    """The roster's taft(3) and e(2) and a rescaled taft(4), through JSON,
    each intact and with one counit value, one mult coefficient or one
    coproduct leg changed."""
    for h in (taft(3), e_algebra(2), rescaled(taft(4), 5)):
        field = h.field
        top = h.dim - 1
        yield h
        data = h.to_json()
        data["counit"][top] = data["counit"][h.unit_index]
        yield HopfAlgebra.from_json(data)
        data = h.to_json()
        i, j, row = next(entry for entry in data["mult"] if entry[2] and entry[0] != h.unit_index)
        doubled = field.scalar(2) * arith.scalar_from_strings(field, row[0][1])
        row[0][1] = arith.scalar_to_strings(doubled)
        yield HopfAlgebra.from_json(data)
        data = h.to_json()
        data["comult"][top] = data["comult"][top][1:]
        yield HopfAlgebra.from_json(data)


def test_counit_checks_match_the_scalar_bodies():
    seen = set()
    for h in list(broken_algebras()) + [h for _, h in ROSTER]:
        got = _counit_reduces(h)
        assert got == ref.reference_counit_reduces(h)
        seen.add(got)
        try:
            want = ref.reference_factored_trivial_cocycle(h)
        except NotInvertible as exc:
            with pytest.raises(NotInvertible) as info:
                trivial_cocycle(h)
            assert str(info.value) == str(exc)
            seen.add("raised")
            continue
        alpha = trivial_cocycle(h)
        assert alpha.values == want.values
        assert (alpha._mu_target is h) == (want._mu_target is h)
        seen.add(("target", alpha._mu_target is h))
    assert seen >= {True, False, "raised", ("target", True), ("target", False)}


def evaluation_cases():
    for h in (taft(3), taft(4), e_algebra(2), group_algebra(symmetric(3))):
        alpha = trivial_cocycle(h)
        sig = lifted_cocycle(h, alpha.values)
        inv = lifted_cocycle(h, alpha.inverse_values, right=True)
        yield h, [e for row in sig + inv for e in row]


@pytest.mark.parametrize("case", list(evaluation_cases()), ids=lambda c: c[0].name)
def test_evaluate_matches_the_scalar_body(case):
    h, elems = case
    ring = t_ring(h)
    field = h.field
    rng = random.Random(h.name)
    counit = list(h.counit)
    arbitrary = []
    while len(arbitrary) < h.dim:
        v = field.from_coeffs([Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(-2, 2)])
        if v:
            arbitrary.append(v)
    ones = [field.one] * h.dim
    for values in (counit, arbitrary, ones):
        for elem in elems:
            assert ring.evaluate(elem, values) == ref.reference_ring_evaluate(ring, elem, values)
    # products with inverted group-like variables, and a zero under a negative exponent
    g = h.grouplikes[-1]
    elem = elems[-1] * ring.var(g, -3) + ring.var(g, -1) * field.q
    assert ring.evaluate(elem, arbitrary) == ref.reference_ring_evaluate(ring, elem, arbitrary)
    zeroed = [field.zero if i == g else v for i, v in enumerate(arbitrary)]
    with pytest.raises(DivisionByZero):
        ref.reference_ring_evaluate(ring, elem, zeroed)
    with pytest.raises(DivisionByZero):
        ring.evaluate(elem, zeroed)


# -- narrow slots -------------------------------------------------------------


@pytest.fixture
def narrow_slots(monkeypatch):
    monkeypatch.setattr(arith, "SLOT_WIDTH", 4)


def widths(h) -> set:
    return set(h._packed or ())


@pytest.mark.parametrize(
    "make",
    [lambda: taft(3), lambda: taft(5), lambda: taft(7), lambda: rescaled(taft(5), 2)],
    ids=["taft3", "taft5", "taft7", "taft5 rescaled"],
)
def test_a_narrow_slot_width_re_encodes_the_battery(make, narrow_slots):
    h = make()  # a fresh instance: no tables kept from wider codecs
    rep = verify_hopf_axioms(h)
    assert rep.ok and rep.to_dict() == ref.reference_verify_hopf_axioms(h).to_dict()
    assert max(widths(h)) > 4
    # a corrupted coproduct, so that the pair checks scan the whole basis
    data = h.to_json()
    data["comult"][h.dim - 1] = data["comult"][h.dim - 1][1:]
    broken = HopfAlgebra.from_json(data)
    got = verify_hopf_axioms(broken).to_dict()
    assert got == ref.reference_verify_hopf_axioms(broken).to_dict()


@pytest.mark.parametrize(
    "make", [lambda: taft(5), lambda: rescaled(taft(3), 1)], ids=["taft5", "taft3 rescaled"]
)
def test_a_narrow_slot_width_re_encodes_the_twists(make, narrow_slots):
    h = make()
    alpha = trivial_cocycle(h)
    assert_twists_match(h, alpha.values)
    assert structure_equal(cotwist_hopf(h, alpha), h)
    # Light's test on a twisted table of scalars, and on a non-associative one
    table = ref.reference_filtered_twist(h, h.mult, alpha.values)
    one = h.field.one
    assert associative(h.dim, table, h.unit_index, one)
    key = next(k for k, terms in table.items() if k[0] != h.unit_index != k[1])
    bent = {**table, key: tuple((k, c * 3) for k, c in table[key])}
    assert not associative(h.dim, bent, h.unit_index, one)
    assert ref.reference_associative(h.dim, bent, h.unit_index, one) is False


def test_a_coefficient_that_encodes_to_zero_still_counts_toward_the_norm(narrow_slots):
    field = make_field(3)
    narrow = arith.kronecker(field, 0)
    # N itself is the residue 0 of the narrowest codec, but not zero
    big = field.scalar(narrow.modulus)
    packed, den, norm = pack_rows([((0, big), (1, field.one))], narrow)
    assert packed == [((1, 1),)] and norm == narrow.modulus + 1
    codec, zero, (rows, _, _) = fitted(field, lambda c: pack_rows([((0, big),)], c), lambda p: p[2])
    assert codec.width > narrow.width and rows == [((0, codec.encode(big.num)),)]
    assert not zero(rows[0][0][1])
