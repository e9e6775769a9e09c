"""Differential tests of the no-op fast paths against the general routines
they bypass (`fast_path_reference.py`, `scalar_reference.py`).

- `check_product` sums each basis pair (i, j) once over all k, with j in
  the generating middle set first, and must report the same unit flag and
  the same first non-associative triple as the triple loop, on every
  roster table, on a table whose products have several terms and on
  corrupted tables.  `generating_middles` must reach every basis element
  from the unit, equal an independent fixpoint closure, and be no longer
  than the single-term rule it replaced; on the table twisted by the
  lifted cocycle it skips the unit.
- `verify_hopf_axioms` checks its pair identities on the generating
  middle factors only, on integer numerators; its report must equal that
  of the Scalar battery over all basis pairs, on intact tables and with
  one mult, comult or counit entry corrupted, over fields of degree 1, 2,
  4 and 6 (where it sums Kronecker residues) and on tables rescaled
  through JSON to fractional coefficients.
- A product of two single-term `TElement`s, and a power of one, skip
  `collect`; they must give the same dict as the general path.  So does a
  `TElement` times a scalar: zero, the field's one, or any other.
- A `Scalar` product by the field's one returns the other factor, and the
  inverse of one is one.
- Equal `TMonomial`s hash equal, and no constructor in `tring` stores a
  zero coefficient, which the single-term product relies on.
- `hopf._canonical_terms` returns a one-term tuple as it is, less a zero
  coefficient; every call must equal `collect` and `sort` over the same
  terms while the roster, taft(6), taft(7) and e(5), cotwists and JSON
  payloads are built.
"""

import json
import random
import re
from fractions import Fraction

import fast_path_reference as ref
import hopfgen.hopf as hopf_module
import pytest
import scalar_reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_scalar_reference import assert_same, scalar_pairs

from hopfgen.arith import make_field, scalar_from_strings, scalar_to_strings
from hopfgen.cocycle import (
    coboundary_cocycle,
    cotwist_hopf,
    trivial_cocycle,
    twisted_algebra,
)
from hopfgen.errors import NotPointedOrder, OutOfLocalization, RangeError
from hopfgen.generic_base import lifted_cocycle
from hopfgen.groups import group_from_spec, symmetric
from hopfgen.hopf import (
    HopfAlgebra,
    acts_as_scalar,
    associative,
    associator,
    e_algebra,
    generating_middles,
    group_algebra,
    taft,
    verify_hopf_axioms,
)
from hopfgen.linalg import collect
from hopfgen.selftest import klein_monomial, standard_instances
from hopfgen.tring import TElement, TMonomial, power_product, t_inverse_map, t_ring

# -- check_product, generating_middles and the axiom battery -------------------


def check_product(dim, mult, unit_index, one):
    """`hopf.check_product` on the cells of the table's integer associator."""
    return hopf_module.check_product(dim, mult, unit_index, one, associator(dim, mult, one.field))


def two_term_table(order: int) -> tuple[int, dict]:
    """The product of k[Z/order] on the basis 1, 1 + a, ..., 1 + a^(order-1):
    for odd order no product of two basis elements other than 1 is a single
    term, so only products of several terms reach anything beyond the
    generators."""
    field = make_field(1)
    one, zero = field.one, field.zero

    def vec(g):  # the basis element 1 + a^g (the unit for g = 0) over the group basis
        return {0: one} if g == 0 else {0: one, g: one}

    def in_basis(v):  # group coordinates back to the shifted basis
        out = {g: c for g, c in v.items() if g}
        out[0] = v.get(0, zero) - sum(out.values(), zero)
        return tuple(sorted((g, c) for g, c in out.items() if not c.is_zero))

    mult = {}
    for i in range(order):
        for j in range(order):
            prod = {}
            for g, c in vec(i).items():
                for h, d in vec(j).items():
                    k = (g + h) % order
                    prod[k] = prod.get(k, zero) + c * d
            mult[(i, j)] = in_basis(prod)
    return order, mult


TWO_TERM = two_term_table(5)


def truncated_polynomial_table() -> tuple[int, dict]:
    """k[t]/(t^4) on the basis 1, t, t^2 + t^3, t^2 - t^3: t t = (b_2 + b_3)/2
    and t b_2 = (b_2 - b_3)/2 each hold two unreached terms, so t alone
    reaches neither b_2 nor b_3."""
    field = make_field(1)
    powers = [{0: 1}, {1: 1}, {2: 1, 3: 1}, {2: 1, 3: -1}]  # each basis element in 1, t, t^2, t^3
    mult = {}
    for i, vi in enumerate(powers):
        for j, vj in enumerate(powers):
            p = [0] * 4
            for a, ca in vi.items():
                for b, cb in vj.items():
                    if a + b < 4:
                        p[a + b] += ca * cb
            coeffs = (p[0], p[1], Fraction(p[2] + p[3], 2), Fraction(p[2] - p[3], 2))
            terms = tuple((k, field.scalar(c)) for k, c in enumerate(coeffs) if c)
            if terms:
                mult[(i, j)] = terms
    return 4, mult


def reached_from_unit(dim, mult, unit_index, middles):
    """The basis indices reached from the unit and middles: b_k is reached
    when a product b_m b_r or b_r b_m, of m in middles and a reached r, has
    b_k as its only unreached index with a nonzero coefficient.  An
    independent fixpoint closure: every product is read again on every
    round until a round reaches nothing."""
    reached = {unit_index, *middles}
    grew = True
    while grew:
        grew = False
        for m in middles:
            for r in sorted(reached):
                for pair in ((m, r), (r, m)):
                    left = {k for k, c in mult.get(pair, ()) if not c.is_zero} - reached
                    if len(left) == 1:
                        reached |= left
                        grew = True
    return reached


def greedy_middles(dim, mult, unit_index, with_unit=True):
    """The unit (if with_unit), then each time the smallest index that the
    list so far does not reach, by `reached_from_unit`."""
    middles = [unit_index] if with_unit else []
    while True:
        unreached = set(range(dim)) - reached_from_unit(dim, mult, unit_index, middles)
        if not unreached:
            return middles
        middles.append(min(unreached))


@pytest.mark.parametrize("name,h", standard_instances(), ids=[n for n, _ in standard_instances()])
def test_check_product_matches_the_triple_loop_on_the_roster(name, h):
    args = (h.dim, h.mult, h.unit_index, h.field.one)
    assert check_product(*args) == ref.reference_check_product(*args) == (True, None)


@pytest.mark.parametrize("seed", [1, 3])
def test_check_product_matches_the_triple_loop_on_twisted_tables(seed):
    h = group_algebra(symmetric(3))
    mult = twisted_algebra(h, coboundary_cocycle(h, seed)).mult
    args = (h.dim, mult, h.unit_index, h.field.one)
    assert check_product(*args) == ref.reference_check_product(*args)


def test_check_product_matches_the_triple_loop_on_a_table_of_two_term_products():
    dim, mult = TWO_TERM
    # the single-term rule needed the whole basis; 1 + a and products of
    # several terms reach the rest
    assert ref.reference_generating_middles(dim, mult, 0) == list(range(dim))
    assert generating_middles(dim, mult, 0) == greedy_middles(dim, mult, 0) == [0, 1]
    assert generating_middles(dim, mult, 0, with_unit=False) == [1]
    args = (dim, mult, 0, make_field(1).one)
    assert check_product(*args) == ref.reference_check_product(*args) == (True, None)


def certificate_cases():
    cases = [(name, h.dim, h.mult, h.unit_index) for name, h in standard_instances()]
    h = group_algebra(symmetric(3))
    for seed in (1, 3, 5):
        mult = twisted_algebra(h, coboundary_cocycle(h, seed)).mult
        cases.append((f"twisted k[S3] seed {seed}", h.dim, mult, h.unit_index))
    cases.append(("k[t]/(t^4)", *truncated_polynomial_table(), 0))
    return cases


@pytest.mark.parametrize("case", certificate_cases(), ids=lambda case: case[0])
def test_generating_middles_reach_every_basis_element(case):
    name, dim, mult, unit = case
    for with_unit in (True, False):
        middles = generating_middles(dim, mult, unit, with_unit)
        assert (middles[:1] == [unit]) == with_unit and len(set(middles)) == len(middles)
        assert reached_from_unit(dim, mult, unit, middles) == set(range(dim))
        # greedy in basis order: each generator after the unit is the first
        # index that the generators before it do not reach
        assert middles == greedy_middles(dim, mult, unit, with_unit)
    middles = generating_middles(dim, mult, unit)
    if name.startswith("taft("):
        assert len(middles) == 3
    elif name.startswith("e("):
        assert len(middles) == int(name[2:-1]) + 2
    elif re.fullmatch(r"k\[Z/\d+\]", name) and dim > 1:
        assert len(middles) == 2


@pytest.mark.parametrize("case", certificate_cases(), ids=lambda case: case[0])
def test_generating_middles_are_no_more_than_the_single_term_rule_gave(case):
    _, dim, mult, unit = case
    assert len(generating_middles(dim, mult, unit)) <= len(
        ref.reference_generating_middles(dim, mult, unit)
    )


def failing_middles(dim, mult, one):
    """The j of every basis triple (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k),
    by products of basis dicts."""

    def prod(a, b):
        return collect(
            (k, ca * cb * c)
            for i, ca in a.items()
            for j, cb in b.items()
            for k, c in mult.get((i, j), ())
        )

    e = [{i: one} for i in range(dim)]
    return {
        j
        for i in range(dim)
        for j in range(dim)
        for k in range(dim)
        if prod(prod(e[i], e[j]), e[k]) != prod(e[i], prod(e[j], e[k]))
    }


@pytest.mark.parametrize(
    "products,middle",
    [
        # b_0 b_j = b_0 for every j: b_0 is no unit, stays a middle, and is
        # the only middle factor at which a triple fails
        ({(0, 0): 0, (0, 1): 0, (0, 2): 0, (1, 0): 1, (1, 1): 1, (1, 2): 1,
          (2, 0): 2, (2, 1): 1, (2, 2): 1}, 0),
        # unital, b_1 b_1 = b_2 b_2 = 1 and b_1 b_2 = b_2 b_1 = b_2: every
        # triple holds with b_1 in the middle, and (b_2 b_2) b_1 != b_2 (b_2 b_1)
        ({**{(0, j): j for j in range(3)}, **{(j, 0): j for j in range(3)},
          (1, 1): 0, (1, 2): 2, (2, 1): 2, (2, 2): 0}, 2),
    ],
    ids=["left-zero b_0", "unital"],
)
def test_light_test_reads_every_middle(products, middle):
    one = make_field(1).one
    mult = {key: ((k, one),) for key, k in products.items()}
    assert failing_middles(3, mult, one) == {middle}
    args = (3, mult, 0, one)
    assert not associative(*args)
    assert check_product(*args) == ref.reference_check_product(*args)


@pytest.mark.parametrize(
    "make,gens",
    [(lambda n=n: taft(n), ("x", "y")) for n in (2, 3, 4)]
    + [(lambda n=n: e_algebra(n), ("x", *(f"y_{i}" for i in range(1, n + 1)))) for n in (1, 2, 3)],
    ids=[f"taft{n}" for n in (2, 3, 4)] + [f"e{n}" for n in (1, 2, 3)],
)
def test_middles_of_the_lifted_cocycle_table_skip_the_unit(make, gens):
    h = make()
    sig = lifted_cocycle(h, trivial_cocycle(h).values)
    table = ref.reference_filtered_twist(h, h.mult, sig)
    u = h.unit_index
    # u_1 u_y = u_y u_1 = t[1] u_y, so the unit needs no check
    assert acts_as_scalar(h.dim, table, u, sig[u][u])
    assert sig[u][u] == t_ring(h).var(u)
    middles = generating_middles(h.dim, table, u, with_unit=False)
    assert [h.labels[m] for m in middles] == list(gens)
    assert middles == greedy_middles(h.dim, table, u, with_unit=False)


SMALL = {
    "taft3": taft(3),
    "e2": e_algebra(2),
    "kS3": group_algebra(symmetric(3)),
    "monomial": dict(standard_instances())["monomial(Klein,2)"],
}


def rescaled(h, seed: int) -> HopfAlgebra:
    """h read back from its JSON payload after a change of basis: every
    basis element b_i that is not group-like becomes c_i b_i for a seeded
    scalar c_i with fractional coefficients of 1 and q.  The result is a
    Hopf algebra isomorphic to h whose tables hold fractions and powers of
    q: (c_i c_j / c_k) m_ijk, (c_i / (c_j c_k)) d_ijk, c_i counit(b_i) and
    (c_i / c_k) s_ik."""
    field = h.field
    rng = random.Random(f"rescaled:{h.name}:{seed}")
    scale = [field.one] * h.dim
    for i in range(h.dim):
        if i not in h.grouplikes:
            while not scale[i] or scale[i] == field.one:
                coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(2)]
                scale[i] = field.from_coeffs(coeffs)
    inv = [c.inverse() for c in scale]
    data = h.to_json()

    def ser(c):
        return scalar_to_strings(c)

    def de(cs):
        return scalar_from_strings(field, cs)

    data["name"] = f"rescaled {h.name}"
    data["mult"] = [
        [i, j, [[k, ser(de(c) * scale[i] * scale[j] * inv[k])] for k, c in row]]
        for i, j, row in data["mult"]
    ]
    data["comult"] = [
        [[j, k, ser(de(c) * scale[i] * inv[j] * inv[k])] for j, k, c in row]
        for i, row in enumerate(data["comult"])
    ]
    data["counit"] = [ser(de(c) * scale[i]) for i, c in enumerate(data["counit"])]
    data["antipode"] = [
        [[k, ser(de(c) * scale[i] * inv[k])] for k, c in row]
        for i, row in enumerate(data["antipode"])
    ]
    return HopfAlgebra.from_json(json.loads(json.dumps(data)))


# Fields of degree 2 and 4 (taft(3) is in SMALL): the battery sums on
# Kronecker residues there, and the rescaled tables have denominators.
DEGREE_CASES = {
    "taft5": taft(5),
    "taft3 rescaled": rescaled(taft(3), 1),
    "taft5 rescaled": rescaled(taft(5), 2),
    "monomial rescaled": rescaled(SMALL["monomial"], 3),
}


@st.composite
def corrupted_tables(draw, parts=("mult",), pool=SMALL):
    """An algebra of pool and its tables with one entry of one table in
    parts changed.  A mult entry: its coefficient scaled, its target moved,
    the entry dropped, or an entry added where the product was zero.  A
    comult term: its coefficient scaled, one of its legs moved, or the term
    dropped.  A counit value: replaced by another."""
    h = pool[draw(st.sampled_from(sorted(pool)))]
    field, dim = h.field, h.dim
    tables = {"mult": dict(h.mult), "comult": list(h.comult), "counit": list(h.counit)}
    factors = st.sampled_from([field.q, -field.one, field.scalar(2)])
    index = st.integers(0, dim - 1)
    part = draw(st.sampled_from(parts))
    if part == "mult":
        mult = tables["mult"]
        key = (draw(index), draw(index))
        terms = mult.get(key, ())
        kind = draw(st.sampled_from(["scale", "move", "drop"]) if terms else st.just("add"))
        if kind == "scale":
            (k, c), *rest = terms
            mult[key] = ((k, c * draw(factors)), *rest)
        elif kind == "move":
            (k, c), *rest = terms
            mult[key] = ((draw(index), c), *rest)
        elif kind == "drop":
            del mult[key]
        else:
            mult[key] = ((draw(index), field.one),)
    elif part == "comult":
        i = draw(index)
        row = list(tables["comult"][i])
        t = draw(st.integers(0, len(row) - 1))
        j, k, c = row[t]
        kind = draw(st.sampled_from(["scale", "move left", "move right", "drop"]))
        if kind == "scale":
            row[t] = (j, k, c * draw(factors))
        elif kind == "move left":
            row[t] = (draw(index), k, c)
        elif kind == "move right":
            row[t] = (j, draw(index), c)
        else:
            del row[t]
        tables["comult"][i] = tuple(row)
    else:
        i = draw(index)
        tables["counit"][i] = draw(st.sampled_from([field.zero, field.one, field.q]))
    return h, tables


@settings(max_examples=60, deadline=None)
@given(corrupted_tables())
def test_check_product_matches_the_triple_loop_on_corrupted_tables(case):
    h, tables = case
    args = (h.dim, tables["mult"], h.unit_index, h.field.one)
    assert check_product(*args) == ref.reference_check_product(*args)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_check_product_matches_the_triple_loop_on_corrupted_two_term_tables(data):
    dim, mult = TWO_TERM
    one = make_field(1).one
    mult = dict(mult)
    key = (data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1)))
    (k, c), *rest = mult[key]
    mult[key] = ((k, c * data.draw(st.sampled_from([-one, one + one]))), *rest)
    args = (dim, mult, 0, one)
    assert check_product(*args) == ref.reference_check_product(*args)


def assert_battery_matches_on(case):
    h, tables = case
    try:
        broken = HopfAlgebra(
            h.field,
            h.labels,
            tables["mult"],
            tables["comult"],
            tables["counit"],
            h.unit_index,
            h.family,
            name=h.name,
            antipode=h.antipode,
        )
    except NotPointedOrder:
        # a group-like that lost its group-like inverse: no instance to check
        assume(False)
    got = verify_hopf_axioms(broken).to_dict()
    assert got == ref.reference_verify_hopf_axioms(broken).to_dict()


@settings(max_examples=80, deadline=None)
@given(corrupted_tables(parts=("mult", "comult", "counit")))
def test_axiom_battery_matches_the_full_pair_scan_on_corrupted_tables(case):
    assert_battery_matches_on(case)


@settings(max_examples=40, deadline=None)
@given(corrupted_tables(parts=("mult", "comult", "counit"), pool=DEGREE_CASES))
def test_axiom_battery_matches_the_full_pair_scan_on_corrupted_tables_of_degree_4(case):
    assert_battery_matches_on(case)


@settings(max_examples=4, deadline=None)
@given(corrupted_tables(parts=("mult", "comult", "counit"), pool={"taft7": taft(7)}))
def test_axiom_battery_matches_the_full_pair_scan_on_corrupted_tables_of_degree_6(case):
    # the reference scans all 49^2 pairs, about a second per example
    assert_battery_matches_on(case)


@pytest.mark.parametrize("name", sorted(SMALL) + sorted(DEGREE_CASES))
def test_axiom_battery_matches_the_full_pair_scan_on_intact_tables(name):
    h = {**SMALL, **DEGREE_CASES}[name]
    rep = verify_hopf_axioms(h)
    assert rep.ok and rep.to_dict() == ref.reference_verify_hopf_axioms(h).to_dict()


def test_rescaled_tables_hold_fractions_and_powers_of_q():
    for h in DEGREE_CASES.values():
        coeffs = [c for terms in h.mult.values() for _, c in terms]
        coeffs += [c for row in h.comult for _, _, c in row]
        assert any(c.den > 1 for c in coeffs) == ("rescaled" in h.name)
        assert any(any(c.num[1:]) for c in coeffs) == (h.field.degree > 1)


# -- TElement and TMonomial ----------------------------------------------------

@st.composite
def single_terms(draw, h, grouplike_only=False):
    """A one-term element of the coordinate ring of h: a nonzero scalar
    times a monomial in a few variables, group-like ones with any sign."""
    ring = t_ring(h)
    gl = sorted(ring.grouplike_set)
    others = [i for i in range(h.dim) if i not in ring.grouplike_set]
    pairs = [
        (g, draw(st.integers(-3, 3))) for g in draw(st.lists(st.sampled_from(gl), max_size=3))
    ]
    if others and not grouplike_only:
        pairs += [
            (v, draw(st.integers(0, 3)))
            for v in draw(st.lists(st.sampled_from(others), max_size=3))
        ]
    field = h.field
    coeff = field.from_coeffs(
        draw(st.lists(st.integers(-4, 4), min_size=field.degree, max_size=field.degree))
    )
    if not coeff:
        coeff = field.one
    return TElement(ring, {ring.monomial(pairs): coeff})


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(sorted(SMALL)))
def test_single_term_products_match_the_general_product(data, name):
    h = SMALL[name]
    a = data.draw(single_terms(h))
    b = data.draw(single_terms(h))
    got = a * b
    assert got.terms == ref.reference_mul(a, b).terms
    assert all(got.terms.values())
    # a product that cancels to the unit monomial
    g = data.draw(single_terms(h, grouplike_only=True))
    inverse = g.inverse()
    assert (g * inverse).terms == ref.reference_mul(g, inverse).terms == t_ring(h).one().terms


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(sorted(SMALL)), st.integers(-4, 4))
def test_single_term_powers_match_repeated_squaring(data, name, k):
    h = SMALL[name]
    a = data.draw(single_terms(h, grouplike_only=k < 0 and data.draw(st.booleans())))
    try:
        want = ref.reference_pow(a, k)
    except OutOfLocalization:
        with pytest.raises(OutOfLocalization):
            a**k
        return
    got = a**k
    assert got.terms == want.terms
    assert all(got.terms.values())


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(sorted(SMALL)))
def test_scaling_matches_the_collect_reference(data, name):
    h = SMALL[name]
    field = h.field
    a = data.draw(single_terms(h)) + data.draw(single_terms(h)) - data.draw(single_terms(h))
    other = field.from_coeffs(
        data.draw(st.lists(st.integers(-4, 4), min_size=field.degree, max_size=field.degree))
    )
    for s in (field.zero, field.one, -field.one, other, field.scalar(Fraction(3, 7))):
        want = ref.reference_scaled(a, s)
        for got in (a * s, s * a):
            assert list(got.terms.items()) == list(want.terms.items())
            assert all(got.terms.values())
            assert got.ring is a.ring


def test_powers_of_a_sum_still_take_the_general_path():
    ring = t_ring(taft(3))
    a = ring.var(0) + ring.var(3)
    for k in range(5):
        assert (a**k).terms == ref.reference_pow(a, k).terms


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(-5, 5).filter(bool)), max_size=6))
def test_equal_monomials_hash_equal(pairs):
    m = TMonomial(pairs)
    assert TMonomial(m.exps) == m and hash(TMonomial(m.exps)) == hash(m)
    for k in range(-3, 4):
        p = power_product([(m, k)], m.width)
        q = TMonomial([(i, e * k) for i, e in m.exps])
        assert p == q and hash(p) == hash(q)


# -- Scalar --------------------------------------------------------------------

# every field of degree 1 to 6
SMALL_DEGREE_ORDERS = st.sampled_from([n for n in range(1, 19) if make_field(n).degree <= 6])


@settings(max_examples=200, deadline=None)
@given(st.data(), SMALL_DEGREE_ORDERS, st.integers(2, 7))
def test_products_by_one_match_the_reference(data, n, d):
    a, ra = data.draw(scalar_pairs(n))
    one, rone = make_field(n).one, scalar_reference.make_field(n).one
    assert_same(one * a, rone * ra)
    assert_same(a * one, ra * rone)
    assert_same(1 * a, 1 * ra)
    assert_same(a * 1, ra * 1)
    assert_same(one * one, rone * rone)
    assert_same(one.inverse(), rone.inverse())
    # 1/d has the numerators of one, but is no unit of the product
    part = make_field(n).scalar(Fraction(1, d))
    rpart = scalar_reference.make_field(n).scalar(Fraction(1, d))
    assert_same(part * a, rpart * ra)
    assert_same(a * part, ra * rpart)
    assert_same(part.inverse(), rpart.inverse())


def test_products_by_one_still_refuse_a_foreign_field():
    with pytest.raises(RangeError):
        make_field(3).one * make_field(4).q
    with pytest.raises(RangeError):
        make_field(4).q * make_field(3).one


# -- no stored zeros -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(SMALL)))
def test_no_coordinate_ring_constructor_stores_a_zero(data, name):
    """Every routine of `tring` that builds a TElement, fed zeros and sums
    that cancel, returns an element without a zero coefficient."""
    h = SMALL[name]
    ring = t_ring(h)
    field = h.field
    a = data.draw(single_terms(h))
    b = data.draw(single_terms(h))
    gl = data.draw(single_terms(h, grouplike_only=True))
    c = data.draw(st.sampled_from([field.zero, field.one, -field.one, field.q]))
    built = [
        ring.zero(),
        ring.one(),
        ring.scalar(field.zero),
        ring.scalar(c),
        ring.var(0),
        ring.var(h.grouplikes[-1], -2),
        ring.element({m: field.zero for m in a.terms}),
        ring.element({**a.terms, **b.terms}),
        a + b,
        a - a,
        (a + b) - b,
        -a,
        a * c,
        c * (a + b),
        (a + b) * (a - b),
        (a + b) ** 2,
        gl.inverse(),
        a / gl,
        a / field.q,
        ring.element((a - a).terms),
        ring.element((a + b).terms),
        *t_inverse_map(h),
    ]
    for elem in built:
        assert isinstance(elem, TElement)
        assert all(elem.terms.values()), elem.terms


@pytest.fixture
def canonical_calls(monkeypatch):
    """Check every `_canonical_terms` call of `hopf` against the collect
    reference (`cocycle._twist` builds its sorted tuples itself); the list
    records, per call, whether the input was a one-term tuple."""
    fast = hopf_module._canonical_terms
    calls = []

    def checked(terms):
        if type(terms) is not tuple:
            terms = list(terms)
        got = fast(terms)
        assert got == ref.reference_canonical_terms(terms)
        assert type(got) is tuple and all(type(t) is tuple and len(t) == 2 for t in got)
        calls.append(type(terms) is tuple and len(terms) == 1)
        return got

    monkeypatch.setattr(hopf_module, "_canonical_terms", checked)
    return calls


def test_canonical_terms_match_the_reference_on_every_built_table(canonical_calls):
    built = [h for _, h in standard_instances.__wrapped__()]
    built += [taft(6), taft(7), e_algebra(5)]
    assert len(built) == 29
    single = sum(1 for h in built for terms in h.mult.values() if len(terms) == 1)
    # every single-term product of the constructor tables came in as a one-term tuple
    assert sum(canonical_calls) >= single > 0
    assert not all(canonical_calls)


def test_canonical_terms_match_the_reference_on_cotwists(canonical_calls):
    cases = [(h, trivial_cocycle(h)) for h in (taft(3), e_algebra(2), klein_monomial())]
    for spec in ("sym:3", "cyclic:4", "product:cyclic:2,cyclic:2"):
        h = group_algebra(group_from_spec(spec))
        cases += [(h, coboundary_cocycle(h, seed)) for seed in range(3)]
    del canonical_calls[:]
    for h, alpha in cases:
        out = cotwist_hopf(h, alpha)
        assert out.dim == h.dim
    assert any(canonical_calls)


def test_canonical_terms_match_the_reference_on_list_entries(canonical_calls):
    for h in (taft(3), e_algebra(2), group_algebra(symmetric(3))):
        payload = json.loads(json.dumps(h.to_json()))
        assert all(type(row) is list for _, _, row in payload["mult"])
        back = HopfAlgebra.from_json(payload)
        assert back.mult == h.mult and back.antipode == h.antipode
        for mult in (
            {k: [list(t) for t in v] for k, v in h.mult.items()},
            {k: tuple(list(t) for t in v) for k, v in h.mult.items()},
        ):
            again = HopfAlgebra(h.field, h.labels, mult, h.comult, h.counit, h.unit_index, h.family)
            assert again.mult == h.mult and again.antipode == h.antipode


def test_a_single_zero_term_is_dropped(canonical_calls):
    h = taft(2)
    zero = h.field.zero
    assert hopf_module._canonical_terms(((1, zero),)) == ()
    assert hopf_module._canonical_terms(((1, h.field.q),)) == ((1, h.field.q),)
    missing = next((i, j) for i in range(h.dim) for j in range(h.dim) if (i, j) not in h.mult)
    mult = {**h.mult, missing: ((0, zero),), (0, 0): ((0, h.field.one),)}
    out = HopfAlgebra(h.field, h.labels, mult, h.comult, h.counit, h.unit_index, h.family)
    assert missing not in out.mult and out.mult == h.mult
