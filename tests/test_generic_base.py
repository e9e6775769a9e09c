"""Base-algebra layer: the lifted cocycle, generator presentations, Jacobian
certificates, decomposition witnesses, the grading quotient, evaluation
preimages, and freeness of the evaluation image."""

import itertools
import random

import fast_path_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgen import generic_base
from hopfgen.arith import make_field
from hopfgen.cocycle import coboundary_cocycle, trivial_cocycle, verify_cocycle_condition
from hopfgen.errors import NotDegreeZero, RangeError, UnsupportedFamily
from hopfgen.generic_base import (
    DecompositionWitness,
    GammaPresentation,
    decompose,
    decompose_with_residue,
    gamma_generators,
    jacobian_check,
    lifted_cocycle,
    niceness_witnesses,
    quotient_presentation_check,
    torus_minor_determinant,
    uprime_relations_check,
    verify_sigma,
)
from hopfgen.groups import character_from_exponents, cyclic, dihedral, direct_product, symmetric
from hopfgen.hopf import HopfAlgebra, e_algebra, group_algebra, monomial_type_i, taft
from hopfgen.selftest import standard_instances
from hopfgen.tring import t_ring


def klein_monomial():
    g = direct_product(cyclic(2), cyclic(2))
    f = make_field(2)
    chi = character_from_exponents(g, f, [0, 0, 1, 1])
    return monomial_type_i(g, g.index_of("(a,e)"), chi, f)


# --- the lifted cocycle ----------------------------------------------------


def test_group_cocycle_is_torus_ratio():
    h = group_algebra(symmetric(3))
    group = h.family["group"]
    ring = t_ring(h)
    sig = lifted_cocycle(h, trivial_cocycle(h).values)
    for g, k in itertools.product(range(group.order), repeat=2):
        expected = ring.var(g) * ring.var(k) * ring.var(group.mul(g, k), -1)
        assert sig[g][k] == expected


def test_unit_argument_scales_the_unit_generator():
    h = taft(3)
    ring = t_ring(h)
    sig = lifted_cocycle(h, trivial_cocycle(h).values)
    u = h.unit_index
    for b in range(h.dim):
        expected = ring.var(u) * h.counit[b]
        assert sig[u][b] == expected
        assert sig[b][u] == expected


def test_taft2_diagonal_value_and_inverse():
    h = taft(2)
    ring = t_ring(h)
    alpha = trivial_cocycle(h)
    x = h.index_of("x")
    assert lifted_cocycle(h, alpha.values)[x][x] == ring.var(1, 2) * ring.var(0, -1)
    inv = lifted_cocycle(h, alpha.inverse_values, right=True)
    assert inv[x][x] == ring.var(0) * ring.var(1, -2)


class MatrixPair:
    """Two basis matrices read as a cocycle alpha(i, j) and its inverse
    alpha.inverse(i, j), the interface of the reference routines; they
    need not be a cocycle and its inverse."""

    def __init__(self, values, inverse_values):
        self.values, self.inverse_values = values, inverse_values

    def __call__(self, i, j):
        return self.values[i][j]

    def inverse(self, i, j):
        return self.inverse_values[i][j]


def assert_lifted_cocycle_matches_the_reference(h, alpha):
    """Both matrices of `lifted_cocycle` equal the entry-by-entry
    reference through threefold coproducts, in value and in text."""
    basis = range(h.dim)
    pairs = (
        (lifted_cocycle(h, alpha.values), ref.reference_generic_cocycle),
        (lifted_cocycle(h, alpha.inverse_values, right=True), ref.reference_generic_cocycle_inverse),
    )
    for got, reference in pairs:
        for i in basis:
            for j in basis:
                want = reference(h, alpha, i, j)
                assert got[i][j] == want, (h.name, i, j)
                assert got[i][j].to_text() == want.to_text(), (h.name, i, j)


@pytest.mark.parametrize("name,h", standard_instances(), ids=[n for n, _ in standard_instances()])
def test_lifted_cocycle_matches_the_threefold_coproduct_reference(name, h):
    assert_lifted_cocycle_matches_the_reference(h, trivial_cocycle(h))


@pytest.mark.parametrize("make", [lambda: symmetric(3), lambda: dihedral(4), lambda: cyclic(6)])
@pytest.mark.parametrize("seed", [3, 5])
def test_lifted_cocycle_matches_the_reference_on_coboundaries(make, seed):
    h = group_algebra(make())
    assert_lifted_cocycle_matches_the_reference(h, coboundary_cocycle(h, seed))


@pytest.mark.parametrize(
    "make", [lambda: taft(3), lambda: e_algebra(2), klein_monomial], ids=["taft3", "e2", "klein"]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_lifted_cocycle_matches_the_reference_on_matrices_that_are_not_cocycles(make, seed):
    """The regrouping behind `lifted_cocycle` needs only coassociativity,
    so it holds for any pair of matrices: here seeded ones, about a third
    zero, with powers of q among the other entries."""
    h = make()
    field = h.field
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.35:
            return field.zero
        return field.q ** rng.randrange(field.n) * rng.choice([-3, -2, -1, 1, 2, 3])

    def matrix():
        return [[entry() for _ in range(h.dim)] for _ in range(h.dim)]

    alpha = MatrixPair(matrix(), matrix())
    assert not verify_cocycle_condition(h, alpha.values).ok
    assert_lifted_cocycle_matches_the_reference(h, alpha)


@pytest.mark.parametrize(
    "make",
    [
        lambda: taft(2),
        lambda: e_algebra(1),
        klein_monomial,
        lambda: group_algebra(symmetric(3)),
    ],
)
def test_verify_sigma_passes(make):
    rep = verify_sigma(make())
    assert rep.ok, [c.name for c in rep.failures()]


# --- generator presentations -----------------------------------------------


def test_taft2_generator_set_is_the_quadratic_one():
    h = taft(2)
    ring = t_ring(h)
    pres = gamma_generators(h)
    assert pres.special_case
    assert set(pres.invertible_gens) == {ring.var(0), ring.var(1, 2)}
    assert set(pres.plain_gens) == {ring.var(1) * ring.var(2), ring.var(3)}


def test_taft3_generators_pinned():
    h = taft(3)
    ring = t_ring(h)
    pres = gamma_generators(h)
    assert pres.invertible_gens == (
        ring.var(0),
        ring.var(1) * ring.var(2),
        ring.var(2) * ring.var(1, -2),
    )
    assert pres.plain_gens[0] == ring.var(3) * ring.var(2)
    assert pres.plain_gens[2] == ring.var(5) * ring.var(0)
    assert not pres.special_case


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_taft_generator_counts(n):
    pres = gamma_generators(taft(n))
    assert len(pres.invertible_gens) == n
    assert len(pres.plain_gens) == n * (n - 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_e_generator_counts_and_pairing(n):
    h = e_algebra(n)
    ring = t_ring(h)
    pres = gamma_generators(h)
    assert len(pres.generators) == 2 ** (n + 1)
    assert pres.invertible_gens == (ring.var(0), ring.var(1, 2))
    tx = ring.var(1)
    for b, gen in enumerate(pres.plain_gens, start=2):
        assert gen in (ring.var(b), tx * ring.var(b))


def test_e2_plain_generators_pinned():
    h = e_algebra(2)
    ring = t_ring(h)
    i = h.index_of
    pres = gamma_generators(h)
    tx = ring.var(1)
    assert pres.plain_gens == (
        tx * ring.var(i("y_1")),
        tx * ring.var(i("y_2")),
        ring.var(i("x y_1")),
        ring.var(i("x y_2")),
        ring.var(i("y_{1,2}")),
        tx * ring.var(i("x y_{1,2}")),
    )


def test_monomial_generator_counts():
    h = klein_monomial()
    group = h.family["group"]
    pres = gamma_generators(h)
    assert len(pres.invertible_gens) == group.order
    assert len(pres.plain_gens) == (h.family["n"] - 1) * group.order
    assert len(pres.residue_vars) == 2  # the grading group is a product of two cycles


def test_group_presentation_has_torus_generators_only():
    h = group_algebra(symmetric(3))
    pres = gamma_generators(h)
    assert pres.plain_gens == ()
    assert len(pres.invertible_gens) == 6
    assert len(pres.residue_vars) == 1


@pytest.mark.parametrize(
    "make",
    [lambda: taft(4), lambda: e_algebra(3), klein_monomial, lambda: group_algebra(cyclic(6))],
)
def test_generators_have_degree_zero(make):
    h = make()
    ring = t_ring(h)
    zero = ring.grading_group().identity
    for gen in gamma_generators(h).generators:
        (mon,) = gen.terms
        assert ring.hab_degree(mon) == zero


def test_unknown_family_rejected():
    h = taft(2)
    bare = HopfAlgebra(
        h.field,
        list(h.labels),
        h.mult,
        h.comult,
        list(h.counit),
        unit_index=h.unit_index,
        family={},
    )
    with pytest.raises(UnsupportedFamily):
        gamma_generators(bare)


def test_presentation_is_cached_per_instance():
    h = taft(3)
    assert gamma_generators(h) is gamma_generators(h)


# --- Jacobian certificates -------------------------------------------------


def test_taft3_torus_minor_exact():
    h = taft(3)
    ring = t_ring(h)
    assert torus_minor_determinant(h) == ring.var(2) * ring.var(1, -2) * 3


def test_taft4_torus_minor_exact():
    h = taft(4)
    ring = t_ring(h)
    assert torus_minor_determinant(h) == ring.var(3) * ring.var(1, -5) * 4


@pytest.mark.parametrize("n", range(2, 7))
def test_torus_minor_matches_sympy_jacobian(n):
    # test-only oracle: the exponent matrix A of the invertible generators
    # has det A = n, and the Jacobian of the monomials prod_i t_i^A[j][i]
    # is n*t[x]^(1-n(n-1)/2)*t[x^(n-1)], so a coefficient of -2 at n=4 is
    # impossible
    sympy = pytest.importorskip("sympy")
    h = taft(n)
    cols = list(h.grouplikes)
    ts = sympy.symbols(f"t0:{len(cols)}")
    rows = []
    for gen in gamma_generators(h).invertible_gens:
        (mon,) = gen.terms
        assert {i for i, _ in mon.exps} <= set(cols)
        rows.append([mon.exp_of(v) for v in cols])
    assert sympy.Matrix(rows).det() == n
    monomials = [sympy.Mul(*(t**e for t, e in zip(ts, row))) for row in rows]
    want = sympy.Matrix(monomials).jacobian(ts).det()
    coeffs = {mon: c.coeffs for mon, c in torus_minor_determinant(h).terms.items()}
    assert not any(any(cs[1:]) for cs in coeffs.values())  # no power of q appears
    got = sympy.Add(
        *(
            sympy.Rational(cs[0]) * sympy.Mul(*(ts[cols.index(i)] ** e for i, e in mon.exps))
            for mon, cs in coeffs.items()
        )
    )
    assert sympy.expand(want - got) == 0
    closed = n * ts[1] ** (1 - n * (n - 1) // 2) * ts[n - 1]
    assert sympy.expand(want - closed) == 0


def test_taft2_symbolic_determinant():
    h = taft(2)
    ring = t_ring(h)
    det, ok = jacobian_check(h)
    assert ok
    assert det == ring.var(1, 2) * 2


def test_taft3_determinant_splits_into_minor_and_diagonal():
    h = taft(3)
    ring = t_ring(h)
    det, ok = jacobian_check(h)
    assert ok
    diagonal = ring.one()
    for gen in gamma_generators(h).plain_gens:
        (mon,) = gen.terms
        partner = [(i, e) for i, e in mon.exps if i in set(h.grouplikes)]
        diagonal = diagonal * ring.element({ring.monomial(partner): ring.field.one})
    assert det == torus_minor_determinant(h) * diagonal
    assert det == ring.var(0, 2) * ring.var(2, 3) * 3


@pytest.mark.parametrize(
    "make",
    [lambda: e_algebra(2), klein_monomial, lambda: group_algebra(symmetric(3))],
)
def test_random_point_certificate_is_nonzero(make):
    h = make()
    det, ok = jacobian_check(h, seed=11)
    assert ok
    assert len(det.terms) == 1 and not next(iter(det.terms.values())).is_zero


def test_random_point_certificate_is_seeded():
    h = e_algebra(2)
    assert jacobian_check(h, seed=7)[0] == jacobian_check(h, seed=7)[0]


# --- decomposition ----------------------------------------------------------


def test_taft3_decomposition_pinned():
    h = taft(3)
    ring = t_ring(h)
    target = ring.var(2) * ring.var(3) * ring.var(1, -3)
    [w] = decompose(h, target)
    assert w.invertible_exps == (0, -1, 1)
    assert w.plain_exps == (1, 0, 0, 0, 0, 0)
    assert w.residue_exps == (0,)
    assert w.remultiply() == target


def test_taft2_residue_decomposition_pinned():
    h = taft(2)
    ring = t_ring(h)
    target = ring.var(3) * ring.var(2) * ring.var(0, -1)
    with pytest.raises(NotDegreeZero):
        decompose(h, target)
    w, residue = decompose_with_residue(h, target)
    assert residue == (1,)
    assert w.invertible_exps == (-1, -1)
    assert w.plain_exps == (1, 1)
    assert w.remultiply() == target


@pytest.mark.parametrize(
    "make",
    [lambda: taft(3), lambda: e_algebra(2), klein_monomial, lambda: group_algebra(symmetric(3))],
)
def test_each_generator_decomposes_to_itself(make):
    h = make()
    pres = gamma_generators(h)
    for p, gen in enumerate(pres.plain_gens):
        [w] = decompose(h, gen)
        assert w.plain_exps[p] == 1 and sum(map(abs, w.plain_exps)) == 1
        assert w.invertible_exps == (0,) * len(pres.invertible_gens)
    for p, gen in enumerate(pres.invertible_gens):
        [w] = decompose(h, gen)
        assert w.invertible_exps[p] == 1 and sum(map(abs, w.invertible_exps)) == 1
        assert w.plain_exps == (0,) * len(pres.plain_gens)


def test_element_input_keeps_coefficients():
    h = taft(3)
    ring = t_ring(h)
    pres = gamma_generators(h)
    elem = pres.plain_gens[0] * 5 + pres.invertible_gens[1] * ring.field.q
    ws = decompose(h, elem)
    assert len(ws) == 2
    total = ring.zero()
    for w in ws:
        total = total + w.remultiply()
    assert total == elem


def test_foreign_element_rejected():
    with pytest.raises(RangeError):
        decompose(taft(3), t_ring(taft(2)).var(0))


def _roundtrip_strategy(num_inv, num_plain):
    return st.tuples(
        st.lists(st.integers(-3, 3), min_size=num_inv, max_size=num_inv),
        st.lists(st.integers(0, 3), min_size=num_plain, max_size=num_plain),
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_taft3_decomposition_roundtrip(data):
    h = taft(3)
    pres = gamma_generators(h)
    inv, plain = data.draw(
        _roundtrip_strategy(len(pres.invertible_gens), len(pres.plain_gens))
    )
    target = t_ring(h).one()
    for gen, e in zip(pres.invertible_gens, inv):
        target = target * gen**e
    for gen, e in zip(pres.plain_gens, plain):
        target = target * gen**e
    [w] = decompose(h, target)
    assert w.invertible_exps == tuple(inv)
    assert w.plain_exps == tuple(plain)
    assert w.remultiply() == target


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_e2_residue_roundtrip_on_arbitrary_monomials(data):
    h = e_algebra(2)
    ring = t_ring(h)
    gl = set(h.grouplikes)
    exps = [
        data.draw(st.integers(-3, 3) if v in gl else st.integers(0, 2))
        for v in range(h.dim)
    ]
    mon = ring.monomial([(v, e) for v, e in enumerate(exps) if e])
    w, residue = decompose_with_residue(h, mon)
    assert all(0 <= k for k in residue)
    assert w.remultiply() == ring.element({mon: ring.field.one})


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_monomial_family_residue_roundtrip(data):
    h = klein_monomial()
    ring = t_ring(h)
    gl = set(h.grouplikes)
    exps = [
        data.draw(st.integers(-2, 2) if v in gl else st.integers(0, 2))
        for v in range(h.dim)
    ]
    mon = ring.monomial([(v, e) for v, e in enumerate(exps) if e])
    w, residue = decompose_with_residue(h, mon)
    assert w.remultiply() == ring.element({mon: ring.field.one})
    assert len(residue) == 2


# --- the grading quotient ----------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: taft(2),
        lambda: taft(3),
        lambda: taft(4),
        lambda: e_algebra(1),
        lambda: e_algebra(2),
        lambda: e_algebra(3),
        klein_monomial,
        lambda: group_algebra(symmetric(3)),
        lambda: group_algebra(cyclic(6)),
    ],
)
def test_quotient_presentation_check_passes(make):
    rep = quotient_presentation_check(make())
    assert rep.ok, [(c.name, c.details) for c in rep.failures()]


def test_quadratic_instance_is_flagged():
    rep = quotient_presentation_check(taft(2))
    assert any("hand-picked" in c.name for c in rep.checks)
    assert not any("hand-picked" in c.name for c in quotient_presentation_check(taft(3)).checks)


# --- niceness witnesses -------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: taft(2),
        lambda: taft(3),
        lambda: taft(4),
        lambda: e_algebra(1),
        lambda: e_algebra(2),
        lambda: e_algebra(3),
        klein_monomial,
        lambda: group_algebra(symmetric(3)),
    ],
)
def test_witnesses_cover_generators_and_inverses(make):
    h = make()
    pres = gamma_generators(h)
    wit = niceness_witnesses(h)  # every witness is verified internally
    expected = set(pres.plain_gens)
    for gen in pres.invertible_gens:
        expected.add(gen)
        expected.add(gen.inverse())
    assert set(wit) == expected


def test_taft3_witness_words_pinned():
    h = taft(3)
    ring = t_ring(h)
    one = h.field.one
    wit = niceness_witnesses(h)
    word, dens = wit[ring.var(1) * ring.var(2)]
    assert word.terms == {(1, 2): one}
    assert dens.entries == []
    word, dens = wit[ring.var(0)]
    assert word.terms == {(0, 1, 1, 1): one}
    assert dens.entries == [("grouplike_power", 1)]
    word, dens = wit[ring.var(0).inverse()]
    assert word.terms == {(0, 0): one}
    assert dens.entries == [("unit",)] * 3


def test_taft2_mixed_witness_needs_no_trailing_letter():
    h = taft(2)
    ring = t_ring(h)
    wit = niceness_witnesses(h)
    word, dens = wit[ring.var(3)]
    assert word.terms[(3, 0, 1, 1)] == h.field.one  # head word, no closing letter
    assert dens.entries == [("unit",), ("grouplike_power", 1)]


def test_group_witness_solves_over_product_vectors():
    h = group_algebra(cyclic(6))
    wit = niceness_witnesses(h)
    pres = gamma_generators(h)
    assert len(wit) == 2 * len(pres.invertible_gens)
    for word, dens in wit.values():
        assert len(word.terms) == 1


# --- freeness of the evaluation image ----------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: taft(2),
        lambda: taft(3),
        lambda: taft(4),
        lambda: e_algebra(1),
        lambda: e_algebra(2),
        lambda: e_algebra(3),
        klein_monomial,
        lambda: group_algebra(symmetric(3)),
        lambda: group_algebra(cyclic(6)),
    ],
)
def test_uprime_relations_pass(make):
    rep = uprime_relations_check(make())
    assert rep.ok, [(c.name, c.details) for c in rep.failures()]


def test_uprime_group_letters_name_the_first_pair_off_the_lifted_cocycle(monkeypatch):
    """With two entries of the lifted cocycle altered, the group branch
    names the first of the two pairs in loop order; intact, it passes with
    empty details."""
    h = group_algebra(symmetric(3))
    name = "letters multiply by the lifted cocycle"
    checks = {c.name: c for c in uprime_relations_check(h).checks}
    assert checks[name].passed and checks[name].details == ""
    real = generic_base.lifted_cocycle
    g, k = h.index_of("(2 3)"), h.index_of("(1 3)")

    def altered(hopf, vals, right=False):
        sig = real(hopf, vals, right)
        for a, b in ((k, g), (g, k)):
            sig[a][b] = sig[a][b] * 2
        return sig

    monkeypatch.setattr(generic_base, "lifted_cocycle", altered)
    checks = {c.name: c for c in uprime_relations_check(group_algebra(symmetric(3))).checks}
    assert not checks[name].passed
    assert checks[name].details == "fails at ((2 3), (1 3))"


def test_uprime_reports_expected_rank():
    rep = uprime_relations_check(taft(3))
    assert any("rank 9" in c.name for c in rep.checks)
    rep = uprime_relations_check(e_algebra(2))
    assert any("rank 8" in c.name for c in rep.checks)
