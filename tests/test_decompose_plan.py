"""`generic_base.decompose` on the integer plan of a presentation
(`GammaPresentation.plan`) against the dict-and-`TElement` body it replaced
(`fast_path_reference.reference_decompose_monomial`), and the certificate
that every witness still carries.

- Differential: over taft(2..5), e(1..4), k[S3], k[Z/6], k[D4] and
  monomial(Klein,2), degree-zero monomials built from the generators,
  monomials of any degree with and without the residue form, negative
  exponents on variables that are not group-like, and torus parts outside
  the lattice (on presentations whose invertible generators are squared)
  give the same witness, or the same exception type and message.
- `TRing.hab_degree` on the shared degree pairs equals the fold through
  `FiniteAbelianGroup.combination`.
- The certificate is live: at a field width of 4 bits the key sums of the
  witnesses leave the carry-free range and are multiplied back exactly,
  so a wrong witness whose key sum carries onto the monomial's key is
  refused; and a plan with one corrupted generator key or coefficient makes
  `decompose` raise WitnessFailure instead of returning a witness.
"""

import re

import fast_path_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgen import generic_base, tring
from hopfgen.arith import make_field
from hopfgen.errors import NotDegreeZero, OutOfLocalization, RangeError, WitnessFailure
from hopfgen.generic_base import (
    DecompositionPlan,
    GammaPresentation,
    _decompose_monomial,
    decompose,
    decompose_with_residue,
    gamma_generators,
)
from hopfgen.groups import character_from_exponents, cyclic, direct_product, group_from_spec
from hopfgen.hopf import e_algebra, group_algebra, monomial_type_i, taft
from hopfgen.tring import TMonomial, power_product, t_ring


def klein_monomial():
    g = direct_product(cyclic(2), cyclic(2))
    f = make_field(2)
    chi = character_from_exponents(g, f, [0, 0, 1, 1])
    return monomial_type_i(g, g.index_of("(a,e)"), chi, f)


BUILDERS = {
    **{f"taft({n})": (lambda n=n: taft(n)) for n in range(2, 6)},
    **{f"e({n})": (lambda n=n: e_algebra(n)) for n in range(1, 5)},
    "k[S3]": lambda: group_algebra(group_from_spec("sym:3")),
    "k[Z/6]": lambda: group_algebra(group_from_spec("cyclic:6")),
    "k[D4]": lambda: group_algebra(group_from_spec("dihedral:4")),
    "monomial(Klein,2)": klein_monomial,
}
INSTANCES = {name: build() for name, build in BUILDERS.items()}


def _squared(build):
    """A fresh instance whose presentation has every invertible generator
    squared: its torus lattice has index 2^rank in the degree-zero one, so
    a degree-zero monomial can have a torus part outside it."""
    h = build()
    pres = gamma_generators(h)
    h._presentation = GammaPresentation(
        h,
        pres.family_tag,
        tuple(g * g for g in pres.invertible_gens),
        pres.plain_gens,
        pres.residue_vars,
        pres.special_case,
    )
    return h


SQUARED = {
    name: _squared(BUILDERS[name]) for name in ("taft(3)", "e(2)", "k[S3]", "monomial(Klein,2)")
}


def outcome(decomposer, h, mon, coeff, allow_residue):
    try:
        return decomposer(h, mon, coeff, allow_residue)
    except (NotDegreeZero, OutOfLocalization, RangeError, WitnessFailure) as err:
        return type(err), str(err)


def assert_same(h, mon, coeff, allow_residue):
    got = outcome(_decompose_monomial, h, mon, coeff, allow_residue)
    want = outcome(ref.reference_decompose_monomial, h, mon, coeff, allow_residue)
    assert got == want, (mon, allow_residue)
    return got


@st.composite
def coefficients(draw, field):
    nums = draw(st.lists(st.integers(-3, 3), min_size=field.degree, max_size=field.degree))
    c = field.from_coeffs(nums)
    return c if c else field.one


@st.composite
def generator_monomials(draw, h):
    """A product of the generators: invertible ones to any power, plain
    ones to nonnegative powers, and the residue variables to any power."""
    pres = gamma_generators(h)
    ring = t_ring(h)
    factors = [(next(iter(g.terms)), draw(st.integers(-3, 3))) for g in pres.invertible_gens]
    factors += [(next(iter(g.terms)), draw(st.integers(0, 3))) for g in pres.plain_gens]
    if draw(st.booleans()):
        factors += [(ring.monomial(((v, 1),)), draw(st.integers(-2, 2))) for v in pres.residue_vars]
    return power_product(factors, ring.width)


@st.composite
def any_monomials(draw, h):
    """Any exponent on a group-like variable; on the others mostly
    nonnegative ones, and now and then a negative one, which leaves the
    localization.  Packed without the ring's localization check."""
    ring = t_ring(h)
    gl = ring.grouplike_set

    def exponent(v):
        if v in gl:
            return st.integers(-3, 3)
        return st.integers(-1, 3) if draw(st.booleans()) else st.integers(0, 2)

    return TMonomial([(v, draw(exponent(v))) for v in range(h.dim)], ring.width)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(("generators", "any", "outside")))
    if kind == "outside":
        h = SQUARED[draw(st.sampled_from(sorted(SQUARED)))]
        mon = draw(st.one_of(generator_monomials(h), any_monomials(h)))
    else:
        h = INSTANCES[draw(st.sampled_from(sorted(INSTANCES)))]
        mon = draw(generator_monomials(h) if kind == "generators" else any_monomials(h))
    return h, mon, draw(coefficients(h.field)), draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(cases())
def test_decompose_matches_the_reference(case):
    assert_same(*case)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_generators_and_their_products_match_the_reference(name):
    h = INSTANCES[name]
    pres = gamma_generators(h)
    one = h.field.one
    mons = [next(iter(g.terms)) for g in pres.generators]
    for mon in mons + [a.mul(b) for a in mons for b in mons[:3]]:
        for allow_residue in (False, True):
            assert not isinstance(assert_same(h, mon, one, allow_residue), tuple)


@pytest.mark.parametrize("name", [name for name in sorted(INSTANCES) if not name.startswith("k[")])
def test_a_negative_exponent_with_a_nonzero_degree_raises_as_the_reference(name):
    """The degree is checked before the localization: a monomial with a
    nonzero degree and a negative exponent on a variable that is not
    group-like raises NotDegreeZero, or in the residue form
    OutOfLocalization, as before."""
    h = INSTANCES[name]
    ring = t_ring(h)
    others = [v for v in range(h.dim) if v not in ring.grouplike_set]
    seen = set()
    for v in others[:6]:
        for g in h.grouplikes:
            mon = TMonomial(((v, -1), (g, 1)), ring.width)
            for allow_residue in (False, True):
                got = assert_same(h, mon, h.field.one, allow_residue)
                if any(ring.hab_degree(mon)):
                    seen.add(got[0])
    assert seen == {NotDegreeZero, OutOfLocalization}


@pytest.mark.parametrize("name", sorted(SQUARED))
def test_a_torus_part_outside_the_lattice_raises_as_the_reference(name):
    h = SQUARED[name]
    ring = t_ring(h)
    for g in h.grouplikes:
        for allow_residue in (False, True):
            assert_same(h, ring.monomial(((g, 1),)), h.field.one, allow_residue)
    mon = next(iter(gamma_generators(BUILDERS[name]()).invertible_gens[-1].terms))
    mon = ring.monomial(mon.exps)
    got = assert_same(h, mon, h.field.one, False)
    assert got == (NotDegreeZero, "torus part lies outside the degree-zero lattice")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(INSTANCES)), st.data())
def test_hab_degree_matches_the_combination_fold(name, data):
    h = INSTANCES[name]
    ring = t_ring(h)
    mon = data.draw(any_monomials(h))
    assert ring.hab_degree(mon) == ref.reference_hab_degree(ring, mon)


# -- the certificate -------------------------------------------------------------


def test_witnesses_past_the_carry_free_bound_are_multiplied_back_exactly(monkeypatch):
    """At 4 bits a field holds exponents of absolute value below 8, so
    sums of generator bounds times exponents pass 2^(w-1) although every
    exponent of the product fits: the certificate sums the exponents
    through `power_product` there."""
    monkeypatch.setattr(tring, "DEFAULT_WIDTH", 4)
    h = taft(3)
    ring = t_ring(h)
    assert ring.width == 4
    pres = gamma_generators(h)
    exact = []
    real = generic_base.power_product

    def counted(factors, width):
        exact.append(len(factors))
        return real(factors, width)

    monkeypatch.setattr(generic_base, "power_product", counted)
    checked = 0
    for e1 in range(-3, 4):
        for e2 in range(-3, 4):
            # t[1]^(e1 - 2 e2) t[2]^(e1 + e2 + 1) t[3]: skip what leaves a field
            if abs(e1 - 2 * e2) >= 8:
                continue
            inv = pres.invertible_gens
            target = inv[1] ** e1 * inv[2] ** e2 * pres.plain_gens[0]
            bounds = [b for _, b, _ in pres.plan.generators]
            wide = bounds[1] * abs(e1) + bounds[2] * abs(e2) + bounds[3] >= 8
            before = len(exact)
            [w] = decompose(h, target)
            assert (len(exact) > before) == wide
            assert (w.invertible_exps, w.plain_exps) == ((0, e1, e2), (1,) + (0,) * 5)
            assert w.remultiply() == target
            checked += wide
    assert checked >= 10


class _WrongLattice:
    """A torus lattice whose solve returns a fixed coefficient vector."""

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def solve(self, target):
        return list(self.coeffs)


def test_a_key_sum_that_carries_is_not_taken_for_the_monomial(monkeypatch):
    """At 4 bits the generator t[x] t[x^2] of taft(3) has key 16 + 256 =
    272 and the generator t[1] has key 1: a witness with exponent 272 on
    t[1] sums to the same key, but its product leaves the field of t[1].
    Past the carry-free bound the exponents are summed exactly, which
    raises RangeError, as the old `TElement` comparison did."""
    monkeypatch.setattr(tring, "DEFAULT_WIDTH", 4)
    h = taft(3)
    ring = t_ring(h)
    pres = gamma_generators(h)
    mon = next(iter(pres.invertible_gens[1].terms))
    assert pres.plan.generators[0][0] == 1 and mon.key == 272
    monkeypatch.setitem(pres.__dict__, "torus_lattice", _WrongLattice([272, 0, 0]))
    got = assert_same(h, mon, h.field.one, False)
    assert got == (RangeError, "exponent 272 of t[0] leaves its packed field of 4 bits")
    with pytest.raises(RangeError):
        decompose(h, ring.element({mon: h.field.one}))


def _with(plan, **changes) -> DecompositionPlan:
    fields = {name: getattr(plan, name) for name in DecompositionPlan.__slots__}
    fields.update(changes)
    return DecompositionPlan(**fields)


def test_a_corrupted_generator_key_fails_the_certificate(monkeypatch):
    h = taft(3)
    ring = t_ring(h)
    pres = gamma_generators(h)
    plan = pres.plan
    gens = list(plan.generators)
    key, bound, coeff = gens[3]
    gens[3] = (key + ring.monomial(((0, 1),)).key, bound, coeff)
    monkeypatch.setitem(pres.__dict__, "plan", _with(plan, generators=tuple(gens)))
    assert pres.plan is not plan
    returned = []
    with pytest.raises(WitnessFailure, match=re.escape("re-multiplication mismatch")):
        returned.append(decompose(h, pres.plain_gens[0] * pres.invertible_gens[1]))
    assert returned == []
    with pytest.raises(WitnessFailure):
        decompose_with_residue(h, pres.plain_gens[0] * ring.var(1))
    # a witness that does not use the corrupted generator is still certified
    [w] = decompose(h, pres.plain_gens[1] * pres.invertible_gens[1])
    assert w.remultiply() == pres.plain_gens[1] * pres.invertible_gens[1]


def test_a_corrupted_generator_coefficient_fails_the_certificate(monkeypatch):
    h = e_algebra(2)
    pres = gamma_generators(h)
    plan = pres.plan
    gens = list(plan.generators)
    key, bound, _ = gens[0]
    gens[0] = (key, bound, h.field.scalar(2))
    monkeypatch.setitem(pres.__dict__, "plan", _with(plan, generators=tuple(gens)))
    with pytest.raises(WitnessFailure, match=re.escape("re-multiplication mismatch: 4*")):
        decompose(h, pres.invertible_gens[0] ** 2)
    [w] = decompose(h, pres.invertible_gens[1])
    assert w.invertible_exps == (0, 1)
