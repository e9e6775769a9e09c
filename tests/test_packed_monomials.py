"""Differential tests of the packed monomial keys of `tring` against the
sorted exponent tuples they replaced (`fast_path_reference.py`).

- Over rings of 1 to 64 variables: products, powers (k = -3..3), inverses,
  `exp_of`, `exps`, the sort order, and the text and terms of elements.
- At the field boundary: the largest admitted exponent packs, multiplies
  and powers exactly; one more raises RangeError and never wraps, also
  through the command line (exit 2).
- `DecompositionWitness.remultiply`, one integer combination of keys,
  against ring arithmetic on every roster instance that criterion 6 uses.
- The same boundary in a ring element whose terms carry a power of q: the
  q field above the variable fields neither hides nor causes an overflow.
- Operands from two instances raise RangeError before any work.
"""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import fast_path_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgen.arith import make_field
from hopfgen.errors import OutOfLocalization, RangeError
from hopfgen.generic_base import DecompositionWitness, gamma_generators
from hopfgen.groups import cyclic
from hopfgen.hopf import MAX_DIM, group_algebra, taft
from hopfgen.selftest import DECOMPOSE_NAMES, standard_instances
from hopfgen.tring import (
    DEFAULT_WIDTH,
    TElement,
    TensorH,
    TMonomial,
    field_width,
    power_product,
    t_ring,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@functools.lru_cache(maxsize=None)
def ring_of(dim: int):
    """A coordinate ring in `dim` variables: of the group algebra of a
    cyclic group, where every variable is group-like, up to the group order
    cap; of taft(8) at 64."""
    return t_ring(taft(8) if dim == 64 else group_algebra(cyclic(dim)))


@st.composite
def monomial_pairs(draw, dim):
    """A monomial in `dim` variables packed at the width of a ring of `dim`
    variables, and the reference monomial of the same exponents; exponents
    stay far enough inside the field that the sums and powers of the tests
    below still fit."""
    lim = (1 << (field_width(dim) - 1)) // 64
    e = st.integers(-lim, lim) | st.integers(-9, 9)
    pairs = draw(st.lists(st.tuples(st.integers(0, dim - 1), e), max_size=8))
    return TMonomial(pairs, field_width(dim)), ref.ReferenceMonomial.from_pairs(pairs)


@st.composite
def dims_and_pairs(draw, count, dims=st.integers(1, MAX_DIM)):
    dim = draw(dims)
    return dim, [draw(monomial_pairs(dim)) for _ in range(count)]


def same(m: TMonomial, r: ref.ReferenceMonomial, dim: int) -> None:
    assert m.exps == r.exps
    assert [m.exp_of(i) for i in range(-1, dim + 1)] == [r.exp_of(i) for i in range(-1, dim + 1)]
    assert m == TMonomial(r.exps, m.width) and hash(m) == hash(TMonomial(r.exps, m.width))


@settings(max_examples=300, deadline=None)
@given(dims_and_pairs(3))
def test_products_powers_and_inverses_match_the_sorted_tuples(case):
    dim, ((a, ra), (b, rb), (c, rc)) = case
    for m, r in ((a, ra), (b, rb), (c, rc)):
        same(m, r, dim)
        same(m.inverse(), r.pow(-1), dim)
        for k in range(-3, 4):
            same(power_product([(m, k)], m.width), r.pow(k), dim)
    same(a.mul(b), ra.mul(rb), dim)
    same(a.mul(b).mul(c), ra.mul(rb).mul(rc), dim)
    same(a.mul(a.inverse()), ra.mul(ra.pow(-1)), dim)
    same(power_product([(a, 2), (b, -3), (c, 1)], a.width), ra.pow(2).mul(rb.pow(-3)).mul(rc), dim)


@settings(max_examples=200, deadline=None)
@given(dims_and_pairs(6, st.integers(1, 48) | st.just(64)))
def test_sort_order_and_text_match_the_sorted_tuples(case):
    dim, pairs = case
    ring = ring_of(dim)
    if dim == 64:
        # taft(8) admits negative exponents on its eight group-likes only
        pairs = [(m, r) for m, r in pairs if all(e > 0 or i < 8 for i, e in r.exps)]
    assert [m.exps for m in sorted(m for m, _ in pairs)] == [r.exps for r in sorted(r for _, r in pairs)]
    assert all((a < b) == (ra < rb) for a, ra in pairs for b, rb in pairs)
    field = ring.field
    terms, rterms = {}, {}
    for n, (m, r) in enumerate(pairs):
        terms[m] = rterms[r] = field.scalar(n - 2) or field.one
    elem = TElement(ring, terms)
    assert elem.to_text() == ref.reference_to_text(ring.hopf.labels, rterms)
    assert [m.exps for m in elem.terms] == [r.exps for r in rterms]
    assert ring.element(elem.terms) == elem


@pytest.mark.parametrize("dim", [1, 4, 9, 16, 32, 33, 48, 64])
def test_the_largest_admitted_exponent_works_and_the_next_raises(dim):
    ring = ring_of(dim)
    w = ring.width
    assert w == field_width(dim) and 16 <= w <= DEFAULT_WIDTH
    top = (1 << (w - 1)) - 1
    v = dim - 1
    high = ring.monomial([(v, top)])
    low = TMonomial([(v, -top)], w)
    assert high.exps == ((v, top),) and low.exps == ((v, -top),)
    assert high.exp_of(v) == top and low.exp_of(v) == -top
    one = ring.monomial([(v, 1)])
    # bounds past the field, exponents inside it: summed exactly
    assert high.mul(one.inverse()).exps == ((v, top - 1),)
    assert high.mul(low) == ring.monomial(()) == TMonomial((), w)
    assert ring.monomial([(v, top - 1)]).mul(one) == high
    for bad in (
        lambda: ring.monomial([(v, top + 1)]),
        lambda: TMonomial([(v, -top - 1)], w),
        lambda: high.mul(one),
        lambda: low.mul(one.inverse()),
        lambda: power_product([(one, top + 1)], w),
        lambda: power_product([(high, 2)], w),
        lambda: power_product([(high, 1), (one, 1)], w),
        lambda: ring.var(v, top) * ring.var(v),
        lambda: ring.var(v) ** (top + 1),
    ):
        with pytest.raises(RangeError, match="packed field"):
            bad()


@pytest.mark.parametrize("dim", [1, 4, 9, 16, 32, 33, 48, 64])
def test_an_exponent_leaving_its_field_raises_beside_a_power_of_q(dim):
    """Elements over a field of degree two or more, whose term keys carry
    the exponent of q in the field above the variable fields."""
    h = taft(8) if dim == 64 else group_algebra(cyclic(dim), make_field(4))
    ring = t_ring(h)
    field = ring.field
    assert field.degree >= 2
    top = (1 << (ring.width - 1)) - 1
    # v is the variable right below the q field, g a group-like one (the
    # same variable except in taft(8), whose last variable is no group-like)
    v, g = dim - 1, h.grouplikes[-1]
    q = ring.scalar(field.q)
    # a power of q past n wraps to q^(k mod n), not into a variable field
    assert q ** (field.n + 1) == q and (q ** (10**6 * field.n)) == ring.one()
    high = ring.var(v, top) * q
    low = ring.var(g, -top) * (q + 1)
    assert high.terms == {ring.monomial([(v, top)]): field.q}
    assert (ring.var(v, top - 1) * q) * (ring.var(v) * q) == ring.var(v, top) * q**2
    assert ring.var(g, top) * q * low == q * (q + 1)
    assert ring.var(g, top) * q * ring.var(g, -1) == ring.var(g, top - 1) * q
    for bad in (
        lambda: high * ring.var(v),
        lambda: high * (ring.var(v) + q),
        lambda: low * (ring.var(g, -1) * q),
        lambda: (ring.var(v) * q) ** (top + 1),
        lambda: high**2,
        lambda: (high + q) ** 2,
    ):
        with pytest.raises(RangeError, match="packed field"):
            bad()


def test_ring_free_monomials_pack_with_the_default_width():
    top = (1 << (DEFAULT_WIDTH - 1)) - 1
    assert TMonomial([(3, top)]).exp_of(3) == top
    with pytest.raises(RangeError, match="packed field"):
        TMonomial([(3, top + 1)])
    with pytest.raises(RangeError):
        TMonomial([(-1, 1)])
    with pytest.raises(RangeError):
        TMonomial([(MAX_DIM, 1)])
    # the same exponents packed at another width are another ring's monomial
    wide, narrow = ring_of(4).monomial([(1, 1)]), ring_of(64).monomial([(1, 1)])
    assert wide.exps == narrow.exps and wide != narrow
    with pytest.raises(RangeError, match="different field widths"):
        wide.mul(narrow)


def test_an_exponent_past_its_field_exits_2_through_the_command_line():
    k = 1 << (field_width(4) - 1)
    proc = subprocess.run(
        [sys.executable, "-m", "hopfgen", "identity", "--family", "taft:2",
         "--poly", f"X[x]^{k}", "--cap", str(k)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 2, proc.stdout
    assert "packed field" in proc.stderr


# -- remultiply ----------------------------------------------------------------

DECOMPOSE = {name: h for name, h in standard_instances() if name in DECOMPOSE_NAMES}


@st.composite
def witnesses(draw):
    h = DECOMPOSE[draw(st.sampled_from(DECOMPOSE_NAMES))]
    pres = gamma_generators(h)
    field = h.field
    coeff = field.from_coeffs(
        draw(st.lists(st.integers(-3, 3), min_size=field.degree, max_size=field.degree))
    )
    return DecompositionWitness(
        pres,
        coeff,
        tuple(draw(st.integers(-4, 4)) for _ in pres.invertible_gens),
        tuple(draw(st.integers(-1, 4)) for _ in pres.plain_gens),
        tuple(draw(st.integers(-3, 3)) for _ in pres.residue_vars),
    )


@settings(max_examples=200, deadline=None)
@given(witnesses())
def test_remultiply_matches_ring_arithmetic(witness):
    try:
        want = ref.reference_remultiply(witness)
    except OutOfLocalization as err:
        with pytest.raises(OutOfLocalization, match=re.escape(str(err))):
            witness.remultiply()
        return
    got = witness.remultiply()
    assert got == want and got.to_text() == want.to_text()


def test_remultiply_scales_a_generator_coefficient():
    h = taft(3)
    pres = gamma_generators(h)
    ring = t_ring(h)
    three = h.field.scalar(3)
    gens = (pres.invertible_gens[0] * three,) + pres.invertible_gens[1:]
    scaled = type(pres)(h, pres.family_tag, gens, pres.plain_gens, pres.residue_vars)
    for e in (-2, 3):
        w = DecompositionWitness(scaled, h.field.one, (e, 1, 0), (0,) * len(pres.plain_gens), (0,))
        assert w.remultiply() == ref.reference_remultiply(w)
        assert next(iter(w.remultiply().terms.values())) == three**e
    assert DecompositionWitness(pres, h.field.zero, (1, 0, 0), (0,) * 6, (0,)).remultiply() == ring.zero()


# -- owners --------------------------------------------------------------------


def test_tensors_refuse_coordinates_of_another_instance():
    a, b = taft(3), taft(3)
    x = TensorH.from_element(t_ring(a), a, t_ring(a).var(1), 1)
    with pytest.raises(RangeError, match="TensorH operands over different algebras"):
        x.scale(t_ring(b).var(8))
    with pytest.raises(RangeError, match="TensorH operands over different algebras"):
        t_ring(b).var(8) * x
    with pytest.raises(RangeError, match="TensorH operands over different algebras"):
        TensorH(t_ring(a), b, {})
    with pytest.raises(RangeError, match="TensorH operands over different algebras"):
        TensorH.from_element(t_ring(a), a, t_ring(b).var(1), 0)

