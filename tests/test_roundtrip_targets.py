"""The round-trip targets of criterion 6, built as one `power_product` of the
generators' packed keys (`selftest._roundtrip_target`), against the chain
of `TElement` powers and products they replaced
(`fast_path_reference.reference_roundtrip_target`), and the checks that
make the criterion's verdict mean something.

- Differential: on every instance of `DECOMPOSE_NAMES`, every draw of the
  seeds 0-7 that the benchmark roster runs gives the same element as the
  chain, and leaves the `Random` state where the chain leaves it, so the
  draws are unchanged.  Generators with coefficients other than one
  (no roster presentation has them) are covered on a rescaled taft(3).
- The drawn exponents are the only witness: every instance's torus rows
  have full rank (sympy oracle), and each plain generator owns its own
  variable off the torus.
- Mutations: a decomposition with one exponent shifted by one, built
  directly so that no certificate sees it, fails the criterion on its
  instance, also where its `remultiply()` is forged to return the target;
  a residue witness with a shifted residue exponent fails the residue half.
"""

import random

import fast_path_reference as ref
import pytest
import sympy

from hopfgen import selftest
from hopfgen.generic_base import DecompositionWitness, GammaPresentation, gamma_generators
from hopfgen.tring import t_ring

SEEDS = range(8)
ROUNDTRIP_CHECK = "200 degree-zero monomials remultiply exactly: {}"
RESIDUE_CHECK = "50 arbitrary monomials split as base times bounded residue: taft(3)"


def _draws_agree(name, pres, seed):
    ring = t_ring(pres.hopf)
    packed = random.Random(f"{seed}:roundtrip:{name}")
    chain = random.Random(f"{seed}:roundtrip:{name}")
    for _ in range(200):
        elem, (inv, plain) = selftest._roundtrip_target(packed, ring, pres)
        assert elem == ref.reference_roundtrip_target(chain, ring, pres)
        assert packed.getstate() == chain.getstate()
        assert (len(inv), len(plain)) == (len(pres.invertible_gens), len(pres.plain_gens))


@pytest.mark.parametrize("name", selftest.DECOMPOSE_NAMES)
def test_packed_targets_equal_the_chain_on_every_roster_seed(name):
    pres = gamma_generators(selftest._instance(name))
    for seed in SEEDS:
        _draws_agree(name, pres, seed)


def test_packed_targets_carry_the_generators_coefficients():
    h = selftest._instance("taft(3)")
    pres = gamma_generators(h)
    field = h.field
    scales = [field.q, field.scalar(2), field.scalar(-3) * field.q, field.one]

    def rescaled(gens, offset):
        return tuple(g * scales[(i + offset) % len(scales)] for i, g in enumerate(gens))

    scaled = GammaPresentation(
        h,
        pres.family_tag,
        rescaled(pres.invertible_gens, 0),
        rescaled(pres.plain_gens, 1),
        pres.residue_vars,
    )
    assert sum(c is not None for _, c in scaled.factors) > len(scaled.factors) // 2
    _draws_agree("taft(3)", scaled, 0)


@pytest.mark.parametrize("name", selftest.DECOMPOSE_NAMES)
def test_the_drawn_exponents_are_the_only_witness(name):
    pres = gamma_generators(selftest._instance(name))
    rows = pres.torus_rows
    assert sympy.Matrix(rows).rank() == len(rows)
    # each plain generator holds one variable off the torus, and no other does
    assert len(pres.plain_owner) == len(pres.plain_gens)


def _shift_first(exps):
    return (exps[0] + 1,) + exps[1:]


def _shifted(w, part):
    inv, plain, residue = w.invertible_exps, w.plain_exps, w.residue_exps
    if part == "invertible":
        inv = _shift_first(inv)
    elif part == "plain":
        plain = _shift_first(plain)
    else:
        residue = _shift_first(residue)
    return DecompositionWitness(w.presentation, w.coefficient, inv, plain, residue)


def _failures(rep):
    return [(c.name, c.details) for c in rep.failures()]


@pytest.mark.parametrize("part", ["invertible", "plain"])
def test_a_shifted_exponent_fails_the_criterion(monkeypatch, part):
    target = selftest._instance("taft(4)")
    real = selftest.decompose

    def mutated(h, elem):
        wits = real(h, elem)
        return [_shifted(w, part) for w in wits] if h is target else wits

    monkeypatch.setattr(selftest, "decompose", mutated)
    rep = selftest.criterion_6(0)
    assert _failures(rep) == [(ROUNDTRIP_CHECK.format("taft(4)"), "200 failures")]


def test_a_shifted_exponent_fails_even_where_it_remultiplies_to_the_target(monkeypatch):
    target = selftest._instance("taft(2)")
    real = selftest.decompose
    remultiply = DecompositionWitness.remultiply
    forged = {}

    def mutated(h, elem):
        wits = real(h, elem)
        if h is not target:
            return wits
        out = [_shifted(w, "invertible") for w in wits]
        forged.update(dict.fromkeys(out, elem))
        return out

    monkeypatch.setattr(selftest, "decompose", mutated)
    monkeypatch.setattr(
        DecompositionWitness, "remultiply", lambda w: forged[w] if w in forged else remultiply(w)
    )
    rep = selftest.criterion_6(0)
    assert _failures(rep) == [(ROUNDTRIP_CHECK.format("taft(2)"), "200 failures")]


def test_a_shifted_residue_exponent_fails_the_residue_half(monkeypatch):
    real = selftest.decompose_with_residue

    def mutated(h, elem):
        wit, residue = real(h, elem)
        return _shifted(wit, "residue"), residue

    monkeypatch.setattr(selftest, "decompose_with_residue", mutated)
    rep = selftest.criterion_6(0)
    assert _failures(rep) == [(RESIDUE_CHECK, "50 failures")]
