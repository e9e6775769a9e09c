"""Cocycle layer: normalization, condition, inverses, twists, laziness."""

import pytest

from fast_path_reference import twisted_coinvariants
from hopfgen.cocycle import (
    TwoCocycle,
    coboundary_cocycle,
    convolution_inverse,
    cotwist_hopf,
    is_lazy,
    trivial_cocycle,
    twisted_algebra,
    verify_cocycle_condition,
)
from hopfgen.errors import CocycleMismatch, NotInvertible, RangeError, UnsupportedFamily
from hopfgen.groups import alternating, cyclic, dihedral, symmetric
from hopfgen.hopf import (
    associator,
    check_product,
    e_algebra,
    group_algebra,
    structure_equal,
    taft,
)


def test_trivial_cocycle_values():
    h = taft(3)
    a = trivial_cocycle(h)
    assert a(0, 0) == h.field.one
    assert a(h.index_of("x"), h.index_of("y")).is_zero
    assert a.inverse_values == a.values


def test_trivial_cocycle_condition_holds():
    for h in (taft(2), taft(3), e_algebra(2), group_algebra(symmetric(3))):
        rep = verify_cocycle_condition(h, trivial_cocycle(h))
        assert rep.ok, rep.failures()


def test_normalization_rejected():
    h = taft(2)
    vals = [row[:] for row in trivial_cocycle(h).values]
    vals[h.index_of("x")][h.unit_index] = h.field.zero
    with pytest.raises(RangeError):
        TwoCocycle(h, vals, check=False)


def _perturbed_trivial(h):
    vals = [row[:] for row in trivial_cocycle(h).values]
    vals[h.index_of("x")][h.index_of("y")] = h.field.one
    return vals


def test_cocycle_condition_counterexample_reported():
    h = taft(2)
    rep = verify_cocycle_condition(h, _perturbed_trivial(h))
    assert not rep.ok
    assert any("fails at" in c.details for c in rep.failures())
    with pytest.raises(RangeError):
        TwoCocycle(h, _perturbed_trivial(h))


def test_is_lazy():
    h = taft(2)
    assert is_lazy(h, trivial_cocycle(h))
    assert not is_lazy(h, _perturbed_trivial(h))
    s3 = group_algebra(symmetric(3))
    assert is_lazy(s3, coboundary_cocycle(s3, seed=7))


def test_convolution_inverse_general_path():
    h = taft(2)
    vals = trivial_cocycle(h).values
    inv = convolution_inverse(h, vals)
    assert inv == vals


def test_convolution_inverse_group_diagonal():
    s3 = group_algebra(symmetric(3))
    a = coboundary_cocycle(s3, seed=3)
    inv = a.inverse_values
    one = s3.field.one
    for g in range(s3.dim):
        for h_ in range(s3.dim):
            assert a(g, h_) * inv[g][h_] == one


def _reciprocals(h, alpha):
    """The convolution inverse of a cocycle on a group algebra, whose
    coproduct is diagonal: the entrywise reciprocal."""
    return [[h.field.one / v for v in row] for row in alpha.values]


@pytest.mark.parametrize(
    "group",
    [cyclic(n) for n in range(1, 13)] + [symmetric(3), dihedral(4), alternating(4)],
    ids=[f"Z{n}" for n in range(1, 13)] + ["S3", "D4", "A4"],
)
def test_convolution_inverse_on_group_algebras_is_the_reciprocal(group):
    h = group_algebra(group)
    for seed in range(5):
        alpha = coboundary_cocycle(h, seed)
        assert convolution_inverse(h, alpha) == _reciprocals(h, alpha)


def test_convolution_inverse_rejects_zero_form():
    s3 = group_algebra(symmetric(3))
    zero = s3.field.zero
    vals = [[zero] * s3.dim for _ in range(s3.dim)]
    with pytest.raises(NotInvertible):
        convolution_inverse(s3, vals)


def test_twisted_algebra_trivial_is_identity():
    h = taft(2)
    tw = twisted_algebra(h, trivial_cocycle(h))
    assert tw.mult == h.mult
    coin = twisted_coinvariants(tw)
    assert len(coin) == 1
    assert set(coin[0]) == {h.unit_index}
    # the twisted algebra keeps the coaction of h: 1 is coinvariant, y is not
    one = h.field.one
    assert h.comult_dict({h.unit_index: one}) == {(h.unit_index, h.unit_index): one}
    assert h.comult_dict({h.index_of("y"): one}) != {(h.index_of("y"), h.unit_index): one}


def test_twisted_algebra_coboundary_coinvariants():
    s3 = group_algebra(symmetric(3))
    tw = twisted_algebra(s3, coboundary_cocycle(s3, seed=11))
    coin = twisted_coinvariants(tw)
    assert len(coin) == 1
    assert set(coin[0]) == {s3.unit_index}


@pytest.mark.parametrize(
    "make",
    [
        lambda: taft(2),
        lambda: taft(3),
        lambda: e_algebra(2),
        lambda: group_algebra(cyclic(6)),
        lambda: group_algebra(symmetric(3)),
    ],
    ids=["taft2", "taft3", "e2", "kZ6", "kS3"],
)
def test_cotwist_by_trivial_is_identity(make):
    h = make()
    out = cotwist_hopf(h, trivial_cocycle(h))
    assert structure_equal(out, h)
    assert out.family == h.family
    assert out.name == h.name


def test_cotwist_group_algebra_by_coboundary():
    s3 = group_algebra(symmetric(3))
    a = coboundary_cocycle(s3, seed=5)
    out = cotwist_hopf(s3, a)
    assert structure_equal(out, s3)
    assert out.family["kind"] == "group"


def test_coboundary_needs_group_algebra():
    with pytest.raises(UnsupportedFamily):
        coboundary_cocycle(taft(2), seed=1)


def test_twists_take_a_cocycle_of_the_same_instance_only():
    h = taft(2)
    alpha = trivial_cocycle(h)
    other = trivial_cocycle(taft(2))
    for twist in (twisted_algebra, cotwist_hopf):
        for bad in (alpha.values, other):
            with pytest.raises(CocycleMismatch):
                twist(h, bad)
    assert twisted_algebra(h, alpha).mult == h.mult


def test_twisted_algebra_names_the_first_nonassociative_triple():
    h = group_algebra(cyclic(3))
    f = h.field
    u = h.unit_index
    vals = [
        [h.counit[i] if u in (i, j) else f.scalar(1 + i + 2 * j) for j in range(h.dim)]
        for i in range(h.dim)
    ]
    alpha = TwoCocycle(h, vals, check=False)
    assert not verify_cocycle_condition(h, alpha).ok
    tw = twisted_algebra(h, alpha)
    one = f.one
    first = next(
        (i, j, k)
        for i in range(h.dim)
        for j in range(h.dim)
        for k in range(h.dim)
        if tw.multiply_dicts(tw.multiply_dicts({i: one}, {j: one}), {k: one})
        != tw.multiply_dicts({i: one}, tw.multiply_dicts({j: one}, {k: one}))
    )
    cells = associator(h.dim, tw.mult, one.field)
    assert check_product(h.dim, tw.mult, u, one, cells) == (True, first)
