"""Lattice work done once: the degree-zero lattice kept on its group,
hnf_basis without zero or repeated rows, and grading degrees summed by
one linear map, each checked against a slow reference."""

import json
import random

import fast_path_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lattice import reference_hnf, tall_matrices

from hopfgen import lattice
from hopfgen.cli import main
from hopfgen.errors import RangeError
from hopfgen.groups import (
    FiniteAbelianGroup,
    abelianization,
    cyclic,
    dihedral,
    group_from_spec,
    symmetric,
    trivial,
)
from hopfgen.hopf import e_algebra, group_algebra, hab_grading, taft
from hopfgen.lattice import hnf, hnf_basis, pq_generation_check, y_group
from hopfgen.selftest import criterion_11, klein_monomial
from hopfgen.tring import t_ring

# --- the degree-zero lattice kept on its group


def test_the_cap_is_checked_even_after_the_lattice_is_stored():
    at_cap = symmetric(4)
    y = y_group(at_cap)
    assert at_cap._y is not None and y_group(at_cap) == y
    g = cyclic(25)
    with pytest.raises(RangeError, match="group order 25 exceeds the lattice cap 24"):
        y_group(g)
    g._y = lattice._y_basis(g)
    with pytest.raises(RangeError, match="group order 25 exceeds the lattice cap 24"):
        y_group(g)


def test_changing_a_returned_basis_leaves_the_next_result_alone():
    g = dihedral(4)
    first = y_group(g)
    want = [list(row) for row in first.basis]
    first.basis[0][0] += 7
    first.basis.append([1] * g.order)
    first.basis[1] = [0] * g.order
    again = y_group(g)
    assert again.basis == want
    assert again.index == 4
    assert again.basis is not first.basis


def test_the_lattice_is_built_once_per_group(monkeypatch):
    calls = []
    real = lattice._y_basis
    monkeypatch.setattr(lattice, "_y_basis", lambda g: calls.append(g) or real(g))
    g = group_from_spec("product:cyclic:2,sym:3")
    abelianization(g)
    y_group(g)
    assert pq_generation_check(g).ok
    y_group(g)
    assert calls == [g]


def test_equal_groups_built_apart_each_get_a_correct_lattice():
    a, b = symmetric(3), symmetric(3)
    ya = y_group(a)
    assert b._y is None
    assert ya.group is a
    yb = y_group(b)
    assert yb.group is b
    assert (yb.basis, yb.index) == (ya.basis, ya.index) == (hnf_basis(_relations(b)), 2)


def _relations(g):
    n = g.order
    rows = [[int(i == g.identity) for i in range(n)]]
    for x in range(n):
        for y in range(n):
            row = [0] * n
            row[x] += 1
            row[y] += 1
            row[g.mul(x, y)] -= 1
            rows.append(row)
    return rows


def test_criterion_11_reports_the_abelianization_order():
    rep = criterion_11()
    index_checks = [c for c in rep.checks if c.name.startswith("index equals")]
    assert index_checks and all(c.passed for c in index_checks)
    for c in index_checks:
        index, order = c.details.removeprefix("index ").split(", |G_ab| ")
        assert index == order


@pytest.mark.parametrize("spec", ["sym:4", "cyclic:20", "product:cyclic:2,alt:4", "dihedral:9"])
def test_ygroup_check_reports_the_abelianization_order(capsys, spec):
    code = main(["ygroup", "--check", "--group", spec, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["ok"]
    assert payload["rank"] == payload["order"]
    assert payload["index"] == payload["abelianization_order"]
    assert payload["index"] == abelianization(group_from_spec(spec))[0].order


# --- hnf_basis drops zero and repeated rows


@st.composite
def with_repeats(draw):
    """A tall matrix, then its rows repeated, interleaved with zero rows
    and permuted."""
    m = draw(tall_matrices)
    width = len(m[0])
    picks = draw(st.lists(st.integers(0, len(m) - 1), max_size=3 * len(m)))
    zeros = draw(st.integers(0, 4))
    rows = [list(r) for r in m] + [list(m[i]) for i in picks] + [[0] * width] * zeros
    return draw(st.permutations(rows)), m


@given(with_repeats())
@settings(max_examples=150, deadline=None)
def test_hnf_basis_matches_both_full_eliminations(case):
    rows, original = case
    got = hnf_basis(rows)
    assert got == [r for r in hnf(rows)[0] if any(r)]
    assert got == [r for r in reference_hnf(rows)[0] if any(r)]
    assert got == hnf_basis(original)


def test_hnf_basis_of_zero_and_empty_inputs():
    assert hnf_basis([]) == []
    assert hnf_basis([[0, 0], [0, 0]]) == []
    assert hnf_basis([[0, 3], [0, 3], [0, 0]]) == [[0, 3]]


# --- one linear map for grading degrees


factor_tuples = st.lists(st.integers(1, 12), max_size=3).map(tuple)


@given(factor_tuples, st.data())
@settings(max_examples=200, deadline=None)
def test_combination_matches_the_add_scale_fold(factors, data):
    ab = FiniteAbelianGroup(factors)
    size = data.draw(st.integers(0, 8))
    images = [
        tuple(data.draw(st.integers(0, d - 1)) for d in factors) for _ in range(size)
    ]
    exps = data.draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size))
    assert ab.combination(zip(images, exps)) == ref.reference_degree_of(ab, images, exps)


def test_combination_over_the_trivial_group_and_of_nothing():
    trivial_ab = FiniteAbelianGroup(())
    assert trivial_ab.combination([]) == ()
    assert trivial_ab.combination([((), 5), ((), -3)]) == ()
    ab = FiniteAbelianGroup((2, 6))
    assert ab.combination([]) == ab.identity
    assert ab.combination([((1, 5), 0)]) == ab.identity


@pytest.mark.parametrize(
    "make", [lambda: taft(3), lambda: e_algebra(2), klein_monomial,
             lambda: group_algebra(cyclic(6)), lambda: group_algebra(trivial())],
    ids=["taft(3)", "e(2)", "monomial(Klein,2)", "k[Z/6]", "k[1]"],
)
def test_ring_degrees_match_the_fold(make):
    h = make()
    ring = t_ring(h)
    ab, deg = hab_grading(h)
    gl = set(h.grouplikes)
    rng = random.Random(14)
    for _ in range(60):
        pairs = {}
        for b in rng.sample(range(h.dim), min(h.dim, rng.randint(1, 4))):
            pairs[b] = rng.randint(-9, 9) if b in gl else rng.randint(1, 9)
        mon = ring.monomial(pairs.items())
        v = [pairs.get(i, 0) for i in range(h.dim)]
        assert ring.hab_degree(mon) == ref.reference_degree_of(ab, deg, v)
