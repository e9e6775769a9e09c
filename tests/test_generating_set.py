"""The group lattices reduced over a generating set: Y(G) from e_e and the
relation vectors v(g, s), and the pair and triple products from p(g),
t(e, e) and t(g, s), each checked against the reduction of all |G|^2
rows; the greedy generating set itself; and the certificates failing
when the set is cut short."""

from itertools import combinations_with_replacement

import fast_path_reference as ref
import pytest
from test_groups import ORACLE_FACTORS

from hopfgen import lattice
from hopfgen.errors import IndexMismatch
from hopfgen.generic_base import gamma_generators, niceness_witnesses
from hopfgen.groups import generating_set, group_from_spec, subgroup_closure
from hopfgen.hopf import group_algebra
from hopfgen.lattice import hnf_basis, pair_and_triple_vectors, pq_generation_check, y_group

# every spec of these shapes that the lattice cap of 24 admits
LATTICE_SPECS = (
    ["trivial"]
    + [f"cyclic:{n}" for n in range(1, 25)]
    + [f"dihedral:{n}" for n in range(1, 13)]
    + [f"sym:{n}" for n in range(1, 5)]
    + [f"alt:{n}" for n in range(1, 5)]
    + [
        f"product:{a},{b}"
        for a, b in combinations_with_replacement(ORACLE_FACTORS, 2)
        if ORACLE_FACTORS[a] * ORACLE_FACTORS[b] <= 24
    ]
    + [
        "product:cyclic:2,cyclic:2,cyclic:2",
        "product:cyclic:2,cyclic:2,cyclic:2,cyclic:2",
        "product:cyclic:2,cyclic:2,cyclic:2,cyclic:3",
        "product:cyclic:2,cyclic:2,sym:3",
    ]
)


# --- the greedy generating set


def test_the_trivial_group_has_the_empty_generating_set():
    assert generating_set(group_from_spec("trivial")) == []
    assert generating_set(group_from_spec("cyclic:1")) == []


@pytest.mark.parametrize("n", range(2, 25))
def test_a_cyclic_group_is_generated_by_one_element_of_full_order(n):
    g = group_from_spec(f"cyclic:{n}")
    (s,) = generating_set(g)
    assert g.element_order(s) == n


@pytest.mark.parametrize("spec", LATTICE_SPECS)
def test_each_element_is_the_smallest_index_outside_the_span_so_far(spec):
    g = group_from_spec(spec)
    gens = generating_set(g)
    assert subgroup_closure(g, gens) == set(range(g.order))
    for i, s in enumerate(gens):
        span = subgroup_closure(g, gens[:i])
        assert s == min(set(range(g.order)) - span)


def test_generating_sets_pinned_by_label():
    def labels(spec):
        g = group_from_spec(spec)
        return [g.labels[s] for s in generating_set(g)]

    assert labels("sym:4") == ["(3 4)", "(2 3)", "(1 2)"]
    assert labels("dihedral:12") == ["r", "s"]
    assert labels("product:cyclic:2,cyclic:2") == ["(e,a)", "(a,e)"]


# --- the lattices against the reduction of all |G|^2 rows


@pytest.mark.parametrize("spec", LATTICE_SPECS)
def test_the_lattices_match_the_full_relation_set(spec):
    g = group_from_spec(spec)
    basis, index = ref.reference_y_basis(group_from_spec(spec))
    y = y_group(g)
    assert (y.basis, y.index) == ([list(row) for row in basis], index)
    subset = [row for row, _ in pair_and_triple_vectors(g)]
    assert len(subset) == g.order + 1 + g.order * len(generating_set(g))
    every = [row for row, _ in ref.reference_pair_and_triple_vectors(g)]
    assert hnf_basis(subset) == hnf_basis(every) == y.basis
    assert pq_generation_check(g).ok


# --- a set cut short fails both certificates


def _drop(monkeypatch, i):
    real = lattice.generating_set

    def short(group):
        gens = real(group)
        return gens[:i] + gens[i + 1:]

    monkeypatch.setattr(lattice, "generating_set", short)


@pytest.mark.parametrize("spec", ["sym:4", "product:cyclic:2,cyclic:2", "cyclic:6"])
def test_y_group_refuses_the_span_of_a_set_cut_short(monkeypatch, spec):
    for i in range(len(generating_set(group_from_spec(spec)))):
        with monkeypatch.context() as m:
            _drop(m, i)
            with pytest.raises(IndexMismatch, match="degree-zero lattice rank"):
                y_group(group_from_spec(spec))


@pytest.mark.parametrize("spec", ["sym:4", "alt:4", "cyclic:6"])
def test_the_pair_and_triple_check_fails_on_a_set_cut_short(monkeypatch, spec):
    for i in range(len(generating_set(group_from_spec(spec)))):
        g = group_from_spec(spec)
        y_group(g)
        with monkeypatch.context() as m:
            _drop(m, i)
            checks = {c.name: c.passed for c in pq_generation_check(g).checks}
        assert checks == {"membership": True, "lattice-equality": False, "index": True}


def test_a_set_cut_short_can_still_span_the_lattice_through_the_pairs(monkeypatch):
    """On Z/2 x Z/2 every p(g) is 2 e_g, and with one generator dropped
    these pairs and the triples over the other still span Y(G): the check
    compares lattices, so it passes, and rightly."""
    spec = "product:cyclic:2,cyclic:2"
    g = group_from_spec(spec)
    y_group(g)
    _drop(monkeypatch, 0)
    assert pq_generation_check(g).ok
    every = [row for row, _ in ref.reference_pair_and_triple_vectors(g)]
    assert hnf_basis([row for row, _ in pair_and_triple_vectors(g)]) == hnf_basis(every)


# --- niceness witnesses over the subset

# word letters of the k[S4], k[Z/24] and k[D12] witnesses when every pair
# and triple vector was reduced (814 + 1894 + 506)
ALL_ROWS_LETTERS = 3214


def test_witnesses_name_every_generator_and_inverse_and_stay_short():
    letters = 0
    for spec in ("sym:4", "cyclic:24", "dihedral:12"):
        h = group_algebra(group_from_spec(spec))
        gens = gamma_generators(h).invertible_gens
        out = niceness_witnesses(h)
        assert set(out) == set(gens) | {gen.inverse() for gen in gens}
        assert len(out) == 2 * len(gens)
        letters += sum(len(w) for word, _ in out.values() for w in word.terms)
    assert letters <= 2 * ALL_ROWS_LETTERS
