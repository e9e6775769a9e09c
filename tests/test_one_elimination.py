"""Differential tests of the single implementations against the copies they
replaced (`fast_path_reference.py`).

- The pivot product of the Hermite form is |det| of a square matrix, and a
  rank below its size stands for a zero determinant (Bareiss reference).
- The `U` of the Hermite form of a unimodular matrix is its inverse, and a
  singular or non-unimodular matrix is refused with the same message as the
  Gauss-Jordan reference.
- One grading formula gives the taft and the monomial degrees of the old
  branches, and one level lift gives the words of the two old recursions.
"""

import fast_path_reference as ref
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfgen.arith import make_field
from hopfgen.errors import IndexMismatch
from hopfgen.generic_base import WITNESS_CAP, _level_lift
from hopfgen.groups import character_from_exponents, cyclic
from hopfgen.hopf import hab_grading, monomial_type_i, taft
from hopfgen.lattice import _hnf_index, int_inverse_unimodular
from hopfgen.selftest import klein_monomial

square_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@st.composite
def unimodular_matrices(draw):
    """The identity after a run of elementary row operations: adding a
    multiple of one row to another, swapping two rows, negating one."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            k = draw(st.integers(min_value=-4, max_value=4))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "negate":
            m[i] = [-a for a in m[i]]
    return m


def named_index(m):
    """The index the named-basis check reads: the pivot product at full
    rank, zero below it."""
    basis, index = _hnf_index(m)
    return index if len(basis) == len(m) else 0


@given(square_matrices)
@settings(max_examples=200)
def test_pivot_product_is_the_absolute_determinant(m):
    det = ref.reference_det_int(m)
    assert named_index(m) == abs(det)
    assert (named_index(m) == 0) == (det == 0)


def test_pivot_product_known_examples():
    assert named_index([[2, 4], [6, 8]]) == 8
    assert named_index([[1]]) == 1
    assert named_index([[0, 1], [0, 2]]) == 0
    # a repeated row is dropped before the elimination, and still counts
    # as a dependent one
    assert named_index([[1, 2], [1, 2]]) == 0


@given(unimodular_matrices())
@settings(max_examples=200)
def test_unimodular_inverse_matches_the_reference(u):
    assert int_inverse_unimodular(u) == ref.reference_int_inverse_unimodular(u)


@given(square_matrices)
@settings(max_examples=200)
@example([[1, 2], [2, 4]])  # singular
@example([[2, 1], [1, 2]])  # not unimodular
def test_refusals_match_the_reference(m):
    try:
        want = ref.reference_int_inverse_unimodular(m)
    except IndexMismatch as exc:
        with pytest.raises(IndexMismatch) as got:
            int_inverse_unimodular(m)
        assert str(got.value) == str(exc)
    else:
        assert int_inverse_unimodular(m) == want


def cyclic4_monomial():
    g = cyclic(4)
    f = make_field(4)
    return monomial_type_i(g, g.index_of("a"), character_from_exponents(g, f, [0, 1, 2, 3]), f)


SKEW = [(f"taft({n})", taft(n)) for n in range(2, 9)] + [
    ("monomial(Klein,2)", klein_monomial()),
    ("monomial(Z/4,4)", cyclic4_monomial()),
]


@pytest.mark.parametrize("name,h", SKEW, ids=[name for name, _ in SKEW])
def test_one_grading_formula_matches_both_branches(name, h):
    assert hab_grading(h) == ref.reference_hab_grading(h)


@pytest.mark.parametrize("name,h", SKEW, ids=[name for name, _ in SKEW])
def test_one_level_lift_matches_both_recursions(name, h):
    if h.family["kind"] == "taft":
        want, args = ref.reference_taft_lift(h, WITNESS_CAP)
    else:
        want, args = ref.reference_monomial_lift(h, WITNESS_CAP)
    got = _level_lift(*args)
    stride, levels = args[1], h.field.n
    for level in range(levels):
        for g in range(stride):
            assert got(g, level).terms == want(g, level).terms
