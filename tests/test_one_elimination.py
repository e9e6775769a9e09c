"""Differential tests of the single implementations against the copies they
replaced (`fast_path_reference.py`).

- The pivot product of the Hermite form is |det| of a square matrix, and a
  rank below its size stands for a zero determinant (Bareiss reference).
- One grading formula gives the taft and the monomial degrees of the old
  branches, and one level lift gives the words of the two old recursions.
"""

import fast_path_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgen.arith import make_field
from hopfgen.generic_base import WITNESS_CAP, _level_lift
from hopfgen.groups import character_from_exponents, cyclic
from hopfgen.hopf import hab_grading, monomial_type_i, taft
from hopfgen.lattice import _hnf_index
from hopfgen.selftest import klein_monomial

square_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


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
