"""Integer lattice layer: normal forms, degree-zero lattices, named bases."""

import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgen.errors import IndexMismatch, RangeError, TrivialActionViolated, UnsupportedKind
from hopfgen.groups import (
    alternating,
    cyclic,
    direct_product,
    semidirect_product,
    symmetric,
    trivial,
)
from hopfgen.lattice import (
    ReducedBasis,
    basis_containing_unit,
    det_int,
    hnf,
    hnf_basis,
    int_inverse_unimodular,
    lattices_equal,
    matmul_int,
    named_basis,
    pq_generation_check,
    smith_normal_form,
    solve_in_lattice,
    y_group,
)


def frac_det(m):
    # independent O(n^3) oracle over Fraction
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def test_hnf_known_example():
    h, u = hnf([[2, 4], [6, 8]])
    assert h == [[2, 0], [0, 4]]
    assert matmul_int(u, [[2, 4], [6, 8]]) == h
    assert abs(det_int(u)) == 1


def test_det_known_example():
    assert det_int([[2, 4], [6, 8]]) == -8
    assert det_int([[1]]) == 1
    assert det_int([]) == 1
    assert det_int([[0, 1], [0, 2]]) == 0


@given(small_matrices)
@settings(max_examples=120)
def test_hnf_properties(m):
    h, u = hnf(m)
    assert matmul_int(u, m) == h
    assert abs(det_int(u)) == 1
    rows = [r for r in h if any(r)]
    pivots = [next(j for j, a in enumerate(r) if a) for r in rows]
    assert pivots == sorted(set(pivots))
    for i, r in enumerate(rows):
        p = pivots[i]
        assert r[p] > 0
        for above in rows[:i]:
            assert 0 <= above[p] < r[p]
    # idempotence on the nonzero part
    assert hnf_basis(rows) == rows


@given(small_matrices)
@settings(max_examples=120)
def test_det_matches_fraction_oracle(m):
    assert det_int(m) == frac_det(m)


@given(small_matrices)
@settings(max_examples=100)
def test_smith_properties(m):
    d, u, v = smith_normal_form(m)
    assert matmul_int(matmul_int(u, m), v) == d
    assert abs(det_int(u)) == 1
    assert abs(det_int(v)) == 1
    nr, nc = len(d), len(d[0])
    diag = [d[t][t] for t in range(min(nr, nc))]
    for i in range(nr):
        for j in range(nc):
            if i != j:
                assert d[i][j] == 0
    nz = [x for x in diag if x]
    assert all(x > 0 for x in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert diag[len(nz):] == [0] * (len(diag) - len(nz))


def test_smith_known_example():
    d, _, _ = smith_normal_form([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]


def test_solve_in_lattice_round_trip():
    basis = [[2, 1, 0], [0, 3, 1], [0, 0, 5]]
    coeffs = [3, -2, 7]
    v = [
        sum(coeffs[i] * basis[i][j] for i in range(3))
        for j in range(3)
    ]
    assert solve_in_lattice(basis, v) == coeffs
    assert solve_in_lattice([[2, 0], [0, 2]], [1, 0]) is None
    assert solve_in_lattice([[2, 0], [0, 2]], [2, -4]) == [1, -2]


def test_lattices_equal():
    assert lattices_equal([[2, 0], [2, 1]], [[2, 0], [0, 1]])
    assert not lattices_equal([[1, 0]], [[2, 0]])
    assert lattices_equal([[1, 1], [1, -1]], [[1, 1], [0, 2]])


def test_int_inverse_unimodular():
    u = [[1, 2], [1, 3]]
    ui = int_inverse_unimodular(u)
    assert matmul_int(u, ui) == [[1, 0], [0, 1]]
    with pytest.raises(IndexMismatch, match="not integral"):
        int_inverse_unimodular([[2, 0], [0, 1]])
    with pytest.raises(IndexMismatch, match="singular"):
        int_inverse_unimodular([[1, 2], [2, 4]])


def test_y_group_trivial_and_cyclic2():
    y = y_group(trivial())
    assert y.basis == [[1]]
    assert y.index == 1
    y2 = y_group(cyclic(2))
    assert y2.basis == [[1, 0], [0, 2]]
    assert y2.index == 2


@pytest.mark.parametrize(
    "group, index",
    [
        (cyclic(6), 6),
        (symmetric(3), 2),
        (symmetric(4), 2),
        (alternating(4), 3),
        (direct_product(cyclic(2), cyclic(2)), 4),
    ],
)
def test_y_group_index_is_abelianization_order(group, index):
    assert y_group(group).index == index


def test_y_group_membership():
    g = symmetric(3)
    y = y_group(g)
    # commutator-style vector: g + h - gh
    v = [0] * g.order
    a, b = 1, 2
    v[a] += 1
    v[b] += 1
    v[g.mul(a, b)] -= 1
    assert y.contains(v)
    w = [0] * g.order
    w[g.index_of("(1 2)")] = 1
    assert not y.contains(w)


@pytest.mark.parametrize("n", range(2, 13))
def test_named_cyclic_determinants(n):
    y = named_basis(cyclic(n), "cyclic")
    assert y.index == n
    assert abs(det_int(y.basis)) == n


def test_named_cyclic_two_exact():
    y = named_basis(cyclic(2), "cyclic")
    assert y.basis == [[1, 0], [1, -2]]


def test_named_cyclic_rejects_noncyclic():
    with pytest.raises(UnsupportedKind):
        named_basis(direct_product(cyclic(2), cyclic(2)), "cyclic")


@pytest.mark.parametrize(
    "group, m, n",
    [
        (direct_product(cyclic(2), cyclic(2)), 2, 2),
        (direct_product(cyclic(2), cyclic(3)), 2, 3),
        (cyclic(6), 2, 3),
        (direct_product(cyclic(3), cyclic(4)), 3, 4),
    ],
)
def test_named_product_determinants(group, m, n):
    y = named_basis(group, "product", m=m, n=n)
    assert y.index == m * n


def test_named_product_rejects_wrong_shape():
    with pytest.raises(UnsupportedKind):
        named_basis(cyclic(4), "product", m=2, n=2)


@pytest.mark.parametrize("group", [symmetric(3), symmetric(4)])
def test_named_symmetric_recipe(group):
    y = named_basis(group, "symmetric")
    assert y.index == 2
    assert abs(det_int(y.basis)) == 2


def test_named_symmetric_rejects_alternating4():
    with pytest.raises(UnsupportedKind):
        named_basis(alternating(4), "symmetric")


def test_named_semidirect_trivial_action():
    c2, c3 = cyclic(2), cyclic(3)
    act = [list(range(2)) for _ in range(3)]
    g = semidirect_product(c2, c3, act)
    y = named_basis(g, "semidirect", h=c2, k=c3, action=act)
    assert y.index == 6


def test_named_semidirect_rejects_inverting_action():
    c3, c2 = cyclic(3), cyclic(2)
    invert = [0, 2, 1]
    act = [list(range(3)), invert]
    g = semidirect_product(c3, c2, act)
    with pytest.raises(TrivialActionViolated):
        named_basis(g, "semidirect", h=c3, k=c2, action=act)


def test_basis_containing_unit():
    g = symmetric(3)
    y = y_group(g)
    e_vec = [0] * g.order
    e_vec[g.identity] = 1
    new = basis_containing_unit(y.basis, e_vec)
    assert new[0] == e_vec
    assert lattices_equal(new, y.basis)


@pytest.mark.parametrize(
    "group",
    [cyclic(2), cyclic(5), direct_product(cyclic(2), cyclic(2)), symmetric(3), alternating(4)],
)
def test_pq_generation(group):
    rep = pq_generation_check(group)
    assert rep.ok, rep.failures()


def test_named_basis_vectors_live_in_y_group():
    for group, kind, kw in [
        (cyclic(5), "cyclic", {}),
        (symmetric(3), "symmetric", {}),
        (direct_product(cyclic(2), cyclic(3)), "product", {"m": 2, "n": 3}),
    ]:
        y = y_group(group)
        named = named_basis(group, kind, **kw)
        for v in named.basis:
            assert y.contains(v)
        assert lattices_equal(named.basis, y.basis)


def test_wrong_length_vectors_are_rejected():
    with pytest.raises(RangeError):
        solve_in_lattice([[1, 0]], [1, 0, 5])
    with pytest.raises(RangeError):
        ReducedBasis([[1, 0], [0, 2]]).solve([2])
    with pytest.raises(RangeError):
        y_group(cyclic(2)).contains([1, 0, 0])
    assert solve_in_lattice([], [0, 0]) == []
    assert solve_in_lattice([], [0, 1]) is None


def test_basis_containing_unit_rejects_target_outside():
    with pytest.raises(IndexMismatch, match="outside the lattice"):
        basis_containing_unit([[2, 0], [0, 1]], [1, 0])


# --- differential tests against the elimination and solver kept verbatim
# from the version in which hnf always built U and solve_in_lattice
# reduced its basis on every call


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def reference_hnf(rows):
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = _identity(nrows)
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, nrows) if m[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(m[i][c]))
            if i0 != r:
                m[r], m[i0] = m[i0], m[r]
                u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, nrows):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                    if m[i][c]:
                        done = False
            if done:
                break
        if r < nrows and m[r][c]:
            if m[r][c] < 0:
                m[r] = [-a for a in m[r]]
                u[r] = [-a for a in u[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            r += 1
            if r == nrows:
                break
    return m, u


def reference_solve_in_lattice(basis, v):
    h, u = reference_hnf(basis)
    rows = [r for r in h if any(r)]
    residual = list(v)
    y = [0] * len(h)
    for i, row in enumerate(rows):
        p = next(j for j, a in enumerate(row) if a)
        if residual[p] % row[p]:
            return None
        coef = residual[p] // row[p]
        y[i] = coef
        if coef:
            residual = [a - coef * b for a, b in zip(residual, row)]
    if any(residual):
        return None
    x = [sum(y[i] * u[i][j] for i in range(len(u))) for j in range(len(basis))]
    return x


entries = st.integers(min_value=-9, max_value=9)
# tall like the relation sets: many rows over few columns
tall_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=40
    )
)


@given(tall_matrices)
@settings(max_examples=150, deadline=None)
def test_hnf_matches_reference_and_basis_drops_u(m):
    h, u = hnf(m)
    assert (h, u) == reference_hnf(m)
    assert hnf_basis(m) == [r for r in h if any(r)]


@given(tall_matrices, st.data())
@settings(max_examples=150, deadline=None)
def test_reduced_basis_solve_matches_reference(b, data):
    n = len(b[0])
    x = data.draw(st.lists(entries, min_size=len(b), max_size=len(b)))
    inside = [sum(x[i] * b[i][j] for i in range(len(b))) for j in range(n)]
    anywhere = data.draw(st.lists(entries, min_size=n, max_size=n))
    reduced = ReducedBasis(b)
    for v in (inside, anywhere):
        want = reference_solve_in_lattice(b, v)
        assert reduced.solve(v) == want
        assert solve_in_lattice(b, v) == want
    assert reduced.solve(inside) is not None


@given(tall_matrices, st.data())
@settings(max_examples=60, deadline=None)
def test_reduced_basis_reuse_matches_fresh(b, data):
    n = len(b[0])
    vs = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=8))
    reduced = ReducedBasis(b)
    assert [reduced.solve(v) for v in vs] == [ReducedBasis(b).solve(v) for v in vs]


# --- sympy as a test-only oracle for the lattice invariants


def _random_matrix(rng, nrows, ncols):
    m = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3:  # rank-deficient: repeat a combination of rows
        m.append([2 * a - b for a, b in zip(m[0], m[-1])])
    return m


def test_hnf_rank_and_index_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(20131)
    for _ in range(60):
        ncols = rng.randint(1, 5)
        m = _random_matrix(rng, rng.randint(ncols, 12), ncols)
        basis = hnf_basis(m)
        a = sympy.Matrix(m)
        assert len(basis) == a.rank()
        if len(basis) == ncols:
            # sympy reduces columns: the columns of its form span the lattice
            index = 1
            for i, row in enumerate(basis):
                index *= row[i]
            assert index == abs(hermite_normal_form(a.T).det())


# smith_normal_form does not keep its entries small.  On these two 7x5
# matrices, the 9th and the 27th that the generator below draws, they grow
# to thousands of digits: the first reduction does not finish, the second
# takes about 45 s.  test_smith_finishes_on_dense_input keeps them in view.
SMITH_BLOWUPS = [
    [
        [2, 7, -7, 9, -2],
        [5, -8, -7, -8, 3],
        [3, 6, 9, 4, -8],
        [2, -8, 4, 6, -5],
        [0, 2, -6, 6, 8],
        [-7, 0, -4, 4, -5],
        [11, 14, -10, 14, 1],
    ],
    [
        [6, 3, -9, 2, -7],
        [-5, -5, 6, -6, -8],
        [-4, 3, 0, 2, -2],
        [1, -4, -9, -8, 4],
        [5, 7, -8, -4, -5],
        [-7, 2, 0, -6, -2],
        [-5, -6, 7, -6, -5],
    ],
]


def test_smith_diagonal_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(20132)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 5))
        if m in SMITH_BLOWUPS:
            continue
        d, _, _ = smith_normal_form(m)
        diag = [d[t][t] for t in range(min(len(m), len(m[0])))]
        assert diag == [abs(x) for x in invariant_factors(sympy.Matrix(m))]


def _on_alarm(signum, frame):
    raise TimeoutError("smith_normal_form did not finish in 1 s")


@pytest.mark.xfail(
    raises=TimeoutError,
    strict=True,
    reason="smith_normal_form has no control of entry growth",
)
@pytest.mark.parametrize("m", SMITH_BLOWUPS)
def test_smith_finishes_on_dense_input(m):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    want = [abs(x) for x in invariant_factors(sympy.Matrix(m))]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        d, _, _ = smith_normal_form(m)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert [d[t][t] for t in range(5)] == want
