"""Integer lattice computations.

Hermite and Smith normal forms over Z, plus the degree-zero lattice of a
group-algebra torus: the kernel of the exponent-sum map Z^G -> G_ab.  All
named bases are verified computationally (membership and determinant)
rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    IndexMismatch,
    RangeError,
    TrivialActionViolated,
    UnsupportedKind,
)
from .report import Report

DEFAULT_MAX_LATTICE_ORDER = 24


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul_int(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = len(b[0]) if b else 0
    return [
        [sum(ra[k] * b[k][j] for k in range(len(ra))) for j in range(cols)]
        for ra in a
    ]


def _echelon(
    rows: list[list[int]], track: bool
) -> tuple[list[list[int]], list[list[int]] | None]:
    """The elimination behind hnf: returns (H, U), with U None unless track
    is true.  U is carried as an identity block appended to each row, so
    the pivot choices and row operations, and with them H, are the same
    whether or not it is tracked."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    if track:
        m = [list(row) + e for row, e in zip(rows, _identity(nrows))]
    else:
        m = [list(row) for row in rows]
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, nrows) if m[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(m[i][c]))
            if i0 != r:
                m[r], m[i0] = m[i0], m[r]
            done = True
            for i in range(r + 1, nrows):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c]:
                        done = False
            if done:
                break
        if r < nrows and m[r][c]:
            if m[r][c] < 0:
                m[r] = [-a for a in m[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
            r += 1
            if r == nrows:
                break
    if not track:
        return m, None
    return [row[:ncols] for row in m], [row[ncols:] for row in m]


def hnf(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form: returns (H, U) with U @ rows == H.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    and U is unimodular.
    """
    return _echelon(rows, track=True)


def hnf_basis(rows: list[list[int]]) -> list[list[int]]:
    """Canonical basis (nonzero HNF rows) of the lattice generated by rows."""
    h, _ = _echelon(rows, track=False)
    return [r for r in h if any(r)]


def lattices_equal(gens_a: list[list[int]], gens_b: list[list[int]]) -> bool:
    return hnf_basis(gens_a) == hnf_basis(gens_b)


class ReducedBasis:
    """The Hermite form of one lattice basis, kept to solve x @ basis == v
    for many right-hand sides v (Cohen, GTM 138, section 2.4)."""

    __slots__ = ("_width", "_size", "_rows")

    def __init__(self, basis: list[list[int]]):
        h, u = hnf(basis)
        self._width = len(basis[0]) if basis else None
        self._size = len(basis)
        # (nonzero HNF row, its pivot column, the matching row of U)
        self._rows = [
            (row, next(j for j, a in enumerate(row) if a), urow)
            for row, urow in zip(h, u)
            if any(row)
        ]

    def solve(self, v: list[int]) -> list[int] | None:
        """Integer coefficients x with x @ basis == v, or None if v is
        outside the lattice; a vector of another length raises RangeError."""
        if self._width is not None and len(v) != self._width:
            raise RangeError(
                f"vector of length {len(v)} against a lattice in Z^{self._width}"
            )
        residual = list(v)
        used = []
        for row, p, urow in self._rows:
            if residual[p] % row[p]:
                return None
            coef = residual[p] // row[p]
            if coef:
                residual = [a - coef * b for a, b in zip(residual, row)]
                used.append((coef, urow))
        if any(residual):
            return None
        x = [0] * self._size
        for coef, urow in used:
            x = [a + coef * b for a, b in zip(x, urow)]
        return x


def solve_in_lattice(basis: list[list[int]], v: list[int]) -> list[int] | None:
    """Integer coefficients x with x @ basis == v, or None if v is outside."""
    return ReducedBasis(basis).solve(v)


def det_int(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def int_inverse_unimodular(u: list[list[int]]) -> list[list[int]]:
    """Inverse of a unimodular integer matrix (integral by Cramer)."""
    n = len(u)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(u)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c]), None)
        if piv is None:
            raise IndexMismatch("matrix not unimodular: it is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        scale = aug[c][c]
        aug[c] = [x / scale for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    out = [[x for x in row[n:]] for row in aug]
    if any(x.denominator != 1 for row in out for x in row):
        raise IndexMismatch("matrix not unimodular: its inverse is not integral")
    return [[int(x) for x in row] for row in out]


def smith_normal_form(
    m: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: returns (D, U, V) with U @ m @ V == D diagonal,
    positive diagonal entries in a divisibility chain, U and V unimodular."""
    a = [list(r) for r in m]
    nr = len(a)
    nc = len(a[0]) if a else 0
    u = _identity(nr)
    v = _identity(nc)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, mult):
        a[dst] = [x + mult * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + mult * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, mult):
        for row in a:
            row[dst] += mult * row[src]
        for row in v:
            row[dst] += mult * row[src]

    t = 0
    while t < min(nr, nc):
        cand = [
            (abs(a[i][j]), i, j)
            for i in range(t, nr)
            for j in range(t, nc)
            if a[i][j]
        ]
        if not cand:
            break
        _, pi, pj = min(cand)
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            bad = next(
                (
                    (i, j)
                    for i in range(t + 1, nr)
                    for j in range(t + 1, nc)
                    if a[i][j] % a[t][t]
                ),
                None,
            )
            if bad is None:
                break
            add_row(t, bad[0], 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


@dataclass
class YLattice:
    """A verified basis of the degree-zero exponent lattice inside Z^G."""

    group: object
    basis: list[list[int]]
    index: int

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, v: list[int]) -> bool:
        return solve_in_lattice(self.basis, v) is not None


def _unit_vector(n: int, i: int, scale: int = 1) -> list[int]:
    v = [0] * n
    v[i] = scale
    return v


def _sigma_vector(n: int, g: int, h: int, gh: int) -> list[int]:
    v = [0] * n
    v[g] += 1
    v[h] += 1
    v[gh] -= 1
    return v


def y_group(group, max_order: int = DEFAULT_MAX_LATTICE_ORDER) -> YLattice:
    """Basis and index of ker(Z^G -> G_ab) from the full relation set."""
    from .groups import abelianization

    n = group.order
    if n > max_order:
        raise RangeError(
            f"group order {n} exceeds the lattice cap {max_order}"
        )
    gens = [_unit_vector(n, group.identity)]
    for g in range(n):
        for h in range(n):
            gens.append(_sigma_vector(n, g, h, group.mul(g, h)))
    basis = hnf_basis(gens)
    if len(basis) != n:
        raise IndexMismatch(f"degree-zero lattice rank {len(basis)} != {n}")
    index = 1
    for row in basis:
        index *= next(x for x in row if x)
    ab, _ = abelianization(group)
    if index != ab.order:
        raise IndexMismatch(
            f"lattice index {index} != abelianization order {ab.order}"
        )
    return YLattice(group, basis, index)


def basis_containing_unit(basis: list[list[int]], target: list[int]) -> list[list[int]]:
    """Rewrite a lattice basis so that its first element is the given vector."""
    coords = solve_in_lattice(basis, target)
    if coords is None:
        raise IndexMismatch("target vector outside the lattice")
    col = [[c] for c in coords]
    _, uc = hnf(col)
    vmat = [list(row) for row in zip(*int_inverse_unimodular(uc))]
    assert vmat[0] == coords
    return matmul_int(vmat, basis)


def _verify_named(group, vectors: list[list[int]]) -> YLattice:
    from .groups import abelianization

    ab, proj = abelianization(group)
    n = group.order
    for v in vectors:
        total = ab.identity
        for g, e in enumerate(v):
            total = ab.add(total, ab.scale(proj[g], e))
        if total != ab.identity:
            raise IndexMismatch(f"named basis vector {v} is not degree zero")
    if len(vectors) != n:
        raise IndexMismatch(f"named basis has {len(vectors)} vectors, need {n}")
    d = abs(det_int(vectors))
    if d != ab.order:
        raise IndexMismatch(f"named basis determinant {d} != {ab.order}")
    return YLattice(group, vectors, d)


def named_basis(group, kind: str, **kw) -> YLattice:
    """Closed-form bases for special group shapes; always verified."""
    n = group.order
    if kind == "cyclic":
        if n == 1:
            return _verify_named(group, [_unit_vector(1, group.identity)])
        a = next(
            (g for g in range(n) if group.element_order(g) == n), None
        )
        if a is None:
            raise UnsupportedKind("group has no cyclic generator")
        e = group.identity
        vectors = [_unit_vector(n, e)]
        for k in range(2, n):
            v = _unit_vector(n, group.power(a, k))
            v[a] -= k
            vectors.append(v)
        v = _unit_vector(n, e)
        v[a] -= n
        vectors.append(v)
        return _verify_named(group, vectors)
    if kind == "product":
        m, k = kw["m"], kw["n"]
        if m < 2 or k < 2 or m * k != n:
            raise UnsupportedKind(f"no Z/{m} x Z/{k} structure of order {n}")
        pair = _find_product_pair(group, m, k)
        if pair is None:
            raise UnsupportedKind(f"group is not Z/{m} x Z/{k}")
        a, b = pair
        e = group.identity
        vectors = [_unit_vector(n, e), _unit_vector(n, a, m)]
        for i in range(2, m):
            v = _unit_vector(n, group.power(a, i))
            v[a] -= i
            vectors.append(v)
        vectors.append(_unit_vector(n, b, k))
        for j in range(2, k):
            v = _unit_vector(n, group.power(b, j))
            v[b] -= j
            vectors.append(v)
        for i in range(1, m):
            for j in range(1, k):
                ai = group.power(a, i)
                bj = group.power(b, j)
                v = _unit_vector(n, group.mul(ai, bj))
                v[ai] -= 1
                v[bj] -= 1
                vectors.append(v)
        return _verify_named(group, vectors)
    if kind == "symmetric":
        from .groups import commutator_subgroup

        h0 = commutator_subgroup(group)
        if 2 * len(h0) != n:
            raise UnsupportedKind("commutator subgroup does not have index 2")
        tau = next(
            (
                g
                for g in range(n)
                if g not in h0 and group.element_order(g) == 2
            ),
            None,
        )
        if tau is None:
            raise UnsupportedKind("no order-2 complement available")
        e = group.identity
        vectors = [_unit_vector(n, e), _unit_vector(n, tau, 2)]
        for s in sorted(h0):
            if s == e:
                continue
            vectors.append(_unit_vector(n, s))
        for s in sorted(h0):
            if s == e:
                continue
            v = _unit_vector(n, group.mul(s, tau))
            v[s] -= 1
            v[tau] -= 1
            vectors.append(v)
        return _verify_named(group, vectors)
    if kind == "semidirect":
        return _semidirect_basis(group, kw["h"], kw["k"], kw["action"])
    raise UnsupportedKind(f"unknown named basis kind {kind!r}")


def _find_product_pair(group, m: int, k: int):
    n = group.order
    for a in range(n):
        if group.element_order(a) != m:
            continue
        pa = {group.power(a, i) for i in range(m)}
        for b in range(n):
            if group.element_order(b) != k:
                continue
            if group.mul(a, b) != group.mul(b, a):
                continue
            pb = {group.power(b, j) for j in range(k)}
            if pa & pb != {group.identity}:
                continue
            span = {group.mul(x, y) for x in pa for y in pb}
            if len(span) == n:
                return a, b
    return None


def _semidirect_basis(group, h, k, action) -> YLattice:
    from .groups import abelianization, semidirect_product

    built = semidirect_product(h, k, action)
    if built.table != group.table or built.labels != group.labels:
        raise UnsupportedKind("group does not match semidirect_product(h, k, action)")
    _, proj_h = abelianization(h)
    for perm in action:
        for i in range(h.order):
            if proj_h[perm[i]] != proj_h[i]:
                raise TrivialActionViolated(
                    "action moves classes of the abelianized normal factor"
                )
    bh = basis_containing_unit(y_group(h).basis, _unit_vector(h.order, h.identity))
    bk = basis_containing_unit(y_group(k).basis, _unit_vector(k.order, k.identity))
    n = group.order

    def emb(vec, from_h: bool) -> list[int]:
        out = [0] * n
        for i, c in enumerate(vec):
            if c:
                idx = i * k.order + k.identity if from_h else h.identity * k.order + i
                out[idx] += c
        return out

    vectors = [emb(bh[0], True)]
    vectors += [emb(v, True) for v in bh[1:]]
    vectors += [emb(v, False) for v in bk[1:]]
    for hi in range(h.order):
        if hi == h.identity:
            continue
        for ki in range(k.order):
            if ki == k.identity:
                continue
            v = [0] * n
            v[hi * k.order + ki] += 1
            v[hi * k.order + k.identity] -= 1
            v[h.identity * k.order + ki] -= 1
            vectors.append(v)
    return _verify_named(group, vectors)


def pq_generation_check(group) -> Report:
    """The palindrome and triangle vectors generate the whole degree-zero lattice."""
    from .groups import abelianization

    n = group.order
    rep = Report(title=f"pq-generation({group.name or n})")
    ab, proj = abelianization(group)
    gens = []
    for g in range(n):
        v = [0] * n
        v[g] += 1
        v[group.inv(g)] += 1
        gens.append(v)
    for g in range(n):
        for h in range(n):
            v = [0] * n
            v[g] += 1
            v[h] += 1
            v[group.inv(group.mul(g, h))] += 1
            gens.append(v)
    member = all(
        _degree_of(ab, proj, v) == ab.identity for v in gens
    )
    rep.add("membership", member, "all generators have degree zero")
    y = y_group(group)
    rep.add(
        "lattice-equality",
        hnf_basis(gens) == y.basis,
        "generated lattice equals the degree-zero lattice",
    )
    rep.add("index", y.index == ab.order, f"index {y.index}")
    return rep


def _degree_of(ab, proj, v: list[int]):
    total = ab.identity
    for g, e in enumerate(v):
        total = ab.add(total, ab.scale(proj[g], e))
    return total
