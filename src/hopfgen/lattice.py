"""Integer lattice computations.

The Hermite normal form over Z, plus the degree-zero lattice of a
group-algebra torus: the kernel Y(G) of the exponent-sum map Z^G -> G_ab.  All
named bases are verified computationally (membership and determinant)
rather than trusted.

Y(G) is spanned by e_e and the relation vectors v(g, h) = e_g + e_h - e_gh
over all pairs, but a generating set S of G suffices.  Two identities,

    v(g, hk) = v(g, h) + v(gh, k) - v(h, k),    v(g, e) = e_e,

give every v(g, h) from e_e and the v(g, s) with s in S, by induction on
the length of h as a word in S; and two more,

    v(g, h) = t(g, h) - p(gh),    e_e = t(e, e) - p(e),

with p(g) the vector of the word g g^-1 and t(g, h) that of g h (gh)^-1,
give them from the pairs p(g), the triple t(e, e) and the triples t(g, s).
So about |G|·|S| rows are reduced instead of |G|^2.
"""

from __future__ import annotations

from .errors import IndexMismatch, RangeError, UnsupportedKind
from .groups import abelianization, commutator_subgroup, generating_set
from .report import Report

MAX_LATTICE_ORDER = 24


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
    """Canonical basis (nonzero HNF rows) of the lattice generated by rows.
    Zero and repeated rows add nothing to the lattice, and its row-style
    HNF is unique (Cohen, GTM 138, section 2.4.3), so they are dropped
    before the elimination."""
    distinct = [r for r in dict.fromkeys(map(tuple, rows)) if any(r)]
    h, _ = _echelon(distinct, track=False)
    return [r for r in h if any(r)]


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


class YLattice:
    """A verified basis of the degree-zero exponent lattice inside Z^G."""

    __slots__ = ("group", "basis", "index")

    def __init__(self, group, basis: list[list[int]], index: int):
        self.group = group
        self.basis = basis
        self.index = index

    def __eq__(self, other):
        if type(other) is not YLattice:
            return NotImplemented
        return (self.group, self.basis, self.index) == (other.group, other.basis, other.index)

    @property
    def rank(self) -> int:
        return len(self.basis)


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


def y_group(group) -> YLattice:
    """Basis and index of ker(Z^G -> G_ab), from e_e and the relation
    vectors v(g, s) over a generating set S (module docstring).  The
    HNF is built and checked once per group and kept on it; every call
    checks the cap first and returns its own copy of the basis."""
    n = group.order
    if n > MAX_LATTICE_ORDER:
        raise RangeError(f"group order {n} exceeds the lattice cap {MAX_LATTICE_ORDER}")
    if group._y is None:
        group._y = _y_basis(group)
    basis, index = group._y
    return YLattice(group, [list(row) for row in basis], index)


def _hnf_index(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """hnf_basis(rows), whose length is the rank, and the product of its
    pivots: the index of the lattice in Z^n when the rank is n, and so
    |det| of n independent rows in Z^n."""
    basis = hnf_basis(rows)
    index = 1
    for row in basis:
        index *= next(x for x in row if x)
    return basis, index


def _y_basis(group) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The rank and index checks refuse a span smaller than Y(G), so a
    set S that did not generate G would raise IndexMismatch."""
    n = group.order
    gens = [_unit_vector(n, group.identity)]
    for s in generating_set(group):
        for g in range(n):
            gens.append(_sigma_vector(n, g, s, group.mul(g, s)))
    basis, index = _hnf_index(gens)
    if len(basis) != n:
        raise IndexMismatch(f"degree-zero lattice rank {len(basis)} != {n}")
    ab, _ = abelianization(group)
    if index != ab.order:
        raise IndexMismatch(
            f"lattice index {index} != abelianization order {ab.order}"
        )
    return tuple(map(tuple, basis)), index


def _verify_named(group, vectors: list[list[int]]) -> YLattice:
    ab, proj = abelianization(group)
    n = group.order
    for v in vectors:
        if ab.combination(zip(proj, v)) != ab.identity:
            raise IndexMismatch(f"named basis vector {v} is not degree zero")
    if len(vectors) != n:
        raise IndexMismatch(f"named basis has {len(vectors)} vectors, need {n}")
    basis, index = _hnf_index(vectors)
    d = index if len(basis) == n else 0
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


def _pair_words(group) -> list[tuple[int, ...]]:
    return [(g, group.inv(g)) for g in range(group.order)]


def _triple_word(group, g: int, h: int) -> tuple[int, ...]:
    return (g, h, group.inv(group.mul(g, h)))


def pair_and_triple_vectors(group) -> list[tuple[list[int], tuple[int, ...]]]:
    """The exponent vectors in Z^G, each with its word, of the words g g^-1
    for every g, then of e e e, then of g s (gs)^-1 for every s of the
    generating set and every g, in that order.  They span the lattice of
    all pair and triple products, which is Y(G) (module docstring)."""
    n = group.order
    e = group.identity
    words = _pair_words(group) + [(e, e, e)]
    words += [_triple_word(group, g, s) for s in generating_set(group) for g in range(n)]
    out = []
    for word in words:
        row = [0] * n
        for g in word:
            row[g] += 1
        out.append((row, word))
    return out


def pq_generation_check(group) -> Report:
    """The palindrome and triangle vectors generate the whole degree-zero
    lattice.  Every pair and triple word has degree zero, so the lattice P
    they span lies in Y(G); the spanning subset of pair_and_triple_vectors
    lies in P and has the Hermite basis of Y(G), so P = Y(G)."""
    n = group.order
    rep = Report(title=f"pq-generation({group.name or n})")
    ab, proj = abelianization(group)
    words = _pair_words(group)
    words += [_triple_word(group, g, h) for g in range(n) for h in range(n)]
    member = all(
        ab.combination((proj[g], 1) for g in word) == ab.identity for word in words
    )
    rep.add("membership", member, "all generators have degree zero")
    y = y_group(group)
    rep.add(
        "lattice-equality",
        hnf_basis([row for row, _ in pair_and_triple_vectors(group)]) == y.basis,
        "generated lattice equals the degree-zero lattice",
    )
    rep.add("index", y.index == ab.order, f"index {y.index}")
    return rep
