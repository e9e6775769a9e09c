"""Exact linear algebra over Q(q).

Rows are sparse {column_index: Scalar} maps with no stored zeros; all
elimination is done with exact field arithmetic.  `Sparse` is the common
base of the element types, which are sparse maps of the same kind.
"""

from __future__ import annotations

from .arith import FieldSpec, Scalar, binary_power
from .errors import NotInvertible, RangeError


def collect(pairs, base: dict | None = None) -> dict:
    """Sum the coefficients of equal keys over an iterable of (key, coeff)
    pairs, on top of a copy of `base` if given.  The result holds no zero
    coefficient, and its keys keep the order in which they first appeared.

    `base` must hold no zero coefficient: only the keys that `pairs` touch
    are tested for zero, so that adding a few terms to a long sum costs a
    few tests."""
    if base:
        out = dict(base)
        get = out.get
        zeros = []
        for k, c in pairs:
            cur = get(k)
            out[k] = c = c if cur is None else cur + c
            if not c:
                zeros.append(k)
        # a key that vanished may have been summed again since
        zeros = [k for k in zeros if k in out and not out[k]]
    else:
        out = {}
        get = out.get
        for k, c in pairs:
            cur = get(k)
            out[k] = c if cur is None else cur + c
        zeros = [k for k, c in out.items() if not c]
    for k in zeros:
        out.pop(k, None)
    return out


class Sparse:
    """A finite linear combination over one owner, the algebra or ring it
    lives in: `terms` maps keys to nonzero Scalars and is never mutated.

    The linear structure of the Scalar-valued element type
    (`identities.NCPoly`) is written here once.  Each subclass supplies
    `_owner()`, `_like(terms)` (an element over the same owner from terms
    that hold no zero), `one()`, its own product and its text; one that
    accepts scalar operands also supplies `_lift`.  Operands over
    different owners raise RangeError, and compare unequal.
    `tring.TElement` and `tring.TensorH` store integer numerators instead
    of Scalars; their sums, negation, scaling, zero test, equality and
    hash are written once in `tring.Numerators`, and they take `-` and
    `**` from here."""

    __slots__ = ()

    def _lift(self, other):
        """A non-element operand as an element over the same owner, or None
        if it is not an operand of this type."""
        return None

    def _operand(self, other):
        """other as an element over the same owner: an element of this type
        is checked, anything else lifted (None if it cannot be)."""
        if other.__class__ is not self.__class__:
            return self._lift(other)
        if other._owner() != self._owner():
            raise RangeError(f"{self.__class__.__name__} operands over different algebras")
        return other

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._like(collect(o.terms.items(), self.terms))

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        o = self._operand(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other):
        o = self._operand(other)
        return NotImplemented if o is None else o + -self

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scaled(self, s: Scalar):
        """self times the scalar s: zero for zero, and self itself for one,
        which is safe because terms are never mutated."""
        if not s:
            return self._like({})
        if s == s.field.one:
            return self
        # a nonzero scalar times a nonzero coefficient is nonzero
        return self._like({k: c * s for k, c in self.terms.items()})

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise RangeError(f"negative power {k} of a {self.__class__.__name__}")
        return binary_power(self, k, None) if k else self.one()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        elif other._owner() != self._owner():
            return False
        return self._equal(other)

    def _equal(self, other) -> bool:
        """Whether two elements over the same owner are equal."""
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


def axpy(a: dict, s: Scalar, b: dict) -> dict:
    """a + s*b with zero entries dropped; a must hold no zero entry."""
    return collect(((k, s * v) for k, v in b.items()), a)


def row_reduce(rows: list[dict], field: FieldSpec) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form; returns (rows, pivot_columns), both sorted by
    pivot.  The rows must hold no zero entry (see `axpy`)."""
    reduced: list[dict] = []
    pivots: list[int] = []
    for row in rows:
        r = dict(row)
        for p, rr in zip(pivots, reduced):
            if p in r:
                r = axpy(r, -r[p], rr)
        if not r:
            continue
        c = min(r)
        inv = r[c].inverse()
        r = {k: v * inv for k, v in r.items()}
        for i, rr in enumerate(reduced):
            if c in rr:
                reduced[i] = axpy(rr, -rr[c], r)
        reduced.append(r)
        pivots.append(c)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [reduced[i] for i in order], [pivots[i] for i in order]


def in_span(reduced: list[dict], pivots: list[int], vector: dict) -> bool:
    """Membership of vector, which holds no zero entry, in the row span of
    an already reduced matrix."""
    r = dict(vector)
    for p, rr in zip(pivots, reduced):
        if p in r:
            r = axpy(r, -r[p], rr)
    return not r


def nullspace(num_cols: int, entries, field: FieldSpec) -> list[dict]:
    """Basis of the right kernel {x : row . x = 0 for every row} of the
    matrix given by ((row, column), coeff) entries, equal positions summed;
    rows are reduced in the order in which they first appear."""
    rows: dict = {}
    for (r, c), v in collect(entries).items():
        rows.setdefault(r, {})[c] = v
    reduced, pivots = row_reduce(list(rows.values()), field)
    pivot_set = set(pivots)
    basis = []
    for free in range(num_cols):
        if free in pivot_set:
            continue
        vec = {free: field.one}
        for p, rr in zip(pivots, reduced):
            c = rr.get(free)
            if c:
                vec[p] = -c
        basis.append(vec)
    return basis


def solve_unique(
    rows: list[dict], rhs: list[Scalar], num_unknowns: int, field: FieldSpec
) -> list[Scalar]:
    """Solve the square-rank system row . x = rhs; raises NotInvertible
    otherwise.  The rows must hold no zero entry (see `row_reduce`)."""
    rhs_col = num_unknowns
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[rhs_col] = b
        aug.append(r)
    reduced, pivots = row_reduce(aug, field)
    if rhs_col in pivots:
        raise NotInvertible("inconsistent linear system")
    if len(pivots) < num_unknowns:
        raise NotInvertible("singular linear system")
    x = [field.zero] * num_unknowns
    for p, rr in zip(pivots, reduced):
        x[p] = rr.get(rhs_col, field.zero)
    return x


def scalar_det(matrix: list[list[Scalar]], field: FieldSpec) -> Scalar:
    """Determinant by exact Gaussian elimination."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    det = field.one
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return field.zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c]
        inv = m[c][c].inverse()
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                for k in range(c, n):
                    if m[c][k]:
                        m[r][k] = m[r][k] - f * m[c][k]
    return det
