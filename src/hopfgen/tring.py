"""Exact Laurent coordinates attached to the basis of a Hopf algebra.

One commuting variable ``t[b]`` per basis element ``b``.  Variables sitting
over group-like elements may carry negative exponents; all others may not.
The ring knows the convolution inverse of the coordinate map, the coproduct
induced on coordinates, and the grading pulled back through the algebra.
"""

from __future__ import annotations

from .arith import FieldSpec, Scalar, format_terms, scalar_from_strings, scalar_to_strings
from .errors import NotInvertible, NotPointedOrder, OutOfLocalization, RangeError
from .hopf import HopfAlgebra, center_table, hab_grading
from .linalg import Sparse, collect, in_span, row_reduce
from .report import Report

# Term pairs one product of two sparse sums may form (`TensorH`, and
# `identities.NCPoly`); a larger product fails with RangeError before any
# work, instead of running for minutes or exhausting memory.
PRODUCT_BUDGET = 10**6


def check_product_budget(m: int, n: int) -> None:
    if m * n > PRODUCT_BUDGET:
        raise RangeError(
            f"product of {m} by {n} terms exceeds the budget of {PRODUCT_BUDGET} term pairs"
        )


class TMonomial:
    """Canonical product of coordinate variables with integer exponents."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps: tuple[tuple[int, int], ...]):
        # sorted by variable index, zero exponents dropped
        self.exps = exps
        self._hash = hash(exps)

    @staticmethod
    def from_pairs(pairs) -> TMonomial:
        acc: dict[int, int] = {}
        for i, e in pairs:
            acc[i] = acc.get(i, 0) + int(e)
        return TMonomial(tuple(sorted((i, e) for i, e in acc.items() if e)))

    def mul(self, other: TMonomial) -> TMonomial:
        """The product, by one merge of the two sorted exponent tuples."""
        a, b = self.exps, other.exps
        if not b:
            return self
        if not a:
            return other
        out = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            x, y = a[i], b[j]
            if x[0] < y[0]:
                out.append(x)
                i += 1
            elif x[0] > y[0]:
                out.append(y)
                j += 1
            else:
                e = x[1] + y[1]
                if e:
                    out.append((x[0], e))
                i += 1
                j += 1
        return TMonomial(tuple(out) + a[i:] + b[j:])

    def pow(self, k: int) -> TMonomial:
        if k == 0:
            return TMonomial(())
        # scaling every exponent by k != 0 keeps the variable order
        return TMonomial(tuple([(i, e * k) for i, e in self.exps]))

    def exp_of(self, index: int) -> int:
        for i, e in self.exps:
            if i == index:
                return e
        return 0

    def __eq__(self, other):
        return isinstance(other, TMonomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.exps < other.exps

    def __repr__(self):
        return f"TMonomial({self.exps!r})"


class TElement(Sparse):
    """Finite Scalar-linear combination of monomials, kept in canonical form."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: TRing, terms: dict[TMonomial, Scalar]):
        self.ring = ring
        self.terms = terms

    def _owner(self) -> TRing:
        return self.ring

    def _like(self, terms: dict[TMonomial, Scalar]) -> TElement:
        return TElement(self.ring, terms)

    def _scalar(self, other) -> Scalar | None:
        """other as a scalar of the ring's field, or None if it is not an
        exact scalar of that field."""
        try:
            return self.ring.field.scalar(other)
        except RangeError:
            return None

    def _lift(self, other) -> TElement | None:
        c = self._scalar(other)
        return None if c is None else self.ring.scalar(c)

    def one(self) -> TElement:
        return self.ring.one()

    def __mul__(self, other):
        if other.__class__ is not TElement:
            s = self._scalar(other)
            return NotImplemented if s is None else self.scaled(s)
        a, b = self.terms, self._operand(other).terms
        if len(a) == 1 and len(b) == 1:
            # stored coefficients are nonzero and the field has no zero
            # divisors, so the product of two terms is one term
            ((m1, c1),) = a.items()
            ((m2, c2),) = b.items()
            return TElement(self.ring, {m1.mul(m2): c1 * c2})
        return TElement(
            self.ring,
            collect((m1.mul(m2), c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items()),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TElement):
            return self * other.inverse()
        s = self._scalar(other)
        if s is None:
            return NotImplemented
        return self.scaled(s.inverse())

    def __pow__(self, k: int):
        # fast paths: a negative power through the inverse, one term directly
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            return TElement(self.ring, {m.pow(k): c**k})
        return super().__pow__(k)

    def inverse(self) -> TElement:
        """Inverse of a single-term element; the monomial part must stay
        inside the localization, so every variable must be group-like."""
        if len(self.terms) != 1:
            raise NotInvertible(f"not a monomial: {self.to_text()}")
        (m, c), = self.terms.items()
        inv = self.ring.monomial([(i, -e) for i, e in m.exps])
        return TElement(self.ring, {inv: c.inverse()})

    def to_text(self) -> str:
        labels = self.ring.hopf.labels
        return format_terms(
            (
                self.terms[m],
                [f"t[{labels[i]}]" if e == 1 else f"t[{labels[i]}]^{e}" for i, e in m.exps],
            )
            for m in sorted(self.terms)
        )

    def to_json(self) -> dict:
        return {
            "terms": [
                {"coeff": scalar_to_strings(c), "exps": [list(p) for p in m.exps]}
                for m, c in sorted(self.terms.items(), key=lambda kv: kv[0].exps)
            ]
        }

    def __repr__(self):
        return f"<TElement {self.to_text()}>"


def telement_from_json(ring: TRing, data: dict) -> TElement:
    return TElement(
        ring,
        collect(
            (
                ring.monomial([(int(i), int(e)) for i, e in term["exps"]]),
                scalar_from_strings(ring.field, term["coeff"]),
            )
            for term in data["terms"]
        ),
    )


class TRing:
    """The coordinate ring of a fixed Hopf algebra instance."""

    __slots__ = ("hopf", "field", "grouplike_set", "_tinv", "_grading")

    def __init__(self, hopf: HopfAlgebra):
        self.hopf = hopf
        self.field: FieldSpec = hopf.field
        self.grouplike_set = set(hopf.grouplikes)
        self._tinv: list[TElement] | None = None
        self._grading = None

    def monomial(self, pairs) -> TMonomial:
        m = TMonomial.from_pairs(pairs)
        dim = self.hopf.dim
        for i, e in m.exps:
            if not 0 <= i < dim:
                raise RangeError(f"variable index {i} out of range")
            if e < 0 and i not in self.grouplike_set:
                raise OutOfLocalization(
                    f"t[{self.hopf.labels[i]}] is not invertible"
                )
        return m

    def element(self, terms: dict[TMonomial, Scalar]) -> TElement:
        return TElement(self, {m: c for m, c in terms.items() if not c.is_zero})

    def zero(self) -> TElement:
        return TElement(self, {})

    def one(self) -> TElement:
        return TElement(self, {TMonomial(()): self.field.one})

    def scalar(self, c: Scalar) -> TElement:
        return self.element({TMonomial(()): c})

    def var(self, index: int, exp: int = 1) -> TElement:
        return TElement(self, {self.monomial([(index, exp)]): self.field.one})

    def t_inverse(self, index: int) -> TElement:
        if self._tinv is None:
            self._tinv = self._solve_t_inverse()
        return self._tinv[index]

    def _solve_t_inverse(self) -> list[TElement]:
        h = self.hopf
        out: list[TElement | None] = [None] * h.dim
        for g in h.grouplikes:
            out[g] = self.var(g, -1)
        for i in range(h.dim):
            if out[i] is not None:
                continue
            head = None
            rest = []
            for j, k, c in h.comult[i]:
                if k == i:
                    if head is not None:
                        raise NotPointedOrder(
                            f"coproduct of {h.labels[i]} has two diagonal terms"
                        )
                    head = (j, c)
                else:
                    rest.append((j, k, c))
            if head is None or head[0] not in self.grouplike_set:
                raise NotPointedOrder(
                    f"coproduct of {h.labels[i]} has no group-like co-unit leg"
                )
            j0, c0 = head
            acc = self.scalar(h.counit[i])
            for j, k, c in rest:
                lower = out[k]
                if lower is None:
                    raise NotPointedOrder(
                        f"coproduct of {h.labels[i]} is not triangular in the basis order"
                    )
                acc = acc - c * (self.var(j) * lower)
            out[i] = acc * self.var(j0, -1) * c0.inverse()
        return out  # type: ignore[return-value]

    def coproduct(self, elem: TElement) -> dict[tuple[TMonomial, TMonomial], Scalar]:
        """Coordinate coproduct: t[b] goes to the sum of t[b1] (x) t[b2],
        inverted group-like variables stay diagonal, products multiply."""
        h = self.hopf
        pairs = []
        for m, coeff in elem.terms.items():
            cur = {(TMonomial(()), TMonomial(())): coeff}
            for i, e in m.exps:
                if i in self.grouplike_set:
                    step = {(self.monomial([(i, e)]), self.monomial([(i, e)])): self.field.one}
                    cur = tensor_t_product(cur, step)
                    continue
                base = {
                    (TMonomial.from_pairs([(j, 1)]), TMonomial.from_pairs([(k, 1)])): c
                    for j, k, c in h.comult[i]
                }
                for _ in range(e):
                    cur = tensor_t_product(cur, base)
            pairs.extend(cur.items())
        return collect(pairs)

    def hab_degree(self, mon: TMonomial) -> tuple[int, ...]:
        if self._grading is None:
            self._grading = hab_grading(self.hopf)
        ab, deg = self._grading
        total = ab.identity
        for i, e in mon.exps:
            total = ab.add(total, ab.scale(deg[i], e))
        return total

    def grading_group(self):
        if self._grading is None:
            self._grading = hab_grading(self.hopf)
        return self._grading[0]

    def evaluate(self, elem: TElement, values: list[Scalar]) -> Scalar:
        """Substitute one field value per variable; negative exponents
        require the substituted value to be invertible."""
        total = self.field.zero
        for m, c in elem.terms.items():
            term = c
            for i, e in m.exps:
                v = values[i]
                term = term * (v.inverse() ** (-e) if e < 0 else v**e)
            total = total + term
        return total


def tensor_t_product(a: dict, b: dict) -> dict:
    """Componentwise product of two coordinate tensors (both legs commute)."""
    return collect(
        ((l1.mul(l2), r1.mul(r2)), c1 * c2)
        for (l1, r1), c1 in a.items()
        for (l2, r2), c2 in b.items()
    )


def t_ring(hopf: HopfAlgebra) -> TRing:
    """The coordinate ring of this instance; one ring (and one solved
    inverse table) per algebra object, built on first use and kept on it."""
    if hopf._ring is None:
        hopf._ring = TRing(hopf)
    return hopf._ring


def t_inverse_map(hopf: HopfAlgebra) -> tuple[TElement, ...]:
    ring = t_ring(hopf)
    return tuple(ring.t_inverse(i) for i in range(hopf.dim))


def s_coproduct(hopf: HopfAlgebra, elem: TElement) -> dict[tuple[TMonomial, TMonomial], Scalar]:
    if elem.ring.hopf is not hopf:
        raise RangeError("element belongs to a different algebra's coordinate ring")
    return elem.ring.coproduct(elem)


def verify_t_inverse(hopf: HopfAlgebra) -> Report:
    """Both convolution identities of the coordinate inverse, one basis
    element at a time: the split product against t, in either order,
    must collapse to the counit value."""
    ring = t_ring(hopf)
    rep = Report(f"coordinate inverse on {hopf.name or 'algebra'}")
    for i in range(hopf.dim):
        target = ring.scalar(hopf.counit[i])
        left = ring.zero()
        right = ring.zero()
        for j, k, c in hopf.comult[i]:
            left = left + c * (ring.var(j) * ring.t_inverse(k))
            right = right + c * (ring.t_inverse(j) * ring.var(k))
        lbl = hopf.labels[i]
        rep.add(f"left {lbl}", left == target, "" if left == target else left.to_text())
        rep.add(f"right {lbl}", right == target, "" if right == target else right.to_text())
    return rep


def hab_degree(hopf: HopfAlgebra, x) -> tuple[int, ...]:
    """Grading degree of a monomial, or the common degree of an element
    (mixed-degree elements raise)."""
    ring = t_ring(hopf)
    if isinstance(x, TMonomial):
        return ring.hab_degree(x)
    if isinstance(x, TElement):
        degs = {ring.hab_degree(m) for m in x.terms}
        if not degs:
            return ring.grading_group().identity
        if len(degs) > 1:
            raise RangeError(f"mixed degrees {sorted(degs)}")
        return degs.pop()
    raise RangeError("expected a TMonomial or TElement")


class TensorH(Sparse):
    """Sum of (coordinate monomial) tensor (algebra basis element) terms.

    The right tensor factor multiplies through `algebra.mult`, so the same
    class serves the plain product and any twisted one."""

    __slots__ = ("ring", "algebra", "terms")

    def __init__(self, ring: TRing, algebra, terms: dict[tuple[TMonomial, int], Scalar]):
        self.ring = ring
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if not c.is_zero}

    def _owner(self) -> tuple:
        return self.ring, self.algebra

    def _like(self, terms: dict[tuple[TMonomial, int], Scalar]) -> TensorH:
        out = TensorH.__new__(TensorH)
        out.ring = self.ring
        out.algebra = self.algebra
        out.terms = terms
        return out

    @staticmethod
    def zero(ring: TRing, algebra) -> TensorH:
        return TensorH(ring, algebra, {})

    @staticmethod
    def from_element(ring: TRing, algebra, elem: TElement, index: int) -> TensorH:
        return TensorH(ring, algebra, {(m, index): c for m, c in elem.terms.items()})

    def one(self) -> TensorH:
        return self._like({(TMonomial(()), self.algebra.unit_index): self.ring.field.one})

    def scale(self, c) -> TensorH:
        """self times a coordinate-ring element or a scalar."""
        if not isinstance(c, TElement):
            return self.scaled(self.ring.field.scalar(c))
        return self._like(
            collect(
                ((m1.mul(m2), i), c1 * c2)
                for (m1, i), c1 in self.terms.items()
                for m2, c2 in c.terms.items()
            )
        )

    def __mul__(self, other):
        if not isinstance(other, TensorH):
            return self.scale(other)
        o = self._operand(other)
        check_product_budget(len(self.terms), len(o.terms))
        mult = self.algebra.mult
        return self._like(
            collect(
                ((m1.mul(m2), k), c1 * c2 * c)
                for (m1, i), c1 in self.terms.items()
                for (m2, j), c2 in o.terms.items()
                for k, c in mult.get((i, j), ())
            )
        )

    __rmul__ = scale

    def is_coinvariant(self) -> bool:
        unit = self.algebra.unit_index
        return all(i == unit for _, i in self.terms)

    def is_central(self) -> bool:
        """Every coordinate-monomial slice lies in the centre of the
        (possibly twisted) algebra."""
        reduced, pivots = _center_span(self.algebra, self.ring.field)
        slices: dict[TMonomial, dict[int, Scalar]] = {}
        for (m, i), c in self.terms.items():
            slices.setdefault(m, {})[i] = c
        return all(in_span(reduced, pivots, vec) for vec in slices.values())

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        labels = self.algebra.labels
        keys = sorted(self.terms, key=lambda k: (k[1], k[0].exps))
        parts = []
        for m, i in keys:
            coeff = TElement(self.ring, {m: self.terms[(m, i)]})
            parts.append(f"{coeff.to_text()} (x) {labels[i]}")
        return "  +  ".join(parts)

    def __repr__(self):
        return f"<TensorH {self.to_text()}>"


class TensorOps:
    """Bound constructors for tensors over one algebra (plain or twisted)."""

    __slots__ = ("ring", "algebra")

    def __init__(self, ring: TRing, algebra):
        self.ring = ring
        self.algebra = algebra

    def zero(self) -> TensorH:
        return TensorH.zero(self.ring, self.algebra)

    def one(self) -> TensorH:
        return self.zero().one()

    def term(self, coeff: TElement, index: int) -> TensorH:
        return TensorH.from_element(self.ring, self.algebra, coeff, index)

    def var_tensor(self, var_index: int, basis_index: int) -> TensorH:
        return self.term(self.ring.var(var_index), basis_index)


def tensor_ops(algebra) -> TensorOps:
    """Tensor arithmetic over `algebra`; a twisted algebra contributes its
    own mult table while coordinates come from the untwisted instance."""
    hopf = algebra if isinstance(algebra, HopfAlgebra) else algebra.hopf
    return TensorOps(t_ring(hopf), algebra)


def _center_span(algebra, field: FieldSpec) -> tuple[list[dict], list[int]]:
    """Reduced centre basis of a plain or twisted algebra, kept on it."""
    if algebra._center is None:
        rows = center_table(algebra.dim, algebra.mult, field)
        algebra._center = row_reduce(rows, field)
    return algebra._center
