"""The Scalar-coefficient coordinate-ring element that `hopfgen.tring`
replaced, kept as the reference of the differential tests in
`test_telement_reference.py`.

`ReferenceTElement` is the former `tring.TElement` verbatim, apart from its
name, the imports and the few lines that called back into the ring to
build an element (`_lift`, `one`, `inverse`), which now build reference
elements.  Its terms map `TMonomial` keys to nonzero `Scalar`s; a product
multiplies every pair of monomials and every pair of Scalars.
`reference_evaluate` is the former `TRing.evaluate`.
"""

from __future__ import annotations

from hopfgen.arith import Scalar, format_terms
from hopfgen.errors import NotInvertible, RangeError
from hopfgen.linalg import Sparse, collect
from hopfgen.tring import TMonomial, TRing


class ReferenceTElement(Sparse):
    """Finite Scalar-linear combination of monomials, kept in canonical form."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: TRing, terms: dict[TMonomial, Scalar]):
        self.ring = ring
        self.terms = terms

    def _owner(self) -> TRing:
        return self.ring

    def _like(self, terms: dict[TMonomial, Scalar]) -> ReferenceTElement:
        return ReferenceTElement(self.ring, terms)

    def _scalar(self, other) -> Scalar | None:
        try:
            return self.ring.field.scalar(other)
        except RangeError:
            return None

    def _lift(self, other) -> ReferenceTElement | None:
        c = self._scalar(other)
        return None if c is None else reference_element(self.ring, {self.ring._unit: c})

    def one(self) -> ReferenceTElement:
        return ReferenceTElement(self.ring, {self.ring._unit: self.ring.field.one})

    def __mul__(self, other):
        if other.__class__ is not ReferenceTElement:
            s = self._scalar(other)
            return NotImplemented if s is None else self.scaled(s)
        a, b = self.terms, self._operand(other).terms
        if len(a) == 1 and len(b) == 1:
            ((m1, c1),) = a.items()
            ((m2, c2),) = b.items()
            return ReferenceTElement(self.ring, {m1.mul(m2): c1 * c2})
        return ReferenceTElement(
            self.ring,
            collect((m1.mul(m2), c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items()),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ReferenceTElement):
            return self * other.inverse()
        s = self._scalar(other)
        if s is None:
            return NotImplemented
        return self.scaled(s.inverse())

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            power = TMonomial([(i, e * k) for i, e in m.exps], m.width)
            return ReferenceTElement(self.ring, {power: c**k})
        return super().__pow__(k)

    def inverse(self) -> ReferenceTElement:
        if len(self.terms) != 1:
            raise NotInvertible(f"not a monomial: {self.to_text()}")
        (m, c), = self.terms.items()
        self.ring.check_invertible(m)
        return ReferenceTElement(self.ring, {m.inverse(): c.inverse()})

    def to_text(self) -> str:
        labels = self.ring.hopf.labels
        return format_terms(
            (
                self.terms[m],
                [f"t[{labels[i]}]" if e == 1 else f"t[{labels[i]}]^{e}" for i, e in m.exps],
            )
            for m in sorted(self.terms)
        )


def reference_element(ring: TRing, terms: dict[TMonomial, Scalar]) -> ReferenceTElement:
    """The former `TRing.element`: zero coefficients dropped."""
    return ReferenceTElement(ring, {m: c for m, c in terms.items() if not c.is_zero})


def reference_evaluate(ring: TRing, elem: ReferenceTElement, values: list[Scalar]) -> Scalar:
    total = ring.field.zero
    for m, c in elem.terms.items():
        term = c
        for i, e in m.exps:
            v = values[i]
            term = term * (v.inverse() ** (-e) if e < 0 else v**e)
        total = total + term
    return total
