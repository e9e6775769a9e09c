"""The general routines that the no-op fast paths now bypass, kept verbatim
(apart from their names and the imports) as the references of the
differential tests in `test_fast_paths.py`.

- `reference_check_product`: one `collect` per basis triple (i, j, k).
- `reference_mul` and `reference_pow`: every `TElement` product through
  `collect`, every power by repeated squaring from the ring's one.
- `reference_monomial_pow`: the exponents scaled, then sorted.
- `reference_scaled`: every coefficient times the scalar, through `collect`.
"""

from __future__ import annotations

from hopfgen.arith import Scalar
from hopfgen.linalg import collect
from hopfgen.tring import TElement, TMonomial


def reference_check_product(
    dim: int, mult, unit_index: int, one: Scalar
) -> tuple[bool, tuple[int, int, int] | None]:
    """Unit and associativity of a mult table on the basis: whether the
    unit multiplies every basis element to itself on both sides, and the
    lexicographically first triple (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k),
    or None.  Each product is read from the table, not recomputed."""
    unital = all(
        mult.get((unit_index, i)) == ((i, one),) and mult.get((i, unit_index)) == ((i, one),)
        for i in range(dim)
    )
    for i in range(dim):
        for j in range(dim):
            ij = mult.get((i, j), ())
            for k in range(dim):
                left = collect((m, c * cm) for p, c in ij for m, cm in mult.get((p, k), ()))
                right = collect(
                    (m, c * cm) for p, c in mult.get((j, k), ()) for m, cm in mult.get((i, p), ())
                )
                if left != right:
                    return unital, (i, j, k)
    return unital, None


def reference_mul(self: TElement, other: TElement) -> TElement:
    return TElement(
        self.ring,
        collect(
            (m1.mul(m2), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        ),
    )


def reference_scaled(self: TElement, s: Scalar) -> TElement:
    return TElement(self.ring, collect((m, c * s) for m, c in self.terms.items()))


def reference_pow(self: TElement, k: int) -> TElement:
    if k < 0:
        return reference_pow(self.inverse(), -k)
    out = self.ring.one()
    base = self
    while k:
        if k & 1:
            out = reference_mul(out, base)
        base = reference_mul(base, base)
        k >>= 1
    return out


def reference_monomial_pow(self: TMonomial, k: int) -> TMonomial:
    if k == 0:
        return TMonomial(())
    return TMonomial(tuple(sorted((i, e * k) for i, e in self.exps)))
