"""Two-cocycles on a Hopf algebra and the two twists they induce.

A cocycle is stored densely as a basis matrix of exact scalars.  From it
we build the twisted comodule algebra (new product on the u-basis, old
coaction) and the cotwisted Hopf algebra (new product, old coalgebra,
antipode re-solved).  Inverses are convolution inverses, computed by a
linear solve except on group algebras where the system is diagonal.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .arith import Scalar, scalar_from_strings, scalar_to_strings
from .errors import CocycleMismatch, NotInvertible, RangeError, UnsupportedFamily
from .hopf import HopfAlgebra, _canonical_terms, check_product
from .linalg import collect, nullspace, solve_unique
from .report import Report


class TwoCocycle:
    """A normalized bilinear form on basis pairs, with its convolution
    inverse and the target algebra of `identities.mu` kept once computed."""

    __slots__ = ("hopf", "values", "_inverse", "_mu_target")

    def __init__(
        self,
        hopf: HopfAlgebra,
        values: list[list[Scalar]],
        inverse_values: list[list[Scalar]] | None = None,
        check: bool = True,
    ):
        dim = hopf.dim
        if len(values) != dim or any(len(row) != dim for row in values):
            raise RangeError("cocycle matrix must be dim x dim")
        self.hopf = hopf
        self.values = [list(row) for row in values]
        self._inverse = None
        self._mu_target = None
        rep = verify_normalization(hopf, self.values)
        if not rep.ok:
            raise RangeError("; ".join(c.details for c in rep.failures()))
        if check:
            rep = verify_cocycle_condition(hopf, self)
            if not rep.ok:
                raise RangeError("; ".join(c.details for c in rep.failures()))
        if inverse_values is not None:
            _check_convolution_pair(hopf, self.values, inverse_values)
            self._inverse = [list(row) for row in inverse_values]

    def __call__(self, i: int, j: int) -> Scalar:
        return self.values[i][j]

    @property
    def inverse_values(self) -> list[list[Scalar]]:
        if self._inverse is None:
            self._inverse = convolution_inverse(self.hopf, self)
        return self._inverse

    def inverse(self, i: int, j: int) -> Scalar:
        return self.inverse_values[i][j]

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "values": [[scalar_to_strings(v) for v in row] for row in self.values],
        }

    @classmethod
    def from_json(cls, hopf: HopfAlgebra, data: dict, check: bool = True) -> "TwoCocycle":
        field = hopf.field
        values = [
            [scalar_from_strings(field, v) for v in row] for row in data["values"]
        ]
        return cls(hopf, values, check=check)


def _values_of(alpha) -> list[list[Scalar]]:
    return alpha.values if isinstance(alpha, TwoCocycle) else alpha


def require_cocycle_of(hopf: HopfAlgebra, alpha) -> TwoCocycle:
    """alpha itself, if it is a TwoCocycle of this very instance;
    CocycleMismatch otherwise."""
    if not isinstance(alpha, TwoCocycle) or alpha.hopf is not hopf:
        raise CocycleMismatch("the cocycle is not a TwoCocycle of this algebra instance")
    return alpha


def trivial_cocycle(hopf: HopfAlgebra) -> TwoCocycle:
    """counit tensor counit; self-inverse by the counit axiom, so neither
    the condition check nor a solve is needed."""
    values = [
        [hopf.counit[i] * hopf.counit[j] for j in range(hopf.dim)]
        for i in range(hopf.dim)
    ]
    return TwoCocycle(hopf, values, inverse_values=values, check=False)


def verify_normalization(hopf: HopfAlgebra, values) -> Report:
    rep = Report(title="cocycle-normalization")
    vals = _values_of(values)
    u = hopf.unit_index
    bad = next(
        (
            i
            for i in range(hopf.dim)
            if vals[i][u] != hopf.counit[i] or vals[u][i] != hopf.counit[i]
        ),
        None,
    )
    rep.add(
        "normalized",
        bad is None,
        "" if bad is None else f"fails at basis element {hopf.labels[bad]}",
    )
    return rep


def verify_cocycle_condition(hopf: HopfAlgebra, alpha) -> Report:
    """Exhaustive check of the associativity-style constraint on basis
    triples, plus normalization."""
    rep = verify_normalization(hopf, alpha)
    vals = _values_of(alpha)
    dim = hopf.dim
    zero = hopf.field.zero
    bad = None
    for x in range(dim):
        dx = hopf.comult[x]
        for y in range(dim):
            dy = hopf.comult[y]
            for z in range(dim):
                dz = hopf.comult[z]
                lhs = zero
                for x1, x2, cx in dx:
                    for y1, y2, cy in dy:
                        a = vals[x1][y1]
                        if a.is_zero:
                            continue
                        c = cx * cy * a
                        for k, cm in hopf.mult.get((x2, y2), ()):
                            v = vals[k][z]
                            if not v.is_zero:
                                lhs = lhs + c * cm * v
                rhs = zero
                for y1, y2, cy in dy:
                    for z1, z2, cz in dz:
                        a = vals[y1][z1]
                        if a.is_zero:
                            continue
                        c = cy * cz * a
                        for k, cm in hopf.mult.get((y2, z2), ()):
                            v = vals[x][k]
                            if not v.is_zero:
                                rhs = rhs + c * cm * v
                if lhs != rhs:
                    bad = (x, y, z)
                    break
            if bad:
                break
        if bad:
            break
    rep.add(
        "cocycle-condition",
        bad is None,
        ""
        if bad is None
        else "fails at ({}, {}, {})".format(*(hopf.labels[i] for i in bad)),
    )
    return rep


def _convolve(hopf: HopfAlgebra, a, b, x: int, y: int) -> Scalar:
    out = hopf.field.zero
    for x1, x2, cx in hopf.comult[x]:
        for y1, y2, cy in hopf.comult[y]:
            va = a[x1][y1]
            if va.is_zero:
                continue
            vb = b[x2][y2]
            if vb.is_zero:
                continue
            out = out + cx * cy * va * vb
    return out


def _check_convolution_pair(hopf, a, b) -> None:
    for x in range(hopf.dim):
        for y in range(hopf.dim):
            want = hopf.counit[x] * hopf.counit[y]
            if _convolve(hopf, a, b, x, y) != want:
                raise NotInvertible(
                    f"convolution identity fails at ({hopf.labels[x]}, {hopf.labels[y]})"
                )
            if _convolve(hopf, b, a, x, y) != want:
                raise NotInvertible(
                    f"reverse convolution identity fails at ({hopf.labels[x]}, {hopf.labels[y]})"
                )


def convolution_inverse(hopf: HopfAlgebra, alpha) -> list[list[Scalar]]:
    """Solve sum alpha(x1,y1) beta(x2,y2) = counit(x)counit(y); checked
    two-sided before returning."""
    vals = _values_of(alpha)
    dim = hopf.dim
    field = hopf.field
    if len(hopf.grouplikes) == dim:
        # group algebra case: comult is diagonal, so the system is too
        inv = []
        for x in range(dim):
            row = []
            for y in range(dim):
                v = vals[x][y]
                if v.is_zero:
                    raise NotInvertible(
                        f"value at ({hopf.labels[x]}, {hopf.labels[y]}) is zero"
                    )
                row.append(field.one / v)
            inv.append(row)
        _check_convolution_pair(hopf, vals, inv)
        return inv
    rows = []
    rhs = []
    for x in range(dim):
        for y in range(dim):
            rows.append(
                collect(
                    (x2 * dim + y2, cx * cy * vals[x1][y1])
                    for x1, x2, cx in hopf.comult[x]
                    for y1, y2, cy in hopf.comult[y]
                    if vals[x1][y1]
                )
            )
            rhs.append(hopf.counit[x] * hopf.counit[y])
    flat = solve_unique(rows, rhs, dim * dim, field)
    inv = [[flat[x * dim + y] for y in range(dim)] for x in range(dim)]
    _check_convolution_pair(hopf, vals, inv)
    return inv


def is_lazy(hopf: HopfAlgebra, alpha) -> bool:
    """True iff twisting from the left and from the right agree on every
    basis pair."""
    vals = _values_of(alpha)
    for x in range(hopf.dim):
        dx = hopf.comult[x]
        for y in range(hopf.dim):
            dy = hopf.comult[y]
            left = collect(
                (k, cx * cy * vals[x1][y1] * cm)
                for x1, x2, cx in dx
                for y1, y2, cy in dy
                if vals[x1][y1]
                for k, cm in hopf.mult.get((x2, y2), ())
            )
            right = collect(
                (k, cx * cy * vals[x2][y2] * cm)
                for x1, x2, cx in dx
                for y1, y2, cy in dy
                if vals[x2][y2]
                for k, cm in hopf.mult.get((x1, y1), ())
            )
            if left != right:
                return False
    return True


class TwistedAlgebra:
    """The comodule algebra on the u-basis: twisted product, original
    coaction, coinvariants reduced to the unit line."""

    __slots__ = ("hopf", "mult", "unit_index", "labels", "_center")

    def __init__(self, hopf: HopfAlgebra, mult, unit_index: int):
        self.hopf = hopf
        self.mult = mult
        self.unit_index = unit_index
        self.labels = [f"u[{lbl}]" for lbl in hopf.labels]
        self._center = None  # reduced centre span, filled by tring on first use

    @property
    def dim(self) -> int:
        return self.hopf.dim

    # the product reads nothing but the mult table
    multiply_dicts = HopfAlgebra.multiply_dicts

    def coaction(self, a: dict[int, Scalar]) -> dict[tuple[int, int], Scalar]:
        return self.hopf.comult_dict(a)

    def is_coinvariant(self, a: dict[int, Scalar]) -> bool:
        want = {(i, self.hopf.unit_index): c for i, c in a.items() if not c.is_zero}
        return self.coaction(a) == want

    def coinvariants(self) -> list[dict[int, Scalar]]:
        hopf = self.hopf
        dim = hopf.dim
        # ((row, column), coeff): row j*dim + k is the b_j (x) b_k coordinate
        # of coaction(a) - a (x) 1
        entries = [((j * dim + k, i), c) for i in range(dim) for j, k, c in hopf.comult[i]]
        entries += [((i * dim + hopf.unit_index, i), -hopf.field.one) for i in range(dim)]
        rows: dict[int, dict[int, Scalar]] = {}
        for (r, i), c in collect(entries).items():
            rows.setdefault(r, {})[i] = c
        return nullspace(dim, list(rows.values()), hopf.field)


def twisted_algebra(hopf: HopfAlgebra, alpha: TwoCocycle, verify: bool = True) -> TwistedAlgebra:
    """Product u_x u_y = alpha(x1, y1) u_{x2 y2} on the u-basis."""
    vals = require_cocycle_of(hopf, alpha).values
    dim = hopf.dim
    mult: dict[tuple[int, int], tuple] = {}
    for i in range(dim):
        di = hopf.comult[i]
        for j in range(dim):
            terms = _canonical_terms(
                (k, ci * cj * vals[i1][j1] * cm)
                for i1, i2, ci in di
                for j1, j2, cj in hopf.comult[j]
                if vals[i1][j1]
                for k, cm in hopf.mult.get((i2, j2), ())
            )
            if terms:
                mult[(i, j)] = terms
    out = TwistedAlgebra(hopf, mult, hopf.unit_index)
    if verify:
        unital, bad = check_product(dim, mult, hopf.unit_index, hopf.field.one)
        if not unital:
            raise NotInvertible("twisted product is not unital")
        if bad is not None:
            raise NotInvertible(
                "twisted product is not associative at ({}, {}, {})".format(
                    *(hopf.labels[i] for i in bad)
                )
            )
    return out


def cotwist_hopf(hopf: HopfAlgebra, alpha: TwoCocycle) -> HopfAlgebra:
    """Two-sided twist: same coalgebra, product conjugated by the cocycle
    and its convolution inverse; antipode re-solved from the tables."""
    alpha = require_cocycle_of(hopf, alpha)
    vals, inv = alpha.values, alpha.inverse_values
    dim = hopf.dim
    mult: dict[tuple[int, int], tuple] = {}
    for i in range(dim):
        di = hopf.comult[i]
        for j in range(dim):
            stage = collect(
                ((ir, jr), ci * cj * vals[i1][j1])
                for i1, ir, ci in di
                for j1, jr, cj in hopf.comult[j]
                if vals[i1][j1]
            )
            terms = _canonical_terms(
                (k, c * ci * cj * inv[i3][j3] * cm)
                for (ir, jr), c in stage.items()
                for i2, i3, ci in hopf.comult[ir]
                for j2, j3, cj in hopf.comult[jr]
                if inv[i3][j3]
                for k, cm in hopf.mult.get((i2, j2), ())
            )
            if terms:
                mult[(i, j)] = terms
    if mult == hopf.mult:
        # identical tables (the shared coalgebra fixes the antipode too):
        # keep the family tag so downstream presentations stay available
        family, name = hopf.family, hopf.name
    else:
        family = {"kind": "generic", "cotwist_of": hopf.family.get("kind")}
        name = f"cotwist({hopf.name})"
    return HopfAlgebra(
        hopf.field,
        list(hopf.labels),
        mult,
        hopf.comult,
        hopf.counit,
        hopf.unit_index,
        family,
        name=name,
    )


def coboundary_cocycle(hopf: HopfAlgebra, seed: int) -> TwoCocycle:
    """Seeded lazy cocycle on a group algebra: alpha(g, h) =
    c(g) c(h) / c(gh) for random nonzero rational weights with c(e) = 1."""
    if len(hopf.grouplikes) != hopf.dim:
        raise UnsupportedFamily("coboundary recipe needs a group algebra")
    rng = random.Random(seed)
    field = hopf.field
    weights = []
    for i in range(hopf.dim):
        if i == hopf.unit_index:
            weights.append(field.one)
        else:
            num = rng.choice([n for n in range(-9, 10) if n])
            den = rng.randint(1, 9)
            weights.append(field.scalar(Fraction(num, den)))
    values = []
    for g in range(hopf.dim):
        row = []
        for h in range(hopf.dim):
            ((gh, _),) = hopf.mult[(g, h)]
            row.append(weights[g] * weights[h] / weights[gh])
        values.append(row)
    return TwoCocycle(hopf, values, check=True)
