"""Two-cocycles on a Hopf algebra and the two twists they induce.

A cocycle is stored densely as a basis matrix of exact scalars.  From it
we build the twisted comodule algebra (new product on the u-basis, old
coaction) and the cotwisted Hopf algebra (new product, old coalgebra,
antipode re-solved).  Inverses are convolution inverses, computed by one
linear solve on every algebra.

The cocycle identity, the convolution identity and the twist are each
written once, for matrices of any values with +, * and .is_zero, so the
lifted cocycle of generic_base, with coordinate-ring values, uses them too.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .arith import Scalar
from .errors import CocycleMismatch, NotInvertible, RangeError, UnsupportedFamily
from .hopf import HopfAlgebra, _canonical_terms, associative, fails_at
from .linalg import collect, solve_unique
from .report import Report
from .tring import sum_of_products


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
            # a form given as its own inverse is checked against itself, so
            # that convolution_failure takes its support once
            if inverse_values is values:
                self._inverse = self.values
            else:
                self._inverse = [list(row) for row in inverse_values]
            _check_convolution_pair(hopf, self.values, self._inverse)

    def __call__(self, i: int, j: int) -> Scalar:
        return self.values[i][j]

    @property
    def inverse_values(self) -> list[list[Scalar]]:
        if self._inverse is None:
            self._inverse = convolution_inverse(self.hopf, self)
        return self._inverse

    def inverse(self, i: int, j: int) -> Scalar:
        return self.inverse_values[i][j]


def _values_of(alpha) -> list[list[Scalar]]:
    return alpha.values if isinstance(alpha, TwoCocycle) else alpha


def require_cocycle_of(hopf: HopfAlgebra, alpha) -> TwoCocycle:
    """alpha itself, if it is a TwoCocycle of this very instance;
    CocycleMismatch otherwise."""
    if not isinstance(alpha, TwoCocycle) or alpha.hopf is not hopf:
        raise CocycleMismatch("the cocycle is not a TwoCocycle of this algebra instance")
    return alpha


def trivial_cocycle(hopf: HopfAlgebra) -> TwoCocycle:
    """counit tensor counit.  On a Hopf algebra it is a cocycle and its own
    convolution inverse, so no condition check and no solve run.

    It is still checked against itself as a convolution pair, which
    re-certifies counit(x1) counit(x2) = counit(x), the part of the counit
    axiom it rests on; `HopfAlgebra.from_json` does not check that on the
    tables it accepts.  The check is factored: the convolution at (x, y) is
    f(x) f(y) with f(x) = sum counit(x1) counit(x2), so it reads each
    coproduct once, and only when f is not the counit are the pairs
    scanned, in `convolution_failure`'s order and with its message.  f =
    -counit passes, as the full check does.

    Where counit(x1) x2 = x on every basis element, twisting by this
    cocycle gives back the product table term for term, so the plain
    algebra is recorded as the target of `identities.mu` and no twist is
    built."""
    counit, zero = hopf.counit, hopf.field.zero
    values = [[zero] * hopf.dim for _ in counit]
    support = [(i, e) for i, e in enumerate(counit) if not e.is_zero]
    for i, ei in support:
        for j, ej in support:
            values[i][j] = ei * ej
    alpha = TwoCocycle(hopf, values, check=False)
    f = []
    for legs in hopf.comult:
        fx = zero
        for j, k, c in legs:
            if not (counit[j].is_zero or counit[k].is_zero):
                fx = fx + c * counit[j] * counit[k]
        f.append(fx)
    if f != counit:
        for x, fx in enumerate(f):
            for y, fy in enumerate(f):
                if fx * fy != values[x][y]:
                    raise NotInvertible(f"convolution identity {fails_at(hopf, (x, y))}")
    alpha._inverse = alpha.values
    if _counit_recovers(hopf, 0):
        alpha._mu_target = hopf
    return alpha


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


def cocycle_failure(hopf: HopfAlgebra, vals, zero):
    """The first basis triple (x, y, z), in loop order, at which
    vals(x1, y1) vals(x2 y2, z) != vals(y1, z1) vals(x, y2 z2); None if
    there is none.  The entries of the matrix vals may be any values with
    +, * and .is_zero (scalars, or coordinate-ring elements for the lifted
    cocycle); zero starts each sum.

    Both sides factor through the twisted algebra A on the u-basis over
    the values, u_x . u_y = vals(x1, y1) u_{x2 y2}, whose table P is built
    once per pair.  If A is associative, vals is a cocycle: applying
    u_h -> counit(h) to (u_x u_y) u_z and to u_x (u_y u_z) gives the two
    sides of the identity, provided the counit is multiplicative on the
    table and x1 counit(x2) = x (`_counit_reduces`).  When both hold, A is
    put through Light's test (`hopf.associative`), and a pass returns None.
    Otherwise, or if A fails, every triple is scanned: the identity reads
    sum_k P(x, y)[k] vals(k, z) == sum_k vals(x, k) P(y, z)[k]."""
    dim = hopf.dim
    table = _twist(hopf, hopf.mult, vals)
    u = hopf.unit_index
    if _counit_reduces(hopf) and associative(dim, table, u, vals[u][u]):
        return None
    prod = [[table.get((x, y), ()) for y in range(dim)] for x in range(dim)]
    for x in range(dim):
        vx = vals[x]
        for y in range(dim):
            pxy, py = prod[x][y], prod[y]
            for z in range(dim):
                lhs = zero
                for k, c in pxy:
                    v = vals[k][z]
                    if not v.is_zero:
                        lhs = lhs + c * v
                rhs = zero
                for k, c in py[z]:
                    v = vx[k]
                    if not v.is_zero:
                        rhs = rhs + v * c
                if lhs != rhs:
                    return x, y, z
    return None


def _counit_reduces(hopf: HopfAlgebra) -> bool:
    """Whether counit(b_i b_j) = counit(b_i) counit(b_j) on every basis pair,
    read from the table, and x1 counit(x2) = x on every basis element: the
    two facts by which the counit takes the associator of a twisted algebra
    to the cocycle identity.  `HopfAlgebra.from_json` accepts tables on
    which they fail."""
    if not _counit_recovers(hopf, 1):
        return False
    counit, zero = hopf.counit, hopf.field.zero
    for i, ei in enumerate(counit):
        for j, ej in enumerate(counit):
            got = zero
            for k, c in hopf.mult.get((i, j), ()):
                if not counit[k].is_zero:
                    got = got + c * counit[k]
            if got != (zero if ei.is_zero or ej.is_zero else ei * ej):
                return False
    return True


def _counit_recovers(hopf: HopfAlgebra, leg: int) -> bool:
    """Whether applying the counit to one leg of each coproduct gives back
    the basis element: counit(x1) x2 = x for leg 0, x1 counit(x2) = x for
    leg 1."""
    counit, one = hopf.counit, hopf.field.one
    other = 1 - leg
    return all(
        collect((t[other], t[2] * counit[t[leg]]) for t in legs if not counit[t[leg]].is_zero)
        == {i: one}
        for i, legs in enumerate(hopf.comult)
    )


def verify_cocycle_condition(hopf: HopfAlgebra, alpha) -> Report:
    """Normalization, and the cocycle identity on every basis triple by
    `cocycle_failure`, which names the first failing triple."""
    rep = verify_normalization(hopf, alpha)
    bad = cocycle_failure(hopf, _values_of(alpha), hopf.field.zero)
    rep.add("cocycle-condition", bad is None, fails_at(hopf, bad))
    return rep


def convolution_failure(hopf: HopfAlgebra, a, b, zero):
    """The first basis pair (x, y) at which the convolution a * b, or else
    b * a, differs from counit(x) counit(y), as (x, y, reverse) with
    reverse true when only b * a fails; None if a and b are two-sided
    convolution inverses.  Entries as for cocycle_failure; each
    convolution is one `tring.sum_of_products` call, which sums
    coordinate-ring values on integer numerators.

    The reverse pass stays although, over a coassociative coalgebra, a * b
    = 1 already implies b * a = 1 (the convolution algebra is a free module
    of finite rank over a commutative ring).  Coassociativity is not
    checked here: `HopfAlgebra.from_json` and `TwoCocycle(inverse_values=...)`
    accept tables the axiom battery has not seen, and on a table that is
    not coassociative b * a is checked by this pass alone."""
    comult, counit = hopf.comult, hopf.counit

    def legs(first, second):
        # the legs (l1, l2) of each coproduct with l1 in first and l2 in second
        return [tuple(leg for leg in ls if leg[0] in first and leg[1] in second) for ls in comult]

    # a pair of legs meets a nonzero f(x1, y1) g(x2, y2) only if x1, x2 are
    # in the row supports and y1, y2 in the column supports of f and g
    rows_a, cols_a = _support(a)
    rows_b, cols_b = (rows_a, cols_a) if b is a else _support(b)
    passes = (
        (False, a, b, legs(rows_a, rows_b), legs(cols_a, cols_b)),
        (True, b, a, legs(rows_b, rows_a), legs(cols_b, cols_a)),
    )
    for x in range(hopf.dim):
        for y in range(hopf.dim):
            # the start value itself where a counit value is zero, so that
            # an empty sum matches without a product or a comparison
            ex, ey = counit[x], counit[y]
            want = zero if ex.is_zero or ey.is_zero else ex * ey
            for reverse, f, g, legs_x, legs_y in passes:
                triples = [
                    (u, v, cx * cy)
                    for x1, x2, cx in legs_x[x]
                    for y1, y2, cy in legs_y[y]
                    if not (u := f[x1][y1]).is_zero and not (v := g[x2][y2]).is_zero
                ]
                acc = sum_of_products(zero, triples)
                if acc is not want and acc != want:
                    return x, y, reverse
    return None


def _support(vals) -> tuple[set, set]:
    """The rows and the columns of the matrix vals that hold a nonzero entry."""
    rows, cols = set(), set()
    for i, row in enumerate(vals):
        for j, v in enumerate(row):
            if not v.is_zero:
                rows.add(i)
                cols.add(j)
    return rows, cols


def _check_convolution_pair(hopf, a, b) -> None:
    bad = convolution_failure(hopf, a, b, hopf.field.zero)
    if bad is not None:
        prefix = "reverse convolution" if bad[2] else "convolution"
        raise NotInvertible(f"{prefix} identity {fails_at(hopf, bad[:2])}")


def convolution_inverse(hopf: HopfAlgebra, alpha) -> list[list[Scalar]]:
    """Solve sum alpha(x1,y1) beta(x2,y2) = counit(x)counit(y); checked
    two-sided before returning."""
    vals = _values_of(alpha)
    dim = hopf.dim
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
    flat = solve_unique(rows, rhs, dim * dim, hopf.field)
    inv = [[flat[x * dim + y] for y in range(dim)] for x in range(dim)]
    _check_convolution_pair(hopf, vals, inv)
    return inv


def _twist(hopf: HopfAlgebra, mult, vals, right: bool = False) -> dict:
    """The product table x . y = sum vals(x1, y1) m(x2, y2), or
    sum m(x1, y1) vals(x2, y2) when right is set, where m is the product
    of the table mult."""
    # a coproduct leg is (first, second, coeff): vals reads the legs at
    # position v and the table those at position m
    v, m = (1, 0) if right else (0, 1)
    # only legs that meet a nonzero row (for x) or column (for y) of vals count
    rows, cols = _support(vals)
    legs_x = [tuple(lx for lx in legs if lx[v] in rows) for legs in hopf.comult]
    legs_y = [tuple(ly for ly in legs if ly[v] in cols) for legs in hopf.comult]
    out: dict[tuple[int, int], tuple] = {}
    for x in range(hopf.dim):
        for y in range(hopf.dim):
            terms = _canonical_terms(
                (k, lx[2] * ly[2] * vals[lx[v]][ly[v]] * cm)
                for lx in legs_x[x]
                for ly in legs_y[y]
                if not vals[lx[v]][ly[v]].is_zero
                for k, cm in mult.get((lx[m], ly[m]), ())
            )
            if terms:
                out[(x, y)] = terms
    return out


def is_lazy(hopf: HopfAlgebra, alpha) -> bool:
    """True iff twisting from the left and from the right agree on every
    basis pair."""
    vals = _values_of(alpha)
    return _twist(hopf, hopf.mult, vals) == _twist(hopf, hopf.mult, vals, right=True)


class TwistedAlgebra:
    """The comodule algebra on the u-basis: twisted product, original
    coaction, coinvariants reduced to the unit line."""

    __slots__ = ("hopf", "mult", "unit_index", "labels", "_center", "_mu_images", "_mu_tables")

    def __init__(self, hopf: HopfAlgebra, mult, unit_index: int):
        self.hopf = hopf
        self.mult = mult
        self.unit_index = unit_index
        self.labels = [f"u[{lbl}]" for lbl in hopf.labels]
        self._center = None  # reduced centre span, filled by tring on first use
        self._mu_images = None  # letter images, zero and one of identities.mu, filled there
        self._mu_tables = None  # its product tables, filled by tring

    @property
    def dim(self) -> int:
        return self.hopf.dim

    # the product reads nothing but the mult table
    multiply_dicts = HopfAlgebra.multiply_dicts


def twisted_algebra(hopf: HopfAlgebra, alpha: TwoCocycle) -> TwistedAlgebra:
    """Product u_x u_y = alpha(x1, y1) u_{x2 y2} on the u-basis."""
    mult = _twist(hopf, hopf.mult, require_cocycle_of(hopf, alpha).values)
    return TwistedAlgebra(hopf, mult, hopf.unit_index)


def cotwist_hopf(hopf: HopfAlgebra, alpha: TwoCocycle) -> HopfAlgebra:
    """Two-sided twist: same coalgebra, product conjugated by the cocycle
    and its convolution inverse; antipode re-solved from the tables."""
    alpha = require_cocycle_of(hopf, alpha)
    # the right twist by the inverse of the left twist is
    # sum alpha(x1, y1) x2 y2 alpha^-1(x3, y3), by coassociativity
    left = _twist(hopf, hopf.mult, alpha.values)
    mult = _twist(hopf, left, alpha.inverse_values, right=True)
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
