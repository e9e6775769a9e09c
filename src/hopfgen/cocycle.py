"""Two-cocycles on a Hopf algebra and the two twists they induce.

A cocycle is stored densely as a basis matrix of exact scalars.  From it
we build the twisted comodule algebra (new product on the u-basis, old
coaction) and the cotwisted Hopf algebra (new product, old coalgebra,
antipode re-solved).  Inverses are convolution inverses, computed by one
linear solve on every algebra.

The scan for a failing triple of the cocycle identity and the convolution
identity are each written once, for matrices of scalars or of
coordinate-ring values, through `tring.sum_of_products`, so the lifted
cocycle of generic_base uses them too.  The twist is a table of scalars,
summed on the integer numerators of the packed tables (`hopf.pack_rows`).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .arith import Scalar, _lowest
from .errors import CocycleMismatch, NotInvertible, RangeError, UnsupportedFamily
from .hopf import (
    HopfAlgebra,
    associative,
    fails_at,
    fitted,
    integer_forms,
    pack_rows,
    pack_table,
    packed_table,
    vanishes,
)
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
    forms = integer_forms(hopf)
    codec, is_zero, _, (legs, dc, _), (eps, de, _) = forms
    # f over dc de^2, the counit over de
    f = [sum(c * eps[j] * eps[k] for j, k, c in row) for row in legs]
    if not all(is_zero(fx - ex * dc * de) for fx, ex in zip(f, eps)):
        decode = _decoder(codec, hopf.field, dc * de * de)
        f = [decode(fx) or zero for fx in f]
        for x, fx in enumerate(f):
            for y, fy in enumerate(f):
                if fx * fy != values[x][y]:
                    raise NotInvertible(f"convolution identity {fails_at(hopf, (x, y))}")
    alpha._inverse = alpha.values
    if _counit_recovers(forms, 0):
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


def cocycle_failure(hopf: HopfAlgebra, vals):
    """The first basis triple (x, y, z), in loop order, at which the
    matrix of scalars vals fails the cocycle identity (`triple_failure`);
    None if there is none.

    If the twisted algebra A, u_x . u_y = vals(x1, y1) u_{x2 y2}, is
    associative, vals is a cocycle: applying u_h -> counit(h) to
    (u_x u_y) u_z and to u_x (u_y u_z) gives the two sides of the
    identity, provided the counit is multiplicative on the table and
    x1 counit(x2) = x (`_counit_reduces`).  When both hold and A passes
    Light's test (`hopf.associative`), None is returned without a scan."""
    u = hopf.unit_index
    if _counit_reduces(hopf) and associative(
        hopf.dim, _twist(hopf, hopf.mult, vals), u, vals[u][u]
    ):
        return None
    return triple_failure(hopf, vals, hopf.field.zero)


def triple_failure(hopf: HopfAlgebra, vals, zero):
    """The first basis triple (x, y, z), in loop order, at which
    vals(x1, y1) vals(x2 y2, z) != vals(y1, z1) vals(x, y2 z2); None if
    there is none.  vals holds scalars or coordinate-ring elements, and
    zero is their zero; each triple is one `tring.sum_of_products` call
    over both sides, read from the coproduct and the product table."""
    dim, comult, mult = hopf.dim, hopf.comult, hopf.mult

    def products(lx, ly):
        # (vals(x1, y1), k, c) for each term c b_k of x2 y2
        return [
            (v, k, cx * cy * cm)
            for x1, x2, cx in lx
            for y1, y2, cy in ly
            if not (v := vals[x1][y1]).is_zero
            for k, cm in mult.get((x2, y2), ())
        ]

    terms = [[products(lx, ly) for ly in comult] for lx in comult]
    for x in range(dim):
        vx = vals[x]
        for y in range(dim):
            txy, ty = terms[x][y], terms[y]
            for z in range(dim):
                triples = [(v, w, c) for v, k, c in txy if not (w := vals[k][z]).is_zero]
                triples += [(w, v, -c) for v, k, c in ty[z] if not (w := vx[k]).is_zero]
                if not sum_of_products(zero, triples).is_zero:
                    return x, y, z
    return None


def _counit_reduces(hopf: HopfAlgebra) -> bool:
    """Whether counit(b_i b_j) = counit(b_i) counit(b_j) on every basis pair,
    read from the table, and x1 counit(x2) = x on every basis element: the
    two facts by which the counit takes the associator of a twisted algebra
    to the cocycle identity.  `HopfAlgebra.from_json` accepts tables on
    which they fail."""
    forms = integer_forms(hopf)
    if not _counit_recovers(forms, 1):
        return False
    _, is_zero, (rows, dm, _), _, (eps, de, _) = forms
    # counit(b_i b_j) over dm de, counit(b_i) counit(b_j) over de^2
    return all(
        is_zero(sum(c * eps[k] for k, c in rows[i][j]) * de - ei * ej * dm)
        for i, ei in enumerate(eps)
        for j, ej in enumerate(eps)
    )


def _counit_recovers(forms, leg: int) -> bool:
    """Whether applying the counit to one leg of each coproduct gives back
    the basis element: counit(x1) x2 = x for leg 0, x1 counit(x2) = x for
    leg 1; on the `hopf.integer_forms` of the algebra."""
    _, is_zero, _, (legs, dc, _), (eps, de, _) = forms
    other = 1 - leg
    for i, row in enumerate(legs):
        acc = {i: -dc * de}
        for t in row:
            e = eps[t[leg]]
            if e:
                acc[t[other]] = acc.get(t[other], 0) + t[2] * e
        if not vanishes(acc, is_zero):
            return False
    return True


def _decoder(codec, field, den: int):
    """decode(x): the Scalar x / den, or None for zero, where x is a sum
    of products of numerators that `codec` encodes (integers when it is
    None); each distinct x is decoded once, a residue through
    `Kronecker.reduce`."""
    memo: dict[int, Scalar | None] = {}

    def decode(x: int) -> Scalar | None:
        got = memo.get(x, memo)
        if got is memo:
            vec = (x,) if codec is None else codec.reduce(x % codec.modulus)
            got = memo[x] = _lowest(field, tuple(vec), den) if any(vec) else None
        return got

    return decode


def verify_cocycle_condition(hopf: HopfAlgebra, alpha) -> Report:
    """Normalization, and the cocycle identity on every basis triple by
    `cocycle_failure`, which names the first failing triple."""
    rep = verify_normalization(hopf, alpha)
    bad = cocycle_failure(hopf, _values_of(alpha))
    rep.add("cocycle-condition", bad is None, fails_at(hopf, bad))
    return rep


def convolution_failure(hopf: HopfAlgebra, a, b, zero):
    """The first basis pair (x, y) at which the convolution a * b, or else
    b * a, differs from counit(x) counit(y), as (x, y, reverse) with
    reverse true when only b * a fails; None if a and b are two-sided
    convolution inverses.  Entries as for triple_failure; each
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
    of the table mult and vals a matrix of scalars; summed on integer
    numerators (`_twisted_rows`)."""

    def pack(codec):
        if mult is hopf.mult:
            table = packed_table(hopf, codec)
        else:
            table = pack_table(mult, hopf.dim, codec)
        return table, pack_rows(hopf.comult, codec), _pack_values(vals, codec)

    # a coefficient sums products of two legs, a value and a table entry
    codec, _, (table, legs, values) = fitted(
        hopf.field, pack, lambda p: p[1][2] ** 2 * p[2][2] * p[0][2]
    )
    rows = _twisted_rows(legs[0], values[0], table[0], right, codec)
    return _decoded(rows, codec, hopf.field, legs[1] ** 2 * values[1] * table[1])


def _pack_values(vals, codec) -> tuple[list[dict], int, int]:
    """A matrix of scalars by `hopf.pack_rows`, each row as a dict from
    column to numerator."""
    packed, den, norm = pack_rows([tuple(enumerate(row)) for row in vals], codec)
    return [dict(row) for row in packed], den, norm


def _twisted_rows(legs, values, table, right: bool, codec) -> list[list[tuple]]:
    """The twist of a packed table by packed values (`_twist`): rows[x][y]
    holds the (k, numerator) pairs of x . y in order of k, over the product
    of the denominators of two legs, the values and the table; a numerator
    is reduced modulo N over a codec.  The caller's codec holds each sum:
    the square of the legs' norm times the norms of the values and the
    table bounds it, and also the norm of a row of the result."""
    rows, cols = {i for i, row in enumerate(values) if row}, set().union(*values)
    # the values read the first legs and the table the second, or the
    # reverse when right is set; a leg whose value leg meets a zero row
    # (for x) or column (for y) of the values is dropped
    v, m = (1, 0) if right else (0, 1)
    legs_x = [[(values[g[v]], table[g[m]], g[2]) for g in ls if g[v] in rows] for ls in legs]
    legs_y = [[(g[v], g[m], g[2]) for g in ls if g[v] in cols] for ls in legs]
    mod = None if codec is None else codec.modulus
    out = []
    for lx in legs_x:
        row = []
        for ly in legs_y:
            acc: dict[int, int] = {}
            get = acc.get
            for row_v, row_t, cx in lx:
                for b, r, cy in ly:
                    val = row_v.get(b)
                    if val:
                        entries = row_t[r]
                        if entries:
                            f = cx * cy * val
                            for k, cm in entries:
                                acc[k] = get(k, 0) + f * cm
            if mod is not None:
                acc = {k: c % mod for k, c in acc.items()}
            row.append(tuple([(k, acc[k]) for k in sorted(acc) if acc[k]]) if acc else ())
        out.append(row)
    return out


def _decoded(rows, codec, field, den: int) -> dict:
    """The table of `_twisted_rows` over den as sorted tuples of (k,
    Scalar), zeros dropped, keyed by the pairs (x, y) with a nonzero
    product in loop order; each distinct numerator is decoded once."""
    decode = _decoder(codec, field, den)
    out = {}
    for x, row in enumerate(rows):
        for y, entries in enumerate(row):
            if entries:
                terms = [(k, s) for k, c in entries if (s := decode(c)) is not None]
                if terms:
                    out[(x, y)] = tuple(terms)
    return out


def is_lazy(hopf: HopfAlgebra, alpha) -> bool:
    """True iff twisting from the left and from the right agree on every
    basis pair."""
    vals = _values_of(alpha)
    return _twist(hopf, hopf.mult, vals) == _twist(hopf, hopf.mult, vals, right=True)


class TwistedAlgebra:
    """The comodule algebra on the u-basis: twisted product, original
    coaction, coinvariants reduced to the unit line."""

    __slots__ = ("hopf", "mult", "unit_index", "labels", "_center", "_mu_images", "_packed")

    def __init__(self, hopf: HopfAlgebra, mult, unit_index: int):
        self.hopf = hopf
        self.mult = mult
        self.unit_index = unit_index
        self.labels = [f"u[{lbl}]" for lbl in hopf.labels]
        self._center = None  # reduced centre span, filled by tring on first use
        self._mu_images = None  # letter images, zero and one of identities.mu, filled there
        self._packed = None  # its packed product tables, filled by hopf.packed_table

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

    def pack(codec):
        values = _pack_values(alpha.values, codec)
        # the trivial cocycle is its own inverse
        if alpha.inverse_values is alpha.values:
            inverse = values
        else:
            inverse = _pack_values(alpha.inverse_values, codec)
        return packed_table(hopf, codec), pack_rows(hopf.comult, codec), values, inverse

    # a coefficient of the right twist sums products of two legs, a value
    # and a coefficient of the left twist, which sums products of two legs,
    # a value and a table entry
    codec, _, (table, legs, values, inverse) = fitted(
        hopf.field, pack, lambda p: p[1][2] ** 4 * p[2][2] * p[3][2] * p[0][2]
    )
    # the right twist by the inverse of the left twist is
    # sum alpha(x1, y1) x2 y2 alpha^-1(x3, y3), by coassociativity; the left
    # twist stays on integer numerators in between
    left = _twisted_rows(legs[0], values[0], table[0], False, codec)
    rows = _twisted_rows(legs[0], inverse[0], left, True, codec)
    den = legs[1] ** 4 * values[1] * inverse[1] * table[1]
    mult = _decoded(rows, codec, hopf.field, den)
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
