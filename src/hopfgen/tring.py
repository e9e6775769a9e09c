"""Exact Laurent coordinates attached to the basis of a Hopf algebra.

One commuting variable ``t[b]`` per basis element ``b``.  Variables sitting
over group-like elements may carry negative exponents; all others may not.
The ring knows the convolution inverse of the coordinate map, the coproduct
induced on coordinates, and the grading pulled back through the algebra.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add

from .arith import FieldSpec, Scalar, _lowest, balanced, format_terms, kronecker, norm1
from .errors import NotInvertible, NotPointedOrder, OutOfLocalization, RangeError
from .hopf import MAX_DIM, HopfAlgebra, center_table, hab_grading, packed_table
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


# A monomial is packed into one integer key, the sum of e_i * 2^(w*i) over
# its variables t[i], with a signed field of w bits per variable: a field
# holds an exponent of absolute value below 2^(w-1).  A product is the sum of
# the keys, a power a multiple of one, an inverse its negation.  `bound`
# bounds the absolute exponents of a monomial; while the bound of a result
# stays below 2^(w-1) no field carries into the next, and beyond it the
# exponents are added exactly, so an exponent that leaves its field raises
# RangeError and never wraps.  Each ring packs with the width `field_width`
# gives its number of variables; monomials built without a ring use
# DEFAULT_WIDTH, which is the width of every ring of at most 32 variables.
DEFAULT_WIDTH = 32
KEY_BITS = 1024


def field_width(dim: int) -> int:
    """Bits per exponent field in a ring of `dim` variables: 32, or for more
    than 32 variables the widest field that keeps a key of all `dim` fields
    within KEY_BITS bits (16 bits at `hopf.MAX_DIM` = 64)."""
    return min(DEFAULT_WIDTH, KEY_BITS // dim)


def _canonical(pairs) -> tuple[tuple[int, int], ...]:
    """(variable, exponent) pairs summed per variable, sorted by variable,
    zero exponents dropped."""
    acc: dict[int, int] = {}
    for i, e in pairs:
        i = int(i)
        acc[i] = acc.get(i, 0) + int(e)
    return tuple(sorted((i, e) for i, e in acc.items() if e))


def _unpack(key: int, w: int) -> tuple[tuple[int, int], ...]:
    """The sorted (variable, exponent) pairs of a key: its nonzero digits
    in the balanced base 2^w."""
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    out = []
    i = 0
    while key:
        e = ((key + half) & mask) - half
        if e:
            out.append((i, e))
        key = (key - e) >> w
        i += 1
    return tuple(out)


def _pack(exps: tuple[tuple[int, int], ...], width: int) -> TMonomial:
    """The monomial of canonical pairs; RangeError for a negative variable,
    one past `hopf.MAX_DIM`, or an exponent that does not fit its field."""
    half = 1 << (width - 1)
    key = bound = 0
    for i, e in exps:
        if not 0 <= i < MAX_DIM:
            raise RangeError(f"variable index {i} out of range")
        if not -half < e < half:
            raise RangeError(f"exponent {e} of t[{i}] leaves its packed field of {width} bits")
        key += e << (width * i)
        bound = max(bound, abs(e))
    return _packed(key, bound, width, exps)


_new = object.__new__


def _packed(key: int, bound: int, width: int, exps=None) -> TMonomial:
    out = _new(TMonomial)
    out.key = key
    out.bound = bound
    out.width = width
    out._hash = hash(key)
    out._exps = exps
    return out


class TMonomial:
    """Canonical product of coordinate variables with integer exponents,
    packed into one integer key of `width`-bit signed fields."""

    __slots__ = ("key", "bound", "width", "_hash", "_exps")

    def __new__(cls, pairs=(), width: int = DEFAULT_WIDTH):
        """The monomial of (variable, exponent) pairs in any order, equal
        variables summed."""
        return _pack(_canonical(pairs), width)

    @property
    def exps(self) -> tuple[tuple[int, int], ...]:
        """(variable, exponent) pairs sorted by variable, no zero exponent;
        decoded from the key on the first read."""
        exps = self._exps
        if exps is None:
            exps = self._exps = _unpack(self.key, self.width)
        return exps

    def mul(self, other: TMonomial) -> TMonomial:
        """The product: the sum of the keys, or, when the bounds leave no
        room in a field, the exponents summed and checked."""
        w = self.width
        if other.width != w:
            raise RangeError("monomials packed with different field widths")
        bound = self.bound + other.bound
        if bound >> (w - 1):
            return TMonomial(self.exps + other.exps, w)
        # _packed, inlined: this is the ring's hottest product
        key = self.key + other.key
        out = _new(TMonomial)
        out.key = key
        out.bound = bound
        out.width = w
        out._hash = hash(key)
        out._exps = None
        return out

    def inverse(self) -> TMonomial:
        return _packed(-self.key, self.bound, self.width)

    def exp_of(self, index: int) -> int:
        for i, e in self.exps:
            if i == index:
                return e
        return 0

    def __eq__(self, other):
        return (
            other.__class__ is TMonomial and self.key == other.key and self.width == other.width
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.exps < other.exps

    def __repr__(self):
        return f"TMonomial({self.exps!r})"


def power_product(factors, width: int) -> TMonomial:
    """The product of monomials raised to integer powers, from (monomial,
    exponent) pairs of one width: one integer combination of their keys."""
    key = bound = 0
    for m, e in factors:
        if m.width != width:
            raise RangeError("monomials packed with different field widths")
        key += m.key * e
        bound += m.bound * abs(e)
    if bound >> (width - 1):
        return TMonomial([(i, x * e) for m, e in factors for i, x in m.exps], width)
    return _packed(key, bound, width)


class TElement(Sparse):
    """Finite linear combination of monomials with coefficients in Q(q).

    The terms are held as integer numerators `num` over one positive
    denominator `den`, keyed by one integer each: the packed key of the
    monomial plus the exponent of q times 2^(width*dim), a field above all
    variable fields.  That field is unbounded, so it never carries into a
    variable field; `bound` bounds the absolute variable exponents of every
    term, and `qmax` the exponents of q.  A term product is one key sum and
    one integer product.  Distinct keys may stand for one value (q^n = 1,
    and Phi_n(q) = 0), so the element is put into canonical form where its
    value is observed: by the zero test, ==, hash, `terms`, text, `inverse`
    and `evaluate`; and after a product whose powers of q reach 2n, so that
    repeated products (a power by squaring) do not pile up keys that
    canonical form would merge."""

    __slots__ = ("ring", "num", "den", "bound", "qmax", "_reduced", "_terms")

    def __init__(self, ring: TRing, terms: dict[TMonomial, Scalar]):
        """The element of a {monomial: Scalar} mapping; zero coefficients
        are dropped."""
        shift, w, half = ring.q_shift, ring.width, ring.half
        den = lcm(*[c.den for c in terms.values()])
        num = {}
        bound = 0
        for m, c in terms.items():
            key = m.key
            if m.width != w:
                raise RangeError("monomials packed with different field widths")
            if not -half < key < half:
                raise RangeError("variable index out of range")
            scale = den // c.den
            for j, x in enumerate(c.num):
                if x:
                    num[key + (j << shift)] = x * scale
            if m.bound > bound:
                bound = m.bound
        # Scalars are in lowest terms, so gcd(den, *num) is already one
        self.ring, self.num, self.den, self.bound = ring, num, den, bound
        self.qmax, self._reduced, self._terms = ring.field.degree - 1, True, None

    def _owner(self) -> TRing:
        return self.ring

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

    # -- canonical form ------------------------------------------------------

    def _reduce(self) -> None:
        """Replace num and den by the canonical form of the same value, in
        which equal values have equal num and den: no power of q beyond
        q^(d-1), no zero numerator, num and den in lowest terms."""
        if self._reduced:
            return
        shift = self.ring.q_shift
        num = {
            m + (j << shift): c
            for m, vec in _vectors(self.ring, self.num).items()
            for j, c in enumerate(vec)
            if c
        }
        den = self.den
        if den != 1:
            num, den = _lowest_terms(num, den)
        self.num, self.den = num, den
        self.qmax = self.ring.field.degree - 1
        self._reduced = True

    @property
    def terms(self) -> dict[TMonomial, Scalar]:
        """The canonical terms: each monomial mapped to its nonzero
        coefficient, in the order in which the monomials first appear."""
        if self._terms is None:
            self._reduce()
            ring = self.ring
            field, bound, w, den = ring.field, self.bound, ring.width, self.den
            self._terms = {
                _packed(m, bound, w): _lowest(field, tuple(vec), den)
                for m, vec in _vectors(ring, self.num).items()
            }
        return self._terms

    @property
    def is_zero(self) -> bool:
        self._reduce()
        return not self.num

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if other.__class__ is not TElement:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        elif other.ring is not self.ring:
            return False
        if self._reduced and other._reduced:
            return self.den == other.den and self.num == other.num
        # the raw keys of two sides of an identity mostly cancel, so only
        # what is left of the difference is put into canonical form
        return (self - other).is_zero

    def __hash__(self):
        self._reduce()
        return hash((self.den, frozenset(self.num.items())))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if not b:
            return self
        if not a:
            return o
        da, db = self.den, o.den
        if da != db:
            a = {k: c * db for k, c in a.items()}
            b = {k: c * da for k, c in b.items()}
            da *= db
        num = dict(a)
        get = num.get
        # the keys of b are distinct, so only the key just summed can vanish
        for k, c in b.items():
            s = get(k, 0) + c
            if s:
                num[k] = s
            else:
                del num[k]
        return _element(self.ring, num, da, max(self.bound, o.bound), max(self.qmax, o.qmax))

    def __neg__(self):
        num = {k: -c for k, c in self.num.items()}
        return _element(self.ring, num, self.den, self.bound, self.qmax, self._reduced)

    def scaled(self, s: Scalar) -> TElement:
        """self times the scalar s: zero for zero, self itself for one."""
        if not s:
            return self.ring.zero()
        if s == s.field.one:
            return self
        return self * self.ring.scalar(s)

    def __mul__(self, other):
        if other.__class__ is not TElement:
            s = self._scalar(other)
            return NotImplemented if s is None else self.scaled(s)
        ring = self.ring
        if other.ring is not ring:
            raise RangeError("TElement operands over different algebras")
        bound = self.bound + other.bound
        if bound >> (ring.width - 1):
            # no room left in a field: the monomial products sum exponents
            # exactly, and one that leaves its field raises RangeError
            return TElement(ring, collect(
                (m1.mul(m2), c1 * c2)
                for m1, c1 in self.terms.items()
                for m2, c2 in other.terms.items()
            ))
        a, b = self.num, other.num
        # stored numerators are nonzero integers, so a product by a single
        # term has no zero and no repeated key
        if len(a) == 1:
            ((ka, ca),) = a.items()
            num = {ka + kb: ca * cb for kb, cb in b.items()}
        elif len(b) == 1:
            ((kb, cb),) = b.items()
            num = {ka + kb: ca * cb for ka, ca in a.items()}
        else:
            num = {}
            _add_products(num, a, b, _UNIT)
            num = {k: c for k, c in num.items() if c}
        return _element(ring, num, self.den * other.den, bound, self.qmax + other.qmax)

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
        if len(self.num) == 1:
            bound = self.bound * k
            if not bound >> (self.ring.width - 1):
                ((key, c),) = self.num.items()
                return _element(self.ring, {key * k: c**k}, self.den**k, bound, self.qmax * k)
        return super().__pow__(k)

    def inverse(self) -> TElement:
        """Inverse of a single-term element; the monomial part must stay
        inside the localization, so every variable must be group-like."""
        if len(self.terms) != 1:
            raise NotInvertible(f"not a monomial: {self.to_text()}")
        (m, c), = self.terms.items()
        self.ring.check_invertible(m)
        return TElement(self.ring, {m.inverse(): c.inverse()})

    def to_text(self) -> str:
        labels = self.ring.hopf.labels
        return format_terms(
            (
                self.terms[m],
                [f"t[{labels[i]}]" if e == 1 else f"t[{labels[i]}]^{e}" for i, e in m.exps],
            )
            for m in sorted(self.terms)
        )

    def __repr__(self):
        return f"<TElement {self.to_text()}>"


def _vectors(ring: TRing, num: dict) -> dict[int, list[int]]:
    """Each monomial key of the term numerators num mapped to the
    numerators of 1, q, ..., q^(d-1) of its coefficient: q^k taken to
    q^(k mod n), then reduced modulo Phi_n; in the order in which the
    monomials first appear."""
    shift, half, mask = ring.q_shift, ring.half, ring.mask
    qpow, n, d = ring.q_powers, ring.field.n, ring.field.degree
    vecs: dict[int, list[int]] = {}
    for key, c in num.items():
        m = ((key + half) & mask) - half
        vec = vecs.get(m)
        if vec is None:
            vec = vecs[m] = [0] * d
        for j, r in qpow[((key - m) >> shift) % n]:
            vec[j] += c * r
    return vecs


# the (key, numerator) pairs of the scalar one, for `_add_products`
_UNIT = ((0, 1),)


def _add_products(num: dict, a: dict, b: dict, s) -> None:
    """Add to num the term numerators of a * b * s: a and b the
    numerators of two elements, s the (key, numerator) pairs of a scalar
    already scaled to num's denominator.  Each term pair is one key sum
    and one integer product; new keys enter num in the order of the terms
    of a, then of b."""
    get = num.get
    right = b.items()
    for ka, ca in a.items():
        for ks, cs in s:
            k0, c0 = ka + ks, ca * cs
            for kb, cb in right:
                k = k0 + kb
                num[k] = get(k, 0) + c0 * cb


def sum_of_products(zero, triples):
    """The sum of a * b * s over the (a, b, s) triples, starting from zero,
    which a sum over no triple returns.

    With zero a `TElement`, a and b are elements of its ring and s a
    Scalar: the integer numerators of every product are summed straight
    into one dict, keyed by the sums of the term keys, over one common
    denominator, and the sum takes one canonical form rather than one per
    product.  Otherwise (Scalars) each product is added in turn."""
    if zero.__class__ is not TElement:
        acc = zero
        for a, b, s in triples:
            acc = acc + a * b * s
        return acc
    ring = zero.ring
    field, shift = ring.field, ring.q_shift
    num: dict[int, int] = {}
    den = 1
    bound = qmax = -1
    for a, b, s in triples:
        if s.field is not field:
            raise RangeError("mixed scalars from different fields")
        if a.ring is not ring or b.ring is not ring:
            raise RangeError("TElement operands over different algebras")
        if (a.bound + b.bound) >> (ring.width - 1):
            # the term keys would carry: the exact product (exponents
            # summed, RangeError for one that leaves its field) and the unit
            a, b = a * b, ring.one()
        if not (a.num and b.num and any(s.num)):
            continue
        d = a.den * b.den * s.den
        if den % d:
            # a new factor of the common denominator
            f = lcm(den, d) // den
            num = {k: c * f for k, c in num.items()}
            den *= f
        f = den // d
        sv = [(j << shift, x * f) for j, x in enumerate(s.num) if x]
        _add_products(num, a.num, b.num, sv)
        bound = max(bound, a.bound + b.bound)
        qmax = max(qmax, a.qmax + b.qmax + (sv[-1][0] >> shift))
    if bound < 0:
        return zero
    num = {k: c for k, c in num.items() if c}
    return _element(ring, num, den, bound, qmax)


def _lowest_terms(num: dict, den: int) -> tuple[dict, int]:
    g = gcd(den, *num.values())
    if g != 1:
        num = {k: c // g for k, c in num.items()}
        den //= g
    return num, den


def _element(
    ring: TRing, num: dict, den: int, bound: int, qmax: int, reduced: bool = False
) -> TElement:
    """The element num/den, with num and den brought to lowest terms, and
    put into canonical form if its powers of q may reach 2n."""
    if den != 1:
        num, den = _lowest_terms(num, den)
    out = _new(TElement)
    out.ring = ring
    out.num = num
    out.den = den
    out.bound = bound
    out.qmax = qmax
    # over a field of degree one no key carries a power of q, so every
    # element is born in canonical form
    out._reduced = reduced or ring.rational
    out._terms = None
    if qmax >= ring.q_limit:
        out._reduce()
    return out


class TRing:
    """The coordinate ring of a fixed Hopf algebra instance; its monomials
    are packed with `width` bits per variable."""

    __slots__ = (
        "hopf", "field", "grouplike_set", "width", "q_shift", "half", "mask", "q_powers",
        "rational", "q_limit", "_unit", "_vars", "_tinv", "_grading",
    )

    def __init__(self, hopf: HopfAlgebra):
        self.hopf = hopf
        field = self.field = hopf.field
        self.grouplike_set = set(hopf.grouplikes)
        self.width = field_width(hopf.dim)
        # an element's term key is a monomial key plus the exponent of q
        # times 2^q_shift; the balanced residue modulo 2^q_shift of a key
        # (`half` and `mask`) is its monomial key
        self.q_shift = self.width * hopf.dim
        self.half = 1 << (self.q_shift - 1)
        self.mask = (1 << self.q_shift) - 1
        # q^k for 0 <= k < n as its nonzero (j, c) numerators of 1, ..., q^(d-1)
        self.q_powers = tuple(
            tuple((j, c) for j, c in enumerate(field.q_power(k).num) if c) for k in range(field.n)
        )
        self.rational = field.degree == 1
        self.q_limit = 2 * field.n
        self._unit = TMonomial((), self.width)
        self._vars = tuple(self._var(i, 1) for i in range(hopf.dim))
        self._tinv: list[TElement] | None = None
        self._grading = None

    def monomial(self, pairs) -> TMonomial:
        """The monomial of (variable, exponent) pairs; every variable is
        checked to be in range before anything is packed."""
        exps = _canonical(pairs)
        dim = self.hopf.dim
        for i, e in exps:
            if not 0 <= i < dim:
                raise RangeError(f"variable index {i} out of range")
            if e < 0 and i not in self.grouplike_set:
                raise OutOfLocalization(
                    f"t[{self.hopf.labels[i]}] is not invertible"
                )
        return _pack(exps, self.width)

    def check_invertible(self, m: TMonomial) -> None:
        """OutOfLocalization unless the inverse of m stays in the ring:
        every variable with a positive exponent must be group-like."""
        for i, e in m.exps:
            if e > 0 and i not in self.grouplike_set:
                raise OutOfLocalization(f"t[{self.hopf.labels[i]}] is not invertible")

    def element(self, terms: dict[TMonomial, Scalar]) -> TElement:
        return TElement(self, terms)

    def zero(self) -> TElement:
        return _element(self, {}, 1, 0, 0, True)

    def one(self) -> TElement:
        return _element(self, {0: 1}, 1, 0, 0, True)

    def scalar(self, c: Scalar) -> TElement:
        shift = self.q_shift
        num = {j << shift: x for j, x in enumerate(c.num) if x}
        return _element(self, num, c.den, 0, self.field.degree - 1, True)

    def var(self, index: int, exp: int = 1) -> TElement:
        if exp == 1 and 0 <= index < len(self._vars):
            return self._vars[index]
        return self._var(index, exp)

    def _var(self, index: int, exp: int) -> TElement:
        m = self.monomial([(index, exp)])
        return _element(self, {m.key: 1}, 1, m.bound, 0, True)

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
            cur = {(self._unit, self._unit): coeff}
            for i, e in m.exps:
                if i in self.grouplike_set:
                    g = self.monomial(((i, e),))
                    cur = tensor_t_product(cur, {(g, g): self.field.one})
                    continue
                base = {
                    (self.monomial(((j, 1),)), self.monomial(((k, 1),))): c
                    for j, k, c in h.comult[i]
                }
                for _ in range(e):
                    cur = tensor_t_product(cur, base)
            pairs.extend(cur.items())
        return collect(pairs)

    def _graded(self):
        """The grading group and, per variable, the nonzero (factor,
        value) pairs of its degree; computed once per ring."""
        if self._grading is None:
            ab, deg = hab_grading(self.hopf)
            pairs = tuple(tuple((t, x) for t, x in enumerate(d) if x) for d in deg)
            self._grading = (ab, pairs)
        return self._grading

    def degree_pairs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return self._graded()[1]

    def hab_degree(self, mon: TMonomial) -> tuple[int, ...]:
        ab, pairs = self._graded()
        moduli = ab.invariant_factors
        sums = [0] * len(moduli)
        for i, e in mon.exps:
            for t, x in pairs[i]:
                sums[t] += x * e
        return tuple(s % d for s, d in zip(sums, moduli))

    def grading_group(self):
        return self._graded()[0]

    def evaluate(self, elem: TElement, values: list[Scalar]) -> Scalar:
        """Substitute one field value per variable; negative exponents
        require the substituted value to be invertible.  Each power of a
        value is computed once per call, however many terms share it.  The
        terms are read as the integer numerators of each monomial, and the
        numerators of all monomials whose powers multiply to one value are
        summed before one product by it."""
        elem._reduce()
        field, w = self.field, self.width
        one, zero = field.one, field.zero
        # each power as None for one, the field's zero for zero, else itself
        powers: dict[tuple[int, int], Scalar | None] = {}
        # the product of the powers (None for one) -> summed numerators
        sums: dict[Scalar | None, list[int]] = {}
        for m, vec in _vectors(self, elem.num).items():
            p = None
            for ie in _unpack(m, w):
                x = powers.get(ie, powers)
                if x is powers:
                    i, e = ie
                    v = values[i]
                    x = v.inverse() ** (-e) if e < 0 else v**e
                    x = powers[ie] = None if x == one else x if x else zero
                if x is not None and p is not zero:
                    p = x if p is None or x is zero else p * x
            if p is not zero:
                acc = sums.get(p)
                if acc is None:
                    sums[p] = vec
                else:
                    acc[:] = map(add, acc, vec)
        total = zero
        for p, vec in sums.items():
            value = _lowest(field, tuple(vec), elem.den)
            total = total + (value if p is None else value * p)
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


def verify_t_inverse(hopf: HopfAlgebra) -> Report:
    """Both convolution identities of the coordinate inverse, one basis
    element at a time: the split product against t, in either order,
    must collapse to the counit value."""
    ring = t_ring(hopf)
    zero, t, tinv = ring.zero(), ring.var, ring.t_inverse
    rep = Report(f"coordinate inverse on {hopf.name or 'algebra'}")
    for i in range(hopf.dim):
        target = ring.scalar(hopf.counit[i])
        legs = hopf.comult[i]
        left = sum_of_products(zero, [(t(j), tinv(k), c) for j, k, c in legs])
        right = sum_of_products(zero, [(tinv(j), t(k), c) for j, k, c in legs])
        lbl = hopf.labels[i]
        rep.add(f"left {lbl}", left == target, "" if left == target else left.to_text())
        rep.add(f"right {lbl}", right == target, "" if right == target else right.to_text())
    return rep


# A TensorH term key is the monomial key shifted past INDEX_BITS bits, which
# hold the basis index.
INDEX_BITS = (MAX_DIM - 1).bit_length()
INDEX_MASK = (1 << INDEX_BITS) - 1


class TensorH(Sparse):
    """Sum of (coordinate monomial) tensor (algebra basis element) terms.

    The right tensor factor multiplies through `algebra.mult`, so the same
    class serves the plain product and any twisted one.

    The terms are held as integer numerators `num` over one positive
    denominator `den`, keyed by one integer each: the packed key of the
    monomial shifted past INDEX_BITS, plus the basis index.  Over a field
    of degree one a numerator is an integer, and the element is kept in
    lowest terms with no zero numerator.  Over a field of degree d >= 2 a
    numerator is a polynomial in q, a nonzero residue of the Kronecker
    codec `codec` (`arith.Kronecker`), so that a term product is one key
    sum and one integer product modulo N.  `norm` bounds the absolute
    slot values of all numerators summed; an operation whose result could
    leave the slots of its operands' codec re-encodes them on a wider one,
    so no slot ever wraps.  `bound` bounds the absolute exponents of the
    monomials.  Distinct numerators may stand for one value (Phi_n(q) = 0),
    so the canonical form is taken only where a value is observed: by the
    zero test, ==, hash, `terms`, the text and the coinvariance and
    centrality tests."""

    __slots__ = ("ring", "algebra", "num", "den", "bound", "codec", "norm", "_canon", "_terms")

    def __init__(self, ring: TRing, algebra, terms: dict[tuple[TMonomial, int], Scalar]):
        """The element of a {(monomial, basis index): Scalar} mapping; zero
        coefficients are dropped."""
        if ring.hopf is not (algebra if isinstance(algebra, HopfAlgebra) else algebra.hopf):
            raise RangeError("TensorH operands over different algebras")
        w, dim, field = ring.width, algebra.dim, ring.field
        rational = field.degree == 1
        terms = {k: c for k, c in terms.items() if c}
        den = lcm(*[c.den for c in terms.values()])
        nums = {}
        bound = norm = 0
        for (m, i), c in terms.items():
            if m.width != w:
                raise RangeError("monomials packed with different field widths")
            if not 0 <= i < dim:
                raise RangeError(f"basis index {i} out of range")
            scale = den // c.den
            vec = [x * scale for x in c.num]
            if not rational:
                vec = balanced(vec, field.n)
                norm += norm1(vec)
            nums[(m.key << INDEX_BITS) + i] = vec
            bound = max(bound, m.bound)
        if rational:
            # Scalars are in lowest terms, so gcd(den, *num) is already one
            codec, num = None, {k: vec[0] for k, vec in nums.items()}
        else:
            codec = kronecker(field, norm)
            num = {k: codec.encode(vec) for k, vec in nums.items()}
        self.ring, self.algebra, self.num, self.den = ring, algebra, num, den
        self.bound, self.codec, self.norm = bound, codec, norm
        self._canon = self._terms = None

    def _owner(self) -> tuple:
        return self.ring, self.algebra

    def _of(self, num: dict, den: int, bound: int, codec, norm: int) -> TensorH:
        """An element over the same owner from numerators that hold no zero;
        over a field of degree one, brought to lowest terms."""
        if codec is None and den != 1:
            num, den = _lowest_terms(num, den)
        out = _new(TensorH)
        out.ring = self.ring
        out.algebra = self.algebra
        out.num = num
        out.den = den
        out.bound = bound
        out.codec = codec
        out.norm = norm
        out._canon = out._terms = None
        return out

    @staticmethod
    def zero(ring: TRing, algebra) -> TensorH:
        return TensorH(ring, algebra, {})

    @staticmethod
    def from_element(ring: TRing, algebra, elem: TElement, index: int) -> TensorH:
        if elem.ring is not ring:
            raise RangeError("TensorH operands over different algebras")
        return TensorH(ring, algebra, {(m, index): c for m, c in elem.terms.items()})

    def one(self) -> TensorH:
        unit = (self.ring._unit, self.algebra.unit_index)
        return TensorH(self.ring, self.algebra, {unit: self.ring.field.one})

    # -- codecs ----------------------------------------------------------------

    def _codec(self, norm: int, other: TensorH | None = None):
        """The widest of the operands' codecs and the narrowest one that
        holds `norm` (None over a field of degree one)."""
        widest = self.codec
        if widest is None:
            return None
        if other is not None and other.codec.width > widest.width:
            widest = other.codec
        codec = kronecker(self.ring.field, norm)
        return codec if codec.width > widest.width else widest

    def _at(self, codec) -> dict:
        """The numerators as residues of `codec`, re-encoded exactly from
        their slots when it is not the element's own."""
        if codec is self.codec:
            return self.num
        old = self.codec
        return {k: codec.encode(old.slots(x)) for k, x in self.num.items()}

    # -- canonical form --------------------------------------------------------

    def _canonical(self) -> tuple[int, dict]:
        """(den, numerators) in lowest terms with no zero numerator; over a
        field of degree d >= 2 each residue is decoded once and reduced
        modulo Phi_n to the tuple of its numerators of 1, ..., q^(d-1)."""
        codec = self.codec
        if codec is None:
            return self.den, self.num
        if self._canon is None:
            vecs = {}
            for k, x in self.num.items():
                vec = codec.reduce(x)
                if any(vec):
                    vecs[k] = vec
            den = self.den
            g = gcd(den, *[c for vec in vecs.values() for c in vec])
            if g != 1:
                vecs = {k: tuple([c // g for c in vec]) for k, vec in vecs.items()}
                den //= g
            self._canon = (den, vecs)
        return self._canon

    @property
    def terms(self) -> dict[tuple[TMonomial, int], Scalar]:
        """The canonical terms: each (monomial, basis index) mapped to its
        nonzero coefficient."""
        if self._terms is None:
            den, vecs = self._canonical()
            ring = self.ring
            field, bound, w = ring.field, self.bound, ring.width
            rational = self.codec is None
            self._terms = {
                (_packed(k >> INDEX_BITS, bound, w), k & INDEX_MASK): _lowest(
                    field, (vec,) if rational else vec, den
                )
                for k, vec in vecs.items()
            }
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._canonical()[1]

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if other.__class__ is not TensorH:
            return NotImplemented
        if other._owner() != self._owner():
            return False
        return self._canonical() == other._canonical()

    def __hash__(self):
        den, vecs = self._canonical()
        return hash((den, frozenset(vecs.items())))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        da, db = self.den, o.den
        den = da if da == db else lcm(da, db)
        fa, fb = den // da, den // db
        norm = self.norm * fa + o.norm * fb
        codec = self._codec(norm, o)
        a, b = self._at(codec), o._at(codec)
        mod = None if codec is None else codec.modulus
        if fa != 1:
            a = _times(a, fa, mod)
        if fb != 1:
            b = _times(b, fb, mod)
        num = dict(a)
        get = num.get
        # the keys of b are distinct, so only the key just summed can vanish
        for k, c in b.items():
            s = get(k, 0) + c
            if mod is not None:
                s %= mod
            if s:
                num[k] = s
            else:
                del num[k]
        return self._of(num, den, max(self.bound, o.bound), codec, norm)

    def __neg__(self):
        codec = self.codec
        if codec is None:
            num = {k: -c for k, c in self.num.items()}
        else:
            mod = codec.modulus
            num = {k: mod - c for k, c in self.num.items()}
        return self._of(num, self.den, self.bound, codec, self.norm)

    def scaled(self, s: Scalar) -> TensorH:
        """self times the scalar s: zero for zero, and self itself for one."""
        if s.field is not self.ring.field:
            raise RangeError("mixed scalars from different fields")
        if not s:
            return TensorH.zero(self.ring, self.algebra)
        if s == s.field.one:
            return self
        if self.codec is None:
            c = s.num[0]
            num = {k: x * c for k, x in self.num.items()}
            return self._of(num, self.den * s.den, self.bound, None, 0)
        vec = balanced(s.num, s.field.n)
        norm = self.norm * norm1(vec)
        codec = self._codec(norm)
        mod, c = codec.modulus, codec.encode(vec)
        # a product of nonzero residues can vanish: Z[q]/(q^n - 1) has zero divisors
        num = {k: r for k, x in self._at(codec).items() if (r := x * c % mod)}
        return self._of(num, self.den * s.den, self.bound, codec, norm)

    def _shifted(self, m: TMonomial) -> TensorH:
        """self times the monomial m, tensored with the unit."""
        bound = self.bound + m.bound
        if bound >> (self.ring.width - 1):
            bound = _exponent_bound(self, m.bound, [m.key])
        shift = m.key << INDEX_BITS
        num = {k + shift: c for k, c in self.num.items()}
        return self._of(num, self.den, bound, self.codec, self.norm)

    def scale(self, c) -> TensorH:
        """self times a coordinate-ring element or a scalar."""
        if not isinstance(c, TElement):
            return self.scaled(self.ring.field.scalar(c))
        if c.ring is not self.ring:
            raise RangeError("TensorH operands over different algebras")
        out = TensorH.zero(self.ring, self.algebra)
        for m, s in c.terms.items():
            out = out + self._shifted(m).scaled(s)
        return out

    def __mul__(self, other):
        if other.__class__ is not TensorH:
            return self.scale(other)
        o = self._operand(other)
        check_product_budget(len(self.num), len(o.num))
        if not self.num or not o.num:
            return TensorH.zero(self.ring, self.algebra)
        bound = self.bound + o.bound
        if bound >> (self.ring.width - 1):
            bound = _exponent_bound(self, o.bound, [k >> INDEX_BITS for k in o.num])
        if self.codec is None:
            rows, tden, _ = packed_table(self.algebra, None)
            raw = _products(self.num, o.num, rows)
            num = {k: c for k, c in raw.items() if c}
            return self._of(num, self.den * o.den * tden, bound, None, 0)
        _, _, tnorm = packed_table(self.algebra, self.codec)
        norm = self.norm * o.norm * tnorm
        codec = self._codec(norm, o)
        rows, tden, _ = packed_table(self.algebra, codec)
        mod = codec.modulus
        raw = _products(self._at(codec), o._at(codec), rows)
        num = {k: r for k, c in raw.items() if (r := c % mod)}
        return self._of(num, self.den * o.den * tden, bound, codec, norm)

    __rmul__ = scale

    def is_coinvariant(self) -> bool:
        unit = self.algebra.unit_index
        return all(k & INDEX_MASK == unit for k in self._canonical()[1])

    def is_central(self) -> bool:
        """Every coordinate-monomial slice lies in the centre of the
        (possibly twisted) algebra."""
        reduced, pivots = _center_span(self.algebra, self.ring.field)
        # a basis element outside the support of the centre rules a slice out
        # before any coefficient is built
        support = set().union(*reduced)
        if any(k & INDEX_MASK not in support for k in self._canonical()[1]):
            return False
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


def _exponent_bound(left: TensorH, bound: int, keys) -> int:
    """The exponent bound of the products of left's monomials by the
    monomial keys `keys`, whose exponents `bound` bounds, where the sum of
    the bounds leaves room in no field: the largest exponent of every
    product, each checked to fit its field (RangeError otherwise)."""
    w = left.ring.width
    mine = {_packed(k >> INDEX_BITS, left.bound, w) for k in left.num}
    theirs = {_packed(k, bound, w) for k in keys}
    return max((a.mul(b).bound for a in mine for b in theirs), default=0)


def _times(num: dict, f: int, mod: int | None) -> dict:
    """Every numerator times the positive integer f (modulo mod if given):
    no zero appears, as f times a nonzero value is nonzero."""
    if mod is None:
        return {k: c * f for k, c in num.items()}
    return {k: c * f % mod for k, c in num.items()}


def _products(a: dict, b: dict, rows) -> dict:
    """The term products of the numerators a and b, summed per key but not
    reduced: a term (m1, i) times a term (m2, j) adds c * t at (m1 + m2, k)
    for every (k, t) in rows[i][j]."""
    mask = INDEX_MASK
    right = [(kb - j, j, cb) for kb, cb in b.items() for j in (kb & mask,)]
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a.items():
        i = ka & mask
        row = rows[i]
        base = ka - i
        for kb, j, cb in right:
            entries = row[j]
            if entries:
                m = base + kb
                c = ca * cb
                for k, t in entries:
                    key = m + k
                    out[key] = get(key, 0) + c * t
    return out


def _center_span(algebra, field: FieldSpec) -> tuple[list[dict], list[int]]:
    """Reduced centre basis of a plain or twisted algebra, kept on it."""
    if algebra._center is None:
        rows = center_table(algebra.dim, algebra.mult, algebra.unit_index, field)
        algebra._center = row_reduce(rows, field)
    return algebra._center
