"""The coordinate-ring element that kept the power of q in its term keys,
kept as the second reference of the differential tests in
`test_telement_codec.py`.

`QKeyTElement` is the former `tring.TElement` verbatim, apart from its
name and the imports: integer numerators over one denominator, each keyed
by the packed monomial key plus the exponent of q times 2^q_shift, put
into canonical form (`_vectors`, `_reduce`) where a value is observed and
after a product whose powers of q reach 2n.  `qkey_sum_of_products` is the
former `tring.sum_of_products`, and `_vectors`, `_add_products`,
`_lowest_terms` and `_element` the former helpers.  `QKeyRing` holds the
fields of the former `tring.TRing` that only this layout read (`q_shift`,
`half`, `mask`, `q_powers`, `rational`, `q_limit`) and its element
constructors and `evaluate`, verbatim; the rest it takes from the
`tring.TRing` it wraps.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add

from hopfgen.arith import Scalar, _lowest, format_terms
from hopfgen.errors import NotInvertible, RangeError
from hopfgen.linalg import Sparse, collect
from hopfgen.tring import TMonomial, TRing, _new, _packed, _unpack


class QKeyRing:
    """The q-key fields and constructors of the former `tring.TRing`, over
    the monomials of the ring `base`."""

    def __init__(self, base: TRing):
        self.base = base
        self.hopf = base.hopf
        field = self.field = base.field
        self.grouplike_set = base.grouplike_set
        self.width = base.width
        self._unit = base._unit
        # an element's term key is a monomial key plus the exponent of q
        # times 2^q_shift; the balanced residue modulo 2^q_shift of a key
        # (`half` and `mask`) is its monomial key
        self.q_shift = self.width * self.hopf.dim
        self.half = 1 << (self.q_shift - 1)
        self.mask = (1 << self.q_shift) - 1
        # q^k for 0 <= k < n as its nonzero (j, c) numerators of 1, ..., q^(d-1)
        self.q_powers = tuple(
            tuple((j, c) for j, c in enumerate(field.q_power(k).num) if c) for k in range(field.n)
        )
        self.rational = field.degree == 1
        self.q_limit = 2 * field.n

    def monomial(self, pairs) -> TMonomial:
        return self.base.monomial(pairs)

    def check_invertible(self, m: TMonomial) -> None:
        self.base.check_invertible(m)

    def element(self, terms: dict[TMonomial, Scalar]) -> QKeyTElement:
        return QKeyTElement(self, terms)

    def zero(self) -> QKeyTElement:
        return _element(self, {}, 1, 0, 0, True)

    def one(self) -> QKeyTElement:
        return _element(self, {0: 1}, 1, 0, 0, True)

    def scalar(self, c: Scalar) -> QKeyTElement:
        shift = self.q_shift
        num = {j << shift: x for j, x in enumerate(c.num) if x}
        return _element(self, num, c.den, 0, self.field.degree - 1, True)

    def var(self, index: int, exp: int = 1) -> QKeyTElement:
        m = self.monomial([(index, exp)])
        return _element(self, {m.key: 1}, 1, m.bound, 0, True)

    def evaluate(self, elem: QKeyTElement, values: list[Scalar]) -> Scalar:
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


class QKeyTElement(Sparse):
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

    def __init__(self, ring: QKeyRing, terms: dict[TMonomial, Scalar]):
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

    def _owner(self) -> QKeyRing:
        return self.ring

    def _scalar(self, other) -> Scalar | None:
        """other as a scalar of the ring's field, or None if it is not an
        exact scalar of that field."""
        try:
            return self.ring.field.scalar(other)
        except RangeError:
            return None

    def _lift(self, other) -> QKeyTElement | None:
        c = self._scalar(other)
        return None if c is None else self.ring.scalar(c)

    def one(self) -> QKeyTElement:
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
        if other.__class__ is not QKeyTElement:
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

    def scaled(self, s: Scalar) -> QKeyTElement:
        """self times the scalar s: zero for zero, self itself for one."""
        if not s:
            return self.ring.zero()
        if s == s.field.one:
            return self
        return self * self.ring.scalar(s)

    def __mul__(self, other):
        if other.__class__ is not QKeyTElement:
            s = self._scalar(other)
            return NotImplemented if s is None else self.scaled(s)
        ring = self.ring
        if other.ring is not ring:
            raise RangeError("QKeyTElement operands over different algebras")
        bound = self.bound + other.bound
        if bound >> (ring.width - 1):
            # no room left in a field: the monomial products sum exponents
            # exactly, and one that leaves its field raises RangeError
            return QKeyTElement(ring, collect(
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
        if isinstance(other, QKeyTElement):
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

    def inverse(self) -> QKeyTElement:
        """Inverse of a single-term element; the monomial part must stay
        inside the localization, so every variable must be group-like."""
        if len(self.terms) != 1:
            raise NotInvertible(f"not a monomial: {self.to_text()}")
        (m, c), = self.terms.items()
        self.ring.check_invertible(m)
        return QKeyTElement(self.ring, {m.inverse(): c.inverse()})

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
        return f"<QKeyTElement {self.to_text()}>"


def _vectors(ring: QKeyRing, num: dict) -> dict[int, list[int]]:
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


def qkey_sum_of_products(zero, triples):
    """The sum of a * b * s over the (a, b, s) triples, starting from zero,
    which a sum over no triple returns.

    With zero a `QKeyTElement`, a and b are elements of its ring and s a
    Scalar: the integer numerators of every product are summed straight
    into one dict, keyed by the sums of the term keys, over one common
    denominator, and the sum takes one canonical form rather than one per
    product.  Otherwise (Scalars) each product is added in turn."""
    if zero.__class__ is not QKeyTElement:
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
            raise RangeError("QKeyTElement operands over different algebras")
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
    ring: QKeyRing, num: dict, den: int, bound: int, qmax: int, reduced: bool = False
) -> QKeyTElement:
    """The element num/den, with num and den brought to lowest terms, and
    put into canonical form if its powers of q may reach 2n."""
    if den != 1:
        num, den = _lowest_terms(num, den)
    out = _new(QKeyTElement)
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
