"""Exact Laurent coordinates attached to the basis of a Hopf algebra.

One commuting variable ``t[b]`` per basis element ``b``.  Variables sitting
over group-like elements may carry negative exponents; all others may not.
The ring knows the convolution inverse of the coordinate map, the coproduct
induced on coordinates, and the grading pulled back through the algebra.

Ring elements (`TElement`) and tensors of a ring element with an algebra
basis element (`TensorH`) share one layout, `Numerators`: integer
numerators over one denominator, keyed by packed integer keys, each
numerator an integer over a field of degree one and otherwise the residue
of its polynomial in q under Kronecker substitution (`arith.Kronecker`).
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


class Numerators(Sparse):
    """A finite sum of terms with coefficients in Q(q), held as integer
    numerators: the one layout of `TElement` and `TensorH`.

    The numerators `num` lie over one positive denominator `den`, keyed by
    one integer each.  Over a field of degree one a numerator is an
    integer, `codec` is None, and the element is kept in lowest terms with
    no zero numerator.  Over a field of degree d >= 2 a numerator is a
    polynomial in q, a nonzero residue of the Kronecker codec `codec`
    (`arith.Kronecker`), so that a term product is one key sum and one
    integer product modulo N.  `norm` bounds the absolute slot values of
    all numerators summed; an operation whose result could leave the slots
    of its operands' codec re-encodes them on a wider one, so no slot ever
    wraps.  `bound` bounds the absolute exponents of the monomials.
    Distinct numerators may stand for one value (Phi_n(q) = 0), so the
    canonical form is taken only where a value is observed (the zero test,
    ==, hash, `terms` and the text), and kept.

    The linear structure is written here once; a subclass supplies its
    keys, its product and its text."""

    __slots__ = ("ring", "num", "den", "bound", "codec", "norm", "_canon", "_terms")

    def _fill(self, ring: TRing, terms: list) -> None:
        """Set the fields from (key, monomial, Scalar) terms with distinct
        keys, zero coefficients dropped: the numerators over the lcm of the
        denominators, each polynomial balanced (`arith.balanced`) and
        encoded on the narrowest codec that holds their summed slot norm.
        The Scalars are canonical, so the canonical form is kept at once."""
        field, w = ring.field, ring.width
        self.ring, self._terms = ring, None
        if len(terms) == 1:
            # the most common build: one term, over its own denominator
            ((k, m, c),) = terms
            if m.width != w:
                raise RangeError("monomials packed with different field widths")
            num, self.den, self.bound = c.num, c.den, m.bound
            if field.degree == 1:
                self.num, self.codec, self.norm = {k: num[0]} if num[0] else {}, None, 0
                return
            # the balanced slots of a rational x are x, 0, ..., 0
            vec = balanced(num, field.n) if any(num[1:]) else num[:1]
            norm = norm1(vec)
            codec = kronecker(field, norm)
            x = codec.encode(vec)
            self.num = {k: x} if x else {}
            self.codec, self.norm, self._canon = codec, norm, (c.den, {k: num} if x else {})
            return
        den, bound = 1, 0
        for _, m, c in terms:
            if m.width != w:
                raise RangeError("monomials packed with different field widths")
            if m.bound > bound:
                bound = m.bound
            if den % c.den:
                den = lcm(den, c.den)
        # Scalars are in lowest terms, so gcd(den, *num) is already one
        self.den, self.bound = den, bound
        if field.degree == 1:
            self.num = {k: x * (den // c.den) for k, _, c in terms if (x := c.num[0])}
            self.codec, self.norm = None, 0
            return
        n = field.n
        vecs, canon, norm = [], {}, 0
        for k, _, c in terms:
            num = c.num
            if any(num):
                vec = balanced(num, n) if any(num[1:]) else num[:1]
                f = den // c.den
                if f != 1:
                    vec = [x * f for x in vec]
                    num = tuple([x * f for x in num])
                norm += norm1(vec)
                vecs.append((k, vec))
                canon[k] = num
        codec = kronecker(field, norm)
        encode = codec.encode
        self.num = {k: encode(vec) for k, vec in vecs}
        self.codec, self.norm, self._canon = codec, norm, (den, canon)

    def _of(self, num: dict, den: int, bound: int, codec, norm: int):
        """An element over the same owner from numerators that hold no zero;
        over a field of degree one, brought to lowest terms."""
        if codec is None and den != 1:
            num, den = _lowest_terms(num, den)
        out = _new(self.__class__)
        out.ring, out.num, out.den, out.bound = self.ring, num, den, bound
        out.codec, out.norm, out._canon, out._terms = codec, norm, None, None
        return out

    # -- codecs ----------------------------------------------------------------

    def _codec(self, norm: int, *others: Numerators):
        """The widest of the operands' codecs and the narrowest one that
        holds `norm` (None over a field of degree one)."""
        widest = self.codec
        if widest is None:
            return None
        for other in others:
            if other.codec.width > widest.width:
                widest = other.codec
        return kronecker(self.ring.field, norm) if norm >> (widest.width - 1) else widest

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

    def _scalars(self) -> list[tuple[int, Scalar]]:
        """The canonical (key, coefficient) pairs, in the order of `num`."""
        den, vecs = self._canonical()
        field = self.ring.field
        if self.codec is None:
            return [(k, _lowest(field, (c,), den)) for k, c in vecs.items()]
        return [(k, _lowest(field, vec, den)) for k, vec in vecs.items()]

    @property
    def is_zero(self) -> bool:
        return not self.num or not self._canonical()[1]

    def _equal(self, other) -> bool:
        if self.codec is other.codec and self.den == other.den and self.num == other.num:
            return True
        return self._canonical() == other._canonical()

    def __hash__(self):
        den, vecs = self._canonical()
        return hash((den, frozenset(vecs.items())))

    # -- linear structure ------------------------------------------------------

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
        codec, a, b, mod = self._pair(o, norm)
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

    def scaled(self, s: Scalar):
        """self times the scalar s: zero for zero, and self itself for one."""
        if s.field is not self.ring.field:
            raise RangeError("mixed scalars from different fields")
        if not s:
            return self._of({}, 1, 0, self.codec, 0)
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

    def _pair(self, other: Numerators, norm: int) -> tuple:
        """(codec, a, b, mod): the codec of a result of slot norm `norm`
        (`_codec`), the numerators of self and other on it, and its modulus
        (None over a field of degree one)."""
        if self.codec is None:
            return None, self.num, other.num, None
        codec = self._codec(norm, other)
        return codec, self._at(codec), other._at(codec), codec.modulus


class TElement(Numerators):
    """Finite linear combination of monomials with coefficients in Q(q),
    on the numerator layout of `Numerators`: each term is keyed by the
    packed key of its monomial, so a term product is one key sum and one
    integer product (modulo N over a field of degree d >= 2)."""

    __slots__ = ()

    def __init__(self, ring: TRing, terms: dict[TMonomial, Scalar]):
        """The element of a {monomial: Scalar} mapping; zero coefficients
        are dropped."""
        self._fill(ring, [(m.key, m, c) for m, c in terms.items()])

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

    @property
    def terms(self) -> dict[TMonomial, Scalar]:
        """The canonical terms: each monomial mapped to its nonzero
        coefficient, in the order in which the monomials first appear."""
        if self._terms is None:
            bound, w = self.bound, self.ring.width
            self._terms = {_packed(k, bound, w): c for k, c in self._scalars()}
        return self._terms

    # -- arithmetic ----------------------------------------------------------

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
        norm = self.norm * other.norm
        codec, a, b, mod = self._pair(other, norm)
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # a product by a single term: no two keys meet
            ((ka, ca),) = a.items()
            raw = {ka + kb: ca * cb for kb, cb in b.items()}
        else:
            raw = {}
            _pair_sums(raw, a, b, 1, None)
        return self._of(_nonzero(raw, mod), self.den * other.den, bound, codec, norm)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TElement):
            return self * other.inverse()
        s = self._scalar(other)
        return NotImplemented if s is None else self.scaled(s.inverse())

    def __pow__(self, k: int):
        if isinstance(k, int) and k < 0:
            return self.inverse() ** (-k)
        if isinstance(k, int) and len(self.num) == 1 and not (self.bound * k) >> (self.ring.width - 1):
            # one term: a multiple of its key and a power of its numerator
            ((key, c),) = self.num.items()
            norm = self.norm**k
            codec = self._codec(norm)
            c = c**k if codec is None else pow(self._at(codec)[key], k, codec.modulus)
            return self._of({key * k: c} if c else {}, self.den**k, self.bound * k, codec, norm)
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


def sum_of_products(zero, triples):
    """The sum of a * b * s over the (a, b, s) triples, starting from zero,
    which a sum over no triple returns.

    With zero a `TElement`, a and b are elements of its ring and s a
    Scalar: the numerators of every product are summed straight into one
    dict, keyed by the sums of the term keys, over one common denominator
    and on one codec, the widest of the operands' codecs or the one the
    summed slot norms need; the sum takes one canonical form rather than
    one per product.  Otherwise (Scalars) each product is added in turn."""
    if zero.__class__ is not TElement:
        acc = zero
        for a, b, s in triples:
            acc = acc + a * b * s
        return acc
    ring = zero.ring
    field, w, rational = ring.field, ring.width, zero.codec is None
    work, operands = [], []
    den, norm, bound = 1, 0, -1
    for a, b, s in triples:
        if s.field is not field:
            raise RangeError("mixed scalars from different fields")
        if a.ring is not ring or b.ring is not ring:
            raise RangeError("TElement operands over different algebras")
        if (a.bound + b.bound) >> (w - 1):
            # the term keys would carry: the exact product (exponents
            # summed, RangeError for one that leaves its field) and the unit
            a, b = a * b, ring.one()
        if not (a.num and b.num and any(s.num)):
            continue
        d = a.den * b.den * s.den
        if den % d:
            # a new factor of the common denominator
            f = lcm(den, d) // den
            den, norm = den * f, norm * f
        sv = s.num
        if not rational:
            norm += a.norm * b.norm * norm1(sv) * (den // d)
        work.append((a, b, sv, d))
        operands += (a, b)
        bound = max(bound, a.bound + b.bound)
    if bound < 0:
        return zero
    codec = zero._codec(norm, *operands)
    mod = None if rational else codec.modulus
    num: dict[int, int] = {}
    for a, b, sv, d in work:
        f = den // d
        if f != 1:
            sv = [x * f for x in sv]
        c = sv[0] if rational else codec.encode(sv)
        _pair_sums(num, a._at(codec), b._at(codec), c, mod)
    return zero._of(_nonzero(num, mod), den, bound, codec, norm)


def _pair_sums(out: dict, a: dict, b: dict, c: int, mod: int | None) -> None:
    """Add to out the products x * y * c of every numerator x of a and y of
    b, at the sum of their keys, summed but not reduced (x * c modulo mod
    if given); new keys enter out in the order of the terms of a, then of
    b."""
    get = out.get
    right = b.items()
    for ka, ca in a.items():
        c0 = ca * c if mod is None else ca * c % mod
        for kb, cb in right:
            k = ka + kb
            out[k] = get(k, 0) + c0 * cb


def _nonzero(raw: dict, mod: int | None) -> dict:
    """The summed numerators raw without zeros, each reduced modulo mod if
    given: a sum of products of nonzero residues can vanish, as
    Z[q]/(q^n - 1) has zero divisors."""
    if mod is None:
        return {k: c for k, c in raw.items() if c}
    return {k: r for k, c in raw.items() if (r := c % mod)}


def _lowest_terms(num: dict, den: int) -> tuple[dict, int]:
    g = gcd(den, *num.values())
    if g != 1:
        num = {k: c // g for k, c in num.items()}
        den //= g
    return num, den


class TRing:
    """The coordinate ring of a fixed Hopf algebra instance; its monomials
    are packed with `width` bits per variable."""

    __slots__ = ("hopf", "field", "grouplike_set", "width", "_unit", "_vars", "_tinv", "_grading")

    def __init__(self, hopf: HopfAlgebra):
        self.hopf = hopf
        self.field = hopf.field
        self.grouplike_set = set(hopf.grouplikes)
        self.width = field_width(hopf.dim)
        self._unit = TMonomial((), self.width)
        one = self.field.one
        self._vars = tuple(TElement(self, {self.monomial([(i, 1)]): one}) for i in range(hopf.dim))
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
        return TElement(self, {})

    def one(self) -> TElement:
        return TElement(self, {self._unit: self.field.one})

    def scalar(self, c: Scalar) -> TElement:
        return TElement(self, {self._unit: c})

    def var(self, index: int, exp: int = 1) -> TElement:
        if exp == 1 and 0 <= index < len(self._vars):
            return self._vars[index]
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
        terms are read as the canonical numerators of each monomial, and
        the numerators of all monomials whose powers multiply to one value
        are summed before one product by it."""
        den, vecs = elem._canonical()
        if elem.codec is None:
            vecs = {m: (c,) for m, c in vecs.items()}
        field, w = self.field, self.width
        one, zero = field.one, field.zero
        # each power as None for one, the field's zero for zero, else itself
        powers: dict[tuple[int, int], Scalar | None] = {}
        # the product of the powers (None for one) -> summed numerators
        sums: dict[Scalar | None, list[int]] = {}
        for m, vec in vecs.items():
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
                    sums[p] = list(vec)
                else:
                    acc[:] = map(add, acc, vec)
        total = zero
        for p, vec in sums.items():
            value = _lowest(field, tuple(vec), den)
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


class TensorH(Numerators):
    """Sum of (coordinate monomial) tensor (algebra basis element) terms.

    The right tensor factor multiplies through `algebra.mult`, so the same
    class serves the plain product and any twisted one.

    The terms are held on the numerator layout of `Numerators`, keyed by
    one integer each: the packed key of the monomial shifted past
    INDEX_BITS, plus the basis index.  The canonical form also serves the
    coinvariance and centrality tests."""

    __slots__ = ("algebra",)

    def __init__(self, ring: TRing, algebra, terms: dict[tuple[TMonomial, int], Scalar]):
        """The element of a {(monomial, basis index): Scalar} mapping; zero
        coefficients are dropped."""
        if ring.hopf is not (algebra if isinstance(algebra, HopfAlgebra) else algebra.hopf):
            raise RangeError("TensorH operands over different algebras")
        for _, i in terms:
            if not 0 <= i < algebra.dim:
                raise RangeError(f"basis index {i} out of range")
        self.algebra = algebra
        self._fill(ring, [((m.key << INDEX_BITS) + i, m, c) for (m, i), c in terms.items()])

    def _owner(self) -> tuple:
        return self.ring, self.algebra

    def _of(self, num: dict, den: int, bound: int, codec, norm: int) -> TensorH:
        out = Numerators._of(self, num, den, bound, codec, norm)
        out.algebra = self.algebra
        return out

    @staticmethod
    def zero(ring: TRing, algebra) -> TensorH:
        return TensorH(ring, algebra, {})

    @staticmethod
    def from_element(ring: TRing, algebra, elem: TElement, index: int) -> TensorH:
        """elem tensor the basis element `index`: the numerators of elem,
        their keys shifted past INDEX_BITS."""
        if elem.ring is not ring:
            raise RangeError("TensorH operands over different algebras")
        out = TensorH.zero(ring, algebra)
        if not 0 <= index < algebra.dim:
            raise RangeError(f"basis index {index} out of range")
        num = {(k << INDEX_BITS) + index: c for k, c in elem.num.items()}
        return out._of(num, elem.den, elem.bound, elem.codec, elem.norm)

    def one(self) -> TensorH:
        unit = (self.ring._unit, self.algebra.unit_index)
        return TensorH(self.ring, self.algebra, {unit: self.ring.field.one})

    @property
    def terms(self) -> dict[tuple[TMonomial, int], Scalar]:
        """The canonical terms: each (monomial, basis index) mapped to its
        nonzero coefficient."""
        if self._terms is None:
            bound, w = self.bound, self.ring.width
            self._terms = {
                (_packed(k >> INDEX_BITS, bound, w), k & INDEX_MASK): c
                for k, c in self._scalars()
            }
        return self._terms

    # -- products ----------------------------------------------------------------

    def scale(self, c) -> TensorH:
        """self times a coordinate-ring element or a scalar: for an element,
        every term of self times every term of c, one key sum and one
        integer product each."""
        if not isinstance(c, TElement):
            return self.scaled(self.ring.field.scalar(c))
        if c.ring is not self.ring:
            raise RangeError("TensorH operands over different algebras")
        bound = self.bound + c.bound
        if bound >> (self.ring.width - 1):
            bound = _exponent_bound(self, c.bound, c.num)
        norm = self.norm * c.norm
        codec, a, b, mod = self._pair(c, norm)
        raw: dict[int, int] = {}
        _pair_sums(raw, {k << INDEX_BITS: x for k, x in b.items()}, a, 1, None)
        return self._of(_nonzero(raw, mod), self.den * c.den, bound, codec, norm)

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
        rows, tden, tnorm = packed_table(self.algebra, self.codec)
        norm = self.norm * o.norm * tnorm
        codec, a, b, mod = self._pair(o, norm)
        if codec is not self.codec:
            rows, tden, _ = packed_table(self.algebra, codec)
        raw = _products(a, b, rows)
        return self._of(_nonzero(raw, mod), self.den * o.den * tden, bound, codec, norm)

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
