"""Exact arithmetic in the cyclotomic field Q(q) and q-integer combinatorics.

Scalars live in Q(q) where q is a primitive n-th root of unity, realized as
Q[X] / (Phi_n(X)).  Phi_n is obtained by recursively dividing X^n - 1 by
Phi_d for the proper divisors d of n, so no factoring is needed.  For
n = 1, 2 the field degenerates to Q with q = 1 resp. -1.

A Scalar is a fully reduced residue num/den: a tuple of integer numerators
of 1, q, ..., q^(d-1) over one positive common denominator, in lowest terms
(zero is 0/1).  Phi_n is monic with integer coefficients, so sums and
products run on Python ints and only the final gcd touches the
denominator.  Inverses stay in integers too: the inverse of a numerator is
the product of its other Galois conjugates over its norm, an integer.
Fractions appear only where values enter or leave (`scalar`, `from_coeffs`,
`coeffs`).  For products in bulk, the `Kronecker` codec packs a polynomial
in q into one integer, so that a product of two is one integer product.
The Gaussian binomials come from the q-Pascal rule, with no division.
Equality is plain comparison of (num, den), and nothing here ever touches
floating point: only ints, Fractions and Scalars are accepted as exact
values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, neg
from sys import hash_info
from typing import Iterable

from .errors import DivisionByZero, RangeError

_HASH_MODULUS, _HASH_INF = hash_info.modulus, hash_info.inf


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _divmod_monic(num: Iterable, den: list) -> tuple[list, list]:
    # den must be monic; coefficient lists are lowest degree first
    num = list(num)
    if len(num) < len(den):
        return [], _trim(num)
    quot = [0] * (len(num) - len(den) + 1)
    terms = [(i, d) for i, d in enumerate(den) if d]
    for k in range(len(quot) - 1, -1, -1):
        c = num[len(den) - 1 + k]
        quot[k] = c
        if c:
            for i, d in terms:
                num[i + k] -= c * d
    return quot, _trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, lowest degree first."""
    if n < 1:
        raise RangeError(f"root-of-unity order must be >= 1, got {n}")
    poly: list = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _divmod_monic(poly, list(cyclotomic_polynomial(d)))
            assert not rem, "cyclotomic division must be exact"
    return tuple(poly)


class FieldSpec:
    """Q(q) for q a primitive n-th root of unity.  Create via make_field(n)."""

    __slots__ = ("n", "modulus", "degree", "_red", "_pad", "_units", "zero", "one", "q")

    def __init__(self, n: int):
        self.n = n
        self.modulus = cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1
        d = self.degree
        # _red[j] = integer coefficients of X^(d+j) reduced mod Phi_n, for
        # 0 <= j <= d-2; integral because Phi_n is monic over Z
        red = []
        row = [-c for c in self.modulus[:d]]
        red.append(tuple(row))
        for _ in range(d - 2):
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [a + top * b for a, b in zip(row, red[0])]
            red.append(tuple(row))
        self._red = tuple(red)
        self._pad = (0,) * (d - 1)
        # the k of the conjugations sigma_k other than the identity
        self._units = tuple(k for k in range(2, n) if gcd(k, n) == 1)
        self.zero = Scalar(self, (0,) * d)
        self.one = Scalar(self, (1,) + self._pad)
        if d == 1:
            # the residue of X is a rational number: 1 for n=1, -1 for n=2
            self.q = Scalar(self, (-self.modulus[0],))
        else:
            self.q = Scalar(self, (0, 1) + (0,) * (d - 2))

    def scalar(self, value) -> Scalar:
        """Embed an int or Fraction, or pass a Scalar of this field through;
        anything else (a float among them) raises RangeError."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise RangeError("scalar belongs to a different field")
            return value
        if isinstance(value, int):
            return Scalar(self, (int(value),) + self._pad)
        if isinstance(value, Fraction):
            return Scalar(self, (value.numerator,) + self._pad, value.denominator)
        raise RangeError(f"not an exact scalar: {value!r} (use an int or a Fraction)")

    def from_coeffs(self, coeffs: Iterable) -> Scalar:
        """Build a scalar from int or Fraction coefficients of 1, q, q^2, ...
        (any length)."""
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise RangeError(f"not an exact coefficient: {c!r} (use an int or a Fraction)")
        den = lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        if len(num) > self.degree:
            num = _divmod_monic(num, self.modulus)[1]
        return _lowest(self, tuple(num) + (0,) * (self.degree - len(num)), den)

    def q_power(self, k: int) -> Scalar:
        return self.q ** (k % self.n)

    def __repr__(self):
        return f"FieldSpec(n={self.n}, degree={self.degree})"


@lru_cache(maxsize=None)
def make_field(n: int) -> FieldSpec:
    if n < 1:
        raise RangeError(f"root-of-unity order must be >= 1, got {n}")
    return FieldSpec(n)


def _mul_mod(p: list, terms: list, n: int, modulus: tuple) -> list:
    """p times the sum of c X^e over the (e, c) in terms, modulo X^n - 1 and
    then modulo Phi_n."""
    out = [0] * n
    for i, pi in enumerate(p):
        if pi:
            for e, c in terms:
                out[(i + e) % n] += pi * c
    return _divmod_monic(out, modulus)[1]


def _lowest(field: FieldSpec, num: tuple, den: int) -> Scalar:
    """num/den (den > 0) in lowest terms; zero comes out as 0/1."""
    g = gcd(den, *num)
    if g != 1:
        num = tuple([c // g for c in num])
        den //= g
    return Scalar(field, num, den)


class Scalar:
    """A reduced residue class in Q(q); immutable and hashable.

    `num` holds the integer numerators of 1, q, ..., q^(d-1) and `den` their
    positive common denominator, with gcd(den, *num) == 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FieldSpec, num: tuple, den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, q, ..., q^(d-1) as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise RangeError("mixed scalars from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        if other.__class__ is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        da, db = self.den, other.den
        if da == db:
            num = tuple(map(add, self.num, other.num))
            if da == 1:
                return Scalar(self.field, num)
            return _lowest(self.field, num, da)
        num = tuple([a * db + b * da for a, b in zip(self.num, other.num)])
        return _lowest(self.field, num, da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Scalar(self.field, tuple(map(neg, self.num)), self.den)

    def __mul__(self, other):
        if other.__class__ is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        field = self.field
        a, b = self.num, other.num
        d = field.degree
        if d == 1:
            num = (a[0] * b[0],)
        else:
            # a product by one is the other factor (in degree 1 the general
            # product is a single integer product, and this test measured
            # no faster there)
            one = field.one.num
            if a == one and self.den == 1:
                return other
            if b == one and other.den == 1:
                return self
            prod = [0] * (2 * d - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        if bj:
                            prod[i + j] += ai * bj
            for k, r in enumerate(field._red, d):
                c = prod[k]
                if c:
                    for i, ri in enumerate(r):
                        if ri:
                            prod[i] += c * ri
            num = tuple(prod[:d])
        den = self.den * other.den
        if den == 1:
            return Scalar(field, num)
        return _lowest(field, num, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return binary_power(self, k, self.field.one)

    def inverse(self) -> Scalar:
        """Multiplicative inverse, in integers: for the numerator a,
        1/a = prod_{k != 1} sigma_k(a) / N(a), where sigma_k sends q to q^k
        for the k prime to n and the norm N(a) is the constant coefficient of
        a times that product (Cohen, GTM 138, section 4.3)."""
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        field = self.field
        if field.degree == 1:
            a = self.num[0]
            return Scalar(field, (self.den,), a) if a > 0 else Scalar(field, (-self.den,), -a)
        if self.den == 1 and self.num == field.one.num:
            # one is its own inverse (the counit value that verify_sigma
            # substitutes for every group-like letter)
            return self
        # the conjugates sigma_k(num) are the terms c q^(ik mod n), exact
        # modulo X^n - 1 and so modulo its divisor Phi_n
        n, modulus = field.n, field.modulus
        terms = [(i, c) for i, c in enumerate(self.num) if c]
        conj = [1]
        for k in field._units:
            conj = _mul_mod(conj, [(i * k % n, c) for i, c in terms], n, modulus)
        # N(num) > 0: the field is totally complex for n > 2, so the norm is
        # a product of squared absolute values
        norm = _mul_mod(conj, terms, n, modulus)[0]
        num = [c * self.den for c in conj] + [0] * (field.degree - len(conj))
        return _lowest(field, tuple(num), norm)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.field.n == other.field.n

    def __hash__(self):
        # num and den are in lowest terms, so equal scalars hash equal
        # without building the Fraction coefficients
        num, den = self.num, self.den
        if any(num[1:]):
            if den == 1:
                return hash((self.field.n, num))
            return hash((self.field.n, num, den))
        # a rational value hashes as the equal int or Fraction does: Python's
        # numeric hash, |a| / den modulo the prime P of sys.hash_info
        a = num[0]
        if den == 1:
            return hash(a)
        try:
            h = hash(hash(abs(a)) * pow(den, -1, _HASH_MODULUS))
        except ValueError:
            # P divides den
            h = _HASH_INF
        h = h if a >= 0 else -h
        return -2 if h == -1 else h

    def __repr__(self):
        return f"Scalar({format_scalar(self)})"


# The narrowest slot width of a `Kronecker` codec, in bits; wider codecs
# double it.
SLOT_WIDTH = 64


class Kronecker:
    """Kronecker substitution q -> 2^W on Z[q]/(q^n - 1), of which Q(q) is a
    quotient: a polynomial sum c_j q^j becomes the residue of sum c_j 2^(W j)
    modulo N = 2^(W n) - 1, so its slots are signed fields of W bits and a
    product of polynomials is one integer product modulo N.

    The residue determines its polynomial while the absolute values of the
    slots sum to less than 2^(W-1), the slot norm that `kronecker` chooses
    a width for; a caller keeps such a bound on every value and widens the
    codec before a result could leave it.  `reduce` takes a residue to the
    numerators of 1, q, ..., q^(d-1) of its value in Q(q)."""

    __slots__ = ("field", "width", "modulus", "_offset", "_shifts", "_mask", "_high")

    def __init__(self, field: FieldSpec, width: int):
        n, w = field.n, width
        self.field = field
        self.width = w
        self.modulus = (1 << (w * n)) - 1
        # 2^(W-1) in every slot: added to a value whose slots lie strictly
        # between -2^(W-1) and 2^(W-1), it gives an integer below N whose
        # unsigned slots are those slots plus 2^(W-1)
        self._offset = self.modulus // ((1 << w) - 1) << (w - 1)
        self._shifts = tuple(range(0, w * n, w))
        self._mask = (1 << w) - 1
        # q^k for d <= k < n as its nonzero (j, c) numerators of 1, ..., q^(d-1)
        self._high = tuple(
            (k, tuple((j, c) for j, c in enumerate(field.q_power(k).num) if c))
            for k in range(field.degree, n)
        )

    def encode(self, num) -> int:
        """The residue of the polynomial with integer coefficients `num` of
        1, q, q^2, ... (a Scalar numerator, or the slots of a residue),
        summed by Horner's rule from the highest power."""
        w = self.width
        x = 0
        for c in reversed(num):
            x = (x << w) + c
        return x % self.modulus

    def _unsigned(self, x: int) -> list[int]:
        """The n slots of a residue that the codec holds, each plus 2^(W-1)."""
        y = x + self._offset
        if y >= self.modulus:
            y -= self.modulus
        mask = self._mask
        return [y >> s & mask for s in self._shifts]

    def slots(self, x: int) -> list[int]:
        """The n signed slots of a residue that the codec holds."""
        half = 1 << (self.width - 1)
        return [c - half for c in self._unsigned(x)]

    def reduce(self, x: int) -> tuple[int, ...]:
        """The numerators of 1, q, ..., q^(d-1) of the value in Q(q) of a
        residue that the codec holds: its slots reduced modulo Phi_n.  The
        unsigned slots serve, as 1 + q + ... + q^(n-1) = 0 in Q(q)."""
        slots = self._unsigned(x)
        vec = slots[: self.field.degree]
        for k, terms in self._high:
            c = slots[k]
            for j, r in terms:
                vec[j] += c * r
        return tuple(vec)


@lru_cache(maxsize=None)
def _kronecker(field: FieldSpec, width: int) -> Kronecker:
    return Kronecker(field, width)


def kronecker(field: FieldSpec, norm: int) -> Kronecker:
    """The narrowest codec of the field, SLOT_WIDTH doubled as often as
    needed, that holds values of slot norm `norm`."""
    w = SLOT_WIDTH
    while norm >> (w - 1):
        w *= 2
    return _kronecker(field, w)


def balanced(num, n: int) -> list[int]:
    """The n coefficients of 1, q, ..., q^(n-1) of the integer polynomial
    `num`, less their median: the same value in Q(q) for n >= 2, where
    1 + q + ... + q^(n-1) = 0, with the least sum of absolute values of all
    such shifts (q^(n-1) becomes itself, not minus the n-1 lower powers)."""
    slots = list(num) + [0] * (n - len(num))
    c = sorted(slots)[n // 2]
    return [x - c for x in slots] if c else slots


def norm1(num) -> int:
    """The sum of the absolute values of integer coefficients."""
    return sum(map(abs, num))


def binary_power(base, k: int, one):
    """base**k for k >= 0 by repeated squaring in any associative product;
    `one` is the answer for k = 0.  Squares only while bits of k remain."""
    out = None
    while True:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if not k:
            return one if out is None else out
        base = base * base


def format_scalar(s: Scalar) -> str:
    parts = []
    for i, c in enumerate(s.coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            qp = "q" if i == 1 else f"q^{i}"
            if c == 1:
                parts.append(qp)
            elif c == -1:
                parts.append(f"-{qp}")
            else:
                parts.append(f"{c}*{qp}")
    return _signed_join(parts)


def _signed_join(parts: list[str]) -> str:
    """The parts joined by " + ", a leading minus turning it into " - "."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def format_terms(terms: Iterable[tuple[Scalar, list[str]]]) -> str:
    """Text of a sum of coefficient * factors terms, in the given order:
    a coefficient with several parts is bracketed, a unit coefficient is
    left out, and a leading minus turns the joining " + " into " - "."""
    parts = []
    for c, factors in terms:
        fmt = format_scalar(c)
        if " " in fmt:
            fmt = f"({fmt})"
        if not factors:
            parts.append(fmt)
        elif fmt == "1":
            parts.append("*".join(factors))
        elif fmt == "-1":
            parts.append("-" + "*".join(factors))
        else:
            parts.append("*".join([fmt] + factors))
    return _signed_join(parts)


def scalar_to_strings(s: Scalar) -> list[str]:
    """JSON form: coefficient strings in lowest terms, lowest degree first."""
    return [str(c) for c in s.coeffs]


def scalar_from_strings(field: FieldSpec, parts: Iterable[str]) -> Scalar:
    return field.from_coeffs(Fraction(p) for p in parts)


def q_binomial_rows(m: int, field: FieldSpec) -> list[list[Scalar]]:
    """The rows j < m of the triangle of Gaussian binomials [j, r],
    0 <= r <= j, by the q-Pascal rule [j, r] = [j-1, r-1] + q^r [j-1, r]:
    sums and products by powers of q, no division."""
    q_pow = [field.q_power(r) for r in range(m)]
    rows: list[list[Scalar]] = []
    for j in range(m):
        row = [field.one] * (j + 1)
        for r in range(1, j):
            row[r] = rows[j - 1][r - 1] + q_pow[r] * rows[j - 1][r]
        rows.append(row)
    return rows


def q_binomial(j: int, r: int, field: FieldSpec) -> Scalar:
    """Gaussian binomial coefficient, defined for 0 <= r <= j < n."""
    if not (0 <= r <= j < field.n):
        raise RangeError(f"q-binomial needs 0 <= r <= j < {field.n}, got j={j} r={r}")
    return q_binomial_rows(j + 1, field)[j][r]
