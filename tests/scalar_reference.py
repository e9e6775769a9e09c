"""The Fraction-backed cyclotomic scalars that `hopfgen.arith` replaced,
kept verbatim (apart from the imports) as the reference of the
differential tests in `test_scalar_reference.py`.

Every coefficient is a `fractions.Fraction`; products reduce through a
Fraction table of X^(d+j) mod Phi_n, inverses run the extended Euclidean
algorithm in Q[X].

At the end, the q-integers, q-factorials and the product-over-factorial
Gaussian binomial that the q-Pascal rule of `hopfgen.arith.q_binomial`
replaced, also verbatim; they run over either kind of field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from hopfgen.arith import cyclotomic_polynomial
from hopfgen.errors import DivisionByZero, RangeError

_F0 = Fraction(0)
_F1 = Fraction(1)


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
    for k in range(len(quot) - 1, -1, -1):
        c = num[len(den) - 1 + k]
        quot[k] = c
        if c:
            for i, d in enumerate(den):
                num[i + k] -= c * d
    return quot, _trim(num)


class FieldSpec:
    """Q(q) for q a primitive n-th root of unity.  Create via make_field(n)."""

    __slots__ = ("n", "modulus", "degree", "_red", "zero", "one", "q")

    def __init__(self, n: int):
        self.n = n
        self.modulus = tuple(Fraction(c) for c in cyclotomic_polynomial(n))
        self.degree = len(self.modulus) - 1
        d = self.degree
        # _red[j] = coefficients of X^(d+j) reduced mod Phi_n, for 0 <= j <= d-2
        red = []
        row = [-c for c in self.modulus[:d]]
        red.append(tuple(row))
        for _ in range(d - 2):
            top = row[-1]
            row = [_F0] + row[:-1]
            if top:
                row = [a + top * b for a, b in zip(row, red[0])]
            red.append(tuple(row))
        self._red = tuple(red)
        self.zero = Scalar(self, (_F0,) * d)
        self.one = Scalar(self, ((_F1,) + (_F0,) * (d - 1)))
        if d == 1:
            # the residue of X is a rational number: 1 for n=1, -1 for n=2
            self.q = Scalar(self, (-self.modulus[0],))
        else:
            self.q = Scalar(self, ((_F0, _F1) + (_F0,) * (d - 2)))

    def scalar(self, value) -> Scalar:
        """Embed an int or Fraction."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise RangeError("scalar belongs to a different field")
            return value
        v = Fraction(value)
        return Scalar(self, (v,) + (_F0,) * (self.degree - 1))

    def from_coeffs(self, coeffs: Iterable) -> Scalar:
        """Build a scalar from coefficients of 1, q, q^2, ... (any length)."""
        acc = self.zero
        for c in reversed([Fraction(c) for c in coeffs]):
            acc = acc * self.q + self.scalar(c)
        return acc

    def q_power(self, k: int) -> Scalar:
        return self.q ** (k % self.n)

    def __repr__(self):
        return f"FieldSpec(n={self.n}, degree={self.degree})"


@lru_cache(maxsize=None)
def make_field(n: int) -> FieldSpec:
    if n < 1:
        raise RangeError(f"root-of-unity order must be >= 1, got {n}")
    return FieldSpec(n)


class Scalar:
    """A reduced residue class in Q(q); immutable and hashable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise RangeError("mixed scalars from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Scalar(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        d = self.field.degree
        if d == 1:
            return Scalar(self.field, (a[0] * b[0],))
        prod = [_F0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        red = self.field._red
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                for i, r in enumerate(red[k - d]):
                    prod[i] += c * r
        return Scalar(self.field, tuple(prod[:d]))

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
        result = self.field.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> Scalar:
        """Multiplicative inverse via the extended Euclidean algorithm in Q[X]."""
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        d = self.field.degree
        if d == 1:
            return Scalar(self.field, (1 / self.coeffs[0],))
        # r0 = modulus, r1 = self; keep Bezout coefficient for r1 only
        r0 = list(self.field.modulus)
        r1 = _trim(list(self.coeffs))
        t0: list = []
        t1: list = [_F1]
        while r1:
            lead = r1[-1]
            if lead != 1:
                r1 = [c / lead for c in r1]
                t1 = [c / lead for c in t1]
            quot, rem = _divmod_monic(r0, r1)
            # t2 = t0 - quot * t1
            t2 = list(t0)
            for i, qc in enumerate(quot):
                if qc:
                    for j, tc in enumerate(t1):
                        while len(t2) <= i + j:
                            t2.append(_F0)
                        t2[i + j] -= qc * tc
            r0, r1 = r1, rem
            t0, t1 = t1, _trim(t2)
        # here r0 = gcd (a nonzero constant is impossible: r0 is monic, so == [1])
        assert r0 == [_F1], "cyclotomic modulus is irreducible over Q"
        return self.field.from_coeffs(t0)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field.n == other.field.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.n, self.coeffs))

    def rational(self) -> Fraction:
        """The value as a Fraction; raises RangeError if q genuinely appears."""
        if any(self.coeffs[1:]):
            raise RangeError("scalar is not rational")
        return self.coeffs[0]

    def __repr__(self):
        return f"Scalar({format_scalar(self)})"


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
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def scalar_to_strings(s: Scalar) -> list[str]:
    """JSON form: coefficient strings in lowest terms, lowest degree first."""
    return [str(c) for c in s.coeffs]


def q_int(j: int, field: FieldSpec) -> Scalar:
    """The q-integer [j] = 1 + q + ... + q^(j-1)."""
    if j < 0:
        raise RangeError(f"q-integer needs j >= 0, got {j}")
    acc = field.zero
    p = field.one
    for _ in range(j):
        acc = acc + p
        p = p * field.q
    return acc


def q_factorial(j: int, field: FieldSpec) -> Scalar:
    """[j]! = [1][2]...[j]."""
    if j < 0:
        raise RangeError(f"q-factorial needs j >= 0, got {j}")
    acc = field.one
    for i in range(1, j + 1):
        acc = acc * q_int(i, field)
    return acc


def q_binomial(j: int, r: int, field: FieldSpec) -> Scalar:
    """Gaussian binomial coefficient, defined for 0 <= r <= j < n."""
    if not (0 <= r <= j < field.n):
        raise RangeError(f"q-binomial needs 0 <= r <= j < {field.n}, got j={j} r={r}")
    num = field.one
    for i in range(j - r + 1, j + 1):
        num = num * q_int(i, field)
    return num / q_factorial(r, field)
