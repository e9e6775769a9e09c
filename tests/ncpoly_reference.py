"""The word-expanding parser and the word-by-word `mu` that
`hopfgen.identities` replaced, kept verbatim (apart from the imports and
the names of the two entry points) as the reference of the differential
tests in `test_identities_tree.py`.

The parser builds the polynomial by `NCPoly` arithmetic as it reads, so
every input is expanded into words; `mu` evaluates each word on its own.
"""

from __future__ import annotations

from fractions import Fraction

from hopfgen.cocycle import TwoCocycle
from hopfgen.errors import ParseError, RangeError, UnknownLabel
from hopfgen.hopf import HopfAlgebra
from hopfgen.identities import DEFAULT_WORD_CAP, NCPoly, mu_algebra, ncpoly_scalar, symbol
from hopfgen.linalg import collect
from hopfgen.tring import TensorH, TMonomial, t_ring


class _Parser:
    """Recursive descent over: expr := ['-'] term (('+'|'-') term)*;
    term := factor ('*' factor)*; factor := atom ('^' nat)*;
    atom := rational | 'q' | 'X[' label ']' | '(' expr ')'."""

    def __init__(self, text: str, hopf: HopfAlgebra, cap: int):
        self.text = text
        self.hopf = hopf
        self.cap = cap
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> NCPoly:
        out = self.expr()
        if self.peek():
            self.error(f"unexpected {self.peek()!r}")
        return out

    def expr(self) -> NCPoly:
        negate = False
        if self.peek() == "-":
            self.pos += 1
            negate = True
        out = self.term()
        if negate:
            out = -out
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            nxt = self.term()
            out = out - nxt if op == "-" else out + nxt
        return out

    def term(self) -> NCPoly:
        out = self.factor()
        while self.peek() == "*":
            self.pos += 1
            out = out * self.factor()
        return out

    def factor(self) -> NCPoly:
        out = self.atom()
        while self.peek() == "^":
            self.pos += 1
            out = out ** self.nat()
        return out

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a natural number")
        return int(self.text[start:self.pos])

    def atom(self) -> NCPoly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            out = self.expr()
            self.eat(")")
            return out
        if ch == "q":
            self.pos += 1
            return ncpoly_scalar(self.hopf, self.hopf.field.q, self.cap)
        if ch.isdigit():
            num = self.nat()
            if self.peek() == "/":
                self.pos += 1
                den = self.nat()
                if den == 0:
                    self.error("zero denominator")
                return ncpoly_scalar(self.hopf, Fraction(num, den), self.cap)
            return ncpoly_scalar(self.hopf, num, self.cap)
        if ch == "X":
            self.pos += 1
            self.eat("[")
            end = self.text.find("]", self.pos)
            if end < 0:
                self.error("unterminated label")
            label = self.text[self.pos:end]
            self.pos = end + 1
            try:
                return symbol(self.hopf, label, self.cap)
            except UnknownLabel:
                raise UnknownLabel(f"no basis element labelled {label!r}") from None
        self.error("expected a factor")


def reference_parse(text: str, hopf: HopfAlgebra, cap: int = DEFAULT_WORD_CAP) -> NCPoly:
    return _Parser(text, hopf, cap).parse()


def reference_mu(hopf: HopfAlgebra, alpha: TwoCocycle, poly: NCPoly) -> TensorH:
    """Algebra-map extension of X over b mapping to the coordinate of the
    first coproduct leg tensored with the (twisted) second leg."""
    if poly.hopf is not hopf:
        raise RangeError("polynomial belongs to a different algebra")
    ring = t_ring(hopf)
    algebra = mu_algebra(hopf, alpha)
    gen_images = [
        TensorH(
            ring,
            algebra,
            collect(((TMonomial([(j, 1)]), k), c) for j, k, c in hopf.comult[i]),
        )
        for i in range(hopf.dim)
    ]
    total = TensorH.zero(ring, algebra)
    for word, coeff in poly.terms.items():
        img = total.one()
        for i in word:
            img = img * gen_images[i]
        total = total + img.scale(coeff)
    return total
