"""Noncommutative polynomials in one symbol per basis element, the universal
comodule-algebra map into coordinates-tensor-algebra, and the identity
detector built on it.

A polynomial is an exact linear combination of words over the symbols
``X[label]``.  Its image under `mu` lands in the tensor of the coordinate
ring with the (possibly cocycle-twisted) algebra; the polynomial is an
identity precisely when that image vanishes.  `mu` is an algebra map, so a
parsed polynomial is evaluated along its parse tree and never expanded
into words on the way.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import Scalar, binary_power, format_terms
from .cocycle import TwoCocycle, TwistedAlgebra, require_cocycle_of, twisted_algebra
from .errors import (
    NotHopfMap,
    ParseError,
    RangeError,
    UnknownLabel,
    UnsupportedFamily,
    WitnessFailure,
)
from .hopf import HopfAlgebra, group_algebra
from .linalg import Sparse, collect
from .tring import TensorH, check_product_budget, t_ring

DEFAULT_WORD_CAP = 64

Word = tuple[int, ...]


def _check_cap(length: int, cap: int) -> None:
    if length > cap:
        raise RangeError(f"word of length {length} exceeds cap {cap}")


class NCPoly(Sparse):
    """Collected word → coefficient form, with a length cap on words.

    A polynomial from `parse_ncpoly` also keeps its expression tree; `mu`
    evaluates the tree, and the words are expanded only when `terms` is
    first read."""

    __slots__ = ("hopf", "_terms", "cap", "_tree")

    def __init__(self, hopf: HopfAlgebra, terms: dict[Word, Scalar], cap: int = DEFAULT_WORD_CAP):
        self.hopf = hopf
        self._terms = {w: c for w, c in terms.items() if not c.is_zero}
        self.cap = cap
        self._tree = None
        for w in self._terms:
            _check_cap(len(w), cap)

    @staticmethod
    def _of(hopf: HopfAlgebra, terms: dict[Word, Scalar] | None, cap: int, tree=None) -> NCPoly:
        """A polynomial from arithmetic output, which holds no zeros and no
        word over the cap, so it skips the constructor's checks; or, with
        terms None, from a parse tree whose degree the parser checked."""
        out = NCPoly.__new__(NCPoly)
        out.hopf = hopf
        out._terms = terms
        out.cap = cap
        out._tree = tree
        return out

    @property
    def terms(self) -> dict[Word, Scalar]:
        """Word → nonzero coefficient; a parsed polynomial expands its tree
        on the first read, within the product budget."""
        if self._terms is None:
            self._terms = _evaluate(self._tree, lambda leaf: leaf, self.one())._terms
        return self._terms

    def _owner(self) -> HopfAlgebra:
        return self.hopf

    def _like(self, terms: dict[Word, Scalar]) -> NCPoly:
        return NCPoly._of(self.hopf, terms, self.cap)

    def _lift(self, other) -> NCPoly | None:
        try:
            c = self.hopf.field.scalar(other)
        except RangeError:
            return None
        return NCPoly(self.hopf, {(): c}, self.cap)

    def one(self) -> NCPoly:
        return ncpoly_scalar(self.hopf, 1, self.cap)

    def __add__(self, other):
        # the sum keeps the larger word cap of its operands
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return NCPoly._of(self.hopf, collect(o.terms.items(), self.terms), max(self.cap, o.cap))

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        left, right = self.terms, o.terms
        check_product_budget(len(left), len(right))
        cap = max(self.cap, o.cap)
        if left and right:
            _check_cap(max(map(len, left)) + max(map(len, right)), cap)
        return NCPoly._of(
            self.hopf,
            collect((w1 + w2, c1 * c2) for w1, c1 in left.items() for w2, c2 in right.items()),
            cap,
        )

    __rmul__ = __mul__

    def to_text(self) -> str:
        labels = self.hopf.labels
        terms = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            factors = []
            run_idx, run_len = None, 0
            for i in list(w) + [None]:
                if i == run_idx:
                    run_len += 1
                    continue
                if run_idx is not None:
                    v = f"X[{labels[run_idx]}]"
                    factors.append(v if run_len == 1 else f"{v}^{run_len}")
                run_idx, run_len = i, 1
            terms.append((self.terms[w], factors))
        return format_terms(terms)

    def __repr__(self):
        return f"<NCPoly {self.to_text()}>"


def basis_index(hopf: HopfAlgebra, label_or_index) -> int:
    """The index of a basis element given by its label or its index."""
    i = label_or_index if isinstance(label_or_index, int) else hopf.index_of(label_or_index)
    if not 0 <= i < hopf.dim:
        raise RangeError(f"basis index {i} out of range")
    return i


def symbol(hopf: HopfAlgebra, label_or_index, cap: int = DEFAULT_WORD_CAP) -> NCPoly:
    """The generator X over one basis element."""
    return NCPoly(hopf, {(basis_index(hopf, label_or_index),): hopf.field.one}, cap)


def ncpoly_scalar(hopf: HopfAlgebra, value, cap: int = DEFAULT_WORD_CAP) -> NCPoly:
    return NCPoly(hopf, {(): hopf.field.scalar(value)}, cap)


# A parse tree is a tuple (op, degree, ...): ("leaf", d, poly) with a
# one-term polynomial, a letter or a scalar; ("+", d, operands) and
# ("*", d, operands) with a tuple of subtrees; ("-", d, operand); and
# ("^", d, operand, k).  The degree d is structural: 1 for a letter, 0 for a
# scalar, the maximum over a sum, the total over a product, k times the
# operand's for a power.  It bounds the length of every word the tree
# expands to, and equals the longest one unless top-degree words cancel.


def _evaluate(tree: tuple, leaf, one):
    """Fold a parse tree into any ring: leaves through `leaf`, sums to
    sums, products to products, powers by squaring, with `one` for ^0."""
    op = tree[0]
    if op == "leaf":
        return leaf(tree[2])
    if op == "^":
        return binary_power(_evaluate(tree[2], leaf, one), tree[3], one)
    if op == "-":
        return -_evaluate(tree[2], leaf, one)
    values = [_evaluate(t, leaf, one) for t in tree[2]]
    out = values[0]
    for v in values[1:]:
        out = out + v if op == "+" else out * v
    return out


class _Parser:
    """Recursive descent over: expr := ['-'] term (('+'|'-') term)*;
    term := factor ('*' factor)*; factor := atom ('^' nat)*;
    atom := rational | 'q' | 'X[' label ']' | '(' expr ')'.
    Builds a parse tree and does no polynomial arithmetic; the word cap
    is checked on the structural degree of every product and power."""

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

    def parse(self) -> tuple:
        out = self.expr()
        if self.peek():
            self.error(f"unexpected {self.peek()!r}")
        return out

    def expr(self) -> tuple:
        negate = False
        if self.peek() == "-":
            self.pos += 1
            negate = True
        out = self.term()
        summands = [("-", out[1], out) if negate else out]
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            nxt = self.term()
            summands.append(("-", nxt[1], nxt) if op == "-" else nxt)
        if len(summands) == 1:
            return summands[0]
        return ("+", max(t[1] for t in summands), tuple(summands))

    def term(self) -> tuple:
        factors = [self.factor()]
        degree = factors[0][1]
        while self.peek() == "*":
            self.pos += 1
            factors.append(self.factor())
            degree += factors[-1][1]
            _check_cap(degree, self.cap)
        return factors[0] if len(factors) == 1 else ("*", degree, tuple(factors))

    def factor(self) -> tuple:
        out = self.atom()
        while self.peek() == "^":
            self.pos += 1
            k = self.nat()
            if out[0] == "^":  # (a^j)^k is a^(jk)
                out, k = out[2], out[3] * k
            _check_cap(out[1] * k, self.cap)
            out = ("^", out[1] * k, out, k)
        return out

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a natural number")
        return int(self.text[start:self.pos])

    def scalar(self, value) -> tuple:
        return ("leaf", 0, ncpoly_scalar(self.hopf, value, self.cap))

    def atom(self) -> tuple:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            out = self.expr()
            self.eat(")")
            return out
        if ch == "q":
            self.pos += 1
            return self.scalar(self.hopf.field.q)
        if ch.isdigit():
            num = self.nat()
            if self.peek() == "/":
                self.pos += 1
                den = self.nat()
                if den == 0:
                    self.error("zero denominator")
                return self.scalar(Fraction(num, den))
            return self.scalar(num)
        if ch == "X":
            self.pos += 1
            self.eat("[")
            end = self.text.find("]", self.pos)
            if end < 0:
                self.error("unterminated label")
            label = self.text[self.pos:end]
            self.pos = end + 1
            try:
                return ("leaf", 1, symbol(self.hopf, label, self.cap))
            except UnknownLabel:
                raise UnknownLabel(f"no basis element labelled {label!r}") from None
        self.error("expected a factor")


def parse_ncpoly(text: str, hopf: HopfAlgebra, cap: int = DEFAULT_WORD_CAP) -> NCPoly:
    """The polynomial a text denotes, kept as its parse tree: `mu` and
    `classify` evaluate the tree, and no word is expanded before `terms`
    is read."""
    return NCPoly._of(hopf, None, cap, _Parser(text, hopf, cap).parse())


def mu_algebra(hopf: HopfAlgebra, alpha: TwoCocycle) -> TwistedAlgebra | HopfAlgebra:
    """The target algebra of `mu`: the cocycle-twisted product on the same
    basis, collapsed to the plain algebra when the twist changes nothing.
    Built once per cocycle and kept on it, so the cocycle must be a
    TwoCocycle of this very instance.  `trivial_cocycle` records the plain
    algebra itself where counit(x1) x2 = x, so the twist is built only for
    other cocycles, or on tables where that fails."""
    require_cocycle_of(hopf, alpha)
    if alpha._mu_target is None:
        tw = twisted_algebra(hopf, alpha)
        alpha._mu_target = hopf if tw.mult == hopf.mult else tw
    return alpha._mu_target


def _letter_images(hopf: HopfAlgebra, algebra) -> list[TensorH]:
    """mu(X[b]) for every basis element b: the coordinate of the first
    coproduct leg tensored with the second leg."""
    ring = t_ring(hopf)
    return [
        TensorH(
            ring,
            algebra,
            collect(((ring.monomial(((j, 1),)), k), c) for j, k, c in hopf.comult[i]),
        )
        for i in range(hopf.dim)
    ]


def mu(hopf: HopfAlgebra, alpha: TwoCocycle, poly: NCPoly) -> TensorH:
    """Algebra-map extension of X over b mapping to the coordinate of the
    first coproduct leg tensored with the (twisted) second leg.

    A parsed polynomial is evaluated along its parse tree, sums to sums
    and products to products, and a word-built one word by word.
    Precondition: the target product is associative with unit
    `unit_index`, which is why the two evaluations agree.  It holds for
    every TwoCocycle built with check=True, for `trivial_cocycle` and for
    `coboundary_cocycle`; for a cocycle built with check=False that fails
    the cocycle condition the image depends on the evaluation order.

    The letter images and the zero and one tensors are built once per
    target algebra and kept on it."""
    if poly.hopf is not hopf:
        raise RangeError("polynomial belongs to a different algebra")
    algebra = mu_algebra(hopf, alpha)
    if algebra._mu_images is None:
        zero = TensorH.zero(t_ring(hopf), algebra)
        algebra._mu_images = (_letter_images(hopf, algebra), zero, zero.one())
    gen_images, zero, one = algebra._mu_images

    def words(p: NCPoly) -> TensorH:
        total = zero
        for word, coeff in p.terms.items():
            img = one
            for i in word:
                img = img * gen_images[i]
            total = total + img.scale(coeff)
        return total

    if poly._tree is None:
        return words(poly)
    return _evaluate(poly._tree, words, one)


def is_identity(hopf: HopfAlgebra, alpha: TwoCocycle, poly: NCPoly) -> bool:
    return mu(hopf, alpha, poly).is_zero


def classify(hopf: HopfAlgebra, alpha: TwoCocycle, poly: NCPoly) -> dict:
    """Flags for the mu image: identically zero, coinvariant (coordinate
    side only), central on the algebra side."""
    image = mu(hopf, alpha, poly)
    flags = {
        "identity": image.is_zero,
        "coinvariant": image.is_coinvariant(),
        "central": image.is_central(),
    }
    if hopf.family.get("kind") == "taft" and flags["coinvariant"] and not flags["central"]:
        # one-dimensional centre: coinvariant forces central
        raise WitnessFailure("coinvariant image escaped the centre")
    return flags


class LocalizedDenominator:
    """Multiset of family-whitelisted central elements allowed as
    denominators; kept as plain polynomials so every claim about the
    localized algebra is checked denominator-free.  Each entry stands for
    the word of `_denominator_poly`, and the denominator for their
    product."""

    __slots__ = ("hopf", "entries")

    def __init__(self, hopf: HopfAlgebra, entries: list[tuple]):
        kind = hopf.family.get("kind")
        for entry in entries:
            if not _denominator_allowed(hopf, kind, entry):
                raise UnsupportedFamily(f"denominator {entry!r} not whitelisted for {kind!r}")
        self.hopf = hopf
        self.entries = list(entries)


def _denominator_allowed(hopf: HopfAlgebra, kind: str, entry: tuple) -> bool:
    tag = entry[0]
    if kind == "taft":
        if tag == "unit":
            return len(entry) == 1
        if tag == "grouplike_power":
            return len(entry) == 2 and entry[1] in hopf.grouplikes
        return False
    if kind == "e":
        return entry in (("unit",), ("x_square",))
    if kind in ("group", "monomial"):
        if tag == "unit":
            return len(entry) == 1
        if tag == "pair_product":
            return len(entry) == 2 and entry[1] in hopf.grouplikes
        if tag == "triple_product":
            return len(entry) == 3 and entry[1] in hopf.grouplikes and entry[2] in hopf.grouplikes
        return False
    return False


def _denominator_poly(hopf: HopfAlgebra, entry: tuple, cap: int) -> NCPoly:
    tag = entry[0]
    if tag == "unit":
        return symbol(hopf, hopf.unit_index, cap)
    if tag == "x_square":
        return symbol(hopf, hopf.index_of("x"), cap) ** 2
    if tag == "grouplike_power":
        n = hopf.family["n"]
        return symbol(hopf, entry[1], cap) ** n
    if tag == "pair_product":
        g = entry[1]
        return symbol(hopf, g, cap) * symbol(hopf, hopf.grouplike_inverse(g), cap)
    if tag == "triple_product":
        g, h = entry[1], entry[2]
        gh = hopf.multiply_dicts({g: hopf.field.one}, {h: hopf.field.one})
        (k, _), = tuple(gh.items())
        return (
            symbol(hopf, g, cap)
            * symbol(hopf, h, cap)
            * symbol(hopf, hopf.grouplike_inverse(k), cap)
        )
    raise UnsupportedFamily(f"unknown denominator tag {tag!r}")


class HopfMap:
    """Linear map between two instances given by basis images, verified to
    respect product, coproduct, counit and unit."""

    __slots__ = ("source", "target", "images")

    def __init__(
        self,
        source: HopfAlgebra,
        target: HopfAlgebra,
        images: list[dict[int, Scalar]],
    ):
        if len(images) != source.dim:
            raise NotHopfMap("one image per source basis element required")
        self.source = source
        self.target = target
        self.images = [
            {i: c for i, c in img.items() if not c.is_zero} for img in images
        ]
        self._verify()

    def apply(self, vec: dict[int, Scalar]) -> dict[int, Scalar]:
        return collect((j, c * cj) for i, c in vec.items() for j, cj in self.images[i].items())

    def _verify(self):
        src, tgt = self.source, self.target
        if src.field is not tgt.field:
            raise NotHopfMap("source and target use different scalar fields")
        unit_img = self.images[src.unit_index]
        if unit_img != {tgt.unit_index: tgt.field.one}:
            raise NotHopfMap("unit is not preserved")
        dim = src.dim
        for a in range(dim):
            for b in range(dim):
                left = self.apply(src.multiply_dicts({a: src.field.one}, {b: src.field.one}))
                right = tgt.multiply_dicts(self.images[a], self.images[b])
                if left != right:
                    raise NotHopfMap(f"product broken at ({src.labels[a]}, {src.labels[b]})")
        for a in range(dim):
            mapped = collect(
                ((j2, k2), c * cj * ck)
                for j, k, c in src.comult[a]
                for j2, cj in self.images[j].items()
                for k2, ck in self.images[k].items()
            )
            if mapped != tgt.comult_dict(self.images[a]):
                raise NotHopfMap(f"coproduct broken at {src.labels[a]}")
            eps_left = src.counit[a]
            eps_right = src.field.zero
            for i2, ci in self.images[a].items():
                eps_right = eps_right + ci * tgt.counit[i2]
            if eps_left != eps_right:
                raise NotHopfMap(f"counit broken at {src.labels[a]}")


def push_forward(phi: HopfMap, poly: NCPoly) -> NCPoly:
    """Relabel symbols through the map, expanding words multilinearly."""
    if poly.hopf is not phi.source:
        raise RangeError("polynomial not over the map's source")
    pairs: list[tuple[Word, Scalar]] = []
    for word, coeff in poly.terms.items():
        expansions: list[tuple[Word, Scalar]] = [((), coeff)]
        for i in word:
            expansions = [
                (w + (j,), c * cj)
                for w, c in expansions
                for j, cj in phi.images[i].items()
            ]
        pairs.extend(expansions)
    return NCPoly._of(phi.target, collect(pairs), poly.cap)


def monomial_group_maps(hopf: HopfAlgebra):
    """For the level-graded family over a group: the inclusion of the group
    algebra as level zero and the projection killing positive levels;
    projection after inclusion is the identity."""
    if hopf.family.get("kind") != "monomial":
        raise UnsupportedFamily("group maps exist for the monomial family only")
    group = hopf.family["group"]
    kg = group_algebra(group, hopf.field)
    one = hopf.field.one
    iota = HopfMap(kg, hopf, [{g: one} for g in range(group.order)])
    proj_images: list[dict[int, Scalar]] = []
    for i in range(hopf.dim):
        g, lvl = i % group.order, i // group.order
        proj_images.append({g: one} if lvl == 0 else {})
    pi = HopfMap(hopf, kg, proj_images)
    return iota, pi
