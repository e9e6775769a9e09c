"""Pointed Hopf algebras as exact sparse structure-constant tables.

Four constructors are provided: the quantum-plane family on a primitive
n-th root of unity, the exterior-flavoured family on a single group-like
involution, the monomial family over a finite group with a central
element and a compatible character, and plain group algebras.  Antipodes
are never taken on faith: they are solved for by a triangular
convolution recursion that only needs group-likes to come first in the
basis order, and every axiom can be re-checked from the tables.
"""

from __future__ import annotations

from itertools import combinations

from .arith import FieldSpec, Scalar, make_field, q_binomial, scalar_from_strings, scalar_to_strings
from .errors import NotPointedOrder, RangeError, UnknownLabel, UnsupportedFamily
from .groups import (
    Character,
    FiniteAbelianGroup,
    FiniteGroup,
    abelianization,
    validate_monomial_datum,
)
from .linalg import nullspace
from .report import Report

Terms = tuple[tuple[int, Scalar], ...]


def _canonical_terms(terms) -> Terms:
    acc: dict[int, Scalar] = {}
    for k, c in terms:
        cur = acc.get(k)
        acc[k] = c if cur is None else cur + c
    return tuple(sorted((k, c) for k, c in acc.items() if not c.is_zero))


class HopfAlgebra:
    """Finite dimensional Hopf algebra with an explicit basis.

    mult maps a pair of basis indices to the terms of their product;
    missing pairs multiply to zero.  comult maps an index to its tensor
    expansion.  Group-like elements must occupy an initial segment of
    the basis so the antipode can be solved for triangularly.

    After construction only the lazy fields are written, on first use:
    the coordinate ring (`tring.t_ring`), the base-algebra presentation
    (`generic_base.gamma_generators`) and the reduced centre span.
    """

    __slots__ = (
        "field",
        "labels",
        "mult",
        "comult",
        "counit",
        "unit_index",
        "grouplikes",
        "antipode",
        "family",
        "name",
        "_index",
        "_gl_inv",
        "_ring",
        "_presentation",
        "_center",
    )

    def __init__(
        self,
        field: FieldSpec,
        labels: list[str],
        mult: dict[tuple[int, int], Terms],
        comult: list[tuple[tuple[int, int, Scalar], ...]],
        counit: list[Scalar],
        unit_index: int,
        family: dict,
        name: str = "",
        antipode: list[Terms] | None = None,
    ):
        dim = len(labels)
        if len(set(labels)) != dim:
            raise ValueError("basis labels must be distinct")
        if len(comult) != dim or len(counit) != dim:
            raise ValueError("comult and counit must cover the basis")
        self.field = field
        self.labels = list(labels)
        self.mult = {
            key: _canonical_terms(terms)
            for key, terms in mult.items()
            if _canonical_terms(terms)
        }
        self.comult = [tuple(t) for t in comult]
        self.counit = list(counit)
        self.unit_index = unit_index
        self.family = dict(family)
        self.name = name
        self._index = {lbl: i for i, lbl in enumerate(labels)}
        self.grouplikes = [
            i
            for i in range(dim)
            if self.comult[i] == ((i, i, field.one),) and self.counit[i] == field.one
        ]
        self._gl_inv = self._grouplike_inverses()
        self.antipode = antipode if antipode is not None else self._solve_antipode()
        self._ring = None
        self._presentation = None
        self._center = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError as exc:
            raise UnknownLabel(f"no basis element labelled {label!r}") from exc

    def is_grouplike(self, i: int) -> bool:
        return i in self._gl_inv

    def grouplike_inverse(self, i: int) -> int:
        return self._gl_inv[i]

    def _grouplike_inverses(self) -> dict[int, int]:
        inv = {}
        gl = set(self.grouplikes)
        for g in self.grouplikes:
            for h in self.grouplikes:
                if self.mult.get((g, h)) == ((self.unit_index, self.field.one),):
                    if self.mult.get((h, g)) == ((self.unit_index, self.field.one),):
                        inv[g] = h
                        break
            if g not in inv:
                raise NotPointedOrder(
                    f"group-like {self.labels[g]} has no group-like inverse"
                )
        if self.unit_index not in gl:
            raise NotPointedOrder("unit is not group-like")
        return inv

    def _solve_antipode(self) -> list[Terms]:
        """Solve sum S(b_(1)) b_(2) = counit(b) 1 from the bottom up."""
        one = self.field.one
        out: list[Terms | None] = [None] * self.dim
        for g in self.grouplikes:
            out[g] = ((self._gl_inv[g], one),)
        for i in range(self.dim):
            if out[i] is not None:
                continue
            head = None
            rest = []
            for j, k, c in self.comult[i]:
                if j == i:
                    if head is not None:
                        raise NotPointedOrder(
                            f"comult of {self.labels[i]} has two diagonal terms"
                        )
                    head = (k, c)
                else:
                    rest.append((j, k, c))
            if head is None:
                raise NotPointedOrder(
                    f"comult of {self.labels[i]} has no diagonal term"
                )
            k0, c0 = head
            if k0 not in self._gl_inv:
                raise NotPointedOrder(
                    f"diagonal comult term of {self.labels[i]} is not group-like"
                )
            acc: dict[int, Scalar] = {}
            if not self.counit[i].is_zero:
                acc[self.unit_index] = self.counit[i]
            for j, k, c in rest:
                if out[j] is None:
                    raise NotPointedOrder(
                        f"comult of {self.labels[i]} is not triangular"
                    )
                for m, cm in out[j]:
                    for p, cp in self.mult.get((m, k), ()):
                        cur = acc.get(p, None)
                        v = -(c * cm * cp)
                        acc[p] = v if cur is None else cur + v
            kinv = self._gl_inv[k0]
            scaled: dict[int, Scalar] = {}
            inv_c0 = one / c0
            for p, cp in acc.items():
                for r, cr in self.mult.get((p, kinv), ()):
                    cur = scaled.get(r)
                    v = cp * cr * inv_c0
                    scaled[r] = v if cur is None else cur + v
            out[i] = tuple(sorted((k, c) for k, c in scaled.items() if not c.is_zero))
        return out  # type: ignore[return-value]

    # -- element arithmetic ------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {self.unit_index: self.field.one})

    def basis_element(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self, {i: self.field.one})

    def by_label(self, label: str) -> "AlgebraElement":
        return self.basis_element(self.index_of(label))

    def multiply_dicts(self, a: dict[int, Scalar], b: dict[int, Scalar]) -> dict[int, Scalar]:
        out: dict[int, Scalar] = {}
        for i, ci in a.items():
            for j, cj in b.items():
                terms = self.mult.get((i, j))
                if not terms:
                    continue
                cij = ci * cj
                for k, c in terms:
                    cur = out.get(k)
                    v = cij * c
                    out[k] = v if cur is None else cur + v
        return {k: c for k, c in out.items() if not c.is_zero}

    def comult_dict(self, a: dict[int, Scalar]) -> dict[tuple[int, int], Scalar]:
        out: dict[tuple[int, int], Scalar] = {}
        for i, ci in a.items():
            for j, k, c in self.comult[i]:
                key = (j, k)
                cur = out.get(key)
                v = ci * c
                out[key] = v if cur is None else cur + v
        return {k: c for k, c in out.items() if not c.is_zero}

    def comult_power(self, i: int, legs: int) -> dict[tuple[int, ...], Scalar]:
        """Iterated comultiplication of a basis element into the given
        number of tensor legs."""
        if legs < 1:
            raise RangeError("need at least one tensor leg")
        cur: dict[tuple[int, ...], Scalar] = {(i,): self.field.one}
        for _ in range(legs - 1):
            nxt: dict[tuple[int, ...], Scalar] = {}
            for key, c in cur.items():
                for j, k, cc in self.comult[key[0]]:
                    nkey = (j, k) + key[1:]
                    cur2 = nxt.get(nkey)
                    v = c * cc
                    nxt[nkey] = v if cur2 is None else cur2 + v
            cur = nxt
        return {k: c for k, c in cur.items() if not c.is_zero}

    def counit_dict(self, a: dict[int, Scalar]) -> Scalar:
        out = self.field.zero
        for i, ci in a.items():
            out = out + ci * self.counit[i]
        return out

    def antipode_dict(self, a: dict[int, Scalar]) -> dict[int, Scalar]:
        out: dict[int, Scalar] = {}
        for i, ci in a.items():
            for k, c in self.antipode[i]:
                cur = out.get(k)
                v = ci * c
                out[k] = v if cur is None else cur + v
        return {k: c for k, c in out.items() if not c.is_zero}

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        def ser_terms(terms):
            return [[k, scalar_to_strings(c)] for k, c in terms]

        family = {"kind": self.family["kind"]}
        if "n" in self.family:
            family["n"] = self.family["n"]
        if "group" in self.family:
            family["group"] = self.family["group"].to_json()
        if "x" in self.family:
            family["x"] = self.family["x"]
        if "chi" in self.family:
            family["chi"] = [scalar_to_strings(v) for v in self.family["chi"].values]
        return {
            "schema": 1,
            "name": self.name,
            "field_n": self.field.n,
            "labels": self.labels,
            "unit_index": self.unit_index,
            "family": family,
            "mult": [
                [i, j, ser_terms(terms)] for (i, j), terms in sorted(self.mult.items())
            ],
            "comult": [
                [[j, k, scalar_to_strings(c)] for j, k, c in row] for row in self.comult
            ],
            "counit": [scalar_to_strings(c) for c in self.counit],
            "antipode": [ser_terms(row) for row in self.antipode],
        }

    @classmethod
    def from_json(cls, data: dict) -> "HopfAlgebra":
        field = make_field(data["field_n"])

        def de_terms(rows):
            return tuple((k, scalar_from_strings(field, cs)) for k, cs in rows)

        fam = dict(data["family"])
        if "group" in fam:
            fam["group"] = FiniteGroup.from_json(fam["group"])
        if "chi" in fam:
            fam["chi"] = Character(
                fam["group"], field, [scalar_from_strings(field, v) for v in fam["chi"]]
            )
        return cls(
            field,
            list(data["labels"]),
            {(i, j): de_terms(rows) for i, j, rows in data["mult"]},
            [
                tuple((j, k, scalar_from_strings(field, cs)) for j, k, cs in row)
                for row in data["comult"]
            ],
            [scalar_from_strings(field, cs) for cs in data["counit"]],
            data["unit_index"],
            fam,
            name=data.get("name", ""),
            antipode=[de_terms(rows) for rows in data["antipode"]],
        )

    def __repr__(self) -> str:
        return f"HopfAlgebra({self.name or self.family.get('kind')}, dim={self.dim})"


class AlgebraElement:
    """A finite linear combination of basis elements of one algebra."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: HopfAlgebra, coeffs: dict[int, Scalar]):
        self.algebra = algebra
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero}

    def _check(self, other: "AlgebraElement") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("elements live in different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            cur = out.get(k)
            out[k] = c if cur is None else cur + c
        return AlgebraElement(self.algebra, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, {k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(
                self.algebra, self.algebra.multiply_dicts(self.coeffs, other.coeffs)
            )
        scale = self.algebra.field.scalar(other) if not isinstance(other, Scalar) else other
        return AlgebraElement(
            self.algebra, {k: c * scale for k, c in self.coeffs.items()}
        )

    def __rmul__(self, other):
        # scalars commute with everything we keep them on
        return self.__mul__(other)

    def __pow__(self, e: int):
        if e < 0:
            raise RangeError("negative powers are not defined here")
        out = self.algebra.one()
        for _ in range(e):
            out = out * self
        return out

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.coeffs.items(), key=lambda t: t[0]))))

    def __repr__(self) -> str:
        from .arith import format_scalar

        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = format_scalar(self.coeffs[k])
            lbl = self.algebra.labels[k]
            parts.append(lbl if c == "1" else f"({c})*{lbl}")
        return " + ".join(parts)


# -- family constructors ----------------------------------------------------


def taft(n: int) -> HopfAlgebra:
    """Dimension n^2 family on generators x (group-like) and y with
    y x = q x y and y^n = 0."""
    if n < 2:
        raise RangeError("need n >= 2")
    field = make_field(n)
    q = field.q
    one = field.one

    def idx(a: int, lvl: int) -> int:
        return lvl * n + a

    def label(a: int, lvl: int) -> str:
        parts = []
        if a:
            parts.append("x" if a == 1 else f"x^{a}")
        if lvl:
            parts.append("y" if lvl == 1 else f"y^{lvl}")
        return " ".join(parts) or "1"

    labels = [label(i % n, i // n) for i in range(n * n)]
    mult: dict[tuple[int, int], Terms] = {}
    for a1 in range(n):
        for l1 in range(n):
            for a2 in range(n):
                for l2 in range(n):
                    if l1 + l2 >= n:
                        continue
                    coeff = q ** ((l1 * a2) % n)
                    mult[(idx(a1, l1), idx(a2, l2))] = (
                        (idx((a1 + a2) % n, l1 + l2), coeff),
                    )
    comult = []
    counit = []
    for i in range(n * n):
        a, lvl = i % n, i // n
        row = []
        for r in range(lvl + 1):
            row.append(
                (idx(a, r), idx((a + r) % n, lvl - r), q_binomial(lvl, r, field))
            )
        comult.append(tuple(row))
        counit.append(one if lvl == 0 else field.zero)
    return HopfAlgebra(
        field,
        labels,
        mult,
        comult,
        counit,
        unit_index=0,
        family={"kind": "taft", "n": n},
        name=f"taft({n})",
    )


def e_basis(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """The basis of e_algebra(n) in index order, as pairs (a, S) standing
    for x^a y_S: S runs over the subsets of 1..n by size, and within one
    size a = 0 comes before a = 1."""
    basis: list[tuple[int, tuple[int, ...]]] = [(0, ()), (1, ())]
    for size in range(1, n + 1):
        subsets = list(combinations(range(1, n + 1), size))
        basis.extend((0, s) for s in subsets)
        basis.extend((1, s) for s in subsets)
    return basis


def e_algebra(n: int) -> HopfAlgebra:
    """Dimension 2^(n+1) family over the rationals: one group-like
    involution x and n skew-primitive generators y_i with y_i^2 = 0."""
    if n < 1:
        raise RangeError("need n >= 1")
    field = make_field(2)
    one = field.one

    basis = e_basis(n)
    index = {be: i for i, be in enumerate(basis)}

    def label(a: int, s: tuple[int, ...]) -> str:
        parts = []
        if a:
            parts.append("x")
        if s:
            sub = str(s[0]) if len(s) == 1 else "{" + ",".join(map(str, s)) + "}"
            parts.append(f"y_{sub}")
        return " ".join(parts) or "1"

    labels = [label(a, s) for a, s in basis]

    def sign(k: int) -> Scalar:
        return one if k % 2 == 0 else -one

    mult: dict[tuple[int, int], Terms] = {}
    for i, (a1, s1) in enumerate(basis):
        set1 = set(s1)
        for j, (a2, s2) in enumerate(basis):
            if set1 & set(s2):
                continue
            crossings = sum(1 for u in s1 for v in s2 if u > v)
            coeff = sign(a2 * len(s1) + crossings)
            merged = tuple(sorted(s1 + s2))
            mult[(i, j)] = ((index[((a1 + a2) % 2, merged)], coeff),)
    comult = []
    counit = []
    for a, s in basis:
        row = []
        for size in range(len(s) + 1):
            for left in combinations(s, size):
                right = tuple(u for u in s if u not in left)
                swaps = sum(1 for u in left for v in right if u > v)
                row.append(
                    (
                        index[(a, left)],
                        index[((size + a) % 2, right)],
                        sign(swaps),
                    )
                )
        comult.append(tuple(row))
        counit.append(one if not s else field.zero)
    return HopfAlgebra(
        field,
        labels,
        mult,
        comult,
        counit,
        unit_index=0,
        family={"kind": "e", "n": n},
        name=f"e({n})",
    )


def monomial_type_i(
    group: FiniteGroup, x: int, chi: Character, field: FieldSpec
) -> HopfAlgebra:
    """Dimension n|G| family on a group with central x of order n and a
    character chi sending x to the chosen root of unity."""
    validate_monomial_datum(group, x, chi, field)
    n = field.n
    g_order = group.order

    def idx(g: int, lvl: int) -> int:
        return lvl * g_order + g

    labels = []
    for lvl in range(n):
        for g in range(g_order):
            glabel = group.labels[g]
            if lvl == 0:
                labels.append(glabel)
            else:
                labels.append(f"{glabel} y" if lvl == 1 else f"{glabel} y^{lvl}")
    mult: dict[tuple[int, int], Terms] = {}
    for g1 in range(g_order):
        for l1 in range(n):
            for g2 in range(g_order):
                for l2 in range(n):
                    if l1 + l2 >= n:
                        continue
                    coeff = chi(g2) ** l1
                    mult[(idx(g1, l1), idx(g2, l2))] = (
                        (idx(group.mul(g1, g2), l1 + l2), coeff),
                    )
    comult = []
    counit = []
    for i in range(n * g_order):
        g, lvl = i % g_order, i // g_order
        row = []
        for r in range(lvl + 1):
            target = g
            for _ in range(r):
                target = group.mul(target, x)
            row.append((idx(g, r), idx(target, lvl - r), q_binomial(lvl, r, field)))
        comult.append(tuple(row))
        counit.append(field.one if lvl == 0 else field.zero)
    return HopfAlgebra(
        field,
        labels,
        mult,
        comult,
        counit,
        unit_index=group.identity,
        family={"kind": "monomial", "n": n, "group": group, "x": x, "chi": chi},
        name=f"monomial({group.name},{n})",
    )


def group_algebra(group: FiniteGroup, field: FieldSpec | None = None) -> HopfAlgebra:
    """The group algebra with its usual Hopf structure; every basis
    element is group-like."""
    if field is None:
        field = make_field(1)
    one = field.one
    mult = {
        (i, j): ((group.mul(i, j), one),)
        for i in range(group.order)
        for j in range(group.order)
    }
    comult = [((i, i, one),) for i in range(group.order)]
    counit = [one] * group.order
    return HopfAlgebra(
        field,
        list(group.labels),
        mult,
        comult,
        counit,
        unit_index=group.identity,
        family={"kind": "group", "group": group},
        name=f"k[{group.name or group.order}]",
    )


# -- verification ------------------------------------------------------------


def verify_hopf_axioms(h: HopfAlgebra, include_grading: bool = True) -> Report:
    """Exhaustive exact check of every Hopf axiom on the tables."""
    rep = Report(title=h.name or "hopf")
    field = h.field
    dim = h.dim
    one_el = {h.unit_index: field.one}

    ok = True
    for i in range(dim):
        if not ok:
            break
        bi = {i: field.one}
        for j in range(dim):
            ij = h.multiply_dicts(bi, {j: field.one})
            for k in range(dim):
                left = h.multiply_dicts(ij, {k: field.one})
                right = h.multiply_dicts(
                    bi, h.multiply_dicts({j: field.one}, {k: field.one})
                )
                if left != right:
                    ok = False
                    break
            if not ok:
                break
    rep.add("associativity", ok)

    ok = all(
        h.multiply_dicts(one_el, {i: field.one}) == {i: field.one}
        and h.multiply_dicts({i: field.one}, one_el) == {i: field.one}
        for i in range(dim)
    )
    rep.add("unit", ok)

    ok = True
    for i in range(dim):
        left: dict[tuple[int, int, int], Scalar] = {}
        right: dict[tuple[int, int, int], Scalar] = {}
        for j, k, c in h.comult[i]:
            for a, b, cc in h.comult[j]:
                key = (a, b, k)
                cur = left.get(key)
                v = c * cc
                left[key] = v if cur is None else cur + v
            for a, b, cc in h.comult[k]:
                key = (j, a, b)
                cur = right.get(key)
                v = c * cc
                right[key] = v if cur is None else cur + v
        left = {k_: v for k_, v in left.items() if not v.is_zero}
        right = {k_: v for k_, v in right.items() if not v.is_zero}
        if left != right:
            ok = False
            break
    rep.add("coassociativity", ok)

    ok = True
    for i in range(dim):
        lhs: dict[int, Scalar] = {}
        rhs: dict[int, Scalar] = {}
        for j, k, c in h.comult[i]:
            v = c * h.counit[j]
            if not v.is_zero:
                cur = lhs.get(k)
                lhs[k] = v if cur is None else cur + v
            w = c * h.counit[k]
            if not w.is_zero:
                cur = rhs.get(j)
                rhs[j] = w if cur is None else cur + w
        lhs = {k_: v for k_, v in lhs.items() if not v.is_zero}
        rhs = {k_: v for k_, v in rhs.items() if not v.is_zero}
        if lhs != {i: field.one} or rhs != {i: field.one}:
            ok = False
            break
    rep.add("counit", ok)

    ok = True
    for i in range(dim):
        if not ok:
            break
        di = h.comult[i]
        for j in range(dim):
            prod = h.multiply_dicts({i: field.one}, {j: field.one})
            want: dict[tuple[int, int], Scalar] = {}
            for a, b, ca in di:
                for c_, d_, cb in h.comult[j]:
                    coeff = ca * cb
                    left_t = h.mult.get((a, c_))
                    right_t = h.mult.get((b, d_))
                    if not left_t or not right_t:
                        continue
                    for k1, c1 in left_t:
                        for k2, c2 in right_t:
                            key = (k1, k2)
                            cur = want.get(key)
                            v = coeff * c1 * c2
                            want[key] = v if cur is None else cur + v
            want = {k_: v for k_, v in want.items() if not v.is_zero}
            if want != h.comult_dict(prod):
                ok = False
                break
    rep.add("comult-multiplicative", ok)

    ok = all(
        h.counit_dict(h.multiply_dicts({i: field.one}, {j: field.one}))
        == h.counit[i] * h.counit[j]
        for i in range(dim)
        for j in range(dim)
    ) and h.counit[h.unit_index] == field.one
    rep.add("counit-multiplicative", ok)

    ok_left = True
    ok_right = True
    for i in range(dim):
        acc_l: dict[int, Scalar] = {}
        acc_r: dict[int, Scalar] = {}
        for j, k, c in h.comult[i]:
            sj = h.antipode_dict({j: c})
            for k2, c2 in h.multiply_dicts(sj, {k: field.one}).items():
                cur = acc_l.get(k2)
                acc_l[k2] = c2 if cur is None else cur + c2
            sk = h.antipode_dict({k: c})
            for k2, c2 in h.multiply_dicts({j: field.one}, sk).items():
                cur = acc_r.get(k2)
                acc_r[k2] = c2 if cur is None else cur + c2
        want = {h.unit_index: h.counit[i]} if not h.counit[i].is_zero else {}
        if {k_: v for k_, v in acc_l.items() if not v.is_zero} != want:
            ok_left = False
        if {k_: v for k_, v in acc_r.items() if not v.is_zero} != want:
            ok_right = False
    rep.add("antipode-left", ok_left)
    rep.add("antipode-right", ok_right)

    gl = set(h.grouplikes)
    ok = h.unit_index in gl and all(
        set(k for k, _ in h.mult.get((g, g2), ())) <= gl for g in gl for g2 in gl
    )
    rep.add("grouplikes-closed", ok)

    if include_grading and h.family.get("kind") in ("taft", "e", "monomial", "group"):
        ab, deg = hab_grading(h)
        ok = True
        for (i, j), terms in h.mult.items():
            want = ab.add(deg[i], deg[j])
            if any(deg[k] != want for k, _ in terms):
                ok = False
                break
        if ok:
            # the grading is the coaction along the group-like quotient:
            # projecting the right comult leg must give b_i tensor its class
            for i in range(dim):
                diag = [(j, k, c) for j, k, c in h.comult[i] if k in gl]
                if len(diag) != 1:
                    ok = False
                    break
                j, k, c = diag[0]
                if j != i or c != field.one or deg[k] != deg[i]:
                    ok = False
                    break
        rep.add("grading", ok)
    return rep


def structure_equal(a: HopfAlgebra, b: HopfAlgebra, check_labels: bool = True) -> bool:
    """Exact coefficient-level equality of the structure tables."""
    if a.dim != b.dim or a.field.n != b.field.n:
        return False
    if check_labels and a.labels != b.labels:
        return False
    return (
        a.unit_index == b.unit_index
        and a.mult == b.mult
        and a.comult == b.comult
        and a.counit == b.counit
        and a.antipode == b.antipode
    )


def center_table(dim: int, mult, field: FieldSpec) -> list[dict[int, Scalar]]:
    """Nullspace basis of [z, b_j] = 0 for an arbitrary mult table."""
    rows: dict[int, dict[int, Scalar]] = {}
    for j in range(dim):
        for i in range(dim):
            for k, c in mult.get((i, j), ()):
                row = rows.setdefault(j * dim + k, {})
                cur = row.get(i)
                row[i] = c if cur is None else cur + c
            for k, c in mult.get((j, i), ()):
                row = rows.setdefault(j * dim + k, {})
                cur = row.get(i)
                row[i] = -c if cur is None else cur - c
    cleaned = [
        {i: c for i, c in row.items() if not c.is_zero} for row in rows.values()
    ]
    return nullspace(dim, [r for r in cleaned if r], field)


def center(h: HopfAlgebra) -> list[AlgebraElement]:
    """Basis of the centre, by solving [z, b_j] = 0 for every j."""
    return [AlgebraElement(h, vec) for vec in center_table(h.dim, h.mult, h.field)]


def hab_grading(h: HopfAlgebra) -> tuple[FiniteAbelianGroup, list[tuple[int, ...]]]:
    """The universal group-like grading of the family: an abelian group
    and the degree of every basis element."""
    kind = h.family.get("kind")
    if kind == "taft":
        n = h.family["n"]
        ab = FiniteAbelianGroup((n,))
        deg = [((i % n + i // n) % n,) for i in range(h.dim)]
        return ab, deg
    if kind == "e":
        ab = FiniteAbelianGroup((2,))
        deg = []
        for i in range(h.dim):
            # recover (a, |I|) from the comult diagonal term
            diag_k = next(k for j, k, _ in h.comult[i] if j == i)
            if i in h._gl_inv:
                deg.append((0,) if i == h.unit_index else (1,))
            else:
                deg.append((1,) if diag_k == h.index_of("x") else (0,))
        return ab, deg
    if kind == "monomial":
        group = h.family["group"]
        x = h.family["x"]
        n = h.family["n"]
        ab, proj = abelianization(group)
        deg = []
        for i in range(h.dim):
            g, lvl = i % group.order, i // group.order
            d = proj[g]
            for _ in range(lvl):
                d = ab.add(d, proj[x])
            deg.append(d)
        return ab, deg
    if kind == "group":
        return abelianization(h.family["group"])
    raise UnsupportedFamily(f"no grading rule for family {kind!r}")
