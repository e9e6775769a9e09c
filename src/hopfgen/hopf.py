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
from math import lcm
from operator import not_

from .arith import (
    FieldSpec,
    Scalar,
    balanced,
    kronecker,
    make_field,
    norm1,
    q_binomial_rows,
    scalar_from_strings,
    scalar_to_strings,
)
from .errors import NotPointedOrder, RangeError, UnknownLabel, UnsupportedFamily
from .groups import (
    Character,
    FiniteAbelianGroup,
    FiniteGroup,
    abelianization,
    validate_monomial_datum,
)
from .linalg import collect, nullspace
from .report import Report

Terms = tuple[tuple[int, Scalar], ...]

# e(5): the largest instance that the tests, the scripts and the benchmark build
MAX_DIM = 64


def _check_dim(dim: int, shown: str) -> None:
    """Refuse an instance of more than MAX_DIM basis elements; the family
    constructors call this before they build a table.  `shown` names the
    instance and its dimension without printing a number that may be huge."""
    if dim > MAX_DIM:
        raise RangeError(f"{shown} exceeds the dimension cap {MAX_DIM}")


def _check_tables(data: dict, dim: int) -> None:
    """RangeError for a `to_json` payload whose tables do not fit a basis
    of dim elements, before any scalar is parsed: a mult key or index
    outside 0..dim-1, a repeated mult key, more than dim^2 mult entries,
    comult, counit or antipode row counts other than dim, a comult leg or
    antipode index out of range, or an out-of-range unit_index.  A mult or
    antipode row of more than dim terms, or a comult row of more than
    dim^2, is refused too: `to_json` writes each key at most once."""

    def index(i, what: str) -> None:
        if type(i) is not int or not 0 <= i < dim:
            raise RangeError(f"{what} {i!r} is not an index in 0..{dim - 1}")

    def terms(row, cap: int, what: str) -> None:
        if len(row) > cap:
            raise RangeError(f"{what} row of {len(row)} terms exceeds {cap}")

    mult = data["mult"]
    if len(mult) > dim * dim:
        raise RangeError(f"{len(mult)} mult entries exceed dim^2 = {dim * dim}")
    seen = set()
    for i, j, row in mult:
        index(i, "mult key")
        index(j, "mult key")
        if (i, j) in seen:
            raise RangeError(f"repeated mult key ({i}, {j})")
        seen.add((i, j))
        terms(row, dim, "mult")
        for k, _ in row:
            index(k, "mult target")
    for name in ("comult", "counit", "antipode"):
        if len(data[name]) != dim:
            raise RangeError(f"{name} has {len(data[name])} rows, need {dim}")
    for row in data["comult"]:
        terms(row, dim * dim, "comult")
        for j, k, _ in row:
            index(j, "comult leg")
            index(k, "comult leg")
    for row in data["antipode"]:
        terms(row, dim, "antipode")
        for k, _ in row:
            index(k, "antipode index")
    index(data["unit_index"], "unit_index")


def _canonical_terms(terms) -> Terms:
    if type(terms) is tuple and len(terms) == 1:
        # one term is already collected and sorted; only a zero is dropped
        ((k, c),) = terms
        return ((k, c),) if c else ()
    return tuple(sorted(collect(terms).items()))


class HopfAlgebra:
    """Finite dimensional Hopf algebra with an explicit basis.

    mult maps a pair of basis indices to the terms of their product;
    missing pairs multiply to zero.  comult maps an index to its tensor
    expansion.  Group-like elements must occupy an initial segment of
    the basis so the antipode can be solved for triangularly.

    After construction only the lazy fields are written, on first use:
    the coordinate ring (`tring.t_ring`), the base-algebra presentation
    (`generic_base.gamma_generators`), the reduced centre span, the
    letter images and zero and one tensors of `identities.mu` when this
    algebra is its target, and the packed product tables (`packed_table`)
    that `mu`, the axiom battery and the twists read.
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
        "_mu_images",
        "_packed",
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
            key: canon for key, terms in mult.items() if (canon := _canonical_terms(terms))
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
        self._mu_images = None
        self._packed = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError as exc:
            raise UnknownLabel(f"no basis element labelled {label!r}") from exc

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
            if any(out[j] is None for j, _, _ in rest):
                raise NotPointedOrder(
                    f"comult of {self.labels[i]} is not triangular"
                )
            acc = collect(
                (
                    (p, -(c * cm * cp))
                    for j, k, c in rest
                    for m, cm in out[j]
                    for p, cp in self.mult.get((m, k), ())
                ),
                {self.unit_index: self.counit[i]},
            )
            kinv = self._gl_inv[k0]
            inv_c0 = one / c0
            out[i] = _canonical_terms(
                (r, cp * cr * inv_c0)
                for p, cp in acc.items()
                for r, cr in self.mult.get((p, kinv), ())
            )
        return out  # type: ignore[return-value]

    # -- element arithmetic ------------------------------------------------

    def multiply_dicts(self, a: dict[int, Scalar], b: dict[int, Scalar]) -> dict[int, Scalar]:
        mult = self.mult
        return collect(
            (k, ci * cj * c)
            for i, ci in a.items()
            for j, cj in b.items()
            for k, c in mult.get((i, j), ())
        )

    def comult_dict(self, a: dict[int, Scalar]) -> dict[tuple[int, int], Scalar]:
        return collect(
            ((j, k), ci * c) for i, ci in a.items() for j, k, c in self.comult[i]
        )

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
        """Rebuild an instance from `to_json` output.  The payload comes from
        outside, so its size is checked before any field or table is built:
        at most MAX_DIM labels, a root-of-unity order in 1..MAX_DIM (every
        family instance within the dimension cap needs at most 8), and
        tables whose shape and indices fit the basis (`_check_tables`)."""
        labels = list(data["labels"])
        _check_dim(len(labels), f"a payload of {len(labels)} labels")
        n = data["field_n"]
        if type(n) is not int or not 1 <= n <= MAX_DIM:
            raise RangeError(f"field_n is not an int in 1..{MAX_DIM}")
        _check_tables(data, len(labels))
        field = make_field(n)

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
            labels,
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


# -- family constructors ----------------------------------------------------


def _skew_tables(field: FieldSpec, order: int, mul, x: int, chi):
    """Structure tables on the basis g y^l, at index l * order + g, for the
    elements g of a group with product mul, a central x in it, a character
    chi with chi(x) = q, and levels l < n = field.n:

        (g y^l)(h y^m) = chi(h)^l gh y^(l+m), zero once l + m >= n,
        Delta(g y^l)   = sum_r binom(l, r)_q g y^r (x) g x^r y^(l-r),

    returned as (mult, comult, counit)."""
    n = field.n

    def idx(g: int, lvl: int) -> int:
        return lvl * order + g

    chi_powers = [[chi(g) ** lvl for g in range(order)] for lvl in range(n)]
    binomials = q_binomial_rows(n, field)
    mult: dict[tuple[int, int], Terms] = {}
    for g1 in range(order):
        for l1 in range(n):
            for g2 in range(order):
                for l2 in range(n - l1):
                    mult[(idx(g1, l1), idx(g2, l2))] = (
                        (idx(mul(g1, g2), l1 + l2), chi_powers[l1][g2]),
                    )
    comult = []
    counit = []
    for i in range(n * order):
        g, lvl = i % order, i // order
        row = []
        target = g
        for r in range(lvl + 1):
            row.append((idx(g, r), idx(target, lvl - r), binomials[lvl][r]))
            target = mul(target, x)
        comult.append(tuple(row))
        counit.append(field.one if lvl == 0 else field.zero)
    return mult, comult, counit


def taft(n: int) -> HopfAlgebra:
    """Dimension n^2 family on generators x (group-like) and y with
    y x = q x y and y^n = 0."""
    if n < 2:
        raise RangeError("need n >= 2")
    _check_dim(n * n, f"taft({n}) of dimension {n}^2")
    field = make_field(n)

    def label(a: int, lvl: int) -> str:
        parts = []
        if a:
            parts.append("x" if a == 1 else f"x^{a}")
        if lvl:
            parts.append("y" if lvl == 1 else f"y^{lvl}")
        return " ".join(parts) or "1"

    labels = [label(i % n, i // n) for i in range(n * n)]
    # the monomial tables of the cyclic group Z/n with x = 1 and chi(a) = q^a
    mult, comult, counit = _skew_tables(
        field, n, lambda a, b: (a + b) % n, 1, field.q_power
    )
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
    # 2^(n+1) > MAX_DIM as soon as n + 1 reaches the bit length of the cap
    _check_dim(2 ** min(n + 1, MAX_DIM.bit_length()), f"e({n}) of dimension 2^{n + 1}")
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
    n = field.n
    _check_dim(n * group.order, f"monomial({group.name},{n}) of dimension {n}*{group.order}")
    validate_monomial_datum(group, x, chi, field)
    labels = []
    for lvl in range(n):
        for g in range(group.order):
            glabel = group.labels[g]
            if lvl == 0:
                labels.append(glabel)
            else:
                labels.append(f"{glabel} y" if lvl == 1 else f"{glabel} y^{lvl}")
    mult, comult, counit = _skew_tables(field, group.order, group.mul, x, chi)
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


def fails_at(hopf: HopfAlgebra, bad) -> str:
    """The details of a check: empty when it holds, else its first
    counterexample as a tuple of basis labels."""
    if bad is None:
        return ""
    return "fails at ({})".format(", ".join(hopf.labels[i] for i in bad))


def verify_hopf_axioms(h: HopfAlgebra) -> Report:
    """Exact check of every Hopf axiom on the tables.  A failing check
    names its first counterexample in loop order: a basis element, pair or
    triple.

    The pair checks first try only the right-hand factors in
    `generating_middles` (Light's test, see `associative`).  Once
    associativity holds, the y with Delta(xy) = Delta(x)Delta(y) for all x
    form a subalgebra, and so do the y with eps(xy) = eps(x)eps(y) for all
    x; so comult- and counit-multiplicativity hold on every pair once they
    hold on the pairs (x, m) for m in the certified set.  The unit stays in
    that set: neither Delta(1) = 1 (x) 1 nor eps(1) = 1 follows from the
    others.  Any failure, or a failed associativity, sends the check through
    all dim^2 pairs, so the pair it names is the first one in loop order.

    Both sides of each identity are summed into one integer difference on
    the tables of `integer_forms`, built once per call; over a field of
    degree 2 or more a nonzero difference is decoded before it counts."""
    rep = Report(title=h.name or "hopf")
    field = h.field
    dim = h.dim
    u = h.unit_index
    elements = [(i,) for i in range(dim)]
    forms = integer_forms(h, h.antipode)
    _, zero, (rows, dm, _), (legs, dc, _), (eps, de, _), (anti, ds, _) = forms

    def first(keys, fails):
        return next((key for key in keys if fails(*key)), None)

    def add(name: str, bad) -> None:
        rep.add(name, bad is None, fails_at(h, bad))

    def differs(diff: dict) -> bool:
        return not vanishes(diff, zero)

    unital, bad = check_product(dim, h.mult, u, field.one, _associator(dim, rows, zero))
    add("associativity", bad)
    rep.add("unit", unital)
    middles = generating_middles(dim, h.mult, u) if bad is None else list(range(dim))

    def coassociativity_fails(i):
        diff: dict[int, int] = {}
        get = diff.get
        for j, k, c in legs[i]:
            for a, b, cc in legs[j]:
                key = (a * dim + b) * dim + k
                diff[key] = get(key, 0) + c * cc
            for a, b, cc in legs[k]:
                key = (j * dim + a) * dim + b
                diff[key] = get(key, 0) - c * cc
        return differs(diff)

    add("coassociativity", first(elements, coassociativity_fails))

    one = dc * de

    def counit_fails(i):
        lhs, rhs = {i: -one}, {i: -one}
        for j, k, c in legs[i]:
            lhs[k] = lhs.get(k, 0) + c * eps[j]
            rhs[j] = rhs.get(j, 0) + c * eps[k]
        return differs(lhs) or differs(rhs)

    add("counit", first(elements, counit_fails))

    # Delta(b_i b_j) is over dm dc, the product of the coproducts over dm^2 dc^2
    scale = dm * dc

    def comult_multiplicative_fails(i, j):
        diff: dict[int, int] = {}
        get = diff.get
        for a, b, ca in legs[i]:
            row_a, row_b = rows[a], rows[b]
            for c_, d_, cb in legs[j]:
                right = row_b[d_]
                if right:
                    f = ca * cb
                    for k1, c1 in row_a[c_]:
                        g, base = f * c1, k1 * dim
                        for k2, c2 in right:
                            key = base + k2
                            diff[key] = get(key, 0) + g * c2
        for p, cp in rows[i][j]:
            f = cp * scale
            for k1, k2, c in legs[p]:
                key = k1 * dim + k2
                diff[key] = get(key, 0) - f * c
        return differs(diff)

    add("comult-multiplicative", _first_failing_pair(dim, middles, comult_multiplicative_fails))

    bad = _first_failing_pair(
        dim,
        middles,
        lambda i, j: not zero(sum(c * eps[k] for k, c in rows[i][j]) * de - eps[i] * eps[j] * dm),
    )
    if bad is None and h.counit[u] != field.one:
        bad = (u,)
    add("counit-multiplicative", bad)

    # the sums of S(x1) x2 and x1 S(x2) are over dc ds dm, the counit over de
    unit_scale = dc * ds * dm

    def add_antipode(name: str, left: bool) -> None:
        def fails(i):
            diff = {u: -eps[i] * unit_scale}
            get = diff.get
            for j, k, c in legs[i]:
                for m, s in anti[j if left else k]:
                    f = c * s * de
                    for p, cp in rows[m][k] if left else rows[j][m]:
                        diff[p] = get(p, 0) + f * cp
            return differs(diff)

        add(name, first(elements, fails))

    add_antipode("antipode-left", True)
    add_antipode("antipode-right", False)

    gl = set(h.grouplikes)
    ok = h.unit_index in gl and all(
        set(k for k, _ in h.mult.get((g, g2), ())) <= gl for g in gl for g2 in gl
    )
    rep.add("grouplikes-closed", ok)

    if h.family.get("kind") in ("taft", "e", "monomial", "group"):
        ab, deg = hab_grading(h)
        bad = first(
            h.mult,
            lambda i, j: any(deg[k] != ab.add(deg[i], deg[j]) for k, _ in h.mult[(i, j)]),
        )

        def coaction_fails(i):
            # the grading is the coaction along the group-like quotient:
            # projecting the right comult leg must give b_i tensor its class
            diag = [(j, k, c) for j, k, c in h.comult[i] if k in gl]
            if len(diag) != 1:
                return True
            j, k, c = diag[0]
            return j != i or c != field.one or deg[k] != deg[i]

        if bad is None:
            bad = first(elements, coaction_fails)
        add("grading", bad)
    return rep


def structure_equal(a: HopfAlgebra, b: HopfAlgebra) -> bool:
    """Exact coefficient-level equality of the labels and structure tables."""
    return (
        a.field.n == b.field.n
        and a.labels == b.labels
        and a.unit_index == b.unit_index
        and a.mult == b.mult
        and a.comult == b.comult
        and a.counit == b.counit
        and a.antipode == b.antipode
    )


def check_product(
    dim: int, mult, unit_index: int, one, cells
) -> tuple[bool, tuple[int, int, int] | None]:
    """Unit and associativity of a mult table of scalars on the basis:
    whether the unit b_u acts on every basis element, on both sides, as
    the value one (the field's one on H; vals(u, u) on the table that
    `cocycle._twist` twists by vals), and the lexicographically first
    triple (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), or None.  Each
    product is read from the table, not recomputed: cells(i, j) lists the
    k of the failing (k, m) cells of one sum per pair (i, j), on integer
    numerators (`associator`).

    Light's test (`associative`) decides associativity first; only if it
    fails is the whole basis scanned, so the triple named is the first one
    of all dim^3."""
    unital = acts_as_scalar(dim, mult, unit_index, one)
    if _light_test(dim, mult, unit_index, one, cells):
        return unital, None
    i, j, ks = next((i, j, ks) for i in range(dim) for j in range(dim) if (ks := cells(i, j)))
    return unital, (i, j, min(ks))


def acts_as_scalar(dim: int, mult, unit_index: int, one) -> bool:
    """Whether b_u b_i = b_i b_u = one b_i for every basis index i."""
    return all(
        mult.get((unit_index, i)) == ((i, one),) and mult.get((i, unit_index)) == ((i, one),)
        for i in range(dim)
    )


def associative(dim: int, mult, unit_index: int, one) -> bool:
    """Whether the mult table of scalars is associative, by Light's
    associativity test (Clifford and Preston, The Algebraic Theory of
    Semigroups I, section 1.2): the middle factor runs over
    `generating_middles` only, each associator summed on integer
    numerators (`associator`).  By the Teichmueller identity the y with
    (xy)z = x(yz) for all x, z form a subalgebra, so no triple fails once
    none fails with its middle factor in the certified set.  When the unit
    acts as the scalar one (`acts_as_scalar`), every associator with the
    unit in the middle is (one xz) - (one xz) = 0: no check is needed."""
    return _light_test(dim, mult, unit_index, one, associator(dim, mult, one.field))


def _light_test(dim: int, mult, unit_index: int, one, fails) -> bool:
    """Whether fails(i, m) is false for every basis index i and every
    middle factor m of Light's test (see `associative`)."""
    middles = generating_middles(
        dim, mult, unit_index, with_unit=not acts_as_scalar(dim, mult, unit_index, one)
    )
    return not any(fails(i, m) for m in middles for i in range(dim))


def associator(dim: int, mult, field: FieldSpec):
    """`_associator` on the packed form of a mult table of scalars."""
    _, zero, (rows, _, _) = fitted(
        field, lambda codec: pack_table(mult, dim, codec), lambda t: 2 * t[2] ** 2
    )
    return _associator(dim, rows, zero)


def _associator(dim: int, rows, zero):
    """cells(i, j): the k, one per failing b_m coordinate, at which
    (b_i b_j) b_k != b_i (b_j b_k), on a packed table (`pack_table`).  Both
    sides of every (k, m) cell are summed into one integer difference over
    the table's denominator squared, and zero(x) tells whether a nonzero
    difference stands for zero in the field (`_zero_test`); the slots of
    a difference must hold twice the square of the table's norm."""
    basis = range(dim)

    def cells(i: int, j: int) -> list[int]:
        row_i = rows[i]
        diff: dict[int, int] = {}
        get = diff.get
        for p, c in row_i[j]:
            row_p = rows[p]
            for k in basis:
                base = k * dim
                for m, cm in row_p[k]:
                    key = base + m
                    diff[key] = get(key, 0) + c * cm
        row_j = rows[j]
        for k in basis:
            base = k * dim
            for p, c in row_j[k]:
                for m, cm in row_i[p]:
                    key = base + m
                    diff[key] = get(key, 0) - c * cm
        return [key // dim for key, x in diff.items() if x and not zero(x)]

    return cells


# -- packed tables -------------------------------------------------------------


def pack_rows(rows, codec) -> tuple[list[tuple], int, int]:
    """Rows of entries that end in a Scalar coefficient, over one
    denominator: (packed, den, norm).  Each packed entry keeps the other
    fields of its entry and holds, in place of the coefficient, its
    numerator over den, encoded by `codec` (an integer when it is None);
    a zero coefficient is dropped.  norm is the largest sum of the slot
    norms of the numerators of one row (0 when codec is None)."""
    den = lcm(*{t[-1].den for row in rows for t in row})
    # a table holds few distinct coefficients: each is encoded once, keyed
    # by numerators and denominator; a zero (which a twisted table may
    # hold) encodes to 0.  The norm counts every coefficient, as on a codec
    # too narrow for it a nonzero one may encode to 0 too
    encoded: dict[tuple, tuple[int, int]] = {}
    packed = []
    norm = 0
    for row in rows:
        out = []
        total = 0
        for t in row:
            c = t[-1]
            key = (c.num, c.den)
            got = encoded.get(key)
            if got is None:
                got = encoded[key] = _table_entry(c, den, codec)
            if got[0]:
                out.append((*t[:-1], got[0]))
            total += got[1]
        packed.append(tuple(out))
        norm = max(norm, total)
    return packed, den, norm


def _table_entry(c: Scalar, den: int, codec) -> tuple[int, int]:
    """A coefficient's numerator over `den`, encoded by `codec` (an
    integer when it is None), and its slot norm."""
    vec = [x * (den // c.den) for x in c.num]
    if codec is None:
        return vec[0], 0
    vec = balanced(vec, codec.field.n)
    return codec.encode(vec), norm1(vec)


def pack_table(mult, dim: int, codec) -> tuple[list, int, int]:
    """A product table by `pack_rows`: (rows, den, norm), where rows[i][j]
    holds the (k, numerator) pairs of b_i b_j and norm is the largest slot
    norm of a product."""
    flat, den, norm = pack_rows(
        [mult.get((i, j), ()) for i in range(dim) for j in range(dim)], codec
    )
    return [flat[i * dim : (i + 1) * dim] for i in range(dim)], den, norm


def packed_table(algebra, codec) -> tuple[list, int, int]:
    """`pack_table` of a plain or twisted algebra's product, built once per
    codec width and kept on the algebra."""
    width = 0 if codec is None else codec.width
    if algebra._packed is None:
        algebra._packed = {}
    table = algebra._packed.get(width)
    if table is None:
        table = algebra._packed[width] = pack_table(algebra.mult, algebra.dim, codec)
    return table


def fitted(field: FieldSpec, pack, bound) -> tuple:
    """(codec, zero, packed): packed = pack(codec) on the narrowest codec
    of the field whose slots hold bound(packed), a bound on the slot norm
    of every sum to be formed (codec None over a field of degree one), and
    zero its `_zero_test`.  The slot norms that pack reports do not depend
    on the codec, so a table is re-encoded at most once, on a wider one."""
    if field.degree == 1:
        return None, not_, pack(None)
    codec = kronecker(field, 0)
    packed = pack(codec)
    wider = kronecker(field, bound(packed))
    if wider.width > codec.width:
        codec, packed = wider, pack(wider)
    return codec, _zero_test(codec), packed


def _zero_test(codec):
    """zero(x): whether x, a sum of products of residues of `codec`,
    stands for zero in the field; x is reduced modulo N and, unless that
    gives zero, decoded through `Kronecker.reduce`."""
    mod, reduce = codec.modulus, codec.reduce

    def zero(x: int) -> bool:
        x %= mod
        return not x or not any(reduce(x))

    return zero


def vanishes(sums: dict, zero) -> bool:
    """Whether every value of sums stands for zero, by zero (`fitted`)."""
    return all(not x or zero(x) for x in sums.values())


def integer_forms(h: HopfAlgebra, *tables) -> tuple:
    """The structure tables of h on integer numerators: (codec, zero,
    mult, comult, counit, *tables).  mult is `packed_table`'s (rows, den,
    norm), comult and each further table of rows (the antipode, for the
    axiom battery) are `pack_rows` of those rows, and counit is the list
    of the counit numerators with their denominator and norm.  The codec
    is the narrowest that holds every sum of products of at most four
    numerators and denominators of these tables: twice the fourth power of
    the largest norm or denominator.  Only the product table is kept on h."""

    def pack(codec):
        counit, de, ne = pack_rows([((c,),) for c in h.counit], codec)
        return [
            packed_table(h, codec),
            pack_rows(h.comult, codec),
            ([row[0][0] if row else 0 for row in counit], de, ne),
            *(pack_rows(rows, codec) for rows in tables),
        ]

    def bound(packed) -> int:
        return 2 * max(x for _, den, norm in packed for x in (den, norm)) ** 4

    codec, zero, forms = fitted(h.field, pack, bound)
    return (codec, zero, *forms)


def generating_middles(dim: int, mult, unit_index: int, with_unit: bool = True) -> list[int]:
    """The unit index (left out when with_unit is false) followed by basis
    indices chosen greedily in basis order, each the smallest index not yet
    reached, such that the list and the unit reach every basis element.

    The unit and the listed indices are reached, and so is b_k whenever a
    product b_m b_r or b_r b_m, of a listed b_m and a reached b_r, has b_k
    as its only term with a nonzero coefficient c outside the reached
    indices.  A product with several such terms is read again each time
    the reached set grows, until nothing changes.

    Let S be the right-hand factors y for which a pair identity holds with
    every left-hand factor.  If S is a subalgebra, and a submodule in which
    c y with c != 0 puts y (over a field, or over a domain when the algebra
    is free on the basis), then S holds every reached element once it holds
    the list and the unit: the identity needs checking only with y in the
    list.  Leave the unit out only where it lies in S without a check."""
    middles = [unit_index] if with_unit else []
    reached = {unit_index}
    todo = [(unit_index, unit_index)] if with_unit else []
    held: list[set[int]] = []  # the unreached indices of products not yet used

    def reach(k: int) -> None:
        reached.add(k)
        todo.extend(pair for m in middles for pair in ((m, k), (k, m)))

    def close() -> None:
        while todo:
            while todo:
                rest = {k for k, c in mult.get(todo.pop(), ()) if k not in reached and not c.is_zero}
                if len(rest) == 1:
                    reach(*rest)
                elif rest:
                    held.append(rest)
            kept = []
            for rest in held:
                rest -= reached
                if len(rest) == 1:
                    reach(*rest)
                elif rest:
                    kept.append(rest)
            held[:] = kept

    close()
    for s in range(dim):
        if s not in reached:
            middles.append(s)
            todo.extend(pair for r in reached for pair in ((s, r), (r, s)))
            reach(s)
            close()
    return middles


def _first_failing_pair(dim: int, middles: list[int], fails) -> tuple[int, int] | None:
    """The first basis pair (i, j) in loop order, i outer, with fails(i, j)
    true, or None when no pair (i, m) with m in middles fails.  The caller
    vouches that the j passing for every i form a subalgebra that middles
    generates; a failure among them sends the loop through the whole basis
    so that the pair returned is the first one of all dim^2."""

    def pairs(js):
        return ((i, j) for i in range(dim) for j in js)

    if not any(fails(i, j) for i, j in pairs(middles)):
        return None
    return next((i, j) for i, j in pairs(range(dim)) if fails(i, j))


def center_table(dim: int, mult, unit_index: int, field: FieldSpec) -> list[dict[int, Scalar]]:
    """Nullspace basis of [z, b_s] = 0 for b_s in `generating_middles`, the
    unit left out where it acts as the scalar one.

    Precondition: the table is associative, with unit b_u.  Then the
    centralizer of any z is a subalgebra, which holds every basis element
    once it holds the middles, so the solutions are the centre.  The
    reduced row echelon form of the constraints, from which the basis is
    read, depends only on their row space, the annihilator of the centre,
    so the basis is the one that [z, b_j] = 0 for every j gives.  The
    condition holds for the family constructors and their twists by
    checked, trivial and coboundary cocycles."""
    middles = generating_middles(
        dim, mult, unit_index, with_unit=not acts_as_scalar(dim, mult, unit_index, field.one)
    )

    def entries():
        # ((row, column), coeff): row j*dim + k is the b_k coordinate of [z, b_j]
        for j in middles:
            for i in range(dim):
                for k, c in mult.get((i, j), ()):
                    yield (j * dim + k, i), c
                for k, c in mult.get((j, i), ()):
                    yield (j * dim + k, i), -c

    return nullspace(dim, entries(), field)


def center(h: HopfAlgebra) -> list[dict[int, Scalar]]:
    """Basis of the centre, by solving [z, b_s] = 0 over a generating set."""
    return center_table(h.dim, h.mult, h.unit_index, h.field)


def hab_grading(h: HopfAlgebra) -> tuple[FiniteAbelianGroup, list[tuple[int, ...]]]:
    """The universal group-like grading of the family: an abelian group
    and the degree of every basis element."""
    kind = h.family.get("kind")
    if kind in ("taft", "monomial"):
        # g y^l at index l * |G| + g has degree [g] + l [x]; taft(n) is the
        # monomial algebra of Z/n with x = 1
        if kind == "taft":
            n = h.family["n"]
            ab, proj, x = FiniteAbelianGroup((n,)), [(a,) for a in range(n)], 1
        else:
            ab, proj = abelianization(h.family["group"])
            x = h.family["x"]
        order = len(proj)
        deg = [
            ab.combination(((proj[i % order], 1), (proj[x], i // order)))
            for i in range(h.dim)
        ]
        return ab, deg
    if kind == "e":
        ab = FiniteAbelianGroup((2,))
        deg = []
        for i in range(h.dim):
            # recover (a, |I|) from the comult diagonal term; a row without
            # one gets degree 0 here and fails the grading check of
            # `verify_hopf_axioms`
            diag_k = next((k for j, k, _ in h.comult[i] if j == i), None)
            if i in h._gl_inv:
                deg.append((0,) if i == h.unit_index else (1,))
            else:
                deg.append((1,) if diag_k == h.index_of("x") else (0,))
        return ab, deg
    if kind == "group":
        return abelianization(h.family["group"])
    raise UnsupportedFamily(f"no grading rule for family {kind!r}")
