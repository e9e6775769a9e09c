"""Finite groups as explicit multiplication tables.

Every group is a validated Cayley table over indices 0..n-1 with printable
labels.  Constructors cover cyclic, dihedral, symmetric and alternating
groups and direct products.  The abelianization is decomposed into
cyclic factors on the addition table of the cosets of the commutator
subgroup, so no integer matrix is reduced.
"""

from __future__ import annotations

import os
from itertools import permutations
from math import factorial, prod

from .arith import FieldSpec, Scalar
from .errors import DatumError, RangeError, UnknownLabel

DEFAULT_MAX_GROUP_ORDER = 48


def max_group_order() -> int:
    raw = os.environ.get("HOPFGEN_MAX_GROUP_ORDER")
    if raw is None:
        return DEFAULT_MAX_GROUP_ORDER
    try:
        value = int(raw)
    except ValueError as exc:
        raise RangeError(f"HOPFGEN_MAX_GROUP_ORDER={raw!r} is not an integer") from exc
    if value < 1:
        raise RangeError("HOPFGEN_MAX_GROUP_ORDER must be positive")
    return value


def _check_order(order: int, shown: str = "") -> None:
    """Refuse a group of more than max_group_order() elements; the
    constructors call this before they build a table.  `shown` names an
    order too long to print."""
    cap = max_group_order()
    if order > cap:
        raise RangeError(f"group order {shown or order} exceeds the cap {cap}")


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[i][j] is the index of the product of elements i and j.  The
    constructor checks closure, associativity, identity and inverses on
    the whole table, so an instance is a proof of group-ness.
    """

    __slots__ = (
        "labels", "table", "name", "identity", "_inv", "_order_cache", "_ab", "_y"
    )

    def __init__(self, labels: list[str], table: list[list[int]], name: str = ""):
        n = len(labels)
        if n == 0:
            raise RangeError("a group needs at least the identity element")
        _check_order(n)
        if len(set(labels)) != n:
            raise ValueError("labels must be distinct")
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("table must be n x n")
        for row in table:
            for v in row:
                if not (0 <= v < n):
                    raise ValueError(f"table entry {v} out of range")
        self.labels = list(labels)
        self.table = [list(row) for row in table]
        self.name = name
        identity = None
        for e in range(n):
            if all(table[e][j] == j and table[j][e] == j for j in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no identity element")
        self.identity = identity
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    if table[ab][c] != table[a][table[b][c]]:
                        raise ValueError(
                            f"associativity fails at ({a}, {b}, {c})"
                        )
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == identity and table[b][a] == identity:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValueError(f"element {a} has no inverse")
        self._inv = inv
        self._order_cache = {}
        self._ab = None
        self._y = None  # (HNF rows as tuples, index), filled by lattice.y_group

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        out = self.identity
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def element_order(self, a: int) -> int:
        cached = self._order_cache.get(a)
        if cached is not None:
            return cached
        k = 1
        cur = a
        while cur != self.identity:
            cur = self.mul(cur, a)
            k += 1
        self._order_cache[a] = k
        return k

    def is_central(self, x: int) -> bool:
        return all(self.mul(x, g) == self.mul(g, x) for g in range(self.order))

    def commutator(self, a: int, b: int) -> int:
        return self.mul(
            self.mul(a, b), self.mul(self.inv(a), self.inv(b))
        )

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError as exc:
            raise UnknownLabel(f"no element labelled {label!r}") from exc

    def to_json(self) -> dict:
        return {"schema": 1, "name": self.name, "labels": self.labels, "table": self.table}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteGroup":
        return cls(list(data["labels"]), [list(r) for r in data["table"]], data.get("name", ""))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or self.order})"


def subgroup_closure(group: FiniteGroup, gens: list[int]) -> set[int]:
    seen = {group.identity}
    frontier = [group.identity]
    gens = list(gens)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = group.mul(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def generating_set(group: FiniteGroup) -> list[int]:
    """A generating set picked greedily: each element is the smallest index
    outside the subgroup generated by those picked before it, until that
    subgroup is the whole group; [] for the trivial group."""
    gens: list[int] = []
    reached = {group.identity}
    while len(reached) < group.order:
        gens.append(next(g for g in range(group.order) if g not in reached))
        reached = subgroup_closure(group, gens)
    return gens


def commutator_subgroup(group: FiniteGroup) -> set[int]:
    gens = {
        group.commutator(a, b)
        for a in range(group.order)
        for b in range(group.order)
    }
    gens.discard(group.identity)
    return subgroup_closure(group, sorted(gens))


class FiniteAbelianGroup:
    """Z/d1 x ... x Z/dk in invariant-factor form (each d > 1, d_i | d_{i+1}).
    A read-only value: equal factors make equal groups."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...]):
        object.__setattr__(self, "invariant_factors", invariant_factors)

    def __setattr__(self, name, value):
        raise AttributeError(f"FiniteAbelianGroup is read-only: cannot set {name!r}")

    def __eq__(self, other):
        if type(other) is not FiniteAbelianGroup:
            return NotImplemented
        return self.invariant_factors == other.invariant_factors

    def __hash__(self):
        return hash(self.invariant_factors)

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    @property
    def identity(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.invariant_factors)

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            (x + y) % d for x, y, d in zip(a, b, self.invariant_factors)
        )

    def combination(self, terms) -> tuple[int, ...]:
        """The element sum(e * img) over (img, e) pairs: integer sums per
        cyclic factor, each reduced modulo its factor once."""
        sums = [0] * len(self.invariant_factors)
        for img, e in terms:
            if e:
                for t, x in enumerate(img):
                    sums[t] += x * e
        return tuple(s % d for s, d in zip(sums, self.invariant_factors))

    def elements(self) -> list[tuple[int, ...]]:
        out = [self.identity]
        for axis, d in enumerate(self.invariant_factors):
            out = [
                e[:axis] + (v,) + e[axis + 1:]
                for e in out
                for v in range(d)
            ]
        return out


def abelianization(
    group: FiniteGroup,
) -> tuple[FiniteAbelianGroup, list[tuple[int, ...]]]:
    """The largest abelian quotient together with the projection map.

    Returns (A, proj) where proj[g] is the image of element g in A.  A is
    decomposed on the addition table of the cosets of the commutator
    subgroup, once per group; every call returns its own proj list.

    The rule that fixes proj: repeatedly take the coset c of largest order
    k modulo the span of the generators chosen so far, the smallest coset
    index winning ties, and write k c = s with s in that span.  Each
    coordinate of s is divisible by k, because k divides every earlier
    order, so c - s/k has order exactly k and becomes the next generator.
    The invariant factors are the generator orders in reverse, and proj[g]
    is the coordinate vector of the coset of g in that same order.
    """
    if group._ab is None:
        group._ab = _abelianize(group)
    ab, proj = group._ab
    return ab, list(proj)


def _abelianize(group: FiniteGroup) -> tuple[FiniteAbelianGroup, list[tuple[int, ...]]]:
    comm = commutator_subgroup(group)
    reps = []
    coset_of = [None] * group.order
    for g in range(group.order):
        if coset_of[g] is not None:
            continue
        cid = len(reps)
        reps.append(g)
        for n_ in comm:
            coset_of[group.mul(g, n_)] = cid
    add = [[coset_of[group.mul(a, b)] for b in reps] for a in reps]
    zero = coset_of[group.identity]
    # the cosets in the span, each with its coordinates, one per generator
    coords = {zero: ()}
    orders = []
    while len(coords) < len(reps):
        best = None
        for c in range(len(reps)):
            k, kc = 1, c
            while kc not in coords:
                k, kc = k + 1, add[kc][c]
            if best is None or k > best[0]:
                best = (k, c, kc)
        # the next generator is c - s/k with s = kc in the span
        k, c, kc = best
        at = {v: x for x, v in coords.items()}
        shift = tuple(-(a // k) % d for a, d in zip(coords[kc], orders))
        gen = add[c][at[shift]]
        multiple, new = zero, {}
        for j in range(k):
            for x, v in coords.items():
                new[add[x][multiple]] = v + (j,)
            multiple = add[multiple][gen]
        coords = new
        orders.append(k)
    ab = FiniteAbelianGroup(tuple(reversed(orders)))
    return ab, [coords[coset_of[g]][::-1] for g in range(group.order)]


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise RangeError("cyclic group order must be positive")
    _check_order(n)
    labels = ["e"] + ["a" if k == 1 else f"a^{k}" for k in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(labels, table, name=f"Z/{n}")


def trivial() -> FiniteGroup:
    return cyclic(1)


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; elements r^i s^j."""
    if n < 1:
        raise RangeError("dihedral parameter must be positive")
    _check_order(2 * n)

    def idx(i: int, j: int) -> int:
        return i + n * j

    labels = []
    for j in range(2):
        for i in range(n):
            rot = "e" if i == 0 else ("r" if i == 1 else f"r^{i}")
            if j == 0:
                labels.append(rot)
            else:
                labels.append("s" if i == 0 else f"{rot} s")
    order = 2 * n
    table = [[0] * order for _ in range(order)]
    for j1 in range(2):
        for i1 in range(n):
            for j2 in range(2):
                for i2 in range(n):
                    if j1 == 0:
                        i = (i1 + i2) % n
                    else:
                        i = (i1 - i2) % n
                    table[idx(i1, j1)][idx(i2, j2)] = idx(i, j1 ^ j2)
    return FiniteGroup(labels, table, name=f"D{n}")


def _perm_label(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        cur = p[start]
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = p[cur]
        cycles.append(cyc)
    if not cycles:
        return "e"
    return "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in cycles)


def perm_sign(p: tuple[int, ...]) -> int:
    """The sign of a permutation of 0..n-1: -1 to the number of inversions."""
    s = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


def _perm_group(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    labels = [_perm_label(p) for p in perms]
    table = [
        [index[tuple(p[q[i]] for i in range(len(q)))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(labels, table, name=name)


def _check_permutation_order(n: int, even: bool) -> None:
    """The cap check for the n! permutations of n points, or for the n!/2
    even ones (n >= 2).  Past n = 20 the order is bounded below by 20!/2,
    more than 10^18, instead of being formed: n! has millions of digits
    for n = 10^5 and takes seconds to compute."""
    order = factorial(min(n, 20)) // (2 if even and n >= 2 else 1)
    _check_order(order, "" if n <= 20 else f"{n}!/2" if even else f"{n}!")


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise RangeError("symmetric group degree must be positive")
    _check_permutation_order(n, even=False)
    perms = list(permutations(range(n)))
    return _perm_group(perms, name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    if n < 1:
        raise RangeError("alternating group degree must be positive")
    _check_permutation_order(n, even=True)
    perms = [p for p in permutations(range(n)) if perm_sign(p) == 1]
    return _perm_group(perms, name=f"A{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    n = a.order * b.order
    labels = [
        f"({la},{lb})" for la in a.labels for lb in b.labels
    ]

    def idx(i: int, j: int) -> int:
        return i * b.order + j

    table = [[0] * n for _ in range(n)]
    for i1 in range(a.order):
        for j1 in range(b.order):
            for i2 in range(a.order):
                for j2 in range(b.order):
                    table[idx(i1, j1)][idx(i2, j2)] = idx(
                        a.mul(i1, i2), b.mul(j1, j2)
                    )
    return FiniteGroup(labels, table, name=f"{a.name}x{b.name}")


def group_from_spec(spec: str) -> FiniteGroup:
    """Parse a compact group description.

    Grammar: "trivial", "cyclic:N", "sym:N", "alt:N", "dihedral:N", or
    "product:item,item,..." where each item is one of the colon forms.
    """
    spec = spec.strip()
    if spec == "trivial":
        return trivial()
    head, _, rest = spec.partition(":")
    if head == "product":
        items = [s.strip() for s in rest.split(",") if s.strip()]
        if len(items) < 2:
            raise RangeError("product needs at least two factors")
        # each factor passed the cap as it was built; the product table,
        # the only large one, waits for the product of their orders
        groups = [group_from_spec(item) for item in items]
        _check_order(prod(g.order for g in groups))
        out = groups[0]
        for g in groups[1:]:
            out = direct_product(out, g)
        return out
    makers = {
        "cyclic": cyclic,
        "sym": symmetric,
        "alt": alternating,
        "dihedral": dihedral,
    }
    if head not in makers:
        raise RangeError(f"unknown group spec {spec!r}")
    try:
        n = int(rest)
    except ValueError as exc:
        raise RangeError(f"bad group parameter in {spec!r}") from exc
    return makers[head](n)


class Character:
    """A multiplicative map from a group into the scalar field."""

    __slots__ = ("group", "field", "values")

    def __init__(self, group: FiniteGroup, field: FieldSpec, values: list[Scalar]):
        if len(values) != group.order:
            raise DatumError("length", "need one value per group element")
        for g in range(group.order):
            for h in range(group.order):
                if values[g] * values[h] != values[group.mul(g, h)]:
                    raise DatumError(
                        "multiplicative",
                        f"value at ({group.labels[g]}, {group.labels[h]}) breaks multiplicativity",
                    )
        if values[group.identity] != field.one:
            raise DatumError("unit", "character must send the identity to 1")
        self.group = group
        self.field = field
        self.values = list(values)

    def __call__(self, g: int) -> Scalar:
        return self.values[g]


def character_from_exponents(
    group: FiniteGroup, field: FieldSpec, exponents: list[int]
) -> Character:
    values = [field.q_power(e) for e in exponents]
    return Character(group, field, values)


def validate_monomial_datum(
    group: FiniteGroup, x: int, chi: Character, field: FieldSpec
) -> None:
    """Check the compatibility conditions for a monomial family datum."""
    n = field.n
    if n < 2:
        raise DatumError("order", "the root-of-unity order must be at least 2")
    if chi.group is not group or chi.field is not field:
        raise DatumError("datum", "character does not live on this group and field")
    if not group.is_central(x):
        raise DatumError("x-central", f"{group.labels[x]} is not central")
    if group.element_order(x) != n:
        raise DatumError(
            "x-order",
            f"{group.labels[x]} has order {group.element_order(x)}, need {n}",
        )
    for g in range(group.order):
        if chi(g) ** n != field.one:
            raise DatumError(
                "chi-order", f"character value at {group.labels[g]} is not an n-th root of 1"
            )
    if chi(x) != field.q:
        raise DatumError("chi-at-x", "character must send x to the chosen root of unity")
