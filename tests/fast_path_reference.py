"""The general routines that the no-op fast paths now bypass, kept verbatim
(apart from their names and the imports) as the references of the
differential tests in `test_fast_paths.py`, `test_generic_base.py`,
`test_packed_monomials.py`, `test_lattice_once.py`, `test_decompose_plan.py`,
`test_one_elimination.py`, `test_generating_set.py`,
`test_repeated_work.py`, `test_sum_of_products.py`,
`test_packed_tables.py` and `test_roundtrip_targets.py`.

- `reference_check_product`: one `collect` per basis triple (i, j, k).
- `reference_generating_middles`: the greedy middle set that reached a
  basis element only through a single-term left product, which the
  fixpoint over products on both sides with one unreached term replaced.
- `reference_verify_hopf_axioms`: the axiom battery with every pair check
  over all dim^2 basis pairs, which the generating middle factors of
  `hopf.generating_middles` replaced; its associativity check is
  `reference_check_product`.
- `reference_mul` and `reference_pow`: every `TElement` product through
  `collect`, every power by repeated squaring from the ring's one.
- `reference_scaled`: every coefficient times the scalar, through `collect`.
- `ReferenceMonomial`: the coordinate monomial as a sorted tuple of
  (variable, exponent) pairs, merged on every product, which the packed
  integer key of `tring.TMonomial` replaced; with `reference_to_text`, the
  text of an element over such monomials.
- `reference_remultiply`: a decomposition witness multiplied back through
  ring arithmetic, one `TElement` power and product per generator.
- `reference_roundtrip_target`: one seeded round-trip target of criterion
  6, built from the ring's one by one `TElement` power and product per
  drawn generator, which one `power_product` of the generators' keys
  (`selftest._roundtrip_target`) replaced.
- `reference_degree_of`: the grading degree of an exponent vector folded
  through the group, one `reference_scale` (the former
  `FiniteAbelianGroup.scale`) and one `add` per entry, which
  `FiniteAbelianGroup.combination` replaced.
- `lattices_equal`: whether two generating sets span the same lattice,
  by comparing their `hnf_basis`; only the lattice tests use it.
- `reference_det_int` (Bareiss elimination), which the pivots of the
  Hermite form replaced.
- `reference_y_basis` and `reference_pair_and_triple_vectors`: the
  degree-zero lattice from e_e and all |G|^2 relation vectors, and every
  pair and triple vector, which the rows over a generating set replaced.
- `reference_hab_grading`: the taft and monomial branches of `hab_grading`,
  a closed form for taft and one `add` per level for monomial, which one
  `combination` per basis element replaced.
- `reference_taft_lift` and `reference_monomial_lift`: the two copies of
  the level lift of the niceness witnesses, which `_level_lift` replaced;
  each returns its lift and the letters, stride, W, Y and field it uses.
- `reference_generic_cocycle` and `reference_generic_cocycle_inverse`:
  one entry of the lifted cocycle and of its convolution inverse, read
  through two threefold coproducts from `reference_comult_power` (the former
  `HopfAlgebra.comult_power`), which `generic_base.lifted_cocycle`
  replaced; they call `reference_comult_power(hopf, ...)` where they called
  the method.

- `ReferenceTensorH`, `reference_tensor_mu` and `reference_center_table`:
  the tensor of the coordinate ring with a (twisted) algebra as a
  {(TMonomial, index): Scalar} map, every term product two `Scalar`
  products and a `TMonomial.mul` through `collect`, which the integer
  numerators of `tring.TensorH` replaced; `mu` over it; and the centre
  from [z, b_j] = 0 for every basis element b_j, which the generating set
  of `hopf.center_table` replaced.  `ReferenceTensorH.is_central` reduces
  the centre of the reference table on every call; `reference_tensor_mu`
  builds its letter images on every call.
- `reference_trivial_cocycle`: counit tensor counit through the
  constructor's full convolution check over every basis pair and its
  legs, which the factored check of `cocycle.trivial_cocycle` replaced;
  its `mu` target is left unset, so `mu_algebra` builds the twist.
- `reference_denominator_ncpoly` and `reference_denominator_image`: a
  witness denominator expanded into one word (the former
  `LocalizedDenominator.ncpoly`) and evaluated through `mu`, which one
  `mu` evaluation per distinct entry of the denominator, the images
  multiplied to their multiplicities, replaced.
- `reference_canonical_terms`: the terms of a table entry through
  `collect` and `sort`, which a one-term tuple now skips in
  `hopf._canonical_terms`.
- `reference_decompose_monomial` and `reference_hab_degree`: one
  monomial factored over the presentation through a dict of exponents and
  the `plain_owner` map, its degree folded through
  `FiniteAbelianGroup.combination`, and the witness certified by comparing
  `remultiply()` with the input as two `TElement`s, which the integer plan
  of `GammaPresentation.plan` replaced.  `reference_hab_degree` reads the
  grading from `hab_grading` where `TRing.hab_degree` read the ring's
  cached copy, and the reference decomposition calls it where it called
  the method.
- `reference_lifted_cocycle`, `reference_loop_cocycle_failure`,
  `reference_loop_convolution_failure` and `reference_verify_t_inverse`:
  the sums of the lifted cocycle, of both convolution checks and of the
  coordinate inverse built as `acc = acc + a * b * c`, one `TElement` per
  product, which `tring.sum_of_products` replaced; and
  `reference_associative`, Light's test with both sides of every
  associator collected and compared, on tables of scalars or of ring
  elements.  `reference_loop_cocycle_failure` calls it where it called
  `hopf.associative`.  The package runs Light's test on tables of
  scalars only: it certifies the lifted cocycle through the universal
  map (`generic_base.sigma_failure`), and names a failing triple by one
  scan (`cocycle.triple_failure`).
- `reference_associator`, `reference_filtered_twist`,
  `reference_counit_reduces`, `reference_counit_recovers`,
  `reference_factored_trivial_cocycle` and `reference_ring_evaluate`:
  the Scalar bodies of `hopf._associator`, `cocycle._twist`, the two
  counit checks, `cocycle.trivial_cocycle` and `TRing.evaluate`, which the
  sums on integer numerators over the packed tables (`hopf.pack_rows`)
  replaced; `reference_counit_dict` and `reference_antipode_dict`, the
  former `HopfAlgebra` methods that only the reference battery and the
  tests read.  The references above that called the package's twist,
  counit check or associator call these instead (tests
  `test_packed_tables.py` and `test_fast_paths.py`).

The package helpers below left `src/hopfgen` because no user path reaches
them; the tests that check a fact of the paper through them call them here.

- `tautological_coaction` and `comodule_map_check`: the coaction on words,
  and whether `mu` intertwines it with the coaction on its image.
- `twisted_coinvariants`: the coinvariants of a twisted algebra as a
  nullspace.
- `embed_by_labels` and `conjugation_action`: a subgroup matched into a
  group by labels, and the permutation that conjugation induces on it.
- `semidirect_product` and its error `InvalidAction`: the split extension
  of one group by another through a validated action table.
"""

from __future__ import annotations

from operator import ne

from hopfgen.arith import Scalar, format_terms, q_binomial
from hopfgen.cocycle import TwoCocycle, _support
from hopfgen.errors import (
    IndexMismatch,
    NotInvertible,
    NotDegreeZero,
    OutOfLocalization,
    RangeError,
    UnknownLabel,
    WitnessFailure,
)
from hopfgen.generic_base import WITNESS_CAP, DecompositionWitness, gamma_generators
from hopfgen.groups import FiniteAbelianGroup, FiniteGroup, abelianization
from hopfgen.hopf import (
    HopfAlgebra,
    _canonical_terms,
    acts_as_scalar,
    fails_at,
    generating_middles,
    hab_grading,
)
from hopfgen.identities import (
    DEFAULT_WORD_CAP,
    LocalizedDenominator,
    NCPoly,
    _denominator_poly,
    _evaluate,
    basis_index,
    mu,
    mu_algebra,
    ncpoly_scalar,
    symbol,
)
from hopfgen.lattice import _hnf_index, _sigma_vector, _unit_vector, hnf_basis
from hopfgen.linalg import Sparse, collect, in_span, nullspace, row_reduce
from hopfgen.report import Report
from hopfgen.tring import TElement, TMonomial, TRing, check_product_budget, t_inverse_map, t_ring


def reference_canonical_terms(terms):
    return tuple(sorted(collect(terms).items()))


def reference_check_product(
    dim: int, mult, unit_index: int, one: Scalar
) -> tuple[bool, tuple[int, int, int] | None]:
    """Unit and associativity of a mult table on the basis: whether the
    unit multiplies every basis element to itself on both sides, and the
    lexicographically first triple (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k),
    or None.  Each product is read from the table, not recomputed."""
    unital = all(
        mult.get((unit_index, i)) == ((i, one),) and mult.get((i, unit_index)) == ((i, one),)
        for i in range(dim)
    )
    for i in range(dim):
        for j in range(dim):
            ij = mult.get((i, j), ())
            for k in range(dim):
                left = collect((m, c * cm) for p, c in ij for m, cm in mult.get((p, k), ()))
                right = collect(
                    (m, c * cm) for p, c in mult.get((j, k), ()) for m, cm in mult.get((i, p), ())
                )
                if left != right:
                    return unital, (i, j, k)
    return unital, None


def reference_generating_middles(dim: int, mult, unit_index: int) -> list[int]:
    """The unit index followed by a set S of basis indices, chosen greedily
    in basis order, such that every basis element is reached from the unit
    by left products b_s b_j = c b_k with s in the list, b_j reached and one
    term c != 0 in the table; so the list generates the algebra.  When the
    right-hand factors y for which a pair identity holds with every
    left-hand factor form a subalgebra, the identity needs checking only
    with y in the list.  When products have several terms, S can be the
    whole rest of the basis."""
    middles: list[int] = []
    reached: set[int] = set()
    for s in (unit_index, *range(dim)):
        if s in reached:
            continue
        # b_s times every element reached so far, each generator times b_s,
        # then every generator times each element reached on the way
        middles.append(s)
        todo = [(s, j) for j in reached] + [(g, s) for g in middles]
        reached.add(s)
        while todo:
            terms = mult.get(todo.pop(), ())
            if len(terms) == 1 and not terms[0][1].is_zero and terms[0][0] not in reached:
                k = terms[0][0]
                reached.add(k)
                todo.extend((g, k) for g in middles)
    return middles


def reference_verify_hopf_axioms(h, include_grading: bool = True) -> Report:
    """Exhaustive exact check of every Hopf axiom on the tables.  A failing
    check names its first counterexample in loop order: a basis element,
    pair or triple."""
    rep = Report(title=h.name or "hopf")
    field = h.field
    dim = h.dim
    elements = [(i,) for i in range(dim)]
    pairs = [(i, j) for i in range(dim) for j in range(dim)]

    def first(keys, fails):
        return next((key for key in keys if fails(*key)), None)

    def add(name: str, bad) -> None:
        if bad is None:
            rep.add(name, True)
        else:
            rep.add(name, False, "fails at ({})".format(", ".join(h.labels[i] for i in bad)))

    unital, bad = reference_check_product(dim, h.mult, h.unit_index, field.one)
    add("associativity", bad)
    rep.add("unit", unital)

    def coassociativity_fails(i):
        left = collect(
            ((a, b, k), c * cc) for j, k, c in h.comult[i] for a, b, cc in h.comult[j]
        )
        right = collect(
            ((j, a, b), c * cc) for j, k, c in h.comult[i] for a, b, cc in h.comult[k]
        )
        return left != right

    add("coassociativity", first(elements, coassociativity_fails))

    def counit_fails(i):
        lhs = collect((k, c * h.counit[j]) for j, k, c in h.comult[i])
        rhs = collect((j, c * h.counit[k]) for j, k, c in h.comult[i])
        return lhs != {i: field.one} or rhs != {i: field.one}

    add("counit", first(elements, counit_fails))

    def comult_multiplicative_fails(i, j):
        want = collect(
            ((k1, k2), ca * cb * c1 * c2)
            for a, b, ca in h.comult[i]
            for c_, d_, cb in h.comult[j]
            for k1, c1 in h.mult.get((a, c_), ())
            for k2, c2 in h.mult.get((b, d_), ())
        )
        return want != h.comult_dict(dict(h.mult.get((i, j), ())))

    add("comult-multiplicative", first(pairs, comult_multiplicative_fails))

    bad = first(
        pairs,
        lambda i, j: reference_counit_dict(h, dict(h.mult.get((i, j), ())))
        != h.counit[i] * h.counit[j],
    )
    if bad is None and h.counit[h.unit_index] != field.one:
        bad = (h.unit_index,)
    add("counit-multiplicative", bad)

    def add_antipode(name: str, product) -> None:
        def fails(i):
            acc = collect(kv for j, k, c in h.comult[i] for kv in product(j, k, c).items())
            return acc != ({h.unit_index: h.counit[i]} if not h.counit[i].is_zero else {})

        add(name, first(elements, fails))

    add_antipode(
        "antipode-left",
        lambda j, k, c: h.multiply_dicts(reference_antipode_dict(h, {j: c}), {k: field.one}),
    )
    add_antipode(
        "antipode-right",
        lambda j, k, c: h.multiply_dicts({j: field.one}, reference_antipode_dict(h, {k: c})),
    )

    gl = set(h.grouplikes)
    ok = h.unit_index in gl and all(
        set(k for k, _ in h.mult.get((g, g2), ())) <= gl for g in gl for g2 in gl
    )
    rep.add("grouplikes-closed", ok)

    if include_grading and h.family.get("kind") in ("taft", "e", "monomial", "group"):
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


def reference_counit_dict(self, a: dict[int, Scalar]) -> Scalar:
    out = self.field.zero
    for i, ci in a.items():
        out = out + ci * self.counit[i]
    return out


def reference_antipode_dict(self, a: dict[int, Scalar]) -> dict[int, Scalar]:
    return collect((k, ci * c) for i, ci in a.items() for k, c in self.antipode[i])


def reference_mul(self: TElement, other: TElement) -> TElement:
    return TElement(
        self.ring,
        collect(
            (m1.mul(m2), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        ),
    )


def reference_scaled(self: TElement, s: Scalar) -> TElement:
    return TElement(self.ring, collect((m, c * s) for m, c in self.terms.items()))


def reference_pow(self: TElement, k: int) -> TElement:
    if k < 0:
        return reference_pow(self.inverse(), -k)
    out = self.ring.one()
    base = self
    while k:
        if k & 1:
            out = reference_mul(out, base)
        base = reference_mul(base, base)
        k >>= 1
    return out


class ReferenceMonomial:
    """Canonical product of coordinate variables with integer exponents."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps: tuple[tuple[int, int], ...]):
        # sorted by variable index, zero exponents dropped
        self.exps = exps
        self._hash = hash(exps)

    @staticmethod
    def from_pairs(pairs) -> ReferenceMonomial:
        acc: dict[int, int] = {}
        for i, e in pairs:
            acc[i] = acc.get(i, 0) + int(e)
        return ReferenceMonomial(tuple(sorted((i, e) for i, e in acc.items() if e)))

    def mul(self, other: ReferenceMonomial) -> ReferenceMonomial:
        """The product, by one merge of the two sorted exponent tuples."""
        a, b = self.exps, other.exps
        if not b:
            return self
        if not a:
            return other
        out = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            x, y = a[i], b[j]
            if x[0] < y[0]:
                out.append(x)
                i += 1
            elif x[0] > y[0]:
                out.append(y)
                j += 1
            else:
                e = x[1] + y[1]
                if e:
                    out.append((x[0], e))
                i += 1
                j += 1
        return ReferenceMonomial(tuple(out) + a[i:] + b[j:])

    def pow(self, k: int) -> ReferenceMonomial:
        if k == 0:
            return ReferenceMonomial(())
        # scaling every exponent by k != 0 keeps the variable order
        return ReferenceMonomial(tuple([(i, e * k) for i, e in self.exps]))

    def exp_of(self, index: int) -> int:
        for i, e in self.exps:
            if i == index:
                return e
        return 0

    def __eq__(self, other):
        return isinstance(other, ReferenceMonomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.exps < other.exps

    def __repr__(self):
        return f"ReferenceMonomial({self.exps!r})"


def reference_to_text(labels, terms: dict[ReferenceMonomial, Scalar]) -> str:
    return format_terms(
        (
            terms[m],
            [f"t[{labels[i]}]" if e == 1 else f"t[{labels[i]}]^{e}" for i, e in m.exps],
        )
        for m in sorted(terms)
    )


def reference_remultiply(witness) -> TElement:
    pres = witness.presentation
    ring = t_ring(pres.hopf)
    out = ring.scalar(witness.coefficient)
    for gen, e in zip(pres.invertible_gens, witness.invertible_exps):
        if e:
            out = out * gen**e
    for gen, e in zip(pres.plain_gens, witness.plain_exps):
        if e:
            out = out * gen**e
    for v, e in zip(pres.residue_vars, witness.residue_exps):
        if e:
            out = out * ring.var(v, e)
    return out


def reference_roundtrip_target(rng, ring: TRing, pres) -> TElement:
    elem = ring.one()
    for g in pres.invertible_gens:
        e = rng.randint(-2, 2)
        if e:
            elem = elem * g**e
    for g in pres.plain_gens:
        e = rng.randint(0, 2)
        if e:
            elem = elem * g**e
    return elem


def reference_scale(ab: FiniteAbelianGroup, a: tuple[int, ...], k: int) -> tuple[int, ...]:
    return tuple((x * k) % d for x, d in zip(a, ab.invariant_factors))


def reference_degree_of(ab, proj, v: list[int]):
    total = ab.identity
    for g, e in enumerate(v):
        total = ab.add(total, reference_scale(ab, proj[g], e))
    return total


def lattices_equal(gens_a: list[list[int]], gens_b: list[list[int]]) -> bool:
    return hnf_basis(gens_a) == hnf_basis(gens_b)


def reference_det_int(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def reference_y_basis(group) -> tuple[tuple[tuple[int, ...], ...], int]:
    n = group.order
    gens = [_unit_vector(n, group.identity)]
    for g in range(n):
        for h in range(n):
            gens.append(_sigma_vector(n, g, h, group.mul(g, h)))
    basis, index = _hnf_index(gens)
    if len(basis) != n:
        raise IndexMismatch(f"degree-zero lattice rank {len(basis)} != {n}")
    ab, _ = abelianization(group)
    if index != ab.order:
        raise IndexMismatch(
            f"lattice index {index} != abelianization order {ab.order}"
        )
    return tuple(map(tuple, basis)), index


def reference_pair_and_triple_vectors(group) -> list[tuple[list[int], tuple[int, ...]]]:
    """The exponent vectors in Z^G of the words g g^-1, then of the words
    g h (gh)^-1, in that order, each with its word."""
    n = group.order
    words = [(g, group.inv(g)) for g in range(n)]
    words += [(g, h, group.inv(group.mul(g, h))) for g in range(n) for h in range(n)]
    out = []
    for word in words:
        row = [0] * n
        for g in word:
            row[g] += 1
        out.append((row, word))
    return out


def reference_hab_grading(h):
    kind = h.family.get("kind")
    if kind == "taft":
        n = h.family["n"]
        ab = FiniteAbelianGroup((n,))
        deg = [((i % n + i // n) % n,) for i in range(h.dim)]
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
    raise ValueError(kind)


def reference_taft_lift(hopf, cap: int):
    n = hopf.family["n"]
    field = hopf.field
    X = [symbol(hopf, i, cap) for i in range(hopf.dim)]
    # the compensator word and the bracket that reaches the nilpotent slot
    W = X[0] * X[1] ** n
    bracket = X[n] * X[1] - X[1] * X[n]
    Yq = X[1] ** (n - 1) * bracket * (field.q - field.one).inverse()

    memo: dict[tuple[int, int], NCPoly] = {}

    def lift(i: int, j: int) -> NCPoly:
        got = memo.get((i, j))
        if got is not None:
            return got
        if j == 0:
            out = X[i]
        else:
            out = X[j * n + i] * W**j
            for r in range(j):
                out = out - lift(i, r) * Yq ** (j - r) * q_binomial(j, r, field)
        memo[(i, j)] = out
        return out

    return lift, (X, n, W, Yq, field)


def reference_monomial_lift(hopf, cap: int):
    fam = hopf.family
    group, x = fam["group"], fam["x"]
    order = group.order
    field = hopf.field
    X = [symbol(hopf, i, cap) for i in range(hopf.dim)]
    xinv = group.inv(x)
    y = order  # level-one slot over the identity
    W = X[group.identity] * X[x] * X[xinv]
    bracket = X[y] * X[x] - X[x] * X[y]
    Ym = X[xinv] * bracket * (field.q - field.one).inverse()

    memo: dict[tuple[int, int], NCPoly] = {}

    def lift(g: int, lvl: int) -> NCPoly:
        got = memo.get((g, lvl))
        if got is not None:
            return got
        if lvl == 0:
            out = X[g]
        else:
            out = X[lvl * order + g] * W**lvl
            for r in range(lvl):
                out = out - lift(g, r) * Ym ** (lvl - r) * q_binomial(lvl, r, field)
        memo[(g, lvl)] = out
        return out

    return lift, (X, order, W, Ym, field)


def reference_comult_power(self, i: int, legs: int) -> dict[tuple[int, ...], Scalar]:
    """Iterated comultiplication of a basis element into the given
    number of tensor legs."""
    if legs < 1:
        raise RangeError("need at least one tensor leg")
    cur: dict[tuple[int, ...], Scalar] = {(i,): self.field.one}
    for _ in range(legs - 1):
        cur = collect(
            ((j, k) + key[1:], c * cc)
            for key, c in cur.items()
            for j, k, cc in self.comult[key[0]]
        )
    return cur


def reference_generic_cocycle(hopf, alpha, b, bp) -> TElement:
    """One value of the cocycle lifted to the coordinate ring.

    Both arguments are comultiplied twice; the outer legs contribute a
    generator each, the middle legs feed the scalar cocycle, and the inner
    legs are multiplied and closed off with the convolution inverse."""
    ring = t_ring(hopf)
    tinv = t_inverse_map(hopf)
    i = basis_index(hopf, b)
    j = basis_index(hopf, bp)
    acc = ring.zero()
    right = reference_comult_power(hopf, j, 3).items()
    for (i1, i2, i3), ci in reference_comult_power(hopf, i, 3).items():
        head = ring.var(i1)
        for (j1, j2, j3), cj in right:
            a = alpha(i2, j2)
            if a.is_zero:
                continue
            part = head * ring.var(j1) * (ci * cj * a)
            for m, cm in hopf.mult.get((i3, j3), ()):
                acc = acc + part * tinv[m] * cm
    return acc


def reference_generic_cocycle_inverse(hopf, alpha, b, bp) -> TElement:
    """Convolution inverse of the lifted cocycle, built leg by leg: outer
    legs multiplied into one generator, middle legs through the inverse of
    the scalar cocycle, inner legs each closed with the coordinate
    inverse."""
    ring = t_ring(hopf)
    tinv = t_inverse_map(hopf)
    i = basis_index(hopf, b)
    j = basis_index(hopf, bp)
    acc = ring.zero()
    right = reference_comult_power(hopf, j, 3).items()
    for (i1, i2, i3), ci in reference_comult_power(hopf, i, 3).items():
        for (j1, j2, j3), cj in right:
            a = alpha.inverse(i2, j2)
            if a.is_zero:
                continue
            tail = tinv[i3] * tinv[j3] * (ci * cj * a)
            for m, cm in hopf.mult.get((i1, j1), ()):
                acc = acc + ring.var(m) * tail * cm
    return acc


def reference_center_table(dim: int, mult, field) -> list[dict[int, Scalar]]:
    """Nullspace basis of [z, b_j] = 0 for an arbitrary mult table."""

    def entries():
        # ((row, column), coeff): row j*dim + k is the b_k coordinate of [z, b_j]
        for j in range(dim):
            for i in range(dim):
                for k, c in mult.get((i, j), ()):
                    yield (j * dim + k, i), c
                for k, c in mult.get((j, i), ()):
                    yield (j * dim + k, i), -c

    return nullspace(dim, entries(), field)


class ReferenceTensorH(Sparse):
    """Sum of (coordinate monomial) tensor (algebra basis element) terms.

    The right tensor factor multiplies through `algebra.mult`, so the same
    class serves the plain product and any twisted one."""

    __slots__ = ("ring", "algebra", "terms")

    def __init__(self, ring, algebra, terms: dict[tuple[TMonomial, int], Scalar]):
        if ring.hopf is not (algebra if isinstance(algebra, HopfAlgebra) else algebra.hopf):
            raise RangeError("TensorH operands over different algebras")
        self.ring = ring
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if not c.is_zero}

    def _owner(self) -> tuple:
        return self.ring, self.algebra

    def _like(self, terms: dict[tuple[TMonomial, int], Scalar]) -> "ReferenceTensorH":
        out = ReferenceTensorH.__new__(ReferenceTensorH)
        out.ring = self.ring
        out.algebra = self.algebra
        out.terms = terms
        return out

    @staticmethod
    def zero(ring, algebra) -> "ReferenceTensorH":
        return ReferenceTensorH(ring, algebra, {})

    def one(self) -> "ReferenceTensorH":
        return self._like({(self.ring._unit, self.algebra.unit_index): self.ring.field.one})

    def scale(self, c) -> "ReferenceTensorH":
        """self times a coordinate-ring element or a scalar."""
        if not isinstance(c, TElement):
            return self.scaled(self.ring.field.scalar(c))
        if c.ring is not self.ring:
            raise RangeError("TensorH operands over different algebras")
        return self._like(
            collect(
                ((m1.mul(m2), i), c1 * c2)
                for (m1, i), c1 in self.terms.items()
                for m2, c2 in c.terms.items()
            )
        )

    def __mul__(self, other):
        if not isinstance(other, ReferenceTensorH):
            return self.scale(other)
        o = self._operand(other)
        check_product_budget(len(self.terms), len(o.terms))
        mult = self.algebra.mult
        return self._like(
            collect(
                ((m1.mul(m2), k), c1 * c2 * c)
                for (m1, i), c1 in self.terms.items()
                for (m2, j), c2 in o.terms.items()
                for k, c in mult.get((i, j), ())
            )
        )

    __rmul__ = scale

    def is_coinvariant(self) -> bool:
        unit = self.algebra.unit_index
        return all(i == unit for _, i in self.terms)

    def is_central(self) -> bool:
        """Every coordinate-monomial slice lies in the centre of the
        (possibly twisted) algebra."""
        field = self.ring.field
        reduced, pivots = row_reduce(
            reference_center_table(self.algebra.dim, self.algebra.mult, field), field
        )
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


def _reference_letter_images(hopf, algebra) -> list[ReferenceTensorH]:
    """mu(X[b]) for every basis element b: the coordinate of the first
    coproduct leg tensored with the second leg."""
    ring = t_ring(hopf)
    return [
        ReferenceTensorH(
            ring,
            algebra,
            collect(((ring.monomial(((j, 1),)), k), c) for j, k, c in hopf.comult[i]),
        )
        for i in range(hopf.dim)
    ]


def reference_tensor_mu(hopf, alpha, poly: NCPoly) -> ReferenceTensorH:
    """Algebra-map extension of X over b mapping to the coordinate of the
    first coproduct leg tensored with the (twisted) second leg.

    A parsed polynomial is evaluated along its parse tree, sums to sums
    and products to products, and a word-built one word by word."""
    if poly.hopf is not hopf:
        raise RangeError("polynomial belongs to a different algebra")
    algebra = mu_algebra(hopf, alpha)
    gen_images = _reference_letter_images(hopf, algebra)
    zero = ReferenceTensorH.zero(t_ring(hopf), algebra)
    one = zero.one()

    def words(p: NCPoly) -> ReferenceTensorH:
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


def reference_trivial_cocycle(hopf: HopfAlgebra) -> TwoCocycle:
    """counit tensor counit.  On a Hopf algebra it is a cocycle and its own
    convolution inverse, so no condition check and no solve run.  The
    constructor still checks it against itself as a convolution pair.  That
    re-certifies counit(x1) counit(x2) = counit(x), the part of the counit
    axiom it rests on, which `HopfAlgebra.from_json` does not check on the
    tables it accepts."""
    zero = hopf.field.zero
    values = [
        [zero if ei.is_zero or ej.is_zero else ei * ej for ej in hopf.counit]
        for ei in hopf.counit
    ]
    return TwoCocycle(hopf, values, inverse_values=values, check=False)


def reference_denominator_ncpoly(dens: LocalizedDenominator, cap: int = DEFAULT_WORD_CAP) -> NCPoly:
    out = ncpoly_scalar(dens.hopf, 1, cap)
    for entry in dens.entries:
        out = out * _denominator_poly(dens.hopf, entry, cap)
    return out


def reference_denominator_image(hopf: HopfAlgebra, alpha, dens: LocalizedDenominator) -> TElement:
    """Coordinate part of the evaluation image of the denominator word; the
    algebra part is always the unit."""
    ring = t_ring(hopf)
    img = mu(hopf, alpha, reference_denominator_ncpoly(dens, WITNESS_CAP))
    items = list(img.terms.items())
    if len(items) != 1 or items[0][0][1] != hopf.unit_index:
        raise WitnessFailure("denominator word does not evaluate to a unit tensor")
    (mon, _), c = items[0]
    return ring.element({mon: c})



def reference_hab_degree(self, mon: TMonomial) -> tuple[int, ...]:
    ab, deg = hab_grading(self.hopf)
    return ab.combination((deg[i], e) for i, e in mon.exps)


def reference_decompose_monomial(
    hopf: HopfAlgebra, mon: TMonomial, coeff: Scalar, allow_residue: bool
) -> DecompositionWitness:
    pres = gamma_generators(hopf)
    ring = t_ring(hopf)
    ab = ring.grading_group()
    gl = ring.grouplike_set

    work = {i: e for i, e in mon.exps}
    deg = reference_hab_degree(ring, mon)
    residue = tuple(0 for _ in pres.residue_vars)
    if deg != ab.identity:
        if not allow_residue:
            raise NotDegreeZero(f"monomial of degree {deg}")
        residue = deg
        for v, k in zip(pres.residue_vars, deg):
            if k:
                work[v] = work.get(v, 0) - k

    own_of = pres.plain_owner
    plain = [0] * len(pres.plain_gens)
    torus = {}
    for v, e in work.items():
        if v in gl:
            torus[v] = torus.get(v, 0) + e
            continue
        if e < 0:
            raise OutOfLocalization(f"negative power of t[{hopf.labels[v]}]")
        p, mon_g = own_of[v]
        plain[p] += e
        for gv, ge in mon_g.exps:
            if gv != v:
                torus[gv] = torus.get(gv, 0) - e * ge

    target = [torus.get(v, 0) for v in hopf.grouplikes]
    coeffs = pres.torus_lattice.solve(target)
    if coeffs is None:
        raise NotDegreeZero("torus part lies outside the degree-zero lattice")

    witness = DecompositionWitness(
        pres, coeff, tuple(coeffs), tuple(plain), residue
    )
    back = witness.remultiply()
    # every caller passes a monomial packed by this ring
    if back != TElement(ring, {mon: coeff}):
        raise WitnessFailure(f"re-multiplication mismatch: {back.to_text()}")
    return witness


def reference_lifted_cocycle(hopf: HopfAlgebra, vals, right: bool = False) -> list[list[TElement]]:
    """The basis matrix of t(x1) t(y1) vals(x2, y2) t^-1(x3 y3), or of
    t(x1 y1) vals(x2, y2) t^-1(x3) t^-1(y3) when right is set, read off
    the twisted product table."""
    ring = t_ring(hopf)
    t = [ring.var(i) for i in range(hopf.dim)]
    tinv = t_inverse_map(hopf)
    # the twisted product takes the first legs and is closed by t when
    # right is set, else the second legs and t^-1; the other legs go
    # through the other map
    tw, single, closing = (0, tinv, t) if right else (1, t, tinv)
    table = reference_filtered_twist(hopf, hopf.mult, vals, right)
    zero = ring.zero()
    out = []
    for legs_x in hopf.comult:
        row = []
        for legs_y in hopf.comult:
            acc = zero
            for lx in legs_x:
                for ly in legs_y:
                    terms = table.get((lx[tw], ly[tw]))
                    if terms is None:
                        continue
                    part = single[lx[1 - tw]] * single[ly[1 - tw]] * (lx[2] * ly[2])
                    for k, c in terms:
                        acc = acc + part * closing[k] * c
            row.append(acc)
        out.append(row)
    return out


def reference_associative(dim: int, mult, unit_index: int, one) -> bool:
    """Light's associativity test over the middle factors of
    `generating_middles`, both sides of each associator collected and
    compared."""
    sides = reference_associator(dim, mult)
    middles = generating_middles(
        dim, mult, unit_index, with_unit=not acts_as_scalar(dim, mult, unit_index, one)
    )
    return not any(ne(*sides(i, m)) for m in middles for i in range(dim))


def reference_loop_cocycle_failure(hopf: HopfAlgebra, vals, zero):
    """The first basis triple (x, y, z), in loop order, at which
    vals(x1, y1) vals(x2 y2, z) != vals(y1, z1) vals(x, y2 z2); None if
    there is none."""
    dim = hopf.dim
    table = reference_filtered_twist(hopf, hopf.mult, vals)
    u = hopf.unit_index
    if reference_counit_reduces(hopf) and reference_associative(dim, table, u, vals[u][u]):
        return None
    prod = [[table.get((x, y), ()) for y in range(dim)] for x in range(dim)]
    for x in range(dim):
        vx = vals[x]
        for y in range(dim):
            pxy, py = prod[x][y], prod[y]
            for z in range(dim):
                lhs = zero
                for k, c in pxy:
                    v = vals[k][z]
                    if not v.is_zero:
                        lhs = lhs + c * v
                rhs = zero
                for k, c in py[z]:
                    v = vx[k]
                    if not v.is_zero:
                        rhs = rhs + v * c
                if lhs != rhs:
                    return x, y, z
    return None


def reference_loop_convolution_failure(hopf: HopfAlgebra, a, b, zero):
    """The first basis pair (x, y) at which the convolution a * b, or else
    b * a, differs from counit(x) counit(y), as (x, y, reverse); None if a
    and b are two-sided convolution inverses."""
    comult, counit = hopf.comult, hopf.counit

    def legs(first, second):
        # the legs (l1, l2) of each coproduct with l1 in first and l2 in second
        return [tuple(leg for leg in ls if leg[0] in first and leg[1] in second) for ls in comult]

    # a pair of legs meets a nonzero f(x1, y1) g(x2, y2) only if x1, x2 are
    # in the row supports and y1, y2 in the column supports of f and g
    rows_a, cols_a = _support(a)
    rows_b, cols_b = (rows_a, cols_a) if b is a else _support(b)
    passes = (
        (False, a, b, legs(rows_a, rows_b), legs(cols_a, cols_b)),
        (True, b, a, legs(rows_b, rows_a), legs(cols_b, cols_a)),
    )
    for x in range(hopf.dim):
        for y in range(hopf.dim):
            # the start value itself where a counit value is zero, so that
            # an empty sum matches without a product or a comparison
            ex, ey = counit[x], counit[y]
            want = zero if ex.is_zero or ey.is_zero else ex * ey
            for reverse, f, g, legs_x, legs_y in passes:
                acc = zero
                for x1, x2, cx in legs_x[x]:
                    for y1, y2, cy in legs_y[y]:
                        u = f[x1][y1]
                        if u.is_zero:
                            continue
                        v = g[x2][y2]
                        if not v.is_zero:
                            acc = acc + u * v * (cx * cy)
                if acc is not want and acc != want:
                    return x, y, reverse
    return None


def reference_verify_t_inverse(hopf: HopfAlgebra) -> Report:
    """Both convolution identities of the coordinate inverse, one basis
    element at a time: the split product against t, in either order,
    must collapse to the counit value."""
    ring = t_ring(hopf)
    rep = Report(f"coordinate inverse on {hopf.name or 'algebra'}")
    for i in range(hopf.dim):
        target = ring.scalar(hopf.counit[i])
        left = ring.zero()
        right = ring.zero()
        for j, k, c in hopf.comult[i]:
            left = left + c * (ring.var(j) * ring.t_inverse(k))
            right = right + c * (ring.t_inverse(j) * ring.var(k))
        lbl = hopf.labels[i]
        rep.add(f"left {lbl}", left == target, "" if left == target else left.to_text())
        rep.add(f"right {lbl}", right == target, "" if right == target else right.to_text())
    return rep


def tautological_coaction(hopf, poly: NCPoly) -> dict:
    """Coaction on words: each symbol splits through the coproduct, words
    multiply componentwise (word concatenation, algebra product)."""
    pairs = []
    for word, coeff in poly.terms.items():
        cur = {((), hopf.unit_index): hopf.field.one}
        for i in word:
            cur = collect(
                ((w + (j,), m), c * cc * cm)
                for (w, h), c in cur.items()
                for j, k, cc in hopf.comult[i]
                for m, cm in hopf.mult.get((h, k), ())
            )
        pairs.extend((key, coeff * c) for key, c in cur.items())
    return collect(pairs)


def comodule_map_check(hopf, alpha, poly: NCPoly) -> bool:
    """mu intertwines the word coaction with the coaction on its image."""
    image = mu(hopf, alpha, poly)
    left = collect(
        ((m, j, k), c * cc) for (m, i), c in image.terms.items() for j, k, cc in hopf.comult[i]
    )
    right = collect(
        ((m, i, h), cc)
        for (word, h), c in tautological_coaction(hopf, poly).items()
        for (m, i), cc in mu(hopf, alpha, NCPoly(hopf, {word: c}, poly.cap)).terms.items()
    )
    return left == right


def twisted_coinvariants(tw) -> list[dict]:
    """A basis of the coinvariants of a twisted algebra: the nullspace of
    a -> coaction(a) - a (x) 1."""
    hopf = tw.hopf
    dim = hopf.dim
    # ((row, column), coeff): row j*dim + k is the b_j (x) b_k coordinate
    # of coaction(a) - a (x) 1
    entries = [((j * dim + k, i), c) for i in range(dim) for j, k, c in hopf.comult[i]]
    entries += [((i * dim + hopf.unit_index, i), -hopf.field.one) for i in range(dim)]
    return nullspace(dim, entries, hopf.field)


def embed_by_labels(sub, big) -> list[int]:
    """Index map sub -> big matching elements by label; checked to be a
    homomorphism."""
    emb = [big.index_of(lbl) for lbl in sub.labels]
    for a in range(sub.order):
        for b in range(sub.order):
            if emb[sub.mul(a, b)] != big.mul(emb[a], emb[b]):
                raise UnknownLabel("label matching is not multiplicative")
    return emb


def conjugation_action(big, sub, t_label: str) -> list[int]:
    """Permutation of sub induced by conjugation by the element of big
    with the given label.  Raises if conjugation does not preserve sub."""
    emb = embed_by_labels(sub, big)
    back = {e: i for i, e in enumerate(emb)}
    t = big.index_of(t_label)
    perm = []
    for i in range(sub.order):
        image = big.mul(big.mul(t, emb[i]), big.inv(t))
        if image not in back:
            raise InvalidAction("conjugation leaves the subgroup")
        perm.append(back[image])
    return perm


class InvalidAction(ValueError):
    """A semidirect-product action table is not a homomorphism into Aut(H)."""


def semidirect_product(
    h: FiniteGroup, k: FiniteGroup, action: list[list[int]]
) -> FiniteGroup:
    """Split extension of h by k; action[t] is the automorphism of h
    attached to element t of k.  The action is validated as a
    homomorphism k -> Aut(h) before any table is built."""
    if len(action) != k.order:
        raise InvalidAction("need one permutation of h per element of k")
    for t, perm in enumerate(action):
        if sorted(perm) != list(range(h.order)):
            raise InvalidAction(f"action[{t}] is not a permutation")
        if perm[h.identity] != h.identity:
            raise InvalidAction(f"action[{t}] moves the identity")
        for x in range(h.order):
            for y in range(h.order):
                if perm[h.mul(x, y)] != h.mul(perm[x], perm[y]):
                    raise InvalidAction(
                        f"action[{t}] is not an automorphism"
                    )
    if action[k.identity] != list(range(h.order)):
        raise InvalidAction("identity of k must act trivially")
    for t1 in range(k.order):
        for t2 in range(k.order):
            t12 = k.mul(t1, t2)
            for x in range(h.order):
                if action[t12][x] != action[t1][action[t2][x]]:
                    raise InvalidAction("action is not a homomorphism")
    n = h.order * k.order
    labels = [f"({lh},{lk})" for lh in h.labels for lk in k.labels]

    def idx(i: int, j: int) -> int:
        return i * k.order + j

    table = [[0] * n for _ in range(n)]
    for i1 in range(h.order):
        for j1 in range(k.order):
            for i2 in range(h.order):
                for j2 in range(k.order):
                    table[idx(i1, j1)][idx(i2, j2)] = idx(
                        h.mul(i1, action[j1][i2]), k.mul(j1, j2)
                    )
    return FiniteGroup(labels, table, name=f"{h.name}:{k.name}")


def reference_associator(dim: int, mult):
    """sides(i, j): (b_i b_j) b_k and b_i (b_j b_k) summed over all k,
    each keyed by (k, m) for its b_m coordinate."""
    rows = [[mult.get((i, j), ()) for j in range(dim)] for i in range(dim)]
    basis = range(dim)

    def sides(i: int, j: int) -> tuple[dict, dict]:
        row_i = rows[i]
        left = collect(
            ((k, m), c * cm) for p, c in row_i[j] for k in basis for m, cm in rows[p][k]
        )
        right = collect(
            ((k, m), c * cm) for k in basis for p, c in rows[j][k] for m, cm in row_i[p]
        )
        return left, right

    return sides


def reference_filtered_twist(hopf: HopfAlgebra, mult, vals, right: bool = False) -> dict:
    """The product table x . y = sum vals(x1, y1) m(x2, y2), or
    sum m(x1, y1) vals(x2, y2) when right is set, where m is the product
    of the table mult."""
    # a coproduct leg is (first, second, coeff): vals reads the legs at
    # position v and the table those at position m
    v, m = (1, 0) if right else (0, 1)
    # only legs that meet a nonzero row (for x) or column (for y) of vals count
    rows, cols = _support(vals)
    legs_x = [tuple(lx for lx in legs if lx[v] in rows) for legs in hopf.comult]
    legs_y = [tuple(ly for ly in legs if ly[v] in cols) for legs in hopf.comult]
    out: dict[tuple[int, int], tuple] = {}
    for x in range(hopf.dim):
        for y in range(hopf.dim):
            terms = _canonical_terms(
                (k, lx[2] * ly[2] * vals[lx[v]][ly[v]] * cm)
                for lx in legs_x[x]
                for ly in legs_y[y]
                if not vals[lx[v]][ly[v]].is_zero
                for k, cm in mult.get((lx[m], ly[m]), ())
            )
            if terms:
                out[(x, y)] = terms
    return out


def reference_counit_reduces(hopf: HopfAlgebra) -> bool:
    """Whether counit(b_i b_j) = counit(b_i) counit(b_j) on every basis pair,
    read from the table, and x1 counit(x2) = x on every basis element: the
    two facts by which the counit takes the associator of a twisted algebra
    to the cocycle identity.  `HopfAlgebra.from_json` accepts tables on
    which they fail."""
    if not reference_counit_recovers(hopf, 1):
        return False
    counit, zero = hopf.counit, hopf.field.zero
    for i, ei in enumerate(counit):
        for j, ej in enumerate(counit):
            got = zero
            for k, c in hopf.mult.get((i, j), ()):
                if not counit[k].is_zero:
                    got = got + c * counit[k]
            if got != (zero if ei.is_zero or ej.is_zero else ei * ej):
                return False
    return True


def reference_counit_recovers(hopf: HopfAlgebra, leg: int) -> bool:
    """Whether applying the counit to one leg of each coproduct gives back
    the basis element: counit(x1) x2 = x for leg 0, x1 counit(x2) = x for
    leg 1."""
    counit, one = hopf.counit, hopf.field.one
    other = 1 - leg
    return all(
        collect((t[other], t[2] * counit[t[leg]]) for t in legs if not counit[t[leg]].is_zero)
        == {i: one}
        for i, legs in enumerate(hopf.comult)
    )


def reference_factored_trivial_cocycle(hopf: HopfAlgebra) -> TwoCocycle:
    """counit tensor counit, checked against itself as a convolution pair
    in factored form: f(x) = sum counit(x1) counit(x2) summed as Scalars,
    and the pairs scanned only when f is not the counit."""
    counit, zero = hopf.counit, hopf.field.zero
    values = [[zero] * hopf.dim for _ in counit]
    support = [(i, e) for i, e in enumerate(counit) if not e.is_zero]
    for i, ei in support:
        for j, ej in support:
            values[i][j] = ei * ej
    alpha = TwoCocycle(hopf, values, check=False)
    f = []
    for legs in hopf.comult:
        fx = zero
        for j, k, c in legs:
            if not (counit[j].is_zero or counit[k].is_zero):
                fx = fx + c * counit[j] * counit[k]
        f.append(fx)
    if f != counit:
        for x, fx in enumerate(f):
            for y, fy in enumerate(f):
                if fx * fy != values[x][y]:
                    raise NotInvertible(f"convolution identity {fails_at(hopf, (x, y))}")
    alpha._inverse = alpha.values
    if reference_counit_recovers(hopf, 0):
        alpha._mu_target = hopf
    return alpha


def reference_ring_evaluate(self: TRing, elem: TElement, values: list[Scalar]) -> Scalar:
    """Substitute one field value per variable; negative exponents
    require the substituted value to be invertible.  Each power of a
    value is computed once per call, however many terms share it."""
    powers: dict[tuple[int, int], Scalar] = {}
    total = self.field.zero
    for m, c in elem.terms.items():
        term = c
        for ie in m.exps:
            p = powers.get(ie)
            if p is None:
                i, e = ie
                v = values[i]
                p = powers[ie] = v.inverse() ** (-e) if e < 0 else v**e
            term = term * p
        total = total + term
    return total
