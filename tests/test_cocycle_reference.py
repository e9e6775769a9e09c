"""Differential tests: the one cocycle check, convolution check and twist
of `cocycle` against the loops they replaced, kept here verbatim (apart from
their names) as references.

The references are the scalar cocycle-condition loop, the scalar
convolution check, the two coordinate-ring loops of `verify_sigma`, the
per-triple `cocycle_failure` that the twisted-product table replaced, the
two-stage `cotwist_hopf`, and the `convolution_failure` and `_twist` that
ran over every pair of coproduct legs before they were filtered by the
support of the matrix.  Each corrupted matrix must be reported at the same
first triple or pair, with the same message, and every twisted or
cotwisted table must be the same.  `cocycle_failure` first puts the
twisted algebra through Light's test, and the lifted cocycle is
certified through the universal map (`generic_base.sigma_failure`); the
cases below include corruptions that change the middle factors of the
twisted algebra, that put the unit back among them, and tables on which
the counit condition fails.
"""

import random
from fractions import Fraction

import fast_path_reference as ref
import pytest

from hopfgen import cocycle
from hopfgen.arith import Scalar
from hopfgen.cocycle import (
    TwoCocycle,
    _check_convolution_pair,
    _twist,
    _values_of,
    coboundary_cocycle,
    cocycle_failure,
    convolution_failure,
    cotwist_hopf,
    require_cocycle_of,
    triple_failure,
    trivial_cocycle,
    verify_cocycle_condition,
    verify_normalization,
)
from hopfgen.errors import NotInvertible, NotPointedOrder
from hopfgen.generic_base import lifted_cocycle, sigma_failure, verify_sigma
from hopfgen.groups import cyclic, dihedral, symmetric
from hopfgen.hopf import (
    HopfAlgebra,
    _canonical_terms,
    acts_as_scalar,
    associative,
    e_algebra,
    generating_middles,
    group_algebra,
    taft,
)
from hopfgen.linalg import collect
from hopfgen.report import Report
from hopfgen.selftest import standard_instances
from hopfgen.tring import t_ring


def reference_cocycle_condition(hopf: HopfAlgebra, alpha) -> Report:
    """Exhaustive check of the associativity-style constraint on basis
    triples, plus normalization."""
    rep = verify_normalization(hopf, alpha)
    vals = _values_of(alpha)
    dim = hopf.dim
    zero = hopf.field.zero
    bad = None
    for x in range(dim):
        dx = hopf.comult[x]
        for y in range(dim):
            dy = hopf.comult[y]
            for z in range(dim):
                dz = hopf.comult[z]
                lhs = zero
                for x1, x2, cx in dx:
                    for y1, y2, cy in dy:
                        a = vals[x1][y1]
                        if a.is_zero:
                            continue
                        c = cx * cy * a
                        for k, cm in hopf.mult.get((x2, y2), ()):
                            v = vals[k][z]
                            if not v.is_zero:
                                lhs = lhs + c * cm * v
                rhs = zero
                for y1, y2, cy in dy:
                    for z1, z2, cz in dz:
                        a = vals[y1][z1]
                        if a.is_zero:
                            continue
                        c = cy * cz * a
                        for k, cm in hopf.mult.get((y2, z2), ()):
                            v = vals[x][k]
                            if not v.is_zero:
                                rhs = rhs + c * cm * v
                if lhs != rhs:
                    bad = (x, y, z)
                    break
            if bad:
                break
        if bad:
            break
    rep.add(
        "cocycle-condition",
        bad is None,
        ""
        if bad is None
        else "fails at ({}, {}, {})".format(*(hopf.labels[i] for i in bad)),
    )
    return rep


def reference_convolve(hopf: HopfAlgebra, a, b, x: int, y: int) -> Scalar:
    out = hopf.field.zero
    for x1, x2, cx in hopf.comult[x]:
        for y1, y2, cy in hopf.comult[y]:
            va = a[x1][y1]
            if va.is_zero:
                continue
            vb = b[x2][y2]
            if vb.is_zero:
                continue
            out = out + cx * cy * va * vb
    return out


def reference_check_convolution_pair(hopf, a, b) -> None:
    for x in range(hopf.dim):
        for y in range(hopf.dim):
            want = hopf.counit[x] * hopf.counit[y]
            if reference_convolve(hopf, a, b, x, y) != want:
                raise NotInvertible(
                    f"convolution identity fails at ({hopf.labels[x]}, {hopf.labels[y]})"
                )
            if reference_convolve(hopf, b, a, x, y) != want:
                raise NotInvertible(
                    f"reverse convolution identity fails at ({hopf.labels[x]}, {hopf.labels[y]})"
                )


def reference_sigma_failures(hopf, sig, inv):
    """The two loops of verify_sigma as they were before the shared
    routines, returning the first failing triple and pair."""
    ring = t_ring(hopf)
    dim = hopf.dim
    bad = None
    for x in range(dim):
        dx = hopf.comult[x]
        for y in range(dim):
            dy = hopf.comult[y]
            for z in range(dim):
                dz = hopf.comult[z]
                lhs = ring.zero()
                for x1, x2, cx in dx:
                    for y1, y2, cy in dy:
                        head = sig[x1][y1]
                        if not head.terms:
                            continue
                        c = cx * cy
                        for k, cm in hopf.mult.get((x2, y2), ()):
                            lhs = lhs + head * sig[k][z] * (c * cm)
                rhs = ring.zero()
                for y1, y2, cy in dy:
                    for z1, z2, cz in dz:
                        head = sig[y1][z1]
                        if not head.terms:
                            continue
                        c = cy * cz
                        for k, cm in hopf.mult.get((y2, z2), ()):
                            rhs = rhs + sig[x][k] * head * (c * cm)
                if lhs != rhs:
                    bad = (x, y, z)
                    break
            if bad:
                break
        if bad:
            break
    bad_cocycle = bad

    bad = None
    for x in range(dim):
        for y in range(dim):
            target = ring.scalar(hopf.counit[x] * hopf.counit[y])
            left = ring.zero()
            right = ring.zero()
            for x1, x2, cx in hopf.comult[x]:
                for y1, y2, cy in hopf.comult[y]:
                    c = cx * cy
                    left = left + sig[x1][y1] * inv[x2][y2] * c
                    right = right + inv[x1][y1] * sig[x2][y2] * c
            if left != target or right != target:
                bad = (x, y)
                break
        if bad:
            break
    return bad_cocycle, bad


def reference_cocycle_failure(hopf: HopfAlgebra, vals, zero):
    """The first basis triple (x, y, z), in loop order, at which
    vals(x1, y1) vals(x2 y2, z) != vals(y1, z1) vals(x, y2 z2); None if
    there is none.  The entries of the matrix vals may be any values with
    +, * and .is_zero (scalars, or coordinate-ring elements for the lifted
    cocycle); zero starts each sum."""
    comult, mult = hopf.comult, hopf.mult
    columns = list(zip(*vals))

    def half(da, db, far):
        # sum vals(a1, b1) far(a2 b2) over the legs of a and b
        acc = zero
        for a1, a2, ca in da:
            for b1, b2, cb in db:
                head = vals[a1][b1]
                if head.is_zero:
                    continue
                c = head * (ca * cb)
                for k, cm in mult.get((a2, b2), ()):
                    v = far[k]
                    if not v.is_zero:
                        acc = acc + c * cm * v
        return acc

    for x in range(hopf.dim):
        for y in range(hopf.dim):
            for z in range(hopf.dim):
                if half(comult[x], comult[y], columns[z]) != half(
                    comult[y], comult[z], vals[x]
                ):
                    return x, y, z
    return None


def reference_cotwist_hopf(hopf: HopfAlgebra, alpha: TwoCocycle) -> HopfAlgebra:
    """Two-sided twist: same coalgebra, product conjugated by the cocycle
    and its convolution inverse; antipode re-solved from the tables."""
    alpha = require_cocycle_of(hopf, alpha)
    vals, inv = alpha.values, alpha.inverse_values
    dim = hopf.dim
    mult: dict[tuple[int, int], tuple] = {}
    for i in range(dim):
        di = hopf.comult[i]
        for j in range(dim):
            stage = collect(
                ((ir, jr), ci * cj * vals[i1][j1])
                for i1, ir, ci in di
                for j1, jr, cj in hopf.comult[j]
                if vals[i1][j1]
            )
            terms = _canonical_terms(
                (k, c * ci * cj * inv[i3][j3] * cm)
                for (ir, jr), c in stage.items()
                for i2, i3, ci in hopf.comult[ir]
                for j2, j3, cj in hopf.comult[jr]
                if inv[i3][j3]
                for k, cm in hopf.mult.get((i2, j2), ())
            )
            if terms:
                mult[(i, j)] = terms
    if mult == hopf.mult:
        # identical tables (the shared coalgebra fixes the antipode too):
        # keep the family tag so downstream presentations stay available
        family, name = hopf.family, hopf.name
    else:
        family = {"kind": "generic", "cotwist_of": hopf.family.get("kind")}
        name = f"cotwist({hopf.name})"
    return HopfAlgebra(
        hopf.field,
        list(hopf.labels),
        mult,
        hopf.comult,
        hopf.counit,
        hopf.unit_index,
        family,
        name=name,
    )



def reference_convolution_failure(hopf: HopfAlgebra, a, b, zero):
    """The first basis pair (x, y) at which the convolution a * b, or else
    b * a, differs from counit(x) counit(y), as (x, y, reverse) with
    reverse true when only b * a fails; None if a and b are two-sided
    convolution inverses.  Entries as for cocycle_failure."""
    comult, counit = hopf.comult, hopf.counit
    for x in range(hopf.dim):
        for y in range(hopf.dim):
            want = counit[x] * counit[y]
            for reverse, f, g in ((False, a, b), (True, b, a)):
                acc = zero
                for x1, x2, cx in comult[x]:
                    for y1, y2, cy in comult[y]:
                        u = f[x1][y1]
                        if u.is_zero:
                            continue
                        v = g[x2][y2]
                        if not v.is_zero:
                            acc = acc + u * v * (cx * cy)
                if acc != want:
                    return x, y, reverse
    return None


def reference_twist(hopf: HopfAlgebra, mult, vals, right: bool = False) -> dict:
    """The product table x . y = sum vals(x1, y1) m(x2, y2), or
    sum m(x1, y1) vals(x2, y2) when right is set, where m is the product
    of the table mult."""
    comult = hopf.comult
    # a coproduct leg is (first, second, coeff): vals reads the legs at
    # position v and the table those at position m
    v, m = (1, 0) if right else (0, 1)
    out: dict[tuple[int, int], tuple] = {}
    for x in range(hopf.dim):
        for y in range(hopf.dim):
            terms = _canonical_terms(
                (k, lx[2] * ly[2] * vals[lx[v]][ly[v]] * cm)
                for lx in comult[x]
                for ly in comult[y]
                if not vals[lx[v]][ly[v]].is_zero
                for k, cm in mult.get((lx[m], ly[m]), ())
            )
            if terms:
                out[(x, y)] = terms
    return out


# --- inputs -----------------------------------------------------------------

# Three non-lazy normalized cocycles on taft(2), as their entries off the
# unit row and column that differ from counit (x) counit.
TAFT2_COCYCLES = (
    {("x", "x"): -1, ("x", "y"): -1, ("x", "x y"): 1},
    {("x", "x"): -1, ("x", "y"): -1, ("x", "x y"): 1, ("y", "x"): -1,
     ("x y", "x"): -1, ("x y", "x y"): 1},
    {("x", "x"): -1, ("x", "y"): -1, ("x", "x y"): 1, ("y", "y"): 1,
     ("y", "x y"): -1, ("x y", "y"): 1, ("x y", "x y"): 1},
)


def taft2_cocycle(entries) -> TwoCocycle:
    h = taft(2)
    vals = [row[:] for row in trivial_cocycle(h).values]
    for (a, b), v in entries.items():
        vals[h.index_of(a)][h.index_of(b)] = h.field.scalar(v)
    return TwoCocycle(h, vals)


def scalar_cases():
    h = taft(3)
    yield h, trivial_cocycle(h)
    s3 = group_algebra(symmetric(3))
    yield s3, coboundary_cocycle(s3, seed=4)
    yield taft2_cocycle(TAFT2_COCYCLES[0]).hopf, taft2_cocycle(TAFT2_COCYCLES[0])


def corrupted(matrix, i, j, bump):
    out = [row[:] for row in matrix]
    out[i][j] = out[i][j] + bump
    return out


def positions(dim, count, seed):
    rng = random.Random(seed)
    return [(rng.randrange(dim), rng.randrange(dim)) for _ in range(count)]


def message(check, *args):
    try:
        check(*args)
    except NotInvertible as exc:
        return str(exc)
    return None


# --- scalar cocycles --------------------------------------------------------


def test_scalar_cocycle_check_names_the_reference_triple():
    failures = 0
    for h, alpha in scalar_cases():
        assert cocycle_failure(h, alpha.values) is None
        for i, j in positions(h.dim, 12, seed=h.dim):
            vals = corrupted(alpha.values, i, j, h.field.one)
            want = reference_cocycle_condition(h, vals)
            got = verify_cocycle_condition(h, vals)
            assert got.to_dict() == want.to_dict()
            bad = cocycle_failure(h, vals)
            assert bad == reference_cocycle_failure(h, vals, h.field.zero)
            failures += not got.ok
    assert failures >= 30


def test_scalar_convolution_check_names_the_reference_pair():
    failures = 0
    for h, alpha in scalar_cases():
        vals, inv = alpha.values, alpha.inverse_values
        assert convolution_failure(h, vals, inv, h.field.zero) is None
        for i, j in positions(h.dim, 8, seed=h.dim + 1):
            for a, b in (
                (corrupted(vals, i, j, h.field.one), inv),
                (vals, corrupted(inv, i, j, h.field.one)),
            ):
                want = message(reference_check_convolution_pair, h, a, b)
                assert message(_check_convolution_pair, h, a, b) == want
                failures += want is not None
    assert failures >= 40


def test_reverse_convolution_failure_keeps_its_message(monkeypatch):
    h = taft(2)
    vals = trivial_cocycle(h).values
    x, y = h.index_of("x"), h.index_of("y")
    monkeypatch.setattr(cocycle, "convolution_failure", lambda *args: (x, y, True))
    with pytest.raises(NotInvertible) as err:
        _check_convolution_pair(h, vals, vals)
    assert str(err.value) == "reverse convolution identity fails at (x, y)"
    monkeypatch.setattr(cocycle, "convolution_failure", lambda *args: (y, x, False))
    with pytest.raises(NotInvertible) as err:
        _check_convolution_pair(h, vals, vals)
    assert str(err.value) == "convolution identity fails at (y, x)"


# --- the cocycle lifted to the coordinate ring ------------------------------


@pytest.mark.parametrize(
    "make,count",
    [
        (lambda: trivial_cocycle(taft(2)), 9),
        (lambda: trivial_cocycle(e_algebra(1)), 9),
        (lambda: taft2_cocycle(TAFT2_COCYCLES[1]), 9),
        # 8-dimensional; few positions, as each reference pass is slow
        (lambda: trivial_cocycle(e_algebra(2)), 3),
    ],
    ids=["taft2", "e1", "taft2-nonlazy", "e2"],
)
def test_sigma_checks_name_the_reference_triple_and_pair(make, count):
    alpha = make()
    h = alpha.hopf
    ring = t_ring(h)
    dim = h.dim
    sig = lifted_cocycle(h, alpha.values)
    inv = lifted_cocycle(h, alpha.inverse_values, right=True)
    assert reference_sigma_failures(h, sig, inv) == (None, None)
    assert verify_sigma(h, alpha).ok
    bumps = (ring.one(), ring.var(0), ring.var(dim - 1) * h.field.scalar(-2))
    failures = 0
    for n, (i, j) in enumerate(positions(dim, count, seed=dim)):
        bump = bumps[n % len(bumps)]
        for s, v in ((corrupted(sig, i, j, bump), inv), (sig, corrupted(inv, i, j, bump))):
            want = reference_sigma_failures(h, s, v)
            bad = sigma_failure(h, alpha, s)
            conv = convolution_failure(h, s, v, ring.zero())
            assert (bad, conv and conv[:2]) == want
            assert bad == reference_cocycle_failure(h, s, ring.zero())
            failures += want != (None, None)
    assert failures >= count


# --- Light's test on the twisted algebra -----------------------------------


def light_middles(h, vals):
    """The labels of the middle factors that Light's test reads on the
    table twisted by vals (`reference_filtered_twist`, as vals may hold
    ring elements): the unit among them unless it acts as vals(1, 1)."""
    table = ref.reference_filtered_twist(h, h.mult, vals)
    u = h.unit_index
    with_unit = not acts_as_scalar(h.dim, table, u, vals[u][u])
    return [h.labels[m] for m in generating_middles(h.dim, table, u, with_unit)]


def sigma_corruptions(h, y_label):
    """(name, sigma) for the trivial cocycle of h, intact and then with one
    entry changed, y being the basis element labelled y_label: diagonal
    and off-diagonal entries zeroed or bumped, and entries of the unit row
    and column changed, which puts the unit back among the middles."""
    ring = t_ring(h)
    sig = lifted_cocycle(h, trivial_cocycle(h).values)
    u, x, y = h.unit_index, h.index_of("x"), h.index_of(y_label)
    top = h.dim - 1
    yield "intact", sig
    for (i, j) in ((x, x), (y, y), (x, y), (y, x), (x, top)):
        yield f"({h.labels[i]}, {h.labels[j]}) zeroed", corrupted(sig, i, j, -sig[i][j])
        yield f"({h.labels[i]}, {h.labels[j]}) bumped", corrupted(sig, i, j, ring.var(x))
    yield "unit row", corrupted(sig, u, y, ring.var(1))
    yield "unit column", corrupted(sig, x, u, ring.one())
    yield "unit diagonal", corrupted(sig, u, u, ring.one())


@pytest.mark.parametrize(
    "make,y_label", [(lambda: taft(3), "y"), (lambda: e_algebra(2), "y_2")], ids=["taft3", "e2"]
)
def test_the_sigma_certificate_names_the_reference_triple(make, y_label):
    h = make()
    alpha = trivial_cocycle(h)
    zero = t_ring(h).zero()
    for name, sig in sigma_corruptions(h, y_label):
        want = reference_cocycle_failure(h, sig, zero)
        assert sigma_failure(h, alpha, sig) == want, name
        assert (want is None) == (name == "intact"), name
        assert (light_middles(h, sig)[0] == "1") == name.startswith("unit"), name


def test_a_corruption_that_changes_the_generating_set_names_the_reference_triple():
    h = taft(3)
    zero = t_ring(h).zero()
    sig = lifted_cocycle(h, trivial_cocycle(h).values)
    x = h.index_of("x")
    assert light_middles(h, sig) == ["x", "y"]
    # with sigma(x, x) = 0, u_x u_x no longer reaches u_{x^2}
    bad = corrupted(sig, x, x, -sig[x][x])
    assert light_middles(h, bad) == ["x", "x^2", "y"]
    got = sigma_failure(h, trivial_cocycle(h), bad)
    assert got == reference_cocycle_failure(h, bad, zero) == (1, 1, 2)


def test_sigma_on_corrupted_algebras_takes_the_full_scan():
    """On a counit changed to 1 at the top element, the counit no longer
    reduces the associator to the identity, and the routine scans every
    triple.  A dropped coproduct leg leaves no group-like counit leg, so
    no sigma can be lifted; a doubled leg keeps the precondition, and the
    twisted algebra fails Light's test (the reference twist and test, as
    its table holds ring elements), so the certificate fails too."""
    kinds = []
    for h in corrupted_algebras():
        vals = [[ci * cj for cj in h.counit] for ci in h.counit]
        try:
            sig = lifted_cocycle(h, vals)
        except NotPointedOrder:
            kinds.append("no lift")
            continue
        zero = t_ring(h).zero()
        table = ref.reference_filtered_twist(h, h.mult, sig)
        u = h.unit_index
        assert not ref.reference_associative(h.dim, table, u, sig[u][u])
        want = reference_cocycle_failure(h, sig, zero)
        assert want is not None
        assert triple_failure(h, sig, zero) == want
        assert sigma_failure(h, TwoCocycle(h, vals, check=False), sig) == want
        kinds.append("precondition" if cocycle._counit_reduces(h) else "scan")
    assert kinds == ["scan", "no lift", "precondition"] * 2


def test_an_associative_twist_certifies_nothing_where_the_counit_condition_fails():
    """k[Z/2] read back with the leg 1 (x) 1 added to Delta(g), so that
    g1 counit(g2) = g + 1.  With vals(1, 1) = 1 and zeros elsewhere, every
    product of the twisted algebra is u_1, so it is associative, yet the
    identity fails: without the counit condition the routine must scan."""
    h = group_algebra(cyclic(2))
    payload = h.to_json()
    g = 1 - h.unit_index
    payload["comult"][g].append([h.unit_index, h.unit_index, ["1"]])
    h = HopfAlgebra.from_json(payload)
    zero, one = h.field.zero, h.field.one
    vals = [[one if i == j == h.unit_index else zero for j in range(2)] for i in range(2)]
    table = _twist(h, h.mult, vals)
    assert associative(h.dim, table, h.unit_index, one)
    assert not cocycle._counit_reduces(h)
    want = reference_cocycle_failure(h, vals, zero)
    assert want is not None
    assert cocycle_failure(h, vals) == want


def scalar_non_cocycles():
    """The non-cocycles of test_cocycle.py: counit (x) counit on taft(2) with
    alpha(x, y) = 1, and a normalized form on k[Z/3] with entries
    1 + i + 2j off the unit row and column."""
    h = taft(2)
    vals = [row[:] for row in trivial_cocycle(h).values]
    vals[h.index_of("x")][h.index_of("y")] = h.field.one
    yield h, vals
    h = group_algebra(cyclic(3))
    u = h.unit_index
    yield h, [
        [h.counit[i] if u in (i, j) else h.field.scalar(1 + i + 2 * j) for j in range(h.dim)]
        for i in range(h.dim)
    ]


def test_scalar_non_cocycles_name_the_reference_triple():
    for h, vals in scalar_non_cocycles():
        want = reference_cocycle_failure(h, vals, h.field.zero)
        assert want is not None
        assert cocycle_failure(h, vals) == want
        assert light_middles(h, vals)[0] != "1"


def test_a_cocycle_whose_unit_acts_as_a_scalar_passes_without_the_unit_middle():
    """Twice a cocycle is a cocycle (both sides scale by 4); its unit acts
    as 2, which Light's test reads off the table and skips."""
    for h, alpha in scalar_cases():
        two = h.field.scalar(2)
        vals = [[v * two for v in row] for row in alpha.values]
        assert light_middles(h, vals)[0] != h.labels[h.unit_index]
        assert cocycle_failure(h, vals) is None
        assert reference_cocycle_failure(h, vals, h.field.zero) is None


# --- the cotwist ------------------------------------------------------------


def cotwist_inputs():
    for name, h in standard_instances():
        yield name, trivial_cocycle(h)
    for make in (lambda: symmetric(3), lambda: dihedral(4), lambda: cyclic(6)):
        h = group_algebra(make())
        for seed in range(3):
            yield f"{h.name} seed {seed}", coboundary_cocycle(h, seed)
    for n, entries in enumerate(TAFT2_COCYCLES):
        yield f"taft(2) non-lazy {n}", taft2_cocycle(entries)


def test_cotwist_matches_the_two_stage_reference():
    changed = 0
    for name, alpha in cotwist_inputs():
        h = alpha.hopf
        want = reference_cotwist_hopf(h, alpha)
        got = cotwist_hopf(h, alpha)
        assert list(got.mult.items()) == list(want.mult.items()), name
        assert got.antipode == want.antipode, name
        assert (got.family, got.name) == (want.family, want.name), name
        changed += got.mult != h.mult
    assert changed == len(TAFT2_COCYCLES)


# --- the convolution check and the twist over the support ------------------


def corrupted_algebras():
    """taft(3) and e(2) read back from JSON with one counit value, or one
    coproduct leg of the top basis element, changed: tables that
    `HopfAlgebra.from_json` accepts unchecked."""
    for h in (taft(3), e_algebra(2)):
        top = h.dim - 1
        payloads = [h.to_json() for _ in range(3)]
        payloads[0]["counit"][top] = payloads[0]["counit"][h.unit_index]
        payloads[1]["comult"][top] = payloads[1]["comult"][top][1:]
        leg = payloads[2]["comult"][top][0]
        leg[2] = [str(2 * Fraction(c)) for c in leg[2]]
        for p in payloads:
            yield HopfAlgebra.from_json(p)


def support_cases():
    """(hopf, values, inverse values, zero, bump): the scalar cases, and
    counit (x) counit, its own inverse, on each corrupted algebra."""
    for h, alpha in scalar_cases():
        yield h, alpha.values, alpha.inverse_values, h.field.zero, h.field.one
    for h in corrupted_algebras():
        vals = [[ci * cj for cj in h.counit] for ci in h.counit]
        yield h, vals, vals, h.field.zero, h.field.scalar(-2)


def variants(matrix, zero, bump, seed):
    """The matrix, then at seeded positions copies with one entry bumped,
    one entry zeroed, one row zeroed and one column zeroed: the last three
    shrink the support that the filtered loops read."""
    dim = len(matrix)
    rng = random.Random(seed)
    yield matrix
    for _ in range(3):
        i, j = rng.randrange(dim), rng.randrange(dim)
        yield corrupted(matrix, i, j, bump)
        yield corrupted(matrix, i, j, -matrix[i][j])
        yield [[zero] * dim if k == i else row[:] for k, row in enumerate(matrix)]
        yield [[zero if k == j else v for k, v in enumerate(row)] for row in matrix]


def assert_support_loops_match(h, vals, inv, zero, bump, seed):
    """The filtered convolution check against its reference on every
    variant of either matrix; returns the number of failing pairs."""
    failures = 0
    pairs = [(a, inv) for a in variants(vals, zero, bump, seed)]
    pairs += [(vals, b) for b in variants(inv, zero, bump, seed + 1)]
    for a, b in pairs:
        want = reference_convolution_failure(h, a, b, zero)
        assert convolution_failure(h, a, b, zero) == want
        failures += want is not None
    return failures


def assert_support_twists_match(h, vals, inv, zero, bump, seed):
    """The filtered twist of a matrix of scalars against its reference on
    every variant of vals, and on the second stage of cotwist_hopf, the
    table twisted by vals twisted again by every variant of inv."""
    for a in variants(vals, zero, bump, seed):
        for right in (False, True):
            got = _twist(h, h.mult, a, right)
            assert list(got.items()) == list(reference_twist(h, h.mult, a, right).items())
    left = reference_twist(h, h.mult, vals)
    for b in variants(inv, zero, bump, seed + 2):
        got = _twist(h, left, b, right=True)
        assert list(got.items()) == list(reference_twist(h, left, b, right=True).items())


def test_support_filtered_loops_match_the_reference_on_scalar_matrices():
    failures = 0
    for n, (h, vals, inv, zero, bump) in enumerate(support_cases()):
        failures += assert_support_loops_match(h, vals, inv, zero, bump, seed=n)
        assert_support_twists_match(h, vals, inv, zero, bump, seed=n)
    assert failures >= 60


def test_corrupted_counit_is_reported_at_the_reference_pair():
    h = next(corrupted_algebras())
    vals = [[ci * cj for cj in h.counit] for ci in h.counit]
    bad = reference_convolution_failure(h, vals, vals, h.field.zero)
    assert bad is not None
    assert convolution_failure(h, vals, vals, h.field.zero) == bad
    with pytest.raises(NotInvertible, match="convolution identity fails"):
        trivial_cocycle(h)


def test_support_filtered_loops_match_the_reference_on_sigma_of_taft3():
    h = taft(3)
    alpha = trivial_cocycle(h)
    ring = t_ring(h)
    sig = lifted_cocycle(h, alpha.values)
    inv = lifted_cocycle(h, alpha.inverse_values, right=True)
    assert convolution_failure(h, sig, inv, ring.zero()) is None
    failures = assert_support_loops_match(h, sig, inv, ring.zero(), ring.var(1), seed=3)
    assert failures >= 20


def test_an_empty_sum_is_checked_against_a_nonzero_counit_product():
    """x is group-like, so the convolution at (x, x) is the one product
    alpha(x, x) beta(x, x); with beta(x, x) zeroed the sum is empty while
    counit(x) counit(x) = 1, and (x, x) must be reported.  The pairs with a
    zero counit value, whose sums are empty too, must still pass: the
    check skips them without a comparison."""
    for h in (taft(3), taft(2)):
        alpha = trivial_cocycle(h)
        x = h.index_of("x")
        ring = t_ring(h)
        sig = lifted_cocycle(h, alpha.values)
        inv = lifted_cocycle(h, alpha.inverse_values, right=True)
        for vals, inverse, zero in (
            (alpha.values, alpha.inverse_values, h.field.zero),
            (sig, inv, ring.zero()),
        ):
            assert convolution_failure(h, vals, inverse, zero) is None
            emptied = corrupted(inverse, x, x, -inverse[x][x])
            assert reference_convolution_failure(h, vals, emptied, zero) == (x, x, False)
            assert convolution_failure(h, vals, emptied, zero) == (x, x, False)
