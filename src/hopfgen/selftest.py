"""Batteries of end-to-end checks over a fixed roster of instances.

Each criterion function builds its instances, runs the relevant
verification routines with exact arithmetic, and returns a Report.  Every
check is expected to pass except the quoted closed forms that criteria 5
and 10 carry: the exact computation refutes them, so they fail by design
(see the README, "Acceptance suite").  The functions are shared by the
test suite and the command-line ``selftest`` verb; ``run_criteria``
runs them one after another.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache

from .cocycle import coboundary_cocycle, cotwist_hopf, is_lazy, trivial_cocycle
from .errors import RangeError, WitnessFailure
from .generic_base import (
    decompose,
    decompose_with_residue,
    gamma_generators,
    jacobian_check,
    niceness_witnesses,
    quotient_presentation_check,
    torus_minor_determinant,
    uprime_relations_check,
    verify_sigma,
)
from .groups import (
    abelianization,
    alternating,
    character_from_exponents,
    cyclic,
    dihedral,
    direct_product,
    symmetric,
)
from .hopf import (
    HopfAlgebra,
    center,
    e_algebra,
    e_basis,
    group_algebra,
    monomial_type_i,
    structure_equal,
    taft,
    verify_hopf_axioms,
)
from .identities import (
    NCPoly,
    is_identity,
    monomial_group_maps,
    mu,
    push_forward,
    symbol,
)
from .lattice import named_basis, pq_generation_check, y_group
from .linalg import collect
from .arith import make_field
from .report import Report
from .tring import TElement, TensorH, power_product, t_ring, verify_t_inverse


def klein_monomial() -> HopfAlgebra:
    g = direct_product(cyclic(2), cyclic(2))
    f = make_field(2)
    chi = character_from_exponents(g, f, [0, 0, 1, 1])
    return monomial_type_i(g, g.index_of("(a,e)"), chi, f)


@lru_cache(maxsize=1)
def standard_instances() -> tuple[tuple[str, HopfAlgebra], ...]:
    """The roster every roster-wide criterion runs over.

    Cached so that the data derived from each instance, which lives on
    the instance (coordinate ring, presentation, centre span), is built
    once and reused across criteria.
    """
    out: list[tuple[str, HopfAlgebra]] = []
    for n in range(2, 6):
        out.append((f"taft({n})", taft(n)))
    for n in range(1, 5):
        out.append((f"e({n})", e_algebra(n)))
    for n in range(1, 13):
        out.append((f"k[Z/{n}]", group_algebra(cyclic(n))))
    out.append(("k[Z/2 x Z/2]", group_algebra(direct_product(cyclic(2), cyclic(2)))))
    out.append(("k[S3]", group_algebra(symmetric(3))))
    out.append(("k[S4]", group_algebra(symmetric(4))))
    out.append(("k[D4]", group_algebra(dihedral(4))))
    out.append(("k[A4]", group_algebra(alternating(4))))
    out.append(("monomial(Klein,2)", klein_monomial()))
    return tuple(out)


def _instance(name: str) -> HopfAlgebra:
    for label, h in standard_instances():
        if label == name:
            return h
    raise KeyError(name)


def _note(sub: Report) -> str:
    if sub.ok:
        return ""
    return "; ".join(c.name for c in sub.failures())


# --- criteria ---------------------------------------------------------------


def criterion_1(seed: int = 0) -> Report:
    """Every roster instance passes the full structure-table battery."""
    rep = Report("axiom battery over the roster")
    for name, h in standard_instances():
        sub = verify_hopf_axioms(h)
        rep.add(f"axioms hold: {name}", sub.ok, _note(sub))
    return rep


def criterion_2(seed: int = 0) -> Report:
    """Both convolution identities of the coordinate inverse, basiswise."""
    rep = Report("coordinate inverses over the roster")
    for name, h in standard_instances():
        sub = verify_t_inverse(h)
        rep.add(f"convolution inverse verified: {name}", sub.ok, _note(sub))
    return rep


SIGMA_NAMES = ("taft(2)", "taft(3)", "e(1)", "e(2)", "k[S3]")


def criterion_3(seed: int = 0) -> Report:
    """The lifted cocycle passes its three identities within budget."""
    rep = Report("lifted cocycle verification")
    start = time.perf_counter()
    for name in SIGMA_NAMES:
        sub = verify_sigma(_instance(name))
        rep.add(f"lifted cocycle verified: {name}", sub.ok, _note(sub))
    elapsed = time.perf_counter() - start
    rep.add(
        "combined runtime below thirty seconds",
        elapsed < 30.0,
        f"{elapsed:.2f}s",
    )
    return rep


def criterion_4(seed: int = 0) -> Report:
    """The rank-two instance has the pinned six-element generator set."""
    rep = Report("generator set at n=2")
    h = _instance("taft(2)")
    ring = t_ring(h)
    pres = gamma_generators(h)
    got = set(pres.plain_gens) | set(pres.invertible_gens)
    got |= {g.inverse() for g in pres.invertible_gens}
    m = ring.monomial
    one = ring.field.one
    expected = {
        ring.element({m(((0, 1),)): one}),
        ring.element({m(((0, -1),)): one}),
        ring.element({m(((1, 2),)): one}),
        ring.element({m(((1, -2),)): one}),
        ring.element({m(((1, 1), (2, 1))): one}),
        ring.element({m(((3, 1),)): one}),
    }
    rep.add(
        "generators with inverses match the quadratic set",
        got == expected,
        ", ".join(sorted(g.to_text() for g in got)),
    )
    return rep


def criterion_5(seed: int = 0) -> Report:
    """Jacobian certificates: closed forms at small rank, numeric beyond.

    The check "torus minor matches the closed form up to sign: taft(4)"
    quotes the coefficient -2 and fails by design: the exact minor of
    taft(n) is n*t[x]^(1-n(n-1)/2)*t[x^(n-1)], so at n = 4 it is
    4*t[x]^-5*t[x^3].  The README ("Acceptance suite") has the proof."""
    rep = Report("jacobian certificates")
    h3 = _instance("taft(3)")
    ring3 = t_ring(h3)
    d3 = torus_minor_determinant(h3)
    exp3 = ring3.element(
        {ring3.monomial(((1, -2), (2, 1))): ring3.field.scalar(3)}
    )
    rep.add(
        "torus minor matches the closed form up to sign: taft(3)",
        d3 == exp3 or d3 == exp3 * ring3.field.scalar(-1),
        f"computed {d3.to_text()}",
    )
    h4 = _instance("taft(4)")
    ring4 = t_ring(h4)
    d4 = torus_minor_determinant(h4)
    exp4 = ring4.element(
        {ring4.monomial(((1, -5), (3, 1))): ring4.field.scalar(-2)}
    )
    rep.add(
        "torus minor matches the closed form up to sign: taft(4)",
        d4 == exp4 or d4 == exp4 * ring4.field.scalar(-1),
        f"computed {d4.to_text()}",
    )
    for name in ("taft(5)", "e(3)"):
        h = _instance(name)
        det, ok = jacobian_check(h, seed=seed)
        rep.add(
            f"random-point rank certificate nonzero: {name}",
            bool(ok) and not det.is_zero,
            det.to_text(),
        )
    return rep


DECOMPOSE_NAMES = (
    "taft(2)",
    "taft(3)",
    "taft(4)",
    "e(1)",
    "e(2)",
    "e(3)",
    "monomial(Klein,2)",
)


def _roundtrip_target(rng, ring, pres) -> tuple[TElement, tuple[tuple[int, ...], ...]]:
    """One seeded product of the presentation's generators, invertible ones
    to powers in [-2, 2] and plain ones in [0, 2], drawn in that order, and
    its (invertible, plain) exponents.  Every generator is one monomial, so
    the product is one `power_product` of their keys times the product of
    their coefficients' powers."""
    inv = tuple(rng.randint(-2, 2) for _ in pres.invertible_gens)
    plain = tuple(rng.randint(0, 2) for _ in pres.plain_gens)
    coeff = ring.field.one
    factors = []
    for (m, c), e in zip(pres.factors, inv + plain):
        if e:
            factors.append((m, e))
            if c is not None:
                coeff = coeff * c**e
    return TElement(ring, {power_product(factors, ring.width): coeff}), (inv, plain)


def criterion_6(seed: int = 0) -> Report:
    """Seeded decomposition round-trips, with and without residue."""
    rep = Report("base decomposition round-trips")
    for name in DECOMPOSE_NAMES:
        h = _instance(name)
        ring = t_ring(h)
        pres = gamma_generators(h)
        rng = random.Random(f"{seed}:roundtrip:{name}")
        bad = 0
        for _ in range(200):
            elem, drawn = _roundtrip_target(rng, ring, pres)
            wits = decompose(h, elem)
            if (
                len(wits) != 1
                or any(wits[0].residue_exps)
                or (wits[0].invertible_exps, wits[0].plain_exps) != drawn
                or wits[0].remultiply() != elem
            ):
                bad += 1
        rep.add(
            f"200 degree-zero monomials remultiply exactly: {name}",
            bad == 0,
            f"{bad} failures" if bad else "",
        )
    h = _instance("taft(3)")
    ring = t_ring(h)
    gl = set(h.grouplikes)
    rng = random.Random(f"{seed}:residue")
    bad = 0
    for _ in range(50):
        pairs = []
        for v in range(h.dim):
            e = rng.randint(-3, 3) if v in gl else rng.randint(0, 2)
            if e:
                pairs.append((v, e))
        mon = ring.monomial(tuple(pairs))
        wit, residue = decompose_with_residue(h, mon)
        target = ring.element({mon: ring.field.one})
        if (
            len(residue) != 1
            or not 0 <= residue[0] < 3
            or wit.remultiply() != target
        ):
            bad += 1
    rep.add(
        "50 arbitrary monomials split as base times bounded residue: taft(3)",
        bad == 0,
        f"{bad} failures" if bad else "",
    )
    return rep


QUOTIENT_NAMES = DECOMPOSE_NAMES


def criterion_7(seed: int = 0) -> Report:
    """The counit-degree quotient behaves on every supported instance."""
    rep = Report("quotient onto the grading group algebra")
    names = list(QUOTIENT_NAMES) + [
        name for name, _ in standard_instances() if name.startswith("k[")
    ]
    for name in names:
        sub = quotient_presentation_check(_instance(name))
        rep.add(f"quotient checks pass: {name}", sub.ok, _note(sub))
    return rep


def criterion_8(seed: int = 0) -> Report:
    """Every generator carries a verified localized preimage witness."""
    rep = Report("niceness witnesses")
    for name in DECOMPOSE_NAMES:
        h = _instance(name)
        pres = gamma_generators(h)
        want = set(pres.plain_gens) | set(pres.invertible_gens)
        want |= {g.inverse() for g in pres.invertible_gens}
        try:
            wits = niceness_witnesses(h)
        except WitnessFailure as exc:
            rep.add(f"witnesses verified: {name}", False, str(exc))
            continue
        rep.add(
            f"witnesses verified: {name}",
            set(wits) == want,
            f"{len(wits)} generators",
        )
    return rep


def criterion_9(seed: int = 0) -> Report:
    """Image-model relations and free rank of the universal letters."""
    rep = Report("universal letter relations")
    for name in DECOMPOSE_NAMES:
        sub = uprime_relations_check(_instance(name))
        rep.add(f"letter relations hold: {name}", sub.ok, _note(sub))
    return rep


def criterion_10(seed: int = 0) -> Report:
    """Center dimensions: scalars for the cyclic family, even products
    for the exterior-type family.

    The checks "center has dimension 2^(n-1)" and "even products are
    central and span" quote a centre of E(n) without x*y_1...y_n, which is
    central at even n; they fail by design at e(2) and e(4), where the
    exact dimensions are 3 and 9.  The README ("Acceptance suite") has the
    proof."""
    rep = Report("centers")
    for n in range(1, 5):
        h = _instance(f"e({n})")
        cen = center(h)
        basis = e_basis(n)
        expected = {
            i
            for i, (a, s) in enumerate(basis)
            if a == 0 and len(s) % 2 == 0
        }
        claimed_central = all(
            h.mult.get((i, j), ()) == h.mult.get((j, i), ())
            for i in expected
            for j in range(h.dim)
        )
        spanned = all(set(z) <= expected for z in cen)
        rep.add(
            f"center has dimension 2^(n-1): e({n})",
            len(cen) == 2 ** (n - 1),
            f"computed dimension {len(cen)}",
        )
        rep.add(
            f"even products are central and span: e({n})",
            claimed_central and spanned and len(expected) == 2 ** (n - 1),
            "" if spanned else "extra central elements outside the span",
        )
    for n in range(2, 5):
        h = _instance(f"taft({n})")
        cen = center(h)
        scalars_only = len(cen) == 1 and set(cen[0]) == {h.unit_index}
        rep.add(
            f"center is the scalars: taft({n})",
            scalars_only,
            f"computed dimension {len(cen)}",
        )
    return rep


def criterion_11(seed: int = 0) -> Report:
    """Lattice indices, named bases, and pair/triple generation."""
    rep = Report("degree-zero lattices")
    groups = []
    for name, h in standard_instances():
        if name.startswith("k["):
            groups.append((name, h.family["group"]))
    for name, g in groups:
        ab, _ = abelianization(g)
        yl = y_group(g)
        rep.add(
            f"index equals the abelianization order: {name}",
            yl.index == ab.order,
            f"index {yl.index}, |G_ab| {ab.order}",
        )
        sub = pq_generation_check(g)
        rep.add(f"pair/triple vectors generate: {name}", sub.ok, _note(sub))
    for n in range(2, 13):
        nb = named_basis(cyclic(n), "cyclic")
        rep.add(f"named cyclic basis has index {n}", nb.index == n, "")
    nb = named_basis(direct_product(cyclic(2), cyclic(3)), "product", m=2, n=3)
    rep.add("named product basis: Z/2 x Z/3", nb.index == 6, f"index {nb.index}")
    nb = named_basis(direct_product(cyclic(2), cyclic(2)), "product", m=2, n=2)
    rep.add("named product basis: Z/2 x Z/2", nb.index == 4, f"index {nb.index}")
    for n in (3, 4):
        nb = named_basis(symmetric(n), "symmetric")
        rep.add(
            f"named symmetric basis: S{n}", nb.index == 2, f"index {nb.index}"
        )
    return rep


def criterion_12(seed: int = 0) -> Report:
    """Identity detection with a pinned failure defect."""
    rep = Report("identity detection")
    h = _instance("taft(3)")
    a0 = trivial_cocycle(h)
    p = symbol(h, "1") * symbol(h, "x") - symbol(h, "x") * symbol(h, "1")
    rep.add(
        "unit letter commutes with the group-like letter: taft(3)",
        is_identity(h, a0, p),
        "",
    )
    hz = _instance("k[Z/6]")
    az = trivial_cocycle(hz)
    pz = symbol(hz, 1) * symbol(hz, 2) - symbol(hz, 2) * symbol(hz, 1)
    rep.add("group letters commute: k[Z/6]", is_identity(hz, az, pz), "")
    py = symbol(h, "y") * symbol(h, "x") - symbol(h, "x") * symbol(h, "y")
    img = mu(h, a0, py)
    ring = t_ring(h)
    defect = h.field.q - h.field.one
    expected = TensorH(
        ring,
        h,
        {(ring.monomial(((0, 1), (1, 1))), h.index_of("x y")): defect},
    )
    rep.add(
        "skew letters fail with the pinned image: taft(3)",
        (not is_identity(h, a0, py)) and img == expected,
        img.to_text(),
    )
    return rep


def criterion_13(seed: int = 0) -> Report:
    """Cotwisting along the trivial and lazy cocycles changes nothing."""
    rep = Report("cotwist invariance")
    for name, h in standard_instances():
        twisted = cotwist_hopf(h, trivial_cocycle(h))
        rep.add(
            f"trivial cotwist returns the same tables: {name}",
            structure_equal(twisted, h),
            "",
        )
    hz = _instance("k[Z/6]")
    alpha = coboundary_cocycle(hz, seed=seed + 11)
    rep.add("seeded coboundary cocycle is lazy", is_lazy(hz, alpha), "")
    twisted = cotwist_hopf(hz, alpha)
    same = structure_equal(twisted, hz)

    def texts(h: HopfAlgebra) -> set[str]:
        pres = gamma_generators(h)
        out = {g.to_text() for g in pres.plain_gens}
        out |= {g.to_text() for g in pres.invertible_gens}
        out |= {g.inverse().to_text() for g in pres.invertible_gens}
        return out

    rep.add(
        "lazy cotwist preserves the generator set",
        same and texts(twisted) == texts(hz),
        "",
    )
    return rep


def criterion_14(seed: int = 0) -> Report:
    """Projection after inclusion is the identity on group-level words."""
    rep = Report("level-zero section")
    mono = _instance("monomial(Klein,2)")
    iota, pi = monomial_group_maps(mono)
    kg = iota.source
    rng = random.Random(f"{seed}:maps")
    bad = 0
    for _ in range(50):
        pairs = []
        for _t in range(rng.randint(1, 3)):
            word = tuple(
                rng.randrange(kg.dim) for _ in range(rng.randint(0, 4))
            )
            c = kg.field.scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            pairs.append((word, c))
        poly = NCPoly(kg, collect(pairs), 16)
        if push_forward(pi, push_forward(iota, poly)) != poly:
            bad += 1
    rep.add(
        "50 seeded polynomials survive the round trip",
        bad == 0,
        f"{bad} failures" if bad else "",
    )
    return rep


CRITERIA: tuple[tuple[int, str], ...] = (
    (1, "axiom battery over the roster"),
    (2, "coordinate inverses over the roster"),
    (3, "lifted cocycle verification"),
    (4, "generator set at n=2"),
    (5, "jacobian certificates"),
    (6, "base decomposition round-trips"),
    (7, "quotient onto the grading group algebra"),
    (8, "niceness witnesses"),
    (9, "universal letter relations"),
    (10, "centers"),
    (11, "degree-zero lattices"),
    (12, "identity detection"),
    (13, "cotwist invariance"),
    (14, "level-zero section"),
)

_FUNCS = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
    13: criterion_13,
    14: criterion_14,
}


def run_criteria(
    numbers=None, seed: int = 0, jobs: int = 1
) -> list[tuple[int, str, Report]]:
    """Run the requested criteria (all by default) and return their
    reports in numeric order.  The criteria are pure Python and run
    serially; `jobs` is kept for callers that pass 1 and admits no other
    value."""
    if jobs != 1:
        raise RangeError(f"jobs must be 1, got {jobs}")
    wanted = sorted(set(numbers) if numbers else _FUNCS)
    unknown = [n for n in wanted if n not in _FUNCS]
    if unknown:
        raise KeyError(f"unknown criteria {unknown}")
    titles = dict(CRITERIA)
    reports = [_FUNCS[n](seed=seed) for n in wanted]
    return [(n, titles[n], rep) for n, rep in zip(wanted, reports)]
