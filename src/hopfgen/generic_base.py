"""Presentations and exact certificates for the base algebra of coinvariants.

Everything here lives inside the localized coordinate ring of one algebra
instance.  The degree-zero part of that ring is generated by finitely many
Laurent monomials; this module produces those generators family by family
and then certifies every structural claim about them by exact arithmetic:
the cocycle lifted to the coordinate ring satisfies the cocycle identity,
the generators are algebraically independent (Jacobian), every degree-zero
monomial factors over them (decomposition witnesses), the quotient by the
generators is the group algebra of the grading group, each generator is hit
by an explicit word under the universal evaluation map (niceness), and the
evaluation image is a free module of the expected rank over the base.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .arith import Scalar, q_binomial
from .cocycle import trivial_cocycle
from .errors import (
    NotDegreeZero,
    OutOfLocalization,
    RangeError,
    SingularJacobian,
    UnsupportedFamily,
    WitnessFailure,
)
from .hopf import HopfAlgebra, e_basis, hab_grading
from .identities import LocalizedDenominator, NCPoly, mu, symbol
# solve_in_lattice is unused here but stays importable from this module:
# perfbench/tests/test_perfbench_tracing.py looks it up as a wrapped name.
from .lattice import ReducedBasis, solve_in_lattice, y_group  # noqa: F401
from .linalg import scalar_det
from .report import Report
from .tring import TElement, TMonomial, TensorH, t_inverse_map, t_ring

# Witness words can get long (lattice coefficients repeat whole letters),
# so they carry their own cap instead of the default identity-testing one.
WITNESS_CAP = 4096


def _resolve(hopf: HopfAlgebra, b) -> int:
    if isinstance(b, int):
        if not 0 <= b < hopf.dim:
            raise RangeError(f"basis index {b} out of range")
        return b
    return hopf.index_of(b)


# ---------------------------------------------------------------------------
# The coordinate-ring lift of a two-cocycle.


def generic_cocycle(hopf: HopfAlgebra, alpha, b, bp) -> TElement:
    """One value of the cocycle lifted to the coordinate ring.

    Both arguments are comultiplied twice; the outer legs contribute a
    generator each, the middle legs feed the scalar cocycle, and the inner
    legs are multiplied and closed off with the convolution inverse."""
    ring = t_ring(hopf)
    tinv = t_inverse_map(hopf)
    i = _resolve(hopf, b)
    j = _resolve(hopf, bp)
    acc = ring.zero()
    for (i1, i2, i3), ci in hopf.comult_power(i, 3).items():
        head = ring.var(i1)
        for (j1, j2, j3), cj in hopf.comult_power(j, 3).items():
            a = alpha(i2, j2)
            if a.is_zero:
                continue
            part = head * ring.var(j1) * (ci * cj * a)
            for m, cm in hopf.mult.get((i3, j3), ()):
                acc = acc + part * tinv[m] * cm
    return acc


def generic_cocycle_inverse(hopf: HopfAlgebra, alpha, b, bp) -> TElement:
    """Convolution inverse of the lifted cocycle, built leg by leg: outer
    legs multiplied into one generator, middle legs through the inverse of
    the scalar cocycle, inner legs each closed with the coordinate
    inverse."""
    ring = t_ring(hopf)
    tinv = t_inverse_map(hopf)
    i = _resolve(hopf, b)
    j = _resolve(hopf, bp)
    acc = ring.zero()
    for (i1, i2, i3), ci in hopf.comult_power(i, 3).items():
        for (j1, j2, j3), cj in hopf.comult_power(j, 3).items():
            a = alpha.inverse(i2, j2)
            if a.is_zero:
                continue
            tail = tinv[i3] * tinv[j3] * (ci * cj * a)
            for m, cm in hopf.mult.get((i1, j1), ()):
                acc = acc + ring.var(m) * tail * cm
    return acc


def verify_sigma(hopf: HopfAlgebra, alpha=None) -> Report:
    """Three exact facts about the lifted cocycle: it satisfies the cocycle
    identity with coordinate-ring values, it is convolution invertible, and
    substituting the counit recovers the scalar cocycle."""
    if alpha is None:
        alpha = trivial_cocycle(hopf)
    ring = t_ring(hopf)
    dim = hopf.dim
    sig = [[generic_cocycle(hopf, alpha, i, j) for j in range(dim)] for i in range(dim)]
    inv = [
        [generic_cocycle_inverse(hopf, alpha, i, j) for j in range(dim)]
        for i in range(dim)
    ]
    rep = Report(f"lifted cocycle on {hopf.name or 'algebra'}")

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
    rep.add(
        "cocycle identity in the coordinate ring",
        bad is None,
        "" if bad is None else "fails at ({}, {}, {})".format(*(hopf.labels[i] for i in bad)),
    )

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
    rep.add(
        "convolution inverse",
        bad is None,
        "" if bad is None else "fails at ({}, {})".format(*(hopf.labels[i] for i in bad)),
    )

    counit = list(hopf.counit)
    bad = None
    for x in range(dim):
        for y in range(dim):
            if ring.evaluate(sig[x][y], counit) != alpha(x, y):
                bad = (x, y, "value")
                break
            if ring.evaluate(inv[x][y], counit) != alpha.inverse(x, y):
                bad = (x, y, "inverse")
                break
        if bad:
            break
    rep.add(
        "counit substitution recovers the scalar cocycle",
        bad is None,
        "" if bad is None else "fails at ({}, {}) [{}]".format(hopf.labels[bad[0]], hopf.labels[bad[1]], bad[2]),
    )
    return rep


# ---------------------------------------------------------------------------
# Generators of the base algebra.


@dataclass(frozen=True)
class GammaPresentation:
    """Finite generator data for the base algebra of one instance.

    invertible_gens enter with both signs, plain_gens only with nonnegative
    exponents; all of them are degree-zero Laurent monomials.  residue_vars
    name one coordinate generator per cyclic factor of the grading group,
    used to peel an arbitrary monomial down to degree zero.  special_case
    marks the one hand-picked quadratic generator set."""

    hopf: HopfAlgebra
    family_tag: str
    invertible_gens: tuple[TElement, ...]
    plain_gens: tuple[TElement, ...]
    residue_vars: tuple[int, ...]
    special_case: bool = False

    @property
    def generators(self) -> tuple[TElement, ...]:
        return self.invertible_gens + self.plain_gens

    @cached_property
    def torus_lattice(self) -> ReducedBasis:
        """The lattice spanned by the exponent vectors of the invertible
        generators over the group-likes, reduced once per presentation."""
        pos = {v: i for i, v in enumerate(self.hopf.grouplikes)}
        rows = []
        for gen in self.invertible_gens:
            row = [0] * len(pos)
            for i, e in next(iter(gen.terms)).exps:
                row[pos[i]] = e
            rows.append(row)
        return ReducedBasis(rows)


def gamma_generators(hopf: HopfAlgebra) -> GammaPresentation:
    """Generators of the degree-zero part of the localized coordinate ring,
    one recipe per family; every generator is checked to be a degree-zero
    Laurent monomial before the presentation is returned, and the
    presentation is kept on the instance."""
    if hopf._presentation is not None:
        return hopf._presentation
    kind = hopf.family.get("kind") if hopf.family else None
    if kind == "taft":
        pres = _taft_presentation(hopf)
    elif kind == "e":
        pres = _e_presentation(hopf)
    elif kind == "monomial":
        pres = _monomial_presentation(hopf)
    elif kind == "group":
        pres = _group_presentation(hopf)
    else:
        raise UnsupportedFamily(f"no base-algebra presentation for family {kind!r}")
    ring = t_ring(hopf)
    zero = ring.grading_group().identity
    for gen in pres.generators:
        if len(gen.terms) != 1:
            raise WitnessFailure("presentation generators must be Laurent monomials")
        if ring.hab_degree(next(iter(gen.terms))) != zero:
            raise WitnessFailure(f"generator {gen.to_text()} is not degree zero")
    hopf._presentation = pres
    return pres


def _ab_lift_vars(hopf: HopfAlgebra) -> tuple[int, ...]:
    """One group-like variable per cyclic factor of the grading group,
    whose degree is that factor's standard generator."""
    ab, deg = hab_grading(hopf)
    k = len(ab.invariant_factors)
    lifts = []
    for t in range(k):
        unit = tuple(1 if s == t else 0 for s in range(k))
        for b in hopf.grouplikes:
            if deg[b] == unit:
                lifts.append(b)
                break
        else:
            raise RangeError("no group-like variable lifts a grading generator")
    return tuple(lifts)


def _taft_presentation(hopf: HopfAlgebra) -> GammaPresentation:
    n = hopf.family["n"]
    ring = t_ring(hopf)
    inv = [ring.var(0), ring.var(1) * ring.var(n - 1)]
    inv.extend(ring.var(i) * ring.var(1, -i) for i in range(2, n))
    assert len(inv) == n
    if n == 2:
        # quadratic instance: the mixed generator needs no torus partner
        plain = (ring.var(1) * ring.var(2), ring.var(3))
        return GammaPresentation(hopf, "taft", tuple(inv), plain, (1,), True)
    plain = []
    for lvl in range(1, n):
        for a in range(n):
            k = (-a - lvl) % n
            plain.append(ring.var(lvl * n + a) * ring.var(k))
    assert len(plain) == n * (n - 1)
    return GammaPresentation(hopf, "taft", tuple(inv), tuple(plain), _ab_lift_vars(hopf))


def _e_presentation(hopf: HopfAlgebra) -> GammaPresentation:
    n = hopf.family["n"]
    ring = t_ring(hopf)
    basis = e_basis(n)
    inv = (ring.var(0), ring.var(1, 2))
    plain = []
    for b in range(2, hopf.dim):
        a, s = basis[b]
        with_x = (len(s) % 2 == 1) == (a == 0)
        plain.append(ring.var(1) * ring.var(b) if with_x else ring.var(b))
    assert len(plain) == 2 ** (n + 1) - 2
    return GammaPresentation(hopf, "e", inv, tuple(plain), (1,))


def _torus_monomial(ring, row) -> TElement:
    mon = ring.monomial([(i, e) for i, e in enumerate(row) if e])
    return ring.element({mon: ring.field.one})


def _monomial_presentation(hopf: HopfAlgebra) -> GammaPresentation:
    fam = hopf.family
    group, n, x = fam["group"], fam["n"], fam["x"]
    order = group.order
    ring = t_ring(hopf)
    lat = y_group(group)
    inv = tuple(_torus_monomial(ring, row) for row in lat.basis)
    plain = []
    for lvl in range(1, n):
        xl = group.power(x, lvl)
        for g in range(order):
            plain.append(ring.var(lvl * order + g) * ring.var(group.mul(g, xl), -1))
    assert len(plain) == (n - 1) * order
    return GammaPresentation(hopf, "monomial", inv, tuple(plain), _ab_lift_vars(hopf))


def _group_presentation(hopf: HopfAlgebra) -> GammaPresentation:
    group = hopf.family["group"]
    ring = t_ring(hopf)
    lat = y_group(group)
    inv = tuple(_torus_monomial(ring, row) for row in lat.basis)
    return GammaPresentation(hopf, "group", inv, (), _ab_lift_vars(hopf))


# ---------------------------------------------------------------------------
# Jacobian certificates.


def _partial(gen: TElement, v: int) -> TElement:
    """Formal partial derivative; exponents only ever drop by one, so the
    result stays inside the localization."""
    ring = gen.ring
    acc: dict[TMonomial, Scalar] = {}
    scale = ring.field.scalar
    for m, c in gen.terms.items():
        e = m.exp_of(v)
        if e == 0:
            continue
        key = TMonomial.from_pairs(m.exps + ((v, -1),))
        add = c * scale(e)
        cur = acc.get(key)
        acc[key] = add if cur is None else cur + add
    return ring.element(acc)


def _perm_sign(perm: tuple[int, ...]) -> int:
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def _det_telements(rows: list[list[TElement]], ring) -> TElement:
    total = ring.zero()
    for perm in itertools.permutations(range(len(rows))):
        term = ring.one()
        dead = False
        for r, c in enumerate(perm):
            entry = rows[r][c]
            if not entry.terms:
                dead = True
                break
            term = term * entry
        if not dead:
            total = total + term * ring.field.scalar(_perm_sign(perm))
    return total


def torus_minor_determinant(hopf: HopfAlgebra) -> TElement:
    """Symbolic determinant of the torus block: partials of the invertible
    generators with respect to the group-like variables, expanded over
    permutations.  Only sensible for small torus blocks."""
    pres = gamma_generators(hopf)
    if len(pres.invertible_gens) > 8:
        raise RangeError("torus block too large for a symbolic determinant")
    ring = t_ring(hopf)
    rows = [
        [_partial(gen, v) for v in hopf.grouplikes] for gen in pres.invertible_gens
    ]
    return _det_telements(rows, ring)


def jacobian_check(hopf: HopfAlgebra, seed: int = 0) -> tuple[TElement, bool]:
    """Certify that the presentation's generators are algebraically
    independent: the Jacobian at the generators is square, and its
    determinant is nonzero.

    For the diagonal-pairing family the determinant splits as the symbolic
    torus minor times the product of single-variable partials, and is
    returned symbolically (up to the sign of the generator ordering).  For
    everything else the matrix is evaluated at random rational points and
    the exact determinant of one nonsingular sample is returned."""
    pres = gamma_generators(hopf)
    gens = list(pres.generators)
    if len(gens) != hopf.dim:
        raise SingularJacobian(
            f"{len(gens)} generators against {hopf.dim} variables"
        )
    ring = t_ring(hopf)
    if pres.family_tag == "taft" and hopf.family["n"] <= 4:
        gl = set(hopf.grouplikes)
        det = torus_minor_determinant(hopf)
        seen = set()
        for gen in pres.plain_gens:
            mon = next(iter(gen.terms))
            own = [i for i, e in mon.exps if i not in gl]
            assert len(own) == 1 and mon.exp_of(own[0]) == 1
            seen.add(own[0])
            det = det * _partial(gen, own[0])
        assert len(seen) == hopf.dim - len(gl)
        if not det.terms:
            raise SingularJacobian("symbolic determinant vanished")
        return det, True

    rng = random.Random(seed)
    field = hopf.field
    for _ in range(3):
        values = [
            field.scalar(Fraction(rng.randint(1, 997), rng.randint(1, 97)))
            for _ in range(hopf.dim)
        ]
        rows = [
            [ring.evaluate(_partial(gen, v), values) for v in range(hopf.dim)]
            for gen in gens
        ]
        det = scalar_det(rows, field)
        if not det.is_zero:
            return ring.scalar(det), True
    raise SingularJacobian("determinant vanished at three sample points")


# ---------------------------------------------------------------------------
# Decomposition over the generators.


@dataclass(frozen=True)
class DecompositionWitness:
    """Exact factorization of one monomial over the presentation: signed
    exponents for the invertible generators, nonnegative ones for the plain
    generators, and a residue exponent per cyclic grading factor that was
    peeled off first.  remultiply() reproduces the input exactly."""

    presentation: GammaPresentation
    coefficient: Scalar
    invertible_exps: tuple[int, ...]
    plain_exps: tuple[int, ...]
    residue_exps: tuple[int, ...]

    def remultiply(self) -> TElement:
        pres = self.presentation
        ring = t_ring(pres.hopf)
        out = ring.scalar(self.coefficient)
        for gen, e in zip(pres.invertible_gens, self.invertible_exps):
            if e:
                out = out * gen**e
        for gen, e in zip(pres.plain_gens, self.plain_exps):
            if e:
                out = out * gen**e
        for v, e in zip(pres.residue_vars, self.residue_exps):
            if e:
                out = out * ring.var(v, e)
        return out


def _decompose_monomial(
    hopf: HopfAlgebra, mon: TMonomial, coeff: Scalar, allow_residue: bool
) -> DecompositionWitness:
    pres = gamma_generators(hopf)
    ring = t_ring(hopf)
    ab = ring.grading_group()
    gl = set(hopf.grouplikes)

    work = {i: e for i, e in mon.exps}
    deg = ring.hab_degree(mon)
    residue = tuple(0 for _ in pres.residue_vars)
    if deg != ab.identity:
        if not allow_residue:
            raise NotDegreeZero(f"monomial of degree {deg}")
        residue = deg
        for v, k in zip(pres.residue_vars, deg):
            if k:
                work[v] = work.get(v, 0) - k

    # pair every non-torus variable with the unique generator containing it
    own_of = {}
    for p, gen in enumerate(pres.plain_gens):
        mon_g = next(iter(gen.terms))
        (own,) = [i for i, _ in mon_g.exps if i not in gl]
        own_of[own] = (p, mon_g)
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
    if back != TElement(ring, {ring.monomial(mon.exps): coeff}):
        raise WitnessFailure(f"re-multiplication mismatch: {back.to_text()}")
    return witness


def _input_terms(hopf: HopfAlgebra, elem) -> list[tuple[TMonomial, Scalar]]:
    ring = t_ring(hopf)
    if isinstance(elem, TMonomial):
        return [(ring.monomial(elem.exps), ring.field.one)]
    if isinstance(elem, TElement):
        if elem.ring.hopf is not hopf:
            raise RangeError("element belongs to a different coordinate ring")
        return sorted(elem.terms.items(), key=lambda kv: kv[0].exps)
    raise RangeError("expected a TMonomial or TElement")


def decompose(hopf: HopfAlgebra, elem) -> list[DecompositionWitness]:
    """Factor every monomial of a degree-zero element over the presentation,
    one verified witness per monomial.  Monomials of nonzero degree raise
    NotDegreeZero."""
    return [
        _decompose_monomial(hopf, m, c, allow_residue=False)
        for m, c in _input_terms(hopf, elem)
    ]


def decompose_with_residue(
    hopf: HopfAlgebra, elem
) -> tuple[DecompositionWitness, tuple[int, ...]]:
    """Factor one monomial of arbitrary degree: its grading degree is peeled
    off as powers of the residue variables (one exponent per cyclic factor,
    each reduced below the factor's order) and the rest decomposes over the
    generators."""
    terms = _input_terms(hopf, elem)
    if len(terms) != 1:
        raise RangeError("residue form takes a single monomial")
    m, c = terms[0]
    witness = _decompose_monomial(hopf, m, c, allow_residue=True)
    return witness, witness.residue_exps


# ---------------------------------------------------------------------------
# The quotient by the base: the group algebra of the grading group.


def quotient_presentation_check(hopf: HopfAlgebra) -> Report:
    """Three exact facts tying the base algebra to the grading group: each
    generator maps to its counit value in the quotient that kills
    non-torus variables and remembers only degrees, the quotient reaches
    every degree, and both coproduct legs of every generator stay on the
    correct side (left leg anywhere, right leg back in the base)."""
    pres = gamma_generators(hopf)
    ring = t_ring(hopf)
    ab, deg = hab_grading(hopf)
    gl = set(hopf.grouplikes)
    rep = Report(f"base-to-grading quotient on {hopf.name or 'algebra'}")

    def image(elem: TElement) -> dict[tuple[int, ...], Scalar]:
        acc: dict[tuple[int, ...], Scalar] = {}
        for m, c in elem.terms.items():
            g = ab.identity
            dead = False
            for i, e in m.exps:
                if i in gl:
                    g = ab.add(g, ab.scale(deg[i], e))
                elif e:
                    dead = True
                    break
            if dead:
                continue
            cur = acc.get(g)
            tot = c if cur is None else cur + c
            if tot.is_zero:
                acc.pop(g, None)
            else:
                acc[g] = tot
        return acc

    gammas: list[TElement] = []
    for gen in pres.invertible_gens:
        gammas.extend((gen, gen.inverse()))
    gammas.extend(pres.plain_gens)

    counit = list(hopf.counit)
    bad = []
    for gamma in gammas:
        eps = ring.evaluate(gamma, counit)
        want = {} if eps.is_zero else {ab.identity: eps}
        if image(gamma) != want:
            bad.append(gamma.to_text())
    rep.add(
        "generators map to their counit value",
        not bad,
        "; ".join(bad[:4]),
    )

    hit = {deg[b] for b in hopf.grouplikes}
    rep.add(
        "quotient reaches every grading degree",
        hit == set(ab.elements()),
        "" if hit == set(ab.elements()) else f"misses {len(set(ab.elements()) - hit)} degrees",
    )

    bad = []
    for gamma in gammas:
        for (_, right), c in ring.coproduct(gamma).items():
            if c.is_zero:
                continue
            if ring.hab_degree(right) != ab.identity:
                bad.append(f"{gamma.to_text()}: right leg off degree")
                continue
            try:
                _decompose_monomial(hopf, right, ring.field.one, allow_residue=False)
            except (NotDegreeZero, OutOfLocalization):
                bad.append(f"{gamma.to_text()}: right leg outside the base")
    rep.add(
        "coproduct right legs decompose over the base",
        not bad,
        "; ".join(bad[:4]),
    )

    if pres.special_case:
        rep.add(
            "hand-picked quadratic generator set in use",
            True,
            "generator exponents differ from the generic recipe",
        )
    return rep


# ---------------------------------------------------------------------------
# Niceness: explicit preimages under the universal evaluation map.


def _denominator_image(hopf: HopfAlgebra, alpha, dens: LocalizedDenominator) -> TElement:
    """Coordinate part of the evaluation image of the denominator word; the
    algebra part is always the unit."""
    ring = t_ring(hopf)
    img = mu(hopf, alpha, dens.ncpoly(WITNESS_CAP))
    items = list(img.terms.items())
    if len(items) != 1 or items[0][0][1] != hopf.unit_index:
        raise WitnessFailure("denominator word does not evaluate to a unit tensor")
    (mon, _), c = items[0]
    return ring.element({mon: c})


def _ncpoly_one(hopf: HopfAlgebra) -> NCPoly:
    return NCPoly(hopf, {(): hopf.field.one}, WITNESS_CAP)


def _taft_witnesses(hopf: HopfAlgebra, pres: GammaPresentation):
    n = hopf.family["n"]
    field = hopf.field
    ring = t_ring(hopf)
    X = [symbol(hopf, i, WITNESS_CAP) for i in range(hopf.dim)]
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

    w_tags = [("unit",), ("grouplike_power", 1)]
    out: dict[TElement, tuple[NCPoly, LocalizedDenominator]] = {}

    g = ring.var(0)
    out[g] = (X[0] * X[1] ** n, LocalizedDenominator(hopf, [("grouplike_power", 1)]))
    out[g.inverse()] = (X[0] ** (n - 1), LocalizedDenominator(hopf, [("unit",)] * n))
    g = ring.var(1) * ring.var(n - 1)
    out[g] = (X[1] * X[n - 1], LocalizedDenominator(hopf, []))
    out[g.inverse()] = (
        X[1] ** (n - 1) * X[n - 1] ** (n - 1),
        LocalizedDenominator(hopf, [("grouplike_power", 1), ("grouplike_power", n - 1)]),
    )
    for i in range(2, n):
        g = ring.var(i) * ring.var(1, -i)
        out[g] = (X[i] * X[1] ** (n - i), LocalizedDenominator(hopf, [("grouplike_power", 1)]))
        out[g.inverse()] = (
            X[i] ** (n - 1) * X[1] ** i,
            LocalizedDenominator(hopf, [("grouplike_power", i)]),
        )

    if n == 2:
        out[ring.var(1) * ring.var(2)] = (
            lift(0, 1) * X[1],
            LocalizedDenominator(hopf, list(w_tags)),
        )
        out[ring.var(3)] = (lift(1, 1), LocalizedDenominator(hopf, list(w_tags)))
        return out

    for lvl in range(1, n):
        for a in range(n):
            k = (-a - lvl) % n
            gamma = ring.var(lvl * n + a) * ring.var(k)
            out[gamma] = (
                lift(a, lvl) * X[k],
                LocalizedDenominator(hopf, list(w_tags) * lvl),
            )
    return out


def _e_witnesses(hopf: HopfAlgebra, pres: GammaPresentation):
    n = hopf.family["n"]
    field = hopf.field
    ring = t_ring(hopf)
    basis = e_basis(n)
    index = {bs: i for i, bs in enumerate(basis)}
    X = [symbol(hopf, i, WITNESS_CAP) for i in range(hopf.dim)]
    W = X[0] * X[1] * X[1]
    half = field.scalar(Fraction(-1, 2))
    Y = {
        i: X[1] * (X[index[(0, (i,))]] * X[1] - X[1] * X[index[(0, (i,))]]) * half
        for i in range(1, n + 1)
    }

    def y_word(subset: tuple[int, ...]) -> NCPoly:
        word = _ncpoly_one(hopf)
        for i in subset:
            word = word * Y[i]
        return word

    memo: dict[int, NCPoly] = {}

    def lift(b: int) -> NCPoly:
        got = memo.get(b)
        if got is not None:
            return got
        _, s = basis[b]
        if not s:
            out = X[b]
        else:
            out = X[b] * W ** len(s)
            for j, k, c in hopf.comult[b]:
                if j == b:
                    continue
                out = out - lift(j) * y_word(basis[k][1]) * c
        memo[b] = out
        return out

    w_tags = [("unit",), ("x_square",)]
    out: dict[TElement, tuple[NCPoly, LocalizedDenominator]] = {}

    g = ring.var(0)
    out[g] = (X[0], LocalizedDenominator(hopf, []))
    out[g.inverse()] = (X[0], LocalizedDenominator(hopf, [("unit",)] * 2))
    g = ring.var(1, 2)
    out[g] = (X[1] * X[1], LocalizedDenominator(hopf, []))
    out[g.inverse()] = (X[1] * X[1], LocalizedDenominator(hopf, [("x_square",)] * 2))

    for b in range(2, hopf.dim):
        a, s = basis[b]
        lvl = len(s)
        with_x = (lvl % 2 == 1) == (a == 0)
        gamma = ring.var(1) * ring.var(b) if with_x else ring.var(b)
        word = lift(b) * X[1] if with_x else lift(b)
        out[gamma] = (word, LocalizedDenominator(hopf, list(w_tags) * lvl))
    return out


def _lattice_witnesses(hopf: HopfAlgebra, pres: GammaPresentation, out) -> None:
    """Witnesses for the torus generators of the group-built families: solve
    for each generator over the pairing and triple-product vectors, positive
    coefficients become word letters and negative ones denominators."""
    group = hopf.family["group"]
    order = group.order
    field = hopf.field
    vecs: list[tuple[list[int], tuple[int, ...], tuple]] = []
    for g in range(order):
        gi = group.inv(g)
        row = [0] * order
        row[g] += 1
        row[gi] += 1
        vecs.append((row, (g, gi), ("pair_product", g)))
    for g in range(order):
        for h in range(order):
            k = group.inv(group.mul(g, h))
            row = [0] * order
            row[g] += 1
            row[h] += 1
            row[k] += 1
            vecs.append((row, (g, h, k), ("triple_product", g, h)))
    products = ReducedBasis([row for row, _, _ in vecs])

    pos = {v: i for i, v in enumerate(hopf.grouplikes)}
    for gen in pres.invertible_gens:
        base = [0] * order
        for i, e in next(iter(gen.terms)).exps:
            base[pos[i]] = e
        for gamma, vec in ((gen, base), (gen.inverse(), [-e for e in base])):
            coeffs = products.solve(vec)
            if coeffs is None:
                raise WitnessFailure(f"{gamma.to_text()} not reached by products")
            word: tuple[int, ...] = ()
            tags = []
            for c, (_, letters, tag) in zip(coeffs, vecs):
                if c > 0:
                    word = word + letters * c
                elif c < 0:
                    tags.extend([tag] * (-c))
            cap = max(WITNESS_CAP, len(word) + 1)
            out[gamma] = (
                NCPoly(hopf, {word: field.one}, cap),
                LocalizedDenominator(hopf, tags),
            )


def _monomial_witnesses(hopf: HopfAlgebra, pres: GammaPresentation):
    fam = hopf.family
    group, n, x = fam["group"], fam["n"], fam["x"]
    order = group.order
    field = hopf.field
    ring = t_ring(hopf)
    X = [symbol(hopf, i, WITNESS_CAP) for i in range(hopf.dim)]
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

    w_tags = [("unit",), ("pair_product", x)]
    out: dict[TElement, tuple[NCPoly, LocalizedDenominator]] = {}
    _lattice_witnesses(hopf, pres, out)
    for lvl in range(1, n):
        xl = group.power(x, lvl)
        for g in range(order):
            gx = group.mul(g, xl)
            gamma = ring.var(lvl * order + g) * ring.var(gx, -1)
            out[gamma] = (
                lift(g, lvl) * X[group.inv(gx)],
                LocalizedDenominator(hopf, [("pair_product", gx)] + list(w_tags) * lvl),
            )
    return out


def niceness_witnesses(hopf: HopfAlgebra):
    """One explicit preimage per generator (and per inverse of each
    invertible generator): gamma maps to a word P and a denominator list D
    such that evaluating P gives exactly (gamma times the image of D)
    tensor the unit.  Every witness is verified here before it is
    returned; a mismatch raises WitnessFailure."""
    pres = gamma_generators(hopf)
    if pres.family_tag == "taft":
        out = _taft_witnesses(hopf, pres)
    elif pres.family_tag == "e":
        out = _e_witnesses(hopf, pres)
    elif pres.family_tag == "monomial":
        out = _monomial_witnesses(hopf, pres)
    elif pres.family_tag == "group":
        out = {}
        _lattice_witnesses(hopf, pres, out)
    else:  # pragma: no cover - gamma_generators already rejects these
        raise UnsupportedFamily(pres.family_tag)

    ring = t_ring(hopf)
    alpha = trivial_cocycle(hopf)
    for gamma, (word, dens) in out.items():
        got = mu(hopf, alpha, word)
        want = TensorH.from_element(
            ring, hopf, gamma * _denominator_image(hopf, alpha, dens), hopf.unit_index
        )
        if got != want:
            raise WitnessFailure(
                f"witness for {gamma.to_text()} evaluates to {got.to_text()}"
            )
    return out


# ---------------------------------------------------------------------------
# Freeness of the evaluation image over the base.


def uprime_relations_check(hopf: HopfAlgebra) -> Report:
    """The evaluation image of the letters satisfies the defining relations
    of the instance with the nilpotent part conjugated to a torus-free
    slot, and the resulting ordered products are a free module basis: each
    is a single monomial tensor and their algebra legs are pairwise
    distinct."""
    kind = hopf.family.get("kind") if hopf.family else None
    ring = t_ring(hopf)
    alpha = trivial_cocycle(hopf)
    rep = Report(f"evaluation image relations on {hopf.name or 'algebra'}")

    def image(i: int) -> TensorH:
        return mu(hopf, alpha, symbol(hopf, i))

    def unit_tensor(elem: TElement) -> TensorH:
        return TensorH.from_element(ring, hopf, elem, hopf.unit_index)

    def pbw(products: dict[str, TensorH]) -> None:
        seen: dict[int, str] = {}
        bad = []
        for name, val in products.items():
            if len(val.terms) != 1:
                bad.append(f"{name} is not a monomial tensor")
                continue
            ((_, leg),) = val.terms.keys()
            if leg in seen:
                bad.append(f"{name} collides with {seen[leg]}")
            else:
                seen[leg] = name
        rep.add(
            f"ordered products form a free basis of rank {len(products)}",
            not bad,
            "; ".join(bad[:4]),
        )

    if kind == "taft":
        n = hopf.family["n"]
        q = hopf.field.q
        xi = image(1)
        eta = image(n) - xi.scale(ring.var(n) * ring.var(1, -1))
        rep.add(
            "corrected nilpotent letter lands on the unit coordinate",
            eta == TensorH.from_element(ring, hopf, ring.var(0), n),
            eta.to_text(),
        )
        rep.add("torus letter has order n", xi**n == unit_tensor(ring.var(1, n)), "")
        rep.add("nilpotent letter has vanishing n-th power", (eta**n).is_zero, "")
        rep.add(
            "commutation twists by the root of unity",
            eta * xi == (xi * eta).scale(q),
            "",
        )
        pbw(
            {
                f"p({i},{j})": xi**i * eta**j
                for i in range(n)
                for j in range(n)
            }
        )
    elif kind == "e":
        n = hopf.family["n"]
        basis = e_basis(n)
        index = {bs: i for i, bs in enumerate(basis)}
        xi = image(1)
        etas = {}
        ok = True
        for i in range(1, n + 1):
            b = index[(0, (i,))]
            etas[i] = image(b) - xi.scale(ring.var(b) * ring.var(1, -1))
            ok = ok and etas[i] == TensorH.from_element(ring, hopf, ring.var(0), b)
        rep.add("corrected nilpotent letters land on the unit coordinate", ok, "")
        rep.add("torus letter squares to its coordinate", xi * xi == unit_tensor(ring.var(1, 2)), "")
        rep.add(
            "nilpotent letters square to zero",
            all((etas[i] * etas[i]).is_zero for i in range(1, n + 1)),
            "",
        )
        rep.add(
            "letters anticommute",
            all((etas[i] * xi + xi * etas[i]).is_zero for i in range(1, n + 1))
            and all(
                (etas[i] * etas[j] + etas[j] * etas[i]).is_zero
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            ),
            "",
        )
        products = {}
        for a in range(2):
            for size in range(n + 1):
                for s in itertools.combinations(range(1, n + 1), size):
                    val = xi**a
                    for i in s:
                        val = val * etas[i]
                    products[hopf.labels[index[(a, s)]]] = val
        pbw(products)
    elif kind == "monomial":
        fam = hopf.family
        group, n, x, chi = fam["group"], fam["n"], fam["x"], fam["chi"]
        order = group.order
        y = order
        eta = image(y) - image(x).scale(ring.var(y) * ring.var(x, -1))
        rep.add(
            "corrected nilpotent letter lands on the identity coordinate",
            eta == TensorH.from_element(ring, hopf, ring.var(group.identity), y),
            eta.to_text(),
        )
        rep.add("nilpotent letter has vanishing n-th power", (eta**n).is_zero, "")
        rep.add(
            "commutation twists by the character",
            all(
                eta * image(g) == (image(g) * eta).scale(chi(g))
                for g in range(order)
            ),
            "",
        )
        pbw(
            {
                f"p({hopf.labels[g]},{lvl})": image(g) * eta**lvl
                for g in range(order)
                for lvl in range(n)
            }
        )
    elif kind == "group":
        group = hopf.family["group"]
        order = group.order
        letters = {g: image(g) for g in range(order)}
        ok = True
        for g in range(order):
            for h in range(order):
                sig = generic_cocycle(hopf, alpha, g, h)
                if letters[g] * letters[h] != letters[group.mul(g, h)].scale(sig):
                    ok = False
        rep.add("letters multiply by the lifted cocycle", ok, "")
        pbw({hopf.labels[g]: letters[g] for g in range(order)})
    else:
        raise UnsupportedFamily(f"no relation table for family {kind!r}")
    return rep
