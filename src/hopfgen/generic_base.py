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
from collections import Counter
from functools import cached_property
from fractions import Fraction

from .arith import Scalar, q_binomial
from .cocycle import _counit_reduces, _twist, convolution_failure, triple_failure, trivial_cocycle
from .errors import (
    NotDegreeZero,
    OutOfLocalization,
    RangeError,
    SingularJacobian,
    UnsupportedFamily,
    WitnessFailure,
)
from .groups import perm_sign
from .hopf import HopfAlgebra, associative, e_basis, fails_at, hab_grading
from .identities import LocalizedDenominator, NCPoly, _denominator_poly, mu, mu_algebra, symbol
# solve_in_lattice is unused here but stays importable from this module:
# perfbench/tests/test_perfbench_tracing.py looks it up as a wrapped name.
from .lattice import ReducedBasis, pair_and_triple_vectors, solve_in_lattice, y_group  # noqa: F401
from .linalg import collect, scalar_det
from .report import Report
from .tring import (
    TElement,
    TMonomial,
    TensorH,
    _packed,
    power_product,
    sum_of_products,
    t_inverse_map,
    t_ring,
)

# Witness words can get long (lattice coefficients repeat whole letters),
# so they carry their own cap instead of the default identity-testing one.
WITNESS_CAP = 4096


# ---------------------------------------------------------------------------
# The coordinate-ring lift of a two-cocycle.


def lifted_cocycle(hopf: HopfAlgebra, vals, right: bool = False) -> list[list[TElement]]:
    """The basis matrix of t(x1) t(y1) vals(x2, y2) t^-1(x3 y3), or of
    t(x1 y1) vals(x2, y2) t^-1(x3) t^-1(y3) when right is set: the lifted
    cocycle sigma for vals = alpha, and its convolution inverse for
    vals = alpha^-1.

    Both are read off a twisted product table of `cocycle._twist`, which
    regroups the threefold coproduct: sigma(x, y) = t(x1) t(y1) t^-1(x2 . y2)
    with . the left twist by vals, and the inverse is
    t(x1 o y1) t^-1(x2) t^-1(y2) with o the right twist.  The regrouping
    holds only if H is coassociative.  The axiom battery certifies that for
    every family constructor; a table read by `HopfAlgebra.from_json` is
    not certified, and no command builds sigma on one."""
    ring = t_ring(hopf)
    t = [ring.var(i) for i in range(hopf.dim)]
    tinv = t_inverse_map(hopf)
    # the twisted product takes the first legs and is closed by t when
    # right is set, else the second legs and t^-1; the other legs go
    # through the other map
    tw, single, closing = (0, tinv, t) if right else (1, t, tinv)
    table = _twist(hopf, hopf.mult, vals, right)
    zero = ring.zero()
    out = []
    for legs_x in hopf.comult:
        row = []
        for legs_y in hopf.comult:
            triples = []
            for lx in legs_x:
                for ly in legs_y:
                    terms = table.get((lx[tw], ly[tw]))
                    if terms is None:
                        continue
                    part = single[lx[1 - tw]] * single[ly[1 - tw]]
                    c = lx[2] * ly[2]
                    triples += [(part, closing[k], c * ck) for k, ck in terms]
            row.append(sum_of_products(zero, triples))
        out.append(row)
    return out


def sigma_failure(hopf: HopfAlgebra, alpha, sig):
    """The first basis triple at which the matrix sig over the coordinate
    ring T fails the cocycle identity (`cocycle.triple_failure`), scanned
    only where the certificate below fails; None if there is none.

    Let A be the algebra over T with u_x u_y = sig(x1, y1) u_{x2 y2}, and
    phi(u_x) = sum t(x1) (x) x2 in T (x) H_alpha, the letter images of
    `identities.mu` (the comodule-algebra map of Aljadeff and Kassel).
    phi is T-linear and injective: Delta(b_i) = c g (x) b_i plus legs
    b_j (x) b_k with b_k below b_i in the order that `t_inverse_map`
    enforces, so phi is triangular with c t_g on its diagonal.  So if
    H_alpha passes Light's test and phi(u_x u_y) = phi(u_x) phi(u_y) on
    basis pairs (`phi_failure`), A is associative, which is the identity
    where the counit reduces (as in `cocycle.cocycle_failure`).  phi is
    multiplicative for the lifted cocycle of alpha."""
    # raises NotPointedOrder where the coproduct is not triangular
    t_inverse_map(hopf)
    target = mu_algebra(hopf, alpha).mult
    u = hopf.unit_index
    if (
        _counit_reduces(hopf)
        and associative(hopf.dim, target, u, alpha(u, u))
        and phi_failure(hopf, target, sig) is None
    ):
        return None
    return triple_failure(hopf, sig, t_ring(hopf).zero())


def phi_failure(hopf: HopfAlgebra, target, sig):
    """The first basis pair (x, y), in loop order, at which
    phi(u_x u_y) != phi(u_x) phi(u_y) (see `sigma_failure`); None if there
    is none.  Each (x, y, b_m) cell is one `tring.sum_of_products` call:
    t(x1) t(y1) P(x2, y2)[m] minus sig(x1, y1) m(x2, y2)[k] t(k1) over the
    legs k1 (x) b_m of Delta(b_k), P the table target of H_alpha and m
    the product of H."""
    ring = t_ring(hopf)
    t = [ring.var(i) for i in range(hopf.dim)]
    zero, comult = ring.zero(), hopf.comult
    # phi(b_j b_l) without its t-legs: (k1, m, -c) for each term c t(k1) (x) b_m
    image = {
        pair: [(k1, m, -(cp * ck)) for k, cp in terms for k1, m, ck in comult[k]]
        for pair, terms in hopf.mult.items()
    }
    for x, legs_x in enumerate(comult):
        for y, legs_y in enumerate(comult):
            cells: dict[int, list] = {}
            for x1, x2, cx in legs_x:
                for y1, y2, cy in legs_y:
                    c = cx * cy
                    for m, cp in target.get((x2, y2), ()):
                        cells.setdefault(m, []).append((t[x1], t[y1], c * cp))
                    s = sig[x1][y1]
                    if not s.is_zero:
                        for k1, m, ck in image.get((x2, y2), ()):
                            cells.setdefault(m, []).append((s, t[k1], c * ck))
            if not all(sum_of_products(zero, ts).is_zero for ts in cells.values()):
                return x, y
    return None


def verify_sigma(hopf: HopfAlgebra, alpha=None) -> Report:
    """Three exact facts about the lifted cocycle: it satisfies the cocycle
    identity with coordinate-ring values, it is convolution invertible, and
    substituting the counit recovers the scalar cocycle.

    The identity is certified through the universal map by
    `sigma_failure`, which names the first failing basis triple."""
    if alpha is None:
        alpha = trivial_cocycle(hopf)
    ring = t_ring(hopf)
    dim = hopf.dim
    sig = lifted_cocycle(hopf, alpha.values)
    inv = lifted_cocycle(hopf, alpha.inverse_values, right=True)
    rep = Report(f"lifted cocycle on {hopf.name or 'algebra'}")
    bad = sigma_failure(hopf, alpha, sig)
    rep.add("cocycle identity in the coordinate ring", bad is None, fails_at(hopf, bad))
    bad = convolution_failure(hopf, sig, inv, ring.zero())
    rep.add("convolution inverse", bad is None, fails_at(hopf, bad[:2] if bad else None))

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


def _read_only(self, name, value):
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")


class GammaPresentation:
    """Finite generator data for the base algebra of one instance.

    invertible_gens enter with both signs, plain_gens only with nonnegative
    exponents; all of them are degree-zero Laurent monomials.  residue_vars
    name one coordinate generator per cyclic factor of the grading group,
    used to peel an arbitrary monomial down to degree zero.  special_case
    marks the one hand-picked quadratic generator set.

    A read-only value: equal fields make equal presentations, whatever
    cached properties either has computed."""

    def __init__(
        self,
        hopf: HopfAlgebra,
        family_tag: str,
        invertible_gens: tuple[TElement, ...],
        plain_gens: tuple[TElement, ...],
        residue_vars: tuple[int, ...],
        special_case: bool = False,
    ):
        # the cached properties below share this __dict__ with the fields
        self.__dict__.update(
            hopf=hopf,
            family_tag=family_tag,
            invertible_gens=invertible_gens,
            plain_gens=plain_gens,
            residue_vars=residue_vars,
            special_case=special_case,
        )

    __setattr__ = _read_only

    def _key(self):
        return (self.hopf, self.family_tag, self.invertible_gens, self.plain_gens,
                self.residue_vars, self.special_case)

    def __eq__(self, other):
        if type(other) is not GammaPresentation:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def generators(self) -> tuple[TElement, ...]:
        return self.invertible_gens + self.plain_gens

    @cached_property
    def factors(self) -> tuple[tuple[TMonomial, Scalar | None], ...]:
        """The monomial and the coefficient of every generator, invertible
        ones first; None stands for a coefficient of one."""
        one = self.hopf.field.one
        out = []
        for gen in self.generators:
            ((m, c),) = gen.terms.items()
            out.append((m, None if c == one else c))
        return tuple(out)

    @cached_property
    def torus_rows(self) -> tuple[tuple[int, ...], ...]:
        """The exponent vector of every invertible generator over the
        group-likes."""
        pos = {v: i for i, v in enumerate(self.hopf.grouplikes)}
        rows = []
        for gen in self.invertible_gens:
            row = [0] * len(pos)
            for i, e in next(iter(gen.terms)).exps:
                row[pos[i]] = e
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def torus_lattice(self) -> ReducedBasis:
        """The lattice spanned by the torus rows, reduced once per
        presentation."""
        return ReducedBasis(self.torus_rows)

    @cached_property
    def plain_owner(self) -> dict[int, tuple[int, TMonomial]]:
        """Each non-torus variable mapped to the position and monomial of
        the unique plain generator that contains it."""
        gl = set(self.hopf.grouplikes)
        out = {}
        for p, gen in enumerate(self.plain_gens):
            mon = next(iter(gen.terms))
            (own,) = [i for i, _ in mon.exps if i not in gl]
            out[own] = (p, mon)
        return out

    @cached_property
    def plan(self) -> DecompositionPlan:
        """The integer data `decompose` reads, derived once from the ring's
        grading, the plain owners, the factors and the residue variables."""
        hopf = self.hopf
        ring = t_ring(hopf)
        torus = {v: p for p, v in enumerate(hopf.grouplikes)}
        owner = self.plain_owner
        variables = []
        for v, pairs in enumerate(ring.degree_pairs()):
            if v in torus:
                variables.append((pairs, torus[v], None, ()))
                continue
            slot, mon = owner[v]
            # the plain generator's other variables, moved to the torus side
            moved = tuple((torus[g], x) for g, x in mon.exps if g != v and g in torus)
            variables.append((pairs, None, slot, moved))
        return DecompositionPlan(
            tuple(variables),
            ring.grading_group().invariant_factors,
            len(torus),
            len(self.plain_gens),
            tuple((m.key, m.bound, c) for m, c in self.factors),
            tuple((torus[v], ring.monomial(((v, 1),)).key) for v in self.residue_vars),
            ring.width,
        )


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
    n = len(pres.invertible_gens)
    for p, gen in enumerate(pres.generators):
        if len(gen.terms) != 1:
            raise WitnessFailure("presentation generators must be Laurent monomials")
        mon = next(iter(gen.terms))
        if ring.hab_degree(mon) != zero:
            raise WitnessFailure(f"generator {gen.to_text()} is not degree zero")
        if p < n:
            # decompose raises invertible generators to negative powers
            ring.check_invertible(mon)
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
    down = TMonomial(((v, -1),), ring.width)
    terms = {}
    for m, c in gen.terms.items():
        e = m.exp_of(v)
        if e:
            terms[m.mul(down)] = c * ring.field.scalar(e)
    return TElement(ring, terms)


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
            total = total + term * ring.field.scalar(perm_sign(perm))
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


class DecompositionPlan:
    """The integer data of one presentation that `decompose` reads.

    - variables: per variable, the nonzero (factor, value) pairs of its
      degree, then its position among the group-likes, or else None, the
      slot of the plain generator that owns it and that generator's other
      (group-like position, exponent) pairs;
    - moduli: the invariant factors of the grading group;
    - torus_size and plain_size: the number of group-likes and of plain
      generators;
    - generators: the packed key, the bound and the coefficient (None for
      one) of every generator, invertible ones first;
    - residues: the group-like position and the packed key of every
      residue variable;
    - width: the ring's bits per exponent field."""

    __slots__ = (
        "variables", "moduli", "torus_size", "plain_size", "generators", "residues", "width",
    )

    def __init__(self, variables, moduli, torus_size, plain_size, generators, residues, width):
        for name, value in zip(
            self.__slots__,
            (variables, moduli, torus_size, plain_size, generators, residues, width),
        ):
            object.__setattr__(self, name, value)

    __setattr__ = _read_only


class DecompositionWitness:
    """Exact factorization of one monomial over the presentation: signed
    exponents for the invertible generators, nonnegative ones for the plain
    generators, and a residue exponent per cyclic grading factor that was
    peeled off first.  remultiply() reproduces the input exactly.  A
    read-only value, like the presentation."""

    __slots__ = ("presentation", "coefficient", "invertible_exps", "plain_exps", "residue_exps")

    def __init__(
        self,
        presentation: GammaPresentation,
        coefficient: Scalar,
        invertible_exps: tuple[int, ...],
        plain_exps: tuple[int, ...],
        residue_exps: tuple[int, ...],
    ):
        put = object.__setattr__
        put(self, "presentation", presentation)
        put(self, "coefficient", coefficient)
        put(self, "invertible_exps", invertible_exps)
        put(self, "plain_exps", plain_exps)
        put(self, "residue_exps", residue_exps)

    __setattr__ = _read_only

    def _key(self):
        return (self.presentation, self.coefficient, self.invertible_exps, self.plain_exps,
                self.residue_exps)

    def __eq__(self, other):
        if type(other) is not DecompositionWitness:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def remultiply(self) -> TElement:
        """The coefficient times every generator and residue variable raised
        to its exponent: the monomial is one integer combination of their
        packed keys, the coefficient one scalar product."""
        pres = self.presentation
        ring = t_ring(pres.hopf)
        coeff = self.coefficient
        factors = []
        n = len(pres.invertible_gens)
        for (m, c), e in itertools.chain(
            zip(pres.factors[:n], self.invertible_exps), zip(pres.factors[n:], self.plain_exps)
        ):
            if e:
                if e < 0:
                    ring.check_invertible(m)
                factors.append((m, e))
                if c is not None:
                    coeff = coeff * c**e
        for v, e in zip(pres.residue_vars, self.residue_exps):
            if e:
                factors.append((ring.monomial(((v, e),)), 1))
        mon = power_product(factors, ring.width)
        return TElement(ring, {mon: coeff})


def _decompose_monomial(
    hopf: HopfAlgebra, mon: TMonomial, coeff: Scalar, allow_residue: bool
) -> DecompositionWitness:
    """One pass over the exponents sums the degree, the plain exponents and
    the torus target; the checks then run in a fixed order: the degree
    (NotDegreeZero), the localization (OutOfLocalization), the lattice
    (NotDegreeZero).  The witness is certified by multiplying it back on
    the packed keys and the coefficients (`_certify`)."""
    pres = gamma_generators(hopf)
    plan = pres.plan
    variables = plan.variables
    sums = [0] * len(plan.moduli)
    target = [0] * plan.torus_size
    plain = [0] * plan.plain_size
    negative = None
    for v, e in mon.exps:
        pairs, pos, slot, moved = variables[v]
        for t, x in pairs:
            sums[t] += x * e
        if slot is None:
            target[pos] += e
        elif e < 0:
            if negative is None:
                negative = v
        else:
            plain[slot] += e
            for p, x in moved:
                target[p] -= x * e

    residue = deg = tuple(s % d for s, d in zip(sums, plan.moduli))
    if any(deg):
        if not allow_residue:
            raise NotDegreeZero(f"monomial of degree {deg}")
        for (p, _), k in zip(plan.residues, deg):
            target[p] -= k
    else:
        residue = (0,) * len(plan.residues)
    if negative is not None:
        raise OutOfLocalization(f"negative power of t[{hopf.labels[negative]}]")
    coeffs = pres.torus_lattice.solve(target)
    if coeffs is None:
        raise NotDegreeZero("torus part lies outside the degree-zero lattice")

    witness = DecompositionWitness(pres, coeff, tuple(coeffs), tuple(plain), residue)
    coeffs.extend(plain)
    _certify(hopf, plan, coeffs, residue, mon, coeff)
    return witness


def _certify(
    hopf: HopfAlgebra,
    plan: DecompositionPlan,
    exps: list[int],
    residue: tuple[int, ...],
    mon: TMonomial,
    coeff: Scalar,
) -> None:
    """WitnessFailure unless the generators raised to `exps` and the residue
    variables to `residue` give back coeff times mon.  A one-term element
    equals another exactly when the keys and the coefficients are equal,
    so this is the equality of the re-multiplied witness with the input.
    The key sum identifies the product only while the bounds times the
    absolute exponents stay below 2^(w-1): past that, a wrong exponent
    vector could carry into a neighbouring field and sum to the same key,
    so the exponents are summed exactly, as `power_product` does."""
    key = bound = 0
    back = coeff
    for (k, b, c), e in zip(plan.generators, exps):
        if e:
            key += k * e
            bound += b * abs(e)
            if c is not None:
                back = back * c**e
    for (_, k), e in zip(plan.residues, residue):
        if e:
            key += k * e
            bound += abs(e)
    w = plan.width
    if bound >> (w - 1):
        factors = [(_packed(k, b, w), e) for (k, b, _), e in zip(plan.generators, exps) if e]
        factors.extend((_packed(k, 1, w), e) for (_, k), e in zip(plan.residues, residue) if e)
        key = power_product(factors, w).key
    if key != mon.key or back is not coeff and back != coeff:
        got = TElement(t_ring(hopf), {_packed(key, bound, w): back})
        raise WitnessFailure(f"re-multiplication mismatch: {got.to_text()}")


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
    gl = ring.grouplike_set
    rep = Report(f"base-to-grading quotient on {hopf.name or 'algebra'}")

    def image(elem: TElement) -> dict[tuple[int, ...], Scalar]:
        return collect(
            (ring.hab_degree(m), c)
            for m, c in elem.terms.items()
            if all(i in gl for i, _ in m.exps)
        )

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


def _denominator_image(
    hopf: HopfAlgebra, alpha, dens: LocalizedDenominator, images: dict[tuple, TElement]
) -> TElement:
    """Coordinate part of the evaluation image of the denominator word: the
    product of the images of its distinct entries, each to its
    multiplicity, which is the image of the whole word because `mu` is an
    algebra map.  An entry is evaluated through `mu` once per memo
    `images`, and its algebra part must be the unit."""
    ring = t_ring(hopf)
    out = ring.one()
    for entry, k in Counter(dens.entries).items():
        img = images.get(entry)
        if img is None:
            tensor = mu(hopf, alpha, _denominator_poly(hopf, entry, WITNESS_CAP))
            items = list(tensor.terms.items())
            if len(items) != 1 or items[0][0][1] != hopf.unit_index:
                raise WitnessFailure("denominator word does not evaluate to a unit tensor")
            (mon, _), c = items[0]
            img = images[entry] = ring.element({mon: c})
        out = out * img**k
    return out


def _ncpoly_one(hopf: HopfAlgebra) -> NCPoly:
    return NCPoly(hopf, {(): hopf.field.one}, WITNESS_CAP)


def _level_lift(X: list[NCPoly], stride: int, W: NCPoly, Y: NCPoly, field):
    """The memoised lift of the skew families (taft(n) is the monomial
    algebra of Z/n with x = 1): lift(g, l) is the word for g y^l, the letter
    at index l * stride + g, times the compensator W^l, less the lower
    levels r < l, each times Y^(l-r) and binom(l, r)_q."""
    memo: dict[tuple[int, int], NCPoly] = {}

    def lift(g: int, level: int) -> NCPoly:
        got = memo.get((g, level))
        if got is not None:
            return got
        if level == 0:
            out = X[g]
        else:
            out = X[level * stride + g] * W**level
            for r in range(level):
                out = out - lift(g, r) * Y ** (level - r) * q_binomial(level, r, field)
        memo[(g, level)] = out
        return out

    return lift


def _taft_witnesses(hopf: HopfAlgebra, pres: GammaPresentation):
    n = hopf.family["n"]
    field = hopf.field
    ring = t_ring(hopf)
    X = [symbol(hopf, i, WITNESS_CAP) for i in range(hopf.dim)]
    # the compensator word and the bracket that reaches the nilpotent slot
    W = X[0] * X[1] ** n
    bracket = X[n] * X[1] - X[1] * X[n]
    Yq = X[1] ** (n - 1) * bracket * (field.q - field.one).inverse()

    lift = _level_lift(X, n, W, Yq, field)
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
    coefficients become word letters and negative ones denominators.

    The vectors are those of pair_and_triple_vectors: the pairs p(g), the
    triple t(e, e) and the triples t(g, s) over a generating set S, about
    |G|·|S| rows.  They span Y(G) because v(g, h) = e_g + e_h - e_gh obeys
    v(g, hk) = v(g, h) + v(gh, k) - v(h, k) and v(g, e) = e_e, while
    v(g, h) = t(g, h) - p(gh) and e_e = t(e, e) - p(e)."""
    field = hopf.field
    vecs = pair_and_triple_vectors(hopf.family["group"])
    products = ReducedBasis([row for row, _ in vecs])

    for gen, base in zip(pres.invertible_gens, pres.torus_rows):
        for gamma, vec in ((gen, base), (gen.inverse(), [-e for e in base])):
            coeffs = products.solve(vec)
            if coeffs is None:
                raise WitnessFailure(f"{gamma.to_text()} not reached by products")
            word: tuple[int, ...] = ()
            tags = []
            for c, (_, letters) in zip(coeffs, vecs):
                if c > 0:
                    word = word + letters * c
                elif c < 0:
                    if len(letters) == 2:
                        tag = ("pair_product", letters[0])
                    else:
                        tag = ("triple_product", letters[0], letters[1])
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

    lift = _level_lift(X, order, W, Ym, field)
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
    returned; a mismatch raises WitnessFailure.  Each word goes through
    `mu`; each distinct denominator entry goes through `mu` once per call,
    and a denominator's image is the product of its entries' images, since
    the lattice witnesses repeat one entry many times."""
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
    images: dict[tuple, TElement] = {}
    for gamma, (word, dens) in out.items():
        got = mu(hopf, alpha, word)
        want = TensorH.from_element(
            ring, hopf, gamma * _denominator_image(hopf, alpha, dens, images), hopf.unit_index
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
        sig = lifted_cocycle(hopf, alpha.values)
        bad = next(
            (
                (g, h)
                for g in range(order)
                for h in range(order)
                if letters[g] * letters[h] != letters[group.mul(g, h)].scale(sig[g][h])
            ),
            None,
        )
        rep.add("letters multiply by the lifted cocycle", bad is None, fails_at(hopf, bad))
        pbw({hopf.labels[g]: letters[g] for g in range(order)})
    else:
        raise UnsupportedFamily(f"no relation table for family {kind!r}")
    return rep
