"""Differential tests of the certificate of the lifted cocycle through the
universal map (`generic_base.sigma_failure`).

phi(u_x) = sum t(x1) (x) x2 sends the algebra twisted by sigma into
T (x) H_alpha; the certificate checks that phi is multiplicative on basis
pairs (`phi_failure`) and otherwise scans for the first failing triple
(`cocycle.triple_failure`).  The references are the loops of
`fast_path_reference.py` and a cell-by-cell sum of both sides of
phi(u_x) phi(u_y) = phi(u_x u_y) as `TElement`s:

- the triple that `verify_sigma` names on a corrupted sigma is the one
  that `reference_loop_cocycle_failure` names, on the corruptions of
  `sigma_corruptions` on taft(3) and e(2) and at seeded positions on
  taft(2), e(1) and taft(4); the first pair at which phi fails is the
  reference's;
- an entry rewritten by a sum that vanishes only modulo Phi_n passes;
- coboundary cocycles on k[Z/6], k[S3] and k[D4] pass against the twisted
  target, and against the plain product phi fails exactly at the cells
  (x, y, xy) with alpha(x, y) != 1;
- sigma lifted from a form that is not a cocycle: phi is multiplicative,
  and only Light's test on the target refuses it;
- without the counit condition the certificate certifies nothing.
"""

import random

import fast_path_reference as ref
import pytest
from test_cocycle_reference import corrupted, scalar_non_cocycles, sigma_corruptions

from hopfgen import generic_base
from hopfgen.cocycle import TwoCocycle, coboundary_cocycle, trivial_cocycle
from hopfgen.generic_base import lifted_cocycle, phi_failure, sigma_failure, verify_sigma
from hopfgen.groups import cyclic, dihedral, symmetric
from hopfgen.hopf import associative, e_algebra, fails_at, group_algebra, taft
from hopfgen.identities import mu_algebra
from hopfgen.tring import sum_of_products, t_ring

CHECK = "cocycle identity in the coordinate ring"


def named_by_verify_sigma(monkeypatch, h, alpha, sig) -> str:
    """The details of `verify_sigma`'s cocycle check with the lifted
    cocycle replaced by sig, its inverse left as it is."""
    real = generic_base.lifted_cocycle
    with monkeypatch.context() as m:
        m.setattr(
            generic_base,
            "lifted_cocycle",
            lambda hopf, vals, right=False: real(hopf, vals, right) if right else sig,
        )
        checks = {c.name: c for c in verify_sigma(h, alpha).checks}
    return checks[CHECK].details


def reference_phi_cells(h, target, sig) -> set:
    """The cells (x, y, m) at which phi(u_x) phi(u_y) and phi(u_x u_y)
    differ in the b_m coordinate, each side summed as `TElement`s with
    `+` and `*`: t(x1) t(y1) target(x2, y2)[m] against
    sig(x1, y1) m(x2, y2)[k] t(k1) over the legs k1 (x) b_m of Delta(b_k)."""
    ring = t_ring(h)
    zero, t = ring.zero(), ring.var
    out = set()
    for x in range(h.dim):
        for y in range(h.dim):
            left, right = {}, {}
            for x1, x2, cx in h.comult[x]:
                for y1, y2, cy in h.comult[y]:
                    c = cx * cy
                    for m, cp in target.get((x2, y2), ()):
                        left[m] = left.get(m, zero) + t(x1) * t(y1) * (c * cp)
                    for k, cp in h.mult.get((x2, y2), ()):
                        for k1, m, ck in h.comult[k]:
                            right[m] = right.get(m, zero) + sig[x1][y1] * t(k1) * (c * cp * ck)
            out |= {
                (x, y, m) for m in left.keys() | right.keys() if left.get(m, zero) != right.get(m, zero)
            }
    return out


def first_pair(cells):
    return min(((x, y) for x, y, _ in cells), default=None)


@pytest.mark.parametrize(
    "make,y_label", [(lambda: taft(3), "y"), (lambda: e_algebra(2), "y_2")], ids=["taft3", "e2"]
)
def test_verify_sigma_names_the_reference_triple_on_the_sigma_corruptions(
    monkeypatch, make, y_label
):
    h = make()
    alpha = trivial_cocycle(h)
    zero = t_ring(h).zero()
    for name, sig in sigma_corruptions(h, y_label):
        want = ref.reference_loop_cocycle_failure(h, sig, zero)
        assert (want is None) == (name == "intact"), name
        assert named_by_verify_sigma(monkeypatch, h, alpha, sig) == fails_at(h, want), name


@pytest.mark.parametrize(
    "make,count",
    [(lambda: taft(2), 8), (lambda: e_algebra(1), 8), (lambda: taft(4), 3)],
    ids=["taft2", "e1", "taft4"],
)
def test_verify_sigma_names_the_reference_triple_at_seeded_positions(monkeypatch, make, count):
    h = make()
    alpha = trivial_cocycle(h)
    ring = t_ring(h)
    zero = ring.zero()
    sig = lifted_cocycle(h, alpha.values)
    target = mu_algebra(h, alpha).mult
    assert phi_failure(h, target, sig) is None
    with monkeypatch.context() as m:
        # the certificate passes without the scan
        m.setattr(generic_base, "triple_failure", None)
        assert sigma_failure(h, alpha, sig) is None
    bumps = (ring.var(1), ring.one(), ring.var(h.dim - 1) * h.field.scalar(-2))
    rng = random.Random(h.dim)
    # the last basis pair, where a bump reaches the fewest triples, and seeded ones
    cells = [(h.dim - 1, h.dim - 1)]
    cells += [(rng.randrange(h.dim), rng.randrange(h.dim)) for _ in range(count - 1)]
    failures = 0
    for n, (i, j) in enumerate(cells):
        bad = corrupted(sig, i, j, bumps[n % len(bumps)])
        want = ref.reference_loop_cocycle_failure(h, bad, zero)
        assert sigma_failure(h, alpha, bad) == want
        assert named_by_verify_sigma(monkeypatch, h, alpha, bad) == fails_at(h, want)
        assert phi_failure(h, target, bad) == first_pair(reference_phi_cells(h, target, bad))
        failures += want is not None
    assert failures >= count - 1


@pytest.mark.parametrize(
    "make", [lambda: taft(3), lambda: taft(4), lambda: e_algebra(2)], ids=["taft3", "taft4", "e2"]
)
def test_an_entry_rewritten_by_a_sum_that_vanishes_only_modulo_phi_n_passes(monkeypatch, make):
    """sigma(x, y) plus Phi_n(q) t[x] t[y], the powers of q held in the
    keys (and again shifted by n and 2n): the same element, which only
    the reduction modulo Phi_n shows."""
    h = make()
    alpha = trivial_cocycle(h)
    ring = t_ring(h)
    field = h.field
    sig = lifted_cocycle(h, alpha.values)
    q = ring.scalar(field.q)
    x, y = h.index_of("x"), h.dim - 1
    unreduced = 0
    for shift in (0, field.n, 2 * field.n):
        rewritten = [list(row) for row in sig]
        rewritten[x][y] = sum_of_products(
            ring.zero(),
            [(sig[x][y], ring.one(), field.one)]
            + [
                (q ** (j + shift), ring.var(x) * ring.var(y), field.scalar(c))
                for j, c in enumerate(field.modulus)
                if c
            ],
        )
        # the numerators differ before the equality test reduces them
        unreduced += rewritten[x][y].num != sig[x][y].num
        assert rewritten[x][y] == sig[x][y]
        assert sigma_failure(h, alpha, rewritten) is None
        assert named_by_verify_sigma(monkeypatch, h, alpha, rewritten) == ""
    # over Q (e(n), q = -1) the sum cancels as it is summed
    assert unreduced or ring.rational


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize(
    "make", [lambda: cyclic(6), lambda: symmetric(3), lambda: dihedral(4)], ids=["Z6", "S3", "D4"]
)
def test_coboundaries_pass_against_the_twisted_target_only(monkeypatch, make, seed):
    h = group_algebra(make())
    alpha = coboundary_cocycle(h, seed)
    sig = lifted_cocycle(h, alpha.values)
    target = mu_algebra(h, alpha).mult
    assert target != h.mult
    with monkeypatch.context() as m:
        # the certificate passes without the scan
        m.setattr(generic_base, "triple_failure", None)
        assert verify_sigma(h, alpha).ok
        assert sigma_failure(h, alpha, sig) is None
    assert phi_failure(h, target, sig) is None
    assert reference_phi_cells(h, target, sig) == set()
    # against the plain product, phi(u_x) phi(u_y) = t[x] t[y] (x) xy misses
    # the factor alpha(x, y) of phi(u_x u_y)
    one = h.field.one
    want = {
        (x, y, k)
        for (x, y), ((k, _),) in h.mult.items()
        if alpha(x, y) != one
    }
    assert want
    assert reference_phi_cells(h, h.mult, sig) == want
    assert phi_failure(h, h.mult, sig) == first_pair(want)


def test_a_lifted_non_cocycle_is_refused_by_the_target_alone():
    """phi(u_x) phi(u_y) = phi(u_x u_y) for sigma lifted from any form
    alpha, cocycle or not; where alpha is not one, H_alpha is not
    associative, and only Light's test on it keeps the certificate from
    passing."""
    for h, vals in scalar_non_cocycles():
        alpha = TwoCocycle(h, vals, check=False)
        sig = lifted_cocycle(h, alpha.values)
        target = mu_algebra(h, alpha).mult
        u = h.unit_index
        assert phi_failure(h, target, sig) is None
        assert not associative(h.dim, target, u, alpha(u, u))
        want = ref.reference_loop_cocycle_failure(h, sig, t_ring(h).zero())
        assert want is not None
        checks = {c.name: c for c in verify_sigma(h, alpha).checks}
        assert checks[CHECK].details == fails_at(h, want)


def test_the_certificate_scans_where_the_counit_does_not_reduce(monkeypatch):
    """The counit takes an associator of the twisted algebra to the
    cocycle identity only where it reduces; otherwise every triple is
    scanned, on an intact sigma too."""
    h = taft(3)
    alpha = trivial_cocycle(h)
    sig = lifted_cocycle(h, alpha.values)
    scanned = []
    monkeypatch.setattr(generic_base, "_counit_reduces", lambda hopf: False)
    monkeypatch.setattr(generic_base, "triple_failure", lambda *args: scanned.append(args))
    assert sigma_failure(h, alpha, sig) is None
    assert len(scanned) == 1
