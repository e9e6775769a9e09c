"""Differential tests for two routes that stopped repeating work, each
against the route it replaced, kept in `fast_path_reference.py`.

- A witness denominator is evaluated entry by entry, each distinct entry
  through `mu` once per `niceness_witnesses` call, and must give the image
  of the whole denominator word on every witness of the decomposition
  instances, the group algebras of order 6 to 12 and k[S4].
- `trivial_cocycle` checks counit tensor counit against itself in
  factored form, and must accept and reject the same tables as the full
  convolution check, with the same error; it maps to the plain algebra
  where the twist would give back the product table, and to the twist
  otherwise.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from fast_path_reference import reference_denominator_image, reference_trivial_cocycle

from hopfgen import generic_base
from hopfgen.cocycle import TwistedAlgebra, trivial_cocycle, twisted_algebra
from hopfgen.errors import NotInvertible, NotPointedOrder, RangeError
from hopfgen.generic_base import _denominator_image, niceness_witnesses
from hopfgen.groups import group_from_spec
from hopfgen.hopf import HopfAlgebra, e_algebra, group_algebra, taft
from hopfgen.identities import NCPoly, mu, mu_algebra, parse_ncpoly
from hopfgen.linalg import collect
from hopfgen.selftest import DECOMPOSE_NAMES, _instance, standard_instances

# every group spec of order 6 to 12 that the spec grammar builds
GROUP_SPECS = (
    "sym:3", "cyclic:6", "cyclic:7", "cyclic:8", "cyclic:9", "cyclic:10", "cyclic:11",
    "cyclic:12", "dihedral:4", "dihedral:5", "dihedral:6", "alt:4",
    "product:cyclic:2,cyclic:4", "product:cyclic:2,cyclic:2,cyclic:2",
    "product:cyclic:3,cyclic:3", "product:cyclic:2,cyclic:6",
)


def _witness_instance(name: str) -> HopfAlgebra:
    if name in DECOMPOSE_NAMES:
        return _instance(name)
    return group_algebra(group_from_spec(name))


# --- denominators entry by entry --------------------------------------------


@pytest.mark.parametrize("name", list(DECOMPOSE_NAMES) + list(GROUP_SPECS) + ["sym:4"])
def test_denominator_images_match_the_whole_word(name):
    h = _witness_instance(name)
    alpha = trivial_cocycle(h)
    witnesses = niceness_witnesses(h)
    images = {}
    repeated = 0
    for _, dens in witnesses.values():
        got = _denominator_image(h, alpha, dens, images)
        assert got == reference_denominator_image(h, alpha, dens)
        repeated += any(k > 1 for k in Counter(dens.entries).values())
    assert set(images) == {e for _, dens in witnesses.values() for e in dens.entries}
    if name not in ("taft(2)", "e(1)"):
        assert repeated


def test_each_distinct_entry_goes_through_mu_once(monkeypatch):
    h = group_algebra(group_from_spec("sym:4"))
    calls = []

    def counted(hopf, alpha, poly):
        calls.append(poly)
        return mu(hopf, alpha, poly)

    monkeypatch.setattr(generic_base, "mu", counted)
    witnesses = niceness_witnesses(h)
    entries = {e for _, dens in witnesses.values() for e in dens.entries}
    total = sum(len(dens.entries) for _, dens in witnesses.values())
    assert len(calls) == len(witnesses) + len(entries)
    assert total > 2 * len(entries)


# --- the factored self-check of trivial_cocycle ------------------------------


def outcome(make):
    """("ok", values, inverse values) or (exception type, message)."""
    try:
        alpha = make()
    except (NotInvertible, RangeError) as exc:
        return type(exc), str(exc)
    return "ok", alpha.values, alpha.inverse_values


def leg_counit_sum(h: HopfAlgebra) -> list:
    """f(x) = sum counit(x1) counit(x2), summed leg by leg."""
    out = []
    for legs in h.comult:
        acc = h.field.zero
        for j, k, c in legs:
            acc = acc + c * h.counit[j] * h.counit[k]
        out.append(acc)
    return out


def left_counit_holds(h: HopfAlgebra) -> bool:
    return all(
        collect((k, c * h.counit[j]) for j, k, c in legs) == {i: h.field.one}
        for i, legs in enumerate(h.comult)
    )


def scaled(cs, factor):
    return [str(factor * Fraction(c)) for c in cs]


def corrupted_payloads(h: HopfAlgebra):
    """JSON payloads of h with one coproduct leg scaled, negated, moved on
    either side or dropped, or one counit value replaced."""
    dim = h.dim
    base = h.to_json()
    for i in range(dim):
        for t in range(len(base["comult"][i])):
            for kind in ("double", "negate", "left", "right", "drop"):
                p = h.to_json()
                row = p["comult"][i]
                j, k, cs = row[t]
                if kind == "double":
                    row[t] = [j, k, scaled(cs, 2)]
                elif kind == "negate":
                    row[t] = [j, k, scaled(cs, -1)]
                elif kind == "left":
                    row[t] = [(j + 1) % dim, k, cs]
                elif kind == "right":
                    row[t] = [j, (k + 1) % dim, cs]
                else:
                    del row[t]
                yield p
        for value in (["0"], ["1"], ["-1"]):
            p = h.to_json()
            p["counit"][i] = value
            yield p


SWEEP = {
    "taft(2)": lambda: taft(2),
    "taft(3)": lambda: taft(3),
    "e(2)": lambda: e_algebra(2),
    "k[S3]": lambda: group_algebra(group_from_spec("sym:3")),
}


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_trivial_cocycle_matches_the_full_check_on_corrupted_tables(name):
    kinds = Counter()
    for payload in corrupted_payloads(SWEEP[name]()):
        try:
            h = HopfAlgebra.from_json(payload)
        except NotPointedOrder:  # the unit or a group-like left the group-likes
            continue
        want = outcome(lambda: reference_trivial_cocycle(h))
        assert outcome(lambda: trivial_cocycle(h)) == want
        kinds[want[0] if want[0] != "ok" else ("ok", leg_counit_sum(h) == h.counit)] += 1
    # each table family rejects some corruptions and accepts some
    assert kinds[NotInvertible] and kinds[("ok", True)]


def test_a_sum_off_the_counit_is_rejected_with_the_reference_message():
    h = taft(3)
    top = h.dim - 1
    p = h.to_json()
    p["counit"][top] = p["counit"][h.unit_index]
    h = HopfAlgebra.from_json(p)
    assert leg_counit_sum(h) != h.counit
    want = outcome(lambda: reference_trivial_cocycle(h))
    assert want[0] is NotInvertible
    assert want[1].startswith("convolution identity fails at")
    assert outcome(lambda: trivial_cocycle(h)) == want


@pytest.mark.parametrize("make", [lambda: taft(3), lambda: e_algebra(2)], ids=["taft3", "e2"])
def test_minus_the_counit_is_accepted_by_both_checks(make):
    """Every coproduct coefficient negated: f = -counit, so f(x) f(y) =
    counit(x) counit(y) and both checks accept.  No table that the
    constructor accepts has f(1) = -1, as the unit must be group-like, so
    the coproduct is negated on a copy after construction."""
    h = HopfAlgebra.from_json(make().to_json())
    h.comult = [tuple((j, k, -c) for j, k, c in legs) for legs in h.comult]
    assert leg_counit_sum(h) == [-e for e in h.counit]
    want = outcome(lambda: reference_trivial_cocycle(h))
    assert want[0] == "ok"
    assert outcome(lambda: trivial_cocycle(h)) == want
    # counit(x1) x2 = -x: the mu target is the twist, as before
    assert mu_algebra(h, trivial_cocycle(h)).mult == mu_algebra(h, reference_trivial_cocycle(h)).mult


def _polys(h, seed: int) -> list[NCPoly]:
    """Parsed sums and powers, and word-built polynomials with the empty
    word among their terms."""
    rng = random.Random(f"{h.name}:{seed}")
    out = []
    for _ in range(6):
        words = ["*".join(f"X[{rng.choice(h.labels)}]" for _ in range(rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 3))]
        text = "".join(f" {rng.choice('+-')} {rng.choice(['1', '2', '1/3', 'q'])}*{w}" for w in words)
        text = text.strip().removeprefix("+ ")
        out.append(parse_ncpoly(text, h))
        out.append(parse_ncpoly(f"({text})^{rng.randint(2, 3)} - 3", h))
        out.append(NCPoly(h, dict(parse_ncpoly(f"{text} + 5", h).terms)))
    return out


def _left_counit_failure(h: HopfAlgebra) -> HopfAlgebra:
    """h with the right leg of one coproduct term, of a basis element off
    the group-likes, moved to another basis element of the same counit
    value: the sum of counit(x1) counit(x2) stays the counit, while
    counit(x1) x2 = x fails there."""
    p = h.to_json()
    for i, row in enumerate(h.comult):
        for t, (j, k, _) in enumerate(row):
            if h.counit[i] or h.counit[j].is_zero:
                continue
            other = next(
                (m for m in range(h.dim) if m != k and h.counit[m] == h.counit[k]), None
            )
            if other is not None:
                p["comult"][i][t][1] = other
                return HopfAlgebra.from_json(p)
    raise AssertionError("no term to move")


@pytest.mark.parametrize("make", [lambda: taft(3), lambda: e_algebra(2)], ids=["taft3", "e2"])
def test_a_left_counit_failure_keeps_the_twist_and_the_images(make):
    h = _left_counit_failure(make())
    assert leg_counit_sum(h) == h.counit
    assert not left_counit_holds(h)
    alpha, ref = trivial_cocycle(h), reference_trivial_cocycle(h)
    assert outcome(lambda: alpha) == outcome(lambda: ref)
    target = mu_algebra(h, alpha)
    assert isinstance(target, TwistedAlgebra)
    assert target.mult == mu_algebra(h, ref).mult != h.mult
    for poly in _polys(h, 1):
        assert mu(h, alpha, poly).to_text() == mu(h, ref, poly).to_text()


@pytest.mark.parametrize("name,h", standard_instances())
def test_the_trivial_cocycle_maps_to_the_plain_algebra(name, h):
    assert left_counit_holds(h)
    alpha = trivial_cocycle(h)
    assert mu_algebra(h, alpha) is h
    assert twisted_algebra(h, reference_trivial_cocycle(h)).mult == h.mult
    assert outcome(lambda: alpha) == outcome(lambda: reference_trivial_cocycle(h))
