#!/usr/bin/env python3
"""Time the scale ladder: instances larger than the selftest roster reaches.

    PYTHONPATH=src python3 scripts/scale_ladder.py

Prints one JSON line that maps each rung to its wall seconds:

- `verify_hopf_axioms` on taft(6), taft(7) and e(5), and on k[Z/4 x Z/12],
  where the grading check decomposes the abelianization;
- `verify_sigma` on taft(4), e(3), taft(5), e(4) and taft(6), with the
  trivial cocycle;
- `identity` on (X[1]+X[x])^64 over taft(2), and on powers and
  multi-letter words over taft(5) and taft(7), whose fields have degree 4
  and 6: cocycle, parse and classify;
- `ygroup --check` on S4: the degree-zero lattice and the pair and triple
  generation check;
- `nice` on k[S4] and k[Z/24], whose witnesses carry many repeated
  pair and triple denominators, and on taft(5) and e(4), whose carry
  `grouplike_power` and `x_square` ones: the niceness witnesses, each
  verified through `mu`;
- `decompose taft(5)`: 2,000 seeded degree-zero monomials, each a
  product of the presentation's generators (invertible ones to powers in
  [-2, 2], plain ones in [0, 2]) times a small integer: each is
  decomposed and remultiplied, and must give back its exponents and
  itself.  The presentation and the monomials are built outside the timed
  call; the decomposition plan and the torus lattice are built inside it;
- `cotwist taft(6)`: the two-sided twist by the trivial cocycle, which
  must give back the same tables (`structure_equal`); the cocycle is
  built inside the timed call;
- `cold start`: a fresh `python3 -m hopfgen describe --family taft:3`,
  which writes no bytecode cache, as `json_parity.py` runs its children:
  the import, the instance and the command, which must exit 0.

Each rung builds its instance outside the timed call, fresh, so the
coordinate ring and the other data kept on the instance start cold.  A
rung whose check fails stops the script with exit 1, since the time of a
failing verification measures nothing.  The whole ladder takes about
twenty-five seconds on a 2-core host, most of it the sigma rungs of
taft(6), taft(5) and e(4).  To compare two commits, run the script from
the root of each checkout.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import hopfgen
from hopfgen.cocycle import cotwist_hopf, trivial_cocycle
from hopfgen.generic_base import decompose, gamma_generators, niceness_witnesses, verify_sigma
from hopfgen.groups import group_from_spec
from hopfgen.hopf import e_algebra, group_algebra, structure_equal, taft, verify_hopf_axioms
from hopfgen.identities import classify, parse_ncpoly
from hopfgen.lattice import pq_generation_check
from hopfgen.tring import power_product, t_ring


def _identity(text: str):
    def check(h) -> bool:
        flags = classify(h, trivial_cocycle(h), parse_ncpoly(text, h))
        # none of the rungs is an identity: this checks it was evaluated
        return flags["identity"] is False

    return check


def _cold_start(_) -> bool:
    src = Path(hopfgen.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "hopfgen", "describe", "--family", "taft:3"],
        capture_output=True,
        env=env,
        check=False,
    )
    return proc.returncode == 0


def _decompose_inputs(count: int = 2000, seed: int = 5):
    """A fresh taft(5) and `count` seeded (element, invertible exponents,
    plain exponents) triples over its presentation."""
    h = taft(5)
    pres = gamma_generators(h)
    ring = t_ring(h)
    mons = [next(iter(g.terms)) for g in pres.generators]
    n = len(pres.invertible_gens)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        exps = [rng.randint(-2, 2) for _ in range(n)]
        exps += [rng.randint(0, 2) for _ in range(len(mons) - n)]
        mon = power_product(list(zip(mons, exps)), ring.width)
        elem = ring.element({mon: h.field.scalar(rng.choice((1, 2, -3)))})
        out.append((elem, tuple(exps[:n]), tuple(exps[n:])))
    return h, out


def _decompose_round_trip(inputs) -> bool:
    h, triples = inputs
    ok = True
    for elem, inv, plain in triples:
        (w,) = decompose(h, elem)
        ok = ok and (w.invertible_exps, w.plain_exps) == (inv, plain) and w.remultiply() == elem
    return ok


SKEW_WORDS = "(X[x]+X[y]+X[x y])^16 - 3*X[x^2 y]*X[y^2]*X[x y^3]*X[x^3 y]"


# (name, build the instance, the timed check on it)
RUNGS = (
    ("axioms taft(6)", lambda: taft(6), lambda h: verify_hopf_axioms(h).ok),
    ("axioms taft(7)", lambda: taft(7), lambda h: verify_hopf_axioms(h).ok),
    ("axioms e(5)", lambda: e_algebra(5), lambda h: verify_hopf_axioms(h).ok),
    ("axioms k[Z/4xZ/12]", lambda: group_algebra(group_from_spec("product:cyclic:4,cyclic:12")),
     lambda h: verify_hopf_axioms(h).ok),
    ("sigma taft(4)", lambda: taft(4), lambda h: verify_sigma(h).ok),
    ("sigma e(3)", lambda: e_algebra(3), lambda h: verify_sigma(h).ok),
    ("sigma taft(5)", lambda: taft(5), lambda h: verify_sigma(h).ok),
    ("sigma e(4)", lambda: e_algebra(4), lambda h: verify_sigma(h).ok),
    ("sigma taft(6)", lambda: taft(6), lambda h: verify_sigma(h).ok),
    ("identity (X[1]+X[x])^64 taft(2)", lambda: taft(2), _identity("(X[1]+X[x])^64")),
    ("identity powers taft(5)", lambda: taft(5), _identity(SKEW_WORDS)),
    ("identity powers taft(7)", lambda: taft(7), _identity(SKEW_WORDS)),
    ("ygroup --check sym:4", lambda: group_from_spec("sym:4"),
     lambda g: pq_generation_check(g).ok),
    ("nice k[S4]", lambda: group_algebra(group_from_spec("sym:4")),
     lambda h: bool(niceness_witnesses(h))),
    ("nice k[Z/24]", lambda: group_algebra(group_from_spec("cyclic:24")),
     lambda h: bool(niceness_witnesses(h))),
    ("nice taft(5)", lambda: taft(5), lambda h: bool(niceness_witnesses(h))),
    ("nice e(4)", lambda: e_algebra(4), lambda h: bool(niceness_witnesses(h))),
    ("decompose taft(5)", _decompose_inputs, _decompose_round_trip),
    ("cotwist taft(6)", lambda: taft(6),
     lambda h: structure_equal(cotwist_hopf(h, trivial_cocycle(h)), h)),
    ("cold start", lambda: None, _cold_start),
)


def main() -> None:
    seconds = {}
    for name, build, check in RUNGS:
        h = build()
        start = time.perf_counter()
        ok = check(h)
        seconds[name] = round(time.perf_counter() - start, 3)
        if not ok:
            print(json.dumps(seconds))
            sys.exit(f"scale ladder: the check of rung {name!r} failed")
    print(json.dumps(seconds))


if __name__ == "__main__":
    main()
