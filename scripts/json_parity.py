#!/usr/bin/env python3
"""Print one sha256 per `--format json` output of a fixed list of commands.

Each command runs `python3 -m hopfgen` from the `src/` of the checkout
that holds this script, in a fresh interpreter.  A line reads

    <sha256 of stdout>  exit=<code>  <arguments>

The selftest output is hashed after blanking the parts of it that change
from run to run: the wall-time detail of criterion 3, and the `seconds`
of every criterion, which is dropped, so the digest is also that of the
output from before criteria carried their seconds.  The
children write no `__pycache__`.  To compare two commits, put this script
into both checkouts, run it in each and `diff` the two outputs.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
INSTANCES = ("taft:2", "taft:3", "e:2", "group:sym:3")
# monomial algebras: the Klein four-group datum of the roster, and Z/4 at n = 4
KLEIN = ("--family", "monomial", "--group", "product:cyclic:2,cyclic:2",
         "--x", "(a,e)", "--chi", "0,0,1,1")
CYCLIC4 = ("--family", "monomial", "--group", "cyclic:4", "--x", "a", "--chi", "0,1,2,3")

COMMANDS = (
    [[verb, "--family", fam] for fam in INSTANCES for verb in ("describe", "axioms")]
    + [["base", "--check", "all", "--family", fam] for fam in ("taft:3", "e:2", "group:sym:3")]
    # Laurent monomials with negative exponents in 16 variables
    + [["base", "--check", "jacobian,quotient,nice,uprime", "--family", fam]
       for fam in ("taft:4", "e:3")]
    + [
        ["base", "--check", "all", "--family", "group:sym:3",
         "--cocycle", "coboundary", "--cocycle-seed", "5"],
        ["identity", "--family", "taft:3", "--poly", "X[1]*X[x]-X[x]*X[1]"],
        ["identity", "--family", "taft:2", "--poly", "(X[x]+X[y])^3-X[x y]"],
        ["identity", "--family", "e:2", "--poly", "X[y_1]*X[y_2]+X[y_2]*X[y_1]"],
        ["identity", "--family", "group:sym:3", "--cocycle", "coboundary",
         "--cocycle-seed", "5", "--poly", "X[(1 2)]*X[(2 3)]-X[(2 3)]*X[(1 2)]"],
        ["identity", "--family", "taft:2", "--poly", "(X[1]+X[y])^10"],
        ["identity", "--family", "group:sym:3", "--cocycle", "coboundary",
         "--cocycle-seed", "3", "--poly", "(X[e]+X[(1 2)])^8"],
        ["selftest"],
    ]
    + [["ygroup", "--check", "--group", spec]
       for spec in ("sym:4", "cyclic:20", "product:cyclic:2,alt:4", "dihedral:9",
                    "product:cyclic:2,cyclic:2,cyclic:2,cyclic:3")]
    + [[verb, *KLEIN] for verb in ("describe", "axioms")]
    # the axiom battery where its generating middle factors are fewest for the dimension
    + [["axioms", "--family", fam] for fam in ("taft:5", "e:4", "group:sym:4")]
    # a grading by Z/4 x Z/12, whose decomposition takes two generators
    + [["axioms", "--family", "group:product:cyclic:4,cyclic:12"]]
    + [["base", "--check", "all", *KLEIN], ["base", "--check", "all", *CYCLIC4]]
    # the degree-6 field of q a seventh root of unity: q-binomial tables,
    # and a coinvariant image checked against the centre span
    + [["describe", "--family", "taft:7"],
       ["identity", "--family", "taft:7", "--poly", "X[y]^7"]]
    # the axiom battery on Kronecker residues of the degree-6 field
    + [["axioms", "--family", "taft:7"]]
    # the lifted cocycle and its inverse on a coboundary, two Nichols
    # algebras, and the letter relations of a group algebra, which read them
    + [["sigma", "--family", "group:cyclic:6", "--cocycle", "coboundary",
        "--cocycle-seed", "3"],
       ["sigma", "--family", "e:3"],
       ["sigma", "--family", "taft:4"],
       ["base", "--check", "uprime", "--family", "group:dihedral:4"]]
    # the group lattices at the cap, reduced over a generating set
    + [["base", "--check", "nice", "--family", "group:sym:4"],
       ["ygroup", "--check", "--group", "cyclic:24"]]
    # mu over fields of degree 4 and 6 with multi-letter words, over a
    # Nichols algebra, and an identity of a group algebra twisted by a coboundary
    + [["identity", "--family", "taft:5", "--poly",
        "X[x]*X[y]-q*X[y]*X[x]+2*X[x y]*X[y^2]*X[x^3]"],
       ["identity", "--family", "taft:7", "--poly", "(X[x]+q*X[y])^3-X[x y]*X[y^2]*X[x^2 y]"],
       ["identity", "--family", "e:3", "--poly",
        "X[y_1]*X[y_2]*X[y_3]+X[y_3]*X[y_2]*X[y_1]-(X[x]+X[y_{1,2}])^2"],
       ["identity", "--family", "group:cyclic:6", "--cocycle", "coboundary",
        "--cocycle-seed", "4", "--poly", "X[a]*X[a^2]*X[a^3]-X[a^3]*X[a^2]*X[a]"]]
)


def blank_runtime(stdout: bytes) -> bytes:
    payload = json.loads(stdout)
    for crit in payload["criteria"]:
        crit.pop("seconds", None)
        if crit["number"] == 3:
            for check in crit["report"]["checks"]:
                if check["name"] == "combined runtime below thirty seconds":
                    check["details"] = ""
    return json.dumps(payload, indent=2).encode()


def main() -> None:
    # no bytecode cache is written into the checkout, so a later benchmark
    # run there starts as cold as one in a fresh checkout
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    for args in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "hopfgen", *args, "--format", "json"],
            capture_output=True,
            env=env,
            check=False,
        )
        out = blank_runtime(proc.stdout) if args[0] == "selftest" else proc.stdout
        digest = hashlib.sha256(out).hexdigest()
        print(f"{digest}  exit={proc.returncode}  {' '.join(args)}", flush=True)


if __name__ == "__main__":
    main()
