"""Seeded op lists for the three benchmark workloads.

This module is pure data: it never imports hopfgen.  An op is a small
JSON-able dict; the worker turns it into calls on hopfgen's public API.

Every op is drawn from a fixed, finite pool, so that ``references.json``
holds the exact-output digest of every op any seed can produce.  The seed
chooses only among pool members of the same cost (coefficients, cocycle
seeds), and the order of the stream is the same for every seed, because an
op's latency depends on which earlier ops filled the caches it uses.  So
two seeds load the program alike and the spread of the timings over seeds
is the spread of the measurement.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("roster", "lattice_queries", "identity_queries")

# --- roster ----------------------------------------------------------------

CRITERIA = tuple(range(1, 15))
ROSTER_SEEDS = 8  # run_criteria seeds in the pool: the benchmark seed mod 8


# --- lattice_queries -------------------------------------------------------

# The ygroup and nice questions are the same for every seed: their costs
# differ by up to 2x within a group order, and a seeded draw among them
# would move wall_s and op_p90_ms from seed to seed.  The seed draws the
# coefficients of the decompose elements.
#
# Group specs of order <= 24 for `ygroup --check`, by the cost of y_group
# plus pq_generation_check (measured on a 2-core x86-64 host with Python
# 3.11).  cyclic:24 (1.3 s) is left out.
YGROUP_SPECS = (
    # under 10 ms
    "cyclic:5", "dihedral:4", "sym:3", "product:cyclic:2,cyclic:2",
    # 13 to 21 ms
    "cyclic:8", "dihedral:5", "product:cyclic:3,cyclic:3",
    "product:cyclic:2,cyclic:2,cyclic:2",
    # 35 to 45 ms
    "cyclic:11", "dihedral:6", "alt:4", "product:cyclic:2,sym:3",
    # 110 to 155 ms
    "cyclic:14", "cyclic:15", "dihedral:8", "product:cyclic:2,dihedral:4",
    # 190 to 245 ms
    "cyclic:16", "dihedral:9", "product:cyclic:3,sym:3",
    # 650 to 930 ms
    "cyclic:20", "sym:4", "product:cyclic:2,alt:4",
)

# Group algebras of order 6..12 for `base --check nice`, by cost.  k[S4]
# (8.7 s, nearly all in hnf) is left out.
NICE_SPECS = (
    "cyclic:7", "dihedral:3", "sym:3",  # under 15 ms
    "cyclic:9", "dihedral:4", "product:cyclic:2,cyclic:4",  # 35 to 50 ms
    "cyclic:10", "cyclic:11", "dihedral:5",  # 90 to 135 ms
    "dihedral:6", "alt:4", "product:cyclic:2,cyclic:6",  # 250 to 315 ms
)

# Instances for `decompose`, with the number of invertible and plain
# generators of their presentation (the worker checks these counts).
DECOMPOSE_INSTANCES = {
    "taft(3)": (3, 6),
    "taft(4)": (4, 12),
    "e(2)": (2, 6),
    "e(3)": (2, 14),
    "monomial(Klein,2)": (4, 4),
}
# Element slots per instance: four each with 1, 2, 3 and 4 terms.  The
# exponent vectors of a slot are fixed; its pool variants differ in their
# coefficients, which leave the cost of decompose unchanged.
DECOMPOSE_SLOTS = 16
DECOMPOSE_POOL = 8  # coefficient variants per slot


# --- identity_queries -------------------------------------------------------

IDENTITY_INSTANCES = (
    "e(1)", "e(2)", "e(3)", "taft(2)", "taft(3)", "taft(5)", "taft(7)",
    "k[S3]", "k[Z/6]",
)
COBOUNDARY_INSTANCES = ("k[S3]", "k[Z/6]")
# Shapes of the coboundary queries: five per group algebra, so that the
# short trivial-cocycle queries stay the fastest two thirds of the ops and
# op_p50_ms falls well inside them.
COBOUNDARY_SHAPES = (1, 2, 4, 5, 8)

# Word lengths of the terms of a short polynomial (at most 3 terms, words
# of at most 4 letters).  Every instance gets one query of each shape.
# The words of an (instance, shape) cell are fixed; its pool variants differ
# in their coefficients.  A query's cost depends on its words, so every
# seed draws short queries of the same costs, and op_p50_ms, which falls
# among them, does not move with the draw.
SHORT_SHAPES = (
    (1,), (2,), (1, 2), (3,), (2, 3), (1, 2, 3), (4,), (3, 4), (2, 3, 4), (4, 4),
)
SHORT_POOL = 8  # variants per (instance, shape)

# Powered sums (X[a]+X[b])^k: the twenty (instance, k, letter pair) below,
# the same for every seed.  They are the slowest sixth of the ops, so that
# op_p90_ms falls inside them, on the ten k = 9 queries of about equal cost
# (a flat stretch of the latency curve, so that the percentile does not jump
# between cost levels).
POWER_PAIRS = {
    "taft(2)": (("1", "y"), ("1", "x y"), ("x", "y"), ("x", "x y")),
    "e(1)": (("1", "y_1"), ("1", "x y_1"), ("x", "y_1"), ("x", "x y_1")),
    "e(2)": (("1", "y_1"), ("1", "y_2"), ("1", "x y_1"), ("x", "y_1"),
             ("x", "y_2"), ("x", "x y_1")),
    "k[S3]": (("e", "(2 3)"), ("e", "(1 2)"), ("e", "(1 2 3)"),
              ("(2 3)", "(1 2)"), ("(2 3)", "(1 2 3)"), ("(1 2)", "(1 3 2)"),
              ("(1 2 3)", "(1 3 2)")),
}
POWER_QUERIES = (  # (instance, k, index into POWER_PAIRS[instance])
    ("k[S3]", 8, 1), ("taft(2)", 8, 3), ("e(1)", 8, 2),
    ("taft(2)", 9, 0), ("taft(2)", 9, 1), ("taft(2)", 9, 2), ("e(1)", 9, 0),
    ("e(1)", 9, 1), ("e(1)", 9, 2), ("e(1)", 9, 3), ("e(2)", 9, 0),
    ("e(2)", 9, 3), ("e(2)", 9, 5),
    ("taft(2)", 10, 3), ("e(1)", 10, 1), ("e(2)", 10, 4), ("k[S3]", 10, 2),
    ("e(1)", 11, 0), ("k[S3]", 11, 4),
    ("k[S3]", 12, 0),
)

# Labels per identity instance, so that polynomials can be written
# without importing hopfgen.  The worker checks them against the instance.
LABELS = {
    "e(1)": ("1", "x", "y_1", "x y_1"),
    "e(2)": ("1", "x", "y_1", "y_2", "x y_1", "x y_2", "y_{1,2}", "x y_{1,2}"),
    "e(3)": ("1", "x", "y_1", "y_2", "y_3", "x y_1", "x y_2", "x y_3",
             "y_{1,2}", "y_{1,3}", "y_{2,3}", "x y_{1,2}", "x y_{1,3}",
             "x y_{2,3}", "y_{1,2,3}", "x y_{1,2,3}"),
    "taft(2)": ("1", "x", "y", "x y"),
    "taft(3)": ("1", "x", "x^2", "y", "x y", "x^2 y", "y^2", "x y^2", "x^2 y^2"),
    "taft(5)": tuple(
        " ".join(p for p in (_x, _y) if p) or "1"
        for _y in ("", "y", "y^2", "y^3", "y^4")
        for _x in ("", "x", "x^2", "x^3", "x^4")
    ),
    "taft(7)": tuple(
        " ".join(p for p in (_x, _y) if p) or "1"
        for _y in ("", "y", "y^2", "y^3", "y^4", "y^5", "y^6")
        for _x in ("", "x", "x^2", "x^3", "x^4", "x^5", "x^6")
    ),
    "k[S3]": ("e", "(2 3)", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 3)"),
    "k[Z/6]": ("e", "a", "a^2", "a^3", "a^4", "a^5"),
}


def _short_poly(inst: str, shape_index: int, variant: int) -> str:
    words = random.Random(f"short-words:{inst}:{shape_index}")
    coeffs = random.Random(f"short:{inst}:{shape_index}:{variant}")
    labels = LABELS[inst]
    text = ""
    for length in SHORT_SHAPES[shape_index]:
        coeff = coeffs.choice((1, 2, 3, 5, -1, -2, -3, -5))
        word = "*".join(f"X[{words.choice(labels)}]" for _ in range(length))
        sign = "-" if coeff < 0 else "+"
        text += f" {sign} {abs(coeff)}*{word}"
    text = text.strip()
    return text[2:] if text.startswith("+ ") else text


def _decompose_terms(inst: str, slot: int, variant: int) -> list:
    """1 to 4 terms, each a nonzero integer times a product of the
    presentation's generators with distinct exponent vectors."""
    n_inv, n_plain = DECOMPOSE_INSTANCES[inst]
    exps = random.Random(f"decompose:{inst}:{slot}")
    coeffs = random.Random(f"decompose-coeffs:{inst}:{slot}:{variant}")
    terms, seen = [], set()
    while len(terms) < 1 + slot % 4:
        inv = tuple(exps.randint(-2, 2) for _ in range(n_inv))
        plain = tuple(exps.randint(0, 2) for _ in range(n_plain))
        if (inv, plain) in seen:
            continue
        seen.add((inv, plain))
        terms.append([list(inv), list(plain), coeffs.choice((1, 2, 3, -1, -2, -3))])
    return terms


def pool_op(key: str) -> dict:
    """The op a pool key names; the key is also its reference's name."""
    kind, *rest = key.split("|")
    if kind == "criterion":
        number, seed = int(rest[0]), int(rest[1])
        return {"key": key, "kind": kind, "number": number, "seed": seed}
    if kind in ("ygroup", "nice"):
        return {"key": key, "kind": kind, "spec": rest[0]}
    if kind == "decompose":
        inst, slot, variant = rest[0], int(rest[1]), int(rest[2])
        return {"key": key, "kind": kind, "inst": inst,
                "terms": _decompose_terms(inst, slot, variant)}
    if kind == "short":
        inst, shape, variant = rest[0], int(rest[1]), int(rest[2])
        return {"key": key, "kind": "identity", "inst": inst,
                "poly": _short_poly(inst, shape, variant), "cocycle": None}
    if kind == "coboundary":
        inst, shape, variant = rest[0], int(rest[1]), int(rest[2])
        return {"key": key, "kind": "identity", "inst": inst,
                "poly": _short_poly(inst, shape, variant),
                "cocycle": 1000 + 100 * shape + variant}
    if kind == "power":
        inst, k, pair = rest[0], int(rest[1]), int(rest[2])
        a, b = POWER_PAIRS[inst][pair]
        return {"key": key, "kind": "identity", "inst": inst,
                "poly": f"(X[{a}]+X[{b}])^{k}", "cocycle": None}
    raise ValueError(f"unknown op kind in {key!r}")


def pool_keys(workload: str) -> list[str]:
    """Every key a seed of this workload can draw."""
    if workload == "roster":
        return [f"criterion|{n}|{s}" for s in range(ROSTER_SEEDS) for n in CRITERIA]
    if workload == "lattice_queries":
        keys = [f"ygroup|{s}" for s in YGROUP_SPECS]
        keys += [f"nice|{s}" for s in NICE_SPECS]
        keys += [f"decompose|{i}|{s}|{v}" for i in DECOMPOSE_INSTANCES
                 for s in range(DECOMPOSE_SLOTS) for v in range(DECOMPOSE_POOL)]
        return keys
    if workload == "identity_queries":
        keys = [f"short|{i}|{s}|{v}" for i in IDENTITY_INSTANCES
                for s in range(len(SHORT_SHAPES)) for v in range(SHORT_POOL)]
        keys += [f"coboundary|{i}|{s}|{v}" for i in COBOUNDARY_INSTANCES
                 for s in COBOUNDARY_SHAPES for v in range(SHORT_POOL)]
        keys += [f"power|{i}|{k}|{p}" for i, k, p in POWER_QUERIES]
        return keys
    raise ValueError(f"unknown workload {workload!r}")


def _seed_keys(workload: str, rng: random.Random, seed: int) -> list[str]:
    if workload == "roster":
        return [f"criterion|{n}|{seed % ROSTER_SEEDS}" for n in CRITERIA]
    if workload == "lattice_queries":
        keys = [f"ygroup|{s}" for s in YGROUP_SPECS]
        keys += [f"nice|{s}" for s in NICE_SPECS]
        keys += [f"decompose|{i}|{s}|{rng.randrange(DECOMPOSE_POOL)}"
                 for i in DECOMPOSE_INSTANCES for s in range(DECOMPOSE_SLOTS)]
        return keys
    if workload == "identity_queries":
        keys = [f"short|{i}|{s}|{rng.randrange(SHORT_POOL)}"
                for i in IDENTITY_INSTANCES for s in range(len(SHORT_SHAPES))]
        keys += [f"coboundary|{i}|{s}|{rng.randrange(SHORT_POOL)}"
                 for i in COBOUNDARY_INSTANCES for s in COBOUNDARY_SHAPES]
        keys += [f"power|{i}|{k}|{p}" for i, k, p in POWER_QUERIES]
        return keys
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of one workload for one seed, in execution order.

    The roster keeps the criteria in numeric order, as `hopfgen selftest`
    runs them.  The query workloads interleave their kinds into one stream,
    shuffled the same way for every seed."""
    keys = _seed_keys(workload, random.Random(f"{workload}:{seed}"), seed)
    if workload != "roster":
        random.Random(workload).shuffle(keys)
    return [pool_op(k) for k in keys]


def ops_digest(ops: list[dict]) -> str:
    """Digest of an op list: equal digests mean identical inputs."""
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
