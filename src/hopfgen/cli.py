"""Command-line front end.

Verbs: describe, axioms, identity, base, ygroup, sigma, selftest.
Instances are selected with --family plus family-specific options; group
specs use the compact colon grammar ("cyclic:6", "sym:4", "dihedral:4",
"product:cyclic:2,cyclic:2").  Output is text by default, JSON with
--format json; JSON payloads carry a top-level "schema" field.

Exit codes: 0 all requested checks passed, 1 at least one check failed,
2 usage error (reported on the diagnostic stream).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .arith import format_scalar
from .cocycle import coboundary_cocycle, trivial_cocycle
from .errors import SingularJacobian, WitnessFailure
from .generic_base import (
    gamma_generators,
    jacobian_check,
    niceness_witnesses,
    quotient_presentation_check,
    uprime_relations_check,
    verify_sigma,
)
from .groups import abelianization, group_from_spec
from .hopf import HopfAlgebra, e_algebra, group_algebra, monomial_type_i, taft, verify_hopf_axioms
from .identities import classify, parse_ncpoly
from .arith import make_field
from .groups import character_from_exponents
from .lattice import pq_generation_check, y_group
from .report import Report
from .selftest import CRITERIA, run_criteria
from .tring import verify_t_inverse

SCHEMA = 1


class UsageError(ValueError):
    pass


# --- instance selection ------------------------------------------------------


def _add_family_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        required=True,
        help="taft | e | monomial | group; colon forms taft:N, e:N, "
        "group:SPEC also work",
    )
    p.add_argument("--n", type=int, help="rank for the taft/e families")
    p.add_argument("--group", help="group spec, e.g. sym:3 or product:cyclic:2,cyclic:2")
    p.add_argument("--x", help="label of the chosen central group-like (monomial family)")
    p.add_argument(
        "--chi",
        help="comma-separated character exponents, one per group element "
        "(monomial family)",
    )


def resolve_instance(args: argparse.Namespace) -> HopfAlgebra:
    fam = args.family.strip()
    n = args.n
    group_spec = args.group
    if ":" in fam:
        head, _, rest = fam.partition(":")
        fam = head
        if head in ("taft", "e"):
            try:
                n = int(rest)
            except ValueError as exc:
                raise UsageError(f"bad rank in family {args.family!r}") from exc
        elif head == "group":
            group_spec = rest
        else:
            raise UsageError(f"colon form not supported for family {head!r}")
    if fam == "taft":
        if n is None:
            raise UsageError("taft needs --n")
        return taft(n)
    if fam == "e":
        if n is None:
            raise UsageError("e needs --n")
        return e_algebra(n)
    if fam == "group":
        if not group_spec:
            raise UsageError("group needs --group SPEC")
        return group_algebra(group_from_spec(group_spec))
    if fam == "monomial":
        if not (group_spec and args.x and args.chi):
            raise UsageError("monomial needs --group, --x and --chi")
        g = group_from_spec(group_spec)
        try:
            exponents = [int(v) for v in args.chi.split(",")]
        except ValueError as exc:
            raise UsageError("--chi wants comma-separated integers") from exc
        if len(exponents) != g.order:
            raise UsageError(
                f"--chi needs {g.order} exponents for this group"
            )
        x = g.index_of(args.x)
        field = make_field(g.element_order(x))
        chi = character_from_exponents(g, field, exponents)
        return monomial_type_i(g, x, chi, field)
    raise UsageError(f"unknown family {fam!r}")


def _cocycle_for(args: argparse.Namespace, h: HopfAlgebra):
    kind = getattr(args, "cocycle", "trivial")
    if kind == "trivial":
        return trivial_cocycle(h)
    if kind == "coboundary":
        return coboundary_cocycle(h, getattr(args, "cocycle_seed", 0))
    raise UsageError(f"unknown cocycle kind {kind!r}")


def _cocycle_record(args: argparse.Namespace) -> dict:
    """Which cocycle _cocycle_for built: its kind, and its seed if seeded."""
    seeded = args.cocycle == "coboundary"
    return {"kind": args.cocycle, "seed": args.cocycle_seed if seeded else None}


# --- output -----------------------------------------------------------------


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
        return
    _emit_text(payload)


def _emit_text(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in payload.items():
        if key == "schema":
            continue
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _emit_text(item, indent + 1)
                print()
        else:
            print(f"{pad}{key}: {value}")


# --- verbs ------------------------------------------------------------------


def _structure_lines(h: HopfAlgebra) -> list[str]:
    lines = []
    for (i, j), terms in sorted(h.mult.items()):
        rhs = " + ".join(
            f"({format_scalar(c)})*{h.labels[k]}" for k, c in terms
        )
        lines.append(f"[{h.labels[i]}] * [{h.labels[j]}] = {rhs or '0'}")
    return lines


def cmd_describe(args: argparse.Namespace) -> tuple[dict, int]:
    h = resolve_instance(args)
    payload = {
        "schema": SCHEMA,
        "family": h.family.get("kind"),
        "name": h.name,
        "dimension": h.dim,
        "field_order": h.field.n,
        "labels": list(h.labels),
        "grouplikes": [h.labels[g] for g in h.grouplikes],
        "algebra": h.to_json(),
    }
    if args.format == "text":
        print(f"{h.name}: dimension {h.dim}, field order {h.field.n}")
        print("labels: " + ", ".join(h.labels))
        print("group-likes: " + ", ".join(h.labels[g] for g in h.grouplikes))
        for line in _structure_lines(h):
            print(line)
        return {}, 0
    return payload, 0


def cmd_axioms(args: argparse.Namespace) -> tuple[dict, int]:
    h = resolve_instance(args)
    reports = [verify_hopf_axioms(h), verify_t_inverse(h)]
    ok = all(r.ok for r in reports)
    payload = {
        "schema": SCHEMA,
        "instance": h.name,
        "ok": ok,
        "reports": [r.to_dict() for r in reports],
    }
    return payload, 0 if ok else 1


def cmd_identity(args: argparse.Namespace) -> tuple[dict, int]:
    h = resolve_instance(args)
    alpha = _cocycle_for(args, h)
    poly = parse_ncpoly(args.poly, h, cap=args.cap)
    classification = classify(h, alpha, poly)
    verdict = classification["identity"]
    payload = {
        "schema": SCHEMA,
        "instance": h.name,
        "poly": args.poly,
        "identity": verdict,
        "classification": classification,
    }
    return payload, 0 if verdict else 1


_BASE_CHECKS = ("sigma", "jacobian", "quotient", "nice", "uprime")


def cmd_base(args: argparse.Namespace) -> tuple[dict, int]:
    h = resolve_instance(args)
    wanted = (
        list(_BASE_CHECKS)
        if args.check == "all"
        else [c.strip() for c in args.check.split(",") if c.strip()]
    )
    unknown = [c for c in wanted if c not in _BASE_CHECKS]
    if unknown:
        raise UsageError(f"unknown base checks {unknown}; pick from {_BASE_CHECKS}")
    pres = gamma_generators(h)
    generators = {
        "invertible": [g.to_text() for g in pres.invertible_gens],
        "plain": [g.to_text() for g in pres.plain_gens],
        "special_case": pres.special_case,
    }
    reports: list[Report] = []
    for check in wanted:
        if check == "sigma":
            reports.append(verify_sigma(h, _cocycle_for(args, h)))
        elif check == "jacobian":
            rep = Report("jacobian certificate")
            try:
                det, ok = jacobian_check(h, seed=args.seed)
                rep.add(
                    "determinant certificate nonzero",
                    bool(ok) and not det.is_zero,
                    det.to_text(),
                )
            except SingularJacobian as exc:
                rep.add("determinant certificate nonzero", False, str(exc))
            reports.append(rep)
        elif check == "quotient":
            reports.append(quotient_presentation_check(h))
        elif check == "nice":
            rep = Report("niceness witnesses")
            try:
                wits = niceness_witnesses(h)
                rep.add(
                    "every generator has a verified witness",
                    True,
                    f"{len(wits)} generators",
                )
            except WitnessFailure as exc:
                rep.add("every generator has a verified witness", False, str(exc))
            reports.append(rep)
        elif check == "uprime":
            reports.append(uprime_relations_check(h))
    ok = all(r.ok for r in reports)
    payload = {
        "schema": SCHEMA,
        "instance": h.name,
        "generators": generators,
        "ok": ok,
        "reports": [r.to_dict() for r in reports],
    }
    if "sigma" in wanted:
        payload["cocycle"] = _cocycle_record(args)
    return payload, 0 if ok else 1


def cmd_ygroup(args: argparse.Namespace) -> tuple[dict, int]:
    if not args.group:
        raise UsageError("ygroup needs --group SPEC")
    g = group_from_spec(args.group)
    # y_group checks the lattice cap before the abelianization is computed
    yl = y_group(g)
    ab, _ = abelianization(g)
    payload = {
        "schema": SCHEMA,
        "group": g.name,
        "order": g.order,
        "abelianization_order": ab.order,
        "rank": yl.rank,
        "index": yl.index,
    }
    code = 0
    if args.check:
        rep = pq_generation_check(g)
        payload["reports"] = [rep.to_dict()]
        payload["ok"] = rep.ok
        code = 0 if rep.ok else 1
    return payload, code


def cmd_sigma(args: argparse.Namespace) -> tuple[dict, int]:
    h = resolve_instance(args)
    rep = verify_sigma(h, _cocycle_for(args, h))
    payload = {
        "schema": SCHEMA,
        "instance": h.name,
        "ok": rep.ok,
        "reports": [rep.to_dict()],
        "cocycle": _cocycle_record(args),
    }
    return payload, 0 if rep.ok else 1


def cmd_selftest(args: argparse.Namespace) -> tuple[dict, int]:
    numbers = None
    if args.criteria:
        try:
            numbers = [int(v) for v in args.criteria.split(",") if v.strip()]
        except ValueError as exc:
            raise UsageError("--criteria wants comma-separated integers") from exc
        known = {n for n, _ in CRITERIA}
        bad = [n for n in numbers if n not in known]
        if bad:
            raise UsageError(f"unknown criteria {bad}")
    # one criterion per call so that each is timed, in run_criteria's
    # order: ascending, without repeats
    results, seconds = [], []
    for number in sorted(set(numbers)) if numbers else [n for n, _ in CRITERIA]:
        start = time.perf_counter()
        results += run_criteria([number], seed=args.seed)
        seconds.append(round(time.perf_counter() - start, 3))
    ok = all(rep.ok for _, _, rep in results)
    if args.format == "text":
        for number, title, rep in results:
            flag = "ok  " if rep.ok else "FAIL"
            print(f"{flag} {number:>2}  {title}")
            for c in rep.failures():
                detail = f" | {c.details}" if c.details else ""
                print(f"        failed: {c.name}{detail}")
        print(f"{sum(1 for *_ , r in results if r.ok)}/{len(results)} criteria passed")
        return {}, 0 if ok else 1
    payload = {
        "schema": SCHEMA,
        "ok": ok,
        "criteria": [
            {"number": number, "title": title, "report": rep.to_dict(), "seconds": sec}
            for (number, title, rep), sec in zip(results, seconds)
        ],
    }
    return payload, 0 if ok else 1


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfgen",
        description="exact verification toolkit for small Hopf algebra families",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser, family: bool = True) -> None:
        if family:
            _add_family_options(p)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")

    p = sub.add_parser("describe", help="dump structure constants")
    common(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("axioms", help="run the structure-table battery")
    common(p)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("identity", help="test a polynomial identity")
    common(p)
    p.add_argument("--poly", required=True, help='e.g. "X[1]*X[x]-X[x]*X[1]"')
    p.add_argument("--cap", type=int, default=64, help="word-length cap")
    p.add_argument("--cocycle", choices=("trivial", "coboundary"), default="trivial")
    p.add_argument("--cocycle-seed", type=int, default=0, dest="cocycle_seed")
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("base", help="generators and base-algebra checks")
    common(p)
    p.add_argument(
        "--check",
        default="all",
        help="comma list from sigma,jacobian,quotient,nice,uprime or 'all'",
    )
    p.add_argument("--cocycle", choices=("trivial", "coboundary"), default="trivial")
    p.add_argument("--cocycle-seed", type=int, default=0, dest="cocycle_seed")
    p.set_defaults(func=cmd_base)

    p = sub.add_parser("ygroup", help="degree-zero lattice of a group")
    common(p, family=False)
    p.add_argument("--group", required=True, help="group spec, e.g. sym:3")
    p.add_argument(
        "--check",
        action="store_true",
        help="also verify pair/triple generation",
    )
    p.set_defaults(func=cmd_ygroup)

    p = sub.add_parser("sigma", help="verify the lifted cocycle")
    common(p)
    p.add_argument("--cocycle", choices=("trivial", "coboundary"), default="trivial")
    p.add_argument("--cocycle-seed", type=int, default=0, dest="cocycle_seed")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    common(p, family=False)
    p.add_argument("--criteria", help="comma list of criterion numbers (default all)")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (WitnessFailure, SingularJacobian, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if payload:
        _emit(payload, args.format)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
