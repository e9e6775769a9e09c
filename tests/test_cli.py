"""Exit codes, JSON shapes and option handling of the command line."""

import json
import os
import resource
import subprocess
import sys
import time

import pytest

from hopfgen import cli
from hopfgen.cli import main
from hopfgen.errors import RangeError
from hopfgen.hopf import MAX_DIM, HopfAlgebra, e_algebra, taft, verify_hopf_axioms
from hopfgen.identities import parse_ncpoly
from hopfgen.selftest import run_criteria


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_describe_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "describe", "--family", "taft", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["dimension"] == 4
    h = HopfAlgebra.from_json(payload["algebra"])
    assert verify_hopf_axioms(h).ok


def test_describe_text_dumps_structure_constants(capsys):
    code, out, _ = run_cli(capsys, "describe", "--family", "taft", "--n", "2")
    assert code == 0
    assert "[x] * [y]" in out


def test_identity_true_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "identity",
        "--family",
        "taft",
        "--n",
        "3",
        "--poly",
        "X[1]*X[x]-X[x]*X[1]",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["identity"] is True


def test_identity_false_exits_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "identity",
        "--family",
        "taft",
        "--n",
        "3",
        "--poly",
        "X[y]*X[x]-X[x]*X[y]",
        "--format",
        "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["identity"] is False
    assert payload["classification"]["identity"] is False


def test_identity_computes_mu_once(capsys, monkeypatch):
    from hopfgen import identities

    calls = []
    real = identities.mu

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(identities, "mu", counted)
    code, out, _ = run_cli(
        capsys, "identity", "--family", "taft", "--n", "2",
        "--poly", "X[y]*X[x]+X[x]*X[y]", "--format", "json",
    )
    payload = json.loads(out)
    assert (code, payload["identity"]) == (1, False)
    assert payload["classification"]["identity"] is False
    assert len(calls) == 1


def test_identity_evaluates_a_sixty_fourth_power_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "identity", "--family", "taft:2", "--poly", "(X[1]+X[x])^64",
        "--format", "json",
    )
    assert time.perf_counter() - start < 1.0
    assert (code, json.loads(out)["identity"]) == (1, False)


def test_identity_over_the_product_budget_exits_two(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "identity", "--family", "taft:2", "--poly", "(X[1]+X[x]+X[y]+X[x y])^64",
    )
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert "exceeds the budget" in err


def test_ygroup_reports_lattice_index(capsys):
    code, out, _ = run_cli(capsys, "ygroup", "--group", "sym:3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == 2
    assert payload["abelianization_order"] == 2


def test_ygroup_check_flag_runs_generation(capsys):
    code, out, _ = run_cli(
        capsys, "ygroup", "--group", "cyclic:4", "--check", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == 4
    assert payload["ok"] is True


def test_axioms_with_group_colon_form(capsys):
    code, out, _ = run_cli(
        capsys, "axioms", "--family", "group:sym:3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_monomial_family_flags(capsys):
    code, out, _ = run_cli(
        capsys,
        "describe",
        "--family",
        "monomial",
        "--group",
        "product:cyclic:2,cyclic:2",
        "--x",
        "(a,e)",
        "--chi",
        "0,0,1,1",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 8
    assert payload["family"] == "monomial"


def test_base_check_subset(capsys):
    code, out, _ = run_cli(
        capsys,
        "base",
        "--family",
        "taft:2",
        "--check",
        "jacobian,quotient",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"]["special_case"] is True
    assert len(payload["reports"]) == 2
    # no sigma check, so no cocycle to record
    assert "cocycle" not in payload


def test_sigma_verb(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--family", "e:1", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize(
    "verb", [["base", "--check", "all"], ["base", "--check", "sigma"], ["sigma"]]
)
def test_sigma_checks_record_their_cocycle(capsys, verb):
    outputs = []
    for extra, want in (
        ([], {"kind": "trivial", "seed": None}),
        (["--cocycle", "coboundary", "--cocycle-seed", "5"], {"kind": "coboundary", "seed": 5}),
    ):
        code, out, _ = run_cli(
            capsys, *verb, "--family", "group:sym:3", *extra, "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["cocycle"] == want
        outputs.append(out)
    assert outputs[0] != outputs[1]


def test_selftest_subset_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--criteria", "4,12")
    assert code == 0
    assert "ok    4" in out
    assert "2/2 criteria passed" in out


def test_selftest_json_reports_failure(capsys):
    code, out, _ = run_cli(
        capsys, "selftest", "--criteria", "10", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["criteria"][0]["number"] == 10


def test_selftest_json_reports_seconds_per_criterion(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--criteria", "12,4,12", "--format", "json")
    assert code == 0
    criteria = json.loads(out)["criteria"]
    assert [c["number"] for c in criteria] == [4, 12]
    assert [list(c) for c in criteria] == [["number", "title", "report", "seconds"]] * 2
    assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0 for c in criteria)
    reports = [rep.to_dict() for _, _, rep in run_criteria([4, 12])]
    assert [c["report"] for c in criteria] == reports


def test_selftest_has_no_jobs_option(capsys):
    code, _, err = run_cli(capsys, "selftest", "--criteria", "4", "--jobs", "4")
    assert code == 2
    assert "--jobs" in err


def test_run_criteria_runs_serially_only():
    with pytest.raises(RangeError):
        run_criteria([4], jobs=2)


def test_missing_rank_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "identity", "--family", "taft", "--poly", "X[1]")
    assert code == 2
    assert "needs --n" in err


def test_unknown_family_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "describe", "--family", "nosuch", "--n", "2")
    assert code == 2
    assert "unknown family" in err


def test_bad_poly_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "identity", "--family", "taft", "--n", "2", "--poly", "X[1]*"
    )
    assert code == 2
    assert "error" in err


def test_word_cap_bounds_polynomial_products(capsys):
    argv = ("identity", "--family", "taft:3", "--poly", "X[x]^3", "--format", "json")
    code, out, err = run_cli(capsys, *argv, "--cap", "2")
    assert code == 2
    assert out == ""
    assert "word of length 3 exceeds cap 2" in err
    code, out, _ = run_cli(capsys, *argv, "--cap", "3")
    assert code in (0, 1)
    assert json.loads(out)["poly"] == "X[x]^3"
    with pytest.raises(RangeError):
        parse_ncpoly("X[x]^3", taft(3), cap=2)


def test_unknown_base_check_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "base", "--family", "taft:2", "--check", "nosuch"
    )
    assert code == 2
    assert "unknown base checks" in err


def test_unknown_verb_is_usage_error(capsys):
    assert main(["nosuchverb"]) == 2


def test_bad_criteria_list_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "selftest", "--criteria", "1,99")
    assert code == 2
    assert "unknown criteria" in err


def test_seeded_jacobian_is_deterministic(capsys):
    first = run_cli(
        capsys,
        "base",
        "--family",
        "e:3",
        "--check",
        "jacobian",
        "--seed",
        "7",
        "--format",
        "json",
    )
    second = run_cli(
        capsys,
        "base",
        "--family",
        "e:3",
        "--check",
        "jacobian",
        "--seed",
        "7",
        "--format",
        "json",
    )
    assert first == second
    assert first[0] == 0


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "hopfgen", "ygroup", "--group", "cyclic:6", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["index"] == 6


def test_ygroup_checks_the_lattice_cap_before_the_abelianization(capsys, monkeypatch):
    def refuse(group):
        raise AssertionError("abelianization computed for a group over the lattice cap")

    monkeypatch.setattr(cli, "abelianization", refuse)
    code, _, err = run_cli(capsys, "ygroup", "--group", "product:cyclic:4,cyclic:12")
    assert code == 2
    assert "group order 48 exceeds the lattice cap 24" in err


def _limit_memory():
    # runs in the child only: 1 GiB of address space
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def _refused_in_a_capped_child(argv, message):
    """Run the CLI in a child process whose memory is capped: it must exit
    2 with the message in well under a second of the child's CPU time, so
    that a table built before its cap fails here instead of exhausting the
    host."""
    env = {k: v for k, v in os.environ.items() if k != "HOPFGEN_MAX_GROUP_ORDER"}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run(
        [sys.executable, "-m", "hopfgen", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_limit_memory,
        timeout=30,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    assert out.returncode == 2, out.stderr
    assert message in out.stderr
    assert "Traceback" not in out.stderr
    assert cpu < 1.0


@pytest.mark.parametrize(
    "argv,message",
    [
        (["ygroup", "--group", "sym:7"], "group order 5040 exceeds the cap 48"),
        (["ygroup", "--group", "cyclic:100000"], "group order 100000 exceeds the cap 48"),
        (["ygroup", "--group", "product:cyclic:4,cyclic:12"], "exceeds the lattice cap 24"),
        (["ygroup", "--group", "product:cyclic:8,cyclic:8,cyclic:8"], "group order 512 exceeds"),
        (["axioms", "--family", "group:dihedral:1000"], "group order 2000 exceeds the cap 48"),
    ],
)
def test_oversized_groups_exit_two_before_any_table(argv, message):
    _refused_in_a_capped_child(argv, message)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--family", "taft", "--n", "400"], "taft(400) of dimension 400^2 exceeds the dimension cap 64"),
        (["--family", "taft", "--n", "60"], "taft(60) of dimension 60^2 exceeds"),
        (["--family", "taft:9"], "taft(9) of dimension 9^2 exceeds"),
        (["--family", "e", "--n", "30"], "e(30) of dimension 2^31 exceeds the dimension cap 64"),
        (["--family", "e:6"], "e(6) of dimension 2^7 exceeds"),
        (
            ["--family", "monomial", "--group", "cyclic:12", "--x", "a",
             "--chi", ",".join(map(str, range(12)))],
            "monomial(Z/12,12) of dimension 12*12 exceeds the dimension cap 64",
        ),
    ],
)
def test_oversized_families_exit_two_before_any_table(argv, message):
    _refused_in_a_capped_child(["describe", *argv], message)


def _taft2_payload(**changes):
    payload = taft(2).to_json()
    payload.update(changes)
    return payload


@pytest.mark.parametrize(
    "payload,message",
    [
        (_taft2_payload(field_n=10007), "field_n is not an int in 1..64"),
        (_taft2_payload(field_n=10**30), "field_n is not an int in 1..64"),
        (_taft2_payload(field_n=0), "field_n is not an int in 1..64"),
        (_taft2_payload(field_n="4"), "field_n is not an int in 1..64"),
        (_taft2_payload(field_n=True), "field_n is not an int in 1..64"),
        (
            _taft2_payload(field_n=10007, labels=[str(i) for i in range(65)]),
            "a payload of 65 labels exceeds the dimension cap 64",
        ),
    ],
    ids=["order-10007", "order-10^30", "order-0", "string", "bool", "labels"],
)
def test_oversized_json_algebras_are_refused_before_any_table(payload, message):
    """Like the capped CLI runs above: the child must raise RangeError in
    well under a second of CPU time, before it builds the field."""
    code = (
        "import json, sys\n"
        "from hopfgen.errors import RangeError\n"
        "from hopfgen.hopf import HopfAlgebra\n"
        "try:\n"
        "    HopfAlgebra.from_json(json.load(sys.stdin))\n"
        "except RangeError as exc:\n"
        "    sys.exit(f'RangeError: {exc}')\n"
    )
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run(
        [sys.executable, "-c", code],
        input=json.dumps(payload),
        capture_output=True,
        text=True,
        preexec_fn=_limit_memory,
        timeout=30,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    assert out.returncode == 1, out.stderr
    assert f"RangeError: {message}" in out.stderr
    assert cpu < 1.0


def test_the_dimension_cap_admits_the_largest_instances():
    for h in (taft(8), e_algebra(5)):
        assert h.dim == MAX_DIM
