"""The scan scripts run at their defaults against the checkout's package,
the JSON parity script writes no bytecode cache into it and hashes the
selftest output without its run-dependent parts, the scale ladder's
cold start rung runs a command that exits 0, its decompose rung
round-trips every monomial, and its cotwist rung gives back the tables."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["center_scan.py", "jacobian_scan.py", "base_walkthrough.py"])
def test_scan_script_runs_at_its_defaults(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout


def _parity_script():
    spec = importlib.util.spec_from_file_location("json_parity", ROOT / "scripts" / "json_parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    return parity


def test_json_parity_leaves_no_bytecode_cache(tmp_path, monkeypatch, capsys):
    parity = _parity_script()
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(parity, "SRC", src)
    monkeypatch.setattr(parity, "COMMANDS", [["describe", "--family", "taft:2"]])
    # without the script's own setting the children would write the cache
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    parity.main()
    assert capsys.readouterr().out.split()[1:] == ["exit=0", "describe", "--family", "taft:2"]
    assert not list(src.rglob("__pycache__"))


def test_json_parity_hashes_selftest_output_as_before_seconds():
    """The seconds of every criterion are dropped and the time of criterion
    3 blanked, so the digest is that of the output without seconds."""

    def payload(seconds: bool, details: str) -> bytes:
        criteria = []
        for number, name in ((3, "combined runtime below thirty seconds"), (4, "kept")):
            check = {"name": name, "ok": True, "details": details if number == 3 else "kept"}
            crit = {"number": number, "title": "t", "report": {"checks": [check]}}
            if seconds:
                crit["seconds"] = 0.25 * number
            criteria.append(crit)
        return json.dumps({"schema": 1, "ok": True, "criteria": criteria}, indent=2).encode()

    parity = _parity_script()
    assert parity.blank_runtime(payload(True, "0.4 s")) == payload(False, "")
    assert parity.blank_runtime(payload(False, "1.9 s")) == payload(False, "")


def _ladder_rung(name: str):
    spec = importlib.util.spec_from_file_location("scale_ladder", ROOT / "scripts" / "scale_ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    ((_, build, check),) = [rung for rung in ladder.RUNGS if rung[0] == name]
    return build, check


def test_scale_ladder_cold_start_rung_runs_a_command():
    build, check = _ladder_rung("cold start")
    assert check(build()) is True


def test_scale_ladder_decompose_rung_round_trips_every_monomial():
    build, check = _ladder_rung("decompose taft(5)")
    h, triples = build()
    assert len(triples) == 2000 and len({elem for elem, _, _ in triples}) > 1900
    assert check((h, triples)) is True
    # a wrong expected exponent vector fails the rung
    elem, inv, plain = triples[0]
    assert check((h, [(elem, inv, tuple(e + 1 for e in plain))])) is False


def test_scale_ladder_cotwist_rung_gives_back_the_tables():
    build, check = _ladder_rung("cotwist taft(6)")
    h = build()
    assert h.name == "taft(6)" and check(h) is True
