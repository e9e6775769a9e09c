"""Importing the package pulls in none of the heavy introspection modules.

Every `hopfgen` command runs in a fresh interpreter, so each standard
module the package imports is paid for on every command.  `dataclasses`
alone brings `inspect`, `ast`, `dis` and `tokenize`.  The check runs in a
fresh interpreter and compares `sys.modules` before and after the imports
in that same process, so modules that the site set-up loads beforehand
do not count."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the modules the benchmark worker imports, and the command-line entry
MODULES = ("arith", "cocycle", "generic_base", "groups", "hopf",
           "identities", "lattice", "linalg", "selftest", "tring", "cli")
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

PROBE = """
import importlib, json, sys
before = set(sys.modules)
for name in {modules!r}:
    importlib.import_module("hopfgen." + name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_package_import_loads_no_introspection_modules():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(modules=MODULES)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout))
    assert {f"hopfgen.{name}" for name in MODULES} <= loaded
    assert loaded & HEAVY == set()

