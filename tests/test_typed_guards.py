"""Guards on results that reach users raise typed errors, also under
`python -O`, which strips assert statements.

Each failure is forced by a patch that a `force_*` helper applies
through the `setattr` it is given: pytest's monkeypatch in process, the
builtin in a `python -O` child that imports this module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopfgen import identities
from hopfgen.cocycle import trivial_cocycle
from hopfgen.errors import WitnessFailure
from hopfgen.hopf import taft
from hopfgen.tring import TensorH

ROOT = Path(__file__).resolve().parent.parent


def force_an_image_out_of_the_centre(setattr):
    """classify on taft(2) with every image reported non-central: the unit
    letter's image is coinvariant, so the one-dimensional centre is
    contradicted."""
    h = taft(2)
    setattr(TensorH, "is_central", lambda self: False)
    identities.classify(h, trivial_cocycle(h), identities.symbol(h, h.unit_index))


CASES = [
    (force_an_image_out_of_the_centre, WitnessFailure, "coinvariant image escaped the centre"),
]


@pytest.mark.parametrize("force,error,text", CASES, ids=["centre"])
def test_guard_raises_its_typed_error(monkeypatch, force, error, text):
    with pytest.raises(error, match=text):
        force(monkeypatch.setattr)


@pytest.mark.parametrize("force,error,text", CASES, ids=["centre"])
def test_guard_raises_its_typed_error_under_python_O(force, error, text):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")])
    )
    code = (
        "import sys, test_typed_guards as t\n"
        "print(sys.flags.optimize)\n"
        f"t.{force.__name__}(setattr)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert out.stdout == "1\n"
    assert out.returncode == 1
    assert out.stderr.splitlines()[-1] == f"hopfgen.errors.{error.__name__}: {text}"
