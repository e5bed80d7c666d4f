"""What an in-process test run cannot reach, checked in a fresh
interpreter: the package run as a module, and a family check that must
hold under ``python -O``, which strips every ``assert``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, text=True,
                          capture_output=True, timeout=120)


def test_python_m_edlab_help_exits_0():
    res = _python("-m", "edlab", "--help")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("Usage: python -m edlab ")


def test_realize_si_family_refuses_a_bad_instance_under_python_O():
    code = """
if __debug__:
    raise SystemExit("not running under -O")
from edlab import setint
setint.verify_bipartite = lambda inst, prof: False
try:
    setint.realize_si_family(64, 1)
except RuntimeError as err:
    print(err)
"""
    res = _python("-O", "-c", code)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "realized instance is not in the target family\n"
