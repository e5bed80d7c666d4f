"""What an in-process test run cannot reach, checked in a fresh
interpreter: the package run as a module, a family check that must
hold under ``python -O``, which strips every ``assert``, and a pytest
run under the project's own settings."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, text=True,
                          capture_output=True, timeout=120, cwd=cwd)


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


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    # the project turns warnings into errors; Hypothesis's report of a
    # falsifying example must not abort the run with an INTERNALERROR
    (tmp_path / "test_mod.py").write_text("""
from hypothesis import given, strategies as st

@given(st.integers())
def test_property_fails(x):
    assert x < 10

def test_after_it_passes():
    pass
""")
    res = _python("-m", "pytest", "-q", "-p", "no:cacheprovider",
                  "-c", str(ROOT / "pyproject.toml"), "--rootdir",
                  str(tmp_path), "test_mod.py", cwd=tmp_path)
    out = res.stdout + res.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in res.stdout, out
