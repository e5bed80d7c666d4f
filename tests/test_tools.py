"""The size numbers that tools/codesize.py prints, on a module small
enough to count by hand."""

import subprocess
import sys
from pathlib import Path

CODESIZE = Path(__file__).resolve().parent.parent / "tools" / "codesize.py"

# 13 code lines, marked with their count; 9 settable parameters:
# f's a, b, args, c and kw, m's y, the lambda's z and w, and c's q
MODULE = '''"""Module docstring,
on two lines."""

# a comment

import os  # 1


def f(a, b=1, *args, c, **kw):  # 2
    """Function docstring."""
    x = (a +  # 3
         b)  # 4
    return x  # 5


class K:  # 6
    """Class docstring."""

    def m(self, y):  # 7
        return lambda z, w=2: y  # 8

    @classmethod  # 9
    def c(cls, *, q):  # 10
        s = """a string that is not a docstring
counts on each of its lines"""  # 11, 12
        return s  # 13
'''


def test_codesize_counts_code_lines_and_settable_parameters(tmp_path):
    (tmp_path / "small.py").write_text(MODULE)
    res = subprocess.run([sys.executable, str(CODESIZE), str(tmp_path)],
                         text=True, capture_output=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "code lines: 13\nsettable parameters: 9\n"
