"""List the lines of the edlab package that a pytest run never executes.

    python3 tools/linehits.py [PYTEST_ARGS...]

Runs ``pytest.main`` in this process, from the repository root, with
``sys.settrace`` and ``threading.settrace`` installed, and records every
line event in a ``src/edlab`` module.  PYTEST_ARGS default to ``-q -p
no:cacheprovider``, which runs the whole Tier-1 suite.  For each module
it then prints the executable lines that never ran: a module's
executable lines are those named by ``co_lines`` of its code object and
every code object nested in it.  A module that was never imported is
printed with its count of executable lines.  The exit status is
pytest's.

The tracer must be installed before edlab is imported, so that the line
events of module bodies are seen; this script imports nothing from the
package itself.  Tracing slows the suite down several times over.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "edlab"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that ``co_lines`` names in ``path``'s code."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def make_tracer(hits: dict[str, set[int]]):
    """A global trace function that adds each line event of a frame whose
    file is a key of ``hits`` to that key's set."""
    local_for = {}  # co_filename -> local trace function, or None

    def local(lines):
        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return local_for[name]
        except KeyError:
            lines = hits.get(os.path.realpath(name))
            local_for[name] = tracer = None if lines is None else local(lines)
            return tracer

    return on_call


def main(argv: list[str]) -> int:
    hits = {os.path.realpath(p): set() for p in sorted(PACKAGE.glob("*.py"))}
    tracer = make_tracer(hits)
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for name, ran in hits.items():
        path = Path(name)
        unrun = sorted(executable_lines(path) - ran)
        total += len(unrun)
        if not ran:
            print(f"{path.name}: never imported ({len(unrun)} lines)")
        elif unrun:
            print(f"{path.name}: {', '.join(map(str, unrun))}")
    print(f"{total} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
