"""Print the size of the edlab package as two numbers.

    python3 tools/codesize.py [DIR]

DIR defaults to ``src/edlab`` beside this script.  The first line is the
count of code lines over DIR's ``*.py`` files: every physical line that
holds a token, except module, class and function docstrings, comments
and blank lines.  A line inside any other string, or inside a bracketed
continuation, counts.  The second line is the count of settable
parameters: every parameter of every ``def`` and ``lambda`` (positional,
keyword-only, ``*args`` and ``**kwargs`` alike), except ``self`` and
``cls``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, DOCUMENTED)
                and ast.get_docstring(node) is not None):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str, tree: ast.AST) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(tree))


def parameters(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            count += sum(name not in ("self", "cls") for name in names)
    return count


def main(argv: list[str]) -> None:
    root = (Path(argv[0]) if argv
            else Path(__file__).resolve().parent.parent / "src" / "edlab")
    lines = params = 0
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        lines += code_lines(source, tree)
        params += parameters(tree)
    print(f"code lines: {lines}")
    print(f"settable parameters: {params}")


if __name__ == "__main__":
    main(sys.argv[1:])
