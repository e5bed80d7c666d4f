"""Every imported name is used, every private module-level name of the
package is read, and no package module imports another's private name:
AST scans over the package and tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "edlab").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name


def read_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(imported_names(tree)) - read_names(tree))
    assert unused == [], f"{path.name} imports {unused} without reading them"


def private_definitions(tree):
    """The _names a module defines at its top level (dunders excluded)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            tops = (node.targets if isinstance(node, ast.Assign)
                    else [node.target])
            targets = [n.id for top in tops for n in ast.walk(top)
                       if isinstance(n, ast.Name)]
        else:
            continue
        yield from (t for t in targets
                    if t.startswith("_") and not t.startswith("__"))


def test_every_private_helper_is_read():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in PACKAGE}
    read = set()
    for tree in trees.values():
        read |= read_names(tree)
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute))
    defined = [(name, helper) for name, tree in trees.items()
               for helper in private_definitions(tree)]
    assert defined, "the scan found no private helpers at all"
    unread = [f"{name}:{helper}" for name, helper in defined
              if helper not in read]
    assert unread == [], f"private helpers never read in the package: {unread}"


def test_no_module_imports_a_siblings_private_name():
    # a name another module needs is public: `from .x import _name` is
    # the sign that a helper should be renamed, not reached into
    reached = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reached += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                    f"import {alias.name}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").startswith("edlab"))
                    for alias in node.names if alias.name.startswith("_")]
    assert reached == [], f"private names imported across modules: {reached}"


def test_adversary_imports_no_algorithm_and_no_experiment():
    # the adversaries, packing and realization play any opponent they are
    # handed; which algorithm a game is played against, and how its
    # instance is certified, belong to the harness
    tree = ast.parse((ROOT / "src" / "edlab" / "adversary.py")
                     .read_text(encoding="utf-8"))
    imported = []  # dotted names: ".algorithms.doubling_gen", "edlab.harness"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported += [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    reached = [name for name in imported
               if {"algorithms", "harness"} & set(name.split("."))]
    assert reached == [], f"adversary.py imports {reached}"


def callers(path, name):
    """The top-level functions of ``path`` that call ``name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {top.name for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name}


def test_every_element_distinctness_game_is_realized_in_certify():
    src = ROOT / "src" / "edlab"
    assert callers(src / "harness.py", "realize") == {"certify"}
    assert callers(src / "adversary.py", "realize") == {"si_adversary_game"}


def test_instance_mode_selection_has_one_entry():
    # median recursion keys its items once for all its pivots; every
    # other selection on a realized instance goes through select
    called = {path.name: callers(path, "select_keys") for path in PACKAGE}
    assert {name: tops for name, tops in called.items() if tops} == {
        "sortsel.py": {"select"}, "algorithms.py": {"median_recursion"}}


# The functions that read an oracle's values: the oracle itself, and the
# evaluators that charge it the requests a generator would make on a
# realized instance (core.py's module docstring names them).  Everything
# else in the package must ask the oracle.
VALUE_READERS = {
    "core.py:CountingOracle.compare",
    "sortsel.py:sort_spans",
    "sortsel.py:select",
    "algorithms.py:median_recursion",
    "setint.py:si_clairvoyant",
}


def value_readers(path):
    """module:qualified name of each function that loads ``._values``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + [child.name]
            elif (isinstance(child, ast.Attribute) and child.attr == "_values"
                    and isinstance(child.ctx, ast.Load)):
                found.add(f"{path.name}:{'.'.join(scope)}")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_only_the_listed_evaluators_read_oracle_values():
    readers = set().union(*map(value_readers, PACKAGE))
    assert readers == VALUE_READERS, (
        f"new readers {sorted(readers - VALUE_READERS)}, "
        f"listed but gone {sorted(VALUE_READERS - readers)}")
