"""Every library definition is reached from outside the unit tests.

A top-level function or class in `src/groupforge` must be named somewhere
else in the library, in the benchmark or in the acceptance tests, and a
method's name must be used there as an attribute or a string.  Unit tests do
not count as callers: code that only they call is deleted, or moves into
them as an oracle.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "groupforge").glob("*.py"))
CALLERS = (LIBRARY + sorted((ROOT / "bench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])

# ROADMAP item 4 keeps the paper's socle step until a command calls it
ALLOWED = {"adjoin_socle_witness"}


def _definitions(tree, module):
    """(label, node, use kinds that count) for each top-level function and
    class and each non-dunder method."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{top.name}", top, ("name", "attr")
        if isinstance(top, ast.ClassDef):
            for m in top.body:
                if (isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__")
                                 and m.name.endswith("__"))):
                    yield f"{module}.{top.name}.{m.name}", m, ("attr", "str")


def unreached():
    """Labels of the definitions used nowhere outside their own bodies."""
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    uses = defaultdict(list)  # name -> [(kind, node id)]
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append(("name", id(node)))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append(("attr", id(node)))
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                uses[node.value].append(("str", id(node)))
    out = []
    for path in LIBRARY:
        for label, d, kinds in _definitions(trees[path], path.stem):
            inside = {id(n) for n in ast.walk(d)}
            if not any(kind in kinds and at not in inside
                       for kind, at in uses[d.name]):
                out.append(label)
    return out


def test_library_definitions_have_callers_outside_the_unit_tests():
    found = unreached()
    assert [lb for lb in found if lb.rsplit(".", 1)[1] not in ALLOWED] == []
    # an allowed name that gains a caller leaves the list
    assert {lb.rsplit(".", 1)[1] for lb in found} == ALLOWED
