"""Every library definition, parameter default and field is used from outside
the unit tests.

A top-level function or class in `src/groupforge` must be named somewhere
else in the library, in the benchmark or in the acceptance tests, and a
method's name must be used there as an attribute or a string.  A defaulted
parameter must be passed by some call there, and a field stored on `self` or
declared in a class body must be read there.  Unit tests do not count as
callers: code that only they call is deleted, or moves into them as an
oracle, and a value that only they set is a constant.
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
ALLOWED_PARAMETERS = {"amalgam.adjoin_socle_witness(window)"}
ALLOWED_FIELDS = {"amalgam.SocleRecord.layers"}


def _trees():
    return {path: ast.parse(path.read_text()) for path in CALLERS}


def _strings(trees) -> set:
    return {node.value for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


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
    trees = _trees()
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


def _functions(tree, module):
    """(label, called name, function node, leading parameters to skip) for
    each top-level function and each method; a class's __init__ is called
    by the class name."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield f"{module}.{top.name}", top.name, top, 0
        elif isinstance(top, ast.ClassDef):
            for m in top.body:
                if isinstance(m, ast.FunctionDef):
                    called = top.name if m.name == "__init__" else m.name
                    label = (f"{module}.{top.name}" if m.name == "__init__"
                             else f"{module}.{top.name}.{m.name}")
                    yield label, called, m, 1


def _defaulted(fn, skip):
    """(name, position or None) of each parameter with a default."""
    positional = (fn.args.posonlyargs + fn.args.args)[skip:]
    first = len(positional) - len(fn.args.defaults)
    for pos, a in enumerate(positional):
        if pos >= first:
            yield a.arg, pos
    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if d is not None:
            yield a.arg, None


def _calls(trees):
    """called name -> [(positional count, keywords set)].  `*args` counts as
    every position; `k=k` inside a function with a parameter k (its own or an
    enclosing function's) is a forward and is left out."""
    out = defaultdict(list)

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            params = params | {p.arg for p in
                               a.posonlyargs + a.args + a.kwonlyargs}
        if isinstance(node, ast.Call):
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            if name is not None:
                count = (float("inf")
                         if any(isinstance(x, ast.Starred) for x in node.args)
                         else len(node.args))
                keywords = {k.arg for k in node.keywords
                            if k.arg is not None and not (
                                isinstance(k.value, ast.Name)
                                and k.value.id == k.arg and k.arg in params)}
                out[name].append((count, keywords))
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    for tree in trees.values():
        visit(tree, frozenset())
    return out


def unset_parameters():
    """Labels `module.function(parameter)` of defaulted parameters that no
    call passes, by keyword or position, and no string names."""
    trees = _trees()
    calls, strings = _calls(trees), _strings(trees)
    out = []
    for path in LIBRARY:
        for label, called, fn, skip in _functions(trees[path], path.stem):
            for name, pos in _defaulted(fn, skip):
                if name in strings:
                    continue
                if not any(name in kws or (pos is not None and count > pos)
                           for count, kws in calls[called]):
                    out.append(f"{label}({name})")
    return out


def _fields(tree, module):
    """(label, field name) for each attribute a method stores on `self` and
    each name annotated in a class body."""
    for top in tree.body:
        if not isinstance(top, ast.ClassDef):
            continue
        names = {}
        for stmt in top.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                names.setdefault(stmt.target.id, None)
            elif isinstance(stmt, ast.FunctionDef):
                for n in ast.walk(stmt):
                    if (isinstance(n, ast.Attribute)
                            and isinstance(n.ctx, ast.Store)
                            and isinstance(n.value, ast.Name)
                            and n.value.id == "self"):
                        names.setdefault(n.attr, None)
        for name in names:
            yield f"{module}.{top.name}.{name}", name


def unread_fields():
    """Labels `module.Class.field` of fields never read as an attribute and
    never named as a string."""
    trees = _trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    read |= _strings(trees)
    return [label for path in LIBRARY
            for label, name in _fields(trees[path], path.stem)
            if name not in read]


def test_library_definitions_have_callers_outside_the_unit_tests():
    found = unreached()
    assert [lb for lb in found if lb.rsplit(".", 1)[1] not in ALLOWED] == []
    # an allowed name that gains a caller leaves the list
    assert {lb.rsplit(".", 1)[1] for lb in found} == ALLOWED


def test_defaulted_parameters_are_set_outside_the_unit_tests():
    assert set(unset_parameters()) == ALLOWED_PARAMETERS


def test_fields_are_read_outside_the_unit_tests():
    assert set(unread_fields()) == ALLOWED_FIELDS
