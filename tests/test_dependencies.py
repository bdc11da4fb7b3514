"""The package imports nothing outside the standard library and itself, uses
every name it imports, its arithmetic is exact (no float literal, no name
float and no math function but the integer ones appear in its source), every
exported name resolves and every definition is used, by more than the tests
unless an allowlist names it."""

import ast
import sys
from pathlib import Path

import superroot

SRC = Path(superroot.__file__).parent


def test_only_stdlib_imports():
    allowed = set(sys.stdlib_module_names) | {"superroot"}
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)


def test_every_import_is_used():
    # each name a module imports occurs in that module as a name or in its
    # ``__all__``, so a deletion leaves no dead import behind
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        unused = [(path.name, line, name) for name, line in imported.items() if name not in used]
        assert not unused, unused


def test_rootspace_imports_nothing_from_the_package():
    # rootspace is lattice arithmetic only: no form, and no Cartan data to build one
    tree = ast.parse((SRC / "rootspace.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "superroot", ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "superroot" for a in node.names), ast.dump(node)


def _relative_imports() -> dict[str, set[str]]:
    # module -> the package modules it imports relatively, deferred imports
    # included; a name of ``from . import`` that is no module is __init__'s
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        edges = graph.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    edges.add(node.module.split(".")[0])
                else:
                    edges.update(a.name if (SRC / f"{a.name}.py").exists() else "__init__"
                                 for a in node.names)
    return graph


def test_the_import_graph_is_acyclic():
    # a depth-first walk that meets a module still on its path has found a cycle
    graph = _relative_imports()
    assert {"pisystem", "oracle", "catalog"} <= graph.keys()
    done, path = set(), []

    def visit(mod):
        assert mod not in path, path[path.index(mod):] + [mod]
        if mod in done:
            return
        path.append(mod)
        for dep in sorted(graph[mod]):
            visit(dep)
        path.pop()
        done.add(mod)

    for mod in sorted(graph):
        visit(mod)


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore is its module's own; a second module
    # that needs it should get a public name or a mechanism of its own
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [(path.name, node.lineno, a.name) for a in node.names
                          if a.name.startswith("_") and not a.name.endswith("__")]
    assert not found, found


# math functions that take and return integers only
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def test_no_float_literals():
    # nor a float made at run time: no name float, and no math function but
    # the integer ones (a literal check alone cannot see float(x) or math.sqrt)
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = (path.name, getattr(node, "lineno", None))
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), (*where, node.value)
            elif isinstance(node, ast.Name):
                assert node.id != "float", where
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                assert {a.name for a in node.names} <= INTEGER_MATH, where
            elif isinstance(node, ast.Import):
                assert "math" not in {a.name for a in node.names}, where


def test_every_exported_name_resolves():
    assert len(superroot.__all__) == len(set(superroot.__all__))
    for name in superroot.__all__:
        assert hasattr(superroot, name), name


def _definitions_and_uses():
    # each non-dunder function, method or class of the package, and every
    # occurrence of a name, an attribute or an ``__all__`` string in the
    # package, its tests or its benchmark
    repo = Path(__file__).resolve().parents[1]
    files = [p for d in (SRC, repo / "tests", repo / "perfbench") for p in sorted(d.glob("*.py"))]
    uses, defs = {}, []  # name -> [(path, line)]; (path, first line, last line, name)
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                for c in ast.walk(node.value):
                    if isinstance(c, ast.Constant) and isinstance(c.value, str):
                        uses.setdefault(c.value, []).append((path, c.lineno))
            elif (path.parent == SRC
                  and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defs.append((path, node.lineno, node.end_lineno, node.name))
    assert defs
    # each definition with the places that name it outside its own body
    return [(f"{path.name}:{first} {name}",
             [p for p, line in uses.get(name, ()) if not (p == path and first <= line <= last)])
            for path, first, last, name in defs]


def test_every_definition_is_referenced():
    # each definition occurs somewhere in the package, its tests or its
    # benchmark outside its own definition
    unused = [where for where, places in _definitions_and_uses() if not places]
    assert not unused, unused


# The definitions that only the tests reach, each with the reason it stays.
TEST_ONLY = {
    "span_signature": "the independent dense echelon reference for the sparse span reduction",
    "verify_osp12_module": "acceptance criterion 7: the osp(1,2) module table against the realization",
    "full_basis": "perfbench/baseline.py times it inside a code string, which no parse sees",
    "contains_ed": "membership of an eps/delta vector, which the family-rule and twisted acceptance tests ask",
    "is_real_ed": "reality of an eps/delta vector, against which the tests check the real-root enumerators",
}


def test_test_only_definitions_are_on_the_allowlist():
    # a helper that only the tests call passes the test above; each must be
    # named here, with its reason, so that none grows back unnoticed
    tests = Path(__file__).resolve().parent
    test_only = [where for where, places in _definitions_and_uses()
                 if places and all(p.parent == tests for p in places)]
    assert sorted(where.split()[1] for where in test_only) == sorted(TEST_ONLY), test_only
