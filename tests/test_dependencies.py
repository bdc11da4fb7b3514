"""The package imports nothing outside the standard library and itself, its
arithmetic is exact (no float literal appears in its source), and every
exported name resolves."""

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


def test_no_float_literals():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), (
                    path.name, node.lineno, node.value)


def test_every_exported_name_resolves():
    assert len(superroot.__all__) == len(set(superroot.__all__))
    for name in superroot.__all__:
        assert hasattr(superroot, name), name
