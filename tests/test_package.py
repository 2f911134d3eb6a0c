"""The package's shape: what it exports, and that it ships no dead code.

The library holds what its commands and studies run. An oracle that only
tests call lives in tests/ (conftest.py or the one module that uses it)
until a command needs it.
"""

import ast
import pathlib

import affine2f

SRC = pathlib.Path(affine2f.__file__).parent


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _loads(node):
    """Every name that node reads, as a Name or as an Attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def test_every_definition_is_exported_or_used():
    # a top-level function or class that affine2f.__all__ does not list
    # must be read somewhere in the library outside its own definition
    modules = _modules()
    statements = [(name, stmt) for name, tree in modules.items()
                  for stmt in tree.body]
    unused = []
    for module, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if stmt.name in affine2f.__all__:
            continue
        if not any(stmt.name in _loads(other)
                   for _, other in statements if other is not stmt):
            unused.append(f"{module}.{stmt.name}")
    assert not unused, f"defined but neither exported nor used: {unused}"


def test_all_resolves_once_and_matches_the_imports():
    names = affine2f.__all__
    assert len(set(names)) == len(names), "a name is listed twice"
    for name in names:
        assert hasattr(affine2f, name), name
    imported = {alias.asname or alias.name
                for stmt in _modules()["__init__"].body
                if isinstance(stmt, ast.ImportFrom)
                for alias in stmt.names}
    assert imported <= set(names), sorted(imported - set(names))
