"""The package layout: standard library only, imports at module level, a sound __all__."""

import ast
import sys
from pathlib import Path

import symplaw

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "symplaw").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "matrices.py", "cli.py"}


def test_no_import_inside_a_function():
    found = []
    for path in SOURCES:
        for fn in ast.walk(_parse(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_absolute_imports_are_standard_library():
    found = []
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, found


def test_all_names_resolve_without_duplicates():
    names = symplaw.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(symplaw, name)]
    assert not missing, missing
