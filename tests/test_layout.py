"""The package layout: standard library only, imports at module level, a sound __all__,
and every function the benchmark's tracer wraps still in place."""

import ast
import importlib.util
import sys
from pathlib import Path

import symplaw
import symplaw.cli  # the tracer resolves boundaries in every module, the CLI too
from symplaw.matrices import RingMatrix

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "symplaw").glob("*.py"))


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


def test_every_traced_boundary_resolves(monkeypatch):
    """A renamed or deleted function that ``bench/run.py --trace 1`` wraps fails here."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("symplaw_bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = []
    for boundary in tracing.TIMED + tracing.COUNTED:
        try:
            fn = tracing._resolve(boundary)
        except (KeyError, AttributeError):
            unresolved.append(boundary)
        else:
            assert callable(fn), boundary
    assert not unresolved, unresolved
    # the mat_det hook splits its calls by this method
    assert callable(getattr(RingMatrix, "all_rational", None))
