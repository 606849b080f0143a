import importlib.util
import os
import sys
from pathlib import Path

import pytest

import symplaw

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def child_env() -> dict:
    """The environment of a child process that runs the symplaw under test: the directory
    this process imported it from goes first on PYTHONPATH.  The one builder of a child's
    path; ``tests/test_layout.py`` holds every test to it."""
    path = os.pathsep.join(filter(None, [str(Path(symplaw.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def bench(monkeypatch):
    """A loader of bench/<name>.py as module ``name``: read only, with no bytecode written under
    bench/, and removed from sys.modules after the test."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name):
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture
def exact(bench):
    """bench/exact.py, the benchmark's reference arithmetic over Fraction rows written without
    symplaw: the one product, determinant and symplectic transpose the tests compare with."""
    return bench("exact")
