import os
from pathlib import Path

import pytest

import symplaw


@pytest.fixture
def child_env() -> dict:
    """The environment of a child process that runs the symplaw under test: the directory
    this process imported it from goes first on PYTHONPATH.  The one builder of a child's
    path; ``tests/test_layout.py`` holds every test to it."""
    path = os.pathsep.join(filter(None, [str(Path(symplaw.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
