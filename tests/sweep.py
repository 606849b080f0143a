"""Seed sweep: ``symplaw suite all`` at d in {1, 2, 3} and seeds 0..N-1, in one process.

    python tests/sweep.py [--seeds N]

Prints the number of runs, the number that failed (exit code other than 0),
the first failing (d, seed), a SHA-256 digest of every report in order, so
that two checkouts can be compared by one line, and the directory of the
``symplaw`` package that ran.  Exits 1 if any run failed.  A ``symplaw`` on
``PYTHONPATH`` runs ahead of this checkout's ``src``, so

    PYTHONPATH=/path/to/other/src python tests/sweep.py

sweeps the other copy.  Its name does not match ``test_*.py``, so the test
suite does not collect it.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import time
from pathlib import Path

# sys.path is this script's directory, then one entry per PYTHONPATH entry: src goes after them
_PYTHONPATH = os.environ.get("PYTHONPATH", "")
sys.path.insert(1 + len(_PYTHONPATH.split(os.pathsep)) if _PYTHONPATH else 1,
                str(Path(__file__).resolve().parents[1] / "src"))

import symplaw  # noqa: E402
from symplaw.cli import main  # noqa: E402

DIMENSIONS = (1, 2, 3)


def sweep(seeds: int) -> tuple:
    """(runs, failures, first failing (d, seed) or None, digest of all reports)."""
    digest = hashlib.sha256()
    failures, first = 0, None
    for d in DIMENSIONS:
        for seed in range(seeds):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(["suite", "all", "--d", str(d), "--seed", str(seed)])
            digest.update(out.getvalue().encode("utf-8"))
            if rc != 0:
                failures += 1
                first = first or (d, seed)
    return len(DIMENSIONS) * seeds, failures, first, digest.hexdigest()


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=40, help="seeds 0..N-1 at each d (default 40)")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    start = time.perf_counter()
    runs, failures, first, digest = sweep(args.seeds)
    print(f"runs {runs}  failures {failures}  first failing (d, seed) {first}  "
          f"sha256 {digest}  ({time.perf_counter() - start:.1f} s)  "
          f"symplaw {Path(symplaw.__file__).parent}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_main())
