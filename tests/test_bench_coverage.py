"""Every boundary a benchmark workload expects to be called is called by its first jobs.

``bench/run.py --trace 1`` raises ``CoverageError`` when a workload's
``expect_calls`` names a boundary that recorded no calls; this test runs the
first bundle of each workload under the same tracer, so a change that moves
work off an expected boundary fails here rather than in a benchmark run.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import symplaw
import symplaw.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    """bench/<name>.py as module ``name``, read only and removed from sys.modules afterwards."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    _load(monkeypatch, "exact")  # workloads imports it by this name
    return _load(monkeypatch, "tracing"), _load(monkeypatch, "workloads")


@pytest.mark.parametrize("name", ["sp-invariants", "pseudochar-axioms", "gma-poly", "cap-dim-eval"])
def test_first_bundle_covers_expected_calls(bench, tmp_path, name):
    tracing, workloads = bench
    wl = workloads.WORKLOADS[name]
    jobs = wl.build(0, symplaw, str(tmp_path))[: wl.bundle]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, job in enumerate(jobs):
            tracer.start_job(i)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = symplaw.cli.main(list(job.argv))
            assert job.check(rc, out.getvalue()) == (workloads.OK, ""), job.key
    finally:
        tracer.uninstall()
    tracer.check_coverage(wl.expect_calls)
