"""The benchmark's jobs run and pass their own checks here, at the sizes its timed runs do not reach.

``bench/run.py --trace 1`` raises ``CoverageError`` when a workload's
``expect_calls`` names a boundary that recorded no calls; this test runs the
first bundle of each workload under the same tracer, so a change that moves
work off an expected boundary fails here rather than in a benchmark run.  The
``eval`` verbs are also run at every 2d = 2..12, each job checked against the
reference arithmetic of ``bench/exact.py``, the one oracle the tests share
(the ``bench`` and ``exact`` fixtures of ``conftest.py`` load it).
"""

import contextlib
import io

import pytest

import symplaw
import symplaw.cli


def _run(job) -> tuple:
    """(exit code, standard output) of the CLI on the job's arguments."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = symplaw.cli.main(list(job.argv))
    return rc, out.getvalue()


@pytest.mark.parametrize("name", ["sp-invariants", "pseudochar-axioms", "gma-poly", "cap-dim-eval"])
def test_first_bundle_covers_expected_calls(bench, exact, tmp_path, name):
    tracing, workloads = bench("tracing"), bench("workloads")  # workloads imports exact by name
    wl = workloads.WORKLOADS[name]
    jobs = wl.build(0, symplaw, str(tmp_path))[: wl.bundle]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, job in enumerate(jobs):
            tracer.start_job(i)
            assert job.check(*_run(job)) == (workloads.OK, ""), job.key
    finally:
        tracer.uninstall()
    tracer.check_coverage(wl.expect_calls)


@pytest.mark.parametrize("seed", [0, 1])
def test_every_eval_verb_matches_the_exact_oracle_at_every_size(bench, exact, monkeypatch, tmp_path,
                                                               seed):
    """A cap-dim-eval bundle at d = 1..6: the n = 2 and 4 closed forms at d <= 2, the packed
    product at 2d >= 10, each value against its reference (Pf^2 = det, D = det, P^2 = det, and
    the sigma_i of the word value)."""
    workloads = bench("workloads")
    for d in range(1, 7):
        monkeypatch.setattr(workloads, "CAP_D", d)
        for job in workloads._cap_bundle(seed, 0, symplaw, str(tmp_path)):
            assert job.check(*_run(job)) == (workloads.OK, ""), (d, job.key)
