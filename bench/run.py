"""symplaw benchmark: closed-loop jobs through ``symplaw.cli.main``, in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one client: the next job starts when the previous
one returns.  Each job's stdout is captured; every output is checked after the
timed interval by routes that avoid the layer being timed (see workloads.py).
Its digest is compared with the same job run again after the timed interval,
and with the same job in earlier runs of the same code in this checkout.

``--trace 0`` runs a fixed number of jobs, ``--seconds`` times the workload's
nominal rate, and reports the end-to-end metrics; the same seed always runs
the same jobs, so its failures repeat exactly.
``--trace 1`` runs each job of a fixed list twice, untraced and traced (see
tracing.py), and reports per-layer metrics and the tracing overhead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gauge
import tracing
from workloads import FAILED, KNOWN_DEFECT, OK, WORKLOADS, Job

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7  # set-up is repeated and its median reported
WALL_LIMIT_S = 120.0  # under extreme load the timed loop stops early, after whole bundles
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it
TRACE_JOBS = 10  # the traced run takes this many jobs from the start of the workload's list


@dataclass(frozen=True)
class Result:
    job: Job
    rc: int | None  # None if main raised
    out: str
    err: str
    seconds: float
    gauge: float  # gauge reading taken just before the job


def _import_symplaw():
    for name in [n for n in sys.modules if n == "symplaw" or n.startswith("symplaw.")]:
        del sys.modules[name]
    return importlib.import_module("symplaw"), importlib.import_module("symplaw.cli")


def setup(wl, seed: int, workdir: Path, repeats: int):
    """Import symplaw and write the workload's inputs, ``repeats`` times; the last set-up is used.

    Returns the cli module, the jobs, and the median set-up time, raw and scaled.
    """
    raw, scaled = [], []
    for _ in range(repeats):
        before = gauge.read()
        start = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        package, cli = _import_symplaw()
        jobs = wl.build(seed, package, str(workdir))
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * gauge.factor([before, gauge.read()]))
    return cli, jobs, statistics.median(raw), statistics.median(scaled)


def run_job(cli, job, tracer=None, job_id=None) -> Result:
    """One call of ``cli.main``, after a gauge reading.

    ``main`` is looked up on each call, so the traced run calls its wrapper.
    """
    reading = gauge.read()
    if tracer:
        tracer.start_job(job_id)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a crash is a failed job, reported below
        rc, err = None, io.StringIO(f"{type(e).__name__}: {e}")
    elapsed = time.perf_counter() - start
    return Result(job, rc, out.getvalue(), err.getvalue(), elapsed, reading)


def job_count(wl, seconds: float) -> int:
    """Jobs a timed run makes: ``seconds`` at the workload's nominal rate, in whole bundles.

    The count depends on nothing measured, so two runs with one seed run the
    same jobs and fail the same ones.  At least the workload's ``min_jobs`` run.
    """
    n = max(wl.min_jobs, math.ceil(seconds * wl.rate))
    return -(-n // wl.bundle) * wl.bundle


def closed_loop(cli, jobs: list, count: int, bundle: int) -> tuple:
    """Run the first ``count`` jobs of the cycled list, one after another.

    Returns the results and the wall time.  Only past WALL_LIMIT_S of wall time
    does the loop stop early, after a whole bundle, which the report then says.
    """
    results = []
    start = time.perf_counter()
    while len(results) < count and (
        len(results) % bundle or time.perf_counter() - start < WALL_LIMIT_S
    ):
        results.append(run_job(cli, jobs[len(results) % len(jobs)]))
    return results, time.perf_counter() - start


def scaled_seconds(results: list, last_reading: float) -> list:
    """Job times scaled to the reference speed by the gauge readings just before and after each.

    A job's after-reading is the next job's before-reading; ``last_reading``
    is taken after the last job.
    """
    after = [r.gauge for r in results[1:]] + [last_reading]
    return [r.seconds * gauge.factor([r.gauge, a]) for r, a in zip(results, after)]


def code_id() -> str:
    """Digest of the program's sources: output digests are compared only between runs of one code."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def verify(results: list, digest_path: Path) -> tuple:
    """Check every job output and its determinism; returns (failed, unexpected, messages).

    A job run more than once in the run, or run in an earlier run of the same
    code (``digest_path`` is named by ``code_id``), must print the same bytes.
    """
    try:
        known = json.loads(digest_path.read_text())
    except (OSError, ValueError):
        known = {}
    digests = {}
    verdicts = {}
    failed = unexpected = 0
    messages = []
    for r in results:
        key = r.job.key
        if key not in verdicts:
            if r.rc is None:
                verdicts[key] = (FAILED, f"raised {r.err.strip()}")
            else:
                try:
                    verdicts[key] = r.job.check(r.rc, r.out)
                except (ValueError, KeyError, TypeError) as e:
                    verdicts[key] = (FAILED, f"unreadable output ({e}); stderr: {r.err.strip()}")
        status, message = verdicts[key]
        digest = hashlib.sha256(r.out.encode()).hexdigest()
        if digest != digests.setdefault(key, known.get(key, digest)):
            status, message = FAILED, "output differs from another run of the same job and code"
        if status != OK:
            failed += 1
            unexpected += status != KNOWN_DEFECT
            messages.append(f"{key}: {status}: {message}")
    known.update(digests)
    tmp = digest_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, digest_path)
    return failed, unexpected, messages


def tail(latencies: list) -> tuple:
    """(percentile, value): the highest whole percentile with TAIL_BEYOND jobs above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = -(-pct * n // 100)  # nearest rank, ceil(pct * n / 100)
    return pct, ordered[rank - 1]


def latency_metrics(latencies: list) -> tuple:
    """(jobs_per_s, p50 seconds, tail percentile, tail seconds) of the timed jobs' times."""
    pct, tail_s = tail(latencies)
    return len(latencies) / sum(latencies), statistics.median(latencies), pct, tail_s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def end_to_end(wl, cli, jobs, setup: tuple, seconds: float, digest_path: Path) -> dict:
    count = job_count(wl, seconds)
    results, wall = closed_loop(cli, jobs, count, wl.bundle)
    last_reading = gauge.read()
    # the first two timed jobs again, untimed, so every run compares some job with itself
    reruns = [run_job(cli, r.job) for r in results[:2]]
    failed, unexpected, messages = verify(results + reruns, digest_path)
    rate, p50, pct, tail_s = latency_metrics(scaled_seconds(results, last_reading))
    raw_rate, raw_p50, _, raw_tail = latency_metrics([r.seconds for r in results])
    n = len(results) + len(reruns)
    metrics = {
        "jobs_per_s": (rate, "jobs/s"),
        "job_p50_ms": (p50 * 1e3, "ms"),
        "job_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup[1], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"times are scaled to the reference speed by gauge.py; raw wall clock: "
        f"jobs_per_s {raw_rate:.4g}, job_p50_ms {raw_p50 * 1e3:.4g}, "
        f"job_tail_ms {raw_tail * 1e3:.4g}, setup_s {setup[0]:.4g}, "
        f"{len(results) / wall:.4g} jobs/s over the whole {wall:.2f} s including gauge readings",
        f"jobs_per_s is {len(results)} timed jobs / their summed time",
        f"{len(results)} of the {count} jobs set by --seconds {seconds:g} at "
        f"{wl.rate:g} jobs/s ran" + ("" if len(results) == count else
                                     f"; the loop stopped at its {WALL_LIMIT_S:g} s wall limit"),
        f"job_tail_ms is p{pct} of {len(results)} timed jobs",
        f"fail_ratio {failed / n:.4f} (1): {failed} of {n} jobs failed, "
        f"{failed - unexpected} of them the known corrupted_cache_detected defect; "
        f"the {n} jobs include {len(reruns)} run again after the timed interval",
        f"set-up repeated {SETUP_REPEATS} times, median reported",
    ]
    return dict(metrics=metrics, notes=notes + messages, attempted=n,
                failed=failed, correct=unexpected == 0)


def traced(wl, cli, jobs, digest_path: Path, layer_metrics: list) -> dict:
    """Run each job of a fixed list untraced and traced, back to back, alternating the order."""
    tracer = tracing.Tracer()
    plain, spans = [], []
    for i in range(TRACE_JOBS):
        job = jobs[i % len(jobs)]
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.install()
                try:
                    spans.append(run_job(cli, job, tracer, i))
                finally:
                    tracer.uninstall()
            else:
                plain.append(run_job(cli, job))
    tracer.check_coverage(wl.expect_calls)
    failed, unexpected, messages = verify(plain + spans, digest_path)
    # each pair of runs of one job is scaled by the same gauge readings
    factors = [gauge.factor([p.gauge, t.gauge]) for p, t in zip(plain, spans)]
    plain_rate = len(plain) / sum(p.seconds * f for p, f in zip(plain, factors))
    traced_rate = len(spans) / sum(t.seconds * f for t, f in zip(spans, factors))
    traced_factor = statistics.median(factors)
    overhead = {
        "trace.jobs_per_s": traced_rate,
        "trace.untraced_jobs_per_s": plain_rate,
        "trace.jobs_per_s_ratio": traced_rate / plain_rate,
    }
    values = tracer.layer_metrics([n for n, _ in layer_metrics if n not in overhead], traced_factor)
    values.update(overhead)
    metrics = {name: (values[name], unit) for name, unit in layer_metrics}
    notes = [
        f"traced run: {len(spans)} jobs, each also run untraced next to it; "
        f"{len(tracer.spans)} spans kept in memory",
        f"times are scaled to the reference speed by gauge.py (factor {traced_factor:.4g})",
        "waiting time: none to report; the program is single-threaded and has no queues",
        "ratios read 0 where their boundary recorded no calls",
    ]
    return dict(metrics=metrics, notes=notes + messages, attempted=len(plain) + len(spans),
                failed=failed, correct=unexpected == 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symplaw" / "cli.py").is_file():
        sys.stderr.write(f"no symplaw sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload]
    state = ROOT / ".bench_run"
    workdir = state / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    state.mkdir(exist_ok=True)
    digest_path = state / f"digests-{code_id()}-{args.workload}-{args.seed}.json"
    # BENCHMARK.json is the one list of the per-layer metrics and their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_metrics = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        cli, jobs, *setup_s = setup(wl, args.seed, workdir, repeats)
        if args.trace:
            report = traced(wl, cli, jobs, digest_path, layer_metrics)
        else:
            report = end_to_end(wl, cli, jobs, setup_s, args.seconds, digest_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:55s} {value:>16.6g} {unit}")
    for note in report["notes"]:
        print(f"  # {note}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
