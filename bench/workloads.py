"""The four benchmark workloads: how each derives its jobs from the seed and checks them.

A job is one call of ``symplaw.cli.main(argv)``.  Every input a job needs is
derived from the workload seed during set-up and handed over as argv and, for
``cap-dim-eval``, JSON files.  Each job carries a ``check(rc, stdout)`` that
runs after the timed interval and returns ``(status, message)``, where status
is ``OK``, ``KNOWN_DEFECT`` or ``FAILED``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import exact

OK, KNOWN_DEFECT, FAILED = "ok", "known_defect", "failed"

# The one check the program is known to fail on some seeds: the corruption
# fixture of ``suite pseudochar`` can corrupt a cache entry that is only
# compared with itself, so the corruption goes unnoticed.
KNOWN_DEFECT_CHECKS = frozenset({"corrupted_cache_detected"})

JOB_POOL = 256  # suite jobs cycle through this many per-job seeds
BUNDLES = 8  # cap-dim-eval bundles written during set-up, cycled
CAP_D = 6  # 2d = 12, the default SYMPLAW_MAX_DIM


@dataclass(frozen=True)
class Job:
    key: str
    argv: list
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (seed, symplaw package, input dir) -> list of jobs
    bundle: int  # jobs per unit that the timed loop runs whole
    rate: float  # nominal jobs per second of --seconds: fixes a timed run's job count
    min_jobs: int  # a timed run makes at least this many jobs
    expect_calls: tuple  # traced boundaries that must record calls here


# -- suite workloads ---------------------------------------------------------


def _check_suite(suite: str, trials: int, seed: int) -> Callable:
    def check(rc: int, out: str):
        report = json.loads(out)
        if (report["suite"], report["trials"], report["seed"]) != (suite, trials, seed):
            return FAILED, "report does not echo the requested configuration"
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        if report["pass"] != (not failed) or rc != (1 if failed else 0):
            return FAILED, f"exit code {rc} disagrees with report pass={report['pass']}"
        if not failed:
            return OK, ""
        if set(failed) <= KNOWN_DEFECT_CHECKS:
            return KNOWN_DEFECT, f"seed {seed}: {', '.join(failed)}"
        return FAILED, f"seed {seed}: failed checks {failed}"

    return check


def _suite_jobs(suite: str, trials: int, extra: tuple) -> Callable:
    def build(seed: int, sp, workdir: str) -> list:
        rng = random.Random(f"{suite}/{seed}")
        jobs = []
        for i in range(JOB_POOL):
            job_seed = rng.randrange(10**6)
            argv = ["suite", suite, *extra, "--trials", str(trials), "--seed", str(job_seed)]
            jobs.append(Job(f"{i}:{' '.join(argv)}", argv, _check_suite(suite, trials, job_seed)))
        return jobs

    return build


# -- cap-dim-eval --------------------------------------------------------------


def _rand_q(rng: random.Random, magnitude: int = 5) -> Fraction:
    return Fraction(rng.randint(-magnitude, magnitude), rng.choice((1, 2)))


def _rand_matrix(rng: random.Random, n: int) -> list:
    return [[_rand_q(rng) for _ in range(n)] for _ in range(n)]


def _rand_alternating(rng: random.Random, n: int) -> list:
    a = exact.zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = _rand_q(rng)
            a[j][i] = -a[i][j]
    return a


def _rand_word(rng: random.Random, length: int) -> tuple:
    """A reduced word of exactly ``length`` letters on two generators, as ((gen, +-1), ...)."""
    out: list = []
    while len(out) < length:
        letter = (rng.randint(1, 2), rng.choice((1, -1)))
        if not out or out[-1] != (letter[0], -letter[1]):
            out.append(letter)
    return tuple(out)


def _reduce(letters: list) -> tuple:
    out: list = []
    for g, s in letters:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def _word_text(w: tuple) -> str:
    return " ".join(f"g{g}" if s == 1 else f"g{g}^-1" for g, s in w)


def _inverse_word(w: tuple) -> tuple:
    return tuple((g, -s) for g, s in reversed(w))


def _rand_trace_word(rng: random.Random) -> list:
    return [(rng.randint(1, 2), rng.random() < 0.5) for _ in range(2)]


def _trace_word_text(letters: list) -> str:
    return " ".join(f"{i}*" if s else str(i) for i, s in letters)


def _q_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _matrix_json(m: list) -> list:
    return [[_q_json(x) for x in row] for row in m]


def _rho(images: list, w: tuple) -> list:
    """Image of a word; Sp generators are inverted by the symplectic transpose."""
    out = exact.identity(len(images[0]))
    for g, s in w:
        out = exact.mat_mul(out, images[g - 1] if s == 1 else exact.sp_transpose(images[g - 1]))
    return out


def _rho_elem(images: list, terms: list) -> list:
    acc = exact.zeros(len(images[0]))
    for w, c in terms:
        acc = exact.mat_add_scaled(acc, _rho(images, w), c)
    return acc


def _word_value(letters: list, mats: list) -> list:
    out = None
    for i, starred in letters:
        m = exact.sp_transpose(mats[i - 1]) if starred else mats[i - 1]
        out = m if out is None else exact.mat_mul(out, m)
    return out


def _value_check(field: str, expected: Callable, square: bool = False) -> Callable:
    """Compare the output value (or its square) with an expectation computed on first use."""
    memo: list = []

    def check(rc: int, out: str):
        if rc != 0:
            return FAILED, f"exit code {rc}"
        got = Fraction(json.loads(out)[field])
        if not memo:
            memo.append(expected())
        if (got * got if square else got) != memo[0]:
            return FAILED, f"{field} = {got} disagrees with the reference"
        return OK, ""

    return check


def _cap_bundle(seed: int, b: int, sp, workdir: str) -> list:
    rng = random.Random(f"cap-dim-eval/{seed}/{b}")
    n = 2 * CAP_D
    ctx = sp.SymplecticContext(CAP_D)
    images = []
    for _ in range(2):
        s = sp.sample_symplectic(ctx, rng.randrange(10**6))
        images.append([list(row) for row in s.entries])
    rep = {"d": CAP_D, "kind": "Sp", "generators": [_matrix_json(m) for m in images],
           "lambdas": [1, 1]}

    alt = _rand_alternating(rng, n)
    elem_d = [(_rand_word(rng, 2), Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)))
              for _ in range(3)]
    elem_p = []
    for _ in range(2):
        w, c = _rand_word(rng, 2), Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
        elem_p += [(w, c), (_inverse_word(w), c)]
    inv_mats = [_rand_matrix(rng, n) for _ in range(2)]
    inv_word, inv_index = _rand_trace_word(rng), rng.randint(1, n)
    # For an Sp representation X^j is the inverse of X, so a trace word can
    # collapse to a shorter group element; the word value is kept a product of
    # exactly two generator images so that every theta job costs about the same.
    while True:
        gammas = [_rand_word(rng, 1) for _ in range(2)]
        th_word = [(1, rng.random() < 0.5), (2, rng.random() < 0.5)]
        group_word = [letter for (_, starred), g in zip(th_word, gammas)
                      for letter in (_inverse_word(g) if starred else g)]
        if len(_reduce(group_word)) == 2:
            break
    th_index = rng.randint(1, n)

    def elem_json(terms):
        return {"terms": [{"word": _word_text(w), "coef": _q_json(c)} for w, c in terms]}

    specs = [
        ("pfaffian", {"matrix": _matrix_json(alt)},
         _value_check("pfaffian", lambda: exact.det(alt), square=True)),
        ("detlaw", {"rep": rep, "element": elem_json(elem_d), "law": "D"},
         _value_check("D", lambda: exact.det(_rho_elem(images, elem_d)))),
        ("detlaw", {"rep": rep, "element": elem_json(elem_p), "law": "P"},
         _value_check("P", lambda: exact.det(_rho_elem(images, elem_p)), square=True)),
        ("invariant", {"matrices": [_matrix_json(m) for m in inv_mats], "arity": 2,
                       "sigma_index": inv_index, "word": _trace_word_text(inv_word)},
         _value_check("value", lambda: exact.sigmas(_word_value(inv_word, inv_mats))[inv_index])),
        ("theta", {"rep": rep, "gammas": [_word_text(g) for g in gammas],
                   "f": {"sigma_index": th_index, "word": _trace_word_text(th_word), "arity": 2}},
         _value_check("theta", lambda: exact.sigmas(
             _word_value(th_word, [_rho(images, g) for g in gammas]))[th_index])),
    ]
    jobs = []
    for k, (verb, blob, check) in enumerate(specs):
        text = json.dumps(blob)
        path = os.path.join(workdir, f"b{b}-{k}-{verb}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        # the key names the input, so digests from runs of other inputs never match it
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        jobs.append(Job(f"{b}:{k}:{verb}:{digest}", ["eval", verb, "--input", path], check))
    return jobs


def _build_cap(seed: int, sp, workdir: str) -> list:
    return [job for b in range(BUNDLES) for job in _cap_bundle(seed, b, sp, workdir)]


# -- registry --------------------------------------------------------------------

_EVERYWHERE = ("cli.main",)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sp-invariants",
            _suite_jobs("invariants", 4, ("--d", "2")),
            bundle=1,
            rate=1.6,
            min_jobs=20,
            expect_calls=_EVERYWHERE + (
                "multipoly.MultiPoly.__init__", "multipoly.MultiPoly.__mul__",
                "multipoly.MultiPoly.__add__", "matrices.RingMatrix.inverse",
                "matrices.char_poly", "matrices.matrix_rank", "symplectic.symplectic_transpose",
                "symplectic.sample_symplectic", "invariants.eval_invariant",
                "invariants.multilinear_invariant_dim", "invariants.trace_word_span_dim",
                "suites.suite_invariants",
            ),
        ),
        Workload(
            "pseudochar-axioms",
            _suite_jobs("pseudochar", 25, ("--d", "2")),
            bundle=1,
            rate=1.6,
            min_jobs=20,
            expect_calls=_EVERYWHERE + (
                "matrices.RingMatrix.__mul__", "symplectic.symplectic_transpose",
                "symplectic.similitude", "words.word_mul",
                "detlaws.InvolutiveRepresentation.rho_word", "pseudochar.theta_eval",
                "pseudochar.verify_axioms", "suites.suite_pseudochar",
            ),
        ),
        Workload(
            "gma-poly",
            _suite_jobs("gma", 25, ()),
            bundle=1,
            rate=2.4,
            min_jobs=20,
            expect_calls=_EVERYWHERE + (
                "multipoly.MultiPoly.__init__", "multipoly.MultiPoly.__mul__",
                "multipoly.MultiPoly.__add__", "matrices.mat_det", "symplectic.pfaffian",
                "gma.QuotientRing.reduce", "gma.delta_involution", "gma.gma_chi_p",
                "gma.kernel_probe", "suites.suite_gma",
            ),
        ),
        Workload(
            "cap-dim-eval",
            _build_cap,
            bundle=5,
            rate=2.5,
            # every bundle once: with 2 slow verbs in 5, the tail then falls among the slow ones
            min_jobs=5 * BUNDLES,
            expect_calls=_EVERYWHERE + (
                "matrices.RingMatrix.__mul__", "matrices.mat_det", "matrices.char_poly",
                "symplectic.pfaffian", "symplectic.similitude",
                "detlaws.InvolutiveRepresentation.__post_init__", "detlaws.eval_det_law",
                "detlaws.eval_pf_law", "serialize.representation_from_json",
                "serialize.matrix_from_json",
            ),
        ),
    )
}
