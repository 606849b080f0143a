"""Named property suites: the checks behind the CLI and the acceptance run.

Every suite is deterministic in (d, trials, seed) and returns a list of
check dicts {"name", "pass", ...}; witnesses for failures are included as
strings.  All equalities are exact, with no tolerances anywhere.

A randomized check is declared as drawn inputs and two sides, which ``_run``
draws and compares; one-shot checks are made by ``_check``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from . import gma, invariants, pseudochar
from .detlaws import (
    GroupAlgebraElement,
    InvolutiveRepresentation,
    chi_alpha,
    closed_form_check_d4,
    eval_det_law,
    eval_pf_law,
    newton_lambdas_from_traces,
    pfaffian_coeffs_from_lambdas,
    star,
)
from .errors import SymplawError
from .invariants import InvariantFunction, check_invariance, enumerate_trace_words
from .matrices import RingMatrix, lambdas_of_matrix, mat_det, trace_of_product
from .symplectic import (
    SymplecticContext,
    matrix_poly_value,
    pfaffian,
    pfaffian_coeffs_of_matrix,
    power_traces,
    random_alternating,
    random_j_symmetric,
    random_matrix,
    reduced_pfaffian,
    sample_similitude,
    sample_symplectic,
    similitude,
    symplectic_transpose,
)
from .words import random_word, word_inv, word_mul

SUITE_NAMES = ("pfaffian", "det-law", "invariants", "gma", "pseudochar", "all")


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    d: int = 2
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise SymplawError(f"unknown suite {self.suite!r}; choose from {SUITE_NAMES}")
        if self.trials < 1:
            raise SymplawError("trials must be >= 1")
        if self.d < 1:
            raise SymplawError("d must be >= 1")


def _check(name: str, passed: bool, **extra) -> dict:
    return {"name": name, "pass": bool(passed), **extra}


def _stream(*key) -> random.Random:
    """``random.Random`` of ``key``, (seed, suite, check, ...), joined by "/": SHA-512 hashes a
    string seed, so no two keys share draws, and a negative seed has streams of its own."""
    return random.Random("/".join(map(str, key)))


def _run(key: tuple, schedule, draw: Callable, *checks, witness: Callable | None = None) -> list:
    """One check dict per (name, left, right) of ``checks``, over the trials of ``schedule``.

    ``draw(item, rng)`` makes every random draw of the trial at ``item`` from ``rng``, the
    stream of ``key`` (seed, suite) and the first check's name, and returns its inputs, or
    None to skip the trial.  A check fails at the first inputs where ``left(*inputs)`` and
    ``right(*inputs)`` differ (``right`` may be a constant) and is not evaluated again; no
    trial is drawn once every check has failed.  With ``witness``, each dict gets a
    "witness": ``witness(*inputs)`` at its failing inputs, called only then, or None.
    """
    rng = _stream(*key, checks[0][0])
    failed = {}
    for item in schedule:
        if len(failed) == len(checks):
            break
        if (inputs := draw(item, rng)) is None:
            continue
        for name, left, right in checks:
            if name not in failed and left(*inputs) != (right(*inputs) if callable(right) else right):
                failed[name] = inputs
    out = [_check(name, name not in failed) for name, _, _ in checks]
    if witness is not None:
        for check in out:
            check["witness"] = witness(*failed[check["name"]]) if check["name"] in failed else None
    return out


def _spread(values, trials: int):
    """``trials`` spread evenly over ``values``, earlier ones first: (value, j) for its j-th
    trial, made one at a time, so that memory does not grow with ``trials``."""
    base, rem = divmod(trials, len(values))
    return ((v, j) for i, v in enumerate(values) for j in range(base + (i < rem)))


def _sp_pair(ctx: SymplecticContext, rng: random.Random) -> InvolutiveRepresentation:
    """The Sp representation sending g1 and g2 to two samples seeded from ``rng``."""
    images = [sample_symplectic(ctx, rng.getrandbits(64)) for _ in range(2)]
    return InvolutiveRepresentation.from_images(images)


def _random_element(rng: random.Random) -> GroupAlgebraElement:
    """Three terms: a word of at most 3 letters in g1, g2 times a / b, -3 <= a <= 3, b in {1, 2}."""
    return GroupAlgebraElement({
        random_word(rng, 2, 3): Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)
    })


# -- pfaffian suite ------------------------------------------------------


def suite_pfaffian(d: int, trials: int, seed: int) -> list:
    key = (seed, "pfaffian")
    checks = []

    sizes = [2 * k for k in range(1, d + 1)]
    checks += _run(key, _spread(sizes, trials), lambda item, rng: (random_alternating(item[0], rng),),
                   ("pfaffian_squared_equals_det", lambda a: pfaffian(a) ** 2, mat_det),
                   witness=lambda a: f"size {a.rows}: {a}")

    ctx = SymplecticContext(d)
    checks += _run(key, range(min(trials, 200)), lambda _, rng: (random_matrix(2 * d, rng),),
                   ("symplectic_transpose_involutive",
                    lambda m: symplectic_transpose(ctx, symplectic_transpose(ctx, m)), lambda m: m))

    def alternating_and_matrix(_, rng):
        n = rng.choice([s for s in sizes if s <= 6])
        return random_alternating(n, rng), random_matrix(n, rng)

    checks += _run(key, range(min(trials, 50)), alternating_and_matrix,
                   ("pfaffian_conjugation_covariance",
                    lambda a, g: pfaffian(g * a * g.transpose()),
                    lambda a, g: mat_det(g) * pfaffian(a)))

    checks.append(_check("reduced_pfaffian_normalization", all(
        reduced_pfaffian(SymplecticContext(k), RingMatrix.identity(2 * k)) == 1
        for k in range(1, max(d, 4) + 1)
    )))

    by_dd = list(_spread([SymplecticContext(dd) for dd in range(1, min(d, 3) + 1)], min(trials, 60)))

    def j_symmetric(item, rng):
        return item[0], random_j_symmetric(item[0], rng, 3)

    # one call per check, so that each draws its own matrices from its own stream
    for check in (("pfaffian_cayley_hamilton",
                   lambda cdd, m: matrix_poly_value(pfaffian_coeffs_of_matrix(cdd, m), m).is_zero(),
                   True),
                  ("recursion_matches_pfaffian_char_poly",
                   lambda cdd, m: pfaffian_coeffs_from_lambdas(lambdas_of_matrix(m)),
                   pfaffian_coeffs_of_matrix)):
        checks += _run(key, by_dd, j_symmetric, check, witness=lambda cdd, m: f"d={cdd.d}: {m}")

    def transfer_inputs(_, rng):
        dd = rng.randint(1, min(d, 2))
        cdd = SymplecticContext(dd)
        return cdd, random_j_symmetric(cdd, rng, 3), random_matrix(2 * dd, rng, 3)

    checks += _run(key, range(min(trials, 50)), transfer_inputs,
                   ("transfer_identity",
                    lambda cdd, m, x: reduced_pfaffian(cdd, x * m * symplectic_transpose(cdd, x)),
                    lambda cdd, m, x: mat_det(x) * reduced_pfaffian(cdd, m)))

    def commuting_pair(_, rng):
        dd = rng.randint(1, min(d, 2))
        cdd = SymplecticContext(dd)
        m = random_j_symmetric(cdd, rng, 3)
        x = RingMatrix.scalar(2 * dd, Fraction(rng.randint(-3, 3))) + m * Fraction(
            rng.randint(-3, 3)
        )
        y = RingMatrix.scalar(2 * dd, Fraction(rng.randint(-3, 3))) + (m * m) * Fraction(
            rng.randint(-3, 3)
        )
        return cdd, x, y

    checks += _run(key, range(min(trials, 50)), commuting_pair,
                   ("commuting_multiplicativity",
                    lambda cdd, x, y: reduced_pfaffian(cdd, x * y),
                    lambda cdd, x, y: reduced_pfaffian(cdd, x) * reduced_pfaffian(cdd, y)))
    return checks


# -- determinant-law suite -------------------------------------------------


def suite_det_law(d: int, trials: int, seed: int) -> list:
    key = (seed, "det-law")
    checks = []

    checks += _run(key, range(min(trials, 50)), lambda _, rng: (random_matrix(2 * d, rng, 4),),
                   ("newton_matches_char_poly",
                    lambda m: newton_lambdas_from_traces(power_traces(m, 2 * d)), lambdas_of_matrix))

    def binomial(dd):
        return pfaffian_coeffs_from_lambdas(newton_lambdas_from_traces([Fraction(2 * dd)] * (2 * dd)))

    checks += _run(key, range(1, 5), lambda dd, _: (dd,),
                   ("binomial_values_at_identity",
                    binomial, lambda dd: tuple(math.comb(dd, i) for i in range(dd + 1))))

    ctx4 = SymplecticContext(4)

    def d4_matrix(_, rng):
        m = random_j_symmetric(ctx4, rng, 2)
        return m, lambdas_of_matrix(m)

    checks += _run(key, range(min(trials, 50)), d4_matrix,
                   ("d4_closed_forms",
                    lambda m, lams: closed_form_check_d4(lams, power_traces(m, 4)),
                    lambda m, lams: (pfaffian_coeffs_from_lambdas(lams)[4],) * 2),
                   witness=lambda m, lams: str(m))

    ctx1 = SymplecticContext(1)

    def sl2_pair_and_word(_, rng):
        rep = _sp_pair(ctx1, rng)
        w = random_word(rng, 2, 4)
        return (rep, w) if w else None

    def sl2_traces(rep, w):
        t = lambda word: rep.rho_word(word).trace()  # noqa: E731
        g, gi = w, word_inv(w)
        g2 = word_mul(w, w)
        lhs = t(g) ** 2 + 2 * t(g) * t(gi) + t(gi) ** 2 - 2 * t(g2) - 2 * t(word_inv(g2)) - 8
        return lhs, 4 * t(g) ** 2 - 4 * t(g2) - 8

    checks += _run(key, range(min(trials, 100)), sl2_pair_and_word,
                   ("sl2_trace_identities", sl2_traces, (0, 0)))

    ctx = SymplecticContext(min(d, 2))

    def pair_and_elements(_, rng):
        rep = _sp_pair(ctx, rng)
        x, y = _random_element(rng), _random_element(rng)
        return rep, x, y, x + star(rep, x)

    checks += _run(key, range(min(trials, 30)), pair_and_elements,
                   ("det_law_multiplicative_star_invariant",
                    lambda rep, x, y, sym: (eval_det_law(rep, x * y), eval_det_law(rep, star(rep, x))),
                    lambda rep, x, y, sym: (eval_det_law(rep, x) * eval_det_law(rep, y),
                                            eval_det_law(rep, x))),
                   ("pf_law_squares_to_det",
                    lambda rep, x, y, sym: eval_pf_law(rep, sym) ** 2,
                    lambda rep, x, y, sym: eval_det_law(rep, sym)))

    g1 = GroupAlgebraElement.from_word(((1, 1),))

    def matrix_model(_, rng):
        rep = InvolutiveRepresentation.from_images([sample_symplectic(ctx, rng.getrandbits(64))])
        r1 = g1 + star(rep, g1)
        return rep, r1, rep.rho(r1)

    # the t_1^d coefficient cancels a fault of M J that rescales or shifts the
    # Pfaffian polynomial; the T_i compared with the Lambda recursion do not
    checks += _run(key, range(min(trials, 10)), matrix_model,
                   ("chi_alpha_vanishes_on_matrix_models",
                    lambda rep, r1, m: (pfaffian_coeffs_from_lambdas(lambdas_of_matrix(m)),
                                        chi_alpha(rep, [r1], [ctx.d]).is_zero()),
                    lambda rep, r1, m: (pfaffian_coeffs_of_matrix(ctx, m), True)))
    return checks


# -- invariants suite -------------------------------------------------------


def suite_invariants(d: int, trials: int, seed: int) -> list:
    key = (seed, "invariants")
    checks = []

    words = enumerate_trace_words(1, 2)
    checks.append(
        _check(
            "enumeration_desk_counts",
            [str(w) for w in words] == ["1", "1 1", "1 1*"]
            and len(enumerate_trace_words(2, 1)) == 2,
        )
    )

    gens = enumerate_trace_words(2, 3)
    by_dd = list(_spread((1, 2) if d >= 2 else (1, 1), min(trials, 200)))
    fs = {dd: [InvariantFunction.sigma(i, w, arity=2) for w in gens for i in range(1, 2 * dd + 1)]
          for dd in {dd for dd, _ in by_dd}}

    def conjugator_and_pair(item, rng):
        dd, _ = item
        g = sample_symplectic(SymplecticContext(dd), rng.getrandbits(64))
        return dd, g, [random_matrix(2 * dd, rng, 3) for _ in range(2)]

    def non_invariant(dd, g, mats):
        f = check_invariance(fs[dd], mats, g)
        return None if f is None else f"d={dd} f=sigma_{f.sigma_index}({f.word})"

    checks += _run(key, by_dd, conjugator_and_pair,
                   ("generators_invariant_under_conjugation", non_invariant, None),
                   witness=non_invariant)

    cdd = SymplecticContext(min(d, 2))

    def similitude_and_conjugator(k, rng):
        h = sample_similitude(cdd, rng.getrandbits(64), factor=Fraction(k % 5 + 2))
        return h, sample_symplectic(cdd, rng.getrandbits(64))

    checks += _run(key, range(min(trials, 20)), similitude_and_conjugator,
                   ("similitude_conjugation_invariant",
                    lambda h, g: similitude(cdd, g * h * g.inverse()), lambda h, g: similitude(cdd, h)))

    for m in range(1, 4 if d == 1 else 3):
        name = f"fft_desk_scale_d{d}_m{m}"
        oracle = invariants.multilinear_invariant_dim(d, m)
        span = invariants.trace_word_span_dim(d, m, seed=_stream(*key, name).getrandbits(64))
        checks.append(
            _check(
                name,
                span == oracle,
                d=d,
                m=m,
                oracle_dim=oracle,
                span_dim=span,
                match=span == oracle,
            )
        )
    return checks


# -- GMA suite ---------------------------------------------------------------


def _gma_checks(spec, label: str, expect_sch: bool | None, trials: int, seed: int) -> list:
    key = (seed, "gma")
    checks = []
    report = gma.validate_standard_gma(spec)
    checks.append(_check(f"{label}_valid", report["valid"], violations=report["violations"]))
    if not report["valid"]:  # the criterion checks assume a valid spec and may raise on others
        return checks

    sch, witness = gma.check_sch_condition(spec)
    checks.append(_check(f"{label}_sch_condition", expect_sch in (None, sch), sch_condition=sch))

    symmetric = lambda _, rng: (gma.random_symmetric_gma_element(spec, rng),)  # noqa: E731
    if sch:
        checks += _run(key, range(min(trials, 50)), symmetric,
                       (f"{label}_chi_p_vanishes", lambda m: gma.gma_chi_p(spec, m).is_zero(), True))
    else:
        i, j, wit = witness
        chi = gma.gma_chi_p(spec, wit)
        nonzero = not chi.is_zero()
        checks.append(
            _check(
                f"{label}_chi_p_witness_nonzero",
                nonzero,
                witness_block=[i, j],
            )
        )
        name = f"{label}_witness_in_kernel_of_D"
        probe = _stream(*key, name).getrandbits(64)
        checks.append(_check(name, nonzero and gma.kernel_probe(spec, chi, min(trials, 25), probe)))

    # each trace is one inner product in the quotient ring, reduced as it forms
    checks += _run(key, range(min(trials, 50)),
                   lambda _, rng: tuple(gma.random_gma_element(spec, rng) for _ in range(2)),
                   (f"{label}_trace_commutes", lambda x, y: trace_of_product(x, y, spec.ring.dot),
                    lambda x, y: trace_of_product(y, x, spec.ring.dot)))

    def pf_squares_to_det(m):
        _, det, pf = gma.gma_trace_det_pf(spec, m)
        return pf is not None and pf * pf == det

    checks += _run(key, range(min(trials, 50)), symmetric,
                   (f"{label}_pf_squares_to_det", pf_squares_to_det, True))
    return checks


def suite_gma(trials: int, seed: int, spec=None) -> list:
    if spec is not None:  # an input spec has no expected sCH value: its check records it
        return _gma_checks(spec, "input_spec", None, trials, seed)
    checks = []
    checks.extend(_gma_checks(gma.standard_fixture(), "standard", True, trials, seed))
    checks.extend(_gma_checks(gma.counterexample_fixture(), "counterexample", False, trials, seed))
    return checks


# -- pseudocharacter suite -----------------------------------------------------


def suite_pseudochar(d: int, trials: int, seed: int) -> list:
    key = (seed, "pseudochar")
    samples = _stream(*key, "representations")
    checks = []
    reps = {}
    for dd in sorted({1, min(d, 2)}):
        ctx = SymplecticContext(dd)
        reps[f"Sp_{2 * dd}"] = _sp_pair(ctx, samples)
        reps[f"GSp_{2 * dd}"] = InvolutiveRepresentation.from_images(
            [
                sample_similitude(ctx, samples.getrandbits(64), factor=Fraction(2)),
                sample_similitude(ctx, samples.getrandbits(64), factor=Fraction(3, 2)),
            ],
            kind="GSp",
        )
    per = max(1, trials // len(reps))
    for name, rep in sorted(reps.items()):
        pc = pseudochar.Pseudocharacter(rep)
        report = pseudochar.verify_axioms(pc, per, _stream(*key, f"axioms_{name}").getrandbits(64))
        checks.append(
            _check(f"axioms_{name}", report["passed"], failures=report["failures"][:1])
        )

    pc = pseudochar.Pseudocharacter(reps[f"Sp_{2 * min(d, 2)}"])
    probe = _stream(*key, "corrupted_cache_detected").getrandbits(64)  # one seed for both runs
    clean = pseudochar.verify_axioms(pc, min(trials, 25), probe)
    detected = False
    if clean["passed"] and pc.cache:
        entry = sorted(pc.cache, key=repr)[0]
        pc.cache[entry] = pc.cache[entry] + 1
        detected = not pseudochar.verify_axioms(pc, min(trials, 25), probe)["passed"]
    checks.append(_check("corrupted_cache_detected", clean["passed"] and detected))

    laws = [(rep, *pseudochar.comparison_to_det_law(pseudochar.Pseudocharacter(rep)))
            for rep in reps.values()]
    at_identity = [p_law(GroupAlgebraElement.one()) for _, _, p_law in laws]

    def element(law, rng):
        rep, d_law, p_law = law
        x = _random_element(rng)
        sym = x + star(rep, x)
        return rep, d_law, x, sym, p_law(sym)  # both checks read P(sym), so it is evaluated once

    schedule = [law for law in laws for _ in range(max(1, min(trials, 100) // len(reps)))]
    checks += _run(key, schedule, element,
                   ("comparison_agrees_with_det_laws",
                    lambda rep, d_law, x, sym, p: (d_law(x), p),
                    lambda rep, d_law, x, sym, p: (eval_det_law(rep, x), eval_pf_law(rep, sym))),
                   ("comparison_p_squared_equals_d",
                    lambda rep, d_law, x, sym, p: p ** 2, lambda rep, d_law, x, sym, p: d_law(sym)))
    checks.append(_check("comparison_p_at_identity", all(p == 1 for p in at_identity)))

    gsp = pseudochar.Pseudocharacter(reps[f"GSp_{2 * min(d, 2)}"])
    similitude_character = partial(pseudochar.similitude_character, gsp)
    checks += _run(key, range(min(trials, 25)),
                   lambda _, rng: (random_word(rng, 2, 3), random_word(rng, 2, 3)),
                   ("similitude_recovery_multiplicative",
                    lambda a, b: similitude_character(word_mul(a, b)),
                    lambda a, b: similitude_character(a) * similitude_character(b)))
    return checks


# -- dispatch -------------------------------------------------------------------


def run_suite(cfg: SuiteConfig, gma_spec=None) -> dict:
    checks: list = []
    if cfg.suite in ("pfaffian", "all"):
        checks.extend(suite_pfaffian(cfg.d, cfg.trials, cfg.seed))
    if cfg.suite in ("det-law", "all"):
        checks.extend(suite_det_law(cfg.d, cfg.trials, cfg.seed))
    if cfg.suite in ("invariants", "all"):
        checks.extend(suite_invariants(cfg.d, cfg.trials, cfg.seed))
    if cfg.suite in ("gma", "all"):
        checks.extend(suite_gma(cfg.trials, cfg.seed, gma_spec))
    if cfg.suite in ("pseudochar", "all"):
        checks.extend(suite_pseudochar(cfg.d, cfg.trials, cfg.seed))
    return {
        "suite": cfg.suite,
        "d": cfg.d,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
