"""Named property suites: the checks behind the CLI and the acceptance run.

Every suite is deterministic in (d, trials, seed) and returns a list of
check dicts {"name", "pass", ...}; witnesses for failures are included as
strings.  All equalities are exact, with no tolerances anywhere.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
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


def _check(name: str, ok: bool, **extra) -> dict:
    out = {"name": name, "pass": bool(ok)}
    out.update(extra)
    return out


def _first_failure(schedule, trial: Callable):
    """The first failure of ``trial`` over the items of ``schedule``, or None if all pass.

    A trial draws its inputs and returns a falsy value on a pass, and True or a witness
    string on a failure; no trial runs after the first failure, so its input is the witness.
    """
    return next(filter(None, map(trial, schedule)), None)


def _spread(values, trials: int) -> list:
    """``trials`` spread evenly over ``values``, earlier ones first: (value, j) for its j-th trial."""
    base, rem = divmod(trials, len(values))
    return [(v, j) for i, v in enumerate(values) for j in range(base + (i < rem))]


def _sp_pair(ctx: SymplecticContext, seed_a: int, seed_b: int) -> InvolutiveRepresentation:
    """The Sp representation sending g1 and g2 to the samples drawn at ``seed_a`` and ``seed_b``."""
    images = [sample_symplectic(ctx, seed_a), sample_symplectic(ctx, seed_b)]
    return InvolutiveRepresentation.from_images(images)


def _random_element(rng: random.Random) -> GroupAlgebraElement:
    """Three terms: a word of at most 3 letters in g1, g2 times a / b, -3 <= a <= 3, b in {1, 2}."""
    return GroupAlgebraElement({
        random_word(rng, 2, 3): Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)
    })


# -- pfaffian suite ------------------------------------------------------


def suite_pfaffian(d: int, trials: int, seed: int) -> list:
    rng = random.Random(seed)
    checks = []

    sizes = [2 * k for k in range(1, d + 1)]

    def squares_to_det(item):
        size, _ = item
        a = random_alternating(size, rng)
        if pfaffian(a) ** 2 != mat_det(a):
            return f"size {size}: {a}"

    bad = _first_failure(_spread(sizes, trials), squares_to_det)
    checks.append(_check("pfaffian_squared_equals_det", bad is None, witness=bad))

    ctx = SymplecticContext(d)

    def transpose_involutive(_):
        m = random_matrix(2 * d, rng)
        return symplectic_transpose(ctx, symplectic_transpose(ctx, m)) != m

    bad = _first_failure(range(min(trials, 200)), transpose_involutive)
    checks.append(_check("symplectic_transpose_involutive", bad is None))

    def conjugation_covariance(_):
        n = rng.choice([s for s in sizes if s <= 6])
        a = random_alternating(n, rng)
        g = random_matrix(n, rng)
        return pfaffian(g * a * g.transpose()) != mat_det(g) * pfaffian(a)

    bad = _first_failure(range(min(trials, 50)), conjugation_covariance)
    checks.append(_check("pfaffian_conjugation_covariance", bad is None))

    ok = all(
        reduced_pfaffian(SymplecticContext(k), RingMatrix.identity(2 * k)) == 1
        for k in range(1, max(d, 4) + 1)
    )
    checks.append(_check("reduced_pfaffian_normalization", ok))

    by_dd = _spread([SymplecticContext(dd) for dd in range(1, min(d, 3) + 1)], min(trials, 60))

    def cayley_hamilton(item):
        cdd, _ = item
        m = random_j_symmetric(cdd, rng, 3)
        coeffs = pfaffian_coeffs_of_matrix(cdd, m)
        if not matrix_poly_value(coeffs, m).is_zero():
            return f"d={cdd.d}: {m}"

    bad = _first_failure(by_dd, cayley_hamilton)
    checks.append(_check("pfaffian_cayley_hamilton", bad is None, witness=bad))

    def recursion_matches(item):
        cdd, _ = item
        m = random_j_symmetric(cdd, rng, 3)
        ts = pfaffian_coeffs_from_lambdas(lambdas_of_matrix(m))
        if ts != pfaffian_coeffs_of_matrix(cdd, m):
            return f"d={cdd.d}: {m}"

    bad = _first_failure(by_dd, recursion_matches)
    checks.append(_check("recursion_matches_pfaffian_char_poly", bad is None, witness=bad))

    def transfer(_):
        dd = rng.randint(1, min(d, 2))
        cdd = SymplecticContext(dd)
        m = random_j_symmetric(cdd, rng, 3)
        x = random_matrix(2 * dd, rng, 3)
        return reduced_pfaffian(cdd, x * m * symplectic_transpose(cdd, x)) != mat_det(
            x
        ) * reduced_pfaffian(cdd, m)

    bad = _first_failure(range(min(trials, 50)), transfer)
    checks.append(_check("transfer_identity", bad is None))

    def commuting_multiplicative(_):
        dd = rng.randint(1, min(d, 2))
        cdd = SymplecticContext(dd)
        m = random_j_symmetric(cdd, rng, 3)
        x = RingMatrix.scalar(2 * dd, Fraction(rng.randint(-3, 3))) + m * Fraction(
            rng.randint(-3, 3)
        )
        y = RingMatrix.scalar(2 * dd, Fraction(rng.randint(-3, 3))) + (m * m) * Fraction(
            rng.randint(-3, 3)
        )
        return reduced_pfaffian(cdd, x * y) != reduced_pfaffian(cdd, x) * reduced_pfaffian(cdd, y)

    bad = _first_failure(range(min(trials, 50)), commuting_multiplicative)
    checks.append(_check("commuting_multiplicativity", bad is None))
    return checks


# -- determinant-law suite -------------------------------------------------


def suite_det_law(d: int, trials: int, seed: int) -> list:
    rng = random.Random(seed)
    checks = []

    def newton(_):
        m = random_matrix(2 * d, rng, 4)
        return newton_lambdas_from_traces(power_traces(m, 2 * d)) != lambdas_of_matrix(m)

    bad = _first_failure(range(min(trials, 50)), newton)
    checks.append(_check("newton_matches_char_poly", bad is None))

    def binomial(dd):
        ts = pfaffian_coeffs_from_lambdas(newton_lambdas_from_traces([Fraction(2 * dd)] * (2 * dd)))
        return ts != tuple(math.comb(dd, i) for i in range(dd + 1))

    bad = _first_failure(range(1, 5), binomial)
    checks.append(_check("binomial_values_at_identity", bad is None))

    ctx4 = SymplecticContext(4)

    def d4_closed_forms(_):
        m = random_j_symmetric(ctx4, rng, 2)
        lams = lambdas_of_matrix(m)
        expected = pfaffian_coeffs_from_lambdas(lams)[4]
        a, b = closed_form_check_d4(lams, power_traces(m, 4))
        if a != expected or b != expected:
            return str(m)

    bad = _first_failure(range(min(trials, 50)), d4_closed_forms)
    checks.append(_check("d4_closed_forms", bad is None, witness=bad))

    ctx1 = SymplecticContext(1)

    def sl2_traces(trial):
        rep = _sp_pair(ctx1, seed * 31 + trial, seed * 37 + trial + 1)
        w = random_word(rng, 2, 4)
        if not w:
            return None
        t = lambda word: rep.rho_word(word).trace()  # noqa: E731
        g, gi = w, word_inv(w)
        g2 = word_mul(w, w)
        lhs = t(g) ** 2 + 2 * t(g) * t(gi) + t(gi) ** 2 - 2 * t(g2) - 2 * t(word_inv(g2)) - 8
        return lhs != 0 or 4 * t(g) ** 2 - 4 * t(g2) - 8 != 0

    bad = _first_failure(range(min(trials, 100)), sl2_traces)
    checks.append(_check("sl2_trace_identities", bad is None))

    ctx = SymplecticContext(min(d, 2))
    ok = True
    sym_ok = True
    for trial in range(min(trials, 30)):
        rep = _sp_pair(ctx, seed * 41 + trial, seed * 43 + trial + 1)
        x, y = _random_element(rng), _random_element(rng)
        if eval_det_law(rep, x * y) != eval_det_law(rep, x) * eval_det_law(rep, y):
            ok = False
        if eval_det_law(rep, star(rep, x)) != eval_det_law(rep, x):
            ok = False
        sym = x + star(rep, x)
        p = eval_pf_law(rep, sym)
        if p * p != eval_det_law(rep, sym):
            sym_ok = False
    checks.append(_check("det_law_multiplicative_star_invariant", ok))
    checks.append(_check("pf_law_squares_to_det", sym_ok))

    dd = min(d, 2)
    cdd = SymplecticContext(dd)

    def chi_alpha_vanishes(trial):
        rep = InvolutiveRepresentation.from_images([sample_symplectic(cdd, seed * 47 + trial)])
        g1 = GroupAlgebraElement.from_word(((1, 1),))
        r1 = g1 + star(rep, g1)
        # the t_1^d coefficient cancels a fault of M J that rescales or shifts the
        # Pfaffian polynomial; the T_i compared with the Lambda recursion do not
        m = rep.rho(r1)
        ts = pfaffian_coeffs_from_lambdas(lambdas_of_matrix(m))
        return not chi_alpha(rep, [r1], [dd]).is_zero() or pfaffian_coeffs_of_matrix(cdd, m) != ts

    bad = _first_failure(range(min(trials, 10)), chi_alpha_vanishes)
    checks.append(_check("chi_alpha_vanishes_on_matrix_models", bad is None))
    return checks


# -- invariants suite -------------------------------------------------------


def suite_invariants(d: int, trials: int, seed: int) -> list:
    rng = random.Random(seed)
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
    by_dd = _spread((1, 2) if d >= 2 else (1, 1), min(trials, 200))
    fs = {dd: [InvariantFunction.sigma(i, w, arity=2) for w in gens for i in range(1, 2 * dd + 1)]
          for dd, _ in by_dd}

    def generators_invariant(item):
        dd, j = item
        g = sample_symplectic(SymplecticContext(dd), seed * 53 + 100 * dd + j)
        mats = [random_matrix(2 * dd, rng, 3) for _ in range(2)]
        f = check_invariance(fs[dd], mats, g)
        if f is not None:
            return f"d={dd} f=sigma_{f.sigma_index}({f.word})"

    bad = _first_failure(by_dd, generators_invariant)
    checks.append(_check("generators_invariant_under_conjugation", bad is None, witness=bad))

    cdd = SymplecticContext(min(d, 2))

    def similitude_invariant(k):
        h = sample_similitude(cdd, seed * 59 + k, factor=Fraction(k % 5 + 2))
        g = sample_symplectic(cdd, seed * 61 + k)
        return similitude(cdd, g * h * g.inverse()) != similitude(cdd, h)

    bad = _first_failure(range(min(trials, 20)), similitude_invariant)
    checks.append(_check("similitude_conjugation_invariant", bad is None))

    pairs = [(d, m) for m in range(1, 4 if d == 1 else 3)]
    for dd, m in pairs:
        oracle = invariants.multilinear_invariant_dim(dd, m)
        span = invariants.trace_word_span_dim(dd, m, seed=seed)
        checks.append(
            _check(
                f"fft_desk_scale_d{dd}_m{m}",
                span == oracle,
                d=dd,
                m=m,
                oracle_dim=oracle,
                span_dim=span,
                match=span == oracle,
            )
        )
    return checks


# -- GMA suite ---------------------------------------------------------------


def _gma_checks(spec, label: str, expect_sch: bool, trials: int, seed: int) -> list:
    rng = random.Random(seed)
    checks = []
    report = gma.validate_standard_gma(spec)
    checks.append(_check(f"{label}_valid", report["valid"], violations=report["violations"]))
    if not report["valid"]:  # the criterion checks assume a valid spec and may raise on others
        return checks

    sch, witness = gma.check_sch_condition(spec)
    checks.append(_check(f"{label}_sch_condition", sch is expect_sch, sch_condition=sch))

    if sch:
        def chi_p_vanishes(_):
            m = gma.random_symmetric_gma_element(spec, rng)
            return not gma.gma_chi_p(spec, m).is_zero()

        bad = _first_failure(range(min(trials, 50)), chi_p_vanishes)
        checks.append(_check(f"{label}_chi_p_vanishes", bad is None))
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
        in_kernel = nonzero and gma.kernel_probe(spec, chi, min(trials, 25), seed + 1)
        checks.append(_check(f"{label}_witness_in_kernel_of_D", in_kernel))

    def trace_commutes(_):
        x = gma.random_gma_element(spec, rng)
        y = gma.random_gma_element(spec, rng)
        # each trace is one inner product in the quotient ring, reduced as it forms
        return trace_of_product(x, y, spec.ring.dot) != trace_of_product(y, x, spec.ring.dot)

    bad = _first_failure(range(min(trials, 50)), trace_commutes)
    checks.append(_check(f"{label}_trace_commutes", bad is None))

    def pf_squares_to_det(_):
        m = gma.random_symmetric_gma_element(spec, rng)
        _, det, pf = gma.gma_trace_det_pf(spec, m)
        return pf is None or pf * pf != det

    bad = _first_failure(range(min(trials, 50)), pf_squares_to_det)
    checks.append(_check(f"{label}_pf_squares_to_det", bad is None))
    return checks


def suite_gma(trials: int, seed: int, spec=None) -> list:
    if spec is not None:
        sch, _ = gma.check_sch_condition(spec)
        return _gma_checks(spec, "input_spec", sch, trials, seed)
    checks = []
    checks.extend(_gma_checks(gma.standard_fixture(), "standard", True, trials, seed))
    checks.extend(_gma_checks(gma.counterexample_fixture(), "counterexample", False, trials, seed))
    return checks


# -- pseudocharacter suite -----------------------------------------------------


def suite_pseudochar(d: int, trials: int, seed: int) -> list:
    rng = random.Random(seed)
    checks = []
    reps = {}
    for dd in sorted({1, min(d, 2)}):
        ctx = SymplecticContext(dd)
        reps[f"Sp_{2 * dd}"] = _sp_pair(ctx, seed * 67 + dd, seed * 71 + dd)
        reps[f"GSp_{2 * dd}"] = InvolutiveRepresentation.from_images(
            [
                sample_similitude(ctx, seed * 73 + dd, factor=Fraction(2)),
                sample_similitude(ctx, seed * 79 + dd, factor=Fraction(3, 2)),
            ],
            kind="GSp",
        )
    per = max(1, trials // max(len(reps), 1))
    for offset, (name, rep) in enumerate(sorted(reps.items())):
        pc = pseudochar.Pseudocharacter(rep)
        report = pseudochar.verify_axioms(pc, per, seed + offset)
        checks.append(
            _check(f"axioms_{name}", report["passed"], failures=report["failures"][:1])
        )

    pc = pseudochar.Pseudocharacter(reps[f"Sp_{2 * min(d, 2)}"])
    clean = pseudochar.verify_axioms(pc, min(trials, 25), seed)
    detected = False
    if clean["passed"] and pc.cache:
        key = sorted(pc.cache, key=repr)[0]
        pc.cache[key] = pc.cache[key] + 1
        detected = not pseudochar.verify_axioms(pc, min(trials, 25), seed)["passed"]
    checks.append(_check("corrupted_cache_detected", clean["passed"] and detected))

    ok_agree = True
    ok_square = True
    ok_one = True
    for name, rep in reps.items():
        pc = pseudochar.Pseudocharacter(rep)
        d_law, p_law = pseudochar.comparison_to_det_law(pc)
        if p_law(GroupAlgebraElement.one()) != 1:
            ok_one = False
        for _ in range(max(1, min(trials, 100) // max(len(reps), 1))):
            x = _random_element(rng)
            if d_law(x) != eval_det_law(rep, x):
                ok_agree = False
            sym = x + star(rep, x)
            p = p_law(sym)
            if p != eval_pf_law(rep, sym):
                ok_agree = False
            if p * p != d_law(sym):
                ok_square = False
    checks.append(_check("comparison_agrees_with_det_laws", ok_agree))
    checks.append(_check("comparison_p_squared_equals_d", ok_square))
    checks.append(_check("comparison_p_at_identity", ok_one))

    gsp = pseudochar.Pseudocharacter(reps[f"GSp_{2 * min(d, 2)}"])
    def similitude_multiplicative(_):
        a = random_word(rng, 2, 3)
        b = random_word(rng, 2, 3)
        lhs = pseudochar.similitude_character(gsp, word_mul(a, b))
        rhs = pseudochar.similitude_character(gsp, a) * pseudochar.similitude_character(gsp, b)
        return lhs != rhs

    bad = _first_failure(range(min(trials, 25)), similitude_multiplicative)
    checks.append(_check("similitude_recovery_multiplicative", bad is None))
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
