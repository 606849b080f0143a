import tracemalloc
from fnmatch import fnmatch

import pytest

from symplaw import detlaws, gma, invariants, matrices, pseudochar, suites, symplectic
from symplaw.errors import SymplawError
from symplaw.gma import GmaSpec, counterexample_fixture
from symplaw.matrices import RingMatrix
from symplaw.suites import (
    SuiteConfig,
    run_suite,
    suite_det_law,
    suite_gma,
    suite_invariants,
    suite_pfaffian,
    suite_pseudochar,
)
from symplaw.symplectic import SignedPermutation


def test_config_validation():
    with pytest.raises(SymplawError):
        SuiteConfig(suite="nope")
    with pytest.raises(SymplawError):
        SuiteConfig(suite="pfaffian", trials=0)


def test_each_suite_passes_small():
    for name in ("pfaffian", "det-law", "invariants", "gma", "pseudochar"):
        cfg = SuiteConfig(suite=name, d=1, trials=6, seed=3)
        report = run_suite(cfg)
        assert report["pass"], [c for c in report["checks"] if not c["pass"]]
        assert report["suite"] == name


def test_all_suite_aggregates():
    cfg = SuiteConfig(suite="all", d=1, trials=4, seed=5)
    report = run_suite(cfg)
    names = {c["name"] for c in report["checks"]}
    assert "pfaffian_squared_equals_det" in names
    assert "standard_sch_condition" in names
    assert any(n.startswith("axioms_") for n in names)
    assert report["pass"]


def test_gma_suite_counterexample_expected_failure_passes():
    checks = suite_gma(trials=10, seed=2, spec=counterexample_fixture())
    report = {c["name"]: c for c in checks}
    assert report["input_spec_sch_condition"]["sch_condition"] is False
    assert report["input_spec_sch_condition"]["pass"]  # expectation encoded, not a failure
    assert report["input_spec_chi_p_witness_nonzero"]["pass"]
    assert report["input_spec_witness_in_kernel_of_D"]["pass"]


@pytest.mark.parametrize(
    ("suite", "d"),
    [(suite, d) for suite in ("pfaffian", "det-law", "gma", "invariants", "pseudochar")
     for d in (1, 2)],
)
def test_suite_seed_sweep(suite, d):
    for seed in range(10):
        report = run_suite(SuiteConfig(suite=suite, d=d, trials=4, seed=seed))
        assert report["pass"], (seed, [c for c in report["checks"] if not c["pass"]])


# -- where the draws come from -----------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2])
def test_no_sample_is_drawn_twice(d, monkeypatch):
    """Every Sp and GSp sample of ``suite all`` has a seed of its own, and ``--seed -S``
    shares none with ``--seed S``.  With a seed formula per check (``seed * 31 + trial``,
    ``seed * 37 + trial + 1``, ...), a run at trials 20 drew 35-123 of its 154-158 samples
    at a seed it had used before, and ``random.Random(-S)`` was ``random.Random(S)``."""
    seeds = []
    real = symplectic.sample_symplectic

    def recorded(ctx, seed):
        seeds.append(seed)
        return real(ctx, seed)

    monkeypatch.setattr(symplectic, "sample_symplectic", recorded)  # sample_similitude's
    monkeypatch.setattr(suites, "sample_symplectic", recorded)

    def run(seed):
        seeds.clear()
        assert run_suite(SuiteConfig(suite="all", d=d, trials=20, seed=seed))["pass"]
        assert len(set(seeds)) == len(seeds), (seed, len(seeds) - len(set(seeds)))
        return {abs(s) for s in seeds}

    for seed in range(5):
        drawn = run(seed)
        if seed:
            assert not drawn & run(-seed), seed


def test_pseudochar_sends_the_two_generators_apart_at_seed_0(monkeypatch):
    """At seed 0, the CLI default, ``suite pseudochar`` once sent g1 and g2 of its Sp
    representations to one sample.  Two samples may still commute by chance at d = 1,
    where sp_2 has few draws; that is not asserted here."""
    reps = []
    real = suites._sp_pair
    monkeypatch.setattr(suites, "_sp_pair", lambda *args: reps.append(real(*args)) or reps[-1])
    suite_pseudochar(2, 25, 0)
    assert [rep.ctx.d for rep in reps] == [1, 2]
    assert all(g1 != g2 for g1, g2 in (rep.generator_images for rep in reps))


# -- the runner every randomized check goes through ----------------------------------


KEY = (0, "runner")  # the (seed, suite) key of the runner tests' checks


def _logged(drawn, skip=()):
    """A draw that logs each item of the schedule and returns it as the trial's one input."""
    def draw(item, rng):
        drawn.append(item)
        return None if item in skip else (item,)
    return draw


def test_a_none_draw_skips_its_trial():
    drawn, seen = [], []
    checks = suites._run(KEY, range(4), _logged(drawn, skip=(1, 2)),
                         ("below_1", lambda x: seen.append(x) or x < 1, True))
    assert drawn == [0, 1, 2, 3] and seen == [0, 3]
    assert checks == [{"name": "below_1", "pass": False}]


def test_a_constant_right_side_is_compared_as_it_is():
    checks = suites._run(KEY, range(3), _logged([]), ("small", lambda x: x < 3, True),
                         ("zero", lambda x: x * 0, 0), ("none", lambda x: None, 0))
    assert [c["pass"] for c in checks] == [True, True, False]


def test_a_witness_is_made_once_for_a_failing_check_and_never_for_a_passing_one():
    calls = []

    def witness(x):
        calls.append(x)
        return f"x={x}"

    checks = suites._run(KEY, range(5), _logged([]), ("from_2", lambda x: x < 2, True),
                         ("always", lambda x: x, lambda x: x), witness=witness)
    assert calls == [2]
    assert checks == [{"name": "from_2", "pass": False, "witness": "x=2"},
                      {"name": "always", "pass": True, "witness": None}]


def test_a_group_draws_until_every_check_has_failed():
    drawn = []
    checks = suites._run(KEY, range(10), _logged(drawn), ("from_2", lambda x: x < 2, True),
                         ("from_5", lambda x: x < 5, True))
    assert drawn == [0, 1, 2, 3, 4, 5]
    assert not any(c["pass"] for c in checks)
    drawn.clear()
    suites._run(KEY, range(10), _logged(drawn), ("from_2", lambda x: x < 2, True))
    assert drawn == [0, 1, 2]


def test_a_checks_draws_depend_only_on_its_key_and_first_check_name():
    """``_run`` draws from the stream of (seed, suite, first check name): the checks that ran
    before it and a second check in the same call change nothing, while another name, suite or
    seed, a negative one too, draws other numbers."""
    def draws(key, *names, before=()):
        for name in before:
            suites._run(key, range(7), lambda _, rng: (rng.random(),), (name, float, float))
        drawn = []
        suites._run(key, range(3), lambda _, rng: drawn.append(rng.random()) or (0,),
                    *((name, int, 0) for name in names))
        return drawn

    alone = draws(KEY, "c")
    assert draws(KEY, "c", before=("a", "b", "c")) == alone
    assert draws(KEY, "c", "d") == alone
    others = [draws(KEY, "d"), draws((0, "other"), "c"), draws((1, "runner"), "c"),
              draws((-1, "runner"), "c")]
    assert len({tuple(alone), *map(tuple, others)}) == 5


def test_a_spread_schedule_is_made_one_trial_at_a_time():
    """``suite pfaffian`` spreads its uncapped ``--trials``: a list of them would need about
    92 bytes per trial before the first one ran."""
    assert list(suites._spread([2, 4, 6], 7)) == [(2, 0), (2, 1), (2, 2), (4, 0), (4, 1),
                                                  (6, 0), (6, 1)]
    tracemalloc.start()
    try:
        for _ in suites._spread([2, 4, 6], 200_000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_comparison_check_fails_when_mat_det_is_off_by_one(monkeypatch):
    real_det = detlaws.mat_det
    monkeypatch.setattr(detlaws, "mat_det", lambda m: real_det(m) + 1)
    checks = {c["name"]: c["pass"] for c in suite_pseudochar(2, 25, 0)}
    assert checks["comparison_agrees_with_det_laws"] is False
    assert checks["comparison_p_squared_equals_d"] is True


def _bareiss_with_entry_01_one_larger(m, real=matrices._det_bareiss):
    """Bareiss on m with entry (0, 1) one larger; m is at least 2 x 2 in ``suite pfaffian``."""
    rows = [list(r) for r in m.entries]
    rows[0][1] += 1
    return real(RingMatrix(rows))


# Negative controls for ``suite pfaffian``: each row names a check (a glob
# over check names) and a fault under which that check must fail at every
# seed.  Every check has a control.  The first row breaks Bareiss itself,
# which ``mat_det`` runs on every rational matrix, the 2 x 2 and 4 x 4
# alternating ones too.
PFAFFIAN_CONTROLS = {
    # Bareiss reads entry (0, 1) one too large
    "pfaffian_squared_equals_det": (matrices, "_det_bareiss", _bareiss_with_entry_01_one_larger),
    # X^j comes out doubled
    "symplectic_transpose_involutive": (
        suites, "symplectic_transpose",
        lambda ctx, m, real=suites.symplectic_transpose: real(ctx, m) * 2),
    # the Pfaffian is one too large
    "pfaffian_conjugation_covariance": (
        suites, "pfaffian", lambda a, real=suites.pfaffian: real(a) + 1),
    # the reduced Pfaffian forgets to divide by Pf(J), which is -1 at d = 2, 3
    "reduced_pfaffian_normalization": (
        suites, "reduced_pfaffian", lambda ctx, m: suites.pfaffian(m * ctx.J)),
    # chi^P loses its leading term T_0 x^d
    "pfaffian_cayley_hamilton": (
        suites, "matrix_poly_value",
        lambda coeffs, m, real=suites.matrix_poly_value: real(coeffs[1:], m)),
    # the Lambda-vector is read off 2M instead of M
    "recursion_matches_pfaffian_char_poly": (
        suites, "lambdas_of_matrix", lambda m, real=suites.lambdas_of_matrix: real(m * 2)),
    # the determinant is one too large
    "transfer_identity": (suites, "mat_det", lambda m, real=suites.mat_det: real(m) + 1),
    # the reduced Pfaffian is one too large
    "commuting_multiplicativity": (
        suites, "reduced_pfaffian",
        lambda ctx, m, real=suites.reduced_pfaffian: real(ctx, m) + 1),
}


def test_every_pfaffian_check_has_a_control():
    names = {c["name"] for c in suite_pfaffian(2, 4, 0)}
    assert len(names) == 8
    assert all(any(fnmatch(n, pattern) for pattern in PFAFFIAN_CONTROLS) for n in names)


@pytest.mark.parametrize("pattern", sorted(PFAFFIAN_CONTROLS))
def test_pfaffian_check_fails_under_its_fault(pattern, monkeypatch):
    monkeypatch.setattr(*PFAFFIAN_CONTROLS[pattern])
    for d in (1, 2):
        for seed in range(10):
            named = [c for c in suite_pfaffian(d, 4, seed) if fnmatch(c["name"], pattern)]
            assert named and not any(c["pass"] for c in named), (d, seed, named)


# A check stops at its first failure, and that input is its witness: at d = 3
# the first failing draw is at the smallest size or half-dimension.
FIRST_WITNESSES = {
    "transfer_identity": ("pfaffian_squared_equals_det", "size 2:"),  # mat_det one too large
    "pfaffian_cayley_hamilton": ("pfaffian_cayley_hamilton", "d=1:"),
    "recursion_matches_pfaffian_char_poly": ("recursion_matches_pfaffian_char_poly", "d=1:"),
}


@pytest.mark.parametrize("control", sorted(FIRST_WITNESSES))
def test_a_check_stops_at_its_first_failure(control, monkeypatch):
    monkeypatch.setattr(*PFAFFIAN_CONTROLS[control])
    name, prefix = FIRST_WITNESSES[control]
    (check,) = [c for c in suite_pfaffian(3, 30, 0) if c["name"] == name]
    assert not check["pass"] and check["witness"].startswith(prefix), check["witness"][:40]


def test_pfaffian_squared_check_draws_once_under_a_det_fault(monkeypatch):
    """Under a wrong ``mat_det`` the first trial fails, so the check draws one matrix."""
    monkeypatch.setattr(*PFAFFIAN_CONTROLS["transfer_identity"])
    draws = []

    def logged(name, real):
        def draw(*args):
            draws.append(name)
            return real(*args)
        return draw

    for name in ("random_alternating", "random_matrix"):
        monkeypatch.setattr(suites, name, logged(name, getattr(suites, name)))
    suite_pfaffian(3, 30, 0)
    # the check after it, symplectic_transpose_involutive, draws with random_matrix
    assert draws.index("random_matrix") == 1


def _first_trace_one_larger(m, upto, real=suites.power_traces):
    traces = real(m, upto)
    return [traces[0] + 1, *traces[1:]]


def _last_pf_coeff_one_larger(lams, real=suites.pfaffian_coeffs_from_lambdas):
    *head, last = real(lams)
    return (*head, last + 1)


# Negative controls for ``suite det-law``: each row names a check and a fault
# under which that check must fail at every seed.  Every check has a control.
# ``binomial_values_at_identity`` and ``d4_closed_forms`` read no d, and the
# first reads no seed either, so their sweeps repeat runs.  The Pfaffian law
# and chi^P both take the Pfaffian of M J; the right product is the fault for
# the first.  The chi^P check's fault is in the evaluation;
# ``test_chi_alpha_check_fails_under_m_j_faults`` covers its M J faults.
DET_LAW_CONTROLS = {
    # the Lambda-vector is read off 2M instead of M
    "newton_matches_char_poly": (
        suites, "lambdas_of_matrix", lambda m, real=suites.lambdas_of_matrix: real(m * 2)),
    # the recursion returns T_d one too large
    "binomial_values_at_identity": (
        suites, "pfaffian_coeffs_from_lambdas", _last_pf_coeff_one_larger),
    # tr M comes out one too large
    "d4_closed_forms": (suites, "power_traces", _first_trace_one_larger),
    # g^2 is taken to be g
    "sl2_trace_identities": (suites, "word_mul", lambda a, b: a),
    # the determinant is one too large
    "det_law_multiplicative_star_invariant": (
        detlaws, "mat_det", lambda m, real=detlaws.mat_det: real(m) + 1),
    # M J comes out doubled
    "pf_law_squares_to_det": (
        SignedPermutation, "right_product",
        lambda self, m, real=SignedPermutation.right_product: real(self, m) * 2),
    # chi^P loses its leading term T_0 x^d
    "chi_alpha_vanishes_on_matrix_models": (
        detlaws, "matrix_poly_value",
        lambda coeffs, m, real=detlaws.matrix_poly_value: real(coeffs[1:], m)),
}


def test_every_det_law_check_has_a_control():
    names = {c["name"] for c in suite_det_law(2, 4, 0)}
    assert names == set(DET_LAW_CONTROLS)


@pytest.mark.parametrize("name", sorted(DET_LAW_CONTROLS))
def test_det_law_check_fails_under_its_fault(name, monkeypatch):
    monkeypatch.setattr(*DET_LAW_CONTROLS[name])
    for d in (1, 2):
        for seed in range(10):
            (check,) = [c for c in suite_det_law(d, 4, seed) if c["name"] == name]
            assert not check["pass"], (d, seed)


# Faults of M J that chi^P's coefficient of t^d cancels: one rescales the
# Pfaffian polynomial by 2^d, the other shifts it by t -> t - 1.  The chi^P
# check also compares the T_i with the Lambda recursion, which sees both.
M_J_FAULTS = {
    "doubled": lambda self, m, real=SignedPermutation.right_product: real(self, m) * 2,
    "shifted": lambda self, m, real=SignedPermutation.right_product: real(
        self, m + RingMatrix.identity(m.rows)),
}


@pytest.mark.parametrize("fault", sorted(M_J_FAULTS))
def test_chi_alpha_check_fails_under_m_j_faults(fault, monkeypatch):
    monkeypatch.setattr(SignedPermutation, "right_product", M_J_FAULTS[fault])
    for d in (1, 2):
        for seed in range(10):
            (check,) = [c for c in suite_det_law(d, 4, seed)
                        if c["name"] == "chi_alpha_vanishes_on_matrix_models"]
            assert not check["pass"], (d, seed)


# Negative controls: each row names a check of ``suite invariants`` (a glob
# over check names) and a fault under which that check must fail at every
# seed.  ``enumeration_desk_counts`` reads no seed, so its sweep only
# repeats one run.
INVARIANTS_CONTROLS = {
    # the enumeration loses its shortest word
    "enumeration_desk_counts": (
        suites, "enumerate_trace_words",
        lambda m, max_len, real=suites.enumerate_trace_words: real(m, max_len)[1:]),
    # X^j is taken to be the plain transpose X^T
    "generators_invariant_under_conjugation": (
        invariants, "symplectic_transpose", lambda ctx, m: m.transpose()),
    # the similitude factor reads entry (0, 0) instead
    "similitude_conjugation_invariant": (suites, "similitude", lambda ctx, m: m[0, 0]),
    # the oracle skips the long-root generator E_(d,2d)
    "fft_desk_scale_*": (
        invariants, "simple_root_vectors",
        lambda d, real=invariants.simple_root_vectors: real(d)[:-1]),
}


@pytest.mark.parametrize("pattern", sorted(INVARIANTS_CONTROLS))
def test_invariants_check_fails_under_its_fault(pattern, monkeypatch):
    monkeypatch.setattr(*INVARIANTS_CONTROLS[pattern])
    for d in (1, 2):
        for seed in range(10):
            named = [c for c in suite_invariants(d, 4, seed) if fnmatch(c["name"], pattern)]
            assert named and not any(c["pass"] for c in named), (d, seed, named)


def _standard_with_a_symmetric_pairing_block(real=gma.standard_fixture):
    """The standard fixture plus u on block (2,3) with tau sign -1 there, so that u* = u."""
    spec = real()
    u = spec.ring.variable("u")
    return GmaSpec(spec.type, spec.ring, {**spec.blocks, (2, 3): (u,)},
                   {**spec.tau_signs, frozenset((2, 3)): -1})


def _counterexample_with_sign_plus(real=gma.counterexample_fixture):
    """The counterexample fixture with tau sign +1, which makes sCH hold."""
    spec = real()
    return GmaSpec(spec.type, spec.ring, spec.blocks, {frozenset((1, 2)): 1})


# Negative controls for ``suite gma``: each row names a check (a glob over
# check names) and a fault under which that check must fail at every seed.
# Every check has a control.  The standard fixture's sCH holds vacuously (its
# pairing blocks are empty), so its sCH control changes the fixture itself.
GMA_CONTROLS = {
    # J_delta is taken not to be alternating
    "*_valid": (gma, "is_alternating", lambda m: False),
    # the standard fixture gains a pairing block on which x* = x
    "standard_sch_condition": (
        gma, "standard_fixture", _standard_with_a_symmetric_pairing_block),
    # the counterexample fixture loses its tau sign -1
    "counterexample_sch_condition": (
        gma, "counterexample_fixture", _counterexample_with_sign_plus),
    # T_d, the Pfaffian law itself, comes out one too large
    "standard_chi_p_vanishes": (
        gma, "gma_pf_coeffs",
        lambda spec, m, real=gma.gma_pf_coeffs: [*real(spec, m)[:-1], real(spec, m)[-1] + 1]),
    # chi^P loses its leading term T_0 x^d; the product of the quotient ring is passed on
    "counterexample_chi_p_witness_nonzero": (
        gma, "matrix_poly_value",
        lambda coeffs, m, *rest, real=gma.matrix_poly_value: real(coeffs[1:], m, *rest)),
    # the determinant is one too large; the inner product of the quotient ring is passed on
    "counterexample_witness_in_kernel_of_D": (
        gma, "mat_det", lambda m, *rest, real=gma.mat_det: real(m, *rest) + 1),
    # the trace of a product picks up the first entry of its left factor
    "*_trace_commutes": (
        suites, "trace_of_product",
        lambda a, b, *rest, real=suites.trace_of_product: real(a, b, *rest) + a[0, 0]),
    # the determinant is one too large
    "*_pf_squares_to_det": (gma, "mat_det", lambda m, *rest, real=gma.mat_det: real(m, *rest) + 1),
}


def test_every_gma_check_has_a_control():
    names = {c["name"] for c in suite_gma(4, 0)}
    assert len(names) == 11
    assert all(any(fnmatch(n, pattern) for pattern in GMA_CONTROLS) for n in names)


@pytest.mark.parametrize("pattern", sorted(GMA_CONTROLS))
def test_gma_check_fails_under_its_fault(pattern, monkeypatch):
    monkeypatch.setattr(*GMA_CONTROLS[pattern])
    for seed in range(10):
        named = [c for c in suite_gma(4, seed) if fnmatch(c["name"], pattern)]
        assert named and not any(c["pass"] for c in named), (seed, named)


def _theta_cache_never_read(pc, f, gammas, real=pseudochar.theta_eval):
    """theta_eval that drops the cached value of its key first, so it always recomputes."""
    pc.cache.pop(pc.cache_key(f, tuple(tuple(w) for w in gammas)), None)
    return real(pc, f, gammas)


# Negative controls for ``suite pseudochar``: each row names a check (a glob
# over check names) and a fault under which that check must fail at every
# seed.  Every check has a control.  At ``--trials 4`` each representation
# gets one axiom trial at d = 2, so the axiom fault breaks the product axiom
# on every trial: the two sides have arities m + 1 and m.
PSEUDOCHAR_CONTROLS = {
    # each invariant value comes out larger by the arity of its function
    "axioms_*": (
        pseudochar, "eval_invariant", lambda f, mats, lambdas=None, real=pseudochar.eval_invariant:
        real(f, mats, lambdas) + f.arity),
    # theta_eval never reads its cache, so a corrupted entry goes unseen
    "corrupted_cache_detected": (pseudochar, "theta_eval", _theta_cache_never_read),
    # the determinant is one too large
    "comparison_agrees_with_det_laws": (
        detlaws, "mat_det", lambda m, real=detlaws.mat_det: real(m) + 1),
    # the comparison D reads its Lambda-vector off 2M instead of M
    "comparison_p_squared_equals_d": (
        pseudochar, "lambdas_of_matrix", lambda m, real=pseudochar.lambdas_of_matrix: real(m * 2)),
    # the comparison P takes the reduced Pfaffian of 2M instead of M
    "comparison_p_at_identity": (
        pseudochar, "reduced_pfaffian", lambda ctx, m, real=pseudochar.reduced_pfaffian: real(ctx, m * 2)),
    # the recovered similitude is one too large
    "similitude_recovery_multiplicative": (
        pseudochar, "similitude", lambda ctx, m, real=pseudochar.similitude: real(ctx, m) + 1),
}


def test_every_pseudochar_check_has_a_control():
    names = {c["name"] for c in suite_pseudochar(2, 4, 0)}
    assert len(names) == 9
    assert all(any(fnmatch(n, pattern) for pattern in PSEUDOCHAR_CONTROLS) for n in names)


@pytest.mark.parametrize("pattern", sorted(PSEUDOCHAR_CONTROLS))
def test_pseudochar_check_fails_under_its_fault(pattern, monkeypatch):
    monkeypatch.setattr(*PSEUDOCHAR_CONTROLS[pattern])
    for d in (1, 2):
        for seed in range(10):
            named = [c for c in suite_pseudochar(d, 4, seed) if fnmatch(c["name"], pattern)]
            assert named and not any(c["pass"] for c in named), (d, seed, named)
