import tracemalloc

import pytest

from symplaw import pseudochar, suites, symplectic
from symplaw.errors import SymplawError
from symplaw.gma import counterexample_fixture
from symplaw.invariants import InvariantFunction
from symplaw.suites import SuiteConfig, run_suite, suite_gma, suite_pseudochar


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


def test_suite_invariants_builds_each_generator_once(monkeypatch):
    """20 trace words, each with sigma indices 1-2 at d = 1 and 1-4 at d = 2: 120 functions,
    built once per half-dimension, not once per trial (6000 at trials 100)."""
    calls = []
    real = InvariantFunction.sigma

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(InvariantFunction, "sigma", staticmethod(counted))
    assert all(c["pass"] for c in suites.suite_invariants(2, 100, 0))
    assert len(calls) == 120


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


def _counting(monkeypatch, owner, name: str) -> list:
    """Patch owner.name to log each call's arguments into the list it returns."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize(("d", "trials", "seed", "relabels"),
                         [(2, 25, 0, 4 * 6 + 25), (1, 100, 3, 2 * 50 + 25)])
def test_the_corruption_probe_draws_its_trials_once(d, trials, seed, relabels, monkeypatch):
    """Each axiom trial relabels f once: the axioms of 4 (or 2) representations, then the 25
    trials of ``corrupted_cache_detected``, checked clean and corrupted but drawn once.  When
    each pass drew them again, the suite made 74 (or 150) relabels."""
    calls = _counting(monkeypatch, pseudochar, "relabel")
    assert all(c["pass"] for c in suite_pseudochar(d, trials, seed))
    assert len(calls) == relabels


def test_the_corrupted_pass_reads_every_value_from_the_cache(monkeypatch):
    evals = _counting(monkeypatch, pseudochar, "eval_invariant")
    passes = []  # the eval_invariant calls of each check of drawn trials
    real = pseudochar._failures

    def failures(pc, draws):
        before = len(evals)
        found = real(pc, draws)
        passes.append(len(evals) - before)
        return found

    monkeypatch.setattr(pseudochar, "_failures", failures)
    assert all(c["pass"] for c in suite_pseudochar(2, 25, 0))
    assert len(passes) == 4 + 2 and passes[-2] > 0 and passes[-1] == 0


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
