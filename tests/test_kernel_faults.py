"""Kernel faults against the suites: can a suite tell that a kernel it rests on is broken?

This is mutation testing of the kernels (DeMillo, Lipton and Sayward, "Hints on
test data selection", 1978).  Each fault replaces one kernel by a wrong one in
every module that bound it, then runs ``suite invariants``, ``pseudochar`` and
``det-law`` at d in {1, 2} and seeds 0-4.

- A fault in ``SEEN`` must fail at least one check at every (d, seed).
- A fault in ``UNSEEN`` is one that no suite sees yet, listed with the reason.
  Its test fails as soon as a suite starts to see it, so that the fault moves
  to ``SEEN``.
"""

import pytest

from symplaw import detlaws, gma, invariants, matrices, pseudochar, suites, symplectic
from symplaw.matrices import RingMatrix
from symplaw.suites import suite_det_law, suite_invariants, suite_pseudochar

MODULES = (matrices, symplectic, detlaws, invariants, pseudochar, gma, suites)
SUITES = (suite_invariants, suite_pseudochar, suite_det_law)
TRIALS = 4


def _odd_lambdas_negated(original):
    def fault(p, n, var="t"):
        return tuple(-x if i % 2 else x for i, x in enumerate(original(p, n, var)))

    return fault


def _scalar_random_matrix(original):
    def fault(n, rng, magnitude=5):
        return RingMatrix.scalar(n, original(1, rng, magnitude)[0, 0])

    return fault


def _identity_sample(original):
    return lambda ctx, seed: RingMatrix.identity(ctx.n)


# fault name: (kernel, the wrong kernel made from it)
FAULTS = {
    "lambdas_odd_sign_flip": (matrices.lambdas_from_char_poly, _odd_lambdas_negated),
    "random_matrix_scalar": (symplectic.random_matrix, _scalar_random_matrix),
    "sample_symplectic_identity": (symplectic.sample_symplectic, _identity_sample),
}

# what sees each fault at d in {1, 2}, seeds 0-4
SEEN = {
    "lambdas_odd_sign_flip": "det-law: newton_matches_char_poly, chi_alpha_vanishes_on_matrix_models",
    "random_matrix_scalar": "invariants: fft_desk_scale_* (scalar samples span too few trace words)",
}
UNSEEN = {
    "sample_symplectic_identity": (
        "every check that draws an Sp sample tests an identity that holds on all of Sp, the"
        " identity matrix included; no check asks that a sample be non-scalar or that two"
        " samples not commute"
    ),
}


def _failed_checks(monkeypatch, fault: str) -> dict:
    """{(d, seed): names of the failed checks} with ``fault`` in place of its kernel."""
    original, make = FAULTS[fault]
    wrong = make(original)
    for module in MODULES:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, wrong)
    return {
        (d, seed): [c["name"] for suite in SUITES for c in suite(d, TRIALS, seed) if not c["pass"]]
        for d in (1, 2)
        for seed in range(5)
    }


def test_every_fault_is_listed_once():
    assert set(SEEN) | set(UNSEEN) == set(FAULTS)
    assert not set(SEEN) & set(UNSEEN)


def test_suites_pass_without_a_fault():
    for d in (1, 2):
        for seed in range(5):
            assert all(c["pass"] for suite in SUITES for c in suite(d, TRIALS, seed))


@pytest.mark.parametrize("fault", sorted(SEEN))
def test_a_suite_sees_the_fault_at_every_seed(monkeypatch, fault):
    unseen = [key for key, failed in _failed_checks(monkeypatch, fault).items() if not failed]
    assert not unseen, f"{fault} passes every check at (d, seed) = {unseen}"


@pytest.mark.parametrize("fault", sorted(UNSEEN))
def test_an_unseen_fault_is_still_unseen(monkeypatch, fault):
    seen = {key: failed for key, failed in _failed_checks(monkeypatch, fault).items() if failed}
    assert not seen, f"{fault} is now seen; move it to SEEN: {seen}"
