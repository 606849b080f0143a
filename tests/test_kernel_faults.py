"""Kernel faults against the suites: can a suite tell that a kernel it rests on is broken?

This is mutation testing of the kernels (DeMillo, Lipton and Sayward, "Hints on
test data selection", 1978).  Each fault replaces one kernel, a function or a
method, by a wrong one in every module or class that bound it, then runs
``suite invariants``, ``pseudochar``, ``det-law``, ``pfaffian`` and ``gma`` at
d in {1, 2} and seeds 0-4.

- A fault in ``SEEN`` must, at every (d, seed), fail at least one check or stop
  a suite with a ``SymplawError``, which the CLI reports with exit code 2.
- A fault in ``UNSEEN`` is one that no suite sees yet, listed with the reason.
  Its test fails as soon as a suite starts to see it, so that the fault moves
  to ``SEEN``.
- A fault in ``PARTLY_SEEN`` is seen at some (d, seed) and not at others,
  listed with the reason.  Its test fails once every (d, seed) sees it, or
  none does, so that the fault moves to ``SEEN`` or ``UNSEEN``.
"""

from functools import cache
from types import SimpleNamespace

import pytest

from symplaw import detlaws, gma, invariants, matrices, pseudochar, suites, symplectic, words
from symplaw.detlaws import InvolutiveRepresentation
from symplaw.errors import SymplawError
from symplaw.gma import QuotientRing
from symplaw.matrices import RingMatrix
from symplaw.multipoly import MultiPoly
from symplaw.suites import (
    suite_det_law,
    suite_gma,
    suite_invariants,
    suite_pfaffian,
    suite_pseudochar,
)
from symplaw.symplectic import SignedPermutation

MODULES = (matrices, symplectic, detlaws, invariants, pseudochar, gma, suites)
SUITES = (suite_invariants, suite_pseudochar, suite_det_law, suite_pfaffian,
          lambda d, trials, seed: suite_gma(trials, seed))
TRIALS = 4


def _odd_lambdas_negated(original):
    def fault(*args):
        return tuple(-x if i % 2 else x for i, x in enumerate(original(*args)))

    return fault


def _scalar_random_matrix(original):
    def fault(n, rng, magnitude=5):
        return RingMatrix.scalar(n, original(1, rng, magnitude)[0, 0])

    return fault


def _identity_sample(original):
    return lambda ctx, seed: RingMatrix.identity(ctx.n)


def _sign_flip_from_6(original):
    return lambda m: -original(m) if m.rows >= 6 else original(m)


def _negated(original):
    return lambda *args: -original(*args)


def _last_coefficient_negated(original):
    def fault(a, *dot):
        coeffs = original(a, *dot)
        return coeffs[:-1] + [-coeffs[-1]]

    return fault


def _signs_dropped(original):
    """The expansion along the first row with every alternating sign dropped: a permanent."""
    def fault(a, dot=matrices._sum_of_products):
        @cache
        def minor(cols):  # on the columns cols and the last len(cols) rows of a
            if not cols:
                return 1
            row = a[len(a) - len(cols)]
            live = [c for c in cols if row[c]]
            return dot([row[c] for c in live], [minor(cols - {c}) for c in live])

        return minor(frozenset(range(len(a))))

    return fault


def _plain_transpose(original):
    return lambda self, m: m.transpose()


def _unreduced(original):
    return lambda self, x: x


def _plain_dot(original):
    return lambda self, u, v: matrices._dot(u, v)


def _first_variable_term_dropped(original):
    """dot without its term in the ring's first variable u, a degree-1 monomial outside the ideal."""
    def fault(self, u, v):
        x = original(self, u, v)
        if not isinstance(x, MultiPoly):
            return x
        first = self.vars[0]
        return x - x.coefficient({first: 1}) * self.variable(first)

    return fault


def _last_term_dropped(original):
    """A sum of two or more terms without its last one; a single scaled term is kept."""
    def fault(terms, rows, cols):
        terms = list(terms)
        return original(terms[:-1] if len(terms) > 1 else terms, rows, cols)

    return fault


def _last_coefficient_dropped(original):
    """Horner's rule without its last step: the constant term is never added."""
    return lambda coeffs, m, *product: original([*coeffs[:-1], 0], m, *product)


def _letters_reversed(original):
    """The product of a trace word's letters taken right to left."""
    def fault(word, mats, ctx, *images):
        return original(SimpleNamespace(letters=word.letters[::-1]), mats, ctx, *images)

    return fault


def _word_reversed(original):
    """A word's letter images multiplied right to left; the memo keeps true images of the prefixes
    of the reversal, so a word found in it still reads its own image."""
    return lambda word, images: original(word[::-1], images)


def _factors_swapped(original):
    """The matrix product B A in place of A B; a product with a scalar is left as it is."""
    return lambda self, other: original(other, self) if isinstance(other, RingMatrix) else original(self, other)


def _inverse_letters_as_generators(original):
    return lambda self, w: original(self, tuple((g, 1) for g, _ in w))


# fault name: (module or class, kernel name, the wrong kernel made from the kernel)
FAULTS = {
    "lambdas_odd_sign_flip": (matrices, "lambdas_of_matrix", _odd_lambdas_negated),
    "random_matrix_scalar": (symplectic, "random_matrix", _scalar_random_matrix),
    "sample_symplectic_identity": (symplectic, "sample_symplectic", _identity_sample),
    "bareiss_sign_flip_from_6": (matrices, "_det_bareiss", _sign_flip_from_6),
    "pfaffian_expansion_negated": (symplectic, "_pfaffian_expansion", _negated),
    "pfaffian_elimination_negated": (symplectic, "_pfaffian_elimination", _negated),
    "berkowitz_last_coefficient_negated": (matrices, "_berkowitz", _last_coefficient_negated),
    "cofactor_expansion_negated": (matrices, "_cofactor_expansion", _negated),
    "cofactor_expansion_without_signs": (matrices, "_cofactor_expansion", _signs_dropped),
    "right_product_negated": (SignedPermutation, "right_product", _negated),
    "adjoint_plain_transpose": (SignedPermutation, "adjoint", _plain_transpose),
    "reduce_keeps_every_term": (QuotientRing, "reduce", _unreduced),
    "quotient_dot_unreduced": (QuotientRing, "dot", _plain_dot),
    "quotient_dot_drops_a_degree_1_term": (QuotientRing, "dot", _first_variable_term_dropped),
    "rho_word_inverse_letters_as_generators": (
        InvolutiveRepresentation, "rho_word", _inverse_letters_as_generators),
    "inverse_negated": (RingMatrix, "inverse", _negated),
    "linear_combination_drops_the_last_term": (
        matrices, "_linear_combination", _last_term_dropped),
    "matrix_poly_value_drops_the_last_coefficient": (
        symplectic, "matrix_poly_value", _last_coefficient_dropped),
    "word_value_reversed": (invariants, "word_value", _letters_reversed),
    "evaluate_word_reversed": (words, "evaluate", _word_reversed),
    "pf_law_negated": (detlaws, "eval_pf_law", _negated),
    "matrix_product_factors_swapped": (RingMatrix, "__mul__", _factors_swapped),
}

# what sees each fault at d in {1, 2}, seeds 0-4
SEEN = {
    "lambdas_odd_sign_flip": (
        "det-law: newton_matches_char_poly, chi_alpha_vanishes_on_matrix_models; pfaffian:"
        " recursion_matches_pfaffian_char_poly (its Lambda side reads the fault, its T side"
        " splits the Pfaffian characteristic polynomial with coefficients_in); gma:"
        " standard_chi_p_vanishes (chi^P takes its T_i from the Lambda_i that lambdas_of_matrix"
        " reads in the quotient ring, so it becomes the Pfaffian polynomial of -M)"),
    "random_matrix_scalar": "invariants: fft_desk_scale_* (scalar samples span too few trace words)",
    "right_product_negated": (
        "pfaffian: reduced_pfaffian_normalization (Pf(-M J) = (-1)^k Pf(M J) for k = 1..4);"
        " pseudochar: comparison_p_at_identity"),
    "adjoint_plain_transpose": (
        "invariants: generators_invariant_under_conjugation (a generator's inverse M^j / lambda"
        " is wrong), and fft_desk_scale_d1_* at d = 1; every other suite stops with an error:"
        " the Pfaffian refuses the images of x + x* and of j-symmetric draws, whose M J is no"
        " longer alternating, and GMA elements fail their block membership"),
    "pfaffian_expansion_negated": (
        "det-law: chi_alpha_vanishes_on_matrix_models; pfaffian:"
        " recursion_matches_pfaffian_char_poly (Pf((t Id - M) J) comes from the expansion on a"
        " polynomial matrix and Pf(J) from the elimination, so the sign no longer cancels)"),
    "pfaffian_elimination_negated": (
        "det-law: chi_alpha_vanishes_on_matrix_models; pfaffian:"
        " recursion_matches_pfaffian_char_poly (Pf(J), a rational Pfaffian, changes sign while"
        " the Pfaffian of the polynomial (t Id - M) J does not)"),
    "reduce_keeps_every_term": (
        "gma: *_valid (products of off-diagonal blocks no longer close: u v, u^2 and v^2"
        " survive)"),
    "quotient_dot_unreduced": (
        "gma stops with an error: the Lambda_i of a GMA element keep their nil terms, so"
        " they no longer land in Q"),
    "rho_word_inverse_letters_as_generators": (
        "det-law and pseudochar stop with an error: the image of x + x* is no longer"
        " j-symmetric, so its M J is not alternating"),
    "berkowitz_last_coefficient_negated": (
        "det-law, pfaffian and gma stop with an error: Lambda_2d = det changes sign, so the"
        " Lambda-vector of a j-symmetric matrix is no longer a square; pseudochar:"
        " comparison_agrees_with_det_laws, comparison_p_squared_equals_d"),
    "cofactor_expansion_negated": (
        "gma: *_pf_squares_to_det and counterexample_witness_in_kernel_of_D, which compare"
        " with the determinant of a GMA element, a polynomial matrix"),
    "inverse_negated": (
        "every Cayley sample S = 2 (Id - H)^(-1) - Id becomes -2 (Id - H)^(-1) - Id, so"
        " invariants, pseudochar and det-law stop with an error at their first Sp sample:"
        " its similitude is not 1 (StructureError), or at seed 1 it is singular"
        " (NotASimilitudeError); pfaffian and gma draw no Sp sample and pass"),
    "matrix_poly_value_drops_the_last_coefficient": (
        "det-law: chi_alpha_vanishes_on_matrix_models; pfaffian: pfaffian_cayley_hamilton; gma:"
        " standard_chi_p_vanishes (each asks that a characteristic polynomial vanish at its"
        " matrix, and the value misses the constant term times Id)"),
    "linear_combination_drops_the_last_term": (
        "every matrix sum loses its last term, so Id - H is Id and a Cayley sample"
        " 2 (Id - H)^(-1) - Id is 2 Id, of similitude 4: invariants, pseudochar and det-law"
        " stop with an error at their first Sp sample; t Id - M is t Id, so pfaffian fails"
        " pfaffian_cayley_hamilton and recursion_matches_pfaffian_char_poly (the Pfaffian"
        " characteristic polynomial is t^d); gma stops with an error: x + x* of a random"
        " symmetric element is x, which chi^P refuses as not symmetric"),
    "evaluate_word_reversed": (
        "det-law: det_law_multiplicative_star_invariant, or it stops with an error, as does"
        " pseudochar at some seeds: rho_word, the evaluator's other caller, reads a new word"
        " as its reversal, so rho(xy) and rho(x) rho(y) differ, and the image of x + x* is no"
        " longer j-symmetric, so its M J is not alternating; invariants does not see it, for"
        " the reason given for word_value_reversed"),
    "pf_law_negated": (
        "pseudochar: comparison_agrees_with_det_laws (the comparison P, a reduced Pfaffian of its"
        " own, is compared with eval_pf_law); det-law's pf_law_squares_to_det squares P, so the"
        " sign cancels there"),
}
UNSEEN = {
    "cofactor_expansion_without_signs": (
        "only gma takes polynomial determinants, of 2 x 2 and 4 x 4 GMA elements over"
        " Q[u, v]/(u^2, uv, v^2), and on each of them the terms of the odd permutations sum to"
        " zero, so the permanent equals the determinant"
    ),
    "sample_symplectic_identity": (
        "every check that draws an Sp sample tests an identity that holds on all of Sp, the"
        " identity matrix included; no check asks that a sample be non-scalar or that two"
        " samples not commute"
    ),
    "bareiss_sign_flip_from_6": (
        "at d <= 2 no suite takes the determinant of a rational matrix larger than 4 x 4;"
        " suite pfaffian at d = 3 sees it"
    ),
    "quotient_dot_drops_a_degree_1_term": (
        "the constant term of a product in the quotient depends only on the constant terms"
        " of its factors, which the fault keeps; the trace, determinant, Pfaffian and"
        " Lambda_i of an element and det(1 + chi^P s) in the kernel probe are constants, both"
        " sides of tr(xy) = tr(yx) lose the same term, the one product of chi^P on the"
        " standard fixture is a scalar matrix with no u term, and chi^P on the counterexample"
        " (d = 1) takes no matrix product"
    ),
    "matrix_product_factors_swapped": (
        "with AB read as BA, a word's image is the transpose of its image under the"
        " representation whose generator images are transposed, again a GSp representation with"
        " the same similitudes, and a trace word's value is that of the transposed arguments;"
        " every identity a suite checks holds for any such input, and the determinants, traces,"
        " Lambda-vectors and reduced Pfaffians it compares do not change under transposition;"
        " no suite compares a product with one formed entry by entry"
    ),
}
PARTLY_SEEN = {
    "word_value_reversed": (
        "the reversal of a trace word W is W with every star toggled, then transposed by j,"
        " and M^j has the characteristic polynomial of M; so the fault reads each invariant"
        " function f as X -> f(X_1^j, .., X_m^j), again an invariant function, which no"
        " invariance check can tell from f; only pseudochar's axioms of a GSp representation"
        " (X^j = lambda X^-1) see it, at 3 of the 10 (d, seed): (1, 0), (2, 0) and (2, 4)"
    ),
}


def _failures(suite, d: int, seed: int) -> list:
    """The names of the checks ``suite`` fails, or the error that stopped it."""
    try:
        return [c["name"] for c in suite(d, TRIALS, seed) if not c["pass"]]
    except SymplawError as e:
        return [f"{type(e).__name__}: {e}"]


def _failed_checks(monkeypatch, fault: str) -> dict:
    """{(d, seed): failures of every suite} with ``fault`` in place of its kernel."""
    owner, name, make = FAULTS[fault]
    original = getattr(owner, name)
    wrong = make(original)
    monkeypatch.setattr(owner, name, wrong)
    for module in MODULES:
        for alias, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, alias, wrong)
    # the standard forms cache Pf(J), which a fault may compute; none outlives the test
    SignedPermutation.standard.cache_clear()
    try:
        return {(d, seed): [f for suite in SUITES for f in _failures(suite, d, seed)]
                for d in (1, 2) for seed in range(5)}
    finally:
        SignedPermutation.standard.cache_clear()


def test_every_fault_is_listed_once():
    lists = (SEEN, UNSEEN, PARTLY_SEEN)
    assert set().union(*lists) == set(FAULTS)
    assert sum(map(len, lists)) == len(FAULTS)


def test_suites_pass_without_a_fault():
    for d in (1, 2):
        for seed in range(5):
            assert all(c["pass"] for suite in SUITES for c in suite(d, TRIALS, seed))


@pytest.mark.parametrize("fault", sorted(SEEN))
def test_a_suite_sees_the_fault_at_every_seed(monkeypatch, fault):
    unseen = [key for key, failed in _failed_checks(monkeypatch, fault).items() if not failed]
    assert not unseen, f"{fault} passes every check at (d, seed) = {unseen}"


def test_the_pfaffian_recursion_sees_a_fault_in_the_lambda_extractor(monkeypatch):
    """Of the two routes of ``recursion_matches_pfaffian_char_poly`` only the Lambda side reads
    ``lambdas_of_matrix``, so the check fails wherever that routine is wrong.  The T side signs
    and splits its coefficients on its own: an odd-sign fault in a step both routes shared
    would cancel at even d."""
    failed = _failed_checks(monkeypatch, "lambdas_odd_sign_flip")
    missed = [key for key, checks in failed.items()
              if "recursion_matches_pfaffian_char_poly" not in checks]
    assert not missed, f"recursion_matches_pfaffian_char_poly passes at (d, seed) = {missed}"


@pytest.mark.parametrize("fault", sorted(UNSEEN))
def test_an_unseen_fault_is_still_unseen(monkeypatch, fault):
    seen = {key: failed for key, failed in _failed_checks(monkeypatch, fault).items() if failed}
    assert not seen, f"{fault} is now seen; move it to SEEN: {seen}"


@pytest.mark.parametrize("fault", sorted(PARTLY_SEEN))
def test_a_partly_seen_fault_is_still_partly_seen(monkeypatch, fault):
    failed = _failed_checks(monkeypatch, fault)
    seen = sorted(key for key, checks in failed.items() if checks)
    assert seen, f"{fault} is now unseen; move it to UNSEEN"
    assert len(seen) < len(failed), f"{fault} is now seen at every (d, seed); move it to SEEN"
