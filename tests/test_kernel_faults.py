"""Faults against the suites: one table of injected faults, run by one runner.

Every test that runs a suite under an injected fault is here, apart from the pinned failing
reports of ``test_golden.py``, which patch a kernel on their own.

This is mutation analysis (DeMillo, Lipton and Sayward, "Hints on test data selection",
1978) of the kernels and of the checks.  A row of either table holds a list of patches
``(owner, name, wrong)``, and ``_under`` is the one runner: for each (d, seed) of a grid it
runs suites with every patch of the row in place, and keeps each suite's {check: pass}, or
the ``SymplawError`` that stopped it, which the CLI reports with exit code 2.

Kernel faults ask whether a broken kernel is seen.  A row of ``FAULTS`` is
``name: (status, patches, why)``: its patches replace one kernel, a function or a method, in
every module and class body that bound it (``_everywhere``).  At each (d, seed) of the kernel
grid, d in {1, 2, 3} and seeds 0-4, the suites run in order of cost (``pfaffian``, ``gma``,
``pseudochar``, ``det-law``, ``invariants``) until one fails a check or stops with an error;
that suite sees the fault, and the rest are not asked.  A point where no suite sees the fault
runs all five.  ``gma`` reads no d, so it runs once per seed and its answer serves every
point of that seed.  The number of points where a suite sees the fault gives the status:

- ``SEEN``: every point.
- ``UNSEEN``: none.  The test fails as soon as a suite starts to see the fault, so that its
  row moves to ``SEEN``.
- ``PARTLY_SEEN``: some, not all.  The test fails once every point sees it, or none does.

``why`` names every suite and check known to see the fault, or says why none does.  The text
documents; the test asserts only the status, and stops at the first suite that sees a fault.

Negative controls ask whether each check can fail.  A row of ``CONTROLS`` names a suite, a
check (a glob over check names) and patches under which that check must fail, not stop its
suite with an error, at every (d, seed) of its grid: the suite at d in {1, 2, 3} and seeds 0-9,
or for gma, which reads no d, seeds 0-9; ``binomial_values_at_identity``, ``d4_closed_forms``
and ``enumeration_desk_counts`` read no d or no seed, so they repeat runs.  Every check has a
control.  A control names only the namespaces it patches (``_at``, or a patch written out):
patched in every alias, the controls of ``similitude_conjugation_invariant``, ``*_valid`` and
``similitude_recovery_multiplicative`` stop their suite with a ``StructureError`` at d = 1
before their check can fail.
"""

from dataclasses import replace
from fnmatch import fnmatch
from functools import cache, partial
from types import SimpleNamespace

import pytest

from symplaw import detlaws, gma, invariants, matrices, pseudochar, suites, symplectic, words
from symplaw.detlaws import InvolutiveRepresentation
from symplaw.errors import SymplawError
from symplaw.gma import QuotientRing
from symplaw.matrices import RingMatrix
from symplaw.multipoly import MultiPoly
from symplaw.suites import suite_det_law, suite_gma, suite_invariants, suite_pfaffian, suite_pseudochar
from symplaw.symplectic import SignedPermutation

MODULES = (matrices, symplectic, detlaws, invariants, pseudochar, gma, suites)
TRIALS = 4
SUITES = {  # in order of cost over the kernel grid, cheapest first
    "pfaffian": lambda d, seed: suite_pfaffian(d, TRIALS, seed),
    "gma": lambda d, seed: suite_gma(TRIALS, seed),
    "pseudochar": lambda d, seed: suite_pseudochar(d, TRIALS, seed),
    "det-law": lambda d, seed: suite_det_law(d, TRIALS, seed),
    "invariants": lambda d, seed: suite_invariants(d, TRIALS, seed),
}
KERNEL_GRID = [(d, seed) for d in (1, 2, 3) for seed in range(5)]


def _grid(suite: str) -> list:
    """A control's grid: its suite at d in {1, 2, 3} and seeds 0-9; gma reads no d."""
    return [(d, seed) for d in ((1,) if suite == "gma" else (1, 2, 3)) for seed in range(10)]


def _under(monkeypatch, patches, suites, keys) -> dict:
    """{(d, seed): [each suite's {check: pass}, or the SymplawError that stopped it]} with each
    (owner, name, wrong) of ``patches`` in place; a suite is called as suite(d, seed)."""
    for owner, name, wrong in patches:
        monkeypatch.setattr(owner, name, wrong)
    # the standard forms cache Pf(J), which a fault may compute; none outlives the run
    SignedPermutation.standard.cache_clear()
    try:
        return {key: [_outcome(suite, *key) for suite in suites] for key in keys}
    finally:
        SignedPermutation.standard.cache_clear()


def _outcome(suite, d: int, seed: int):
    try:
        return {c["name"]: c["pass"] for c in suite(d, seed)}
    except SymplawError as e:
        return e


def _failures(outcome) -> list:
    """The names of the checks a suite failed, or the error that stopped it."""
    return [outcome] if isinstance(outcome, SymplawError) else [n for n, ok in outcome.items() if not ok]


def _at(owner, name: str, make) -> list:
    """One patch: make(owner.name) in place of owner.name, in that namespace only."""
    return [(owner, name, make(getattr(owner, name)))]


def _everywhere(owner, name: str, make) -> list:
    """make(owner.name) in place of owner.name and of every alias of it in ``MODULES`` and in
    the class body of ``owner``, such as ``MultiPoly.__rmul__ = __mul__``."""
    original = getattr(owner, name)
    wrong = make(original)
    return [(space, alias, wrong) for space in dict.fromkeys((owner, *MODULES))
            for alias, value in vars(space).items() if value is original]


# -- kernel faults ------------------------------------------------------------------------


def _odd_lambdas_negated(original):
    return lambda *args: tuple(-x if i % 2 else x for i, x in enumerate(original(*args)))


def _scalar_random_matrix(original):
    return lambda n, rng, magnitude=5: RingMatrix.scalar(n, original(1, rng, magnitude)[0, 0])


def _sign_flip_from_6(original):
    return lambda m: -original(m) if m.rows >= 6 else original(m)


def _negated(original):
    return lambda *args: -original(*args)


def _packed_products_negated(original):
    """Every entry negated in a product of 10 or more columns, the ones the packed route takes."""
    return lambda a, b: [tuple(-x for x in r) for r in original(a, b)] if len(b[0]) >= 10 else original(a, b)


def _closed_product_term_negated(original):
    """Entry (0, 0) of a product by a square B of size 2 or 4, the closed forms' sizes, with its
    last term a_0k b_k0 negated."""
    def fault(a, b):
        rows = original(a, b)
        if len(b) in (2, 4) and len(b[0]) == len(b) and rows:
            rows[0] = (rows[0][0] - 2 * (a[0][-1] * b[-1][0]), *rows[0][1:])
        return rows

    return fault


def _last_coefficient_negated(original):
    def fault(a, *dot):
        coeffs = original(a, *dot)
        return coeffs[:-1] + [-coeffs[-1]]

    return fault


def _second_coefficient_negated(original):
    """c_2 negated at n = 2 and 4, the sizes whose coefficients come from closed forms."""
    def fault(a):
        coeffs = original(a)
        return [*coeffs[:2], -coeffs[2], *coeffs[3:]] if len(a) in (2, 4) else coeffs

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
    return lambda word, *args: original(SimpleNamespace(letters=word.letters[::-1]), *args)


def _word_reversed(original):
    """A word's letter images multiplied right to left; the memo keeps true images of the prefixes
    of the reversal, so a word found in it still reads its own image."""
    return lambda word, images: original(word[::-1], images)


def _factors_swapped(original):
    """The matrix product B A in place of A B; a product with a scalar is left as it is."""
    return lambda self, other: original(other, self) if isinstance(other, RingMatrix) else original(self, other)


def _inverse_letters_as_generators(original):
    return lambda self, w: original(self, tuple((g, 1) for g, _ in w))


SEEN, UNSEEN, PARTLY_SEEN = "SEEN", "UNSEEN", "PARTLY_SEEN"
# name: (status at d in {1, 2, 3} and seeds 0-4, patches, what sees the fault or why nothing does)
FAULTS = {
    "lambdas_odd_sign_flip": (
        SEEN, _everywhere(matrices, "lambdas_of_matrix", _odd_lambdas_negated),
        "det-law: newton_matches_char_poly, chi_alpha_vanishes_on_matrix_models; pfaffian:"
        " recursion_matches_pfaffian_char_poly (its Lambda side reads the fault, its T side"
        " splits the Pfaffian characteristic polynomial with coefficients_in); gma:"
        " standard_chi_p_vanishes (chi^P takes its T_i from the Lambda_i that lambdas_of_matrix"
        " reads in the quotient ring, so it becomes the Pfaffian polynomial of -M)"),
    "random_matrix_scalar": (
        SEEN, _everywhere(symplectic, "random_matrix", _scalar_random_matrix),
        "invariants: fft_desk_scale_* (scalar samples span too few trace words)"),
    "sample_symplectic_identity": (
        UNSEEN, _everywhere(symplectic, "sample_symplectic",
                            lambda real: lambda ctx, seed: RingMatrix.identity(ctx.n)),
        "every check that draws an Sp sample tests an identity that holds on all of Sp, the"
        " identity matrix included; no suite check asks that a sample be non-scalar or that two"
        " samples not commute (tests/test_symplectic.py asks it of the sampler alone)"),
    "bareiss_sign_flip_from_6": (
        PARTLY_SEEN, _everywhere(matrices, "_det_bareiss", _sign_flip_from_6),
        "pfaffian at d = 3: pfaffian_squared_equals_det and pfaffian_conjugation_covariance, which"
        " take determinants of 6 x 6 rational matrices; at d <= 2 no suite takes the determinant"
        " of a rational matrix larger than 4 x 4"),
    "pfaffian_expansion_negated": (
        SEEN, _everywhere(symplectic, "_pfaffian_expansion", _negated),
        "det-law: chi_alpha_vanishes_on_matrix_models; pfaffian:"
        " recursion_matches_pfaffian_char_poly (Pf((t Id - M) J) comes from the expansion on a"
        " polynomial matrix and Pf(J) from the elimination, so the sign no longer cancels)"),
    "pfaffian_elimination_negated": (
        SEEN, _everywhere(symplectic, "_pfaffian_elimination", _negated),
        "det-law: chi_alpha_vanishes_on_matrix_models; pfaffian:"
        " recursion_matches_pfaffian_char_poly (Pf(J), a rational Pfaffian, changes sign while"
        " the Pfaffian of the polynomial (t Id - M) J does not)"),
    "berkowitz_last_coefficient_negated": (
        SEEN, _everywhere(matrices, "_berkowitz", _last_coefficient_negated),
        "det-law and gma stop with an error: Lambda_2d = det changes sign, so the Lambda-vector"
        " of a j-symmetric matrix is no longer a square, for det-law's 8 x 8 d4_closed_forms"
        " input (integer rows) and for gma's elements (the quotient ring's entries); pfaffian"
        " stops with an error at d = 3 (Lambda_6 of a 6 x 6 draw), at 4 of the 5 seeds;"
        " pseudochar does not see it, nor pfaffian at d <= 2, as their rational matrices there"
        " are 2 x 2 or 4 x 4, whose coefficients come from the closed forms of"
        " _integer_char_coeffs"),
    "closed_form_second_coefficient_negated": (
        SEEN, _everywhere(matrices, "_integer_char_coeffs", _second_coefficient_negated),
        "pfaffian and det-law stop with an error: Lambda_2 of a j-symmetric 2 x 2 or 4 x 4"
        " matrix changes sign, so its Lambda-vector is no longer a square; pseudochar:"
        " comparison_agrees_with_det_laws, comparison_p_squared_equals_d; a fault in c_3 at"
        " n = 4 alone is seen only at d >= 2 (pfaffian, det-law), as no suite at d = 1 forms a"
        " 4 x 4 rational characteristic polynomial"),
    "cofactor_expansion_negated": (
        SEEN, _everywhere(matrices, "_cofactor_expansion", _negated),
        "gma: *_pf_squares_to_det and counterexample_witness_in_kernel_of_D, which compare"
        " with the determinant of a GMA element, a polynomial matrix"),
    "cofactor_expansion_without_signs": (
        UNSEEN, _everywhere(matrices, "_cofactor_expansion", _signs_dropped),
        "only gma takes polynomial determinants, of 2 x 2 and 4 x 4 GMA elements over"
        " Q[u, v]/(u^2, uv, v^2), and on each of them the terms of the odd permutations sum to"
        " zero, so the permanent equals the determinant"),
    "right_product_negated": (
        SEEN, _everywhere(SignedPermutation, "right_product", _negated),
        "pfaffian: reduced_pfaffian_normalization (Pf(-M J) = (-1)^k Pf(M J) for k = 1..4),"
        " recursion_matches_pfaffian_char_poly, and commuting_multiplicativity at 13 of the 15"
        " (d, seed); pseudochar: comparison_p_at_identity; det-law:"
        " chi_alpha_vanishes_on_matrix_models at the 5 points of d = 1"),
    "adjoint_plain_transpose": (
        SEEN, _everywhere(SignedPermutation, "adjoint", lambda real: lambda self, m: m.transpose()),
        "invariants: generators_invariant_under_conjugation (a generator's inverse M^j / lambda"
        " is wrong), and fft_desk_scale_d1_* at d = 1; every other suite stops with an error:"
        " the Pfaffian refuses the images of x + x* and of j-symmetric draws, whose M J is no"
        " longer alternating, and gma's x + x* fails its block membership (the symmetry test"
        " of chi^P, SignedPermutation.fixes, reads the sign table itself, not adjoint)"),
    "fixes_plain_transpose": (
        SEEN, _everywhere(SignedPermutation, "fixes", lambda real: lambda self, m: m.transpose() == m),
        "gma stops with an error: a symmetric element x + x* is not its plain transpose, as"
        " J_delta moves its entries, so chi^P refuses it as not symmetric"),
    "reduce_keeps_every_term": (
        SEEN, _everywhere(QuotientRing, "reduce", lambda real: lambda self, x: x),
        "gma: *_valid (products of off-diagonal blocks no longer close: u v, u^2 and v^2"
        " survive)"),
    "quotient_dot_unreduced": (
        SEEN, _everywhere(QuotientRing, "dot", lambda real: lambda self, u, v: matrices._dot(u, v)),
        "gma stops with an error: the Lambda_i of a GMA element keep their nil terms, so"
        " they no longer land in Q"),
    "quotient_dot_drops_a_degree_1_term": (
        UNSEEN, _everywhere(QuotientRing, "dot", _first_variable_term_dropped),
        "the constant term of a product in the quotient depends only on the constant terms"
        " of its factors, which the fault keeps; the trace, determinant, Pfaffian and"
        " Lambda_i of an element and det(1 + chi^P s) in the kernel probe are constants, both"
        " sides of tr(xy) = tr(yx) lose the same term, the one product of chi^P on the"
        " standard fixture is a scalar matrix with no u term, and chi^P on the counterexample"
        " (d = 1) takes no matrix product"),
    "rho_word_inverse_letters_as_generators": (
        SEEN, _everywhere(InvolutiveRepresentation, "rho_word", _inverse_letters_as_generators),
        "det-law and pseudochar stop with an error: the image of x + x* is no longer"
        " j-symmetric, so its M J is not alternating"),
    "inverse_negated": (
        SEEN, _everywhere(RingMatrix, "inverse", _negated),
        "invariants: generators_invariant_under_conjugation (check_invariance conjugates by"
        " g and -g^(-1), which negates each conjugate, so sigma_i of a word of odd length"
        " changes sign for odd i); pseudochar stops with an error: the comparison P inverts"
        " the image of a word larger than its inverse, so the image of x + x* is no longer"
        " j-symmetric and its M J is not alternating; det-law, pfaffian and gma invert nothing"),
    "linear_combination_drops_the_last_term": (
        SEEN, _everywhere(matrices, "_linear_combination", _last_term_dropped),
        "every matrix sum loses its last term: t Id - M is t Id, so pfaffian fails"
        " pfaffian_cayley_hamilton and recursion_matches_pfaffian_char_poly (the Pfaffian"
        " characteristic polynomial is t^d); pseudochar and det-law stop with an error, as the"
        " image of x + x* loses a term and is no longer j-symmetric, so its M J is not"
        " alternating; gma stops with an error: x + x* of a random symmetric element is x,"
        " which chi^P refuses as not symmetric"),
    "matrix_poly_value_drops_the_last_coefficient": (
        SEEN, _everywhere(symplectic, "matrix_poly_value", _last_coefficient_dropped),
        "det-law: chi_alpha_vanishes_on_matrix_models; pfaffian: pfaffian_cayley_hamilton; gma:"
        " standard_chi_p_vanishes (each asks that a characteristic polynomial vanish at its"
        " matrix, and the value misses the constant term times Id)"),
    "word_value_reversed": (
        PARTLY_SEEN, _everywhere(invariants, "word_value", _letters_reversed),
        "the reversal of a trace word W is W with every star toggled, then transposed by j,"
        " and M^j has the characteristic polynomial of M; so the fault reads each invariant"
        " function f as X -> f(X_1^j, .., X_m^j), again an invariant function, which no"
        " invariance check can tell from f; only pseudochar's axioms of a representation"
        " (X^j = lambda X^-1) see it, at 6 of the 15 (d, seed): axioms_GSp_4 at (2, 2) and"
        " (3, 2), and the Sp axioms that corrupted_cache_detected runs first at (2, 1), (2, 3),"
        " (3, 1) and (3, 3)"),
    "evaluate_word_reversed": (
        SEEN, _everywhere(words, "evaluate", _word_reversed),
        "det-law: det_law_multiplicative_star_invariant, or it stops with an error, as does"
        " pseudochar, which fails comparison_p_squared_equals_d at seed 0 when d >= 2: rho_word,"
        " the evaluator's other caller, reads a new word as its reversal, so rho(xy) and"
        " rho(x) rho(y) differ, and the image of x + x* is no longer j-symmetric, so its M J is"
        " not alternating; invariants does not see it, for the reason given for"
        " word_value_reversed"),
    "pf_law_negated": (
        SEEN, _everywhere(detlaws, "eval_pf_law", _negated),
        "pseudochar: comparison_agrees_with_det_laws (the comparison P, a reduced Pfaffian of its"
        " own, is compared with eval_pf_law); det-law's pf_law_squares_to_det squares P, so the"
        " sign cancels there"),
    "matrix_product_factors_swapped": (
        UNSEEN, _everywhere(RingMatrix, "__mul__", _factors_swapped),
        "with AB read as BA, a word's image is the transpose of its image under the"
        " representation whose generator images are transposed, again a GSp representation with"
        " the same similitudes, and a trace word's value is that of the transposed arguments;"
        " every identity a suite checks holds for any such input, and the determinants, traces,"
        " Lambda-vectors and reduced Pfaffians it compares do not change under transposition;"
        " no suite compares a product with one formed entry by entry"),
    "multipoly_product_negated": (
        SEEN, _everywhere(MultiPoly, "__mul__", _negated),
        "det-law: newton_matches_char_poly, chi_alpha_vanishes_on_matrix_models; pfaffian:"
        " recursion_matches_pfaffian_char_poly; gma: counterexample_sch_condition,"
        " counterexample_chi_p_vanishes (char_poly builds det(t Id - M) from t + c_1 by Horner"
        " steps p * t + c, each a product of polynomials, so at n >= 2 its coefficients change"
        " sign; the Pfaffian polynomial in t and the quotient ring's elements are products of"
        " them too)"),
    "det_law_negated": (
        SEEN, _everywhere(detlaws, "eval_det_law", _negated),
        "det-law: det_law_multiplicative_star_invariant (D(x y) against D(x) D(y)),"
        " pf_law_squares_to_det (P^2 against D); pseudochar: comparison_agrees_with_det_laws"),
    "closed_product_term_negated": (
        SEEN, _everywhere(matrices, "_product", _closed_product_term_negated),
        "pfaffian, pseudochar and det-law stop with an error at every (d, seed): a congruence"
        " G A G^T of 2 x 2 or 4 x 4 matrices is no longer alternating, nor is M J for the image"
        " M of x + x* (pseudochar at (2, 1) and (3, 1): M^j M is not scalar);"
        " invariants: generators_invariant_under_conjugation, similitude_conjugation_invariant"
        " and fft_desk_scale_d1_m3 at d = 1, an error at d >= 2; gma forms no such product"),
    "packed_product_negated": (
        UNSEEN, _everywhere(matrices, "_integer_product", _packed_products_negated),
        "only a product with 10 or more columns takes the packed route, and no suite multiplies"
        " by a matrix that wide: the suites' matrices are 2d x 2d with 2d <= 6 here"),
}


def _once_per_seed(suite):
    """suite(d, seed) for a suite that reads no d: its checks, or the ``SymplawError`` that
    stopped it, at the first d of a seed serve every later d."""
    runs = {}

    def run(d: int, seed: int) -> list:
        if seed not in runs:
            try:
                runs[seed] = suite(d, seed)
            except SymplawError as e:
                runs[seed] = e
        if isinstance(runs[seed], SymplawError):
            raise runs[seed]
        return runs[seed]

    return run


def _first_seen(suites, d: int, seed: int) -> list:
    """The checks of the first of ``suites`` that fails one at (d, seed), else of the last; a
    ``SymplawError`` ends the search, as a suite it stops sees the fault."""
    for suite in suites:
        checks = suite(d, seed)
        if not all(c["pass"] for c in checks):
            break
    return checks


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_fault_is_seen_where_its_row_says(monkeypatch, fault):
    status, patches, _ = FAULTS[fault]
    suites = [_once_per_seed(suite) if name == "gma" else suite for name, suite in SUITES.items()]
    runs = _under(monkeypatch, patches, [partial(_first_seen, suites)], KERNEL_GRID)
    seen = {key: failed for key, (outcome,) in runs.items() if (failed := _failures(outcome))}
    found = SEEN if len(seen) == len(KERNEL_GRID) else PARTLY_SEEN if seen else UNSEEN
    assert found == status, f"{fault} is {found}, not {status}; seen at {seen}"


# -- negative controls --------------------------------------------------------------------


def _one_larger(real):
    return lambda *args: real(*args) + 1


def _doubled(real):
    return lambda *args: real(*args) * 2


def _of_double(real):
    """real with its last argument, a matrix, doubled."""
    return lambda *args: real(*args[:-1], args[-1] * 2)


def _leading_term_dropped(real):
    """chi^P without its leading term T_0 x^d; a product of the quotient ring is passed on."""
    return lambda coeffs, m, *product: real(coeffs[1:], m, *product)


def _last_one_larger(real):
    def wrong(*args):
        *head, last = real(*args)
        return (*head, last + 1)

    return wrong


def _first_trace_one_larger(real):
    def wrong(m, upto):
        first, *rest = real(m, upto)
        return [first + 1, *rest]

    return wrong


def _entry_01_one_larger(real):
    """Bareiss on m with entry (0, 1) one larger; m is at least 2 x 2 in ``suite pfaffian``."""
    def wrong(m):
        rows = [list(r) for r in m.entries]
        rows[0][1] += 1
        return real(RingMatrix(rows))

    return wrong


def _shifted(real):
    """M J read off M + Id, which shifts the Pfaffian polynomial by t -> t - 1."""
    return lambda self, m: real(self, m + RingMatrix.identity(m.rows))


def _with_a_symmetric_pairing_block(real):
    """The standard fixture plus u on block (2,3) with tau sign -1 there, so that u* = u."""
    def wrong():
        spec = real()
        return replace(spec, blocks={**spec.blocks, (2, 3): (spec.ring.variable("u"),)},
                       tau_signs={**spec.tau_signs, frozenset((2, 3)): -1})

    return wrong


def _cache_never_read(real):
    """theta_eval that drops the cached value of its key first, so it always recomputes."""
    def wrong(pc, f, gammas):
        pc.cache.pop(pc.cache_key(f, tuple(tuple(w) for w in gammas)), None)
        return real(pc, f, gammas)

    return wrong


# (suite, check glob, patches): under the patches each check of the suite that the glob names
# fails at every (d, seed) of the suite's grid
CONTROLS = [
    # Bareiss, which mat_det runs on every rational matrix, reads entry (0, 1) one too large
    ("pfaffian", "pfaffian_squared_equals_det", _at(matrices, "_det_bareiss", _entry_01_one_larger)),
    # X^j comes out doubled
    ("pfaffian", "symplectic_transpose_involutive", _at(suites, "symplectic_transpose", _doubled)),
    ("pfaffian", "pfaffian_conjugation_covariance", _at(suites, "pfaffian", _one_larger)),
    # the reduced Pfaffian forgets to divide by Pf(J), which is -1 at d = 2, 3
    ("pfaffian", "reduced_pfaffian_normalization",
     [(suites, "reduced_pfaffian", lambda ctx, m: suites.pfaffian(m * ctx.J))]),
    ("pfaffian", "pfaffian_cayley_hamilton", _at(suites, "matrix_poly_value", _leading_term_dropped)),
    # the Lambda-vector is read off 2M instead of M
    ("pfaffian", "recursion_matches_pfaffian_char_poly", _at(suites, "lambdas_of_matrix", _of_double)),
    # of the check's two routes only the Lambda side reads lambdas_of_matrix, so a fault there
    # shows wherever it is made; the T side signs and splits its coefficients on its own, so an
    # odd-sign fault in a step both routes shared would cancel at even d
    ("pfaffian", "recursion_matches_pfaffian_char_poly",
     _everywhere(matrices, "lambdas_of_matrix", _odd_lambdas_negated)),
    ("pfaffian", "transfer_identity", _at(suites, "mat_det", _one_larger)),
    ("pfaffian", "commuting_multiplicativity", _at(suites, "reduced_pfaffian", _one_larger)),
    ("det-law", "newton_matches_char_poly", _at(suites, "lambdas_of_matrix", _of_double)),
    # the recursion returns T_d one too large
    ("det-law", "binomial_values_at_identity",
     _at(suites, "pfaffian_coeffs_from_lambdas", _last_one_larger)),
    ("det-law", "d4_closed_forms", _at(suites, "power_traces", _first_trace_one_larger)),
    # g^2 is taken to be g
    ("det-law", "sl2_trace_identities", [(suites, "word_mul", lambda a, b: a)]),
    ("det-law", "det_law_multiplicative_star_invariant", _at(detlaws, "mat_det", _one_larger)),
    # M J comes out doubled
    ("det-law", "pf_law_squares_to_det", _at(SignedPermutation, "right_product", _doubled)),
    ("det-law", "chi_alpha_vanishes_on_matrix_models",
     _at(detlaws, "matrix_poly_value", _leading_term_dropped)),
    # two faults of M J that chi^P's coefficient of t^d cancels, as it rescales the Pfaffian
    # polynomial by 2^d or shifts it; the check also compares the T_i with the Lambda recursion
    ("det-law", "chi_alpha_vanishes_on_matrix_models",
     _at(SignedPermutation, "right_product", _doubled)),
    ("det-law", "chi_alpha_vanishes_on_matrix_models",
     _at(SignedPermutation, "right_product", _shifted)),
    # the enumeration loses its shortest word
    ("invariants", "enumeration_desk_counts",
     _at(suites, "enumerate_trace_words", lambda real: lambda *args: real(*args)[1:])),
    # X^j is taken to be the plain transpose X^T
    ("invariants", "generators_invariant_under_conjugation",
     [(invariants, "symplectic_transpose", lambda ctx, m: m.transpose())]),
    # the similitude factor reads entry (0, 0) instead
    ("invariants", "similitude_conjugation_invariant",
     [(suites, "similitude", lambda ctx, m: m[0, 0])]),
    # the oracle skips the long-root generator E_(d,2d)
    ("invariants", "fft_desk_scale_*",
     _at(invariants, "simple_root_vectors", lambda real: lambda d: real(d)[:-1])),
    # J_delta is taken not to be alternating
    ("gma", "*_valid", [(gma, "is_alternating", lambda m: False)]),
    # the standard fixture's sCH holds vacuously, as its pairing blocks are empty, so its
    # control changes the fixture itself
    ("gma", "standard_sch_condition",
     _at(gma, "standard_fixture", _with_a_symmetric_pairing_block)),
    # the counterexample fixture loses its tau sign -1, so its sCH holds
    ("gma", "counterexample_sch_condition", _at(gma, "counterexample_fixture", lambda real: lambda:
                                                replace(real(), tau_signs={frozenset((1, 2)): 1}))),
    # T_d, the Pfaffian law itself, comes out one too large
    ("gma", "standard_chi_p_vanishes", _at(gma, "gma_pf_coeffs", _last_one_larger)),
    ("gma", "counterexample_chi_p_witness_nonzero",
     _at(gma, "matrix_poly_value", _leading_term_dropped)),
    ("gma", "counterexample_witness_in_kernel_of_D", _at(gma, "mat_det", _one_larger)),
    # the trace of a product picks up the first entry of its left factor
    ("gma", "*_trace_commutes",
     _at(suites, "trace_of_product", lambda real: lambda a, *rest: real(a, *rest) + a[0, 0])),
    ("gma", "*_pf_squares_to_det", _at(gma, "mat_det", _one_larger)),
    # each invariant value comes out larger by the arity of its function; at --trials 4 each
    # representation gets one axiom trial at d = 2, and the two sides of the product axiom
    # have arities m + 1 and m
    ("pseudochar", "axioms_*",
     _at(pseudochar, "eval_invariant", lambda real: lambda f, *args: real(f, *args) + f.arity)),
    # so a corrupted cache entry goes unseen
    ("pseudochar", "corrupted_cache_detected", _at(pseudochar, "theta_eval", _cache_never_read)),
    ("pseudochar", "comparison_agrees_with_det_laws", _at(detlaws, "mat_det", _one_larger)),
    # the comparison D reads its Lambda-vector off 2M instead of M
    ("pseudochar", "comparison_p_squared_equals_d",
     _at(pseudochar, "lambdas_of_matrix", _of_double)),
    # the comparison P takes the reduced Pfaffian of 2M instead of M
    ("pseudochar", "comparison_p_at_identity", _at(pseudochar, "reduced_pfaffian", _of_double)),
    # the recovered similitude is one too large
    ("pseudochar", "similitude_recovery_multiplicative",
     _at(pseudochar, "similitude", _one_larger)),
]
# each suite's number of checks at d = 2, and of control rows
COUNTS = {"invariants": (5, 4), "pseudochar": (9, 6), "det-law": (7, 9), "pfaffian": (8, 9),
          "gma": (11, 8)}


def _control(suite: str, glob: str) -> list:
    """The patches of the first control row of ``suite`` for ``glob``."""
    return next(patches for s, g, patches in CONTROLS if (s, g) == (suite, glob))


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_check_has_a_control(suite):
    """Each check matches a control row, and ``COUNTS`` pins the numbers of both, so a new
    check without a control, or a deleted control, fails here."""
    names = {c["name"] for c in SUITES[suite](2, 0)}
    globs = [glob for s, glob, _ in CONTROLS if s == suite]
    assert (len(names), len(globs)) == COUNTS[suite]
    assert all(any(fnmatch(name, glob) for glob in globs) for name in names)


@pytest.mark.parametrize(
    ("suite", "glob", "patches"), CONTROLS,
    ids=[f"{s}:{g}:{'+'.join(dict.fromkeys(name for _, name, _ in p))}" for s, g, p in CONTROLS])
def test_a_check_fails_under_its_control(monkeypatch, suite, glob, patches):
    for key, (outcome,) in _under(monkeypatch, patches, [SUITES[suite]], _grid(suite)).items():
        assert isinstance(outcome, dict), (key, outcome)
        named = [passed for name, passed in outcome.items() if fnmatch(name, glob)]
        assert named and not any(named), (key, outcome)


def test_comparison_check_fails_when_mat_det_is_off_by_one(monkeypatch):
    (checks,), = _under(monkeypatch, _control("pseudochar", "comparison_agrees_with_det_laws"),
                        [lambda d, seed: suite_pseudochar(d, 25, seed)], [(2, 0)]).values()
    assert checks["comparison_agrees_with_det_laws"] is False
    assert checks["comparison_p_squared_equals_d"] is True


def _pfaffian_d3(monkeypatch, patches) -> list:
    """The checks of ``suite pfaffian --d 3 --trials 30 --seed 0`` under ``patches``."""
    checks = []
    _under(monkeypatch, patches, [lambda d, seed: checks.extend(suite_pfaffian(d, 30, seed)) or checks],
           [(3, 0)])
    return checks


# A check stops at its first failure, and that input is its witness: at d = 3 the first
# failing draw is at the smallest size or half-dimension.
FIRST_WITNESSES = {
    "transfer_identity": ("pfaffian_squared_equals_det", "size 2:"),  # mat_det one too large
    "pfaffian_cayley_hamilton": ("pfaffian_cayley_hamilton", "d=1:"),
    "recursion_matches_pfaffian_char_poly": ("recursion_matches_pfaffian_char_poly", "d=1:"),
}


@pytest.mark.parametrize("control", sorted(FIRST_WITNESSES))
def test_a_check_stops_at_its_first_failure(control, monkeypatch):
    name, prefix = FIRST_WITNESSES[control]
    (check,) = [c for c in _pfaffian_d3(monkeypatch, _control("pfaffian", control)) if c["name"] == name]
    assert not check["pass"] and check["witness"].startswith(prefix), check["witness"][:40]


def test_pfaffian_squared_check_draws_once_under_a_det_fault(monkeypatch):
    """Under a wrong ``mat_det`` the first trial fails, so the check draws one matrix."""
    draws = []

    def logged(name, real):
        def draw(*args):
            draws.append(name)
            return real(*args)
        return draw

    _pfaffian_d3(monkeypatch, [*_control("pfaffian", "transfer_identity"),
                               *((suites, name, logged(name, getattr(suites, name)))
                                 for name in ("random_alternating", "random_matrix"))])
    # the check after it, symplectic_transpose_involutive, draws with random_matrix
    assert draws.index("random_matrix") == 1
