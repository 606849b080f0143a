"""Acceptance criteria, one test per criterion, all equalities exact.

Each test prints a single PASS/FAIL line so the whole gate can be read off
`pytest -s tests/test_acceptance.py`.
"""

import math
import random
from fractions import Fraction

from symplaw.detlaws import (
    GroupAlgebraElement,
    InvolutiveRepresentation,
    closed_form_check_d4,
    eval_det_law,
    eval_pf_law,
    newton_lambdas_from_traces,
    pfaffian_coeffs_from_lambdas,
    star,
)
from symplaw.gma import (
    check_sch_condition,
    counterexample_fixture,
    gma_chi_p,
    kernel_probe,
    random_symmetric_gma_element,
    standard_fixture,
    validate_standard_gma,
)
from symplaw.invariants import (
    InvariantFunction,
    enumerate_trace_words,
    eval_invariant,
    multilinear_invariant_dim,
    trace_word_span_dim,
)
from symplaw.matrices import RingMatrix, lambdas_of_matrix, mat_det
from symplaw.pseudochar import (
    Pseudocharacter,
    comparison_to_det_law,
    verify_axioms,
)
from symplaw.symplectic import (
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
    symplectic_transpose,
)
from symplaw.words import random_word, word_inv, word_mul


def report(num: int, ok: bool, label: str):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_c01_pfaffian_squared_is_determinant():
    rng = random.Random(101)
    ok = True
    for size in (2, 4, 6, 8):
        for _ in range(50):
            a = random_alternating(size, rng)
            if pfaffian(a) ** 2 != mat_det(a):
                ok = False
    report(1, ok, "Pf(A)^2 = det(A), 200 alternating matrices of sizes 2,4,6,8")


def test_c02_pfaffian_cayley_hamilton():
    rng = random.Random(102)
    ok = True
    for d in (1, 2, 3):
        ctx = SymplecticContext(d)
        for _ in range(100):
            m = random_j_symmetric(ctx, rng, 3)
            coeffs = pfaffian_coeffs_of_matrix(ctx, m)
            if not matrix_poly_value(coeffs, m).is_zero():
                ok = False
    report(2, ok, "Pf_M(M) = 0 for 100 j-symmetric M per d in {1,2,3}")


def test_c03_recursion_fidelity():
    rng = random.Random(103)
    ok = True
    for _ in range(100):
        d = rng.randint(1, 3)
        ctx = SymplecticContext(d)
        m = random_j_symmetric(ctx, rng, 3)
        if pfaffian_coeffs_from_lambdas(lambdas_of_matrix(m)) != pfaffian_coeffs_of_matrix(ctx, m):
            ok = False
    report(3, ok, "coefficient recursion reproduces the Pfaffian characteristic polynomial")


def test_c04_d4_closed_forms():
    rng = random.Random(104)
    ctx = SymplecticContext(4)
    ok = True
    for _ in range(50):
        m = random_j_symmetric(ctx, rng, 2)
        lams = lambdas_of_matrix(m)
        expected = pfaffian_coeffs_from_lambdas(lams)[4]
        a, b = closed_form_check_d4(lams, power_traces(m, 4))
        if a != expected or b != expected:
            ok = False
    report(4, ok, "both d=4 closed forms equal the computed T_4 on 50 random 8x8")


def test_c05_binomial_values():
    ok = True
    for d in (1, 2, 3, 4):
        ctx = SymplecticContext(d)
        direct = pfaffian_coeffs_of_matrix(ctx, RingMatrix.identity(2 * d))
        lams = newton_lambdas_from_traces([Fraction(2 * d)] * (2 * d))
        via_recursion = pfaffian_coeffs_from_lambdas(lams)
        binomials = tuple(math.comb(d, i) for i in range(d + 1))
        if direct != binomials or via_recursion != binomials:
            ok = False
    report(5, ok, "T_i(Id) = C(d,i) for d <= 4, all i")


def test_c06_transfer_and_commuting_multiplicativity():
    rng = random.Random(106)
    ok = True
    for _ in range(100):
        d = rng.randint(1, 2)
        ctx = SymplecticContext(d)
        m = random_j_symmetric(ctx, rng, 3)
        x = random_matrix(2 * d, rng, 3)
        if reduced_pfaffian(ctx, x * m * symplectic_transpose(ctx, x)) != mat_det(
            x
        ) * reduced_pfaffian(ctx, m):
            ok = False
    for _ in range(100):
        d = rng.randint(1, 2)
        ctx = SymplecticContext(d)
        m = random_j_symmetric(ctx, rng, 3)
        x = RingMatrix.scalar(2 * d, Fraction(rng.randint(-3, 3))) + m * Fraction(
            rng.randint(-3, 3)
        )
        y = RingMatrix.scalar(2 * d, Fraction(rng.randint(-3, 3))) + (m * m) * Fraction(
            rng.randint(-3, 3)
        )
        if reduced_pfaffian(ctx, x * y) != reduced_pfaffian(ctx, x) * reduced_pfaffian(ctx, y):
            ok = False
    report(6, ok, "P(X M X^j) = det(X) P(M) and commuting P(MN) = P(M)P(N), 100 trials each")


def test_c07_sl2_identities():
    rng = random.Random(107)
    ctx = SymplecticContext(1)
    ok = True
    done = 0
    trial = 0
    while done < 100:
        trial += 1
        rep = InvolutiveRepresentation.from_images(
            [sample_symplectic(ctx, 7000 + trial), sample_symplectic(ctx, 7500 + trial)]
        )
        w = random_word(rng, 2, 4)
        if not w:
            continue
        done += 1

        def t(word):
            return rep.rho_word(word).trace()

        gi = word_inv(w)
        g2 = word_mul(w, w)
        first = t(w) ** 2 + 2 * t(w) * t(gi) + t(gi) ** 2 - 2 * t(g2) - 2 * t(word_inv(g2)) - 8
        second = 4 * t(w) ** 2 - 4 * t(g2) - 8
        if first != 0 or second != 0:
            ok = False
    report(7, ok, "SL2 trace identities hold for 100 random elements")


def test_c08_fft_desk_scale():
    expectations = {(1, 1): 1, (1, 2): 2, (2, 1): 1}
    ok = True
    results = []
    for d, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        oracle = multilinear_invariant_dim(d, m)
        span = trace_word_span_dim(d, m, seed=108)
        results.append((d, m, oracle, span))
        if span != oracle:
            ok = False
        if (d, m) in expectations and oracle != expectations[(d, m)]:
            ok = False
    report(8, ok, f"trace-word span equals the Lie-algebra oracle: {results}")


def test_c09_generator_invariance():
    rng = random.Random(109)
    gens = enumerate_trace_words(2, 3)
    ok = True
    for d in (1, 2):
        ctx = SymplecticContext(d)
        for k in range(100):
            g = sample_symplectic(ctx, 9000 + 100 * d + k)
            gi = g.inverse()
            mats = [random_matrix(2 * d, rng, 3) for _ in range(2)]
            conj = [g * m * gi for m in mats]
            for w in gens:
                for i in range(1, 2 * d + 1):
                    f = InvariantFunction.sigma(i, w, arity=2)
                    if eval_invariant(f, conj) != eval_invariant(f, mats):
                        ok = False
    report(9, ok, "200 symplectic conjugations fix every enumerated generator, d in {1,2}")


def test_c10_pseudocharacter_axioms_and_corruption():
    ok = True
    for d, kind in ((1, "Sp"), (2, "Sp"), (1, "GSp"), (2, "GSp")):
        ctx = SymplecticContext(d)
        if kind == "Sp":
            images = [sample_symplectic(ctx, 300 + d), sample_symplectic(ctx, 310 + d)]
        else:
            images = [
                sample_similitude(ctx, 320 + d, factor=Fraction(2)),
                sample_similitude(ctx, 330 + d, factor=Fraction(3, 2)),
            ]
        pc = Pseudocharacter(InvolutiveRepresentation.from_images(images, kind=kind))
        outcome = verify_axioms(pc, trials=50, seed=110 + d)
        if not outcome["passed"]:
            ok = False
    # corrupted-table fixture must be detected
    ctx = SymplecticContext(1)
    pc = Pseudocharacter(
        InvolutiveRepresentation.from_images(
            [sample_symplectic(ctx, 341), sample_symplectic(ctx, 342)], kind="Sp"
        )
    )
    clean = verify_axioms(pc, trials=25, seed=111)
    if not (clean["passed"] and pc.cache):
        ok = False
    else:
        key = sorted(pc.cache, key=repr)[0]
        pc.cache[key] = pc.cache[key] + 1
        if verify_axioms(pc, trials=25, seed=111)["passed"]:
            ok = False
    report(10, ok, "axioms pass for Sp2, Sp4, GSp2, GSp4 (200 trials); corruption detected")


def test_c11_comparison_map_coherence():
    rng = random.Random(112)
    ok = True
    for d, kind in ((1, "Sp"), (2, "Sp"), (1, "GSp"), (2, "GSp")):
        ctx = SymplecticContext(d)
        if kind == "Sp":
            images = [sample_symplectic(ctx, 400 + d), sample_symplectic(ctx, 410 + d)]
        else:
            images = [
                sample_similitude(ctx, 420 + d, factor=Fraction(4)),
                sample_similitude(ctx, 430 + d, factor=Fraction(1, 2)),
            ]
        rep = InvolutiveRepresentation.from_images(images, kind=kind)
        pc = Pseudocharacter(rep)
        d_law, p_law = comparison_to_det_law(pc)
        if p_law(GroupAlgebraElement.one()) != 1:
            ok = False
        for _ in range(25):
            terms = {
                random_word(rng, 2, 3): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(3)
            }
            x = GroupAlgebraElement(terms)
            if d_law(x) != eval_det_law(rep, x):
                ok = False
            sym = x + star(rep, x)
            p = p_law(sym)
            if p != eval_pf_law(rep, sym) or p * p != d_law(sym):
                ok = False
    report(11, ok, "comparison (D,P) agrees with direct laws on 100 elements; P^2 = D; P(1) = 1")


def test_c12_gma_criterion():
    rng = random.Random(113)
    ok = True

    spec = standard_fixture()
    if not validate_standard_gma(spec)["valid"]:
        ok = False
    sch, _ = check_sch_condition(spec)
    if not sch:
        ok = False
    for _ in range(50):
        m = random_symmetric_gma_element(spec, rng)
        if not gma_chi_p(spec, m).is_zero():
            ok = False

    ce = counterexample_fixture()
    if not validate_standard_gma(ce)["valid"]:
        ok = False
    sch, witness = check_sch_condition(ce)
    if sch or witness is None:
        ok = False
    else:
        _, _, wit = witness
        chi = gma_chi_p(ce, wit)
        if chi.is_zero():
            ok = False
        if not kernel_probe(ce, chi, trials=25, seed=114):
            ok = False
    report(12, ok, "sCH holds for the +1 spec (chi = 0 on 50 elements); -1 spec fails with kernel witness")
