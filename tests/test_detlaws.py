import math
import random
from fractions import Fraction

import pytest

from symplaw import detlaws
from symplaw.detlaws import (
    GroupAlgebraElement,
    InvolutiveRepresentation,
    chi_alpha,
    closed_form_check_d4,
    eval_det_law,
    eval_pf_law,
    newton_lambdas_from_traces,
    pf_law_from_det,
    pfaffian_coeffs_from_lambdas,
    star,
)
from symplaw.errors import (
    DimensionError,
    GeneratorError,
    SpectrumError,
    StructureError,
    SymplawError,
)
from symplaw.matrices import RingMatrix, entry_vars, lambdas_of_matrix, mat_det
from symplaw.multipoly import MultiPoly
from symplaw.symplectic import (
    SymplecticContext,
    power_traces,
    random_j_symmetric,
    sample_similitude,
    sample_symplectic,
)
from symplaw.words import parse_word, word_inv


def sl2_rep(*matrices):
    return InvolutiveRepresentation.from_images([RingMatrix(m) for m in matrices], kind="Sp")


def elem(spec):
    """{word text: coef} -> GroupAlgebraElement"""
    return GroupAlgebraElement({parse_word(w): c for w, c in spec.items()})


UNIPOTENT = [[1, 1], [0, 1]]


def test_star_involution_sp():
    rep = sl2_rep(UNIPOTENT)
    x = elem({"g1": 1})
    assert star(rep, x) == elem({"g1^-1": 1})
    assert star(rep, star(rep, x)) == x
    assert star(rep, GroupAlgebraElement.one()) == GroupAlgebraElement.one()


def test_star_gsp_twist():
    ctx = SymplecticContext(1)
    rep = InvolutiveRepresentation(ctx, (RingMatrix([[2, 0], [0, 2]]),), kind="GSp")
    assert rep.lambda_values == (4,)
    x = elem({"g1": 1})
    assert star(rep, x) == elem({"g1^-1": 4})
    assert star(rep, star(rep, x)) == x


def _two_generator_reps():
    ctx = SymplecticContext(2)
    sp = InvolutiveRepresentation(ctx, (sample_symplectic(ctx, 1), sample_symplectic(ctx, 2)))
    gsp = InvolutiveRepresentation(
        ctx, (sample_similitude(ctx, 3, factor=Fraction(3)), sample_symplectic(ctx, 4)), kind="GSp")
    return sp, gsp


def word_lambda(rep, w):
    """lambda(w), the product over the letters g^(+-1) of w of lambda_g^(+-1)."""
    return math.prod((rep.lambda_values[g - 1] ** sign for g, sign in w), start=Fraction(1))


def test_star_moves_each_term_to_the_inverse_word_scaled_by_lambda():
    sp, gsp = _two_generator_reps()
    assert star(sp, elem({"g1": 2, "g1^-1": 3})) == elem({"g1^-1": 2, "g1": 3})
    assert gsp.lambda_values == (3, 1)
    x = elem({"g1": 2, "g1^-1": 3, "g1 g2^-1 g1": Fraction(1, 5), "g2": 7, "1": -1})
    for rep in (sp, gsp):
        expected = {word_inv(w): word_lambda(rep, w) * c for w, c in x.terms.items()}
        assert star(rep, x).terms == expected
    assert star(gsp, x) == elem({"g1^-1": 6, "g1": 1, "g1^-1 g2 g1^-1": Fraction(9, 5),
                                 "g2^-1": 7, "1": -1})


def test_star_refuses_a_generator_past_the_representation():
    for rep in _two_generator_reps():
        with pytest.raises(GeneratorError, match="uses g3"):
            star(rep, elem({"g1": 1, "g3": 2}))


def test_representation_computes_each_similitude_once(monkeypatch):
    ctx = SymplecticContext(2)
    images = [sample_similitude(ctx, 7, factor=Fraction(3)), sample_symplectic(ctx, 8)]
    seen = []
    monkeypatch.setattr(detlaws, "similitude", lambda c, m, real=detlaws.similitude:
                        seen.append(m) or real(c, m))
    rep = InvolutiveRepresentation.from_images(images, kind="GSp")
    assert rep.lambda_values == (3, 1) and seen == images
    with pytest.raises(StructureError, match="all similitudes equal to 1"):
        InvolutiveRepresentation.from_images(images, kind="Sp")
    with pytest.raises(StructureError, match="rational entries"):
        InvolutiveRepresentation(ctx, (RingMatrix.scalar(4, MultiPoly.variable("c")),))


def test_newton_hand_case():
    assert newton_lambdas_from_traces([Fraction(5), Fraction(29)]) == (1, 5, -2)


def test_newton_identity_matrix():
    import math

    for n in (2, 3, 4, 8):
        lams = newton_lambdas_from_traces([Fraction(n)] * n)
        assert lams == tuple(math.comb(n, i) for i in range(n + 1))


def test_newton_zero_traces():
    assert newton_lambdas_from_traces([Fraction(0)] * 4) == (1, 0, 0, 0, 0)


def test_newton_needs_a_trace():
    with pytest.raises(SymplawError):
        newton_lambdas_from_traces([])


def test_newton_matches_char_poly():
    rng = random.Random(31)
    for _ in range(20):
        m = RingMatrix([[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)])
        assert newton_lambdas_from_traces(power_traces(m, 4)) == lambdas_of_matrix(m)


def test_recursion_hand_cases():
    a = MultiPoly.variable("a")
    assert pfaffian_coeffs_from_lambdas((Fraction(1), 2 * a, a**2)) == (1, a)
    lams = tuple(Fraction(x) for x in (1, 6, 13, 12, 4))
    assert pfaffian_coeffs_from_lambdas(lams) == (1, 3, 2)


def test_recursion_binomial_values():
    import math

    for d in (1, 2, 3, 4):
        ts = pfaffian_coeffs_from_lambdas(newton_lambdas_from_traces([Fraction(2 * d)] * (2 * d)))
        assert ts == tuple(math.comb(d, i) for i in range(d + 1))


def test_recursion_rejects_unsymmetric_spectrum():
    # eigenvalues {1, 2} are not doubled
    with pytest.raises(SpectrumError):
        pfaffian_coeffs_from_lambdas((Fraction(1), Fraction(3), Fraction(2)))


def test_recursion_rejects_an_odd_dimension():
    # four coefficients L_0..L_3 belong to a 3 x 3 matrix
    with pytest.raises(DimensionError):
        pfaffian_coeffs_from_lambdas((Fraction(1), Fraction(3), Fraction(3), Fraction(1)))
    with pytest.raises(DimensionError):
        pfaffian_coeffs_from_lambdas(())


def test_recursion_rejects_lambda_0_other_than_1():
    with pytest.raises(StructureError):
        pfaffian_coeffs_from_lambdas((Fraction(2), Fraction(2), Fraction(1, 2)))


def test_recursion_matches_pfaffian_char_poly():
    from symplaw.symplectic import pfaffian_coeffs_of_matrix

    rng = random.Random(32)
    for d in (1, 2, 3):
        ctx = SymplecticContext(d)
        for _ in range(10):
            m = random_j_symmetric(ctx, rng)
            ts = pfaffian_coeffs_from_lambdas(lambdas_of_matrix(m))
            assert ts == pfaffian_coeffs_of_matrix(ctx, m)


def diag_double(half):
    vals = list(half) + list(half)
    return RingMatrix(
        [
            [Fraction(vals[i]) if i == j else Fraction(0) for j in range(len(vals))]
            for i in range(len(vals))
        ]
    )


def test_closed_form_d4_frozen_values():
    ident = RingMatrix.identity(8)
    a, b = closed_form_check_d4(lambdas_of_matrix(ident), power_traces(ident, 4))
    assert a == 1 and b == 1

    zero = RingMatrix.zeros(8)
    a, b = closed_form_check_d4(lambdas_of_matrix(zero), power_traces(zero, 4))
    assert a == 0 and b == 0

    m = diag_double([1, 2, 3, 4])
    a, b = closed_form_check_d4(lambdas_of_matrix(m), power_traces(m, 4))
    assert a == 24 and b == 24


def test_closed_form_d4_equals_recursion():
    rng = random.Random(33)
    ctx = SymplecticContext(4)
    for _ in range(10):
        m = random_j_symmetric(ctx, rng, magnitude=3)
        lams = lambdas_of_matrix(m)
        expected = pfaffian_coeffs_from_lambdas(lams)[4]
        a, b = closed_form_check_d4(lams, power_traces(m, 4))
        assert a == expected
        assert b == expected


def test_eval_det_law_scalar_homogeneity():
    rep = sl2_rep(UNIPOTENT)
    c = MultiPoly.variable("c")
    x = GroupAlgebraElement.one(c)
    assert eval_det_law(rep, x) == c**2
    assert eval_pf_law(rep, x) == c


def test_eval_det_law_symbolic_example():
    rep = sl2_rep(UNIPOTENT)
    t1, t2 = MultiPoly.variable("t1"), MultiPoly.variable("t2")
    x = elem({"g1": t1, "g1^-1": t2})
    assert eval_det_law(rep, x) == (t1 + t2) ** 2
    # not star-symmetric, so the strict Pfaffian law rejects it...
    with pytest.raises(StructureError):
        eval_pf_law(rep, x)
    # ...but the recursion-extended law gives the expected t1 + t2
    assert pf_law_from_det(rep, x) == t1 + t2


def test_pf_law_squares_to_det_on_symmetric():
    rng = random.Random(34)
    for d in (1, 2):
        ctx = SymplecticContext(d)
        for trial in range(25):
            images = [sample_symplectic(ctx, 100 * d + trial + k) for k in range(2)]
            rep = InvolutiveRepresentation.from_images(images, kind="Sp")
            t1, t2 = MultiPoly.variable("t1"), MultiPoly.variable("t2")
            w = parse_word("g1 g2")
            y = GroupAlgebraElement({w: t1, (): t2})
            x = y + star(rep, y)
            p = eval_pf_law(rep, x)
            assert p * p == eval_det_law(rep, x)
            assert p == pf_law_from_det(rep, x)


def test_det_law_multiplicative_and_star_invariant():
    rng = random.Random(35)
    ctx = SymplecticContext(2)
    for trial in range(20):
        rep = InvolutiveRepresentation.from_images(
            [sample_symplectic(ctx, 500 + trial), sample_symplectic(ctx, 900 + trial)]
        )
        xs = []
        for _ in range(2):
            terms = {}
            for _ in range(3):
                from symplaw.words import random_word

                terms[random_word(rng, 2, 3)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            xs.append(GroupAlgebraElement(terms))
        x, y = xs
        assert eval_det_law(rep, x * y) == eval_det_law(rep, x) * eval_det_law(rep, y)
        assert eval_det_law(rep, star(rep, x)) == eval_det_law(rep, x)


def test_pf_multiplicative_on_commuting_symmetric():
    rng = random.Random(36)
    for d in (1, 2):
        ctx = SymplecticContext(d)
        for _ in range(20):
            m = random_j_symmetric(ctx, rng, magnitude=3)
            # polynomials in one j-symmetric matrix commute and stay j-symmetric
            c0, c1 = (Fraction(rng.randint(-3, 3)) for _ in range(2))
            e0, e1 = (Fraction(rng.randint(-3, 3)) for _ in range(2))
            x = RingMatrix.scalar(2 * d, c0) + m * c1
            y = RingMatrix.scalar(2 * d, e0) + (m * m) * e1
            from symplaw.symplectic import reduced_pfaffian

            assert reduced_pfaffian(ctx, x * y) == reduced_pfaffian(ctx, x) * reduced_pfaffian(
                ctx, y
            )


def test_sl2_trace_identities():
    rng = random.Random(37)
    ctx = SymplecticContext(1)
    count = 0
    trial = 0
    while count < 30:
        trial += 1
        rep = InvolutiveRepresentation.from_images(
            [sample_symplectic(ctx, 2000 + trial), sample_symplectic(ctx, 3000 + trial)]
        )
        from symplaw.words import random_word

        w = random_word(rng, 2, 4)
        if not w:
            continue
        count += 1

        def t(word):
            return rep.rho_word(word).trace()

        from symplaw.words import word_inv, word_mul

        g = w
        gi = word_inv(w)
        g2 = word_mul(w, w)
        g2i = word_inv(g2)
        assert (
            t(g) ** 2 + 2 * t(g) * t(gi) + t(gi) ** 2 - 2 * t(g2) - 2 * t(g2i) - 8 == 0
        )
        assert 4 * t(g) ** 2 - 4 * t(g2) - 8 == 0
        assert mat_det(rep.rho_word(w)) == 1


def test_chi_alpha_vanishes_on_matrix_models():
    rng = random.Random(38)
    for d in (1, 2):
        ctx = SymplecticContext(d)
        for trial in range(5):
            rep = InvolutiveRepresentation.from_images(
                [sample_symplectic(ctx, 4000 + 10 * d + trial) for _ in range(2)]
            )
            g1 = GroupAlgebraElement.from_word(parse_word("g1"))
            g2 = GroupAlgebraElement.from_word(parse_word("g2"))
            r1 = g1 + star(rep, g1)
            r2 = g2 + star(rep, g2)
            # single argument, alpha = (d)
            assert chi_alpha(rep, [r1], [d]).is_zero()
            # full polarization for d = 2
            if d == 2:
                assert chi_alpha(rep, [r1, r2], [1, 1]).is_zero()


def test_chi_alpha_names_its_variables_past_the_coefficients(monkeypatch):
    """Coefficients in t1 push chi_alpha's own variables to other names, and the result is
    still the zero matrix of a matrix model."""
    seen = []
    monkeypatch.setattr(
        detlaws, "pfaffian_coeffs_of_matrix",
        lambda ctx, s, real=detlaws.pfaffian_coeffs_of_matrix: seen.append(entry_vars(s)) or real(ctx, s))
    ctx = SymplecticContext(2)
    rep = InvolutiveRepresentation.from_images([sample_symplectic(ctx, 4100 + k) for k in range(2)])
    t1 = MultiPoly.variable("t1")
    g1 = GroupAlgebraElement.from_word(parse_word("g1"), t1 + 1)
    g2 = GroupAlgebraElement.from_word(parse_word("g2 g1"), t1 * 2)
    r1, r2 = g1 + star(rep, g1), g2 + star(rep, g2)
    assert chi_alpha(rep, [r1, r2], [1, 1]).is_zero()
    assert chi_alpha(rep, [r1, r2], [2, 0]).is_zero()
    assert seen == [{"t1", "t10", "t2"}] * 2


def test_chi_alpha_validates_input():
    ctx = SymplecticContext(1)
    rep = sl2_rep(UNIPOTENT)
    g1 = GroupAlgebraElement.from_word(parse_word("g1"))
    with pytest.raises(StructureError):
        chi_alpha(rep, [g1], [1])  # not symmetric
    sym = g1 + star(rep, g1)
    with pytest.raises(ValueError):
        chi_alpha(rep, [sym], [2])  # alpha sums to 2 != d
