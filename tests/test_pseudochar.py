import math
import random
from fractions import Fraction

import pytest

from symplaw import pseudochar
from symplaw.detlaws import (
    GroupAlgebraElement,
    InvolutiveRepresentation,
    eval_det_law,
    eval_pf_law,
    star,
)
from symplaw.errors import ArityError, StructureError, SymplawError, UnsupportedKindError
from symplaw.invariants import InvariantFunction, TraceWord, eval_invariant, word_value
from symplaw.matrices import RingMatrix
from symplaw.multipoly import MultiPoly
from symplaw.pseudochar import (
    Pseudocharacter,
    _corrupted_cache_detected,
    comparison_to_det_law,
    similitude_character,
    theta_eval,
    verify_axioms,
)
from symplaw.symplectic import SymplecticContext, sample_similitude, sample_symplectic
from symplaw.words import parse_word, random_word, word_inv


def sp_pc(d, seeds):
    ctx = SymplecticContext(d)
    images = [sample_symplectic(ctx, s) for s in seeds]
    return Pseudocharacter(InvolutiveRepresentation.from_images(images, kind="Sp"))


def gsp_pc(d, seeds, factors):
    ctx = SymplecticContext(d)
    images = [sample_similitude(ctx, s, factor=f) for s, f in zip(seeds, factors)]
    return Pseudocharacter(InvolutiveRepresentation.from_images(images, kind="GSp"))


def test_theta_trivial_rep_binomials():
    for d in (1, 2):
        ident = RingMatrix.identity(2 * d)
        pc = Pseudocharacter(InvolutiveRepresentation.from_images([ident], kind="Sp"))
        for i in range(1, 2 * d + 1):
            f = InvariantFunction.sigma(i, TraceWord(((1, False), (1, True))))
            assert theta_eval(pc, f, [parse_word("g1")]) == math.comb(2 * d, i)


def test_theta_gsp_inverse_similitude():
    pc = gsp_pc(1, [11], [Fraction(4)])
    f = InvariantFunction.similitude_power(1)
    assert theta_eval(pc, f, [parse_word("g1")]) == Fraction(1, 4)
    sp = sp_pc(1, [11])
    with pytest.raises(UnsupportedKindError):
        theta_eval(sp, f, [parse_word("g1")])


def test_theta_trace_of_identity_pair():
    pc = sp_pc(2, [1, 2])
    f = InvariantFunction.sigma(1, TraceWord(((1, False), (2, False))), arity=2)
    assert theta_eval(pc, f, [parse_word("g1"), parse_word("g1^-1")]) == 4


def test_theta_arity_mismatch():
    pc = sp_pc(1, [1])
    f = InvariantFunction.sigma(1, TraceWord(((1, False),)))
    with pytest.raises(ArityError):
        theta_eval(pc, f, [parse_word("g1"), parse_word("g1")])


def test_theta_conjugation_invariance():
    ctx = SymplecticContext(2)
    images = [sample_symplectic(ctx, s) for s in (21, 22)]
    g = sample_symplectic(ctx, 23)
    gi = g.inverse()
    pc1 = Pseudocharacter(InvolutiveRepresentation.from_images(images, kind="Sp"))
    pc2 = Pseudocharacter(
        InvolutiveRepresentation.from_images([g * m * gi for m in images], kind="Sp")
    )
    rng = random.Random(24)
    for _ in range(20):
        m = rng.randint(1, 3)
        from symplaw.pseudochar import _random_sigma_function

        f = _random_sigma_function(rng, m, 4)
        words = [random_word(rng, 2, 4) for _ in range(m)]
        assert theta_eval(pc1, f, words) == theta_eval(pc2, f, words)


def test_axioms_pass_for_representation_backed():
    for pc in (sp_pc(1, [31, 32]), sp_pc(2, [33, 34]),
               gsp_pc(1, [35, 36], [Fraction(2), Fraction(3)]),
               gsp_pc(2, [37, 38], [Fraction(4), Fraction(1, 2)])):
        report = verify_axioms(pc, trials=30, seed=99)
        assert report["passed"], report["failures"][:2]


def test_each_axiom_trial_is_checked_as_it_is_drawn(monkeypatch):
    """A trial relabels f once as it is drawn and evaluates theta as it is checked; every check
    comes before the next draw, so verify_axioms holds one drawn trial at a time."""
    log = []
    real_relabel, real_theta = pseudochar.relabel, pseudochar.theta_eval
    monkeypatch.setattr(pseudochar, "relabel", lambda *a: log.append("draw") or real_relabel(*a))
    monkeypatch.setattr(pseudochar, "theta_eval", lambda *a: log.append("check") or real_theta(*a))
    assert verify_axioms(sp_pc(1, [41, 42]), trials=20, seed=7)["passed"]
    draws = [i for i, event in enumerate(log) if event == "draw"] + [len(log)]
    assert len(draws) == 21 and draws[0] == 0
    assert all("check" in log[a:b] for a, b in zip(draws, draws[1:]))


def test_corrupted_cache_detected():
    pc = sp_pc(1, [41, 42])
    baseline = verify_axioms(pc, trials=25, seed=7)
    assert baseline["passed"]
    assert pc.cache, "axiom verification should have populated the cache"
    key = sorted(pc.cache, key=repr)[0]
    pc.cache[key] = pc.cache[key] + 1
    corrupted = verify_axioms(pc, trials=25, seed=7)
    assert not corrupted["passed"]
    assert corrupted["failures"]


def test_the_corruption_probe_checks_one_draw_clean_and_corrupted():
    """The probe's clean pass fills the cache as verify_axioms does, then the entry first by
    repr moves by 1, and the second pass of the same draw sees it."""
    reference, pc = sp_pc(1, [41, 42]), sp_pc(1, [41, 42])
    assert verify_axioms(reference, trials=25, seed=7)["passed"]
    assert _corrupted_cache_detected(pc, 25, 7)
    assert pc.cache.keys() == reference.cache.keys()
    first = min(pc.cache, key=repr)
    assert [key for key in pc.cache if pc.cache[key] != reference.cache[key]] == [first]
    assert pc.cache[first] == reference.cache[first] + 1


@pytest.mark.parametrize("trials", [0, -5])
def test_fewer_than_one_trial_is_refused(trials):
    # with no trial drawn, the axioms would pass vacuously
    with pytest.raises(SymplawError, match="trials must be >= 1"):
        verify_axioms(sp_pc(1, [41, 42]), trials, 1)


def test_lambda_memo_holds_no_value_of_f():
    pc = gsp_pc(2, [37, 38], [Fraction(4), Fraction(1, 2)])
    assert verify_axioms(pc, trials=25, seed=7)["passed"]
    for (key, gammas), value in pc.cache.items():
        if key[0] == "sigma":
            f = InvariantFunction.sigma(key[2], TraceWord(key[3]), key[1])
        else:
            f = InvariantFunction.similitude_power(key[2], key[3], key[1])
        assert eval_invariant(f, [pc.rep.rho_word(w) for w in gammas]) == value
    # the memo is keyed by word value alone: the sigma_i of one word on one tuple, and the two
    # routes of an axiom to an equal value, share one Lambda-vector
    sigmas = [(key, gammas) for key, gammas in pc.cache if key[0] == "sigma"]
    values = {word_value(TraceWord(key[3]), [pc.rep.rho_word(w) for w in gammas], pc.rep.ctx).cleared()
              for key, gammas in sigmas}
    assert set(pc.lambdas) == values
    assert len(pc.lambdas) < len(sigmas)
    memo = dict(pc.lambdas)
    key = sorted(pc.cache, key=repr)[0]
    pc.cache[key] = pc.cache[key] + 1
    assert not verify_axioms(pc, trials=25, seed=7)["passed"]
    assert pc.lambdas == memo


def test_comparison_matches_det_laws():
    rng = random.Random(61)
    for d in (1, 2):
        pc = sp_pc(d, [51 + d, 52 + d])
        rep = pc.rep
        d_law, p_law = comparison_to_det_law(pc)
        for _ in range(20):
            terms = {random_word(rng, 2, 3): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(3)}
            x = GroupAlgebraElement(terms)
            assert d_law(x) == eval_det_law(rep, x)
            sym = x + star(rep, x)
            if star(rep, sym) == sym:
                p = p_law(sym)
                assert p == eval_pf_law(rep, sym)
                assert p * p == d_law(sym)


def test_comparison_normalization():
    for d in (1, 2, 3):
        pc = sp_pc(d, [71, 72])
        d_law, p_law = comparison_to_det_law(pc)
        one = GroupAlgebraElement.one()
        assert p_law(one) == 1
        assert d_law(one) == 1
        c = Fraction(3)
        assert d_law(GroupAlgebraElement.one(c)) == c ** (2 * d)


@pytest.mark.parametrize("coefficients", ["rational", "polynomial"])
def test_comparison_p_takes_each_pair_in_either_order(coefficients):
    """P equals eval_pf_law whether w or w^(-1) comes first among the terms, for words
    below and above their inverses and for the empty word."""
    pc = gsp_pc(2, [31, 32], [Fraction(2), Fraction(3, 5)])
    rep = pc.rep
    _, p_law = comparison_to_det_law(pc)
    words = [parse_word(t) for t in ("g1", "g2 g1 g1", "g1 g2^-1", "g1^-1 g2")]
    assert [w < word_inv(w) for w in words] == [False, False, True, True]
    u = MultiPoly.variable("u")
    if coefficients == "rational":
        identity_coef, coefs = Fraction(7, 2), [Fraction(k, 3) for k in (1, -2, 4, 5)]
    else:
        identity_coef, coefs = u - 1, [u * k + 1 for k in (1, -2, 4, 5)]
    for w_first in (True, False):
        terms = {(): identity_coef}
        for c, w in zip(coefs, words):
            pair = [(w, c), (word_inv(w), c * math.prod(rep.lambda_values[g - 1] ** e for g, e in w))]
            terms.update(pair if w_first else pair[::-1])
        x = GroupAlgebraElement(terms)
        order = list(x.terms)
        assert all((order.index(w) < order.index(word_inv(w))) == w_first for w in words)
        assert star(rep, x) == x
        assert p_law(x) == eval_pf_law(rep, x)
    assert p_law(GroupAlgebraElement.one(identity_coef)) == identity_coef**2


def test_comparison_p_refuses_a_non_symmetric_element():
    pc = gsp_pc(1, [33], [Fraction(2)])
    _, p_law = comparison_to_det_law(pc)
    g1 = parse_word("g1")
    for x in (GroupAlgebraElement({g1: 1}), GroupAlgebraElement({g1: 1, word_inv(g1): 1})):
        with pytest.raises(StructureError, match="comparison P is defined on symmetric elements"):
            p_law(x)


def test_comparison_hand_case_unipotent():
    rep = InvolutiveRepresentation.from_images([RingMatrix([[1, 1], [0, 1]])], kind="Sp")
    pc = Pseudocharacter(rep)
    _, p_law = comparison_to_det_law(pc)
    c = Fraction(5)
    x = GroupAlgebraElement({parse_word("g1"): c, parse_word("g1^-1"): c})
    assert p_law(x) == 2 * c


def test_similitude_character():
    pc = gsp_pc(1, [81, 82], [Fraction(2), Fraction(3)])
    g1, g2 = parse_word("g1"), parse_word("g2")
    from symplaw.words import word_mul

    assert similitude_character(pc, g1) == 2
    assert similitude_character(pc, g2) == 3
    assert similitude_character(pc, word_mul(g1, g2)) == 6
    rng = random.Random(83)
    for _ in range(10):
        a, b = random_word(rng, 2, 3), random_word(rng, 2, 3)
        lhs = similitude_character(pc, word_mul(a, b))
        assert lhs == similitude_character(pc, a) * similitude_character(pc, b)
    with pytest.raises(UnsupportedKindError):
        similitude_character(sp_pc(1, [84]), g1)


def test_similitude_character_hand_values():
    ctx = SymplecticContext(1)
    rep = InvolutiveRepresentation(
        ctx, (RingMatrix([[2, 0], [0, 2]]), RingMatrix([[2, 0], [0, 3]])), kind="GSp"
    )
    assert rep.lambda_values == (4, 6)
    pc = Pseudocharacter(rep)
    assert similitude_character(pc, parse_word("g1")) == 4
    assert similitude_character(pc, parse_word("g2")) == 6


def test_injectivity_probe():
    # conjugate representations share all theta values and the same (D, P)
    ctx = SymplecticContext(1)
    images = [sample_symplectic(ctx, 91), sample_symplectic(ctx, 92)]
    g = sample_symplectic(ctx, 93)
    gi = g.inverse()
    pc1 = Pseudocharacter(InvolutiveRepresentation.from_images(images, kind="Sp"))
    pc2 = Pseudocharacter(
        InvolutiveRepresentation.from_images([g * m * gi for m in images], kind="Sp")
    )
    d1, p1 = comparison_to_det_law(pc1)
    d2, p2 = comparison_to_det_law(pc2)
    rng = random.Random(94)
    for _ in range(10):
        x = GroupAlgebraElement(
            {random_word(rng, 2, 3): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        )
        assert d1(x) == d2(x)
        sym = x + star(pc1.rep, x)
        assert p1(sym) == p2(sym)
    # distinct determinant laws are separated by some theta value
    other = Pseudocharacter(
        InvolutiveRepresentation.from_images([sample_symplectic(ctx, 95), images[1]], kind="Sp")
    )
    f = InvariantFunction.sigma(1, TraceWord(((1, False),)))
    assert theta_eval(pc1, f, [parse_word("g1")]) != theta_eval(other, f, [parse_word("g1")])
