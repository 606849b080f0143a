import random
from fractions import Fraction

import pytest

from symplaw.errors import ArityError, CapacityError, SymplawError
from symplaw.invariants import (
    InvariantFunction,
    TraceWord,
    canonical_letters,
    check_invariance,
    enumerate_trace_words,
    eval_invariant,
    eval_trace_word,
    hat,
    multilinear_invariant_dim,
    relabel,
    sp_basis,
    trace_word_span_dim,
)
from symplaw.matrices import RingMatrix
from symplaw.symplectic import (
    SymplecticContext,
    random_matrix,
    sample_similitude,
    sample_symplectic,
    symplectic_transpose,
)


def test_canonical_identifies_star_and_rotation():
    # X and X^j have the same trace
    assert canonical_letters(((1, True),)) == ((1, False),)
    # cyclic rotation
    assert canonical_letters(((2, False), (1, False))) == ((1, False), (2, False))
    # reversal-with-star
    assert canonical_letters(((1, True), (2, True))) == ((1, False), (2, False))


def test_enumerate_hand_cases():
    assert [str(w) for w in enumerate_trace_words(1, 1)] == ["1"]
    assert [str(w) for w in enumerate_trace_words(1, 2)] == ["1", "1 1", "1 1*"]
    assert [str(w) for w in enumerate_trace_words(2, 1)] == ["1", "2"]


def test_canonicalization_sound_for_traces():
    rng = random.Random(41)
    ctx = SymplecticContext(2)
    for _ in range(50):
        length = rng.randint(1, 4)
        letters = tuple((rng.randint(1, 2), rng.choice((False, True))) for _ in range(length))
        mats = [random_matrix(4, rng) for _ in range(2)]
        raw = None
        for i, starred in letters:
            m = mats[i - 1]
            if starred:
                m = symplectic_transpose(ctx, m)
            raw = m if raw is None else raw * m
        assert raw.trace() == eval_trace_word(TraceWord(letters), mats, ctx)


def test_eval_invariant_hand_cases():
    x = RingMatrix([[1, 2], [3, 4]])
    f = InvariantFunction.sigma(1, TraceWord(((1, False),)))
    assert eval_invariant(f, [x]) == 5
    f2 = InvariantFunction.sigma(1, TraceWord(((1, False), (1, True))))
    assert eval_invariant(f2, [x]) == -4  # X X^j = det(X) Id for d = 1
    # sigma_i at the identity is C(2d, i)
    import math

    for d in (1, 2):
        for i in range(1, 2 * d + 1):
            f3 = InvariantFunction.sigma(i, TraceWord(((1, False),)))
            assert eval_invariant(f3, [RingMatrix.identity(2 * d)]) == math.comb(2 * d, i)


def test_similitude_generator():
    ctx = SymplecticContext(1)
    g = RingMatrix([[2, 0], [0, 3]])
    f = InvariantFunction.similitude_power(1)
    assert eval_invariant(f, [g]) == Fraction(1, 6)


def test_invariance_of_generators():
    rng = random.Random(42)
    for d in (1, 2):
        words = enumerate_trace_words(2, 3)
        for trial in range(10):
            g = sample_symplectic(SymplecticContext(d), 7000 + 10 * d + trial)
            mats = [random_matrix(2 * d, rng) for _ in range(2)]
            for w in words:
                for i in range(1, 2 * d + 1):
                    f = InvariantFunction.sigma(i, w, arity=2)
                    assert check_invariance(f, mats, g)


def test_invariance_spot_checks_longer_words():
    # wider surface than the systematic run: m = 3, word length 4
    rng = random.Random(44)
    for d in (1, 2):
        ctx = SymplecticContext(d)
        for trial in range(5):
            g = sample_symplectic(ctx, 8800 + 10 * d + trial)
            mats = [random_matrix(2 * d, rng, 3) for _ in range(3)]
            for _ in range(4):
                letters = tuple(
                    (rng.randint(1, 3), rng.choice((False, True))) for _ in range(4)
                )
                f = InvariantFunction.sigma(
                    rng.randint(1, 2 * d), TraceWord(letters), arity=3
                )
                assert check_invariance(f, mats, g)


def test_similitude_invariant_under_conjugation():
    ctx = SymplecticContext(2)
    for trial in range(10):
        g = sample_symplectic(ctx, 7500 + trial)
        h = sample_similitude(ctx, 7600 + trial, factor=Fraction(trial + 2))
        gi = g.inverse()
        from symplaw.symplectic import similitude

        assert similitude(ctx, g * h * gi) == similitude(ctx, h)


def test_non_invariant_entry_function_detected():
    # the (1,1) entry is not a conjugation invariant
    ctx = SymplecticContext(1)
    g = sample_symplectic(ctx, 3)
    m = RingMatrix([[1, 2], [3, 4]])
    gi = g.inverse()
    assert (g * m * gi)[0, 0] != m[0, 0]


def test_relabel_and_hat():
    rng = random.Random(43)
    w = TraceWord(((1, False), (2, True)))
    f = InvariantFunction.sigma(1, w, arity=2)
    fz = relabel(f, [2, 2], arity=3)
    mats = [random_matrix(2, rng) for _ in range(3)]
    assert eval_invariant(fz, mats) == eval_invariant(f, [mats[1], mats[1]])
    fh = hat(f)
    assert fh.arity == 3
    assert eval_invariant(fh, mats) == eval_invariant(f, [mats[0], mats[1] * mats[2]])


def test_oracle_dimensions_precomputed():
    assert multilinear_invariant_dim(1, 1) == 1
    assert multilinear_invariant_dim(1, 2) == 2
    assert multilinear_invariant_dim(2, 1) == 1


def test_span_matches_oracle_desk_scale():
    for d, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        assert trace_word_span_dim(d, m, seed=5) == multilinear_invariant_dim(d, m)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        multilinear_invariant_dim(3, 4)


def test_sp_basis_satisfies_lie_condition():
    for d in (1, 2, 3):
        j = SymplecticContext(d).J
        for h in sp_basis(d):
            hm = RingMatrix([[Fraction(x) for x in row] for row in h])
            assert hm.transpose() * j + j * hm == RingMatrix.zeros(2 * d)
        assert len(sp_basis(d)) == d * (2 * d + 1)


def test_arity_errors():
    f = InvariantFunction.sigma(1, TraceWord(((1, False),)))
    with pytest.raises(ArityError):
        eval_invariant(f, [RingMatrix.identity(2), RingMatrix.identity(2)])


@pytest.mark.parametrize("letters", [((0, False),), ((1, False), (0, True)), ((-2, False),)])
def test_trace_word_letters_are_one_based(letters):
    # letter 0 used to read mats[-1], the last matrix, without complaint
    with pytest.raises(SymplawError):
        TraceWord(letters)
