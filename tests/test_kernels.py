"""Cross-checks of the fast kernels against their dense definitions.

char_poly (Berkowitz) against the cofactor determinant of tI - M, the
signed-permutation symplectic transpose and GMA involution against the
products with J and J_delta, and the memoized Lambda-vector behind
eval_invariant against a fresh computation.
"""

import random
from fractions import Fraction

import pytest

from symplaw.errors import VariableError
from symplaw.gma import (
    counterexample_fixture,
    delta_involution,
    random_gma_element,
    random_symmetric_gma_element,
    standard_fixture,
)
from symplaw.invariants import (
    InvariantFunction,
    TraceWord,
    enumerate_trace_words,
    eval_invariant,
    word_lambdas,
)
from symplaw.matrices import RingMatrix, _det_cofactor, char_poly
from symplaw.multipoly import MultiPoly
from symplaw.symplectic import SymplecticContext, random_matrix, symplectic_transpose

FIXTURES = (standard_fixture, counterexample_fixture)


def cofactor_char_poly(m):
    """det(tI - M) by the cofactor DP over MultiPoly entries: the old kernel."""
    t = MultiPoly.variable("t")
    n = m.rows
    shifted = RingMatrix(
        [[(t if i == j else Fraction(0)) - m[i, j] for j in range(n)] for i in range(n)]
    )
    return _det_cofactor(shifted)


def test_char_poly_matches_cofactor_rational():
    rng = random.Random(21)
    for n in range(1, 9):
        for _ in range(4 if n <= 6 else 2):
            m = random_matrix(n, rng, 6)
            assert char_poly(m) == cofactor_char_poly(m), n


def test_char_poly_matches_cofactor_at_the_dimension_cap():
    m = random_matrix(12, random.Random(22), 5)
    assert char_poly(m) == cofactor_char_poly(m)


def test_char_poly_matches_cofactor_on_gma_elements():
    rng = random.Random(23)
    for fixture in FIXTURES:
        spec = fixture()
        for _ in range(6):
            for m in (random_gma_element(spec, rng), random_symmetric_gma_element(spec, rng)):
                assert char_poly(m) == cofactor_char_poly(m)


def test_char_poly_sparse_and_structured_inputs():
    x = MultiPoly.variable("x")
    for m in (
        RingMatrix.zeros(5),
        RingMatrix.identity(6),
        RingMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
        RingMatrix([[x, 0, 1], [0, 0, x * x], [1, x, 0]]),
    ):
        assert char_poly(m) == cofactor_char_poly(m)


def test_char_poly_variable_clash():
    t = MultiPoly.variable("t")
    with pytest.raises(VariableError):
        char_poly(RingMatrix([[t, 1], [0, 1]]))
    # a variable listed with exponent zero everywhere is no clash
    const_t = MultiPoly(("t",), {(0,): Fraction(3)})
    m = RingMatrix([[const_t, 1], [0, 1]])
    assert char_poly(m) == cofactor_char_poly(m) == (t - 3) * (t - 1)


def dense_symplectic_transpose(ctx, m):
    j = ctx.J
    return -(j * m.transpose() * j)


def test_symplectic_transpose_matches_dense_rational():
    rng = random.Random(24)
    for d in range(1, 7):
        ctx = SymplecticContext(d)
        for _ in range(3):
            m = random_matrix(2 * d, rng)
            assert symplectic_transpose(ctx, m) == dense_symplectic_transpose(ctx, m)


def test_symplectic_transpose_matches_dense_polynomial():
    rng = random.Random(25)
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    for d in range(1, 7):
        ctx = SymplecticContext(d)
        n = 2 * d
        m = RingMatrix(
            [[Fraction(rng.randint(-3, 3)) * x + Fraction(rng.randint(-3, 3)) * y * y
              + Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        )
        assert symplectic_transpose(ctx, m) == dense_symplectic_transpose(ctx, m)


def dense_delta_involution(spec, m):
    """J_delta tau(M)^T J_delta^(-1), with the inverse computed, not assumed."""
    off = spec.type.offsets()

    def block(a):
        return next(k for k in range(1, spec.type.r + 1) if off[k - 1] <= a < off[k])

    n = spec.n
    tau = RingMatrix(
        [[m[a, b] if spec.sign(block(a), block(b)) == 1 else -m[a, b] for b in range(n)]
         for a in range(n)]
    )
    jd = spec.J_delta
    return spec.ring.reduce_matrix(jd * tau.transpose() * jd.inverse())


def test_delta_involution_matches_dense():
    rng = random.Random(26)
    for fixture in FIXTURES:
        spec = fixture()
        for _ in range(15):
            m = random_gma_element(spec, rng)
            assert delta_involution(spec, m) == dense_delta_involution(spec, m)


def test_word_lambdas_agree_with_eval_invariant():
    rng = random.Random(27)
    words = enumerate_trace_words(2, 3)
    for d in (1, 2):
        n = 2 * d
        for _ in range(3):
            mats = [random_matrix(n, rng, 3) for _ in range(2)]
            for w in words:
                lams = word_lambdas(w, mats)
                assert lams[0] == 1 and len(lams) == n + 1
                for i in range(1, n + 1):
                    assert eval_invariant(InvariantFunction.sigma(i, w, arity=2), mats) == lams[i]


def test_eval_invariant_memo_never_returns_a_stale_value():
    rng = random.Random(28)
    w = TraceWord(((1, False), (2, True), (1, False)))
    for d in (1, 2):
        n = 2 * d
        fs = [InvariantFunction.sigma(i, w, arity=2) for i in range(1, n + 1)]
        base = [random_matrix(n, rng, 3) for _ in range(2)]
        copies = [RingMatrix(m.entries) for m in base]  # equal values, new objects
        other = [random_matrix(n, rng, 3) for _ in range(2)]
        expected = {id(base): word_lambdas(w, base), id(other): word_lambdas(w, other)}
        expected[id(copies)] = expected[id(base)]
        for f in fs:
            # three tuples interleaved, more than the memo holds
            for mats in (base, other, copies, base, other):
                assert eval_invariant(f, mats) == expected[id(mats)][f.sigma_index]
        # Temporaries built from ready entries, so that CPython hands a new
        # matrix the memory, and so the id, of one just freed: a memo keyed on
        # ids alone would answer with the values of the freed matrices.
        tuples = [[random_matrix(n, rng, 3).entries for _ in range(2)] for _ in range(20)]
        for k, rows in enumerate(tuples):
            f = fs[k % n]
            got = eval_invariant(f, [RingMatrix(r) for r in rows])
            assert got == word_lambdas(w, [RingMatrix(r) for r in rows])[f.sigma_index]
