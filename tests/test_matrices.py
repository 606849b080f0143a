import itertools
import random
from fractions import Fraction

import pytest

from symplaw.errors import DimensionError
from symplaw.matrices import (
    RingMatrix,
    _cofactor_expansion,
    _det_bareiss,
    char_poly,
    lambdas_from_char_poly,
    mat_det,
    matrix_rank,
)
from symplaw.multipoly import MultiPoly


def rand_matrix(rng, n, lo=-9, hi=9):
    return RingMatrix([[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)])


def det_leibniz(m):
    """Permutation-sum oracle, independent of the production code path."""
    n = m.rows
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m[i, perm[i]]
        total += sign * prod
    return total


def test_det_hand_cases():
    assert mat_det(RingMatrix([[1, 2], [3, 4]])) == -2
    assert mat_det(RingMatrix.identity(5)) == 1
    # standard symplectic form, 2d = 4
    j4 = RingMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    assert mat_det(j4) == 1


def test_det_nonsquare_rejected():
    with pytest.raises(DimensionError):
        mat_det(RingMatrix([[1, 2, 3], [4, 5, 6]]))


@pytest.mark.parametrize("rows", [[], [[]], [[], []], [[], [1]], [[1], []]],
                         ids=["no_rows", "empty_row", "empty_rows", "empty_first", "ragged"])
def test_empty_or_ragged_rows_rejected(rows):
    with pytest.raises(DimensionError):
        RingMatrix(rows)


def test_det_matches_leibniz_oracle():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            m = rand_matrix(rng, n)
            assert mat_det(m) == det_leibniz(m)


def test_det_bareiss_path_agrees_with_cofactor():
    rng = random.Random(12)
    for _ in range(5):
        m = rand_matrix(rng, 8)
        assert _det_bareiss(m) == _cofactor_expansion(m.entries)


def test_det_multiplicative():
    rng = random.Random(13)
    for _ in range(50):
        a, b = rand_matrix(rng, 4), rand_matrix(rng, 4)
        assert mat_det(a * b) == mat_det(a) * mat_det(b)


def test_det_polynomial_entries():
    x = MultiPoly.variable("x")
    m = RingMatrix([[x, 1], [1, x]])
    assert mat_det(m) == x**2 - 1


def test_char_poly_hand_cases():
    t = MultiPoly.variable("t")
    assert char_poly(RingMatrix([[1, 2], [3, 4]])) == t**2 - 5 * t - 2
    assert char_poly(RingMatrix.identity(2)) == (t - 1) ** 2
    assert char_poly(RingMatrix.zeros(2)) == t**2


def test_char_poly_evaluation_matches_det():
    rng = random.Random(14)
    for _ in range(20):
        m = rand_matrix(rng, 4)
        p = char_poly(m)
        r = Fraction(rng.randint(10, 30), rng.randint(1, 7))
        direct = mat_det(RingMatrix.scalar(4, r) - m)
        assert p.substitute({"t": r}) == direct


def test_lambdas_sign_convention():
    m = RingMatrix([[1, 2], [3, 4]])
    lams = lambdas_from_char_poly(char_poly(m), 2)
    assert lams == [Fraction(1), Fraction(5), Fraction(-2)]


def test_inverse_and_pow():
    rng = random.Random(15)
    for _ in range(10):
        m = rand_matrix(rng, 3)
        if mat_det(m) == 0:
            continue
        assert m * m.inverse() == RingMatrix.identity(3)
        assert m**-2 == (m.inverse()) ** 2


def test_matrix_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert matrix_rank([[Fraction(x) for x in r] for r in rows]) == 2
    assert matrix_rank([[Fraction(0)] * 3]) == 0
