import itertools
import math
import random
from fractions import Fraction

import pytest

from symplaw.errors import DimensionError, NotASimilitudeError, StructureError
from symplaw.matrices import RingMatrix, char_poly, mat_det
from symplaw.multipoly import MultiPoly
from symplaw.symplectic import (
    SymplecticContext,
    matrix_poly_value,
    pfaffian,
    pfaffian_char_poly,
    pfaffian_coeffs_of_matrix,
    random_alternating,
    random_j_symmetric,
    random_matrix,
    reduced_pfaffian,
    sample_similitude,
    sample_symplectic,
    similitude,
    symplectic_transpose,
)


def pfaffian_leibniz(a):
    """Direct evaluation of (1/(2^n n!)) sum over S_2n; independent oracle."""
    size = a.rows
    n = size // 2
    total = Fraction(0)
    for perm in itertools.permutations(range(size)):
        sign = 1
        for i in range(size):
            for j in range(i + 1, size):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod = prod * a[perm[2 * i], perm[2 * i + 1]]
        total = total + sign * prod
    return total * Fraction(1, 2**n * math.factorial(n))


def diag(*values):
    n = len(values)
    return RingMatrix(
        [[Fraction(values[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    )


def j_symmetric_diag(half):
    """diag(v, v): the j-symmetric diagonal layout for the block J convention."""
    return diag(*(list(half) + list(half)))


def test_transpose_hand_case_d1():
    ctx = SymplecticContext(1)
    m = RingMatrix([[1, 2], [3, 4]])
    assert symplectic_transpose(ctx, m) == RingMatrix([[4, -2], [-3, 1]])
    assert symplectic_transpose(ctx, RingMatrix.identity(2)) == RingMatrix.identity(2)


def test_transpose_involutive_and_antihom():
    rng = random.Random(21)
    ctx = SymplecticContext(2)
    for _ in range(500):
        m = random_matrix(4, rng)
        assert symplectic_transpose(ctx, symplectic_transpose(ctx, m)) == m
    for _ in range(50):
        m, n = random_matrix(4, rng), random_matrix(4, rng)
        assert symplectic_transpose(ctx, m * n) == symplectic_transpose(
            ctx, n
        ) * symplectic_transpose(ctx, m)


def test_transpose_dimension_error():
    with pytest.raises(DimensionError):
        symplectic_transpose(SymplecticContext(2), RingMatrix.identity(2))


def test_pfaffian_2x2_symbolic():
    a = MultiPoly.variable("a")
    m = RingMatrix([[MultiPoly((), {}), a], [-a, MultiPoly((), {})]])
    assert pfaffian(m) == a


def test_pfaffian_of_standard_j():
    assert SymplecticContext(1).form.pfaffian == 1
    ctx = SymplecticContext(2)
    assert pfaffian(ctx.J) == -1
    assert ctx.form.pfaffian == -1
    # sign pattern (-1)^(d(d-1)/2)
    assert [SymplecticContext(d).form.pfaffian for d in (1, 2, 3, 4)] == [1, -1, -1, 1]
    for d in (1, 2, 3, 4):
        assert pfaffian(SymplecticContext(d).J) == SymplecticContext(d).form.pfaffian


def test_pfaffian_matches_leibniz_oracle():
    rng = random.Random(22)
    for n in (2, 4, 6):
        for _ in range(5):
            a = random_alternating(n, rng)
            assert pfaffian(a) == pfaffian_leibniz(a)


def _random_alternating_poly(n, rng):
    """An alternating n x n matrix of random linear polynomials in u and v."""
    u, v = MultiPoly.variable("u"), MultiPoly.variable("v")
    rows = [[MultiPoly((), {})] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.randint(-3, 3) * u + Fraction(rng.randint(-3, 3), 2) * v + rng.randint(-2, 2)
            rows[i][j], rows[j][i] = x, -x
    return RingMatrix(rows)


def test_pfaffian_of_polynomial_entries_matches_leibniz_oracle():
    rng = random.Random(24)
    for n in (2, 4, 6):
        for _ in range(3):
            a = _random_alternating_poly(n, rng)
            assert pfaffian(a) == pfaffian_leibniz(a)


def test_pfaffian_with_an_all_zero_row_is_the_fraction_zero():
    rng = random.Random(25)
    for zero in (0, 3):
        rows = [list(row) for row in random_alternating(6, rng).entries]
        for k in range(6):
            rows[zero][k] = rows[k][zero] = Fraction(0)
        value = pfaffian(RingMatrix(rows))
        assert type(value) is Fraction and value == 0
    rows = [list(row) for row in _random_alternating_poly(4, rng).entries]
    rows[0] = [0] * 4
    for k in range(4):
        rows[k][0] = 0
    value = pfaffian(RingMatrix(rows))
    assert type(value) is Fraction and value == 0


def test_pfaffian_squared_is_det():
    rng = random.Random(23)
    for n in (2, 4, 6, 8):
        for _ in range(10):
            a = random_alternating(n, rng)
            assert pfaffian(a) ** 2 == mat_det(a)


def test_pfaffian_rejects_bad_input():
    with pytest.raises(StructureError):
        pfaffian(RingMatrix.identity(2))
    with pytest.raises(StructureError):
        pfaffian(RingMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))


def test_pfaffian_conjugation_covariance():
    rng = random.Random(24)
    for n in (2, 4, 6):
        for _ in range(10):
            a = random_alternating(n, rng)
            g = random_matrix(n, rng)
            assert pfaffian(g * a * g.transpose()) == mat_det(g) * pfaffian(a)


def test_reduced_pfaffian_normalization_and_diagonal():
    for d in (1, 2, 3, 4):
        ctx = SymplecticContext(d)
        assert reduced_pfaffian(ctx, RingMatrix.identity(2 * d)) == 1
    ctx = SymplecticContext(2)
    m = j_symmetric_diag([3, 5])
    assert reduced_pfaffian(ctx, m) == 15
    # halves differ: not j-symmetric, so M J and (t Id - M) J are not alternating
    for refused in (reduced_pfaffian, pfaffian_char_poly):
        with pytest.raises(StructureError, match="non-alternating"):
            refused(ctx, diag(1, 1, 2, 2))


def test_reduced_pfaffian_squares_to_det():
    rng = random.Random(25)
    for d in (1, 2, 3):
        ctx = SymplecticContext(d)
        for _ in range(10):
            m = random_j_symmetric(ctx, rng)
            assert reduced_pfaffian(ctx, m) ** 2 == mat_det(m)


def test_pfaffian_char_poly_hand_cases():
    t = MultiPoly.variable("t")
    ctx2 = SymplecticContext(2)
    assert pfaffian_char_poly(ctx2, RingMatrix.zeros(4)) == t**2
    ctx1 = SymplecticContext(1)
    assert pfaffian_char_poly(ctx1, j_symmetric_diag([7])) == t - 7
    assert pfaffian_char_poly(ctx2, j_symmetric_diag([1, 2])) == t**2 - 3 * t + 2


def test_pfaffian_char_poly_square_is_char_poly():
    from symplaw.matrices import char_poly

    rng = random.Random(26)
    for d in (1, 2, 3):
        ctx = SymplecticContext(d)
        for _ in range(5):
            m = random_j_symmetric(ctx, rng)
            assert pfaffian_char_poly(ctx, m) ** 2 == char_poly(m)


def test_pfaffian_cayley_hamilton():
    rng = random.Random(27)
    for d in (1, 2, 3):
        ctx = SymplecticContext(d)
        for _ in range(10):
            m = random_j_symmetric(ctx, rng)
            coeffs = pfaffian_coeffs_of_matrix(ctx, m)
            assert matrix_poly_value(coeffs, m).is_zero()


def _power_sum(coeffs, m):
    """sum (-1)^i c_i M^(deg-i), each power taken with ** and each term added in turn."""
    deg = len(coeffs) - 1
    total = RingMatrix.zeros(m.rows)
    for i, c in enumerate(coeffs):
        total = total + (-1) ** i * (m ** (deg - i) * c)
    return total


def _coefficient(rng, u):
    return rng.choice([Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-3, 3),
                       u * rng.randint(-2, 2) + Fraction(1, 2)])


@pytest.mark.parametrize("deg", range(5))
def test_matrix_poly_value_is_the_power_sum(deg):
    rng = random.Random(40 + deg)
    u = MultiPoly.variable("u")
    for _ in range(6):
        rational = random_matrix(3, rng, 3)
        polynomial = RingMatrix([[rng.randint(-2, 2), u * rng.randint(-2, 2), Fraction(1, 2)],
                                 [Fraction(rng.randint(-2, 2), 3), u * u, 1],
                                 [0, rng.randint(-2, 2), u + rng.randint(-2, 2)]])
        for m in (rational, polynomial):
            scalar = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(deg + 1)]
            mixed = [_coefficient(rng, u) for _ in range(deg + 1)]
            for coeffs in (scalar, [1] + scalar[1:], mixed):
                assert matrix_poly_value(coeffs, m) == _power_sum(coeffs, m)
    assert matrix_poly_value([], RingMatrix.identity(2)).is_zero()
    with pytest.raises(DimensionError):
        matrix_poly_value([1, 2], RingMatrix([[1, 2, 3], [4, 5, 6]]))


def test_multiplicative_transfer():
    rng = random.Random(28)
    for d in (1, 2):
        ctx = SymplecticContext(d)
        for _ in range(20):
            m = random_j_symmetric(ctx, rng)
            x = random_matrix(2 * d, rng)
            lhs = reduced_pfaffian(ctx, x * m * symplectic_transpose(ctx, x))
            assert lhs == mat_det(x) * reduced_pfaffian(ctx, m)


def test_sample_symplectic_is_symplectic():
    for d in (1, 2, 3):
        ctx = SymplecticContext(d)
        for seed in range(5):
            s = sample_symplectic(ctx, seed)
            assert s.transpose() * ctx.J * s == ctx.J
            assert similitude(ctx, s) == 1
            if d == 1:
                assert mat_det(s) == 1


def test_sample_symplectic_deterministic():
    ctx = SymplecticContext(2)
    assert sample_symplectic(ctx, 99) == sample_symplectic(ctx, 99)


def test_similitude_values():
    ctx = SymplecticContext(1)
    assert similitude(ctx, diag(2, 3)) == 6
    ctx2 = SymplecticContext(2)
    assert similitude(ctx2, RingMatrix.scalar(4, Fraction(3))) == 9
    g = sample_similitude(ctx2, 5, factor=Fraction(4))
    assert similitude(ctx2, g) == 4
    with pytest.raises(NotASimilitudeError):
        similitude(ctx2, RingMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_j_symmetric_generator_shape():
    rng = random.Random(29)
    for d in (1, 2, 3):
        ctx = SymplecticContext(d)
        for _ in range(10):
            m = random_j_symmetric(ctx, rng)
            assert symplectic_transpose(ctx, m) == m


def _unipotent_factors(ctx, seed):
    """U(S_1), L(T_1), U(S_2), L(T_2) of ``sample_symplectic(ctx, seed)``, from the same draws:
    U(S) = [[Id, S], [0, Id]] and L(T) = [[Id, 0], [T, Id]], their symmetric blocks filled
    upper triangle first, row by row, from one ``choices`` call."""
    d = ctx.d
    draws = iter(random.Random(seed).choices((-3, -2, -1, 1, 2, 3), k=2 * d * (d + 1)))
    factors = []
    for k in range(4):
        rows = [[int(i == j) for j in range(ctx.n)] for i in range(ctx.n)]
        top, left = (0, d) if k % 2 == 0 else (d, 0)  # the block's first row and column
        for i in range(d):
            for j in range(i, d):
                rows[top + i][left + j] = rows[top + j][left + i] = next(draws)
        factors.append(RingMatrix(rows))
    return factors


def test_sample_symplectic_is_the_product_of_its_unipotent_factors():
    for d in (1, 2, 3):
        ctx = SymplecticContext(d)
        for seed in range(8):
            s = sample_symplectic(ctx, seed)
            u1, l1, u2, l2 = _unipotent_factors(ctx, seed)
            assert s == u1 * l1 * u2 * l2
            assert s.cleared()[1] == 1
            assert similitude(ctx, s) == 1


def _sample_pairs(d, count):
    """``count`` pairs of samples drawn as ``suites._sp_pair`` draws them, from one stream."""
    ctx, rng = SymplecticContext(d), random.Random(0)
    return [tuple(sample_symplectic(ctx, rng.getrandbits(64)) for _ in range(2)) for _ in range(count)]


def _scalar_or_unipotent(s):
    ident = RingMatrix.identity(s.rows)
    return s in (ident, -ident) or ((s - ident) ** s.rows).is_zero()


@pytest.mark.parametrize(("d", "count"), [(2, 1000), (3, 300)])
def test_samples_are_neither_scalar_nor_unipotent_and_pairs_do_not_commute(d, count):
    """The suites test identities on such pairs, which a scalar or unipotent sample, or a
    commuting pair, can satisfy by accident.  Over the first 2000 pairs at d = 2, one sample
    in 4000 was unipotent (pair 1971, U(S_1 + S_2) as T_1 S_2 = 0 and T_2 = -T_1) and no pair
    commuted."""
    for a, b in _sample_pairs(d, count):
        assert not _scalar_or_unipotent(a) and not _scalar_or_unipotent(b)
        assert a * b != b * a


def test_few_samples_at_d1_are_scalar_or_unipotent_and_few_pairs_commute():
    """At d = 1, in SL_2(Z), short products of unipotents are often unipotent or commute with
    each other, so both shares are bounded: at most 4 % and 1 % over 2000 pairs."""
    pairs = _sample_pairs(1, 2000)
    special = sum(_scalar_or_unipotent(s) for pair in pairs for s in pair)
    commuting = sum(a * b == b * a for a, b in pairs)
    assert special <= 0.04 * 2 * len(pairs) and commuting <= 0.01 * len(pairs), (special, commuting)


# -- the samplers, against the Fraction-built construction they replace -------


def _ref_ratio(rng, magnitude):
    return Fraction(rng.randint(-magnitude, magnitude), rng.choice((1, 2)))


def _ref_random_matrix(n, rng, magnitude=5):
    return RingMatrix([[_ref_ratio(rng, magnitude) for _ in range(n)] for _ in range(n)])


def _ref_alternating(n, rng, magnitude):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = _ref_ratio(rng, magnitude)
            rows[i][j] = x
            rows[j][i] = -x
    return rows


def _ref_j_symmetric(d, rng, magnitude):
    a = [[_ref_ratio(rng, magnitude) for _ in range(d)] for _ in range(d)]
    b = _ref_alternating(d, rng, magnitude)
    c = _ref_alternating(d, rng, magnitude)
    return RingMatrix([a[i] + b[i] for i in range(d)]
                      + [c[i] + [a[j][i] for j in range(d)] for i in range(d)])


_SAMPLERS = {
    "random_matrix": (lambda n, rng: random_matrix(n, rng),
                      lambda n, rng: _ref_random_matrix(n, rng)),
    "random_matrix_3": (lambda n, rng: random_matrix(n, rng, 3),
                        lambda n, rng: _ref_random_matrix(n, rng, 3)),
    "random_alternating": (random_alternating,
                           lambda n, rng: RingMatrix(_ref_alternating(n, rng, 5))),
    "random_j_symmetric": (lambda n, rng: random_j_symmetric(SymplecticContext(n // 2), rng, 3),
                           lambda n, rng: _ref_j_symmetric(n // 2, rng, 3)),
}


@pytest.mark.parametrize("name", sorted(_SAMPLERS))
def test_samplers_match_the_fraction_built_reference(name):
    sampler, reference = _SAMPLERS[name]
    for n in (2, 4, 12):
        for seed in range(20):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            m, expected = sampler(n, rng), reference(n, ref_rng)
            assert m == expected and m.cleared() == expected.cleared()
            assert m.entries == expected.entries
            assert rng.random() == ref_rng.random()  # the same draws, in the same order


def test_a_declared_but_unused_variable_is_no_clash_for_the_pfaffian_char_poly():
    """diag(u, u) with u declared over (t, u): no entry uses t, so t is free for both
    characteristic polynomials, and it is the variable that ``pfaffian_char_poly`` picks."""
    t, u = MultiPoly.variable("t"), MultiPoly(("t", "u"), {(0, 1): 1})
    m = RingMatrix.scalar(2, u)
    ctx = SymplecticContext(1)
    assert char_poly(m, "t") == (t - u) ** 2
    assert pfaffian_char_poly(ctx, m, "t") == t - u
    picked = pfaffian_char_poly(ctx, m)
    assert picked == t - u and picked.used_vars == ("t", "u")
