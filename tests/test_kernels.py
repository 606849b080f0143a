"""Cross-checks of the fast kernels against their dense definitions.

char_poly (Berkowitz) against the cofactor determinant of tI - M, the
signed-permutation symplectic transpose and GMA involution against the
products with J and J_delta, the memoized Lambda-vector behind
eval_invariant against a fresh computation, and the integer kernels for
rational matrices (product, inverse, determinant, Pfaffian, char_poly,
rank) against plain Fraction references kept in this file.
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
from symplaw.matrices import (
    RingMatrix,
    _det_bareiss,
    _det_cofactor,
    char_poly,
    mat_det,
    matrix_rank,
)
from symplaw.multipoly import MultiPoly
from symplaw.symplectic import (
    SymplecticContext,
    pfaffian,
    random_alternating,
    random_matrix,
    symplectic_transpose,
)

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


# -- integer kernels for rational matrices -----------------------------------


def fraction_product(a, b):
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0)) for j in range(b.cols)]
            for i in range(a.rows)]


def fraction_echelon(rows):
    """(rank, det of the square part): Gaussian elimination over Fraction with row swaps."""
    work = [[Fraction(x) for x in r] for r in rows]
    rank, det, col = 0, Fraction(1), 0
    ncols = len(work[0]) if work else 0
    while rank < len(work) and col < ncols:
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            det, col = Fraction(0), col + 1
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            det = -det
        pv = work[rank][col]
        det *= pv
        for r in range(rank + 1, len(work)):
            f = work[r][col] / pv
            work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank, col = rank + 1, col + 1
    return rank, (det if rank == len(work) else Fraction(0))


def fraction_det(m):
    return fraction_echelon(m.entries)[1]


def _mixed(rng, n, dens=(1, 2, 97)):
    return RingMatrix(
        [[Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(n)] for _ in range(n)]
    )


def _singular(rng, n):
    """Last row the sum of the first two (or zero at n = 1)."""
    rows = [list(r) for r in _mixed(rng, n).entries]
    rows[-1] = [a + b for a, b in zip(rows[0], rows[1])] if n > 1 else [Fraction(0)]
    return RingMatrix(rows)


def _zero_first_pivot(rng, n):
    """A[0][0] = 0, so every elimination swaps rows at the first step."""
    rows = [list(r) for r in _mixed(rng, n).entries]
    rows[0][0] = Fraction(0)
    rows[1][0] = Fraction(3, 97)
    return RingMatrix(rows)


def _kernel_inputs():
    rng = random.Random(31)
    for n in (1, 2, 3, 4, 7, 12):
        yield f"integer n={n}", _mixed(rng, n, dens=(1,))
        yield f"mixed n={n}", _mixed(rng, n)
        yield f"zero n={n}", RingMatrix.zeros(n)
        yield f"singular n={n}", _singular(rng, n)
        if n > 1:
            yield f"zero pivot n={n}", _zero_first_pivot(rng, n)


KERNEL_INPUTS = list(_kernel_inputs())


def with_polynomial_entry(m):
    """m with its first entry as a constant MultiPoly: equal values, generic path."""
    rows = [list(r) for r in m.entries]
    rows[0][0] = MultiPoly.constant(rows[0][0])
    return RingMatrix(rows)


def _all_fractions(x):
    entries = x.entries if isinstance(x, RingMatrix) else [[x]]
    return all(type(e) is Fraction for row in entries for e in row)


@pytest.mark.parametrize(("label", "m"), KERNEL_INPUTS, ids=[k for k, _ in KERNEL_INPUTS])
def test_integer_kernels_match_fraction_references(label, m):
    n = m.rows
    other = _mixed(random.Random(n), n)
    for a, b in ((m, other), (other, m), (m, m)):
        prod = a * b
        assert prod.entries == tuple(map(tuple, fraction_product(a, b)))
        assert _all_fractions(prod)
    det = fraction_det(m)
    for value in (mat_det(m), _det_cofactor(m), _det_bareiss(m)):
        assert value == det and _all_fractions(value)
    assert matrix_rank(m.entries) == fraction_echelon(m.entries)[0]
    p = char_poly(m)
    assert p == char_poly(with_polynomial_entry(m))
    if n <= 7:  # the MultiPoly cofactor DP takes about a second at n = 12
        assert p == cofactor_char_poly(m)
    assert all(type(c) is Fraction for c in p.terms.values())
    assert p.coefficient({"t": 0}) == (-1) ** n * det
    if det == 0:
        with pytest.raises(ZeroDivisionError, match="singular matrix"):
            m.inverse()
    else:
        inv = m.inverse()
        assert _all_fractions(inv)
        assert m * inv == inv * m == RingMatrix.identity(n)


def test_integer_pfaffian_squares_to_fraction_det():
    rng = random.Random(32)
    for n in (2, 4, 6, 12):
        for dens in ((1,), (2,), (1, 2, 97)):
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = Fraction(rng.randint(-5, 5), rng.choice(dens))
                    rows[j][i] = -rows[i][j]
            a = RingMatrix(rows)
            pf = pfaffian(a)
            assert type(pf) is Fraction
            assert pf * pf == fraction_det(a)
    zero = pfaffian(RingMatrix.zeros(4))
    assert zero == 0 and type(zero) is Fraction


def test_integer_rank_of_rows():
    rows = [[Fraction(1, 2), Fraction(1, 97), 0], [1, Fraction(2, 97), 0], [0, 0, Fraction(5, 3)]]
    assert matrix_rank(rows) == fraction_echelon(rows)[0] == 2
    assert matrix_rank([]) == 0
    assert matrix_rank([[], []]) == 0
    rng = random.Random(33)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2, 97))) for _ in range(5)]
                for _ in range(rng.randint(1, 7))]
        assert matrix_rank(rows) == fraction_echelon(rows)[0]


def test_mixed_fraction_and_multipoly_entries_take_the_generic_path():
    rng = random.Random(34)
    x = MultiPoly.variable("x")
    for n in (2, 4, 7):
        m = _mixed(rng, n)
        mixed = with_polynomial_entry(m)
        assert not mixed.all_rational()
        other = _mixed(rng, n)
        assert mixed * other == m * other and other * mixed == other * m
        assert mat_det(mixed) == mat_det(m)
        assert char_poly(mixed) == char_poly(m)
        # a genuine polynomial entry: the cofactor DP over the entries
        rows = [list(r) for r in m.entries]
        rows[0][0] = x
        poly = RingMatrix(rows)
        assert mat_det(poly) == _det_cofactor(poly) == cofactor_det_in_first_entry(m, x)
        alt = random_alternating(2 * n, rng)
        alt_rows = [list(r) for r in alt.entries]
        alt_rows[0][1], alt_rows[1][0] = x, -x
        pf = pfaffian(RingMatrix(alt_rows))
        assert isinstance(pf, MultiPoly)
        assert pf * pf == mat_det(RingMatrix(alt_rows))


def cofactor_det_in_first_entry(m, x):
    """det with x in place of m[0, 0]: det(m) + (x - m[0, 0]) * minor(0, 0), by linearity."""
    n = m.rows
    if n == 1:
        return x
    minor = RingMatrix([row[1:] for row in m.entries[1:]])
    return fraction_det(m) + (x - m[0, 0]) * fraction_det(minor)
