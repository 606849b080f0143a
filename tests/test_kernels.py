"""Cross-checks of the fast kernels against their dense definitions.

char_poly (Berkowitz, and closed forms on rational 2 x 2 and 4 x 4 matrices)
and lambdas_of_matrix, with and without a quotient ring's reducing dot,
against the cofactor determinant of tI - M, the signed-permutation
symplectic transpose against the block formula and the right product with J
against the product, the Lambda-vector memo of eval_invariant against a
fresh computation, the integer kernels for rational matrices (product,
inverse, determinant, Pfaffian, char_poly, rank) against Fraction
references, the packed integer product against the plain one and the
Fraction reference on both sides of its size threshold, the closed-form
characteristic coefficients at n = 2 and 4 against Berkowitz and the
closed-form products by a 2 x 2 or 4 x 4 B against the inner products and
the Fraction reference, with both sides of each size switch run by
``suite all``, char_poly's Horner rule from the monic start against the unit
start and the literal sum, a table of kernel switches whose every side
``suite all`` runs, the cleared form (B, delta) every rational matrix keeps,
the skew elimination behind rational Pfaffians against the expansion, the
similitude against the scalar of M^j M, and the memoized word images of a
representation and the prefix memo of word_value against plain products.

The Fraction product, determinant and symplectic transpose are the
benchmark's, from ``bench/exact.py`` through the ``exact`` fixture of
``conftest.py``; the rank and the Pfaffian references are kept in this file.
"""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain, permutations, product
from math import gcd
from operator import mul

import pytest

from symplaw import invariants, matrices, symplectic
from symplaw.cli import main
from symplaw.detlaws import InvolutiveRepresentation
from symplaw.errors import ArityError, GeneratorError, NotASimilitudeError, VariableError
from symplaw.gma import (
    counterexample_fixture,
    random_gma_element,
    random_symmetric_gma_element,
    standard_fixture,
)
from symplaw.invariants import (
    InvariantFunction,
    TraceWord,
    check_invariance,
    enumerate_trace_words,
    eval_invariant,
    word_value,
)
from symplaw.matrices import (
    RingMatrix,
    _berkowitz,
    _cofactor_expansion,
    _det_bareiss,
    _integer_char_coeffs,
    _integer_product,
    _integer_rows,
    _product,
    _sum_of_products,
    char_poly,
    lambdas_of_matrix,
    mat_det,
    matrix_rank,
)
from symplaw.multipoly import MultiPoly
from symplaw.symplectic import (
    SignedPermutation,
    SymplecticContext,
    _pfaffian_elimination,
    _pfaffian_expansion,
    pfaffian,
    random_alternating,
    random_j_symmetric,
    random_matrix,
    reduced_pfaffian,
    sample_similitude,
    sample_symplectic,
    similitude,
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
    return _cofactor_expansion(shifted.entries)


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


def cofactor_lambdas(m):
    """(L_0..L_n) read off ``cofactor_char_poly``, bucket by bucket in t: no Berkowitz step."""
    buckets = cofactor_char_poly(m).coefficients_in("t")
    return tuple((-1) ** i * buckets.get(m.rows - i, 0) for i in range(m.rows + 1))


def assert_lambdas_match(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e
        constant = not isinstance(e, MultiPoly) or e.is_constant()
        assert type(g) is (Fraction if constant else MultiPoly), (g, e)


def _mixed_poly_matrix(rng, n, variables):
    """An n x n matrix of rational and MultiPoly entries, denominators mixed from 1, 2, 3 and 97."""
    def coef():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 97)))

    def entry():
        if rng.random() < 0.4:
            return coef()
        return MultiPoly(variables, {tuple(rng.randint(0, 2) for _ in variables): coef()
                                     for _ in range(rng.randint(1, 3))})

    return RingMatrix([[entry() for _ in range(n)] for _ in range(n)])


def test_lambdas_of_a_polynomial_matrix_match_the_cofactor_reference():
    rng = random.Random(35)
    for variables in (("a",), ("a", "b"), ("a", "b", "c")):
        for n in range(1, 6):
            for _ in range(3):
                m = _mixed_poly_matrix(rng, n, variables)
                assert_lambdas_match(lambdas_of_matrix(m), cofactor_lambdas(m))


@pytest.mark.parametrize("fixture", FIXTURES)
def test_lambdas_of_gma_elements_match_the_cofactor_reference(fixture):
    spec = fixture()
    ring = spec.ring
    rng = random.Random(36)
    for _ in range(6):
        for m in (random_gma_element(spec, rng), random_symmetric_gma_element(spec, rng)):
            expected = cofactor_lambdas(m)
            assert_lambdas_match(lambdas_of_matrix(m), expected)
            assert_lambdas_match(lambdas_of_matrix(m, ring.dot), tuple(map(ring.reduce, expected)))


def test_symplectic_transpose_matches_dense_rational(exact):
    rng = random.Random(24)
    for d in range(1, 7):
        ctx = SymplecticContext(d)
        for _ in range(3):
            m = random_matrix(2 * d, rng)
            assert symplectic_transpose(ctx, m) == RingMatrix(exact.sp_transpose(m.entries))


def _random_poly_matrix(n, rng):
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    return RingMatrix(
        [[Fraction(rng.randint(-3, 3)) * x + Fraction(rng.randint(-3, 3)) * y * y
          + Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    )


def test_symplectic_transpose_matches_dense_polynomial(exact):
    rng = random.Random(25)
    for d in range(1, 7):
        ctx = SymplecticContext(d)
        m = _random_poly_matrix(2 * d, rng)
        assert symplectic_transpose(ctx, m) == RingMatrix(exact.sp_transpose(m.entries))


def test_right_product_matches_the_dense_product_with_j():
    rng = random.Random(29)
    for d in range(1, 7):
        ctx = SymplecticContext(d)
        for m in (random_matrix(2 * d, rng), _random_poly_matrix(2 * d, rng)):
            assert ctx.form.right_product(m) == m * RingMatrix(_integer_j(d))


def word_lambdas(word, mats):
    """(L_0..L_2d) of the word value formed afresh: sigma_i(word) at mats is entry i."""
    return lambdas_of_matrix(word_value(word, mats, SymplecticContext(mats[0].rows // 2)))


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
    lambdas = {}  # one memo through every call below
    for d in (1, 2):
        n = 2 * d
        fs = [InvariantFunction.sigma(i, w, arity=2) for i in range(1, n + 1)]
        base = [random_matrix(n, rng, 3) for _ in range(2)]
        copies = [RingMatrix(m.entries) for m in base]  # equal values, new objects
        other = [random_matrix(n, rng, 3) for _ in range(2)]
        expected = {id(base): word_lambdas(w, base), id(other): word_lambdas(w, other)}
        expected[id(copies)] = expected[id(base)]
        for f in fs:
            for mats in (base, other):
                assert eval_invariant(f, mats, lambdas) == expected[id(mats)][f.sigma_index]
        size = len(lambdas)
        for f in fs:
            for mats in (base, other, copies, base, other):
                assert eval_invariant(f, mats, lambdas) == expected[id(mats)][f.sigma_index]
        assert len(lambdas) == size  # the copies are found by value
        # Temporaries built from ready entries, so that CPython hands a new
        # matrix the memory, and so the id, of one just freed: a memo keyed on
        # ids alone would answer with the values of the freed matrices.
        tuples = [[random_matrix(n, rng, 3).entries for _ in range(2)] for _ in range(20)]
        for k, rows in enumerate(tuples):
            f = fs[k % n]
            got = eval_invariant(f, [RingMatrix(r) for r in rows], lambdas)
            assert got == word_lambdas(w, [RingMatrix(r) for r in rows])[f.sigma_index]
        # a polynomial entry leaves no cleared form to key on, so the memo is bypassed
        size = len(lambdas)
        rows = [list(row) for row in base[0].entries]
        rows[0][0] += MultiPoly.variable("u")
        poly = [RingMatrix(rows), base[1]]
        for f in fs:
            assert eval_invariant(f, poly, lambdas) == word_lambdas(w, poly)[f.sigma_index]
        assert len(lambdas) == size


def _plain_word_value(word, mats, ctx):
    """The letter images of a trace word multiplied left to right, with no memo."""
    images = [symplectic_transpose(ctx, mats[i - 1]) if s else mats[i - 1] for i, s in word.letters]
    value = images[0]
    for m in images[1:]:
        value = value * m
    return value


@pytest.mark.parametrize("d", [1, 2])
def test_a_shared_prefix_memo_gives_the_fresh_word_value(d):
    ctx = SymplecticContext(d)
    rng = random.Random(29)
    mats = [random_matrix(2 * d, rng, 3) for _ in range(2)]
    words = enumerate_trace_words(2, 3)
    rng.shuffle(words)  # prefixes come both before and after the words that extend them
    shared = {}
    for w in words + words[:5]:
        got = word_value(w, mats, ctx, shared)
        assert got == word_value(w, mats, ctx) == _plain_word_value(w, mats, ctx), w
        assert shared[w.letters] is got
    # one image per letter and per prefix of a word, nothing else
    letters = {(letter,) for w in words for letter in w.letters}
    assert set(shared) == letters | {w.letters[:k] for w in words for k in range(1, len(w) + 1)}


def test_word_value_with_a_shared_memo_still_checks_the_arity():
    ctx = SymplecticContext(1)
    mats = [random_matrix(2, random.Random(30), 3) for _ in range(2)]
    shared = {}
    both = TraceWord(((1, False), (2, True)))
    word_value(both, mats, ctx, shared)
    for w in (both, TraceWord(((2, True),)), TraceWord(((1, False), (3, False)))):
        with pytest.raises(ArityError):  # the memo holds X_2* and the whole word, not X_3
            word_value(w, mats[:1], ctx, shared)


def test_check_invariance_forms_each_letter_and_prefix_once_per_tuple(monkeypatch):
    products, transposes = [], []
    real_mul, real_transpose = RingMatrix.__mul__, invariants.symplectic_transpose

    def counting_mul(self, other):
        products.append(1)
        return real_mul(self, other)

    def counting_transpose(ctx, m):
        transposes.append(1)
        return real_transpose(ctx, m)

    for d in (1, 2):
        ctx = SymplecticContext(d)
        g = sample_symplectic(ctx, 31)
        mats = [random_matrix(2 * d, random.Random(32), 3) for _ in range(2)]
        fs = [InvariantFunction.sigma(i, w, arity=2)
              for w in enumerate_trace_words(2, 3) for i in range(1, 2 * d + 1)]
        with monkeypatch.context() as patch:
            patch.setattr(RingMatrix, "__mul__", counting_mul)
            patch.setattr(invariants, "symplectic_transpose", counting_transpose)
            products.clear(), transposes.clear()
            assert check_invariance(fs, mats, g) is None
        # g X g^-1 of two arguments takes 4 products; then on each of the two tuples the 20
        # words take 18 products, one per prefix of two or more letters, and X_1*, X_2* once
        assert (len(products), len(transposes)) == (4 + 2 * 18, 2 * 2)


# -- integer kernels for rational matrices -----------------------------------


def fraction_rank(rows):
    """Rank by Gaussian elimination over Fraction with row swaps."""
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, len(work)):
            f = work[r][col] / work[rank][col]
            work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


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


def _permuted_diagonal(rng, perm):
    """P D, for P with ones at (i, perm[i]) and D a random rational diagonal matrix.

    Most entries above each pivot are 0, and odd permutations swap rows an odd
    number of times in elimination.
    """
    n = len(perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 97)))
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
    for n in (3, 4):
        for perm in permutations(range(n)):
            yield f"permuted diagonal {''.join(map(str, perm))}", _permuted_diagonal(rng, perm)


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
def test_integer_kernels_match_fraction_references(exact, label, m):
    n = m.rows
    other = _mixed(random.Random(n), n)
    for a, b in ((m, other), (other, m), (m, m)):
        prod = a * b
        assert prod.entries == tuple(map(tuple, exact.mat_mul(a.entries, b.entries)))
        assert _all_fractions(prod)
    det = exact.det(m.entries)
    for value in (mat_det(m), _det_bareiss(m)):
        assert value == det and _all_fractions(value)
    assert _cofactor_expansion(m.entries) == det
    assert matrix_rank(m.entries) == fraction_rank(m.entries)
    p = char_poly(m)
    assert p == char_poly(with_polynomial_entry(m))
    if n <= 7:  # the MultiPoly cofactor DP takes about a second at n = 12
        assert p == cofactor_char_poly(m)
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values())
    assert p.coefficient({"t": 0}) == (-1) ** n * det
    if det == 0:
        with pytest.raises(ZeroDivisionError, match="singular matrix"):
            m.inverse()
    else:
        inv = m.inverse()
        assert _all_fractions(inv)
        assert m * inv == inv * m == RingMatrix.identity(n)


def test_integer_pfaffian_squares_to_fraction_det(exact):
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
            assert pf * pf == exact.det(a.entries)
    zero = pfaffian(RingMatrix.zeros(4))
    assert zero == 0 and type(zero) is Fraction


def test_integer_rank_of_rows():
    rows = [[Fraction(1, 2), Fraction(1, 97), 0], [1, Fraction(2, 97), 0], [0, 0, Fraction(5, 3)]]
    assert matrix_rank(rows) == fraction_rank(rows) == 2
    assert matrix_rank([]) == 0
    assert matrix_rank([[], []]) == 0
    rng = random.Random(33)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2, 97))) for _ in range(5)]
                for _ in range(rng.randint(1, 7))]
        assert matrix_rank(rows) == fraction_rank(rows)


def test_mixed_fraction_and_multipoly_entries_take_the_generic_path(exact):
    rng = random.Random(34)
    x = MultiPoly.variable("x")
    for n in (2, 4, 7):
        m = _mixed(rng, n)
        mixed = with_polynomial_entry(m)
        assert mixed.cleared() is None
        other = _mixed(rng, n)
        assert mixed * other == m * other and other * mixed == other * m
        assert mat_det(mixed) == mat_det(m)
        assert char_poly(mixed) == char_poly(m)
        # a genuine polynomial entry: the cofactor DP over the entries
        rows = [list(r) for r in m.entries]
        rows[0][0] = x
        poly = RingMatrix(rows)
        # det is linear in the entry (0, 0), with the minor of row and column 0 as its slope
        minor = [row[1:] for row in m.entries[1:]]
        by_linearity = exact.det(m.entries) + (x - m[0, 0]) * exact.det(minor)
        assert mat_det(poly) == _cofactor_expansion(poly.entries) == by_linearity
        alt = random_alternating(2 * n, rng)
        alt_rows = [list(r) for r in alt.entries]
        alt_rows[0][1], alt_rows[1][0] = x, -x
        pf = pfaffian(RingMatrix(alt_rows))
        assert isinstance(pf, MultiPoly)
        assert pf * pf == mat_det(RingMatrix(alt_rows))


# -- the cleared form of rational matrices -------------------------------------


def assert_normalized(m):
    """m keeps (B, delta) with delta > 0, gcd(delta, content of B) = 1, and B / delta = m."""
    b, den = m.cleared()
    assert den > 0 and gcd(den, *chain.from_iterable(b)) == 1
    assert all(type(x) is int for x in chain.from_iterable(b))
    assert (m.rows, m.cols) == (len(b), len(b[0]))
    # lcm-clearing of the entries gives the same pair, so it is the one normalized form
    assert _integer_rows([[x.as_integer_ratio() for x in row] for row in m.entries]) == (b, den)


def entries_unset(m):
    """True while a matrix built by the cleared kernels has not made its Fraction entries."""
    try:
        RingMatrix.__dict__["entries"].__get__(m)
    except AttributeError:
        return True
    return False


def naive_rows(rows):
    return [list(r) for r in rows]


def naive_pfaffian(rows):
    """Expansion along the first row over Fraction entries."""
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for k in range(1, len(rows)):
        rest = [i for i in range(1, len(rows)) if i != k]
        minor = [[rows[i][j] for j in rest] for i in rest]
        total += (-1) ** (k - 1) * rows[0][k] * naive_pfaffian(minor)
    return total


def _cleared_inputs():
    rng = random.Random(41)
    for d in (1, 2, 3):
        n = 2 * d
        yield f"integer 2d={n}", _mixed(rng, n, dens=(1,))
        yield f"mixed 2d={n}", _mixed(rng, n)
        yield f"halves 2d={n}", _mixed(rng, n, dens=(2,))
        yield f"zero 2d={n}", RingMatrix.zeros(n)
        yield f"singular 2d={n}", _singular(rng, n)


CLEARED_INPUTS = list(_cleared_inputs())


@pytest.mark.parametrize(("label", "m"), CLEARED_INPUTS, ids=[k for k, _ in CLEARED_INPUTS])
def test_cleared_kernels_stay_normalized_and_match_fractions(exact, label, m):
    n = m.rows
    ctx = SymplecticContext(n // 2)
    other = _mixed(random.Random(n), n)
    a, b = naive_rows(m.entries), naive_rows(other.entries)
    results = [
        (m * other, exact.mat_mul(a, b)),
        (other * m, exact.mat_mul(b, a)),
        (m + other, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]),
        (m - other, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]),
        (m + m, [[2 * x for x in r] for r in a]),
        (-m, [[-x for x in r] for r in a]),
        (m.transpose(), list(zip(*a))),
        (symplectic_transpose(ctx, m), exact.sp_transpose(a)),
        (RingMatrix.scalar(n, Fraction(-3, 4)),
         [[Fraction(-3, 4) if i == j else 0 for j in range(n)] for i in range(n)]),
        (RingMatrix.identity(n), [[int(i == j) for j in range(n)] for i in range(n)]),
    ]
    for c in (0, 3, -1, Fraction(-2, 3), Fraction(97, 2)):
        results.append((m * c, [[x * c for x in r] for r in a]))
        results.append((c * m, [[c * x for x in r] for r in a]))
    det = exact.det(a)
    if det:
        inv = m.inverse()
        assert exact.mat_mul(a, inv.entries) == exact.identity(n)
        results.append((inv, naive_rows(inv.entries)))
    for got, want in results:
        assert_normalized(got)
        assert got.entries == tuple(map(tuple, want)), label
        assert _all_fractions(got)
    assert m.trace() == sum((a[i][i] for i in range(n)), Fraction(0))
    assert mat_det(m) == det
    assert char_poly(m) == char_poly(with_polynomial_entry(m)) == cofactor_char_poly(m)
    alt = m - m.transpose()
    assert pfaffian(alt) == naive_pfaffian(naive_rows(alt.entries))
    assert (m == other) == (a == b) and m == RingMatrix(a)


def test_cleared_results_make_entries_only_when_read():
    rng = random.Random(42)
    a, b = _mixed(rng, 4), _mixed(rng, 4)
    ctx = SymplecticContext(2)
    results = [a * b, a + b, -a, a * Fraction(1, 3), a.transpose(), symplectic_transpose(ctx, a),
               a.inverse(), RingMatrix.identity(4), RingMatrix.zeros(4)]
    kernels = (RingMatrix.trace, RingMatrix.is_zero, mat_det, char_poly, lambda x: x == a,
               lambda x: pfaffian(x - x.transpose()))
    for m in results:
        assert entries_unset(m)
        for kernel in kernels:
            kernel(m)
        assert entries_unset(m)
        b, den = m.cleared()
        assert m[0, 0] == Fraction(b[0][0], den)
        assert not entries_unset(m)


def test_cleared_and_fraction_built_matrices_are_equal_and_hash_equal():
    rng = random.Random(43)
    for _ in range(20):
        m = _mixed(rng, 3)
        b, den = m.cleared()
        k = rng.randint(2, 6)
        # (k B, k delta) is the same matrix, reduced to the same form
        scaled = RingMatrix._cleared([[k * x for x in row] for row in b], k * den)
        assert scaled.cleared() == (b, den)
        from_fractions = RingMatrix(naive_rows(m.entries))
        for x, y in ((scaled, m), (scaled, from_fractions), (m * RingMatrix.identity(3), m)):
            assert x == y and y == x and hash(x) == hash(y)
        if not m.is_zero():
            assert RingMatrix._cleared(b, 2 * den) == m * Fraction(1, 2) != m
    zero = RingMatrix._cleared([[0, 0], [0, 0]], 7)
    assert zero.cleared() == (((0, 0), (0, 0)), 1) and zero == RingMatrix.zeros(2)


# -- the packed integer product ---------------------------------------------------


def _packed_inputs():
    """(label, A, B) integer rows at 2d = 8, 10, 12, 16, and non-square shapes around them."""
    rng = random.Random(44)

    def signed(rows, cols, bits):
        return [[rng.randint(-(1 << bits), 1 << bits) for _ in range(cols)] for _ in range(rows)]

    for d in (4, 5, 6, 8):
        n = 2 * d
        ctx = SymplecticContext(d)
        s1, s2 = sample_symplectic(ctx, 1), sample_symplectic(ctx, 2)
        s12 = s1 * s2
        yield f"Sp samples n={n}", s1.cleared()[0], s2.cleared()[0]
        yield f"Sp sample products n={n}", s12.cleared()[0], (s12 * s1).cleared()[0]
        for bits in (1, 64, 3000):
            yield f"signed {bits} bits n={n}", signed(n, n, bits), signed(n, n, bits)
        zero_rows = signed(n, n, 8)
        zero_rows[0] = zero_rows[n // 2] = [0] * n
        yield f"zero rows n={n}", zero_rows, signed(n, n, 8)
        yield f"zero left n={n}", [[0] * n] * n, signed(n, n, 8)
        yield f"zero right n={n}", signed(n, n, 8), [[0] * n] * n
        for k in (0, 1, 7, 63, 3000):  # every c_ij = n 2^(2k), at the width bound
            yield f"-2^{k} n={n}", [[-(1 << k)] * n] * n, [[-(1 << k)] * n] * n
        yield f"1x{n} {n}x1", signed(1, n, 70), signed(n, 1, 70)
        yield f"{n}x1 1x{n}", signed(n, 1, 70), signed(1, n, 70)
        yield f"3x{n} {n}x{n + 5}", signed(3, n, 40), signed(n, n + 5, 40)
        yield f"{n}x7 7x{n - 1}", signed(n, 7, 2), signed(7, n - 1, 2)
    # 6 + 6 bits of entries and 3 of the inner dimension 7 fit two bytes, with every
    # c_ij = -7 * 63^2 at 0.85 of 2^15; with the inner dimension 15 they need three bytes
    yield "63 * -63 in 16-bit fields", [[63] * 7] * 12, [[-63] * 12] * 7
    yield "63 * 63 in 24-bit fields", [[63] * 15] * 12, [[63] * 12] * 15


PACKED_INPUTS = list(_packed_inputs())


@pytest.mark.parametrize(("label", "a", "b"), PACKED_INPUTS, ids=[k for k, *_ in PACKED_INPUTS])
def test_packed_integer_product_matches_the_plain_and_fraction_products(monkeypatch, exact, label,
                                                                       a, b):
    want = [tuple(row) for row in _product(a, b)]
    assert (RingMatrix(a) * RingMatrix(b)).entries == tuple(map(tuple, exact.mat_mul(a, b)))
    assert _integer_product(a, b) == want  # the route the size picks
    monkeypatch.setattr(matrices, "_PACKED_MIN_COLS", 1)
    assert _integer_product(a, b) == want  # the packed route at every size


def test_the_packed_route_is_chosen_by_the_column_count(monkeypatch):
    plain = []
    monkeypatch.setattr(matrices, "_product", lambda a, b: plain.append(len(b[0])) or _product(a, b))
    rng = random.Random(45)
    for cols in (1, 9, 10, 12):
        a = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        b = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(4)]
        assert RingMatrix(a) * RingMatrix(b) == RingMatrix(_product(a, b))
    assert plain == [1, 9]


# -- closed-form characteristic coefficients -------------------------------------------


def _closed_form_inputs():
    """(label, integer rows) at n = 2 and 4: signed entries of 1, 64 and 3000 bits, a zero row,
    and the zero and identity matrices."""
    rng = random.Random(50)

    def signed(n, bits):
        return [[rng.randint(-(1 << bits), 1 << bits) for _ in range(n)] for _ in range(n)]

    for n in (2, 4):
        for bits in (1, 64, 3000):
            for k in range(4):
                yield f"signed {bits} bits n={n} #{k}", signed(n, bits)
        zero_row = signed(n, 64)
        zero_row[n - 1] = [0] * n
        yield f"zero row n={n}", zero_row
        yield f"zero n={n}", [[0] * n] * n
        yield f"identity n={n}", [[int(i == j) for j in range(n)] for i in range(n)]


CLOSED_FORM_INPUTS = list(_closed_form_inputs())


@pytest.mark.parametrize(("label", "a"), CLOSED_FORM_INPUTS, ids=[k for k, _ in CLOSED_FORM_INPUTS])
def test_closed_form_coefficients_match_berkowitz(label, a):
    a = tuple(map(tuple, a))
    got = _integer_char_coeffs(a)
    assert got == _berkowitz(a, _sum_of_products)
    assert all(type(c) is int for c in got)


def test_both_sides_of_the_closed_form_switch_run_in_suite_all(monkeypatch, capsys):
    """Over ``suite all --d 2`` at default trials the closed forms run at n = 2 and 4, and
    Berkowitz runs on integer rows at n = 8, through det-law's ``d4_closed_forms`` input."""
    closed, berkowitz = Counter(), Counter()
    real_closed, real_berkowitz = matrices._integer_char_coeffs, matrices._berkowitz

    def counted_closed(a):
        closed[len(a)] += 1
        return real_closed(a)

    def counted_berkowitz(a, dot=matrices._dot):
        berkowitz[len(a)] += dot is _sum_of_products  # the integer rows' inner product
        return real_berkowitz(a, dot)

    monkeypatch.setattr(matrices, "_integer_char_coeffs", counted_closed)
    monkeypatch.setattr(matrices, "_berkowitz", counted_berkowitz)
    assert main(["suite", "all", "--d", "2"]) == 0
    capsys.readouterr()
    assert sorted(closed) == [2, 4, 8] and closed[2] > 0 and closed[4] > 0
    assert {n: c for n, c in berkowitz.items() if c} == {8: closed[8]}


# -- Horner's rule from the monic start ----------------------------------------------------


def _horner_inputs():
    """(label, matrix) at n = 1..6: signed integer entries of 1 and 64 bits at delta = 1 and at a
    delta > 1, I / 2 (some c_k / delta^k integral), the zero matrix, a strictly upper triangular
    (nilpotent) one at delta = 1 and at delta > 1, and MultiPoly entries mixed with rationals."""
    rng = random.Random(56)

    def signed(n, bits, den=1):
        return RingMatrix([[Fraction(rng.randint(-(1 << bits), 1 << bits), den) for _ in range(n)]
                           for _ in range(n)])

    def upper(n, den):
        return RingMatrix([[Fraction(rng.randint(1, 1 << 64), den) if j > i else 0 for j in range(n)]
                           for i in range(n)])

    for n in range(1, 7):
        for bits in (1, 64):
            yield f"{bits} bits n={n}", signed(n, bits)
            yield f"{bits} bits over 97 n={n}", signed(n, bits, 97)
        yield f"half identity n={n}", RingMatrix.scalar(n, Fraction(1, 2))
        yield f"zero n={n}", RingMatrix.zeros(n)
        yield f"nilpotent n={n}", upper(n, 1)
        yield f"nilpotent over 3 n={n}", upper(n, 3)
        poly = [list(r) for r in _mixed_poly_matrix(rng, n, ("a", "b")).entries]
        poly[0][0] += MultiPoly.variable("a")  # a MultiPoly entry at n = 1 too
        yield f"polynomial n={n}", RingMatrix(poly)


HORNER_INPUTS = list(_horner_inputs())


@pytest.mark.parametrize(("label", "m"), HORNER_INPUTS, ids=[k for k, _ in HORNER_INPUTS])
def test_monic_start_matches_the_unit_start_and_the_literal_sum(monkeypatch, label, m):
    """char_poly against det(tI - M) built from Berkowitz's coefficients on the entries, both by
    Horner's rule from the constant 1 and as the sum of c_k t^(n-k); its Horner steps make n - 1
    products by t."""
    n, t = m.rows, MultiPoly.variable("t")
    coeffs = _berkowitz(m.entries)
    unit_start = MultiPoly.constant(1, ("t",))
    for c in coeffs[1:]:
        unit_start = unit_start * t + c
    literal = sum(c * t ** (n - k) for k, c in enumerate(coeffs))
    products = []
    real_mul = MultiPoly.__mul__

    def counted(a, b):
        products.append(b == t)
        return real_mul(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    got = char_poly(m)
    monkeypatch.undo()
    assert sum(products) == n - 1
    assert got == unit_start == literal
    assert str(got) == str(unit_start) == str(literal)
    assert hash(got) == hash(unit_start) == hash(literal)
    assert got._packed == unit_start._packed
    assert all(type(c) is int or c.denominator > 1 for c in got._packed.values()), got


# -- closed-form products ------------------------------------------------------------------


def _closed_product_inputs():
    """(label, A, B) for B square of size 2 or 4: signed entries of 1, 64 and 3000 bits, a zero
    row, the identity and the zero matrix, A of 1, 3 or 5 rows, polynomial entries mixed with
    ints and Fractions; and a 4 x 2 and a 2 x 4 B, which take the inner products."""
    rng = random.Random(54)
    u, v = MultiPoly.variable("u"), MultiPoly.variable("v")

    def signed(rows, cols, bits):
        return [[rng.randint(-(1 << bits), 1 << bits) for _ in range(cols)] for _ in range(rows)]

    def entry():
        kind, p, q = rng.randrange(3), rng.randint(-9, 9), rng.randint(1, 9)
        return (p, Fraction(p, q), p * u * v + Fraction(q, 2) * u - 1)[kind]

    def mixed(rows, cols):
        return [[entry() for _ in range(cols)] for _ in range(rows)]

    for n in (2, 4):
        for bits in (1, 64, 3000):
            yield f"signed {bits} bits n={n}", signed(n, n, bits), signed(n, n, bits)
        zero_row = signed(n, n, 64)
        zero_row[n - 1] = [0] * n
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        yield f"zero row n={n}", zero_row, signed(n, n, 64)
        yield f"zero row right n={n}", signed(n, n, 64), zero_row
        yield f"identity n={n}", signed(n, n, 64), identity
        yield f"identity left n={n}", identity, signed(n, n, 64)
        yield f"zero n={n}", signed(n, n, 64), [[0] * n] * n
        yield f"polynomial n={n}", mixed(n, n), mixed(n, n)
        yield f"polynomial times u n={n}", mixed(n, n), [[u * x for x in r] for r in identity]
    for rows in (1, 3, 5):
        yield f"{rows}x4 4x4", signed(rows, 4, 64), signed(4, 4, 64)
    yield "3x4 polynomial 4x4", mixed(3, 4), mixed(4, 4)
    yield "3x4 4x2", signed(3, 4, 64), signed(4, 2, 64)
    yield "3x2 2x4", signed(3, 2, 64), signed(2, 4, 64)
    yield "3x4 polynomial 4x2", mixed(3, 4), mixed(4, 2)


CLOSED_PRODUCT_INPUTS = list(_closed_product_inputs())


def _counted_sums(monkeypatch) -> list:
    """A list that grows by one at each ``sum`` the matrices module calls: the inner products of
    ``_product`` call it once per entry, its closed forms never."""
    calls = []

    def counted(*args):
        calls.append(1)
        return sum(*args)

    monkeypatch.setattr(matrices, "sum", counted, raising=False)
    return calls


@pytest.mark.parametrize(("label", "a", "b"), CLOSED_PRODUCT_INPUTS,
                         ids=[k for k, *_ in CLOSED_PRODUCT_INPUTS])
def test_closed_form_product_matches_the_inner_products_and_fractions(monkeypatch, exact, label,
                                                                      a, b):
    want = [tuple([sum(map(mul, row, col)) for col in zip(*b)]) for row in a]
    sums = _counted_sums(monkeypatch)
    got = _product(a, b)
    closed = len(b) in (2, 4) and len(b[0]) == len(b)
    assert len(sums) == (0 if closed else len(a) * len(b[0]))
    assert got == want
    assert [list(map(type, r)) for r in got] == [list(map(type, r)) for r in want]
    assert RingMatrix(got) == RingMatrix(exact.mat_mul(a, b)) == RingMatrix(a) * RingMatrix(b)


def test_both_sides_of_the_product_size_switch_run_in_suite_all(monkeypatch, capsys):
    """Over ``suite all --d 2`` at default trials the closed-form products run by a B of size 2 and
    4, on MultiPoly entries too (det-law), and the inner products by 8 x 8 integer rows, in the
    power traces of det-law's ``d4_closed_forms`` input."""
    closed, generic = Counter(), Counter()
    sums = _counted_sums(monkeypatch)
    real = matrices._product

    def counted(a, b):
        before = len(sums)
        rows = real(a, b)
        poly = any(isinstance(x, MultiPoly) for x in chain(*a, *b))
        (generic if len(sums) > before else closed)[len(b), poly] += 1
        return rows

    monkeypatch.setattr(matrices, "_product", counted)
    assert main(["suite", "all", "--d", "2"]) == 0
    capsys.readouterr()
    assert {n for n, _ in closed} == {2, 4} and closed[2, False] > 0 and closed[4, True] > 0
    assert list(generic) == [(8, False)]


# -- the sides of each kernel switch that suite all takes ----------------------------------


def _cleared(m, *_):
    return "cleared" if m.cleared() is not None else "not cleared"


def _char_poly_delta(m, *_):
    if m.cleared() is None:
        return None  # the polynomial branch, which no suite takes, is off this switch
    return "delta = 1" if m.cleared()[1] == 1 else "delta > 1"


# (module, function, the side a call takes, or None off the switch).  The packed integer product
# is left out: no suite multiplies integer rows of _PACKED_MIN_COLS = 10 or more columns, so only
# the packed-product tests above and the benchmark's 2d = 12 bundles run that route.  So is
# QuotientRing.dot's identity test of an entry's variable tuple: every entry a suite builds holds
# the ring's own tuple, so only entries parsed from an --input spec reach its _lift side, and
# tests/test_gma.py runs both sides.
SWITCHES = (
    (matrices, "char_poly", _char_poly_delta, {"delta = 1", "delta > 1"}),
    (matrices, "mat_det", _cleared, {"cleared", "not cleared"}),
    (symplectic, "pfaffian", _cleared, {"cleared", "not cleared"}),
    (matrices, "lambdas_of_matrix", _cleared, {"cleared", "not cleared"}),
)


def test_both_sides_of_each_switch_run_in_suite_all(monkeypatch, capsys):
    """Over ``suite all --d 2`` at default flags every side of each switch in SWITCHES runs, at
    each call wherever the package binds the function."""
    seen = Counter()

    def counted(name, real, side):
        def wrapper(*args, **kwargs):
            seen[name, side(*args)] += 1
            return real(*args, **kwargs)
        return wrapper

    for owner, name, side, _ in SWITCHES:
        real = getattr(owner, name)
        wrapper = counted(name, real, side)
        for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "symplaw"]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    assert main(["suite", "all", "--d", "2"]) == 0
    capsys.readouterr()
    for _, name, _, sides in SWITCHES:
        assert {s for n, s in seen if n == name and s is not None} == sides, name


# -- memoized word images --------------------------------------------------------


def reduced_words(gens, max_len):
    letters = [(g, s) for g in range(1, gens + 1) for s in (1, -1)]
    words = [()]
    for length in range(1, max_len + 1):
        for combo in product(letters, repeat=length):
            if all(combo[i] != (combo[i + 1][0], -combo[i + 1][1]) for i in range(length - 1)):
                words.append(combo)
    return words


def _gsp_12():
    """Two GSp_12 images of similitude 3/2, as the eval verbs meet them at the dimension cap."""
    ctx = SymplecticContext(6)
    return [sample_similitude(ctx, seed, factor=Fraction(3, 2)) for seed in (12, 13)]


@pytest.mark.parametrize(("kind", "d", "max_len"), [("Sp", 2, 4), ("GSp", 2, 4), ("GSp", 6, 2)],
                         ids=["Sp", "GSp", "GSp_12"])
def test_cached_rho_word_matches_the_plain_product(exact, kind, d, max_len):
    ctx = SymplecticContext(d)
    if kind == "Sp":
        images = [sample_symplectic(ctx, 5), sample_symplectic(ctx, 6)]
    elif d == 2:
        images = [sample_similitude(ctx, 5, factor=2), sample_similitude(ctx, 6, factor=Fraction(3, 2))]
    else:
        images = _gsp_12()
    rep = InvolutiveRepresentation.from_images(images, kind=kind)
    # the inverses of the reference come from Gauss-Jordan elimination
    plain = {1: naive_rows(images[0].entries), 2: naive_rows(images[1].entries),
             -1: naive_rows(images[0].inverse().entries), -2: naive_rows(images[1].inverse().entries)}
    words = reduced_words(2, max_len)
    assert len(words) == sum(4 * 3 ** (k - 1) for k in range(1, max_len + 1)) + 1
    rng = random.Random(44)
    rng.shuffle(words)  # prefixes come both before and after the words that extend them
    for w in words + words[:20]:
        want = exact.identity(images[0].rows)
        for gen, sign in w:
            want = exact.mat_mul(want, plain[gen * sign])
        got = rep.rho_word(w)
        assert got.entries == tuple(map(tuple, want)), w
        assert_normalized(got)
        assert rep.rho_word(list(w)) is got


def test_rho_word_cache_stays_out_of_eq_hash_and_repr():
    ctx = SymplecticContext(1)
    images = [sample_symplectic(ctx, 7), sample_symplectic(ctx, 8)]
    fresh = InvolutiveRepresentation.from_images(images)
    used = InvolutiveRepresentation.from_images(images)
    before = repr(used)
    used.rho_word(((1, 1), (2, -1), (1, 1)))
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == before


def test_bad_word_with_a_cached_prefix_still_raises():
    ctx = SymplecticContext(1)
    rep = InvolutiveRepresentation.from_images([sample_symplectic(ctx, 9), sample_symplectic(ctx, 10)])
    rep.rho_word(((1, 1), (2, 1)))
    for bad in (((1, 1), (3, 1)), ((1, 1), (2, 1), (3, -1)), ((3, 1),)):
        with pytest.raises(GeneratorError):
            rep.rho_word(bad)
    with pytest.raises(GeneratorError):  # nothing of a refused word was cached
        rep.rho_word(((1, 1), (3, 1)))


def test_rho_word_spends_one_product_per_new_letter(monkeypatch):
    ctx = SymplecticContext(1)
    rep = InvolutiveRepresentation.from_images([sample_symplectic(ctx, 11), sample_symplectic(ctx, 12)])
    products = []
    real_mul = RingMatrix.__mul__

    def counting_mul(self, other):
        products.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(RingMatrix, "__mul__", counting_mul)
    a, b, ai = (1, 1), (2, 1), (1, -1)
    for word, new_letters in [((a, b, a, b), 3), ((a, b, a, b, b), 1), ((a, b, a, b), 0),
                              ((a, b, ai, b), 2), ((b,), 0), ((), 0)]:
        products.clear()
        rep.rho_word(word)
        assert len(products) == new_letters, word


def test_building_a_representation_inverts_nothing(monkeypatch):
    ctx = SymplecticContext(6)
    sp_images = [sample_symplectic(ctx, 12), sample_symplectic(ctx, 13)]
    gsp_images = _gsp_12()
    calls = []
    real_inverse = RingMatrix.inverse

    def counting_inverse(self):
        calls.append(1)
        return real_inverse(self)

    monkeypatch.setattr(RingMatrix, "inverse", counting_inverse)
    sp = InvolutiveRepresentation.from_images(sp_images)
    gsp = InvolutiveRepresentation.from_images(gsp_images, kind="GSp")
    assert calls == []
    for rep in (sp, gsp):
        # rho(g1^-1 g2^-1) rho(g2 g1) = Id
        got = rep.rho_word(((1, -1), (2, -1))) * rep.rho_word(((2, 1), (1, 1)))
        assert got == RingMatrix.identity(12)
    assert calls == []


# -- rational Pfaffians by skew elimination, and the similitude -----------------


def _alternating_ints(rng, n, density):
    """Alternating integer rows whose upper entries are nonzero with probability ``density``."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                a[i][j] = rng.randint(-4, 4)
                a[j][i] = -a[i][j]
    return a


def _integer_j(d):
    """J = [[0, Id], [-Id, 0]] of size 2d, as integer rows."""
    return [[(j == i + d) - (i == j + d) for j in range(2 * d)] for i in range(2 * d)]


def _direct_sum(a, b):
    n, m = len(a), len(b)
    return [list(r) + [0] * m for r in a] + [[0] * n + list(r) for r in b]


def _hand_alternating(rng, n):
    """(rows, Pf) for inputs that make the elimination swap, or stop on a row with no pivot."""
    d = n // 2
    yield _integer_j(d), (-1) ** (d * (d - 1) // 2)  # a[0][1] = 0 for d >= 2: swaps
    yield [[0] * n for _ in range(n)], 0
    zero_row = _alternating_ints(rng, n, 1.0)
    k = rng.randrange(n)
    for i in range(n):
        zero_row[k][i] = zero_row[i][k] = 0
    yield zero_row, 0
    if n >= 4:
        # step 0 leaves J_(d-1), whose first pivot is 0: the swap comes after an update
        yield _direct_sum([[0, 3], [-3, 0]], _integer_j(d - 1)), 3 * (-1) ** ((d - 1) * (d - 2) // 2)
        # v w^T - w v^T has rank 2: step 0 leaves only zeros, so step 2 finds no pivot
        v = [rng.randint(1, 5) for _ in range(n)]
        w = [rng.randint(-5, -1) for _ in range(n)]
        yield [[v[i] * w[k] - w[i] * v[k] for k in range(n)] for i in range(n)], 0


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_skew_elimination_matches_the_expansion_and_the_naive_pfaffian(n):
    rng = random.Random(60 + n)
    cases = [(_alternating_ints(rng, n, density), None)
             for density in (1.0, 0.5, 0.25, 0.1) for _ in range(8)]
    cases += list(_hand_alternating(rng, n))
    singular = 0
    for a, want in cases:
        got = _pfaffian_elimination(tuple(map(tuple, a)))  # tuples: the input is not written to
        assert type(got) is int
        assert got == _pfaffian_expansion(a), a
        if want is not None:
            assert got == want, a
        if n <= 10:
            assert got == naive_pfaffian(a), a
        singular += got == 0
    assert 2 <= singular < len(cases)


def test_a_rational_pfaffian_never_runs_the_expansion(monkeypatch):
    def refuse(a):
        raise AssertionError("the expansion ran on a rational matrix")

    monkeypatch.setattr(symplectic, "_pfaffian_expansion", refuse)
    rng = random.Random(61)
    for d in (1, 2, 3, 6):
        ctx = SymplecticContext(d)
        assert pfaffian(ctx.J) == (-1) ** (d * (d - 1) // 2)
        a = random_alternating(ctx.n, rng)
        assert pfaffian(a) ** 2 == mat_det(a)
        m = random_j_symmetric(ctx, rng)
        assert reduced_pfaffian(ctx, m) ** 2 == mat_det(m)


def test_a_polynomial_pfaffian_runs_the_expansion(monkeypatch):
    calls = []
    real = symplectic._pfaffian_expansion

    def counting(a):
        calls.append(len(a))
        return real(a)

    monkeypatch.setattr(symplectic, "_pfaffian_expansion", counting)
    monkeypatch.setattr(symplectic, "_pfaffian_elimination", None)  # a call would fail
    x = MultiPoly.variable("x")
    rng = random.Random(62)
    for n in (2, 4, 8):
        rows = [list(r) for r in random_alternating(n, rng).entries]
        rest = [[rows[i][j] for j in range(2, n)] for i in range(2, n)]
        at_zero = naive_rows(rows)
        rows[0][1], rows[1][0] = rows[0][1] + x, -rows[0][1] - x
        a = RingMatrix(rows)
        pf = pfaffian(a)
        assert isinstance(pf, MultiPoly) and pf * pf == mat_det(a)
        # Pf is linear in the entry (0, 1), with the Pfaffian of rows and columns 2.. as its slope
        assert pf == naive_pfaffian(at_zero) + x * naive_pfaffian(rest)
    assert calls == [2, 4, 8]


@pytest.mark.parametrize("d", range(1, 7))
def test_similitude_is_the_scalar_of_mj_m(d):
    ctx = SymplecticContext(d)
    samples = [(sample_symplectic(ctx, d), 1)]
    samples += [(sample_similitude(ctx, d + k, factor), factor)
                for k, factor in enumerate((2, Fraction(3, 2), Fraction(-5, 7)), 1)]
    for m, factor in samples:
        prod = symplectic_transpose(ctx, m) * m
        lam = prod.trace() / ctx.n
        assert prod == RingMatrix.scalar(ctx.n, lam)
        got = similitude(ctx, m)
        assert got == lam == factor and type(got) is Fraction


def _blocks(top_left, top_right, bottom_left, bottom_right):
    return RingMatrix([a + b for a, b in zip(top_left, top_right)]
                      + [a + b for a, b in zip(bottom_left, bottom_right)])


def test_similitude_refuses_a_non_scalar_or_singular_matrix():
    rng = random.Random(63)
    for d in (1, 2, 3, 6):
        ctx = SymplecticContext(d)
        n = ctx.n
        if d > 1:  # at d = 1 every M^j M is det(M) Id
            m = random_matrix(n, rng)
            prod = symplectic_transpose(ctx, m) * m
            assert prod != RingMatrix.scalar(n, prod.trace() / n)
            with pytest.raises(NotASimilitudeError, match=r"^M\^j M is not scalar$"):
                similitude(ctx, m)
        # [[A, 0], [0, 0]]: its columns span an isotropic space, so M^j M = 0 Id
        a = naive_rows(random_matrix(d, rng).entries)
        zero = [[0] * d for _ in range(d)]
        for m in (RingMatrix.zeros(n), _blocks(a, zero, zero, zero)):
            assert symplectic_transpose(ctx, m) * m == RingMatrix.zeros(n)
            with pytest.raises(NotASimilitudeError,
                               match=r"^similitude factor is zero \(singular matrix\)$"):
                similitude(ctx, m)


def test_similitude_of_polynomial_entries():
    t = MultiPoly.variable("t")
    for d in (1, 2, 3):
        ctx = SymplecticContext(d)
        ident = [[int(i == j) for j in range(d)] for i in range(d)]
        zero = [[0] * d for _ in range(d)]
        sym = [[t * (i + j + 1) for j in range(d)] for i in range(d)]
        for c in (1, Fraction(-3, 2)):
            # [[c Id, B], [0, Id]] with B symmetric has similitude c
            m = _blocks([[c * x for x in r] for r in ident], sym, zero, ident)
            assert m.cleared() is None
            got = similitude(ctx, m)
            assert got == c and type(got) is Fraction
            assert symplectic_transpose(ctx, m) * m == RingMatrix.scalar(ctx.n, c)
        with pytest.raises(NotASimilitudeError, match=r"^similitude factor is not a constant: t$"):
            similitude(ctx, _blocks([[t * x for x in r] for r in ident], zero, zero, ident))
        if d > 1:  # B not symmetric
            b = [[t * (i + 2 * j + 1) for j in range(d)] for i in range(d)]
            with pytest.raises(NotASimilitudeError, match="not scalar"):
                similitude(ctx, _blocks(ident, b, zero, ident))


def test_building_a_representation_transposes_each_generator_once(monkeypatch):
    calls = []
    real = SignedPermutation.adjoint

    def counting(self, m):
        calls.append(m.rows)
        return real(self, m)

    images = _gsp_12()
    monkeypatch.setattr(SignedPermutation, "adjoint", counting)
    rep = InvolutiveRepresentation.from_images(images, kind="GSp")
    assert calls == [12, 12] and rep.lambda_values == (Fraction(3, 2), Fraction(3, 2))
