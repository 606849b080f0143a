import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from symplaw.errors import DimensionError
from symplaw.gma import random_gma_element, standard_fixture
from symplaw.matrices import (
    RingMatrix,
    _cofactor_expansion,
    _det_bareiss,
    _linear_combination,
    char_poly,
    entry_vars,
    lambdas_of_matrix,
    mat_det,
    matrix_rank,
    trace_of_product,
)
from symplaw.multipoly import _FIELD, _MASK, MultiPoly, _shift, fresh_var
from symplaw.symplectic import (
    SymplecticContext,
    pfaffian,
    pfaffian_char_poly,
    pfaffian_coeffs_of_matrix,
    random_j_symmetric,
    reduced_pfaffian,
)


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
        assert sum(c.constant_value() * r**k for k, c in p.coefficients_in("t").items()) == direct


def lambdas_from_char_poly(p, n, var="t"):
    """(L_0..L_n) with p = sum (-1)^i L_i var^(n-i), split off the packed keys of p in one pass.

    Each key loses its field of var, the fields below it moved up.  A constant
    L_i is a Fraction, Fraction(0) where p has no term of that degree; any
    other L_i is a MultiPoly in the remaining variables.
    """
    if var not in p.vars:
        p = p.in_vars(tuple(sorted((*p.vars, var))))
    k = p.vars.index(var)
    rest = p.vars[:k] + p.vars[k + 1:]
    s = _shift(len(p.vars), k)
    low = (1 << s) - 1
    signed: dict = {}
    for key, c in p._packed.items():
        i = n - (key >> s & _MASK)
        signed.setdefault(i, {})[key >> s + _FIELD << s | key & low] = -c if i % 2 else c
    out = []
    for i in range(n + 1):
        terms = signed.get(i)
        if terms is None:
            out.append(Fraction(0))
        elif len(terms) == 1 and 0 in terms:
            out.append(Fraction(terms[0]))
        else:
            out.append(MultiPoly._canonical(rest, terms))
    return tuple(out)


def test_lambdas_sign_convention():
    m = RingMatrix([[1, 2], [3, 4]])
    lams = lambdas_from_char_poly(char_poly(m), 2)
    assert lams == (Fraction(1), Fraction(5), Fraction(-2))


def lambdas_reference(p, n, var):
    """(L_0..L_n) of p = sum (-1)^i L_i var^(n-i) through ``coefficients_in``, bucket by bucket."""
    buckets = p.coefficients_in(var)
    out = []
    for i in range(n + 1):
        coef = buckets.get(n - i)
        if coef is None:
            out.append(Fraction(0))
        else:
            val = coef.constant_value() if coef.is_constant() else coef
            out.append(val if i % 2 == 0 else -val)
    return tuple(out)


def assert_same_lambdas(got, expected):
    assert len(got) == len(expected)
    for x, y in zip(got, expected):
        assert type(x) is type(y) and x == y
        if isinstance(x, MultiPoly):
            assert x.vars == y.vars and x.terms == y.terms


def test_lambdas_of_a_rational_matrix_are_fractions():
    rng = random.Random(16)
    samples = [RingMatrix.zeros(3), RingMatrix.identity(4), RingMatrix([[7]])]
    samples += [rand_matrix(rng, n) for n in range(1, 7)]  # integer entries: int coefficients
    samples += [rand_matrix(rng, n) * Fraction(1, rng.randint(2, 5)) for n in range(1, 7)]
    for m in samples:
        lams = lambdas_of_matrix(m)
        assert len(lams) == m.rows + 1 and lams[0] == 1
        assert all(type(x) is Fraction for x in lams), lams
        assert_same_lambdas(lams, lambdas_reference(char_poly(m), m.rows, "t"))


def test_lambdas_of_a_nilpotent_matrix_vanish():
    m = RingMatrix([[0, 1, 2, 3], [0, 0, 4, 5], [0, 0, 0, 6], [0, 0, 0, 0]])
    lams = lambdas_of_matrix(m)
    assert lams == (1, 0, 0, 0, 0)
    assert all(type(x) is Fraction for x in lams)


def _poly_matrix(rng, n, variables):
    """An n x n matrix mixing MultiPoly entries in ``variables`` with rational ones."""
    def entry():
        if rng.random() < 0.5:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms = {tuple(rng.randint(0, 2) for _ in variables): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(rng.randint(1, 3))}
        return MultiPoly(variables, terms)

    return RingMatrix([[entry() for _ in range(n)] for _ in range(n)])


def test_lambdas_of_a_polynomial_matrix_match_the_bucket_reference():
    rng = random.Random(17)
    # ("a", "z") puts the fresh t between the entry variables; ("t",) makes it t0
    for variables in (("a",), ("a", "z"), ("t",), ("u", "v")):
        for n in (1, 2, 3, 4):
            m = _poly_matrix(rng, n, variables)
            var = fresh_var("t", entry_vars(m))
            assert_same_lambdas(lambdas_of_matrix(m), lambdas_reference(char_poly(m, var), n, var))


def test_lambdas_read_a_polynomial_without_the_variable_as_degree_0():
    u = MultiPoly.variable("u")
    assert_same_lambdas(lambdas_from_char_poly(u + 1, 0, "t"), (u + 1,))
    assert_same_lambdas(lambdas_from_char_poly(u * 0 + 3, 1, "t"), (Fraction(0), Fraction(-3)))


def test_pfaffian_coefficients_match_the_bucket_reference():
    rng = random.Random(18)
    for d in (1, 2, 3):
        ctx = SymplecticContext(d)
        for _ in range(5):
            m = random_j_symmetric(ctx, rng, 3)
            expected = lambdas_from_char_poly(pfaffian_char_poly(ctx, m, "t"), d, "t")
            got = pfaffian_coeffs_of_matrix(ctx, m)
            assert_same_lambdas(got, expected)
            assert all(type(x) is Fraction for x in got)


def test_inverse_and_pow():
    rng = random.Random(15)
    for _ in range(10):
        m = rand_matrix(rng, 3)
        if mat_det(m) == 0:
            continue
        assert m * m.inverse() == RingMatrix.identity(3)
        assert m**-2 == (m.inverse()) ** 2


def test_inverse_refuses_polynomial_and_non_square_matrices():
    u = MultiPoly.variable("u")
    with pytest.raises(TypeError, match="inverse requires rational entries"):
        RingMatrix([[1, u], [0, 1]]).inverse()
    with pytest.raises(DimensionError, match="non-square"):
        RingMatrix([[1, 2, 3], [4, 5, 6]]).inverse()
    with pytest.raises(ZeroDivisionError, match="singular matrix"):
        RingMatrix([[1, 2], [2, 4]]).inverse()


def test_matrix_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert matrix_rank([[Fraction(x) for x in r] for r in rows]) == 2
    assert matrix_rank([[Fraction(0)] * 3]) == 0


# -- the entry form: Fractions in a rational matrix, canonical scalars in a polynomial one ---


def scalar_types(m):
    return {type(x) for row in m.entries for x in row if not isinstance(x, MultiPoly)}


def test_a_rational_matrix_holds_fractions_even_from_ints():
    for m in (RingMatrix([[1, 2], [3, True]]), RingMatrix._trusted([[1, 2], [3, 4]]),
              RingMatrix._trusted([[1, Fraction(1, 2)], [Fraction(4, 2), 0]])):
        assert m.cleared() is not None and scalar_types(m) == {Fraction}
    assert RingMatrix([[1, 2], [3, 1]]) == RingMatrix([[Fraction(1), 2], [3, 1]])


def test_a_polynomial_matrix_holds_canonical_scalars():
    u = MultiPoly.variable("u")
    m = RingMatrix([[Fraction(4, 2), u], [Fraction(1, 3), True]])
    assert m.cleared() is None
    assert [type(x) for row in m.entries for x in row] == [int, MultiPoly, Fraction, int]
    assert m[0, 0] == 2 and m[1, 1] == 1
    # every generic kernel result is brought to the same form
    half = Fraction(1, 2)
    results = [-m, m * half, half * m, m * 2, m + m, m - m, m * m, m.transpose(),
               RingMatrix._trusted([[Fraction(3), u], [half, Fraction(-2)]])]
    for r in results:
        assert r.cleared() is None
        for x in (x for row in r.entries for x in row):
            assert isinstance(x, MultiPoly) or type(x) is int or (
                type(x) is Fraction and x.denominator > 1)
    assert (m * 2)[0, 0] == 4 and type((m * 2)[0, 0]) is int
    assert (m * half)[1, 0] == Fraction(1, 6)


def test_a_polynomial_matrix_of_zeros_is_zero():
    u = MultiPoly.variable("u")
    m = RingMatrix([[MultiPoly(("u",), {}), 0], [u - u, Fraction(0)]])
    assert m.cleared() is None and m.is_zero()
    assert not RingMatrix([[MultiPoly(("u",), {}), 0], [0, u]]).is_zero()


def test_a_matrix_built_with_no_polynomial_entry_is_rational():
    m = RingMatrix([[1, MultiPoly.constant(2, ("u",))], [0, 2]])
    r = m.map_entries(lambda x: x.constant_value() if isinstance(x, MultiPoly) else x)
    assert m.cleared() is None
    assert r.cleared() == (((1, 2), (0, 2)), 1) and scalar_types(r) == {Fraction}


def test_values_leaving_a_kernel_stay_fraction_or_multipoly():
    u = MultiPoly.variable("u")
    m = RingMatrix([[2, 0], [u, 3]])  # the expansion skips the zero entry, so u never enters
    assert type(m.trace()) is Fraction and m.trace() == 5
    assert type(mat_det(m)) is Fraction and mat_det(m) == 6
    assert isinstance(RingMatrix([[u, 1], [1, u]]).trace(), MultiPoly)
    # every entry of both factors enters tr(AB) and u cancels: a constant value is a Fraction
    assert type(trace_of_product(m, m)) is Fraction and trace_of_product(m, m) == 13
    assert type(trace_of_product(m, m.transpose())) is MultiPoly  # 13 + u^2
    assert trace_of_product(m, m.transpose()) == u * u + 13


_u = MultiPoly.variable("u")
_CTX2 = SymplecticContext(2)
# alternating, with Pf = a01 a23 - a02 a13 + a03 a12 = u - u + 1, and with Pf = u
_PF_ONE = RingMatrix([[0, _u, _u, 1], [-_u, 0, 1, 1], [-_u, -1, 0, 1], [-1, -1, -1, 0]])
_PF_U = RingMatrix([[0, _u, 0, 0], [-_u, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
# diag(A, A^T) is j-symmetric at d = 2: T = (1, 2, 1) for A = [[1, u], [0, 1]], T_2 = u for A = diag(u, 1)
_JSYM_UNIPOTENT = RingMatrix([[1, _u, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, _u, 1]])
_JSYM_U = RingMatrix([[_u, 0, 0, 0], [0, 1, 0, 0], [0, 0, _u, 0], [0, 0, 0, 1]])
_U_SYMMETRIC = RingMatrix([[_u, 1], [1, _u]])

# kernel: (the kernel on one matrix, a polynomial matrix where its value is constant, one where not)
KERNEL_VALUES = {
    "mat_det": (mat_det, RingMatrix([[_u, 1], [_u - 1, 1]]), _U_SYMMETRIC),
    "trace": (RingMatrix.trace, RingMatrix([[_u, 0], [0, 1 - _u]]), _U_SYMMETRIC),
    "trace_of_product": (lambda m: trace_of_product(m, m), RingMatrix([[2, 0], [_u, 3]]), _U_SYMMETRIC),
    "pfaffian": (pfaffian, _PF_ONE, _PF_U),
    # M J = A for M = A J^(-1)
    "reduced_pfaffian": (lambda a: reduced_pfaffian(_CTX2, a * _CTX2.J.inverse()), _PF_ONE, _PF_U),
    "lambdas_of_matrix": (lambdas_of_matrix, RingMatrix([[1, _u], [0, 1]]), _U_SYMMETRIC),
    "pfaffian_coeffs_of_matrix": (
        lambda m: pfaffian_coeffs_of_matrix(_CTX2, m), _JSYM_UNIPOTENT, _JSYM_U),
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_VALUES))
def test_a_constant_value_leaving_a_kernel_is_a_fraction(kernel):
    """A value leaving a kernel is a Fraction when it is constant, whichever entries the
    arithmetic touched on the way, and a non-constant one stays a MultiPoly."""
    fn, constant, varying = KERNEL_VALUES[kernel]
    assert constant.cleared() is None and varying.cleared() is None
    values = fn(constant)
    values = values if isinstance(values, tuple) else (values,)
    assert {type(v) for v in values} == {Fraction}, values
    values = fn(varying)
    values = values if isinstance(values, tuple) else (values,)
    assert MultiPoly in map(type, values), values
    assert all(type(v) is Fraction or (type(v) is MultiPoly and not v.is_constant())
               for v in values), values


def test_inexact_entries_and_scalars_are_refused():
    with pytest.raises(TypeError):
        RingMatrix([[1, 1.5]])
    u = MultiPoly.variable("u")
    for m in (RingMatrix([[1, 2], [3, 4]]), RingMatrix([[1, u], [0, 1]])):
        with pytest.raises(TypeError):
            m * 1.5
        with pytest.raises(TypeError):
            1.5 * m


@pytest.mark.parametrize("other", [1, 1.5, Fraction(1, 2), "1"])
def test_a_sum_or_difference_with_a_non_matrix_is_a_type_error(other):
    m = RingMatrix([[1, 2], [3, 4]])
    for op in (lambda: m + other, lambda: m - other, lambda: other + m, lambda: other - m):
        with pytest.raises(TypeError):
            op()


# -- the linear-combination kernel: sum c_i M_i against Fraction-entry sums ------------------

# denominators of a matrix's entries: small, large (past 64 bits) and mixed in one matrix
_DENOMINATORS = ([1], [2, 3], [7, 2**40], [10**30 + 1, 6], [1, 2**64, 3**41])


def _rational_matrix(rng, rows, cols):
    dens = rng.choice(_DENOMINATORS)
    return RingMatrix([[Fraction(rng.randint(-10**20, 10**20), rng.choice(dens))
                        for _ in range(cols)] for _ in range(rows)])


def _coefficient(rng):
    return rng.choice((0, 1, -1, rng.randint(-9, 9),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 10**12))))


def _reference_rows(terms, rows, cols):
    """sum c_i M_i, one entry at a time in the entries' own arithmetic, from Fraction(0)."""
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for c, m in terms:
        for i in range(rows):
            for j in range(cols):
                out[i][j] = out[i][j] + c * m[i, j]
    return out


def _normalized_pair(rows):
    """The unique (B, delta) of rows of Fractions: delta the lcm of the denominators."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows), den


def test_a_rational_combination_is_the_normalized_fraction_sum():
    rng = random.Random(29)
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        terms = [(_coefficient(rng), _rational_matrix(rng, rows, cols))
                 for _ in range(rng.randint(1, 6))]
        got = _linear_combination(terms, rows, cols)
        assert got.cleared() == _normalized_pair(_reference_rows(terms, rows, cols))
        assert scalar_types(got) == {Fraction}


def test_a_combination_that_cancels_is_the_zero_matrix_with_delta_1():
    rng = random.Random(30)
    for _ in range(50):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _rational_matrix(rng, rows, cols)
        c = Fraction(rng.randint(1, 9), rng.randint(2, 10**12))
        for terms in ([(c, m), (-c, m)], [(c, m), (-c / 2, m * 2)], [(0, m)], []):
            got = _linear_combination(terms, rows, cols)
            assert got.cleared() == (((0,) * cols,) * rows, 1) and got.is_zero()


def test_a_combination_with_a_polynomial_term_matches_the_entrywise_sum():
    rng = random.Random(31)
    u, v = MultiPoly.variable("u"), MultiPoly.variable("v")
    for _ in range(50):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        poly = RingMatrix([[rng.choice((u, v * 2, u * v - 1, Fraction(1, 3), 0)) if i or j else u
                            for j in range(cols)] for i in range(rows)])
        terms = [(_coefficient(rng), _rational_matrix(rng, rows, cols)),
                 (rng.choice((u, v + Fraction(1, 2), 2)), _rational_matrix(rng, rows, cols)),
                 (_coefficient(rng), poly)]
        got = _linear_combination(terms, rows, cols)
        expected = RingMatrix(_reference_rows(terms, rows, cols))
        assert got.cleared() is None and got == expected
        assert [[type(x) for x in row] for row in got.entries] == [
            [type(x) for x in row] for row in expected.entries]


def test_a_combination_of_different_shapes_is_refused():
    a, b = RingMatrix([[1, 2]]), RingMatrix([[1], [2]])
    for terms, shape in (([(1, a), (1, b)], (1, 2)), ([(1, a)], (2, 1)),
                         ([(MultiPoly.variable("u"), b)], (1, 2))):
        with pytest.raises(DimensionError):
            _linear_combination(terms, *shape)
    with pytest.raises(DimensionError):
        a + RingMatrix([[1, 2, 3]])
    with pytest.raises(DimensionError):
        a - RingMatrix([[1], [2]])


def test_matrix_arithmetic_gives_the_normalized_fraction_pair():
    """+, -, unary - and scalar * on rational matrices: the pair and entry types of the
    entry-by-entry Fraction result."""
    rng = random.Random(32)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a, b = _rational_matrix(rng, rows, cols), _rational_matrix(rng, rows, cols)
        c = _coefficient(rng)
        cases = [(a + b, [(1, a), (1, b)]), (a - b, [(1, a), (-1, b)]), (-a, [(-1, a)]),
                 (a * c, [(c, a)]), (c * a, [(c, a)]), (a - a, [])]
        for got, terms in cases:
            assert got.cleared() == _normalized_pair(_reference_rows(terms, rows, cols))
            assert scalar_types(got) == {Fraction}


# -- one sum path: +, -, unary - and scalar * of every entry kind against entry-by-entry sums ---

def _polynomial_matrix(rng, rows, cols):
    """int, Fraction and MultiPoly entries, with at least one MultiPoly."""
    u, v = MultiPoly.variable("u"), MultiPoly.variable("v")
    choices = (0, 1, -3, Fraction(1, 3), Fraction(-7, 2), u, v * 2, u * v - Fraction(1, 2), u - u + 4)
    entries = [[rng.choice(choices) for _ in range(cols)] for _ in range(rows)]
    entries[rng.randrange(rows)][rng.randrange(cols)] = u + Fraction(2, 5)
    return RingMatrix(entries)


def _gma_element(rng, rows, cols):
    return random_gma_element(standard_fixture(), rng)


_MAKERS = {"rational": _rational_matrix, "polynomial": _polynomial_matrix, "gma": _gma_element}


def _holds_its_entry_form(m):
    """``_fill``'s forms: Fractions and the normalized pair of a rational matrix, and in a
    polynomial matrix an int for each integral scalar and a Fraction for any other."""
    if m.cleared() is not None:
        return scalar_types(m) == {Fraction} and m.cleared() == _normalized_pair(m.entries)
    return all(type(x) is (int if Fraction(x).denominator == 1 else Fraction)
               for row in m.entries for x in row if not isinstance(x, MultiPoly))


def _entrywise(op, *operands):
    return RingMatrix([list(map(op, *rows)) for rows in zip(*(m.entries for m in operands))])


@pytest.mark.parametrize("left,right", list(itertools.product(_MAKERS, repeat=2)))
def test_every_sum_difference_negation_and_scalar_multiple_is_the_entrywise_one(left, right):
    rng = random.Random(33)
    u, v = MultiPoly.variable("u"), MultiPoly.variable("v")
    for _ in range(20):
        rows, cols = (4, 4) if "gma" in (left, right) else (rng.randint(1, 3), rng.randint(1, 3))
        a, b = _MAKERS[left](rng, rows, cols), _MAKERS[right](rng, rows, cols)
        c = rng.choice((rng.randint(-9, 9), 1, -1, Fraction(rng.randint(-9, 9), rng.randint(2, 9)),
                        u - 2, u * v + Fraction(1, 3)))
        cases = [(a + b, _entrywise(lambda x, y: x + y, a, b)),
                 (a - b, _entrywise(lambda x, y: x - y, a, b)),
                 (-a, _entrywise(lambda x: -x, a)),
                 (c * a, _entrywise(lambda x: c * x, a)),
                 (a * c, _entrywise(lambda x: x * c, a))]
        for got, expected in cases:
            assert got == expected and str(got) == str(expected)
            assert (got.cleared() is None) == (expected.cleared() is None)
            assert _holds_its_entry_form(got), got


@pytest.mark.parametrize("kind", sorted(_MAKERS))
def test_a_sum_of_different_shapes_is_refused_for_every_entry_kind(kind):
    rng = random.Random(34)
    a = _MAKERS[kind](rng, 4, 4)
    for other in (_rational_matrix(rng, 4, 3), _polynomial_matrix(rng, 3, 4)):
        for op in (lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(DimensionError):
                op(a, other)
            with pytest.raises(DimensionError):
                op(other, a)


def test_an_empty_combination_is_the_zero_matrix():
    for rows, cols in ((1, 1), (2, 3), (4, 4)):
        got = _linear_combination([], rows, cols)
        assert got == RingMatrix.zeros(rows, cols) and got.cleared() == (((0,) * cols,) * rows, 1)
