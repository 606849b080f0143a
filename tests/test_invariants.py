import random
import time
from fractions import Fraction

import pytest

from symplaw import invariants
from symplaw.errors import ArityError, CapacityError, DimensionError, StructureError, SymplawError
from symplaw.invariants import (
    InvariantFunction,
    TraceWord,
    canonical_letters,
    check_invariance,
    enumerate_trace_words,
    eval_invariant,
    hat,
    multilinear_invariant_dim,
    relabel,
    simple_root_vectors,
    trace_word_span_dim,
    word_value,
)
from symplaw.matrices import IntegerEliminator, RingMatrix
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
        assert raw.trace() == word_value(TraceWord(letters), mats, ctx).trace()


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
        fs = [InvariantFunction.sigma(i, w, arity=2) for w in words for i in range(1, 2 * d + 1)]
        for trial in range(10):
            g = sample_symplectic(SymplecticContext(d), 7000 + 10 * d + trial)
            mats = [random_matrix(2 * d, rng) for _ in range(2)]
            assert check_invariance(fs, mats, g) is None


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
                assert check_invariance([f], mats, g) is None


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


def test_hat_of_a_last_slot_similitude_is_refused():
    # lambda(g_m g_(m+1)) is lambda(g_m) lambda(g_(m+1)), a product of two generators
    assert hat(InvariantFunction.similitude_power(1, -1, 2)).arity == 3
    with pytest.raises(StructureError, match="not atomic"):
        hat(InvariantFunction.similitude_power(2, -1, 2))


# -- the invariant-dimension oracle against a brute-force reference ----


def sp_basis(d: int) -> list:
    """Integer basis of sp_2d: blocks [[A, B], [C, -A^T]] with B, C symmetric."""
    n = 2 * d
    basis = []

    def mat():
        return [[0] * n for _ in range(n)]

    for i in range(d):
        for j in range(d):
            h = mat()
            h[i][j] = 1
            h[d + j][d + i] = -1
            basis.append(h)
    for i in range(d):
        for j in range(i, d):
            h = mat()
            h[i][d + j] = 1
            h[j][d + i] = 1
            basis.append(h)
            h = mat()
            h[d + i][j] = 1
            h[d + j][i] = 1
            basis.append(h)
    return basis


def brute_force_invariant_dim(d: int, m: int) -> int:
    """Kernel dimension of infinitesimal invariance on all (4d^2)^m coordinates
    under the whole basis of sp_2d, acting by commutator derivations in each slot."""
    n = 2 * d
    cell = n * n
    unknowns = cell**m
    elim = IntegerEliminator()
    for h in sp_basis(d):
        by_col = [[(i, h[i][a]) for i in range(n) if h[i][a]] for a in range(n)]
        by_row = [[(j, h[b][j]) for j in range(n) if h[b][j]] for b in range(n)]
        for flat in range(unknowns):
            rem = flat
            slots = []
            for _ in range(m):
                slots.append(divmod(rem % cell, n))
                rem //= cell
            row: dict = {}
            for k, (r, c) in enumerate(slots):
                base = flat - (r * n + c) * cell**k
                for i, hval in by_col[r]:
                    col = base + (i * n + c) * cell**k
                    row[col] = row.get(col, 0) + hval
                for j, hval in by_row[c]:
                    col = base + (r * n + j) * cell**k
                    row[col] = row.get(col, 0) - hval
            elim.add_row(row)
    return unknowns - elim.rank


@pytest.mark.parametrize(("d", "m"), [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2),
                                      (3, 1), (3, 2)])
def test_oracle_matches_brute_force(d, m):
    assert multilinear_invariant_dim(d, m) == brute_force_invariant_dim(d, m)


def test_oracle_dimensions_precomputed():
    assert multilinear_invariant_dim(1, 1) == 1
    assert multilinear_invariant_dim(1, 2) == 2
    assert multilinear_invariant_dim(2, 1) == 1
    # the brute force gives 14 at (2, 3) in about 1.4 s
    assert multilinear_invariant_dim(2, 3) == 14


def test_span_matches_oracle_desk_scale():
    for d, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        # the m = 3 pairs take most of the time, so they sweep half the seeds
        seeds = range(10) if m == 3 else range(20)
        oracle = multilinear_invariant_dim(d, m)
        assert [trace_word_span_dim(d, m, seed=s) for s in seeds] == [oracle] * len(seeds), (d, m)


def _counted(monkeypatch, name):
    calls = []
    original = getattr(invariants, name)
    monkeypatch.setattr(invariants, name, lambda *a: calls.append(1) or original(*a))
    return calls


@pytest.mark.parametrize(("d", "m", "full"), [(2, 1, True), (2, 2, True), (3, 2, True),
                                              (1, 2, False), (1, 3, False), (2, 3, False)])
def test_span_search_draws_only_what_its_rank_needs(monkeypatch, d, m, full):
    """At full rank the first len(products) rows and one rank end the search; a rank-deficient
    pair draws two rows more and three stable rounds of three, as before the early stop."""
    columns = len(invariants.multilinear_trace_products(m))
    for seed in range(10):
        draws, ranks = _counted(monkeypatch, "random_matrix"), _counted(monkeypatch, "matrix_rank")
        trace_word_span_dim(d, m, seed=seed)
        if full:
            assert (len(draws), len(ranks)) == (m * columns, 1)
        else:
            assert (len(draws), len(ranks)) == (m * (columns + 11), 5)
        monkeypatch.undo()


@pytest.mark.parametrize(("d", "m"), [(1, 2), (1, 3), (2, 2)])
def test_span_search_grows_its_rank_until_it_is_stable(monkeypatch, d, m):
    """Zero matrices for the first len(products) + 2 rows keep the rank at 0 through the first
    two checks; the rounds that follow must raise it to the oracle's value and stop there."""
    zero_draws = m * (len(invariants.multilinear_trace_products(m)) + 2)
    draws, ranks = [], []
    random_matrix_, matrix_rank_ = invariants.random_matrix, invariants.matrix_rank

    def drawn(n, rng, magnitude):
        draws.append(1)
        return RingMatrix.zeros(n) if len(draws) <= zero_draws else random_matrix_(n, rng, magnitude)

    def ranked(rows):
        ranks.append(matrix_rank_(rows))
        return ranks[-1]

    monkeypatch.setattr(invariants, "random_matrix", drawn)
    monkeypatch.setattr(invariants, "matrix_rank", ranked)
    assert trace_word_span_dim(d, m) == multilinear_invariant_dim(d, m)
    assert ranks[:2] == [0, 0] and max(ranks) == ranks[-1] > 0


def test_capacity_guard():
    with pytest.raises(CapacityError):
        multilinear_invariant_dim(3, 4)


def test_largest_admitted_oracle_sizes():
    # 1860 and 924 weight-zero unknowns, under the 2000 of the second guard
    assert multilinear_invariant_dim(3, 3) == 15
    assert multilinear_invariant_dim(1, 6) == 132


@pytest.mark.parametrize(("d", "m"), [(1, 7), (2, 4), (1, 8)])
def test_weight_zero_guard_refuses_at_once(d, m):
    # (4d^2)^m <= 10^5 admits these; their 3432, 4900 and 12870 unknowns took 5.6 s to minutes
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="weight-zero"):
        multilinear_invariant_dim(d, m)
    assert time.perf_counter() - start < 1


def _torus_weight(d: int, i: int) -> tuple:
    """eps(i) = e_i for i < d and -e_(i-d) otherwise."""
    return tuple((k == i) - (k == i - d) for k in range(d))


def test_simple_root_vectors_are_the_simple_roots_of_sp():
    for d in (1, 2, 3, 4):
        j = SymplecticContext(d).J
        # eps_1 - eps_2, ..., eps_(d-1) - eps_d, 2 eps_d
        roots = [tuple((k == i) - (k == i + 1) for k in range(d)) for i in range(d - 1)]
        roots.append(tuple(2 * (k == d - 1) for k in range(d)))
        vectors = simple_root_vectors(d)
        assert len(vectors) == d
        for entries, root in zip(vectors, roots):
            rows = [[0] * (2 * d) for _ in range(2 * d)]
            for r, c, v in entries:
                rows[r][c] = v
                # E_(r,c) has weight eps(r) - eps(c) under the diagonal torus
                weight = tuple(a - b for a, b in zip(_torus_weight(d, r), _torus_weight(d, c)))
                assert weight == root
            h = RingMatrix(rows)
            assert h.transpose() * j + j * h == RingMatrix.zeros(2 * d)


def test_sp_basis_satisfies_lie_condition():
    for d in (1, 2, 3):
        j = SymplecticContext(d).J
        for h in sp_basis(d):
            hm = RingMatrix([[Fraction(x) for x in row] for row in h])
            assert hm.transpose() * j + j * hm == RingMatrix.zeros(2 * d)
        assert len(sp_basis(d)) == d * (2 * d + 1)


@pytest.mark.parametrize("dim", [multilinear_invariant_dim, trace_word_span_dim])
def test_bad_sizes_raise(dim):
    for d in (0, -1):
        with pytest.raises(DimensionError):
            dim(d, 1)
    with pytest.raises(ArityError, match="arity m must be >= 0"):
        dim(1, -1)
    assert dim(1, 0) == 1 and dim(2, 0) == 1


def test_capacity_guard_counts_every_coordinate():
    # 4^9 coordinates in all, of which only C(18, 9) have weight zero
    with pytest.raises(CapacityError):
        multilinear_invariant_dim(1, 9)
    with pytest.raises(CapacityError):
        trace_word_span_dim(3, 4)


def test_check_invariance_returns_first_non_invariant(monkeypatch):
    # with the plain transpose in place of X^j, tr(X X^T) is no Sp-invariant
    monkeypatch.setattr(invariants, "symplectic_transpose", lambda ctx, m: m.transpose())
    rng = random.Random(45)
    g = sample_symplectic(SymplecticContext(2), 9100)
    mats = [random_matrix(4, rng, 3)]
    plain = InvariantFunction.sigma(1, TraceWord(((1, False),)))
    starred = [InvariantFunction.sigma(i, TraceWord(((1, False), (1, True)))) for i in (2, 1)]
    assert check_invariance([plain], mats, g) is None
    assert check_invariance([plain, *starred], mats, g) is starred[0]


def test_arity_errors():
    f = InvariantFunction.sigma(1, TraceWord(((1, False),)))
    with pytest.raises(ArityError):
        eval_invariant(f, [RingMatrix.identity(2), RingMatrix.identity(2)])


@pytest.mark.parametrize(
    ("f", "mats"),
    [(InvariantFunction.sigma(1, TraceWord(((1, False),)), arity=2),
      [RingMatrix.identity(2), RingMatrix([[1, 2, 3]])]),
     (InvariantFunction.sigma(1, TraceWord(((1, False),)), arity=2),
      [RingMatrix.identity(2), RingMatrix.identity(4)]),
     (InvariantFunction.similitude_power(2, arity=2),
      [RingMatrix([[1, 2, 3], [4, 5, 6]]), RingMatrix.identity(2)])],
    ids=["second_not_square", "second_larger", "first_not_square"],
)
def test_eval_invariant_refuses_arguments_of_another_size(f, mats):
    # a word that reads X1 alone, or a similitude power of X2, reads one argument: the size of
    # every other one is checked all the same
    with pytest.raises(DimensionError, match="all of one size"):
        eval_invariant(f, mats)


@pytest.mark.parametrize("letters", [((0, False),), ((1, False), (0, True)), ((-2, False),)])
def test_trace_word_letters_are_one_based(letters):
    # letter 0 used to read mats[-1], the last matrix, without complaint
    with pytest.raises(SymplawError):
        TraceWord(letters)
