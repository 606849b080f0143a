"""Trace-word invariants of matrix tuples under Sp/GSp conjugation.

A trace word is a cyclic word in the letters X_i and (X_i)^j; its trace is
invariant under simultaneous symplectic conjugation, and such traces (more
precisely the characteristic-polynomial coefficients of word values)
generate the full invariant algebra.  The generation statement is tested
empirically at desk scale: the span of multilinear trace products is
compared against an independent brute-force oracle, the kernel of the
linear system expressing infinitesimal invariance under a basis of the
Lie algebra sp_2d acting by commutator derivations.  Sp is connected and
everything lives over Q, so infinitesimal invariance is equivalent to
group invariance for polynomial functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Sequence

from .errors import ArityError, CapacityError, DimensionError, SymplawError
from .matrices import IntegerEliminator, RingMatrix, lambdas_of_matrix, matrix_rank
from .symplectic import SymplecticContext, random_matrix, similitude, symplectic_transpose

# -- trace words -------------------------------------------------------

Letter = tuple  # (index >= 1, starred: bool)


@dataclass(frozen=True)
class TraceWord:
    """Canonical representative of a cyclic word in X_i / (X_i)^j letters."""

    letters: tuple

    def __post_init__(self):
        if not self.letters:
            raise SymplawError("trace word must be nonempty")
        letters = canonical_letters(self.letters)
        if min(i for i, _ in letters) < 1:
            raise SymplawError(f"trace-word letter indices start at 1: {letters}")
        object.__setattr__(self, "letters", letters)

    def __len__(self):
        return len(self.letters)

    def indices(self) -> set:
        return {i for i, _ in self.letters}

    def __str__(self):
        return " ".join(f"{i}*" if s else str(i) for i, s in self.letters)


def reversal_with_star(letters: tuple) -> tuple:
    """W -> W^j: reverse the word and toggle every star (tr W = tr W^j)."""
    return tuple((i, not s) for i, s in reversed(letters))


def canonical_letters(letters) -> tuple:
    letters = tuple((int(i), bool(s)) for i, s in letters)
    best = None
    for base in (letters, reversal_with_star(letters)):
        for r in range(len(base)):
            cand = base[r:] + base[:r]
            if best is None or cand < best:
                best = cand
    return best


def enumerate_trace_words(m: int, max_len: int) -> list:
    """All canonical trace words on m letters of length <= max_len, sorted."""
    if m < 1 or max_len < 1:
        raise SymplawError("need m >= 1 and max_len >= 1")
    alphabet = [(i, s) for i in range(1, m + 1) for s in (False, True)]
    seen = set()
    for length in range(1, max_len + 1):
        for combo in product(alphabet, repeat=length):
            seen.add(canonical_letters(combo))
    return [TraceWord(w) for w in sorted(seen, key=lambda w: (len(w), w))]


def word_value(word: TraceWord, mats: Sequence[RingMatrix], ctx: SymplecticContext) -> RingMatrix:
    """The product of the word's letters, X_i -> mats[i-1] and X_i* -> its symplectic transpose."""
    prod_m = None
    for i, starred in word.letters:
        if i > len(mats):
            raise ArityError(f"word uses X_{i} but only {len(mats)} matrices given")
        m = mats[i - 1]
        if starred:
            m = symplectic_transpose(ctx, m)
        prod_m = m if prod_m is None else prod_m * m
    return prod_m


def eval_trace_word(word: TraceWord, mats: Sequence[RingMatrix], ctx: SymplecticContext) -> Fraction:
    return word_value(word, mats, ctx).trace()


def word_lambdas(word: TraceWord, mats: Sequence[RingMatrix]) -> list:
    """[L_0..L_2d] of the word value: sigma_i(word) evaluated at mats is entry i."""
    n = mats[0].rows
    if n % 2:
        raise DimensionError("matrices must be 2d x 2d")
    return lambdas_of_matrix(word_value(word, mats, SymplecticContext(n // 2)))


# -- invariant functions ----------------------------------------------


@dataclass(frozen=True)
class InvariantFunction:
    """Either sigma_i(word value) or a power of the similitude character.

    sigma_i is the i-th characteristic polynomial coefficient with the
    Lambda sign convention (sigma_1 = trace).  The GSp generator is the
    inverse similitude of one argument: kind "similitude" with power -1.
    """

    kind: str
    arity: int
    sigma_index: int = 0
    word: TraceWord | None = None
    var_index: int = 0
    power: int = 0

    @staticmethod
    def sigma(index: int, word: TraceWord, arity: int | None = None) -> "InvariantFunction":
        top = max(word.indices())
        if arity is None:
            arity = top
        if top > arity:
            raise ArityError(f"word uses X_{top} beyond arity {arity}")
        return InvariantFunction("sigma", arity, sigma_index=index, word=word)

    @staticmethod
    def similitude_power(var_index: int, power: int = -1, arity: int | None = None) -> "InvariantFunction":
        if arity is None:
            arity = var_index
        if var_index > arity or var_index < 1:
            raise ArityError(f"variable index {var_index} beyond arity {arity}")
        return InvariantFunction("similitude", arity, var_index=var_index, power=power)

    def key(self) -> tuple:
        if self.kind == "sigma":
            return ("sigma", self.arity, self.sigma_index, self.word.letters)
        return ("similitude", self.arity, self.var_index, self.power)


# The two most recent (word letters, matrices, Lambda-vector) triples.  Loops
# that compare sigma_1..sigma_2d of one word on a tuple and on its conjugate
# alternate between two tuples, so two entries serve every index after the
# first.  Matrices are matched by identity: each entry holds its matrices, so
# their ids cannot be reused while cached, and RingMatrix is immutable.
_recent_lambdas: tuple = ()


def _cached_word_lambdas(word: TraceWord, mats: Sequence[RingMatrix]) -> list:
    global _recent_lambdas
    mats = tuple(mats)
    for letters, cached_mats, lams in _recent_lambdas:
        if letters == word.letters and len(cached_mats) == len(mats) and all(
            a is b for a, b in zip(cached_mats, mats)
        ):
            return lams
    lams = word_lambdas(word, mats)
    _recent_lambdas = ((word.letters, mats, lams),) + _recent_lambdas[:1]
    return lams


def eval_invariant(f: InvariantFunction, mats: Sequence[RingMatrix]) -> Fraction:
    if len(mats) != f.arity:
        raise ArityError(f"expected {f.arity} matrices, got {len(mats)}")
    n = mats[0].rows
    if n % 2:
        raise DimensionError("matrices must be 2d x 2d")
    if f.kind == "similitude":
        lam = similitude(SymplecticContext(n // 2), mats[f.var_index - 1])
        return lam**f.power
    if not 1 <= f.sigma_index <= n:
        raise DimensionError(f"sigma index {f.sigma_index} out of range for 2d = {n}")
    return _cached_word_lambdas(f.word, mats)[f.sigma_index]


def relabel(f: InvariantFunction, zeta: Sequence[int], arity: int) -> InvariantFunction:
    """f^zeta(g_1..g_n) = f(g_(zeta(1)), ..., g_(zeta(m))); zeta is 1-based."""
    if len(zeta) != f.arity:
        raise ArityError("zeta must assign every argument of f")
    if any(not 1 <= z <= arity for z in zeta):
        raise ArityError("zeta value out of range")
    if f.kind == "similitude":
        return InvariantFunction.similitude_power(zeta[f.var_index - 1], f.power, arity)
    letters = tuple((zeta[i - 1], s) for i, s in f.word.letters)
    return InvariantFunction.sigma(f.sigma_index, TraceWord(letters), arity)


def hat(f: InvariantFunction) -> InvariantFunction:
    """f-hat(g_1..g_(m+1)) = f(g_1, ..., g_m g_(m+1)).

    Substitutes X_m -> X_m X_(m+1) in the word; only defined for sigma
    functions (the similitude case with var_index = m is a product of two
    generators, not a single one).
    """
    m = f.arity
    if f.kind == "similitude":
        if f.var_index == m:
            raise SymplawError("hat of a last-argument similitude generator is not atomic")
        return InvariantFunction.similitude_power(f.var_index, f.power, m + 1)
    letters: list = []
    for i, s in f.word.letters:
        if i == m:
            # (X_m X_(m+1))^j = X_(m+1)^j X_m^j
            letters.extend([(m + 1, True), (m, True)] if s else [(m, False), (m + 1, False)])
        else:
            letters.append((i, s))
    return InvariantFunction.sigma(f.sigma_index, TraceWord(tuple(letters)), m + 1)


def check_invariance(f: InvariantFunction, mats: Sequence[RingMatrix], g: RingMatrix) -> bool:
    """Exact equality of f on mats and on g mats g^(-1) (entrywise conjugation)."""
    gi = g.inverse()
    conj = [g * m * gi for m in mats]
    return eval_invariant(f, conj) == eval_invariant(f, mats)


# -- Lie-algebra oracle ------------------------------------------------

_MAX_UNKNOWNS = 10**5


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


def multilinear_invariant_dim(d: int, m: int) -> int:
    """Dimension of Sp_2d-invariant multilinear maps (M_2d)^m -> Q.

    Brute force: the kernel dimension of infinitesimal invariance under a
    basis of sp_2d acting by commutator derivations in each slot.
    """
    n = 2 * d
    cell = n * n
    unknowns = cell**m
    if unknowns > _MAX_UNKNOWNS:
        raise CapacityError(f"{unknowns} unknowns exceed the {_MAX_UNKNOWNS} guard")
    elim = IntegerEliminator()
    for h in sp_basis(d):
        by_col = [[(i, h[i][a]) for i in range(n) if h[i][a]] for a in range(n)]
        by_row = [[(j, h[b][j]) for j in range(n) if h[b][j]] for b in range(n)]
        for flat in range(unknowns):
            # decode E: slot indices (r, c) from the flat column index
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


# -- spanning side ------------------------------------------------------


def set_partitions(items: tuple):
    """All partitions of a tuple into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1:]
        yield [(first,)] + part


def multilinear_trace_products(m: int) -> list:
    """Products of traces of words covering {1..m} exactly once each.

    Each product is a sorted tuple of canonical TraceWords, one per block
    of a set partition of {1..m}.
    """
    out = set()
    for part in set_partitions(tuple(range(1, m + 1))):
        choices = []
        for block in part:
            words = set()
            for order in permutations(block):
                for stars in product((False, True), repeat=len(block)):
                    words.add(canonical_letters(tuple(zip(order, stars))))
            choices.append(sorted(words))
        for combo in product(*choices):
            out.add(tuple(sorted(combo)))
    return [tuple(TraceWord(w) for w in combo) for combo in sorted(out)]


def trace_word_span_dim(d: int, m: int, seed: int = 0) -> int:
    """Rank of the evaluation matrix of all multilinear trace products.

    Random rational tuples, with the sample count grown until the rank is
    stable for three consecutive rounds.  Must equal
    multilinear_invariant_dim(d, m).
    """
    n = 2 * d
    if (n * n) ** m > _MAX_UNKNOWNS:
        raise CapacityError("size guard exceeded")
    ctx = SymplecticContext(d)
    products = multilinear_trace_products(m)
    rng = random.Random(seed)

    def sample_row():
        mats = [random_matrix(n, rng, 5) for _ in range(m)]
        row = []
        for prod_words in products:
            val = Fraction(1)
            for w in prod_words:
                val *= eval_trace_word(w, mats, ctx)
            row.append(val)
        return row

    rows = [sample_row() for _ in range(len(products) + 2)]
    rank = matrix_rank(rows)
    stable = 0
    while stable < 3:
        rows.extend(sample_row() for _ in range(3))
        new_rank = matrix_rank(rows)
        if new_rank == rank:
            stable += 1
        else:
            rank, stable = new_rank, 0
    return rank
