"""Trace-word invariants of matrix tuples under Sp/GSp conjugation.

A trace word is a cyclic word in the letters X_i and (X_i)^j; its trace is
invariant under simultaneous symplectic conjugation, and such traces (more
precisely the characteristic-polynomial coefficients of word values)
generate the full invariant algebra.  The generation statement is tested
empirically at desk scale: the span of multilinear trace products
(``trace_word_span_dim``) is compared against an independent oracle
(``multilinear_invariant_dim``), the space of multilinear maps killed by
sp_2d acting by commutator derivations.  Sp is connected and everything
lives over Q, so infinitesimal invariance is equivalent to group invariance
for polynomial functions.
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
from .words import evaluate

# -- trace words -------------------------------------------------------


@dataclass(frozen=True)
class TraceWord:
    """Canonical representative of a cyclic word in X_i / (X_i)^j letters."""

    letters: tuple  # of (index >= 1, starred: bool)

    def __post_init__(self):
        letters = tuple(self.letters)
        if not all(type(x) is tuple and len(x) == 2 and isinstance(x[0], int) for x in letters):
            raise TypeError(f"a trace-word letter is a pair (index, starred), got {letters!r}")
        if not letters or min(i for i, _ in letters) < 1:
            raise SymplawError(f"a trace word is nonempty, with letter indices from 1: {letters}")
        object.__setattr__(self, "letters", canonical_letters(letters))

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


def word_value(word: TraceWord, mats: Sequence[RingMatrix], ctx: SymplecticContext,
               images: dict | None = None) -> RingMatrix:
    """The product of the word's letters, X_i -> mats[i-1] and X_i* -> its symplectic transpose;
    ``images``, a dict the caller keeps for this one tuple ``mats``, memoizes letters and prefixes."""
    images = {} if images is None else images
    for letter in word.letters:
        i, starred = letter
        if i > len(mats):
            raise ArityError(f"word uses X_{i} but only {len(mats)} matrices given")
        if (letter,) not in images:
            images[letter,] = symplectic_transpose(ctx, mats[i - 1]) if starred else mats[i - 1]
    return evaluate(word.letters, images)


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
        if not isinstance(word, TraceWord):
            raise TypeError(f"expected a TraceWord, got {type(word).__name__}")
        top = max(word.indices())
        if arity is None:
            arity = top
        if top > arity:
            raise ArityError(f"word uses X_{top} beyond arity {arity}")
        return InvariantFunction("sigma", arity, sigma_index=index, word=word)

    @staticmethod
    def similitude_power(var_index: int, power: int = -1, arity: int | None = None) -> "InvariantFunction":
        if type(var_index) is not int or type(power) is not int:
            raise TypeError(f"variable index and power must be ints, got {var_index!r}, {power!r}")
        if arity is None:
            arity = var_index
        if var_index > arity or var_index < 1:
            raise ArityError(f"variable index {var_index} beyond arity {arity}")
        return InvariantFunction("similitude", arity, var_index=var_index, power=power)

    def key(self) -> tuple:
        if self.kind == "sigma":
            return ("sigma", self.arity, self.sigma_index, self.word.letters)
        return ("similitude", self.arity, self.var_index, self.power)


# bounds the size of lambda^k: |k| times the longer bit length of lambda's numerator and denominator
_MAX_POWER_BITS = 1 << 20


def eval_invariant(f: InvariantFunction, mats: Sequence[RingMatrix],
                   lambdas: dict | None = None, images: dict | None = None) -> Fraction:
    """f at mats.  ``lambdas``, a dict the caller keeps, memoizes the Lambda-vector of each
    word value by its cleared form (B, delta); a value without one, or a call without
    ``lambdas``, is not memoized.  ``images`` is word_value's prefix memo for this one tuple.
    """
    if len(mats) != f.arity:
        raise ArityError(f"expected {f.arity} matrices, got {len(mats)}")
    if not all(isinstance(m, RingMatrix) for m in mats):
        raise TypeError("the arguments of an invariant function must be RingMatrix values")
    n = mats[0].rows
    for m in mats:  # a plain loop: any() over a generator costs more than these few matrices
        if n % 2 or m.rows != n or m.cols != n:
            raise DimensionError("matrices must be 2d x 2d, all of one size")
    ctx = SymplecticContext(n // 2)
    if f.kind == "similitude":
        lam = similitude(ctx, mats[f.var_index - 1])
        bits = abs(f.power) * max(map(int.bit_length, lam.as_integer_ratio()))
        if abs(lam) != 1 and bits > _MAX_POWER_BITS:
            raise CapacityError(f"lambda^{f.power} is over the {_MAX_POWER_BITS}-bit guard")
        return lam**f.power
    if not 1 <= f.sigma_index <= n:
        raise DimensionError(f"sigma index {f.sigma_index} out of range for 2d = {n}")
    value = word_value(f.word, mats, ctx, images)
    key = value.cleared()
    if lambdas is None or key is None:
        return lambdas_of_matrix(value)[f.sigma_index]
    lams = lambdas.get(key)
    if lams is None:
        lams = lambdas[key] = lambdas_of_matrix(value)
    return lams[f.sigma_index]


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


def check_invariance(fs: Sequence[InvariantFunction], mats: Sequence[RingMatrix],
                     g: RingMatrix) -> InvariantFunction | None:
    """The first f of fs whose value on g mats g^(-1) differs from that on mats, else None."""
    if not isinstance(g, RingMatrix):
        raise TypeError(f"conjugation needs a RingMatrix, got {type(g).__name__}")
    gi = g.inverse()
    conj = [g * m * gi for m in mats]
    memo, images, conj_images = {}, {}, {}  # the Lambda-vector memo; a prefix memo per tuple
    return next((f for f in fs if eval_invariant(f, conj, memo, conj_images)
                 != eval_invariant(f, mats, memo, images)), None)


# -- Lie-algebra oracle ------------------------------------------------

_MAX_UNKNOWNS = 10**5
_MAX_WEIGHT_ZERO = 2000  # bounds the elimination's time: 1860 unknowns at (3, 3) take 0.4 s


def _check_sizes(d: int, m: int):
    if d < 1:
        raise DimensionError("half-dimension d must be >= 1")
    if m < 0:
        raise SymplawError("arity m must be >= 0")
    if (4 * d * d) ** m > _MAX_UNKNOWNS:
        raise CapacityError(f"{(4 * d * d) ** m} unknowns exceed the {_MAX_UNKNOWNS} guard")


def simple_root_vectors(d: int) -> list:
    """The simple root vectors of sp_2d, each as ((row, col, value), ...).

    With 1-based indices, e_i = E_(i,i+1) - E_(d+i+1,d+i) of root
    eps_i - eps_(i+1) for i < d, and e_d = E_(d,2d) of root 2 eps_d.
    """
    short = [((i, i + 1, 1), (d + i + 1, d + i, -1)) for i in range(d - 1)]
    return short + [((d - 1, 2 * d - 1, 1),)]


def multilinear_invariant_dim(d: int, m: int) -> int:
    """Dimension of Sp_2d-invariant multilinear maps (M_2d)^m -> Q.

    A coordinate ((r_1, c_1), ..., (r_m, c_m)) has torus weight sum_k eps(r_k) -
    eps(c_k), with eps(i) = e_i for i < d and -e_(i-d) otherwise.  The Cartan
    elements kill an invariant, so it lies in the weight-zero coordinates V_0,
    and a vector of V_0 killed by the simple root vectors e_i is a highest-weight
    vector of weight 0, hence invariant: this is the kernel dimension of
    V_0 -> (+)_i V_(-alpha_i), v -> (e_i . v)_i, e_i acting by commutator
    derivations in each slot.  Size guards count all (4d^2)^m coordinates and those of weight 0.
    """
    _check_sizes(d, m)
    n = 2 * d
    eps = [tuple((k == i) - (k == i - d) for k in range(d)) for i in range(n)]
    slots: dict = {}  # weight -> the slot entries (r, c) of that weight
    for r, c in product(range(n), repeat=2):
        slots.setdefault(tuple(a - b for a, b in zip(eps[r], eps[c])), []).append((r, c))

    # coordinates by weight, slot by slot; a slot moves the norm by <= 2, so drop prefixes
    # that cannot end at norm <= 2, where the targets 0 and -alpha_i lie
    coords = {(0,) * d: [()]}
    for left in range(m - 1, -1, -1):
        grown: dict = {}
        for w, prefixes in coords.items():
            for sw, cells in slots.items():
                key = tuple(a + b for a, b in zip(w, sw))
                if sum(map(abs, key)) <= 2 * left + 2:
                    grown.setdefault(key, []).extend(x + (rc,) for x in prefixes for rc in cells)
        coords = grown
    zero = {coord: col for col, coord in enumerate(coords.get((0,) * d, ()))}
    if len(zero) > _MAX_WEIGHT_ZERO:
        raise CapacityError(f"{len(zero)} weight-zero unknowns exceed the {_MAX_WEIGHT_ZERO} guard")
    elim = IntegerEliminator()
    for entries in simple_root_vectors(d):
        top, bottom, _ = entries[0]
        # e raises weight by its root eps(top) - eps(bottom): its equations on V_0 sit at -root
        for coord in coords.get(tuple(b - a for a, b in zip(eps[top], eps[bottom])), ()):
            row: dict = {}
            for k, (r, c) in enumerate(coord):
                # the coefficient of X[r, c] in f(.., e X - X e, ..), f read at coordinates of V_0
                for i, j, v in entries:
                    if j == r:
                        col = zero[coord[:k] + ((i, c),) + coord[k + 1:]]
                        row[col] = row.get(col, 0) + v
                    if i == c:
                        col = zero[coord[:k] + ((r, j),) + coord[k + 1:]]
                        row[col] = row.get(col, 0) - v
            elim.add_row(row)
    return len(zero) - elim.rank


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

    One row per random rational tuple.  The search stops at once if the
    first len(products) rows already have rank len(products), the column
    count, which no further row can pass; otherwise it draws two more rows
    and grows the sample count until the rank is stable for three
    consecutive rounds.  The rank of a growing set of rows never falls, so
    the early stop returns the rank that the rounds would.  Must equal
    multilinear_invariant_dim(d, m).
    """
    _check_sizes(d, m)
    n = 2 * d
    ctx = SymplecticContext(d)
    products = multilinear_trace_products(m)
    rng = random.Random(seed)

    def sample_row():
        mats = [random_matrix(n, rng, 5) for _ in range(m)]
        row, images = [], {}  # one prefix memo per tuple
        for prod_words in products:
            val = Fraction(1)
            for w in prod_words:
                val *= word_value(w, mats, ctx, images).trace()
            row.append(val)
        return row

    rows = [sample_row() for _ in products]
    rank = matrix_rank(rows)
    if rank == len(products):
        return rank
    rows += [sample_row(), sample_row()]
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
