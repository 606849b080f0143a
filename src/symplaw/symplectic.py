"""The standard symplectic form, Pfaffians, and integral symplectic sampling.

The standard form on 2d coordinates is J = [[0, Id], [-Id, 0]].  The
symplectic transpose is M^j = J M^T J^(-1); matrices fixed by it are
"j-symmetric" and M J is then alternating, so Pf(MJ) makes sense.  Pf(J)
itself is -1 for d = 2, 3 (mod 4); the reduced Pfaffian Pf(MJ) / Pf(J)
divides by it so that the identity always maps to 1.  ``pfaffian`` splits
by entry form as ``matrices.mat_det`` does.

J, and the block form J_delta of a generalized matrix algebra (``gma``),
are each held as a ``SignedPermutation``: one +-1 per row.  Its two kernels,
the adjoint J tau(M)^T J^(-1) and the right product M J, move entries of M
and negate some, so they cost no ring products and keep the cleared form of
a rational M.  The form computes its own Pfaffian once; its unchecked
``reduced_pfaffian`` is the Pfaffian law of both forms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from operator import mul
from typing import Callable, Sequence

from .errors import DimensionError, NotASimilitudeError, StructureError, VariableError
from .matrices import (
    RingMatrix,
    _is_square,
    entry_vars,
    exact_scalar,
    matrix_from_ratios,
)
from .multipoly import MultiPoly, Ring, fresh_var


class SignedPermutation:
    """The form whose row a holds sign[a] = +-1 in column perm[a] and is zero elsewhere.

    Such a form is orthogonal, J^(-1) = J^T.  ``twist(p, q)`` is the +-1 by
    which tau scales entry (p, q) of M before the adjoint; it is 1 for J.
    """

    def __init__(self, perm: Sequence[int], sign: Sequence[int],
                 twist: Callable[[int, int], int] = lambda p, q: 1):
        self.perm, self.sign = tuple(perm), tuple(sign)
        # entry (a, b) of J tau(M)^T J^T is sign[a] sign[b] tau(M)[perm[b]][perm[a]]
        self._adjoint_signs = tuple(
            tuple(sa * sb * twist(pb, pa) for pb, sb in zip(self.perm, self.sign))
            for pa, sa in zip(self.perm, self.sign)
        )
        # column perm[c] of M J is sign[c] times column c of M
        self._columns = tuple(sorted(zip(self.perm, range(len(perm)), self.sign)))

    @staticmethod
    @cache
    def standard(d: int) -> "SignedPermutation":
        """J = [[0, Id_d], [-Id_d, 0]], built once per d: row k < d holds +1 in column k + d."""
        return SignedPermutation([*range(d, 2 * d), *range(d)], [1] * d + [-1] * d)

    @cached_property
    def matrix(self) -> RingMatrix:
        n = len(self.perm)
        return RingMatrix([[s if b == p else 0 for b in range(n)]
                           for p, s in zip(self.perm, self.sign)])

    def adjoint(self, m: RingMatrix) -> RingMatrix:
        """J tau(M)^T J^(-1): entry (a, b) is the tabled sign times M[perm[b]][perm[a]]."""
        perm, signs = self.perm, self._adjoint_signs

        def flip(e):
            rows = [e[p] for p in perm]
            return [[r[q] if s > 0 else -r[q] for r, s in zip(rows, row_signs)]
                    for q, row_signs in zip(perm, signs)]

        return m.rearranged(flip)

    def fixes(self, m: RingMatrix) -> bool:
        """adjoint(m) == m for a square m of the form's size, read in place: stops at the first
        entry that differs, on the integers B of a rational m = B / delta, as delta is shared."""
        cleared = m.cleared()
        e = m.entries if cleared is None else cleared[0]
        return all((e[p][q] if s > 0 else -e[p][q]) == y
                   for row, q, row_signs in zip(e, self.perm, self._adjoint_signs)
                   for y, p, s in zip(row, self.perm, row_signs))

    def right_product(self, m: RingMatrix) -> RingMatrix:
        """M J: column perm[c] is sign[c] times column c of M."""
        cols = self._columns
        return m.rearranged(
            lambda e: [[row[c] if s > 0 else -row[c] for _, c, s in cols] for row in e]
        )

    @cached_property
    def pfaffian(self) -> Fraction:
        """Pf(J), +-1 since Pf(J)^2 = det(J) = 1 for an alternating signed permutation."""
        return pfaffian(self.matrix)

    def reduced_pfaffian(self, m: RingMatrix) -> Ring:
        """Pf(M J) / Pf(J) for an M that makes M J alternating; Pf(J) = +-1, so * equals /."""
        return pfaffian(self.right_product(m)) * self.pfaffian


@dataclass(frozen=True)
class SymplecticContext:
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise DimensionError("half-dimension d must be >= 1")

    @property
    def n(self) -> int:
        return 2 * self.d

    @property
    def form(self) -> SignedPermutation:
        """The standard form as a signed permutation, one per d."""
        return SignedPermutation.standard(self.d)

    @property
    def J(self) -> RingMatrix:
        return self.form.matrix


def _check_size(ctx: SymplecticContext, m: RingMatrix):
    if not _is_square(m) or m.rows != ctx.n:
        raise DimensionError(f"expected a {ctx.n}x{ctx.n} matrix, got {m.rows}x{m.cols}")


def symplectic_transpose(ctx: SymplecticContext, m: RingMatrix) -> RingMatrix:
    """M^j = J M^T J^(-1).  An involutive anti-homomorphism.

    The adjoint of the standard form, a reindexing of M: for
    M = [[A, B], [C, D]] in d x d blocks, M^j = [[D^T, -B^T], [-C^T, A^T]].
    """
    _check_size(ctx, m)
    return ctx.form.adjoint(m)


def is_alternating(a: RingMatrix) -> bool:
    if not _is_square(a):
        return False
    form = a.cleared()
    e = a.entries if form is None else form[0]
    return all(e[i][k] == -e[k][i] for i in range(a.rows) for k in range(i, a.cols))


def pfaffian(a: RingMatrix) -> Ring:
    """Pfaffian of an alternating matrix; Pf(A)^2 = det(A).

    Equals the Leibniz sum (1/(2^n n!)) sum_sigma sgn(sigma) prod
    a_(sigma(2i-1),sigma(2i)).  A rational A = B / delta goes to the
    fraction-free skew elimination on B, and Pf(A) = Pf(B) / delta^(n/2);
    any other A to the division-free first-row expansion on its entries.
    """
    if not _is_square(a) or a.rows % 2 != 0:
        raise StructureError(f"Pfaffian needs an even square matrix, got {a.rows}x{a.cols}")
    if not is_alternating(a):
        raise StructureError("Pfaffian of a non-alternating matrix")
    form = a.cleared()
    if form is None:
        return exact_scalar(_pfaffian_expansion(a.entries))
    b, den = form
    return Fraction(_pfaffian_elimination(b), den ** (a.rows // 2))


def _pfaffian_elimination(b) -> int:
    """Pf of the alternating integer rows ``b``, by fraction-free skew elimination, O(n^3)
    (J. R. Bunch, Math. Comp. 38, 1982).

    Step k (k even) pivots on a[k][k+1], after which a[i][j] for k+1 < i < j
    holds the Pfaffian of the indices 0..k+1, i, j; each update divides
    exactly by the previous pivot, by the overlapping-Pfaffian identity
    (Knuth, "Overlapping Pfaffians", 1996), as in Bareiss elimination.
    A zero pivot swaps index k+1 with the first j that row k reaches,
    which negates the Pfaffian; if row k reaches none, Pf = 0.
    """
    a = [list(row) for row in b]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(0, n, 2):
        rk = a[k]
        if not rk[k + 1]:
            j = next((j for j in range(k + 2, n) if rk[j]), None)
            if j is None:
                return 0
            a[k + 1], a[j] = a[j], a[k + 1]
            for row in a[k:]:
                row[k + 1], row[j] = row[j], row[k + 1]
            sign = -sign
        p, rl = rk[k + 1], a[k + 1]
        for i in range(k + 2, n):
            ri, ki, li = a[i], rk[i], rl[i]
            for j in range(i + 1, n):
                ri[j] = x = (p * ri[j] - ki * rl[j] + rk[j] * li) // prev
                a[j][i] = -x
        prev = p
    return sign * prev


def _pfaffian_expansion(a) -> Ring:
    """Pf of the alternating rows ``a`` of a polynomial matrix; the int 0 if every term vanishes.

    Division-free first-row expansion, O(2^n n) ring operations; the memo is
    keyed on the bitmask of the indices still to be paired.
    """
    memo: dict = {0: 1}

    def pf(mask: int) -> Ring:
        if mask in memo:
            return memo[mask]
        low = mask & -mask
        row = a[low.bit_length() - 1]
        rest = mask ^ low
        acc = None
        sign = 1
        left = rest
        while left:
            low = left & -left
            entry = row[low.bit_length() - 1]
            if entry:
                term = entry * pf(rest ^ low)
                if sign < 0:
                    term = -term
                acc = term if acc is None else acc + term
            sign = -sign
            left ^= low
        memo[mask] = 0 if acc is None else acc
        return memo[mask]

    return pf((1 << len(a)) - 1)


def reduced_pfaffian(ctx: SymplecticContext, m: RingMatrix) -> Ring:
    """Pf(MJ) / Pf(J) for j-symmetric M, 1 at the identity; M J is alternating exactly when
    J M^T = M J, that is M^j = M, so ``pfaffian`` refuses any other M with StructureError."""
    _check_size(ctx, m)
    return ctx.form.reduced_pfaffian(m)


def pfaffian_char_poly(ctx: SymplecticContext, m: RingMatrix, var: str | None = None) -> MultiPoly:
    """Reduced Pfaffian of (t*Id - M): monic of degree d, its square is char_poly(M); as
    (t Id - M) J = t J - M J, an M with M^j != M is refused as in ``reduced_pfaffian``."""
    _check_size(ctx, m)
    taken = entry_vars(m)
    if var is None:
        var = fresh_var("t", taken)
    elif var in taken:
        raise VariableError(f"matrix entries already use variable {var!r}")
    # t Id - M is j-symmetric with M, and its reduced Pfaffian has the term t^d
    return ctx.form.reduced_pfaffian(RingMatrix.scalar(ctx.n, MultiPoly.variable(var)) - m)


def pfaffian_coeffs_of_matrix(ctx: SymplecticContext, m: RingMatrix) -> tuple:
    """(T_0..T_d) with Pf char poly = sum (-1)^i T_i t^(d-i), split by ``coefficients_in`` t;
    each T_i through ``exact_scalar``, as the Lambda_i: a Fraction if constant, else a MultiPoly."""
    var = fresh_var("t", entry_vars(m))
    buckets = pfaffian_char_poly(ctx, m, var).coefficients_in(var)
    coeffs = [buckets.get(ctx.d - i, 0) for i in range(ctx.d + 1)]
    return tuple([exact_scalar(-c if i % 2 else c) for i, c in enumerate(coeffs)])


def matrix_poly_value(coeffs: Sequence, m: RingMatrix, product: Callable = mul) -> RingMatrix:
    """Evaluate sum (-1)^i coeffs[i] * M^(deg-i) for coeffs = (c_0..c_deg), by Horner's rule.

    Each step multiplies by M and adds the next signed coefficient on the
    diagonal, so it makes deg - 1 matrix products, each ``product(acc, M)``:
    the plain matrix product unless a caller, such as a quotient ring that
    reduces each entry as it forms, passes its own.
    """
    if not _is_square(m):
        raise DimensionError("polynomial value at a non-square matrix")
    signed = [c if i % 2 == 0 else -c for i, c in enumerate(coeffs)]
    if len(signed) < 2:  # a constant, or the empty sum
        return RingMatrix.scalar(m.rows, sum(signed))
    acc = m if signed[0] == 1 else m * signed[0]
    for c in signed[1:-1]:
        acc = product(acc._shifted(c), m)
    return acc._shifted(signed[-1])


def similitude(ctx: SymplecticContext, m: RingMatrix) -> Fraction:
    """The scalar lambda with M^j M = lambda * Id (the GSp similitude character).

    M^j M = lambda Id exactly when M^T J M = lambda J, and M^T J M is
    alternating, so only its upper triangle is formed: entry (a, b) is
    omega(col a, col b) = sum_i (x_i y_(i+d) - x_(i+d) y_i), on the cleared
    rows B of a rational M = B / delta, where lambda = omega(col 0, col d) / delta^2.
    """
    _check_size(ctx, m)
    d, n = ctx.d, ctx.n
    form = m.cleared()
    halves = [(c[:d], c[d:]) for c in zip(*(m.entries if form is None else form[0]))]

    def omega(a: int, b: int) -> Ring:
        (xt, xb), (yt, yb) = halves[a], halves[b]
        return sum(map(mul, xt, yb)) - sum(map(mul, xb, yt))

    lam = omega(0, d)
    if any(omega(a, b) != (lam if b == a + d else 0) for a in range(n) for b in range(a + 1, n)):
        raise NotASimilitudeError("M^j M is not scalar")
    if form is not None:
        lam = Fraction(lam, form[1] ** 2)
    elif isinstance(lam, MultiPoly):
        if not lam.is_constant():
            raise NotASimilitudeError(f"similitude factor is not a constant: {lam}")
        lam = lam.constant_value()
    if lam == 0:
        raise NotASimilitudeError("similitude factor is zero (singular matrix)")
    return Fraction(lam)


# -- exact random sampling -------------------------------------------


def _rand_ratio(rng: random.Random, magnitude: int) -> tuple:
    """(p, q) for the rational p/q: p drawn uniformly from [-magnitude, magnitude], then q from {1, 2}."""
    return rng.randint(-magnitude, magnitude), rng.choice((1, 2))


def random_matrix(n: int, rng: random.Random, magnitude: int = 5) -> RingMatrix:
    """An n x n matrix of entries p/q, |p| <= magnitude and q in {1, 2}, drawn row by row.

    Each entry draws p and then q from ``rng``; the matrix is built straight
    from the integer pairs in cleared form.
    """
    return matrix_from_ratios([[_rand_ratio(rng, magnitude) for _ in range(n)] for _ in range(n)])


def random_alternating(n: int, rng: random.Random) -> RingMatrix:
    return matrix_from_ratios(_rand_alternating_rows(n, rng, 5))


def _rand_alternating_rows(n: int, rng: random.Random, magnitude: int) -> list:
    """Random n x n rows of pairs (p, q) with entry (j, i) = -entry (i, j) and a zero diagonal."""
    rows = [[(0, 1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p, q = _rand_ratio(rng, magnitude)
            rows[i][j] = (p, q)
            rows[j][i] = (-p, q)
    return rows


def random_j_symmetric(ctx: SymplecticContext, rng: random.Random, magnitude: int = 5) -> RingMatrix:
    """Random M with M^j = M: blocks [[D, B], [C, D^T]] with B, C antisymmetric."""
    d = ctx.d
    a = [[_rand_ratio(rng, magnitude) for _ in range(d)] for _ in range(d)]
    b = _rand_alternating_rows(d, rng, magnitude)
    c = _rand_alternating_rows(d, rng, magnitude)
    return matrix_from_ratios([a[i] + b[i] for i in range(d)]
                              + [c[i] + list(col) for i, col in enumerate(zip(*a))])


def sample_symplectic(ctx: SymplecticContext, seed: int) -> RingMatrix:
    """A product U(S_1) L(T_1) U(S_2) L(T_2) of unipotent generators of Sp_2d(Z).

    U(S) = [[Id, S], [0, Id]] and L(T) = [[Id, 0], [T, Id]] for symmetric d x d integer blocks,
    whose upper triangles, row by row, come from one ``choices`` draw over +-1, +-2, +-3 of
    ``random.Random(seed)`` (a 0 would make some samples Id, and more of them commute).  These
    factors generate Sp_2d(Z) (Hua and Reiner, 1949), which is Zariski dense in Sp_2d.  Each
    is a block-column update of integer rows, so a sample has denominator 1; its similitude 1
    is checked exactly before returning.
    """
    d = ctx.d
    draws = iter(random.Random(seed).choices((-3, -2, -1, 1, 2, 3), k=2 * d * (d + 1)))
    rows = [[int(i == j) for j in range(ctx.n)] for i in range(ctx.n)]
    for k in range(4):
        block = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                block[i][j] = block[j][i] = next(draws)
        src, dst = (0, d) if k % 2 == 0 else (d, 0)  # M U(S) adds x S to y, M L(T) adds y T to x
        for row in rows:
            x = row[src:src + d]
            for j, col in enumerate(block):  # column j of a symmetric block is its row j
                row[dst + j] += sum(map(mul, x, col))
    s = matrix_from_ratios([[(x, 1) for x in row] for row in rows])
    if similitude(ctx, s) != 1:  # reached only through a faulty kernel
        raise StructureError("a product of unipotent generators left the symplectic group")
    return s


def sample_similitude(ctx: SymplecticContext, seed: int, factor: Fraction | int = 1) -> RingMatrix:
    """A GSp_2d element with similitude exactly ``factor``: Sp sample * diag(factor*Id, Id).
    TypeError unless ``factor`` is an exact rational."""
    factor = Fraction(exact_scalar(factor))
    if factor == 0:
        raise NotASimilitudeError("similitude factor must be nonzero")
    s = sample_symplectic(ctx, seed)
    d = ctx.d
    scale = RingMatrix(
        [[(factor if i == j and i < d else Fraction(1) if i == j else Fraction(0))
          for j in range(ctx.n)] for i in range(ctx.n)]
    )
    return s * scale


def power_traces(m: RingMatrix, upto: int) -> list:
    """[tr M, tr M^2, ..., tr M^upto]."""
    out = []
    p = m
    for k in range(upto):
        if k:
            p = p * m
        out.append(p.trace())
    return out
