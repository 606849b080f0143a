"""The standard symplectic form, Pfaffians, and exact symplectic sampling.

The standard form on 2d coordinates is J = [[0, Id], [-Id, 0]].  The
symplectic transpose is M^j = J M^T J^(-1); matrices fixed by it are
"j-symmetric" and M J is then alternating, so Pf(MJ) makes sense.  Pf(J)
itself is (-1)^(d(d-1)/2), which is -1 for d = 2, 3 (mod 4); the reduced
Pfaffian divides by it so that the identity always maps to 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionError, NotASimilitudeError, StructureError, VariableError
from .matrices import (
    RingMatrix,
    _integer_rows,
    entry_is_zero,
    entry_vars,
    exact_scalar,
    lambdas_from_char_poly,
)
from .multipoly import MultiPoly, Ring, fresh_var


def standard_j(d: int) -> RingMatrix:
    """J = [[0, Id_d], [-Id_d, 0]]."""
    n = 2 * d
    rows = []
    for i in range(n):
        row = [Fraction(0)] * n
        if i < d:
            row[i + d] = Fraction(1)
        else:
            row[i - d] = Fraction(-1)
        rows.append(row)
    return RingMatrix(rows)


@dataclass(frozen=True)
class SymplecticContext:
    d: int
    J: RingMatrix = field(init=False, repr=False)
    pfaffian_of_J: Fraction = field(init=False)

    def __post_init__(self):
        if self.d < 1:
            raise DimensionError("half-dimension d must be >= 1")
        object.__setattr__(self, "J", standard_j(self.d))
        sign = Fraction(-1) if (self.d * (self.d - 1) // 2) % 2 else Fraction(1)
        object.__setattr__(self, "pfaffian_of_J", sign)

    @property
    def n(self) -> int:
        return 2 * self.d


def _check_size(ctx: SymplecticContext, m: RingMatrix):
    if m.rows != ctx.n or m.cols != ctx.n:
        raise DimensionError(f"expected a {ctx.n}x{ctx.n} matrix, got {m.rows}x{m.cols}")


def symplectic_transpose(ctx: SymplecticContext, m: RingMatrix) -> RingMatrix:
    """M^j = J M^T J^(-1).  An involutive anti-homomorphism.

    J is a signed permutation, so no products are needed: for
    M = [[A, B], [C, D]] in d x d blocks, M^j = [[D^T, -B^T], [-C^T, A^T]].
    """
    _check_size(ctx, m)
    d, n, e = ctx.d, ctx.n, m.entries
    swap = list(range(d, n)) + list(range(d))  # J sends coordinate k to swap[k]
    return RingMatrix(
        [[e[swap[j]][swap[i]] if (i < d) == (j < d) else -e[swap[j]][swap[i]] for j in range(n)]
         for i in range(n)]
    )


def is_alternating(a: RingMatrix) -> bool:
    if not a.is_square():
        return False
    for i in range(a.rows):
        for k in range(i, a.cols):
            if not (a[i, k] == -a[k, i]):
                return False
    return True


def is_j_symmetric(ctx: SymplecticContext, m: RingMatrix) -> bool:
    return symplectic_transpose(ctx, m) == m


def pfaffian(a: RingMatrix) -> Ring:
    """Pfaffian of an alternating matrix, by first-row expansion with memoization.

    Division-free, so it works for polynomial entries; equals the Leibniz
    sum (1/(2^n n!)) sum_sigma sgn(sigma) prod a_(sigma(2i-1),sigma(2i)),
    and Pf(A)^2 = det(A).  For rational A = B / delta it is Pf(B) / delta^(n/2).
    """
    if not a.is_square() or a.rows % 2 != 0:
        raise StructureError(f"Pfaffian needs an even square matrix, got {a.rows}x{a.cols}")
    if not is_alternating(a):
        raise StructureError("Pfaffian of a non-alternating matrix")
    ints = _integer_rows(a.entries)
    if ints is None:
        return exact_scalar(_pfaffian_expansion(a.entries))
    b, den = ints
    return Fraction(_pfaffian_expansion(b), den ** (a.rows // 2))


def _pfaffian_expansion(a) -> Ring:
    """Pf of the alternating rows ``a``; the int 0 if every term vanishes."""
    memo: dict = {(): 1}

    def pf(indices: tuple) -> Ring:
        if indices in memo:
            return memo[indices]
        i0 = indices[0]
        rest = indices[1:]
        acc = None
        sign = 1
        for pos, k in enumerate(rest):
            entry = a[i0][k]
            if not entry_is_zero(entry):
                term = entry * pf(rest[:pos] + rest[pos + 1:])
                if sign < 0:
                    term = -term
                acc = term if acc is None else acc + term
            sign = -sign
        memo[indices] = 0 if acc is None else acc
        return memo[indices]

    return pf(tuple(range(len(a))))


def reduced_pfaffian(ctx: SymplecticContext, m: RingMatrix) -> Ring:
    """Pf(MJ) / Pf(J) for j-symmetric M; satisfies value 1 at the identity."""
    _check_size(ctx, m)
    if not is_j_symmetric(ctx, m):
        raise StructureError("reduced Pfaffian requires M^j = M")
    return pfaffian(m * ctx.J) * ctx.pfaffian_of_J  # Pf(J) = +-1, so * == /


def pfaffian_char_poly(ctx: SymplecticContext, m: RingMatrix, var: str | None = None) -> MultiPoly:
    """Reduced Pfaffian of (t*Id - M): monic of degree d, its square is char_poly(M)."""
    _check_size(ctx, m)
    if not is_j_symmetric(ctx, m):
        raise StructureError("Pfaffian characteristic polynomial requires M^j = M")
    taken = entry_vars(m)
    if var is None:
        var = fresh_var("t", taken)
    elif var in taken:
        raise VariableError(f"matrix entries already use variable {var!r}")
    t = MultiPoly.variable(var)
    shifted = RingMatrix.scalar(ctx.n, t) - m
    p = reduced_pfaffian(ctx, shifted)
    if isinstance(p, Fraction):
        p = MultiPoly.constant(p, (var,))
    return p


def pfaffian_coeffs_of_matrix(ctx: SymplecticContext, m: RingMatrix, var: str | None = None) -> list:
    """[T_0..T_d] with Pf char poly = sum (-1)^i T_i t^(d-i)."""
    if var is None:
        var = fresh_var("t", entry_vars(m))
    return lambdas_from_char_poly(pfaffian_char_poly(ctx, m, var), ctx.d, var)


def matrix_poly_value(coeffs: list, m: RingMatrix) -> RingMatrix:
    """Evaluate sum (-1)^i coeffs[i] * M^(deg-i) for coeffs = [c_0..c_deg]."""
    deg = len(coeffs) - 1
    acc = RingMatrix.zeros(m.rows, m.cols)
    # powers M^0..M^deg; M^1 is M itself, so no product starts from the identity
    powers = [RingMatrix.identity(m.rows), m]
    for _ in range(deg - 1):
        powers.append(powers[-1] * m)
    for i, c in enumerate(coeffs):
        term = powers[deg - i] * c
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def similitude(ctx: SymplecticContext, m: RingMatrix) -> Fraction:
    """The scalar lambda with M^j M = lambda * Id (the GSp similitude character)."""
    _check_size(ctx, m)
    prod = symplectic_transpose(ctx, m) * m
    lam = prod[0, 0]
    if RingMatrix.scalar(ctx.n, lam) != prod:
        raise NotASimilitudeError("M^j M is not scalar")
    if isinstance(lam, MultiPoly):
        lam = lam.constant_value()
    if lam == 0:
        raise NotASimilitudeError("similitude factor is zero (singular matrix)")
    return lam


# -- exact random sampling -------------------------------------------


def _rand_fraction(rng: random.Random, magnitude: int) -> Fraction:
    return Fraction(rng.randint(-magnitude, magnitude), rng.choice((1, 2)))


def random_matrix(n: int, rng: random.Random, magnitude: int = 5) -> RingMatrix:
    return RingMatrix([[_rand_fraction(rng, magnitude) for _ in range(n)] for _ in range(n)])


def random_alternating(n: int, rng: random.Random, magnitude: int = 5) -> RingMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = _rand_fraction(rng, magnitude)
            rows[i][j] = x
            rows[j][i] = -x
    return RingMatrix(rows)


def _rand_symmetric_block(d: int, rng: random.Random, magnitude: int) -> list:
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            x = _rand_fraction(rng, magnitude)
            rows[i][j] = x
            rows[j][i] = x
    return rows


def _rand_antisymmetric_block(d: int, rng: random.Random, magnitude: int) -> list:
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            x = _rand_fraction(rng, magnitude)
            rows[i][j] = x
            rows[j][i] = -x
    return rows


def random_j_symmetric(ctx: SymplecticContext, rng: random.Random, magnitude: int = 5) -> RingMatrix:
    """Random M with M^j = M: blocks [[D, B], [C, D^T]] with B, C antisymmetric."""
    d = ctx.d
    dblock = [[_rand_fraction(rng, magnitude) for _ in range(d)] for _ in range(d)]
    b = _rand_antisymmetric_block(d, rng, magnitude)
    c = _rand_antisymmetric_block(d, rng, magnitude)
    rows = []
    for i in range(d):
        rows.append(dblock[i] + b[i])
    for i in range(d):
        rows.append(c[i] + [dblock[j][i] for j in range(d)])
    return RingMatrix(rows)


def random_sp_lie(ctx: SymplecticContext, rng: random.Random, magnitude: int = 3) -> RingMatrix:
    """Random H in sp_2d: blocks [[A, B], [C, -A^T]] with B, C symmetric."""
    d = ctx.d
    a = [[_rand_fraction(rng, magnitude) for _ in range(d)] for _ in range(d)]
    b = _rand_symmetric_block(d, rng, magnitude)
    c = _rand_symmetric_block(d, rng, magnitude)
    rows = []
    for i in range(d):
        rows.append(a[i] + b[i])
    for i in range(d):
        rows.append(c[i] + [-a[j][i] for j in range(d)])
    return RingMatrix(rows)


def sample_symplectic(ctx: SymplecticContext, seed: int, magnitude: int = 3) -> RingMatrix:
    """Cayley transform S = (Id - H)^(-1)(Id + H) of a seeded H in sp_2d.

    Deterministic in the seed; retries with a perturbed seed if Id - H is
    singular.  The defining relation S^T J S = J is checked exactly before
    returning.
    """
    n = ctx.n
    ident = RingMatrix.identity(n)
    for attempt in range(64):
        rng = random.Random(seed * 1000003 + attempt)
        h = random_sp_lie(ctx, rng, magnitude)
        try:
            s = (ident - h).inverse() * (ident + h)
        except ZeroDivisionError:
            continue
        if s.transpose() * ctx.J * s != ctx.J:
            raise StructureError("Cayley transform left the symplectic group")  # unreachable
        return s
    raise StructureError("could not sample a symplectic matrix (singular Id - H persisted)")


def sample_similitude(
    ctx: SymplecticContext, seed: int, magnitude: int = 3, factor: Fraction | int = 1
) -> RingMatrix:
    """A GSp_2d element with similitude exactly ``factor``: Sp sample * diag(factor*Id, Id)."""
    factor = Fraction(factor)
    if factor == 0:
        raise NotASimilitudeError("similitude factor must be nonzero")
    s = sample_symplectic(ctx, seed, magnitude)
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
