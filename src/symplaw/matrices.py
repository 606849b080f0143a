"""Dense matrices over exact scalars (Fraction) or MultiPoly entries.

Determinants are exact: division-free cofactor expansion (dynamic
programming over column subsets) for polynomial entries and small sizes,
Bareiss fraction-free elimination for larger rational matrices.  The
characteristic polynomial uses Berkowitz's division-free algorithm
(S. J. Berkowitz, IPL 18, 1984): O(n^4) ring operations on the entries
themselves, so it serves rational, polynomial and quotient-ring entries
alike.  Every check in this library lives at dimension <= 12, so no sparse
or asymptotically clever machinery is needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import DimensionError, VariableError
from .multipoly import MultiPoly, Ring, fresh_var

_BAREISS_MIN = 7  # cofactor DP below this, per the exactness/size tradeoff


def exact_scalar(x) -> Ring:
    """``x`` as a ring element: Fraction and MultiPoly pass through, int becomes Fraction."""
    if isinstance(x, (Fraction, MultiPoly)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"scalar must be exact (int, Fraction or MultiPoly): {x!r}")


def entry_is_zero(x: Ring) -> bool:
    if isinstance(x, MultiPoly):
        return x.is_zero()
    return x == 0


class RingMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(exact_scalar(x) for x in row) for row in entries)
        if not rows:
            raise DimensionError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("RingMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "RingMatrix":
        return RingMatrix(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "RingMatrix":
        cols = rows if cols is None else cols
        return RingMatrix([[Fraction(0)] * cols for _ in range(rows)])

    @staticmethod
    def scalar(n: int, c) -> "RingMatrix":
        c = exact_scalar(c)
        z = Fraction(0)
        return RingMatrix([[c if i == j else z for j in range(n)] for i in range(n)])

    # -- shape --------------------------------------------------------

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def map_entries(self, fn: Callable) -> "RingMatrix":
        return RingMatrix([[fn(x) for x in row] for row in self.entries])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in matrix addition")
        return RingMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        return self + (-other)

    def __neg__(self) -> "RingMatrix":
        return self.map_entries(lambda x: -x)

    def __mul__(self, other):
        if isinstance(other, RingMatrix):
            if self.cols != other.rows:
                raise DimensionError("shape mismatch in matrix product")
            bt = other.transpose().entries
            out = []
            for row in self.entries:
                out_row = []
                for col in bt:
                    acc = row[0] * col[0]
                    for a, b in zip(row[1:], col[1:]):
                        acc = acc + a * b
                    out_row.append(acc)
                out.append(out_row)
            return RingMatrix(out)
        return self.map_entries(lambda x: x * other)

    def __rmul__(self, other):
        return self.map_entries(lambda x: other * x)

    def __pow__(self, n: int) -> "RingMatrix":
        if not self.is_square():
            raise DimensionError("power of a non-square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        result = RingMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            a == b for r1, r2 in zip(self.entries, other.entries) for a, b in zip(r1, r2)
        )

    def __hash__(self):
        return hash((self.rows, self.cols))

    def transpose(self) -> "RingMatrix":
        return RingMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def trace(self) -> Ring:
        if not self.is_square():
            raise DimensionError("trace of a non-square matrix")
        acc = self.entries[0][0]
        for i in range(1, self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(entry_is_zero(x) for row in self.entries for x in row)

    def all_rational(self) -> bool:
        return all(isinstance(x, Fraction) for row in self.entries for x in row)

    # -- solving (rational entries only) -------------------------------

    def inverse(self) -> "RingMatrix":
        """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
        if not self.is_square():
            raise DimensionError("inverse of a non-square matrix")
        if not self.all_rational():
            raise TypeError("inverse requires rational entries")
        n = self.rows
        aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
               for i, row in enumerate(self.entries)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if pivot is None:
                raise ZeroDivisionError("singular matrix")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            pv = aug[col][col]
            aug[col] = [x / pv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return RingMatrix([row[n:] for row in aug])

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"

    __repr__ = __str__


def mat_det(m: RingMatrix) -> Ring:
    """Exact determinant of a square matrix over Fraction or MultiPoly entries."""
    if not m.is_square():
        raise DimensionError(f"determinant of a {m.rows}x{m.cols} matrix")
    if m.all_rational() and m.rows >= _BAREISS_MIN:
        return _det_bareiss(m)
    return _det_cofactor(m)


def _det_cofactor(m: RingMatrix) -> Ring:
    """Division-free expansion, memoized over column subsets (O(2^n * n) ring ops)."""
    n = m.rows
    a = m.entries
    full = (1 << n) - 1
    memo: dict = {0: Fraction(1)}

    def det_of(mask: int) -> Ring:
        # mask = remaining columns; row index is n - popcount(mask)
        if mask in memo:
            return memo[mask]
        row = n - bin(mask).count("1")
        acc: Ring = Fraction(0)
        sign = 1
        rest = mask
        while rest:
            low = rest & (-rest)
            j = low.bit_length() - 1
            entry = a[row][j]
            if not entry_is_zero(entry):
                sub = det_of(mask ^ low)
                term = entry * sub
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
            rest ^= low
        memo[mask] = acc
        return acc

    return det_of(full)


def _det_bareiss(m: RingMatrix) -> Fraction:
    """Fraction-free elimination with exact divisions (rational entries)."""
    n = m.rows
    a = [list(row) for row in m.entries]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def entry_vars(m: RingMatrix) -> set:
    """The variable names carried by the MultiPoly entries of ``m``."""
    taken: set = set()
    for row in m.entries:
        for x in row:
            if isinstance(x, MultiPoly):
                taken.update(x.vars)
    return taken


def _dot(u, v) -> Ring:
    """sum u_k * v_k over the pairs with no zero factor."""
    acc: Ring = Fraction(0)
    for a, b in zip(u, v):
        if not (entry_is_zero(a) or entry_is_zero(b)):
            acc = acc + a * b
    return acc


def _berkowitz(a: tuple) -> list:
    """[c_0..c_n] with det(tI - A) = sum c_k t^(n-k), for the rows ``a`` of A.

    Division-free (Berkowitz 1984).  Step r extends the leading r x r block
    A_r by row R = a[r][:r], column C = (a[0][r]..a[r-1][r]) and corner
    a[r][r]: the new coefficient vector is the lower-triangular Toeplitz
    matrix of (1, -a[r][r], -R C, -R A_r C, ..., -R A_r^(r-1) C) applied to
    the old one.
    """
    coeffs = [Fraction(1), -a[0][0]]
    for r in range(1, len(a)):
        row = a[r][:r]
        lead = [a[i][:r] for i in range(r)]
        x = [a[i][r] for i in range(r)]
        toeplitz = [Fraction(1), -a[r][r]]
        for k in range(r):
            toeplitz.append(-_dot(row, x))
            if k < r - 1:
                x = [_dot(lead_row, x) for lead_row in lead]
        coeffs = [_dot(toeplitz[i::-1], coeffs) for i in range(r + 2)]
    return coeffs


def char_poly(m: RingMatrix, var: str = "t") -> MultiPoly:
    """det(var*I - M), a monic MultiPoly of degree n in ``var``.

    Entries may themselves be polynomials, as long as they do not use ``var``.
    The Berkowitz coefficients are assembled by Horner's rule.
    """
    if not m.is_square():
        raise DimensionError("characteristic polynomial of a non-square matrix")
    for row in m.entries:
        for x in row:
            if isinstance(x, MultiPoly) and var in x.vars:
                i = x.vars.index(var)
                if any(exp[i] for exp in x.terms):
                    raise VariableError(f"entry already uses variable {var!r}")
    t = MultiPoly.variable(var)
    p = MultiPoly.constant(1, (var,))
    for c in _berkowitz(m.entries)[1:]:
        p = p * t + c
    return p


def lambdas_of_matrix(m: RingMatrix) -> list:
    """[L_0..L_n] with det(tI - M) = sum (-1)^i L_i t^(n-i), in a variable the entries do not use."""
    var = fresh_var("t", entry_vars(m))
    return lambdas_from_char_poly(char_poly(m, var), m.rows, var)


def lambdas_from_char_poly(p: MultiPoly, n: int, var: str = "t") -> list:
    """Coefficients [L_0..L_n] with p = sum (-1)^i L_i var^(n-i), e.g. p = det(tI - M)."""
    buckets = p.coefficients_in(var)
    out = []
    for i in range(n + 1):
        coef = buckets.get(n - i)
        if coef is None:
            out.append(Fraction(0))
        else:
            val = coef.constant_value() if coef.is_constant() else coef
            out.append(val if i % 2 == 0 else -val)
    return out


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a rational matrix given as a list of rows."""
    work = [list(map(Fraction, r)) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        work[rank] = [x / pv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
        col += 1
    return rank
