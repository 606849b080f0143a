"""Dense matrices over exact scalars (Fraction) or MultiPoly entries.

Determinants are exact: division-free cofactor expansion (dynamic
programming over column subsets) for polynomial entries and small sizes,
Bareiss fraction-free elimination for larger rational matrices.  The
characteristic polynomial uses Berkowitz's division-free algorithm
(S. J. Berkowitz, IPL 18, 1984): O(n^4) ring operations on the entries
themselves, so it serves rational, polynomial and quotient-ring entries
alike.  Every check in this library lives at dimension <= 12, so no sparse
or asymptotically clever machinery is needed.

When every entry of a matrix is a Fraction, the kernels clear denominators
once, A = B / delta with B an integer matrix, run their loop on Python ints
and restore delta once at the end: the product is B1 B2 / (delta1 delta2),
the k-th characteristic-polynomial coefficient c_k(B) / delta^k, the
determinant det(B) / delta^n, the inverse delta B^(-1) (integer
Gauss-Jordan, each row divided by its content) and the rank rank(B).  The
division-free routines (cofactor expansion, Berkowitz, and the Pfaffian
recursion in ``symplectic``) run unchanged on either B or the original
entries.  Results are Fractions again, equal to what the same algorithm
gives over Q; any other entries take the generic path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, mul
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


def _integer_rows(entries) -> tuple | None:
    """(B, delta) with entries = B / delta, if every entry is a Fraction, else None.

    B is a list of integer rows and delta > 0 the least common denominator.
    """
    for row in entries:
        for x in row:
            if not isinstance(x, Fraction):
                return None
    ratios = [list(map(Fraction.as_integer_ratio, row)) for row in entries]
    den = lcm(*[q for row in ratios for _, q in row])
    return [[p * (den // q) for p, q in row] for row in ratios], den


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

    @classmethod
    def _trusted(cls, rows) -> "RingMatrix":
        """A matrix on nonempty rectangular rows of Fraction or MultiPoly entries, unchecked."""
        m = object.__new__(cls)
        entries = tuple(map(tuple, rows))
        object.__setattr__(m, "rows", len(entries))
        object.__setattr__(m, "cols", len(entries[0]))
        object.__setattr__(m, "entries", entries)
        return m

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
        return RingMatrix._trusted(
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
            left, right = _integer_rows(self.entries), _integer_rows(other.entries)
            if left is None or right is None:
                return RingMatrix._trusted(_product(self.entries, other.entries))
            (b1, den1), (b2, den2) = left, right
            den = den1 * den2
            return RingMatrix._trusted(
                [[Fraction(x, den) for x in row] for row in _product(b1, b2)]
            )
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
        return RingMatrix._trusted(zip(*self.entries))

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
        """Exact inverse delta * B^(-1) of A = B / delta; raises on singular input.

        B^(-1) comes from Gauss-Jordan elimination over the integers on
        [B | I]: each cleared row is divided by its content, so that the
        entries stay small, and row i ends as (d_i e_i | v_i) with
        B^(-1) row i = v_i / d_i.
        """
        if not self.is_square():
            raise DimensionError("inverse of a non-square matrix")
        ints = _integer_rows(self.entries)
        if ints is None:
            raise TypeError("inverse requires rational entries")
        b, den = ints
        n = self.rows
        aug = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(b)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col]), None)
            if pivot is None:
                raise ZeroDivisionError("singular matrix")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            prow = aug[col]
            pv = prow[col]
            for r in range(n):
                f = aug[r][col]
                if r != col and f:
                    row = [pv * x - f * y for x, y in zip(aug[r], prow)]
                    g = gcd(*row)
                    aug[r] = [x // g for x in row] if g > 1 else row
        return RingMatrix._trusted(
            [[Fraction(den * x, row[i]) for x in row[n:]] for i, row in enumerate(aug)]
        )

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"

    __repr__ = __str__


def _product(a: Sequence, b: Sequence) -> list:
    """The rows of A B for the rows of A and of B, each entry summed from its first product."""
    cols = list(zip(*b))
    return [[reduce(add, map(mul, row, col)) for col in cols] for row in a]


def mat_det(m: RingMatrix) -> Ring:
    """Exact determinant of a square matrix over Fraction or MultiPoly entries."""
    if not m.is_square():
        raise DimensionError(f"determinant of a {m.rows}x{m.cols} matrix")
    if m.all_rational() and m.rows >= _BAREISS_MIN:
        return _det_bareiss(m)
    return _det_cofactor(m)


def _det_cofactor(m: RingMatrix) -> Ring:
    """Cofactor expansion of det(M); on integer rows B for rational M, det(B) / delta^n."""
    ints = _integer_rows(m.entries)
    if ints is None:
        return exact_scalar(_cofactor_expansion(m.entries))
    b, den = ints
    return Fraction(_cofactor_expansion(b), den ** m.rows)


def _cofactor_expansion(a: Sequence) -> Ring:
    """Division-free expansion, memoized over column subsets (O(2^n * n) ring ops).

    Returns the int 0 if every term vanishes, so that integer rows stay integer.
    """
    n = len(a)
    full = (1 << n) - 1
    memo: dict = {0: 1}

    def det_of(mask: int) -> Ring:
        # mask = remaining columns; row index is n - popcount(mask)
        if mask in memo:
            return memo[mask]
        row = n - bin(mask).count("1")
        acc = None
        sign = 1
        rest = mask
        while rest:
            low = rest & (-rest)
            j = low.bit_length() - 1
            entry = a[row][j]
            if not entry_is_zero(entry):
                term = entry * det_of(mask ^ low)
                if sign < 0:
                    term = -term
                acc = term if acc is None else acc + term
            sign = -sign
            rest ^= low
        memo[mask] = 0 if acc is None else acc
        return memo[mask]

    return det_of(full)


def _det_bareiss(m: RingMatrix) -> Fraction:
    """det(B) / delta^n for rational M = B / delta, by Bareiss's exact-division elimination on B."""
    a, den = _integer_rows(m.entries)
    n = m.rows
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                return Fraction(0)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        pk, rk = a[k][k], a[k]
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - f * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return Fraction(sign * a[n - 1][n - 1], den ** n)


def entry_vars(m: RingMatrix) -> set:
    """The variable names carried by the MultiPoly entries of ``m``."""
    taken: set = set()
    for row in m.entries:
        for x in row:
            if isinstance(x, MultiPoly):
                taken.update(x.vars)
    return taken


def _dot(u, v) -> Ring:
    """sum u_k * v_k over the pairs with no zero factor; the int 0 if there are none."""
    acc = None
    for a, b in zip(u, v):
        if not (entry_is_zero(a) or entry_is_zero(b)):
            acc = a * b if acc is None else acc + a * b
    return 0 if acc is None else acc


def _berkowitz(a: tuple) -> list:
    """[c_0..c_n] with det(tI - A) = sum c_k t^(n-k), for the rows ``a`` of A.

    Division-free (Berkowitz 1984).  Step r extends the leading r x r block
    A_r by row R = a[r][:r], column C = (a[0][r]..a[r-1][r]) and corner
    a[r][r]: the new coefficient vector is the lower-triangular Toeplitz
    matrix of (1, -a[r][r], -R C, -R A_r C, ..., -R A_r^(r-1) C) applied to
    the old one.
    """
    coeffs = [1, -a[0][0]]
    for r in range(1, len(a)):
        row = a[r][:r]
        lead = [a[i][:r] for i in range(r)]
        x = [a[i][r] for i in range(r)]
        toeplitz = [1, -a[r][r]]
        for k in range(r):
            toeplitz.append(-_dot(row, x))
            if k < r - 1:
                x = [_dot(lead_row, x) for lead_row in lead]
        coeffs = [_dot(toeplitz[i::-1], coeffs) for i in range(r + 2)]
    return coeffs


def char_poly(m: RingMatrix, var: str = "t") -> MultiPoly:
    """det(var*I - M), a monic MultiPoly of degree n in ``var``.

    Entries may themselves be polynomials, as long as they do not use ``var``.
    The Berkowitz coefficients are assembled by Horner's rule; for rational
    M = B / delta they are c_k(B) / delta^k.
    """
    if not m.is_square():
        raise DimensionError("characteristic polynomial of a non-square matrix")
    for row in m.entries:
        for x in row:
            if isinstance(x, MultiPoly) and var in x.vars:
                i = x.vars.index(var)
                if any(exp[i] for exp in x.terms):
                    raise VariableError(f"entry already uses variable {var!r}")
    ints = _integer_rows(m.entries)
    if ints is None:
        coeffs = _berkowitz(m.entries)[1:]
    else:
        b, den = ints
        coeffs = [Fraction(c, den**k) for k, c in enumerate(_berkowitz(b)[1:], 1)]
    t = MultiPoly.variable(var)
    p = MultiPoly.constant(1, (var,))
    for c in coeffs:
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


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Exact rank of a rational matrix given as a list of rows of Fractions or ints.

    Scaling a row by its common denominator keeps the rank, so each row
    enters the integer eliminator as it is cleared.
    """
    elim = IntegerEliminator()
    for r in rows:
        ratios = [x.as_integer_ratio() for x in r]
        den = lcm(*[q for _, q in ratios])
        elim.add_row({c: p * (den // q) for c, (p, q) in enumerate(ratios) if p})
    return elim.rank


class IntegerEliminator:
    """Incremental integer row echelon form of sparse rows {column: int}.

    Fraction-free: a row is cleared against the stored pivot rows by
    cross-multiplication and stored divided by its content.
    """

    def __init__(self):
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row: dict) -> bool:
        """Add a row; True if it raised the rank."""
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            piv = self.pivots.get(c)
            if piv is None:
                g = gcd(*row.values())
                if g > 1:
                    row = {col: v // g for col, v in row.items()}
                self.pivots[c] = row
                return True
            a, b = piv[c], row[c]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            new = {col: fa * v for col, v in row.items()}
            for col, v in piv.items():
                new[col] = new.get(col, 0) - fb * v
            row = {col: v for col, v in new.items() if v}
        return False
