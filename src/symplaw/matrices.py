"""Dense matrices over exact scalars or MultiPoly entries.

Every check in this library lives at dimension <= 12, so dense rows and
division-free or fraction-free algorithms serve, with no sparse or
asymptotically clever machinery.  A matrix holds one of two entry forms, set
by ``_fill`` when it is built: a rational matrix keeps its cleared form
(B, delta), integer rows B with A = B / delta, on which its kernels run in
Python ints, and a polynomial matrix works on its entries.  Each kernel
takes both forms and its docstring names its routes: ``mat_det``,
``char_poly``, ``lambdas_of_matrix`` (the one routine for the signed
coefficients Lambda_i), ``RingMatrix.inverse``, ``_product``,
``_integer_product`` and ``_linear_combination``, behind every sum and scalar
multiple.  A kernel that takes an inner product ``dot`` lets a quotient ring
pass its own, ``gma.QuotientRing.dot``, which never forms a term in its ideal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, lshift, mul
from typing import Callable, Sequence

from .errors import DimensionError, VariableError
from .multipoly import MultiPoly, Ring, canonical_scalar

_EXACT = (int, Fraction, MultiPoly)
_POLY_ENTRY_TYPES = frozenset((int, MultiPoly))  # a polynomial matrix of these needs no rewrite
_FRACTION_ONLY = frozenset((Fraction,))


def _exact(x) -> Ring:
    """x itself if it is an int, a Fraction or a MultiPoly; TypeError otherwise."""
    if not isinstance(x, _EXACT):
        raise TypeError(f"scalar must be exact (int, Fraction or MultiPoly): {x!r}")
    return x


def exact_scalar(x) -> Ring:
    """x as a value leaving a kernel: a Fraction if it is constant, else the MultiPoly x itself."""
    if type(x) is Fraction:
        return x
    if type(x) is MultiPoly:
        return x if any(x._packed) else x.constant_value()
    return Fraction(_exact(x))


def _integer_rows(ratios) -> tuple:
    """(B, delta) with entries p/q = B / delta, for rows of integer pairs (p, q), q > 0.

    B is a tuple of integer rows and delta > 0 the lcm of the q's.  For pairs
    in lowest terms, such as those of Fractions, gcd(delta, content of B) = 1.
    """
    den = lcm(*{q for row in ratios for _, q in row})
    return tuple(tuple([p * (den // q) for p, q in row]) for row in ratios), den


def matrix_from_ratios(rows) -> "RingMatrix":
    """The matrix of entries p/q for rows of integer pairs (p, q), q > 0, in cleared form."""
    return RingMatrix._cleared(*_integer_rows(rows))


class RingMatrix:
    """An immutable matrix over exact scalars or MultiPoly entries.

    A rational matrix (no MultiPoly entry) has Fraction entries, even when
    built from ints, and holds its cleared form (``_ints``, ``_den``); the
    kernels run on it, and a result they build is a ``_LazyEntries`` matrix,
    which makes its Fraction ``entries`` on first read.  A polynomial matrix
    has ``_ints = None``, works on ``entries``, and holds each scalar entry
    as an int when it is integral and as a Fraction otherwise.
    """

    __slots__ = ("rows", "cols", "entries", "_ints", "_den")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(map(_exact, row)) for row in entries)
        if not rows or not rows[0]:
            raise DimensionError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        _fill(self, rows)

    @classmethod
    def _trusted(cls, rows) -> "RingMatrix":
        """A matrix on nonempty rectangular rows of int, Fraction or MultiPoly entries, unchecked.

        ``_fill`` brings the entries to the form of their matrix kind.
        """
        m = object.__new__(cls)
        _fill(m, tuple(map(tuple, rows)))
        return m

    @staticmethod
    def _cleared(ints, den: int) -> "RingMatrix":
        """The matrix B / delta for nonempty rectangular integer rows B and delta > 0.

        The pair is brought to normalized form, gcd(delta, content of B) = 1;
        the Fraction entries are made only if they are read.
        """
        ints = tuple(map(tuple, ints))
        if den > 1:
            g = gcd(den, *chain.from_iterable(ints))
            if g > 1:
                den //= g
                ints = tuple(tuple([x // g for x in row]) for row in ints)
        m = object.__new__(_LazyEntries)
        _set_rows(m, len(ints))
        _set_cols(m, len(ints[0]))
        _set_ints(m, ints)
        _set_den(m, den)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("RingMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "RingMatrix":
        return RingMatrix._cleared([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "RingMatrix":
        cols = rows if cols is None else cols
        return RingMatrix._cleared([[0] * cols for _ in range(rows)], 1)

    @staticmethod
    def scalar(n: int, c) -> "RingMatrix":
        c = exact_scalar(c)
        if isinstance(c, Fraction):
            p, q = c.as_integer_ratio()
            return RingMatrix._cleared([[p if i == j else 0 for j in range(n)] for i in range(n)], q)
        return RingMatrix._trusted([[c if i == j else 0 for j in range(n)] for i in range(n)])

    # -- shape --------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def map_entries(self, fn: Callable) -> "RingMatrix":
        return RingMatrix([[fn(x) for x in row] for row in self.entries])

    def cleared(self) -> tuple | None:
        """(B, delta) with self = B / delta in normalized form, or None unless every entry is rational."""
        return None if self._ints is None else (self._ints, self._den)

    def rearranged(self, fn: Callable) -> "RingMatrix":
        """The matrix with rows fn(rows), for an fn that only moves entries and negates some.

        Such an fn commutes with clearing denominators, so a rational matrix
        runs it on B and keeps delta.
        """
        if self._ints is None:
            return RingMatrix._trusted(fn(self.entries))
        return RingMatrix._cleared(fn(self._ints), self._den)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return _linear_combination(((1, self), (1, other)), self.rows, self.cols)

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return _linear_combination(((1, self), (-1, other)), self.rows, self.cols)

    def __neg__(self) -> "RingMatrix":
        return _linear_combination(((-1, self),), self.rows, self.cols)

    def __mul__(self, other):
        if isinstance(other, RingMatrix):
            if self.cols != other.rows:
                raise DimensionError("shape mismatch in matrix product")
            if self._ints is None or other._ints is None:
                return RingMatrix._trusted(_product(self.entries, other.entries))
            return RingMatrix._cleared(_integer_product(self._ints, other._ints),
                                       self._den * other._den)
        return self._scaled(other)

    def _scaled(self, c) -> "RingMatrix":
        """c M = M c, as every entry commutes with every scalar."""
        return _linear_combination(((c, self),), self.rows, self.cols)

    __rmul__ = _scaled

    def _shifted(self, c) -> "RingMatrix":
        """self + c * Id for a square matrix, by adding c to the diagonal entries only."""
        if not _is_square(self):
            raise DimensionError("shift of a non-square matrix")
        if self._ints is None and type(c) is Fraction and c.denominator == 1:
            c = c.numerator  # an int keeps the int entries, so ``_fill`` rewrites none
        rows = list(map(list, self.entries))
        for i, row in enumerate(rows):
            row[i] = row[i] + c
        return RingMatrix._trusted(rows)

    def __pow__(self, n: int) -> "RingMatrix":
        if not _is_square(self):
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
        if self._ints is not None and other._ints is not None:
            # the normalized form of a rational matrix is unique
            return self._den == other._den and self._ints == other._ints
        return all(
            a == b for r1, r2 in zip(self.entries, other.entries) for a, b in zip(r1, r2)
        )

    def __hash__(self):
        return hash((self.rows, self.cols))

    def transpose(self) -> "RingMatrix":
        return self.rearranged(lambda rows: zip(*rows))

    def trace(self) -> Ring:
        if not _is_square(self):
            raise DimensionError("trace of a non-square matrix")
        if self._ints is not None:
            return Fraction(sum(row[i] for i, row in enumerate(self._ints)), self._den)
        return exact_scalar(sum(row[i] for i, row in enumerate(self.entries)))

    def is_zero(self) -> bool:
        return not any(map(any, self.entries if self._ints is None else self._ints))

    def all_rational(self) -> bool:
        return self._ints is not None

    # -- solving (rational entries only) -------------------------------

    def inverse(self) -> "RingMatrix":
        """Exact inverse delta B^(-1) of A = B / delta; ZeroDivisionError on a singular A.

        Bareiss elimination on [B | Id], continued above each pivot, ends in [D Id | D B^(-1)]
        for the last pivot D, det(B) up to the sign of the row swaps; A^(-1) is delta D B^(-1) / D.
        """
        if not _is_square(self):
            raise DimensionError("inverse of a non-square matrix")
        if self._ints is None:
            raise TypeError("inverse requires rational entries")
        n = self.rows
        aug = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(self._ints)]
        if not _bareiss(aug, n, above=True):
            raise ZeroDivisionError("singular matrix")
        last = aug[-1][n - 1]
        scale = self._den if last > 0 else -self._den
        return RingMatrix._cleared([[scale * x for x in row[n:]] for row in aug], abs(last))

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"

    __repr__ = __str__


# the slot setters, called directly: RingMatrix.__setattr__ refuses every assignment
_set_rows, _set_cols, _set_entries, _set_ints, _set_den = (
    RingMatrix.__dict__[name].__set__ for name in RingMatrix.__slots__
)


def _fill(m: RingMatrix, entries: tuple):
    """Set the shape, the entries and, for a rational matrix, the cleared form of ``m``.

    The one place that sets entries, so the one place that holds their form:
    with a MultiPoly entry every scalar entry is made canonical (an int if it
    is integral), and without one every entry is made a Fraction.
    """
    types = set(map(type, chain.from_iterable(entries)))
    if MultiPoly in types:
        if not types <= _POLY_ENTRY_TYPES:
            entries = tuple(tuple([x if type(x) is MultiPoly else canonical_scalar(x) for x in row])
                            for row in entries)
        ints = den = None
    else:
        if types != _FRACTION_ONLY:
            entries = tuple(tuple([Fraction(x) for x in row]) for row in entries)
        ints, den = _integer_rows([list(map(Fraction.as_integer_ratio, row)) for row in entries])
    _set_rows(m, len(entries))
    _set_cols(m, len(entries[0]))
    _set_entries(m, entries)
    _set_ints(m, ints)
    _set_den(m, den)


class _LazyEntries(RingMatrix):
    """A rational matrix built from its cleared form; ``entries`` is unset until first read.

    Only this class defines ``__getattr__``, which slows every attribute
    read of its instances a little, so other matrices do not pay for it.
    """

    __slots__ = ()

    def __getattr__(self, name):
        if name != "entries":
            raise AttributeError(name)
        den = self._den
        entries = tuple(tuple([Fraction(x, den) for x in row]) for row in self._ints)
        _set_entries(self, entries)
        return entries


def _is_square(m) -> bool:
    """Whether ``m`` is square; TypeError unless it is a RingMatrix."""
    if not isinstance(m, RingMatrix):
        raise TypeError(f"expected a RingMatrix, got {type(m).__name__}")
    return m.rows == m.cols


def _product(a: Sequence, b: Sequence) -> list:
    """The rows of A B for the rows of A and of B, integers or ring entries: written out for a
    square B of size 2 or 4, the sizes of every product at d <= 2, else inner products."""
    n = len(b)
    if n == 4 and len(b[0]) == 4:
        (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (s0, s1, s2, s3) = b
        return [(w * p0 + x * q0 + y * r0 + z * s0, w * p1 + x * q1 + y * r1 + z * s1,
                 w * p2 + x * q2 + y * r2 + z * s2, w * p3 + x * q3 + y * r3 + z * s3)
                for w, x, y, z in a]
    if n == 2 and len(b[0]) == 2:
        (p0, p1), (q0, q1) = b
        return [(x * p0 + y * q0, x * p1 + y * q1) for x, y in a]
    cols = list(zip(*b))
    return [tuple([sum(map(mul, row, col)) for col in cols]) for row in a]


_PACKED_MIN_COLS = 10


def _integer_product(a: Sequence, b: Sequence) -> list:
    """The rows of A B for integer rows of A and of B; on packed rows once B has 10 columns.

    Kronecker substitution (D. Harvey, J. Symbolic Comput. 44, 2009): each row of B is one int,
    sum_j b_kj 2^(w j), for a width w of whole bytes with 2^(w-1) > |c_ij| for every entry c_ij
    of A B, as bounded by the bit lengths of the entries and the inner dimension.  Row i of
    A B is then sum_k a_ik (packed row k), plus 2^(w-1) in every field, so that each field
    c_ij + 2^(w-1) lies in [0, 2^w) and borrows nothing from the next; one ``to_bytes`` of
    that sum holds the fields.
    """
    cols = len(b[0])
    # measured crossover, best of 7: packed runs 0.85-1.17x as fast at 8 columns, 0.98-1.62x at 10
    if cols < _PACKED_MIN_COLS:
        return _product(a, b)
    bits = (max(map(int.bit_length, chain.from_iterable(a)))
            + max(map(int.bit_length, chain.from_iterable(b))) + len(b).bit_length())
    size = bits // 8 + 1
    width = 8 * size
    half = 1 << (width - 1)
    shifts = range(0, width * cols, width)
    packed = [sum(map(lshift, row, shifts)) for row in b]
    bias = sum(map(lshift, repeat(half, cols), shifts))
    raw = b"".join([sum(map(mul, row, packed), bias).to_bytes(size * cols, "little") for row in a])
    flat = [int.from_bytes(raw[j:j + size], "little") - half for j in range(0, len(raw), size)]
    return list(zip(*[iter(flat)] * cols))


def _linear_combination(terms, rows: int, cols: int) -> RingMatrix:
    """sum c_i M_i for pairs (c_i, M_i) of exact scalars and rows x cols matrices; 0 for no pair.

    With every M_i = B_i / delta_i rational and every c_i = p_i / q_i a scalar, it is
    (sum p_i (L / (q_i delta_i)) B_i) / L for L = lcm(q_i delta_i), normalized once by
    ``_cleared``; otherwise it is taken entry by entry, in the entries' own arithmetic.
    """
    terms = [(_exact(c), m) for c, m in terms]
    polynomial = False
    for c, m in terms:  # a plain loop: any() over a generator costs more than these few terms
        if m.rows != rows or m.cols != cols:
            raise DimensionError("shape mismatch in a linear combination")
        polynomial = polynomial or m._ints is None or isinstance(c, MultiPoly)
    if polynomial:
        return RingMatrix._trusted(_combined([(c, m.entries) for c, m in terms], rows, cols))
    den = lcm(*[c.denominator * m._den for c, m in terms])
    scaled = [(c.numerator * (den // (c.denominator * m._den)), m._ints) for c, m in terms]
    return RingMatrix._cleared(_combined(scaled, rows, cols), den)


def _combined(terms, rows: int, cols: int) -> list:
    """The rows of sum c_i A_i for pairs (c_i, rows A_i), one ``map`` pass per term, in C;
    the sum starts from the first term, not from 0, and a scalar 1 multiplies nothing."""
    flat = []
    for c, a in terms:  # each pass is a list, so many terms nest no iterators
        entries = chain.from_iterable(a)
        if type(c) is MultiPoly or c != 1:
            entries = map(mul, repeat(c), entries)
        flat = list(map(add, flat, entries)) if flat else list(entries)
    return list(zip(*[iter(flat or [0] * (rows * cols))] * cols))  # cols at a time: the rows


def _dot(u, v) -> Ring:
    """sum u_k * v_k over the pairs with no zero factor; the int 0 if there are none."""
    acc = None
    for a, b in zip(u, v):
        if a and b:
            acc = a * b if acc is None else acc + a * b
    return 0 if acc is None else acc


def _sum_of_products(u, v) -> Ring:
    """sum u_k * v_k with every product formed: the plain inner product, of ints or ring entries."""
    return sum(map(mul, u, v))


def trace_of_product(a: RingMatrix, b: RingMatrix, dot: Callable = _sum_of_products) -> Ring:
    """tr(AB) = sum a_ik b_ki, one inner product without forming AB; a Fraction or a MultiPoly.

    ``dot`` is the inner product of two sequences of entries, as in ``mat_det``.
    """
    if a.cols != b.rows or a.rows != b.cols:
        raise DimensionError("shape mismatch in trace of a product")
    return exact_scalar(dot(chain(*a.entries), chain(*zip(*b.entries))))


def mat_det(m: RingMatrix, dot: Callable = _sum_of_products) -> Ring:
    """Exact determinant of a square matrix, a Fraction or a MultiPoly.

    A rational matrix goes to Bareiss.  Any other goes to the cofactor DP,
    which at these sizes beats both Bareiss over polynomials and interpolation
    at points, and takes each minor as one inner product ``dot`` of two sequences
    of entries: the plain one unless a caller, such as a quotient ring that
    reduces each inner product, passes its own.
    """
    if not _is_square(m):
        raise DimensionError(f"determinant of a {m.rows}x{m.cols} matrix")
    if m._ints is not None:
        return _det_bareiss(m)
    return exact_scalar(_cofactor_expansion(m.entries, dot))


def _cofactor_expansion(a: Sequence, dot: Callable = _sum_of_products) -> Ring:
    """Division-free expansion, memoized over column subsets (O(2^n * n) ring ops).

    The minor on the columns of a mask, taken along its first row, is one
    inner product: ``dot`` of the signed nonzero entries of that row and their
    minors.  Returns the int 0 if every term vanishes.
    """
    n = len(a)
    memo: dict = {0: 1}

    def det_of(mask: int) -> Ring:
        # mask = remaining columns; row index is n - popcount(mask)
        if mask in memo:
            return memo[mask]
        row = a[n - bin(mask).count("1")]
        entries, minors = [], []
        sign = 1
        rest = mask
        while rest:
            low = rest & (-rest)
            entry = row[low.bit_length() - 1]
            if entry:
                entries.append(entry if sign > 0 else -entry)
                minors.append(det_of(mask ^ low))
            sign = -sign
            rest ^= low
        memo[mask] = value = dot(entries, minors)
        return value

    return det_of((1 << n) - 1)


def _det_bareiss(m: RingMatrix) -> Fraction:
    """det(B) / delta^n for rational M = B / delta, by Bareiss elimination on B."""
    return Fraction(_bareiss(list(map(list, m._ints)), m.rows), m._den ** m.rows)


def _bareiss(a: list, n: int, above: bool = False) -> int:
    """Bareiss elimination (Math. Comp. 22, 1968) in place on integer rows [B | C], B n x n;
    det(B), 0 if singular.

    Step k clears column k below its pivot, and above it too when ``above``,
    dividing every update exactly by the previous pivot.  With ``above``, C
    ends as D B^(-1) C for the last pivot D = a[n - 1][n - 1].
    """
    width = len(a[0])
    sign = 1
    prev = 1
    for k in range(n if above else n - 1):  # the last step only clears above
        if not a[k][k]:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        pk, rk = a[k][k], a[k]
        # a row whose entry in column k is 0 is still rescaled by pk / prev
        for i in chain(range(k), range(k + 1, n)) if above else range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, width):
                ri[j] = (ri[j] * pk - f * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def entry_vars(m: RingMatrix) -> set:
    """The variables the MultiPoly entries of ``m`` use: the union of their ``used_vars``."""
    taken: set = set()
    if m._ints is not None:
        return taken
    for row in m.entries:
        for x in row:
            if isinstance(x, MultiPoly):
                taken.update(x.used_vars)
    return taken


def _berkowitz(a: tuple, dot: Callable = _dot) -> list:
    """[c_0..c_n] with det(tI - A) = sum c_k t^(n-k), for the rows ``a`` of A.

    Division-free (Berkowitz, IPL 18, 1984), O(n^4) ring operations, so it serves every
    entry kind.  Step r extends the leading r x r block A_r by row R = a[r][:r], column
    C = (a[0][r]..a[r-1][r]) and corner a[r][r]: the new coefficient vector is the
    lower-triangular Toeplitz matrix of (1, -a[r][r], -R C, -R A_r C, ..., -R A_r^(r-1) C)
    applied to the old one.  ``dot`` is the inner product of two sequences of entries.
    """
    coeffs = [1, -a[0][0]]
    for r in range(1, len(a)):
        row = a[r][:r]
        lead = [a[i][:r] for i in range(r)]
        x = [a[i][r] for i in range(r)]
        toeplitz = [1, -a[r][r]]
        for k in range(r):
            toeplitz.append(-dot(row, x))
            if k < r - 1:
                x = [dot(lead_row, x) for lead_row in lead]
        coeffs = [dot(toeplitz[i::-1], coeffs) for i in range(r + 2)]
    return coeffs


def _integer_char_coeffs(a: tuple) -> list:
    """[c_0..c_n] of det(tI - A) for integer rows ``a``: closed forms at n = 2 and 4, the sizes
    of every Lambda-vector at d <= 2, else Berkowitz.

    c_k is (-1)^k times the sum of the principal k x k minors (Horn and Johnson, Matrix
    Analysis, 1.2).  At n = 4 the twelve 2 x 2 minors of rows {0, 1} and of rows {2, 3} give
    each principal 3 x 3 minor, expanded along its row outside that pair, and the
    determinant, by Laplace expansion along rows {0, 1}.
    """
    if len(a) == 2:
        (p, q), (r, s) = a
        return [1, -p - s, p * s - q * r]
    if len(a) != 4:
        return _berkowitz(a, _sum_of_products)
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = a
    # x_pq and y_pq: the minors of rows {0, 1} and of rows {2, 3} on columns p < q
    x01, x02, x03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
    x12, x13, x23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    y01, y02, y03 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0
    y12, y13, y23 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2
    minors2 = x01 + y23 + a0 * c2 - a2 * c0 + a0 * d3 - a3 * d0 + b1 * c2 - b2 * c1 + b1 * d3 - b3 * d1
    minors3 = (c0 * x12 - c1 * x02 + c2 * x01 + d0 * x13 - d1 * x03 + d3 * x01
               + a0 * y23 - a2 * y03 + a3 * y02 + b1 * y23 - b2 * y13 + b3 * y12)
    det = x01 * y23 - x02 * y13 + x03 * y12 + x12 * y03 - x13 * y02 + x23 * y01
    return [1, -a0 - b1 - c2 - d3, minors2, -minors3, det]


def char_poly(m: RingMatrix, var: str = "t") -> MultiPoly:
    """det(var*I - M), a monic MultiPoly of degree n in ``var``.

    Entries may themselves be polynomials, as long as they do not use ``var``.
    Horner's rule assembles c_1..c_n from the monic start var + c_1, in n - 1
    products.  For rational M = B / delta they are c_k(B) / delta^k, the int
    c_k(B) itself at delta = 1, from closed forms at n = 2 and 4
    (``_integer_char_coeffs``) and from Berkowitz otherwise; any other matrix
    takes Berkowitz on its entries.
    """
    if not _is_square(m):
        raise DimensionError("characteristic polynomial of a non-square matrix")
    if m._ints is None:
        if var in entry_vars(m):
            raise VariableError(f"matrix entries already use variable {var!r}")
        coeffs = _berkowitz(m.entries)[1:]
    else:
        den, coeffs = m._den, _integer_char_coeffs(m._ints)[1:]
        if den > 1:
            coeffs = [Fraction(c, den**k) for k, c in enumerate(coeffs, 1)]
    t = MultiPoly.variable(var)
    p = t + coeffs[0]
    for c in coeffs[1:]:
        p = p * t + c
    return p


def lambdas_of_matrix(m: RingMatrix, dot: Callable = _dot) -> tuple:
    """(L_0..L_n) with det(tI - M) = sum (-1)^i L_i t^(n-i), each through ``exact_scalar``.

    A rational matrix reads them off ``char_poly``, univariate in t, so each of its packed
    keys is a degree.  Any other runs Berkowitz on its entries with the inner product
    ``dot``, as ``mat_det`` takes it: a quotient ring's reducing ``dot`` gives the reduced L_i.
    """
    if not _is_square(m):
        raise DimensionError("Lambda-vector of a non-square matrix")
    if m._ints is not None:
        packed = char_poly(m)._packed
        coeffs = [packed.get(k, 0) for k in range(m.rows, -1, -1)]
    else:
        coeffs = _berkowitz(m.entries, dot)
    return tuple([exact_scalar(-c if i % 2 else c) for i, c in enumerate(coeffs)])


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
        row = self._residue(row)
        if not row:
            return False
        g = gcd(*row.values())
        if g > 1:
            row = {col: v // g for col, v in row.items()}
        self.pivots[min(row)] = row
        return True

    def spans(self, row: dict) -> bool:
        """Is the row in the span of the rows added so far?  The echelon form is not changed."""
        return not self._residue(row)

    def _residue(self, row: dict) -> dict:
        """The row cleared against the pivot rows until its leading column has no pivot."""
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            piv = self.pivots.get(c)
            if piv is None:
                break
            a, b = piv[c], row[c]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            new = {col: fa * v for col, v in row.items()}
            for col, v in piv.items():
                new[col] = new.get(col, 0) - fb * v
            row = {col: v for col, v in new.items() if v}
        return row
