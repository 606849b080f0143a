"""Symplectic generalized matrix algebras in standard (embedded) form.

A GMA type partitions the block indices into I0 (self-paired blocks
carrying an internal standard form), and I1/I2 (blocks swapped in pairs).
Its form J_delta, J on I0 diagonal blocks and -Id/+Id on the I1/I2
pairings, is a ``symplectic.SignedPermutation``, as J is: the involution
M -> J_delta tau(M)^T J_delta^(-1), where tau rescales each off-diagonal
block by a sign, is that form's adjoint, and M J_delta its right product.

Block coefficient modules live inside a polynomial ring modulo a monomial
ideal (``QuotientRing``), so products and span membership reduce to exact
monomial bookkeeping on packed exponent keys (``symplaw.multipoly``).  A
matrix given to a public entry point is reduced once, at
``GmaSpec.check_membership``; adjoints, right products, sums and traces of
reduced matrices are reduced, and every product reduces as it forms, through
``QuotientRing.dot``, so no kernel carries a nil term.  The reduced Pfaffian
alone multiplies in Q[vars] and reduces its result: it is the route,
independent of the determinant's, that the suite compares with the
determinant.  Where M J_delta is not alternating, the Pfaffian law comes from
the determinant through the coefficient recursion; the two agree wherever
both apply, as the degree-d law with value 1 at 1 is unique.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import is_
from typing import Mapping, Sequence

from .detlaws import pfaffian_coeffs_from_lambdas
from .errors import DimensionError, MembershipError, StructureError, SymplawError
from .matrices import IntegerEliminator, RingMatrix, exact_scalar, lambdas_of_matrix, mat_det
from .multipoly import MultiPoly, Ring, _guard, _over_cap, _unpack
from .symplectic import SignedPermutation, is_alternating, matrix_poly_value

# -- quotient ring ------------------------------------------------------


class _IdealMemo(dict):
    """Packed exponent key -> is that monomial in the ideal, decided on the first lookup of the key.

    The key e is divisible by the nil key n when (e | guard) - n keeps every
    guard bit: no field of e is below its field of n.  The first lookup of a
    key also refuses a guard bit set in it, an exponent sum past the cap:
    ``QuotientRing.dot`` adds keys without a test of its own and looks up
    every sum here.  Only ever added to, each key with its one answer, so
    threads may share it.
    """

    __slots__ = ("nils", "guard", "k")

    def __init__(self, nils: tuple, k: int):
        super().__init__()
        self.nils, self.guard, self.k = nils, _guard(k), k

    def __missing__(self, key: int) -> bool:
        guard = self.guard
        if key & guard:
            raise _over_cap(max(_unpack(key, self.k)))
        hit = self[key] = any((key | guard) - n & guard == guard for n in self.nils)
        return hit


@dataclass(frozen=True)
class QuotientRing:
    """Q[vars] / (monomial ideal); reduction drops divisible terms.

    The ideal must not contain 1: the diagonal blocks of a GMA are Q.
    """

    vars: tuple
    nil_monomials: tuple  # exponent tuples over `vars`
    # each packed key met by `reduce` or `dot` -> is it in the ideal; one memo per ring
    _divisible: _IdealMemo = field(init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        vs = tuple(self.vars)
        if list(vs) != sorted(vs):
            raise SymplawError(f"ring variables must be sorted: {vs}")
        nils = tuple(tuple(e) for e in self.nil_monomials)
        for e in nils:
            if len(e) != len(vs):
                raise DimensionError("nil monomial exponent length mismatch")
            if not any(e):
                raise StructureError("the ideal contains 1, but the diagonal blocks are Q")
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "nil_monomials", nils)
        ideal = MultiPoly(vs, dict.fromkeys(nils, 1))  # exponents checked as any polynomial's
        object.__setattr__(self, "_divisible", _IdealMemo(tuple(ideal._packed), len(vs)))

    def _lift(self, x: MultiPoly) -> MultiPoly:
        """x over the ring's variables; MembershipError if one of its ``used_vars`` is not one."""
        if x.vars == self.vars:
            return x
        if not set(x.used_vars) <= set(self.vars):
            raise MembershipError(f"element uses variables outside the ring: {x.used_vars}")
        return x.in_vars(self.vars)

    def reduce(self, x: Ring) -> Ring:
        """x without its terms divisible by a nil monomial; x itself if it has none or is scalar."""
        if isinstance(x, (int, Fraction)):
            return x
        x = self._lift(x)
        divisible = self._divisible
        if not any(map(divisible.__getitem__, x._packed)):
            return x
        return MultiPoly._canonical(
            self.vars, {key: c for key, c in x._packed.items() if not divisible[key]}
        )

    def dot(self, u, v) -> Ring:
        """The inner product of two sequences of ring entries, reduced, in one pass.

        A product of two terms whose exponents sum into the ideal is never
        formed, and one MultiPoly is built per call.  A pair with a zero
        factor is skipped; the result is a scalar if no MultiPoly meets a
        nonzero partner, and otherwise a MultiPoly over the ring's variables.
        The scalar part needs no ideal test, as 1 is not in the ideal.
        """
        scalar = 0
        terms = None
        divisible = self._divisible
        for a, b in zip(u, v):
            if not (a and b):
                continue
            if not isinstance(a, MultiPoly):
                if not isinstance(b, MultiPoly):
                    scalar += a * b
                    continue
                a, b = b, a
            if terms is None:
                terms = {}
            left = self._lift(a)._packed.items()
            if isinstance(b, MultiPoly):
                right = self._lift(b)._packed.items()
                for e1, c1 in left:
                    for e2, c2 in right:
                        exp = e1 + e2
                        if not divisible[exp]:
                            c = c1 * c2
                            terms[exp] = terms[exp] + c if exp in terms else c
            else:
                for exp, c in left:
                    if not divisible[exp]:
                        c = c * b
                        terms[exp] = terms[exp] + c if exp in terms else c
        if terms is None:
            return scalar
        if scalar:  # the constant term has key 0
            terms[0] = terms[0] + scalar if 0 in terms else scalar
        return MultiPoly._trusted(self.vars, terms)

    def product(self, a: RingMatrix, b: RingMatrix) -> RingMatrix:
        """a b with every entry reduced as it forms: one ``dot`` of a row of a and a column of b."""
        if a.cols != b.rows:
            raise DimensionError("shape mismatch in matrix product")
        dot = self.dot
        cols = list(zip(*b.entries))
        return RingMatrix._trusted([[dot(row, col) for col in cols] for row in a.entries])

    def reduce_matrix(self, m: RingMatrix) -> RingMatrix:
        """m with every entry reduced; m itself if ``reduce`` keeps every entry."""
        rows = [[self.reduce(x) for x in row] for row in m.entries]
        if all(map(is_, chain(*rows), chain(*m.entries))):
            return m
        return RingMatrix._trusted(rows)

    def variable(self, name: str) -> MultiPoly:
        if name not in self.vars:
            raise MembershipError(f"unknown ring variable {name!r}")
        return MultiPoly.variable(name).in_vars(self.vars)


def _integer_row(p: MultiPoly, columns: dict) -> dict:
    """The coefficients of p, scaled by their common denominator, keyed by monomial column."""
    den = lcm(*[c.denominator for c in p._packed.values()])
    return {columns[key]: c.numerator * (den // c.denominator) for key, c in p._packed.items()}


def _reduced_poly(x: Ring, ring: QuotientRing) -> MultiPoly:
    """x reduced in the ring, a scalar first lifted to a constant polynomial."""
    return ring.reduce(x if isinstance(x, MultiPoly) else MultiPoly.constant(x, ring.vars))


def _span_rows(basis: Sequence[Ring], ring: QuotientRing) -> tuple:
    """(monomial columns, integer echelon rows, full: a pivot in every column) of the reduced basis."""
    polys = [_reduced_poly(b, ring) for b in basis]
    columns = {key: k for k, key in enumerate(sorted({key for p in polys for key in p._packed}))}
    rows = IntegerEliminator()
    for p in polys:
        rows.add_row(_integer_row(p, columns))
    return columns, rows, rows.rank == len(columns)


def _in_span_rows(p: Ring, span: tuple, ring: QuotientRing) -> bool:
    """Is the reduced element p in the span?  In a full span, exactly when its monomials are columns."""
    columns, rows, full = span
    if not isinstance(p, MultiPoly):
        p = MultiPoly.constant(p, ring.vars)
    return columns.keys() >= p._packed.keys() and (full or rows.spans(_integer_row(p, columns)))


# -- GMA type -----------------------------------------------------------


@dataclass(frozen=True)
class GmaType:
    i0: tuple
    i1: tuple
    i2: tuple
    sigma: tuple  # 1-based images: sigma[i-1] is the partner of block i
    dims: tuple

    def __post_init__(self):
        for name in ("i0", "i1", "i2", "sigma", "dims"):
            value = tuple(getattr(self, name))
            if not all(type(x) is int for x in value):
                raise TypeError(f"GMA type {name} must hold ints, got {value!r}")
            object.__setattr__(self, name, value)
        i0, i1, i2, sigma, dims = self.i0, self.i1, self.i2, self.sigma, self.dims
        if sorted(i0 + i1 + i2) != list(range(1, self.r + 1)):
            raise StructureError("I0, I1, I2 must partition {1..r}")
        if len(sigma) != self.r or sorted(sigma) != list(range(1, self.r + 1)):
            raise StructureError("sigma must be a permutation of {1..r}")
        for i in range(1, self.r + 1):
            if sigma[sigma[i - 1] - 1] != i:
                raise StructureError("sigma must be an involution")
            if dims[sigma[i - 1] - 1] != dims[i - 1]:
                raise StructureError("paired blocks must have equal dimension")
        for i in i0:
            if sigma[i - 1] != i:
                raise StructureError("sigma must fix I0 pointwise")
            if dims[i - 1] % 2:
                raise StructureError("I0 block dimensions must be even")
        if sorted(self.apply(i) for i in i1) != sorted(i2):
            raise StructureError("sigma must map I1 onto I2")
        if any(d < 1 for d in dims):
            raise StructureError("block dimensions must be positive")
        if sum(dims) % 2:
            raise StructureError("total dimension must be even")

    @property
    def r(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return sum(self.dims)

    def apply(self, i: int) -> int:
        return self.sigma[i - 1]

    def offsets(self) -> list:
        out = [0]
        for d in self.dims:
            out.append(out[-1] + d)
        return out


def _j_delta_perm(t: GmaType) -> tuple:
    """(perm, sign) of J_delta: J on each I0 diagonal block, -Id/(+Id) on the I1/I2 pairings."""
    off = t.offsets()
    perm, sign = [], []
    for i, dim in enumerate(t.dims, 1):
        if i in t.i0:
            form = SignedPermutation.standard(dim // 2)
            perm += [off[i - 1] + p for p in form.perm]
            sign += form.sign
        else:
            perm += range(off[t.apply(i) - 1], off[t.apply(i) - 1] + dim)
            sign += [-1 if i in t.i1 else 1] * dim
    return perm, sign


def build_J_delta(t: GmaType) -> RingMatrix:
    """The block form: J on I0 diagonal blocks, -Id/(+Id) on the I1/I2 pairings."""
    return SignedPermutation(*_j_delta_perm(t)).matrix


# -- GMA spec -----------------------------------------------------------


@dataclass(frozen=True)
class GmaSpec:
    type: GmaType
    ring: QuotientRing
    blocks: Mapping  # (i, j) -> tuple of MultiPoly (or scalars) spanning A_(i,j), i != j
    tau_signs: Mapping  # frozenset({i, j}) -> +-1
    J_delta: RingMatrix = field(init=False, repr=False)
    # (i, j) -> (monomial columns, integer echelon rows, full) of span(i, j), i != j
    _spans: dict = field(init=False, repr=False, compare=False)
    # one (a, b, i, j, span, basis) per entry, in block order (i, j, a, b); None, None if i == j
    _cells: tuple = field(init=False, repr=False, compare=False)
    # J_delta as a signed permutation, its adjoint twisted by the tau signs
    _form: SignedPermutation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = self.type.r
        blocks = {}
        for (i, j), basis in dict(self.blocks).items():
            if not (1 <= i <= r and 1 <= j <= r):
                raise StructureError(f"block ({i}, {j}) is outside the blocks 1..{r} of the type")
            if i == j:
                raise StructureError("diagonal blocks are implicitly Q and cannot be overridden")
            basis = tuple(_reduced_poly(b, self.ring) for b in basis)
            basis = tuple(b for b in basis if b)
            if basis:
                blocks[(i, j)] = basis
        signs = {}
        for key, s in dict(self.tau_signs).items():
            pair = frozenset(key)
            if not all(1 <= i <= r for i in pair):
                raise StructureError(f"tau sign key {sorted(pair)} is outside the blocks 1..{r}")
            if len(pair) != 2:
                raise StructureError("diagonal blocks are implicitly Q and take no tau sign")
            if s not in (1, -1):
                raise StructureError(f"tau sign must be +-1, got {s}")
            signs[pair] = int(s)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "tau_signs", signs)
        block = [k for k, dim in enumerate(self.type.dims, 1) for _ in range(dim)]
        form = SignedPermutation(*_j_delta_perm(self.type),
                                 twist=lambda p, q: self.sign(block[p], block[q]))
        object.__setattr__(self, "_form", form)
        object.__setattr__(self, "J_delta", form.matrix)
        spans = {(i, j): _span_rows(self.span(i, j), self.ring)
                 for i in range(1, r + 1) for j in range(1, r + 1) if i != j}
        object.__setattr__(self, "_spans", spans)
        off = self.type.offsets()
        cells = tuple((a, b, i, j, spans.get((i, j)), None if i == j else self.span(i, j))
                      for i in range(1, r + 1) for j in range(1, r + 1)
                      for a in range(off[i - 1], off[i]) for b in range(off[j - 1], off[j]))
        object.__setattr__(self, "_cells", cells)

    @property
    def n(self) -> int:
        return self.type.total

    def span(self, i: int, j: int) -> tuple:
        return self.blocks.get((i, j), ())

    def sign(self, i: int, j: int) -> int:
        if i == j:
            return 1
        return self.tau_signs.get(frozenset((i, j)), 1)

    def check_membership(self, m: RingMatrix) -> RingMatrix:
        """m with every entry reduced, m itself if none changes; MembershipError outside the GMA."""
        if m.rows != self.n or m.cols != self.n:
            raise DimensionError(f"expected {self.n}x{self.n} matrix")
        reduced = self.ring.reduce_matrix(m)
        entries = reduced.entries
        for a, b, i, j, span, _ in self._cells:
            x = entries[a][b]
            if span is None:
                ok = not isinstance(x, MultiPoly) or x.is_constant()
            else:
                ok = _in_span_rows(x, span, self.ring)
            if not ok:
                raise MembershipError(
                    f"entry ({a},{b}) = {x} outside the declared span of block ({i},{j})"
                )
        return reduced


def delta_involution(spec: GmaSpec, m: RingMatrix) -> RingMatrix:
    """M -> J_delta tau(M)^T J_delta^(-1) with tau the per-block sign rescaling."""
    return spec._form.adjoint(spec.check_membership(m))


def validate_standard_gma(spec: GmaSpec) -> dict:
    """Check the standard-GMA axioms; every violation is reported with indices."""
    violations = []
    t = spec.type
    ring = spec.ring

    def spans_inside(b1, b2):
        return all(_in_span_rows(x, spec._spans[b2], ring) for x in spec.span(*b1))

    for i in range(1, t.r + 1):
        for j in range(1, t.r + 1):
            if i == j:
                continue
            si, sj = t.apply(i), t.apply(j)
            if not (spans_inside((i, j), (sj, si)) and spans_inside((sj, si), (i, j))):
                violations.append(f"span({i},{j}) != span({sj},{si})")
            if spec.sign(i, j) != spec.sign(si, sj):
                violations.append(f"tau sign of ({i},{j}) differs from ({si},{sj})")
            for k in range(1, t.r + 1):
                for x in spec.span(i, j):
                    for y in spec.span(j, k):
                        prod = ring.reduce(x * y)
                        if not prod:
                            continue
                        if i == k:
                            if not prod.is_constant():
                                violations.append(
                                    f"closure: span({i},{j})*span({j},{k}) leaves Q at block ({i},{i})"
                                )
                        elif not _in_span_rows(prod, spec._spans[(i, k)], ring):
                            violations.append(
                                f"closure: span({i},{j})*span({j},{k}) not inside span({i},{k})"
                            )
                        if spec.sign(i, j) * spec.sign(j, k) != spec.sign(i, k):
                            violations.append(
                                f"tau signs not multiplicative on nonzero product ({i},{j},{k})"
                            )
    # involution consistency of the form itself
    jd = spec.J_delta
    if not is_alternating(jd):
        violations.append("J_delta is not alternating")
    if spec._form.pfaffian not in (Fraction(1), Fraction(-1)):
        violations.append("Pf(J_delta) is not a unit sign")
    return {"valid": not violations, "violations": sorted(set(violations))}


# -- trace / determinant / Pfaffian law ---------------------------------


def _constant_or_raise(x: Ring, what: str) -> Fraction:
    if type(x := exact_scalar(x)) is MultiPoly:
        raise StructureError(f"{what} did not land in Q: {x}")
    return x


def gma_trace_det_pf(spec: GmaSpec, m: RingMatrix) -> tuple:
    """(trace, determinant, Pfaffian-law value) of a GMA element.

    The Pfaffian entry, the degree-d law with square det and value 1 at the
    identity, is None unless m is fixed by the involution.
    """
    m = spec.check_membership(m)
    trace = _constant_or_raise(m.trace(), "GMA trace")
    det = _constant_or_raise(mat_det(m, spec.ring.dot), "GMA determinant")
    pf = _pfaffian_law(spec, m) if spec._form.adjoint(m) == m else None
    return trace, det, pf


def _pfaffian_law(spec: GmaSpec, m: RingMatrix) -> Fraction:
    """The Pfaffian law of a reduced symmetric GMA element; T_d where M J_delta is not alternating."""
    try:
        pf = spec._form.reduced_pfaffian(m)
    except StructureError:
        return gma_pf_coeffs(spec, m)[-1]
    return _constant_or_raise(spec.ring.reduce(pf), "GMA Pfaffian")


def gma_pf_coeffs(spec: GmaSpec, m: RingMatrix) -> tuple:
    """(T_0..T_d) for a symmetric GMA element, from the Lambda recursion.

    The Lambda-vector is ``lambdas_of_matrix`` in the quotient ring: Berkowitz
    with the ring's ``dot``, every inner product reduced as it forms.
    """
    return pfaffian_coeffs_from_lambdas(
        [_constant_or_raise(lam, f"Lambda_{i} of a GMA element")
         for i, lam in enumerate(lambdas_of_matrix(m, spec.ring.dot))])


def gma_chi_p(spec: GmaSpec, m: RingMatrix) -> RingMatrix:
    """chi^P(m, m) = sum (-1)^i T_i m^(d-i): zero iff the Pfaffian CH identity holds at m."""
    m = spec.check_membership(m)
    if spec._form.adjoint(m) != m:
        raise StructureError("chi^P is evaluated at symmetric elements")
    # reduction modulo a monomial ideal is a ring homomorphism, so reducing each product is exact
    return matrix_poly_value(gma_pf_coeffs(spec, m), m, spec.ring.product)


def check_sch_condition(spec: GmaSpec) -> tuple:
    """Test x* = -x for every spanning x of the I1/I2 pairing blocks.

    Returns (True, None) or (False, (i, sigma(i), witness_matrix)).
    """
    t = spec.type
    for i in sorted(t.i1 + t.i2):
        j = t.apply(i)
        for x in spec.span(i, j):
            m = _embed_at(spec, i, j, x)
            if delta_involution(spec, m) != -m:
                return False, (i, j, m)
    return True, None


def _embed_at(spec: GmaSpec, i: int, j: int, x: MultiPoly) -> RingMatrix:
    off = spec.type.offsets()
    rows = [[0] * spec.n for _ in range(spec.n)]
    rows[off[i - 1]][off[j - 1]] = x
    return RingMatrix(rows)


# -- random elements and kernel probes ----------------------------------


def random_gma_element(spec: GmaSpec, rng: random.Random) -> RingMatrix:
    """Random integers in [-4, 4] on the diagonal blocks, and as the coefficients of the bases off them.

    The block bases are reduced, and so is every combination of them.  Each
    integer is ``randrange(9) - 4``, the value ``randint(-4, 4)`` takes from
    the same step of the generator.
    """
    rows = [[0] * spec.n for _ in range(spec.n)]
    draw = rng.randrange
    for a, b, _, _, span, basis in spec._cells:
        if span is None:
            rows[a][b] = draw(9) - 4
        elif basis:
            terms: dict = {}
            for p in basis:
                k = draw(9) - 4
                for key, c in p._packed.items():
                    terms[key] = terms[key] + c * k if key in terms else c * k
            rows[a][b] = MultiPoly._trusted(spec.ring.vars, terms)
    return RingMatrix._trusted(rows)


def random_symmetric_gma_element(spec: GmaSpec, rng: random.Random) -> RingMatrix:
    """x + x* for a random GMA element x; reduced, as x and x* are."""
    x = random_gma_element(spec, rng)
    return x + spec._form.adjoint(x)


def kernel_probe(spec: GmaSpec, witness: RingMatrix, trials: int, seed: int) -> bool:
    """D(1 + witness * s) = 1 for sampled s: the witness behaves as a kernel element."""
    witness = spec.check_membership(witness)
    rng = random.Random(seed)
    for _ in range(trials):
        s = random_gma_element(spec, rng)
        probe = spec.ring.product(witness, s)._shifted(1)
        if _constant_or_raise(mat_det(probe, spec.ring.dot), "kernel probe") != 1:
            return False
    return True


# -- fixtures ------------------------------------------------------------


def standard_fixture() -> GmaSpec:
    """Valid standard GMA: one I0 block of size 2 plus an I1/I2 pair, all tau signs +1."""
    t = GmaType(i0=(1,), i1=(2,), i2=(3,), sigma=(1, 3, 2), dims=(2, 1, 1))
    ring = QuotientRing(("u", "v"), ((2, 0), (0, 2), (1, 1)))
    u, v = ring.variable("u"), ring.variable("v")
    blocks = {(1, 2): (u,), (3, 1): (u,), (2, 1): (v,), (1, 3): (v,)}
    signs = {frozenset((1, 2)): 1, frozenset((1, 3)): 1, frozenset((2, 3)): 1}
    return GmaSpec(t, ring, blocks, signs)


def counterexample_fixture() -> GmaSpec:
    """tau sign -1 on the pairing block: Cayley-Hamilton for D but not for P."""
    t = GmaType(i0=(), i1=(1,), i2=(2,), sigma=(2, 1), dims=(1, 1))
    ring = QuotientRing(("u", "v"), ((2, 0), (0, 2), (1, 1)))
    u, v = ring.variable("u"), ring.variable("v")
    blocks = {(1, 2): (u,), (2, 1): (v,)}
    signs = {frozenset((1, 2)): -1}
    return GmaSpec(t, ring, blocks, signs)
