"""Determinant-law and Pfaffian-law coefficient calculus.

Group-algebra elements over a free group carry the involution
w* = lambda(w) w^(-1); a representation into GSp_2d(Q) evaluates the
determinant law D = det(rho(.)) and the Pfaffian law P = reduced
Pfaffian of rho(.) on symmetric elements.  The coefficient vectors
(Lambda_i from D, T_i from P) are tied by the convolution recursion
Lambda_i = sum_j T_j T_(i-j), which determines P from D whenever 2 is
invertible; that recursion is also what extends P to non-symmetric
arguments.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import (
    ArityError,
    DimensionError,
    GeneratorError,
    SpectrumError,
    StructureError,
    SymplawError,
)
from .matrices import (
    RingMatrix,
    _exact,
    _linear_combination,
    entry_vars,
    exact_scalar,
    lambdas_of_matrix,
    mat_det,
)
from .multipoly import MultiPoly, Ring, canonical_scalar, fresh_var
from .symplectic import (
    SymplecticContext,
    matrix_poly_value,
    pfaffian_coeffs_of_matrix,
    similitude,
    symplectic_transpose,
)
from .words import Word, check_word, evaluate, format_word, word_inv, word_mul

# -- group algebra ----------------------------------------------------


class GroupAlgebraElement:
    """Finite linear combination of reduced free-group words."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Ring]):
        if not isinstance(terms, Mapping):
            raise TypeError(f"terms must map words to coefficients, got {type(terms).__name__}")
        clean = {}
        for w, c in terms.items():
            w = check_word(w)
            c = exact_scalar(c)
            if c:
                clean[w] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GroupAlgebraElement is immutable")

    @staticmethod
    def from_word(w: Word, coef=1) -> "GroupAlgebraElement":
        return GroupAlgebraElement({w: coef})

    @staticmethod
    def one(coef=1) -> "GroupAlgebraElement":
        return GroupAlgebraElement({(): coef})

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, Fraction(0)) + c
        return GroupAlgebraElement(terms)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "GroupAlgebraElement":
        c = exact_scalar(c)
        return GroupAlgebraElement({w: c * x for w, x in self.terms.items()})

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        terms: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = word_mul(w1, w2)
                terms[w] = terms.get(w, Fraction(0)) + c1 * c2
        return GroupAlgebraElement(terms)

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = [f"({c})*{format_word(w)}" for w, c in sorted(self.terms.items())]
        return " + ".join(parts)

    __repr__ = __str__


# -- representations --------------------------------------------------


@dataclass(frozen=True)
class InvolutiveRepresentation:
    """Generator images in GSp_2d(Q); ``lambda_values`` holds their similitude factors."""

    ctx: SymplecticContext
    generator_images: tuple
    kind: str = "Sp"
    lambda_values: tuple = field(init=False)
    # word -> rho(word) for each letter and each prefix of a cached word; outside eq, hash, repr
    _images: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("Sp", "GSp"):
            raise SymplawError(f"kind must be Sp or GSp, got {self.kind!r}")
        images = _matrix_images(self.generator_images)
        lams = []
        cache = {(): RingMatrix.identity(self.ctx.n)}
        for gen, m in enumerate(images, 1):
            if m.cleared() is None:
                raise StructureError("generator images must have rational entries")
            lam = similitude(self.ctx, m)
            # M^j M = lambda Id with lambda != 0, so M^(-1) = M^j / lambda
            mj = symplectic_transpose(self.ctx, m)
            cache[((gen, 1),)] = m
            cache[((gen, -1),)] = mj if lam == 1 else mj * (1 / lam)
            lams.append(lam)
        if self.kind == "Sp" and any(lam != 1 for lam in lams):
            raise StructureError("Sp representation must have all similitudes equal to 1")
        object.__setattr__(self, "generator_images", images)
        object.__setattr__(self, "lambda_values", tuple(lams))
        object.__setattr__(self, "_images", cache)

    @staticmethod
    def from_images(images: Sequence[RingMatrix], kind: str = "Sp") -> "InvolutiveRepresentation":
        images = _matrix_images(images)
        if not images:
            raise DimensionError("need at least one generator image")
        n = images[0].rows
        if n % 2:
            raise DimensionError("images must be 2d x 2d")
        return InvolutiveRepresentation(SymplecticContext(n // 2), images, kind)

    @property
    def num_generators(self) -> int:
        return len(self.generator_images)

    def _check_generators(self, w: Word):
        """GeneratorError if the reduced word ``w`` uses a generator past the representation's."""
        top = max((gen for gen, _ in w), default=0)
        if top > self.num_generators:
            raise GeneratorError(f"word uses g{top} but only {self.num_generators} generators exist")

    def rho_word(self, w: Word) -> RingMatrix:
        """rho(w), memoized: a new word extends its longest cached prefix, one product per letter."""
        w = tuple(w)
        m = self._images.get(w)
        if m is not None:
            return m
        self._check_generators(check_word(w))
        return evaluate(w, self._images)

    def _lambda(self, w: Word) -> Fraction:
        """lambda(w) of a reduced word: the product of its letters', after the generator bound."""
        self._check_generators(w)
        lam = Fraction(1)
        for gen, sign in w:
            lam *= self.lambda_values[gen - 1] if sign > 0 else 1 / self.lambda_values[gen - 1]
        return lam

    def rho(self, x: GroupAlgebraElement) -> RingMatrix:
        """Linear extension of the word map over Fraction or MultiPoly coefficients."""
        if not isinstance(x, GroupAlgebraElement):
            raise TypeError(f"rho takes a GroupAlgebraElement, got {type(x).__name__}")
        n = self.ctx.n
        return _linear_combination([(c, self.rho_word(w)) for w, c in x.terms.items()], n, n)


def _matrix_images(images) -> tuple:
    """``images`` as a tuple; TypeError unless each is a RingMatrix."""
    images = tuple(images)
    if not all(isinstance(m, RingMatrix) for m in images):
        raise TypeError("generator images must be RingMatrix values")
    return images


def star(rep: InvolutiveRepresentation, x: GroupAlgebraElement) -> GroupAlgebraElement:
    """Linear extension of w -> lambda(w) w^(-1), an involution.  The words of ``x`` were checked
    when it was built and inversion is one-to-one on reduced words, so each term only moves,
    scaled by lambda(w) (1 under Sp); only the generator bound is left to check."""
    if not isinstance(rep, InvolutiveRepresentation):
        raise TypeError(f"star takes an InvolutiveRepresentation, got {type(rep).__name__}")
    if not isinstance(x, GroupAlgebraElement):
        raise TypeError(f"star takes a GroupAlgebraElement, got {type(x).__name__}")
    if rep.kind == "GSp":
        return GroupAlgebraElement({word_inv(w): rep._lambda(w) * c for w, c in x.terms.items()})
    for w in x.terms:
        rep._check_generators(w)
    return GroupAlgebraElement({word_inv(w): c for w, c in x.terms.items()})


def eval_det_law(rep: InvolutiveRepresentation, x: GroupAlgebraElement) -> Ring:
    """D(x) = det(rho(x))."""
    if not isinstance(rep, InvolutiveRepresentation):
        raise TypeError(f"eval_det_law takes an InvolutiveRepresentation, got {type(rep).__name__}")
    return mat_det(rep.rho(x))


def eval_pf_law(rep: InvolutiveRepresentation, x: GroupAlgebraElement) -> Ring:
    """P(x) = reduced Pfaffian of rho(x); requires star(x) = x.  ``star`` checks both arguments."""
    if star(rep, x) != x:
        raise StructureError("Pfaffian law is only defined on symmetric elements")
    # rho(x*) = rho(x)^j since every generator's similitude is verified, so rho(x) is j-symmetric
    return rep.ctx.form.reduced_pfaffian(rep.rho(x))


# -- coefficient vectors ----------------------------------------------
#
# A Lambda-vector (L_0..L_2d), with D(t - r) = sum (-1)^i L_i t^(2d-i), and a
# T-vector (T_0..T_d), with P(t - r) = sum (-1)^i T_i t^(d-i), are plain
# tuples; L_0 = T_0 = 1.


def newton_lambdas_from_traces(traces: Sequence) -> tuple:
    """Newton's identities: i*L_i = sum_(k=1..i) (-1)^(k-1) L_(i-k) s_k for i = 1..len(traces).

    TypeError on a trace that is not exact, checked once before any arithmetic."""
    traces = tuple(map(_exact, traces))
    if not traces:
        raise SymplawError("need at least one power trace")
    lams: list = [Fraction(1)]
    for i in range(1, len(traces) + 1):
        acc: Ring = Fraction(0)
        for k in range(1, i + 1):
            term = lams[i - k] * traces[k - 1]
            acc = acc + term if (k - 1) % 2 == 0 else acc - term
        lams.append(acc * Fraction(1, i))
    return tuple(lams)


def pfaffian_coeffs_from_lambdas(lams: Sequence) -> tuple:
    """Solve Lambda_i = sum_j T_j T_(i-j) with T_0 = 1 and T_i = 0 for i > d.

    The residual rows i = d+1..2d must hold as well; if they fail the
    Lambda spectrum is not a doubled (symmetric) spectrum.  TypeError on a
    Lambda_i that is not exact, checked once before any arithmetic.
    """
    lams = tuple([x if isinstance(x, MultiPoly) else canonical_scalar(x) for x in map(_exact, lams)])
    if len(lams) % 2 == 0:
        raise DimensionError(f"{len(lams)} Lambda coefficients: the dimension must be even (2d)")
    if lams[0] != 1:
        raise StructureError("Lambda_0 must be 1")
    d = len(lams) // 2
    half = Fraction(1, 2)
    ts: list = [1]  # on canonical scalars: an int while the T_i stay integral
    for i in range(1, d + 1):
        acc: Ring = lams[i]
        for j in range(1, i):
            acc = acc - ts[j] * ts[i - j]
        ts.append(acc >> 1 if type(acc) is int and not acc & 1 else acc * half)
    for i in range(d + 1, 2 * d + 1):
        acc = 0
        for j in range(max(0, i - d), min(i, d) + 1):
            acc = acc + ts[j] * ts[i - j]
        if not acc == lams[i]:
            raise SpectrumError(
                f"Lambda_{i} inconsistent with a squared degree-{d} polynomial"
            )
    return tuple([t if isinstance(t, MultiPoly) else Fraction(t) for t in ts])


def pf_law_from_det(rep: InvolutiveRepresentation, x: GroupAlgebraElement) -> Ring:
    """P extended to arbitrary elements through the coefficient recursion.

    On symmetric elements this agrees with eval_pf_law; elsewhere it is the
    canonical degree-d law determined by D alone.
    """
    return pfaffian_coeffs_from_lambdas(lambdas_of_matrix(rep.rho(x)))[-1]


# -- d = 4 closed forms ------------------------------------------------

# T_4 in terms of the Lambda_i, solved from the convolution recursion:
# T_4 = L4/2 - L1 L3/4 + 3 L1^2 L2/16 - L2^2/8 - 5 L1^4/128.
_D4_LAMBDA_COEFFS = (
    Fraction(1, 2),
    Fraction(-1, 4),
    Fraction(3, 16),
    Fraction(-1, 8),
    Fraction(-5, 128),
)

# The same value from power traces s_k = tr(M^k) via Newton:
# T_4 = s1^4/384 - s1^2 s2/32 + s1 s3/12 + s2^2/32 - s4/8.
_D4_TRACE_COEFFS = (
    Fraction(1, 384),
    Fraction(-1, 32),
    Fraction(1, 12),
    Fraction(1, 32),
    Fraction(-1, 8),
)


def closed_form_check_d4(lams: Sequence, traces: Sequence) -> tuple:
    """The two degree-4 closed forms for T_4: from Lambda's and from traces.

    Both must equal pfaffian_coeffs_from_lambdas(lams)[4].  TypeError on an inexact input.
    """
    lams, traces = tuple(map(_exact, lams)), tuple(map(_exact, traces))
    if len(lams) != 9:
        raise DimensionError("closed forms are specific to 2d = 8")
    if len(traces) < 4:
        raise DimensionError("need the first four power traces")
    l1, l2, l3, l4 = lams[1], lams[2], lams[3], lams[4]
    a = _D4_LAMBDA_COEFFS
    from_lambdas = a[0] * l4 + a[1] * (l1 * l3) + a[2] * (l1**2 * l2) + a[3] * l2**2 + a[4] * l1**4
    s1, s2, s3, s4 = traces[0], traces[1], traces[2], traces[3]
    b = _D4_TRACE_COEFFS
    from_traces = b[0] * s1**4 + b[1] * (s1**2 * s2) + b[2] * (s1 * s3) + b[3] * s2**2 + b[4] * s4
    return from_lambdas, from_traces


# -- polarized Cayley-Hamilton forms ----------------------------------


def chi_alpha(
    rep: InvolutiveRepresentation,
    elems: Sequence[GroupAlgebraElement],
    alpha: Sequence[int],
) -> RingMatrix:
    """Coefficient of t^alpha in chi^P(s, s) for s = t_1 rho(r_1) + ... + t_n rho(r_n).

    Each r_i must be symmetric and sum(alpha) must equal d.  For a faithful
    matrix model the result is the zero matrix (Pfaffian Cayley-Hamilton).
    """
    d = rep.ctx.d
    if len(alpha) != len(elems):
        raise ArityError("alpha and element list have different lengths")
    if sum(alpha) != d or any(a < 0 for a in alpha):
        raise SymplawError(f"alpha must be nonnegative and sum to d = {d}")
    for r in elems:
        if star(rep, r) != r:
            raise StructureError("chi_alpha arguments must be symmetric elements")
    images = [rep.rho(r) for r in elems]
    taken = set().union(*map(entry_vars, images))
    tvars = [fresh_var(f"t{i + 1}", taken) for i in range(len(elems))]
    s = _linear_combination(list(zip(map(MultiPoly.variable, tvars), images)), rep.ctx.n, rep.ctx.n)
    # s is j-symmetric: every r_i is symmetric and every generator's similitude
    # is verified, so rho(r*) = rho(r)^j
    acc = matrix_poly_value(pfaffian_coeffs_of_matrix(rep.ctx, s), s)
    mono = {tv: a for tv, a in zip(tvars, alpha)}

    def pick(entry):
        if isinstance(entry, MultiPoly):
            known = {v: mono.get(v, 0) for v in entry.vars}
            return entry.coefficient(known)
        return entry if all(a == 0 for a in alpha) else Fraction(0)

    return acc.map_entries(pick)

