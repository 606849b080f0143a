"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial stores an ordered tuple of variable names (kept sorted, so the
ordering is canonical) and a dict mapping exponent tuples to nonzero
coefficients in one canonical form: an ``int`` when the value is integral, a
``Fraction`` otherwise, so arithmetic on integral polynomials stays in
``int``.  ``constant_value`` and ``coefficient`` return a ``Fraction``.  All
arithmetic is exact; there is no floating point anywhere.  Polynomials
interoperate with ``Fraction`` and ``int`` scalars, which act on the
coefficients directly, so matrix code can stay agnostic about whether an
entry is a scalar or a polynomial.

The public constructor validates its input; arithmetic results are built
from validated operands by the private ``MultiPoly._trusted``, unchecked, and
results whose coefficients are canonical already (a negation, a bucket of
``coefficients_in``) by ``MultiPoly._canonical``, which stores them as given.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Union

from .errors import VariableError

Scalar = Union[int, Fraction]
# A matrix entry or a value computed from one.  Values that leave a kernel
# (determinants, traces, Pfaffians, law values) are a Fraction or a
# MultiPoly; inside a matrix with a MultiPoly entry every scalar entry is
# held in canonical form (``canonical_scalar``), so it may be an int.
Ring = Union[int, Fraction, "MultiPoly"]


def canonical_scalar(c) -> Scalar:
    """c as a coefficient: an int if it is integral, else a Fraction with denominator > 1."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, Scalar]):
        vs = tuple(variables)
        if list(vs) != sorted(vs):
            raise VariableError(f"variables must be sorted: {vs}")
        if len(set(vs)) != len(vs):
            raise VariableError(f"duplicate variable: {vs}")
        clean = {}
        for exp, coef in terms.items():
            exp = tuple(exp)
            if len(exp) != len(vs) or not all(type(e) is int and e >= 0 for e in exp):
                raise VariableError(f"exponent {exp} is not {len(vs)} non-negative ints for {vs}")
            c = canonical_scalar(coef)
            if c:
                clean[exp] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict) -> "MultiPoly":
        """Unchecked: sorted distinct variables, int or Fraction coefficients; zeros are
        dropped and the rest made canonical."""
        return cls._canonical(variables, {e: c if type(c) is int else canonical_scalar(c)
                                          for e, c in terms.items() if c})

    @classmethod
    def _canonical(cls, variables: tuple, terms: dict) -> "MultiPoly":
        """Unchecked: sorted distinct variables and nonzero canonical coefficients, stored as given."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", variables)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c: Scalar, variables: Iterable[str] = ()) -> "MultiPoly":
        vs = tuple(sorted(variables))
        return MultiPoly(vs, {(0,) * len(vs): c})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): 1})

    @staticmethod
    def zero(variables: Iterable[str] = ()) -> "MultiPoly":
        return MultiPoly(tuple(sorted(variables)), {})

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        """False exactly for the zero polynomial, as for int and Fraction zeros."""
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a Fraction."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise VariableError(f"not a constant polynomial: {self}")
        return Fraction(next(iter(self.terms.values())))

    def in_vars(self, variables: Iterable[str]) -> "MultiPoly":
        """Rewrite over a larger (sorted) variable tuple."""
        target = tuple(variables)
        if target == self.vars:
            return self
        pos = {}
        for v in self.vars:
            if v not in target:
                raise VariableError(f"variable {v} missing from target {target}")
            pos[v] = target.index(v)
        terms = {}
        for exp, coef in self.terms.items():
            new = [0] * len(target)
            for v, e in zip(self.vars, exp):
                new[pos[v]] = e
            terms[tuple(new)] = coef
        return MultiPoly(target, terms)

    @staticmethod
    def _aligned(a: "MultiPoly", b: "MultiPoly"):
        if a.vars == b.vars:
            return a, b
        union = tuple(sorted(set(a.vars) | set(b.vars)))
        return a.in_vars(union), b.in_vars(union)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, MultiPoly):
            a, b = MultiPoly._aligned(self, other)
            terms = dict(a.terms)
            for exp, coef in b.terms.items():
                terms[exp] = terms[exp] + coef if exp in terms else coef
            return MultiPoly._trusted(a.vars, terms)
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            # only the constant term changes, so only it is made canonical
            one = (0,) * len(self.vars)
            terms = dict(self.terms)
            c = canonical_scalar(terms[one] + other if one in terms else other)
            if c:
                terms[one] = c
            else:  # other is nonzero, so a zero sum cancelled a constant term
                del terms[one]
            return MultiPoly._canonical(self.vars, terms)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._canonical(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other) if isinstance(other, (MultiPoly, int, Fraction)) else NotImplemented

    def __rsub__(self, other):
        return -self + other if isinstance(other, (int, Fraction)) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            a, b = MultiPoly._aligned(self, other)
            terms: dict = {}
            for e1, c1 in a.terms.items():
                for e2, c2 in b.terms.items():
                    exp = tuple(map(add, e1, e2))
                    c = c1 * c2
                    terms[exp] = terms[exp] + c if exp in terms else c
            return MultiPoly._trusted(a.vars, terms)
        if isinstance(other, (int, Fraction)):
            other = canonical_scalar(other)
            return MultiPoly._trusted(self.vars, {e: c * other for e, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            a, b = MultiPoly._aligned(self, other)
            return a.terms == b.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(0,) * len(self.vars): other} if other else {})
        return NotImplemented

    def __hash__(self):
        # Hash ignores unused variables so that equal values hash equally.
        core = frozenset(
            (tuple(v for v, e in zip(self.vars, exp) if e),
             tuple(e for e in exp if e),
             coef)
            for exp, coef in self.terms.items()
        )
        return hash(core)

    # -- extraction ---------------------------------------------------

    def coefficient(self, monomial: Mapping[str, int]) -> Fraction:
        """Coefficient of the given monomial (unlisted variables mean exponent 0)."""
        for v in monomial:
            if v not in self.vars:
                raise VariableError(f"unknown variable {v!r} (have {self.vars})")
        target = tuple(monomial.get(v, 0) for v in self.vars)
        return Fraction(self.terms.get(target, 0))

    def coefficients_in(self, var: str) -> dict:
        """Split into {degree in var: nonzero polynomial in the remaining variables}.

        Each term lands in its own bucket slot, so every coefficient is kept as
        it is stored and the buckets are built without a canonicalizing pass.
        """
        if var not in self.vars:
            if not self:
                return {}
            return {0: self}
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        out: dict = {}
        for exp, coef in self.terms.items():
            out.setdefault(exp[i], {})[exp[:i] + exp[i + 1:]] = coef
        return {deg: MultiPoly._canonical(rest, terms) for deg, terms in out.items()}

    def substitute(self, values: Mapping[str, Ring]) -> Ring:
        """Evaluate at the given values (every variable must be assigned)."""
        missing = [v for v in self.vars if v not in values]
        if missing:
            raise VariableError(f"no value for variables {missing}")
        total: Ring = Fraction(0)
        for exp, coef in self.terms.items():
            term: Ring = coef
            for v, e in zip(self.vars, exp):
                for _ in range(e):
                    term = term * values[v]
            total = total + term
        return total

    # -- rendering ----------------------------------------------------

    def sorted_terms(self):
        """Terms in descending lexicographic order of exponents."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, coef in self.sorted_terms():
            factors = []
            for v, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                body = str(coef)
            elif coef == 1:
                body = "*".join(factors)
            elif coef == -1:
                body = "-" + "*".join(factors)
            else:
                body = str(coef) + "*" + "*".join(factors)
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


def fresh_var(base: str, taken: Iterable[str]) -> str:
    """A variable name starting with ``base`` that avoids every name in ``taken``."""
    taken = set(taken)
    if base not in taken:
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"
