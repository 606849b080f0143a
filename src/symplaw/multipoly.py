"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial stores an ordered tuple of variable names (kept sorted, so the
ordering is canonical) and a dict mapping packed exponent keys to nonzero
coefficients in one canonical form: an ``int`` when the value is integral, a
``Fraction`` otherwise, so arithmetic on integral polynomials stays in
``int``.  All arithmetic is exact; there is no floating point anywhere.
Polynomials interoperate with ``Fraction`` and ``int`` scalars, which act on
the coefficients directly, so matrix code can stay agnostic about whether an
entry is a scalar or a polynomial.

A packed key holds the exponent vector in one int, after Monagan and Pearce
("Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", 2007): each variable has a ``_FIELD``-bit field, the first variable
the highest, so integer order is lexicographic order.  The top bit of each
field is a guard: exponents are at most ``MAX_EXPONENT`` = 2^31 - 1, a
monomial product is one integer addition, and a product that carries an
exponent into a guard bit raises ``CapacityError`` instead of wrapping.  The
declared ``vars`` fix the fields; every check of where a polynomial fits (``==``,
``hash``, ``in_vars``, ``matrices.entry_vars``, ``gma.QuotientRing._lift``) reads
``used_vars``, the variables its terms use, so ``u*w^0`` fits wherever ``u`` does.

The public constructor validates its input; arithmetic results are built
from validated operands by the private ``MultiPoly._trusted``, unchecked, and
results whose coefficients are canonical already (a negation, a bucket of
``coefficients_in``) by ``MultiPoly._canonical``, which stores them as given.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from struct import unpack
from typing import Iterable, Mapping, Union

from .errors import CapacityError, VariableError

Scalar = Union[int, Fraction]
# A matrix entry or a value computed from one.  A value leaving a kernel (a determinant,
# trace, Pfaffian, Lambda_i, law value) is a Fraction if it is constant, else a MultiPoly
# (``matrices.exact_scalar``); a scalar entry of a matrix with a MultiPoly entry is held
# in canonical form (``canonical_scalar``), so it may be an int.
Ring = Union[int, Fraction, "MultiPoly"]

_FIELD = 32  # bits per variable in a packed key, the guard bit included
_MASK = (1 << _FIELD) - 1
MAX_EXPONENT = (1 << (_FIELD - 1)) - 1  # the largest exponent below a field's guard bit


def _pack(exp) -> int:
    """The packed key of an exponent vector of ints in [0, MAX_EXPONENT], the first the highest field."""
    key = 0
    for e in exp:
        key = key << _FIELD | e
    return key


def _shift(k: int, i: int) -> int:
    """The bit offset of the field of variable i of k."""
    return _FIELD * (k - 1 - i)


def _unpack(key: int, k: int) -> tuple:
    """The exponent tuple of a packed key over k variables: its k big-endian 32-bit fields."""
    return unpack(f">{k}I", key.to_bytes(4 * k, "big"))


@lru_cache(maxsize=None)
def _guard(k: int) -> int:
    """The guard bits of k fields: a key sum with one of them set has an exponent past the cap."""
    return sum(1 << _shift(k, i) + _FIELD - 1 for i in range(k))


def _over_cap(exp: int) -> CapacityError:
    return CapacityError(f"exponent {exp} is past the cap {MAX_EXPONENT}")


def _check_guard(terms: dict, k: int) -> None:
    """CapacityError if a key of ``terms``, a sum of two packed keys over k variables, sets a guard bit."""
    if terms and reduce(or_, terms) & _guard(k):
        raise _over_cap(max(max(_unpack(key, k)) for key in terms))


def _repacked(terms: dict, source: tuple, target: tuple) -> dict:
    """``terms`` over the variables ``source`` moved to the fields of ``target``; a variable of
    ``source`` missing from ``target`` must have exponent 0 in every key."""
    moves = [(_shift(len(source), i), _shift(len(target), target.index(v)))
             for i, v in enumerate(source) if v in target]
    return {sum((key >> s & _MASK) << t for s, t in moves): c for key, c in terms.items()}


def _checked_vars(variables: Iterable[str]) -> tuple:
    vs = tuple(variables)
    if list(vs) != sorted(vs):
        raise VariableError(f"variables must be sorted: {vs}")
    if len(set(vs)) != len(vs):
        raise VariableError(f"duplicate variable: {vs}")
    return vs


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
    __slots__ = ("vars", "_packed")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, Scalar]):
        vs = _checked_vars(variables)
        clean = {}
        for exp, coef in terms.items():
            exp = tuple(exp)
            if len(exp) != len(vs) or not all(type(e) is int and 0 <= e <= MAX_EXPONENT for e in exp):
                if len(exp) == len(vs) and all(type(e) is int and e >= 0 for e in exp):
                    raise _over_cap(max(exp))
                raise VariableError(f"exponent {exp} is not {len(vs)} non-negative ints for {vs}")
            c = canonical_scalar(coef)
            if c:
                clean[_pack(exp)] = c
        _set_vars(self, vs)
        _set_packed(self, clean)

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict) -> "MultiPoly":
        """Unchecked: sorted distinct variables, packed keys, int or Fraction coefficients; zeros
        are dropped and the rest made canonical."""
        return cls._canonical(variables, {e: c if type(c) is int else canonical_scalar(c)
                                          for e, c in terms.items() if c})

    @classmethod
    def _canonical(cls, variables: tuple, terms: dict) -> "MultiPoly":
        """Unchecked: sorted distinct variables, packed keys and nonzero canonical coefficients,
        stored as given."""
        p = object.__new__(cls)
        _set_vars(p, variables)
        _set_packed(p, terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self) -> dict:
        """The terms as {exponent tuple: coefficient}, a new dict on each read."""
        k = len(self.vars)
        return {_unpack(key, k): c for key, c in self._packed.items()}

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c: Scalar, variables: Iterable[str] = ()) -> "MultiPoly":
        vs = tuple(sorted(variables))
        return MultiPoly(vs, {(0,) * len(vs): c})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): 1})

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        """False exactly for the zero polynomial, as for int and Fraction zeros."""
        return bool(self._packed)

    def is_constant(self) -> bool:
        return not any(self._packed)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a Fraction."""
        if not self._packed:
            return Fraction(0)
        if not self.is_constant():
            raise VariableError(f"not a constant polynomial: {self}")
        return Fraction(self._packed[0])

    @property
    def used_vars(self) -> tuple:
        """The variables some term raises to a nonzero power: the fields set in the OR of the keys."""
        fields = reduce(or_, self._packed, 0)
        k = len(self.vars)
        return tuple(v for i, v in enumerate(self.vars) if fields >> _shift(k, i) & _MASK)

    def in_vars(self, variables: Iterable[str]) -> "MultiPoly":
        """Rewrite over the sorted ``variables``; VariableError if they miss one of ``used_vars``."""
        target = _checked_vars(variables)
        if target == self.vars:
            return self
        for v in self.vars:
            if v not in target and v in self.used_vars:
                raise VariableError(f"variable {v} missing from target {target}")
        return MultiPoly._canonical(target, _repacked(self._packed, self.vars, target))

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
            terms = dict(a._packed)
            for exp, coef in b._packed.items():
                terms[exp] = terms[exp] + coef if exp in terms else coef
            return MultiPoly._trusted(a.vars, terms)
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            # only the constant term, key 0, changes, so only it is made canonical
            terms = dict(self._packed)
            c = canonical_scalar(terms[0] + other if 0 in terms else other)
            if c:
                terms[0] = c
            else:  # other is nonzero, so a zero sum cancelled a constant term
                del terms[0]
            return MultiPoly._canonical(self.vars, terms)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._canonical(self.vars, {e: -c for e, c in self._packed.items()})

    def __sub__(self, other):
        return self + (-other) if isinstance(other, (MultiPoly, int, Fraction)) else NotImplemented

    def __rsub__(self, other):
        return -self + other if isinstance(other, (int, Fraction)) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            a, b = MultiPoly._aligned(self, other)
            left, right = a._packed, b._packed
            if len(left) == 1 and len(right) != 1:
                left, right = right, left
            if len(right) == 1:
                # one key added to every key: the keys stay distinct, so nothing accumulates,
                # and a coefficient 1 keeps every coefficient as it is stored
                ((shift, k),) = right.items()
                if k == 1:
                    terms = {e + shift: c for e, c in left.items()}
                else:
                    terms = {e + shift: c * k for e, c in left.items()}
                _check_guard(terms, len(a.vars))
                return (MultiPoly._canonical if k == 1 else MultiPoly._trusted)(a.vars, terms)
            terms: dict = {}
            for e1, c1 in left.items():
                for e2, c2 in right.items():
                    exp = e1 + e2
                    c = c1 * c2
                    terms[exp] = terms[exp] + c if exp in terms else c
            _check_guard(terms, len(a.vars))
            return MultiPoly._trusted(a.vars, terms)
        if isinstance(other, (int, Fraction)):
            other = canonical_scalar(other)
            return MultiPoly._trusted(self.vars, {e: c * other for e, c in self._packed.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError(f"polynomial exponent must be an int, got {type(n).__name__}")
        if n < 0:
            raise ValueError("negative power of a polynomial")
        # the part of top degree e in a variable has a nonzero n-th power, so the result carries
        # the exponent n * e: refuse it before forming any product
        k = len(self.vars)
        top = max((e for key in self._packed for e in _unpack(key, k)), default=0)
        if n * top > MAX_EXPONENT:
            raise _over_cap(n * top)
        result = MultiPoly.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # a square past the last bit could pass the cap that the power keeps
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            a, b = MultiPoly._aligned(self, other)
            return a._packed == b._packed
        if isinstance(other, (int, Fraction)):
            return self._packed == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        # Hash ignores unused variables so that equal values hash equally; a constant equals
        # its scalar value, so it hashes as that value.
        if self.is_constant():
            return hash(self.constant_value())
        used = self.used_vars
        return hash((used, frozenset(self.in_vars(used)._packed.items())))

    # -- extraction ---------------------------------------------------

    def coefficient(self, monomial: Mapping[str, int]) -> Fraction:
        """Coefficient of the given monomial (unlisted variables mean exponent 0)."""
        for v in monomial:
            if v not in self.vars:
                raise VariableError(f"unknown variable {v!r} (have {self.vars})")
        target = tuple(monomial.get(v, 0) for v in self.vars)
        if not all(isinstance(e, int) and 0 <= e <= MAX_EXPONENT for e in target):
            return Fraction(0)
        return Fraction(self._packed.get(_pack(target), 0))

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
        s = _shift(len(self.vars), i)
        low = (1 << s) - 1
        out: dict = {}
        for key, coef in self._packed.items():
            out.setdefault(key >> s & _MASK, {})[key >> s + _FIELD << s | key & low] = coef
        return {deg: MultiPoly._canonical(rest, terms) for deg, terms in out.items()}

    # -- rendering ----------------------------------------------------

    def sorted_terms(self):
        """Terms in descending lexicographic order of exponents: descending order of packed keys."""
        k, packed = len(self.vars), self._packed
        return [(_unpack(key, k), packed[key]) for key in sorted(packed, reverse=True)]

    def __str__(self):
        if not self._packed:
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


# the slots' own setters, which the refusing __setattr__ does not see
_set_vars, _set_packed = MultiPoly.vars.__set__, MultiPoly._packed.__set__


def fresh_var(base: str, taken: Iterable[str]) -> str:
    """A variable name starting with ``base`` that avoids every name in ``taken``."""
    taken = set(taken)
    if base not in taken:
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"
