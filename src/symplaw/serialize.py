"""JSON serialization for every value the CLI reads.

Rationals are "p/q" strings (bare integers allowed on input); matrices are
row-major arrays; polynomials are {"vars": [...], "terms": [{"exp": [...],
"coef": "p/q"}]} objects, with a compact string form ("2/3*u^2*v - 1")
accepted on input for fixtures.  Every integer read from text, block keys and
"p/q" halves included, is a ``words.integer_literal``, every rational a
``_ratio_literal``; ``parse_poly_string`` builds on both, in linear time.  Every
JSON object is read by ``json_fields``, which refuses a key it was not told of.
Values are only read: the CLI prints what it computes with ``str``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial

from .detlaws import GroupAlgebraElement, InvolutiveRepresentation
from .errors import CapacityError, SchemaError
from .gma import GmaSpec, GmaType, QuotientRing
from .invariants import InvariantFunction, TraceWord
from .matrices import RingMatrix, matrix_from_ratios
from .multipoly import MultiPoly
from .symplectic import SymplecticContext
from .words import check_word_length, integer_literal, parse_word


_ABSENT = object()  # the default of an optional key whose absence is not a value


def json_fields(obj, what: str, required: tuple, optional: dict = {}) -> list:
    """The values of ``obj``'s ``required`` keys, then of its ``optional`` ones, each absent
    one read as its default; a SchemaError on a non-object, on a missing required key and on
    any other key.  ``what`` names the object in the error.  The one reader of JSON keys."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object, got {obj!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"unknown key {key!r} in {what}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{what} missing {key!r}")
    return [obj[key] for key in required] + [obj.get(key, v) for key, v in optional.items()]


def _typed(value, kind: type, what: str):
    """``value`` after checking that it is a ``kind``; ``what`` names it in the error."""
    if not isinstance(value, kind):
        raise SchemaError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


# -- rationals ----------------------------------------------------------


def _ratio_literal(obj) -> tuple | None:
    """(p, q) for an int p (not a bool), or for text "p" or "p/q" of ``integer_literal``s
    with q > 0, else None; not reduced.  The one reader of a rational in text."""
    if type(obj) is not str:
        return (obj, 1) if type(obj) is int else None
    num, slash, den = obj.partition("/")
    p, q = integer_literal(num), integer_literal(den) if slash else 1
    return (p, q) if p is not None and q is not None and q > 0 else None


def fraction_from_json(obj) -> Fraction:
    if (ratio := _ratio_literal(obj)) is None:
        raise SchemaError(f"bad rational literal {obj!r}" if isinstance(obj, str)
                          else f"not a rational: {obj!r}")
    return Fraction(*ratio)


def int_from_json(value, what: str) -> int:
    """An integer, or an ``integer_literal`` string, as an int; ``what`` names the field in the error."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and (n := integer_literal(value)) is not None:
        return n
    raise SchemaError(f"{what} must be an integer, got {value!r}")


# -- polynomials ----------------------------------------------------------


def poly_from_json(obj) -> MultiPoly:
    if isinstance(obj, str):
        return parse_poly_string(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return MultiPoly.constant(obj)
    variables, raw_terms = json_fields(obj, "polynomial", ("vars", "terms"))
    if not (isinstance(variables, list) and all(isinstance(v, str) for v in variables)
            and isinstance(raw_terms, list)):
        raise SchemaError(f"polynomial needs a list of variable names and a list of terms: {obj!r}")
    terms = {}
    for t in raw_terms:
        exp, coef = json_fields(t, "polynomial term", ("exp", "coef"))
        # MultiPoly refuses e < 0
        exp = tuple(int_from_json(e, "exponent") for e in _typed(exp, list, "polynomial term exp"))
        terms[exp] = terms.get(exp, Fraction(0)) + fraction_from_json(coef)
    return MultiPoly(variables, terms)


_SIGN = re.compile(r"\s*([+-])\s*")
_TIMES = re.compile(r"\s*\*\s*")


def _bad(what: str, part: str, text: str) -> SchemaError:
    """The error for a bad ``part`` of the polynomial string ``text``, quoted as written."""
    return SchemaError(f"bad {what} {part!r}" + (f" in {text!r}" if part != text else ""))


def parse_poly_string(text: str) -> MultiPoly:
    """Compact input form: sums of terms like "2/3*u^2*v", "-u", "5".

    Terms are joined by "+" or "-", the first may carry a "-", and factors by
    "*"; white space may stand only around these, not at either end.  A factor is a
    ``_ratio_literal``, or a variable with an optional "^" and ``integer_literal``.
    Every term is summed into one dict, so the time is linear in the number of terms.
    """
    parts = ["+", *_SIGN.split(text)]  # sign, term, sign, term, ...
    if text.startswith("-"):
        del parts[:2]  # the empty term before a leading "-"
    names, terms = set(), {}  # terms: sorted (variable, nonzero exponent) pairs -> coefficient
    for sign, term in zip(parts[::2], parts[1::2]):
        coef, factors = Fraction(-1 if sign == "-" else 1), {}
        for factor in _TIMES.split(term):
            if (ratio := _ratio_literal(factor)) is not None:
                coef *= Fraction(*ratio)
                continue
            if not factor:
                raise SchemaError(f"empty factor in {text!r}")
            name, caret, exp = factor.partition("^")
            if not name.isidentifier():
                raise _bad("variable" if name[:1].isidentifier() else "rational literal", factor, text)
            power = integer_literal(exp) if caret else 1
            if power is None:
                raise _bad("exponent", exp, text)
            factors[name] = factors.get(name, 0) + power
        names.update(factors)
        key = tuple(sorted((v, e) for v, e in factors.items() if e))
        terms[key] = terms.get(key, 0) + coef
    vs = tuple(sorted(names))
    return MultiPoly(vs, {tuple(dict(key).get(v, 0) for v in vs): c for key, c in terms.items()})


def ring_value_from_json(obj):
    """A ``_ratio_literal`` as a Fraction; any other string, or an object, as a polynomial."""
    if (ratio := _ratio_literal(obj)) is not None:
        return Fraction(*ratio)
    if isinstance(obj, (str, dict)):
        return poly_from_json(obj)
    raise SchemaError(f"unserializable value {obj!r}")


def ring_value_to_string(x) -> str:
    """Canonical human-readable form for CLI output; CapacityError past the int-to-string digit limit."""
    try:
        return str(x)
    except ValueError as e:
        raise CapacityError(f"value too long to print: {e}") from e


# -- matrices -------------------------------------------------------------


def matrix_from_json(obj, max_dim: int) -> RingMatrix:
    """Parse a matrix; check its shape and its size against ``max_dim`` before reading any entry.

    Integers and ``_ratio_literal``s are read as integer pairs, so a rational
    matrix goes straight into its cleared form (B, delta) without a Fraction
    per entry.  Every other entry is a polynomial, read by ``ring_value_from_json``,
    and makes a polynomial matrix.
    """
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SchemaError("matrix must be a nonempty array of arrays")
    if max(len(obj), *map(len, obj)) > max_dim:
        raise SchemaError(f"matrix exceeds SYMPLAW_MAX_DIM = {max_dim}")
    ncols = len(obj[0])
    if not ncols:
        raise SchemaError("empty matrix")
    if any(len(r) != ncols for r in obj):
        raise SchemaError("ragged rows")
    rows, poly = [], False
    for raw in obj:
        row = []
        for x in raw:
            if (entry := _ratio_literal(x)) is None:
                entry, poly = ring_value_from_json(x), True
            row.append(entry)
        rows.append(row)
    if poly:
        return RingMatrix([[x if isinstance(x, MultiPoly) else Fraction(*x) for x in row]
                           for row in rows])
    return matrix_from_ratios(rows)


# -- group algebra, representations ------------------------------------------


# Terms a group-algebra element may have.  ``rho_word`` builds the image of
# each term's word, so time grows with the count: at 2d = 12 an element of 24
# random 100-letter terms takes about 2.8 s (Python 3.11, 2-core x86-64 VM).
MAX_ELEMENT_TERMS = 24

# Arguments of an invariant function evaluated at the CLI: the gammas of
# ``eval theta`` and the matrices of ``eval invariant``.  ``theta_eval`` builds
# the image of every gamma, so time and memory grow with the count: at 2d = 12,
# 24 random 100-letter gammas take about 0.4 s and 45 MB peak RSS (Python 3.11,
# 2-core x86-64 VM).
MAX_EVAL_ARGUMENTS = 24


def eval_arguments(items, what: str) -> list:
    """The list ``items``; CapacityError on more than ``MAX_EVAL_ARGUMENTS``, before any is read."""
    if len(_typed(items, list, what)) > MAX_EVAL_ARGUMENTS:
        raise CapacityError(f"{what}: more than the {MAX_EVAL_ARGUMENTS}-argument guard")
    return items


def group_elem_from_json(obj) -> GroupAlgebraElement:
    """Parse an element; CapacityError on more than ``MAX_ELEMENT_TERMS`` terms, before any is read."""
    (raw_terms,) = json_fields(obj, "group algebra element", ("terms",))
    if len(_typed(raw_terms, list, "group algebra element terms")) > MAX_ELEMENT_TERMS:
        raise CapacityError(f"group algebra element has more than the {MAX_ELEMENT_TERMS}-term guard")
    terms: dict = {}
    for t in raw_terms:
        word, coef = json_fields(t, "group algebra term", ("word", "coef"))
        w = parse_word(_typed(word, str, "group algebra term word"))
        terms[w] = terms.get(w, Fraction(0)) + ring_value_from_json(coef)
    return GroupAlgebraElement(terms)


def representation_from_json(obj, max_dim: int) -> InvolutiveRepresentation:
    """Parse a representation; refuse 2d > max_dim before building anything."""
    d, kind, generators, declared = json_fields(
        obj, "representation", ("d", "kind", "generators"), {"lambdas": _ABSENT})
    d = int_from_json(d, "representation d")
    if 2 * d > max_dim:
        raise SchemaError(f"representation 2d = {2 * d} exceeds SYMPLAW_MAX_DIM = {max_dim}")
    images = tuple(matrix_from_json(m, max_dim)
                   for m in _typed(generators, list, "representation generators"))
    rep = InvolutiveRepresentation(SymplecticContext(d), images,
                                   _typed(kind, str, "representation kind"))
    if declared is not _ABSENT:
        if not isinstance(declared, list) or len(declared) != len(images):
            raise SchemaError("one lambda per generator image required")
        for x, got in zip(declared, rep.lambda_values):
            lam = fraction_from_json(x)
            if lam != got:
                raise SchemaError(f"declared similitude {lam} but M^j M = {got} Id")
    return rep


# -- GMA specs --------------------------------------------------------------


def _block_key(key: str) -> tuple:
    """A block key "i,j" of two ``integer_literal``s as the pair of ints (i, j)."""
    pair = tuple(map(integer_literal, key.split(",")))
    if len(pair) == 2 and None not in pair:
        return pair
    raise SchemaError(f"block key must be two comma-separated integers, got {key!r}")


def gma_spec_from_json(obj, max_dim: int) -> GmaSpec:
    """Parse a GMA spec; refuse a total dimension above ``max_dim`` before building J_delta."""
    type_keys = ("I0", "I1", "I2", "sigma", "dims")
    *type_lists, variables, nil_monomials, raw_blocks, raw_signs = json_fields(
        obj, "GMA spec", type_keys, {"base_vars": [], "nil_monomials": [], "blocks": {}, "tau_signs": {}})
    t = GmaType(*(tuple(int_from_json(x, f"GMA spec {key!r} entry")
                        for x in _typed(value, list, f"GMA spec {key!r}"))
                  for key, value in zip(type_keys, type_lists)))
    if t.total > max_dim:
        raise SchemaError(f"GMA dimension {t.total} exceeds SYMPLAW_MAX_DIM = {max_dim}")
    if not all(isinstance(v, str) for v in _typed(variables, list, "GMA spec 'base_vars'")):
        raise SchemaError(f"GMA spec 'base_vars' must be a list of strings, got {variables!r}")
    variables = tuple(sorted(variables))
    nils = []
    for mono in _typed(nil_monomials, list, "GMA spec 'nil_monomials'"):
        p = poly_from_json(mono).in_vars(variables)
        if len(p.terms) != 1:
            raise SchemaError(f"nil monomial {mono!r} is not a monomial")
        ((exp, coef),) = p.terms.items()
        if coef != 1:
            raise SchemaError(f"nil monomial {mono!r} must have coefficient 1")
        nils.append(exp)
    ring = QuotientRing(variables, tuple(nils))
    blocks = {_block_key(key): tuple(map(poly_from_json, _typed(basis, list, f"block {key!r}")))
              for key, basis in _typed(raw_blocks, dict, "GMA spec 'blocks'").items()}
    signs = {frozenset(_block_key(key)): int_from_json(s, f"tau sign {key!r}")
             for key, s in _typed(raw_signs, dict, "GMA spec 'tau_signs'").items()}
    for what, read, raw in (("blocks", blocks, raw_blocks), ("tau_signs", signs, raw_signs)):
        if len(read) < len(raw):  # "1,2" and "01,2", or tau signs "1,2" and "2,1"
            raise SchemaError(f"GMA spec {what!r} gives one pair twice: {sorted(raw)}")
    return GmaSpec(t, ring, blocks, signs)


# -- invariant functions ------------------------------------------------------


def _parse_trace_word(text) -> TraceWord:
    """A trace word such as "1 2*": 1-based argument indices, "*" for the symplectic transpose."""
    tokens = _typed(text, str, "trace word").split()
    check_word_length(len(tokens))
    if not tokens:
        raise SchemaError("empty trace word")
    letters = []
    for token in tokens:
        if (index := integer_literal(token.removesuffix("*"))) is None:
            raise SchemaError(f"bad trace-word token {token!r}")
        letters.append((index, token.endswith("*")))
    return TraceWord(tuple(letters))


def invariant_from_json(obj, *shared: str) -> list:
    """[make, *the values of the ``shared`` keys]: ``make(n)`` is the invariant function that
    ``obj`` holds, of the kind its "sigma_index" or "similitude_power" key picks, with arity n
    unless an "arity" key gives it.  ``shared`` names the required keys of an object that holds
    a function beside other fields."""
    kinds = [key for key in ("sigma_index", "similitude_power") if isinstance(obj, dict) and key in obj]
    if not kinds:  # a non-object, or a key outside every kind, is named first
        json_fields(obj, "invariant function", shared, dict.fromkeys(("word", "var_index", "arity")))
        raise SchemaError("invariant function needs sigma_index or similitude_power")
    if kinds[0] == "sigma_index":
        index, word, *values, arity = json_fields(
            obj, "sigma function", ("sigma_index", "word", *shared), {"arity": _ABSENT})
        word, index = _parse_trace_word(word), int_from_json(index, "sigma_index")
        make = partial(InvariantFunction.sigma, index, word)
    else:
        power, *values, var, arity = json_fields(
            obj, "similitude function", ("similitude_power", *shared), {"var_index": 1, "arity": _ABSENT})
        make = partial(InvariantFunction.similitude_power,
                       int_from_json(var, "var_index"), int_from_json(power, "similitude_power"))
    arity = None if arity is _ABSENT else int_from_json(arity, "arity")
    return [lambda n: make(n if arity is None else arity), *values]
