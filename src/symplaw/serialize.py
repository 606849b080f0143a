"""JSON serialization for every value the CLI reads or writes.

Rationals are "p/q" strings (bare integers allowed on input); matrices are
row-major arrays; polynomials are {"vars": [...], "terms": [{"exp": [...],
"coef": "p/q"}]} objects, with a compact string form ("2/3*u^2*v - 1")
accepted on input for fixtures.  Round-tripping any value re-parses to an
equal value.
"""

from __future__ import annotations

from fractions import Fraction

from .detlaws import GroupAlgebraElement, InvolutiveRepresentation
from .errors import SchemaError
from .gma import GmaSpec, GmaType, QuotientRing
from .matrices import RingMatrix
from .multipoly import MultiPoly
from .symplectic import SymplecticContext, similitude
from .words import format_word, parse_word


# -- rationals ----------------------------------------------------------


def fraction_to_json(x: Fraction) -> str | int:
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def fraction_from_json(obj) -> Fraction:
    if isinstance(obj, bool):
        raise SchemaError(f"not a rational: {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj.strip())
        except (ValueError, ZeroDivisionError) as e:
            raise SchemaError(f"bad rational literal {obj!r}") from e
    raise SchemaError(f"not a rational: {obj!r}")


def int_from_json(value, what: str) -> int:
    """An integer, or a string of one, as an int; ``what`` names the field in the error."""
    if not isinstance(value, bool):
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
    raise SchemaError(f"{what} must be an integer, got {value!r}")


# -- polynomials ----------------------------------------------------------


def poly_to_json(p: MultiPoly) -> dict:
    return {
        "vars": list(p.vars),
        "terms": [
            {"exp": list(exp), "coef": fraction_to_json(coef)}
            for exp, coef in p.sorted_terms()
        ],
    }


def poly_from_json(obj) -> MultiPoly:
    if isinstance(obj, str):
        return parse_poly_string(obj)
    if isinstance(obj, (int,)):
        return MultiPoly.constant(obj)
    if not isinstance(obj, dict) or "vars" not in obj or "terms" not in obj:
        raise SchemaError(f"bad polynomial object: {obj!r}")
    variables = tuple(obj["vars"])
    terms = {}
    for t in obj["terms"]:
        exp = tuple(int(e) for e in t["exp"])
        terms[exp] = terms.get(exp, Fraction(0)) + fraction_from_json(t["coef"])
    try:
        return MultiPoly(variables, terms)
    except ValueError as e:
        raise SchemaError(str(e)) from e


def parse_poly_string(text: str) -> MultiPoly:
    """Compact input form: sums of terms like "2/3*u^2*v", "-u", "5"."""
    text = text.replace("-", "+-").replace(" ", "")
    if text.startswith("+-"):
        text = text[1:]
    total = None
    for chunk in text.split("+"):
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:]
        coef = sign
        factors: dict = {}
        for factor in chunk.split("*"):
            if not factor:
                raise SchemaError(f"empty factor in {text!r}")
            if factor[0].isdigit():
                coef *= fraction_from_json(factor)
            else:
                name, _, exp = factor.partition("^")
                if not name.isidentifier():
                    raise SchemaError(f"bad variable {name!r} in {text!r}")
                if exp and not exp.isdecimal():
                    raise SchemaError(f"bad exponent {exp!r} in {text!r}")
                factors[name] = factors.get(name, 0) + (int(exp) if exp else 1)
        vs = tuple(sorted(factors))
        term = MultiPoly(vs, {tuple(factors[v] for v in vs): coef})
        total = term if total is None else total + term
    if total is None:
        raise SchemaError(f"empty polynomial string {text!r}")
    return total


def ring_value_to_json(x):
    if isinstance(x, Fraction):
        return fraction_to_json(x)
    if isinstance(x, MultiPoly):
        if x.is_constant():
            return fraction_to_json(x.constant_value())
        return poly_to_json(x)
    raise SchemaError(f"unserializable value {x!r}")


def ring_value_from_json(obj):
    if isinstance(obj, dict):
        return poly_from_json(obj)
    if isinstance(obj, bool):
        raise SchemaError(f"unserializable value {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj.strip())
        except (ValueError, ZeroDivisionError):
            return parse_poly_string(obj)
    raise SchemaError(f"unserializable value {obj!r}")


def ring_value_to_string(x) -> str:
    """Canonical human-readable form for CLI output."""
    if isinstance(x, MultiPoly):
        if x.is_constant():
            x = x.constant_value()
        else:
            return str(x)
    return str(x)


# -- matrices -------------------------------------------------------------


def matrix_to_json(m: RingMatrix) -> list:
    return [[ring_value_to_json(x) for x in row] for row in m.entries]


def matrix_from_json(obj) -> RingMatrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SchemaError("matrix must be a nonempty array of arrays")
    try:
        return RingMatrix([[ring_value_from_json(x) for x in row] for row in obj])
    except ValueError as e:
        raise SchemaError(str(e)) from e


# -- group algebra, representations ------------------------------------------


def group_elem_to_json(x: GroupAlgebraElement) -> dict:
    return {
        "terms": [
            {"word": format_word(w), "coef": ring_value_to_json(c)}
            for w, c in sorted(x.terms.items())
        ]
    }


def group_elem_from_json(obj) -> GroupAlgebraElement:
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise SchemaError("group algebra element must be {'terms': [...]}")
    terms: dict = {}
    for t in obj["terms"]:
        if not isinstance(t, dict) or not isinstance(t.get("word"), str) or "coef" not in t:
            raise SchemaError(f"group algebra term must be {{'word': str, 'coef': ..}}, got {t!r}")
        w = parse_word(t["word"])
        c = ring_value_from_json(t["coef"])
        terms[w] = terms.get(w, Fraction(0)) + c
    return GroupAlgebraElement(terms)


def representation_to_json(rep: InvolutiveRepresentation) -> dict:
    return {
        "d": rep.ctx.d,
        "kind": rep.kind,
        "generators": [matrix_to_json(m) for m in rep.generator_images],
        "lambdas": [fraction_to_json(x) for x in rep.lambda_values],
    }


def representation_from_json(obj, max_dim: int | None = None) -> InvolutiveRepresentation:
    """Parse a representation; with ``max_dim``, refuse 2d > max_dim before building anything."""
    if not isinstance(obj, dict):
        raise SchemaError("representation must be an object")
    for key in ("d", "kind", "generators"):
        if key not in obj:
            raise SchemaError(f"representation missing {key!r}")
    try:
        d = int(obj["d"])
    except (TypeError, ValueError) as e:
        raise SchemaError(f"representation d must be an integer, got {obj['d']!r}") from e
    if max_dim is not None and 2 * d > max_dim:
        raise SchemaError(f"representation 2d = {2 * d} exceeds SYMPLAW_MAX_DIM = {max_dim}")
    ctx = SymplecticContext(d)
    images = tuple(matrix_from_json(m) for m in obj["generators"])
    if "lambdas" in obj:
        lams = tuple(fraction_from_json(x) for x in obj["lambdas"])
    else:
        lams = tuple(similitude(ctx, m) for m in images)
    try:
        return InvolutiveRepresentation(ctx, images, lams, str(obj["kind"]))
    except ValueError as e:
        raise SchemaError(str(e)) from e


# -- GMA specs --------------------------------------------------------------


def gma_spec_to_json(spec: GmaSpec) -> dict:
    exps_to_str = []
    for exp in spec.ring.nil_monomials:
        factors = [
            f"{v}^{e}" if e > 1 else v for v, e in zip(spec.ring.vars, exp) if e
        ]
        exps_to_str.append("*".join(factors) if factors else "1")
    return {
        "I0": list(spec.type.i0),
        "I1": list(spec.type.i1),
        "I2": list(spec.type.i2),
        "sigma": list(spec.type.sigma),
        "dims": list(spec.type.dims),
        "base_vars": list(spec.ring.vars),
        "nil_monomials": exps_to_str,
        "blocks": {
            f"{i},{j}": [poly_to_json(p) for p in basis]
            for (i, j), basis in sorted(spec.blocks.items())
        },
        "tau_signs": {
            ",".join(str(k) for k in sorted(pair)): s
            for pair, s in sorted(spec.tau_signs.items(), key=lambda kv: sorted(kv[0]))
        },
    }


def _block_key(key: str) -> tuple:
    """A block key "i,j" as the pair of ints (i, j)."""
    parts = key.split(",")
    if len(parts) == 2:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            pass
    raise SchemaError(f"block key must be two comma-separated integers, got {key!r}")


def gma_spec_from_json(obj, max_dim: int | None = None) -> GmaSpec:
    """Parse a GMA spec; with ``max_dim``, refuse a total dimension above it before building J_delta."""
    if not isinstance(obj, dict):
        raise SchemaError("GMA spec must be an object")
    for key in ("I0", "I1", "I2", "sigma", "dims"):
        if key not in obj:
            raise SchemaError(f"GMA spec missing {key!r}")
    try:
        t = GmaType(
            tuple(obj["I0"]), tuple(obj["I1"]), tuple(obj["I2"]),
            tuple(obj["sigma"]), tuple(obj["dims"]),
        )
    except ValueError as e:
        raise SchemaError(str(e)) from e
    if max_dim is not None and t.total > max_dim:
        raise SchemaError(f"GMA dimension {t.total} exceeds SYMPLAW_MAX_DIM = {max_dim}")
    variables = tuple(sorted(obj.get("base_vars", ())))
    nils = []
    for mono in obj.get("nil_monomials", ()):
        p = parse_poly_string(mono) if isinstance(mono, str) else poly_from_json(mono)
        p = p.in_vars(variables)
        if len(p.terms) != 1:
            raise SchemaError(f"nil monomial {mono!r} is not a monomial")
        ((exp, coef),) = p.terms.items()
        if coef != 1:
            raise SchemaError(f"nil monomial {mono!r} must have coefficient 1")
        nils.append(exp)
    ring = QuotientRing(variables, tuple(nils))
    blocks = {}
    for key, basis in obj.get("blocks", {}).items():
        i, j = _block_key(key)
        parsed = []
        for p in basis:
            q = poly_from_json(p)
            parsed.append(q.in_vars(tuple(sorted(set(variables) | set(q.vars)))))
        blocks[(i, j)] = tuple(parsed)
    signs = {}
    for key, s in obj.get("tau_signs", {}).items():
        i, j = _block_key(key)
        signs[frozenset((i, j))] = int_from_json(s, f"tau sign {key!r}")
    try:
        return GmaSpec(t, ring, blocks, signs)
    except ValueError as e:
        raise SchemaError(str(e)) from e
