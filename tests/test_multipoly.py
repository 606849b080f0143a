import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symplaw.errors import CapacityError, VariableError
from symplaw.gma import QuotientRing
from symplaw.matrices import RingMatrix, char_poly, entry_vars
from symplaw.multipoly import MAX_EXPONENT, MultiPoly, fresh_var
from symplaw.serialize import parse_poly_string
from symplaw.symplectic import SymplecticContext, pfaffian_char_poly


def is_canonical(c):
    """The one stored form of a coefficient: an int, or a Fraction that is not integral."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def rand_poly(rng, variables=("x", "y"), max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return MultiPoly(variables, terms)


def test_zero_coefficients_dropped():
    p = MultiPoly(("x",), {(1,): Fraction(0), (2,): Fraction(3)})
    assert (1,) not in p.terms
    assert p.terms == {(2,): Fraction(3)}


def test_variables_must_be_sorted():
    with pytest.raises(VariableError):
        MultiPoly(("y", "x"), {})


def test_constant_and_variable():
    c = MultiPoly.constant(Fraction(5, 2))
    assert c.constant_value() == Fraction(5, 2)
    x = MultiPoly.variable("x")
    assert str(x) == "x"
    assert str(x**3 - 2 * x + 1) == "x^3 - 2*x + 1"


def test_scalar_interop():
    x = MultiPoly.variable("x")
    assert 1 + x == x + 1
    assert 2 * x - x == x
    assert (1 - x) * (1 + x) == 1 - x**2
    assert x - x == 0


@pytest.mark.parametrize("value", [3, Fraction(1, 2), 0])
def test_a_constant_hashes_as_the_scalar_it_equals(value):
    u = MultiPoly.variable("u")
    for p in (MultiPoly.constant(value), MultiPoly.constant(value, ("u", "v")), u - u + value):
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1


def test_bool_is_false_exactly_for_the_zero_polynomial():
    assert not bool(MultiPoly(("u",), {}))
    u, v = MultiPoly.variable("u"), MultiPoly.variable("v")
    values = [0, 3, -1, Fraction(0), Fraction(1, 2), MultiPoly((), {}), MultiPoly(("u",), {}),
              MultiPoly.constant(3), MultiPoly.constant(0, ("u",)), u, u - v,
              (u + v) * (u - v) - u**2 + v**2, u * Fraction(1, 3) * 3 - u]
    for x in values:
        assert (not x) == (x == 0), x


def test_alignment_across_variable_sets():
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    p = (x + y) ** 2
    assert p.coefficient({"x": 1, "y": 1}) == 2
    assert p.coefficient({"x": 2}) == 1


def test_poly_coefficient_spec_cases():
    t1, t2 = MultiPoly.variable("t1"), MultiPoly.variable("t2")
    p = t1 * t2 + 3 * t1**2
    assert p.coefficient({"t1": 1, "t2": 1}) == 1
    assert p.coefficient({"t2": 2}) == 0
    with pytest.raises(VariableError):
        p.coefficient({"zz": 1})


def test_coefficients_in():
    t = MultiPoly.variable("t")
    a = MultiPoly.variable("a")
    p = t**2 - (2 * a) * t + a**2
    buckets = p.coefficients_in("t")
    assert buckets[2] == 1
    assert buckets[1] == -2 * a
    assert buckets[0] == a**2


def test_ring_axioms_randomized():
    rng = random.Random(20240917)
    for _ in range(1000):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_binomial_square_identity(p, q, r):
    x = MultiPoly.variable("x")
    f = Fraction(p) * x**2 + Fraction(q) * x + Fraction(r)
    assert (f + 1) * (f - 1) == f * f - 1


def test_fresh_var():
    assert fresh_var("t", ["x"]) == "t"
    assert fresh_var("t", ["t", "t0"]) == "t1"


def test_str_is_canonical():
    p = MultiPoly(("x", "y"), {(0, 1): Fraction(-1), (1, 0): Fraction(1, 2), (0, 0): Fraction(3)})
    assert str(p) == "1/2*x - y + 3"


def test_constructor_refuses_bad_exponents():
    for exp in ((-1,), (1.5,), ("2",), (True,)):
        with pytest.raises(VariableError):
            MultiPoly(("x",), {exp: Fraction(1)})


def _rebuilt(p):
    """The same polynomial through the validating public constructor."""
    return MultiPoly(p.vars, p.terms)


def _assert_trusted(result, expected):
    assert result == expected == _rebuilt(result)
    assert result.terms == expected.terms
    assert hash(result) == hash(expected)
    assert all(is_canonical(c) and c != 0 for c in result.terms.values())


def test_trusted_arithmetic_matches_validated_construction():
    rng = random.Random(5)
    scalars = [0, 1, -3, Fraction(0), Fraction(2, 3), Fraction(-5, 7)]
    for _ in range(300):
        variables = rng.choice((("x", "y"), ("x",), ("y", "z")))
        p = rand_poly(rng, variables)
        q = rand_poly(rng, rng.choice((variables, ("x", "y", "z"))))
        c = rng.choice(scalars)
        union = tuple(sorted(set(p.vars) | set(q.vars)))
        pu, qu = p.in_vars(union), q.in_vars(union)

        total, difference = dict(pu.terms), dict(pu.terms)
        for e, v in qu.terms.items():
            total[e] = total.get(e, 0) + v
            difference[e] = difference.get(e, 0) - v
        _assert_trusted(p + q, MultiPoly(union, total))
        _assert_trusted(p - q, MultiPoly(union, difference))

        product: dict = {}
        for e1, v1 in pu.terms.items():
            for e2, v2 in qu.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                product[e] = product.get(e, 0) + v1 * v2
        _assert_trusted(p * q, MultiPoly(union, product))

        _assert_trusted(-p, MultiPoly(p.vars, {e: -v for e, v in p.terms.items()}))
        one = (0,) * len(p.vars)
        shifted = dict(p.terms)
        shifted[one] = shifted.get(one, 0) + c
        for result in (p + c, c + p):
            _assert_trusted(result, MultiPoly(p.vars, shifted))
        scaled = MultiPoly(p.vars, {e: v * c for e, v in p.terms.items()})
        for result in (p * c, c * p):
            _assert_trusted(result, scaled)
        _assert_trusted(p + (-p), MultiPoly(p.vars, {}))
        negated = {e: -v for e, v in p.terms.items()}
        negated[one] = negated.get(one, 0) + c
        _assert_trusted(c - p, MultiPoly(p.vars, negated))

        # a scalar that cancels the constant term removes it, also as a Fraction
        const = p.terms.get(one, 0)
        no_constant = MultiPoly(p.vars, {e: v for e, v in p.terms.items() if e != one})
        for cancel in (-const, Fraction(-const)):
            for result in (p + cancel, cancel + p, p - (-cancel)):
                _assert_trusted(result, no_constant)
                assert one not in result.terms
        # a Fraction sum that is integral is stored as an int
        thirds = (p + Fraction(1, 3)) + Fraction(2, 3)
        shifted = dict(p.terms)
        shifted[one] = shifted.get(one, 0) + 1
        _assert_trusted(thirds, MultiPoly(p.vars, shifted))
        if const + 1 and Fraction(const).denominator == 1:
            assert type(thirds.terms[one]) is int
        # negation and the buckets of coefficients_in skip the canonicalizing pass, and still
        # equal the validated construction
        _assert_trusted(-(-p), p)
        for var in (*p.vars, "w"):
            buckets = p.coefficients_in(var)
            rebuilt = MultiPoly(p.vars, {})
            for deg, bucket in buckets.items():
                _assert_trusted(bucket, _rebuilt(bucket))
                assert bucket and var not in bucket.vars
                rebuilt = rebuilt + bucket * MultiPoly.variable(var) ** deg
            assert rebuilt == p


def test_scalar_results_store_canonical_coefficients():
    x = MultiPoly.variable("x")
    assert (x + 1).terms == {(1,): Fraction(1), (0,): Fraction(1)}
    assert type((x + 1).terms[(0,)]) is int
    assert type((1 - x).terms[(0,)]) is int
    assert type((x + Fraction(4, 2)).terms[(0,)]) is int
    assert type((x + Fraction(1, 2)).terms[(0,)]) is Fraction
    assert all(type(c) is int for c in (x * Fraction(3)).terms.values())
    assert all(type(c) is int for c in ((x * Fraction(1, 2)) * 2).terms.values())
    assert not x * 0 and (x * 0).vars == ("x",)
    assert x + 0 is x


def test_quotient_reduce_drops_exactly_the_nil_divisible_terms():
    rng = random.Random(6)
    ring = QuotientRing(("u", "v"), ((2, 0), (1, 1), (0, 3)))
    for _ in range(200):
        p = rand_poly(rng, rng.choice((("u", "v"), ("u",), ("v",))), max_terms=6)
        r = ring.reduce(p)
        kept = {e: c for e, c in p.in_vars(ring.vars).terms.items()
                if not (e[0] >= 2 or (e[0] >= 1 and e[1] >= 1) or e[1] >= 3)}
        assert r.vars == ring.vars
        assert r == MultiPoly(ring.vars, kept)
        assert r.terms == kept
        assert all(is_canonical(c) for c in r.terms.values())
        assert ring.reduce(r) is r


def _fraction_only(variables, terms):
    """The reference for terms summed in Fraction arithmetic, given to the validating constructor
    as Fractions."""
    return MultiPoly(variables, {e: Fraction(c) for e, c in terms.items() if c})


def _mixed_scalar(rng):
    k = rng.randint(-6, 6)
    return rng.choice((k, Fraction(k), Fraction(k, rng.randint(1, 4))))


def _mixed_poly(rng, variables, max_terms=4, max_exp=2):
    terms = {tuple(rng.randint(0, max_exp) for _ in variables): _mixed_scalar(rng)
             for _ in range(rng.randint(0, max_terms))}
    return MultiPoly(variables, terms), _fraction_only(variables, terms)


def _assert_matches_reference(result, reference):
    assert result == reference and reference == result
    assert result.terms == reference.terms
    assert hash(result) == hash(reference)
    assert str(result) == str(reference)
    assert (result.vars, result.sorted_terms()) == (reference.vars, reference.sorted_terms())
    assert all(is_canonical(c) for c in result.terms.values())
    for exp, c in reference.terms.items():
        got = result.coefficient(dict(zip(result.vars, exp)))
        assert type(got) is Fraction and got == c
    assert type(result.coefficient({})) is Fraction
    if result.is_constant():
        value = result.constant_value()
        assert type(value) is Fraction and value == reference.coefficient({})


def test_canonical_coefficients_match_a_fraction_only_reference():
    rng = random.Random(11)
    ring = QuotientRing(("u", "v"), ((2, 0), (1, 1), (0, 2)))
    for _ in range(400):
        variables = rng.choice((("u", "v"), ("u",), ()))
        p, p_ref = _mixed_poly(rng, variables)
        q, q_ref = _mixed_poly(rng, variables, max_terms=rng.choice((0, 1, 4)))
        c = _mixed_scalar(rng)
        one = (0,) * len(variables)

        total = dict(p_ref.terms)
        for e, v in q_ref.terms.items():
            total[e] = total.get(e, Fraction(0)) + v
        product: dict = {}
        for e1, v1 in p_ref.terms.items():
            for e2, v2 in q_ref.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                product[e] = product.get(e, Fraction(0)) + v1 * v2
        shifted = dict(p_ref.terms)
        shifted[one] = shifted.get(one, Fraction(0)) + c
        scaled = {e: v * c for e, v in p_ref.terms.items()}

        _assert_matches_reference(p, p_ref)
        _assert_matches_reference(p + q, _fraction_only(variables, total))
        _assert_matches_reference(p * q, _fraction_only(variables, product))
        for result in (p + c, c + p):
            _assert_matches_reference(result, _fraction_only(variables, shifted))
        for result in (p * c, c * p):
            _assert_matches_reference(result, _fraction_only(variables, scaled))
        if variables == ring.vars:
            kept = {e: v for e, v in product.items() if e[0] + e[1] < 2}
            _assert_matches_reference(ring.reduce(p * q), _fraction_only(variables, kept))


# -- packed exponent keys: the cap and a tuple-keyed reference ------------------


def test_an_exponent_at_the_cap_is_accepted_and_one_past_it_refused():
    p = MultiPoly(("u", "v"), {(MAX_EXPONENT, 0): 1, (1, MAX_EXPONENT): 2})
    assert MAX_EXPONENT == 2**31 - 1
    assert p.terms == {(MAX_EXPONENT, 0): 1, (1, MAX_EXPONENT): 2}
    assert str(p) == f"u^{MAX_EXPONENT} + 2*u*v^{MAX_EXPONENT}"
    for exp in ((MAX_EXPONENT + 1, 0), (0, MAX_EXPONENT + 1), (0, 2**64)):
        with pytest.raises(CapacityError, match="past the cap"):
            MultiPoly(("u", "v"), {exp: 1})
    with pytest.raises(VariableError):  # a negative exponent is still malformed, not too large
        MultiPoly(("u", "v"), {(MAX_EXPONENT + 1, -1): 1})


def test_a_product_into_a_guard_bit_raises():
    u, v = MultiPoly.variable("u"), MultiPoly.variable("v")
    half = 2**30
    at_cap = u**half * u ** (half - 1)  # one-term products up to the cap
    assert at_cap.terms == {(MAX_EXPONENT,): 1} and u**MAX_EXPONENT == at_cap
    overflowing = [
        lambda: at_cap * u,  # one-term by one-term
        lambda: (at_cap + 1) * u,  # many-term by one-term
        lambda: -u * (at_cap + v),  # one-term with coefficient -1, the low field of (u, v)
        lambda: Fraction(2, 3) * v * (v**MAX_EXPONENT + u),  # a Fraction one-term, the v field
        lambda: (u**half + 1) * (u**half + v),  # many-term by many-term
        lambda: (u * v) ** (MAX_EXPONENT + 1),
        lambda: (v**half + u) ** 2,
    ]
    for product in overflowing:
        with pytest.raises(CapacityError, match="past the cap"):
            product()
    # the field below the guard bit does not carry into the next variable's field
    assert ((v**MAX_EXPONENT + u) * u).terms == {(1, MAX_EXPONENT): 1, (2, 0): 1}


def test_a_power_past_the_cap_raises_before_any_product():
    u, v = MultiPoly.variable("u"), MultiPoly.variable("v")
    # squaring first would build (u + v)^(2^30), about 2^30 terms, before a guard bit fired
    start = time.perf_counter()
    for power, exp in [(lambda: (u + v) ** 2**31, 2**31),
                       (lambda: (u + v**3 + 1) ** (MAX_EXPONENT // 3 + 1), MAX_EXPONENT + 2),
                       (lambda: (u * v**2) ** 2**30, 2**31)]:
        with pytest.raises(CapacityError, match=f"exponent {exp} is past the cap"):
            power()
    assert time.perf_counter() - start < 1
    # one-term powers up to the cap, and the exponent-free zero and constants at any power
    half = MAX_EXPONENT // 2
    assert (u * v**2) ** half == MultiPoly(("u", "v"), {(half, MAX_EXPONENT - 1): 1})
    assert MultiPoly(("u",), {}) ** 2**40 == 0 and MultiPoly.constant(1, ("u",)) ** 2**40 == 1
    assert MultiPoly.constant(2) ** 5 == 32 and (u + v) ** 0 == 1


@pytest.mark.parametrize("exponent", [1.5, 2.0, Fraction(2), "2", None])
def test_a_power_with_a_non_int_exponent_is_a_type_error(exponent):
    u = MultiPoly.variable("u")
    with pytest.raises(TypeError, match="exponent must be an int"):
        u**exponent


def test_a_ring_dot_whose_exponent_sum_passes_the_cap_raises():
    ring = QuotientRing(("u", "v"), ((0, 2),))
    u, v = ring.variable("u"), ring.variable("v")
    half = 2**30
    assert ring.dot([u**half, v], [u ** (half - 1), v]) == u**MAX_EXPONENT
    with pytest.raises(CapacityError, match="past the cap"):
        ring.dot([u**half], [u**half + 1])
    with pytest.raises(CapacityError, match="past the cap"):
        ring.dot([3, u * v], [1, u**MAX_EXPONENT])


_VARIABLE_SETS = [(), ("u",), ("v",), ("w",), ("u", "v"), ("u", "w"), ("v", "w"), ("u", "v", "w")]
# exponents at and past 10 and 2^16 put a wrong field order into the printed order
_EXPONENTS = (0, 0, 1, 1, 2, 3, 10, 11, 2**16, 2**16 + 1, 2**20)


def _tuple_terms(rng, variables, max_terms=4):
    return {tuple(rng.choice(_EXPONENTS) for _ in variables): _mixed_scalar(rng)
            for _ in range(rng.randint(0, max_terms))}


def _ref(terms):
    """The nonzero terms as Fractions, keyed by exponent tuple."""
    return {e: Fraction(c) for e, c in terms.items() if c}


def _ref_lift(variables, terms, target):
    out = {}
    for e, c in terms.items():
        new = dict.fromkeys(target, 0)
        new.update(zip(variables, e))
        out[tuple(new.values())] = c
    return out


def _ref_sum(*parts):
    out: dict = {}
    for terms in parts:
        for e, c in terms.items():
            out[e] = out.get(e, Fraction(0)) + c
    return _ref(out)


def _ref_product(a, b):
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _ref(out)


def _ref_str(variables, terms):
    """The printed form of the terms, in descending order of exponent tuples."""
    if not terms:
        return "0"
    out = ""
    for e, c in sorted(terms.items(), reverse=True):
        factors = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(variables, e) if k)
        body = str(c) if not factors else {1: factors, -1: "-" + factors}.get(c, f"{c}*{factors}")
        out += body if not out else (" - " + body[1:] if body.startswith("-") else " + " + body)
    return out


def _assert_is(result, variables, terms):
    assert result.vars == variables
    assert result.terms == terms
    assert all(is_canonical(c) for c in result.terms.values())
    assert result.sorted_terms() == sorted(terms.items(), reverse=True)
    assert str(result) == _ref_str(variables, terms)


def test_packed_operations_match_a_tuple_keyed_reference():
    rng = random.Random(33)
    for _ in range(400):
        pv, qv = rng.choice(_VARIABLE_SETS), rng.choice(_VARIABLE_SETS)
        p_terms, q_terms = _tuple_terms(rng, pv), _tuple_terms(rng, qv)
        p, q = MultiPoly(pv, p_terms), MultiPoly(qv, q_terms)
        union = tuple(sorted(set(pv) | set(qv)))
        pr, qr = _ref_lift(pv, _ref(p_terms), union), _ref_lift(qv, _ref(q_terms), union)
        c = _mixed_scalar(rng)
        const = {(0,) * len(pv): Fraction(c)}

        _assert_is(p, pv, _ref(p_terms))
        _assert_is(p + q, union, _ref_sum(pr, qr))
        _assert_is(p - q, union, _ref_sum(pr, {e: -x for e, x in qr.items()}))
        _assert_is(-p, pv, {e: -x for e, x in _ref(p_terms).items()})
        _assert_is(p * q, union, _ref_product(pr, qr))
        for result in (p + c, c + p):
            _assert_is(result, pv, _ref_sum(_ref(p_terms), const))
        _assert_is(c - p, pv, _ref_sum({e: -x for e, x in _ref(p_terms).items()}, const))
        for result in (p * c, c * p):
            _assert_is(result, pv, _ref_product(_ref(p_terms), const))

        # one-term by many-term and by one-term, with coefficient 1, -1 and a Fraction
        for k in (1, -1, Fraction(rng.randint(-5, 5) or 1, rng.randint(2, 4))):
            t_terms = {tuple(rng.choice(_EXPONENTS) for _ in qv): k}
            t, tr = MultiPoly(qv, t_terms), _ref_lift(qv, _ref(t_terms), union)
            for result in (p * t, t * p):
                _assert_is(result, union, _ref_product(pr, tr))
            s_terms = {tuple(rng.choice(_EXPONENTS) for _ in pv): _mixed_scalar(rng) or 1}
            s, sr = MultiPoly(pv, s_terms), _ref_lift(pv, _ref(s_terms), union)
            _assert_is(s * t, union, _ref_product(sr, tr))

        # in_vars into each variable set that holds p's, equality and hash across them
        for target in _VARIABLE_SETS:
            if set(pv) <= set(target):
                lifted = p.in_vars(target)
                _assert_is(lifted, target, _ref_lift(pv, _ref(p_terms), target))
                assert lifted == p and hash(lifted) == hash(p)
        used = tuple(v for i, v in enumerate(pv) if any(e[i] for e in _ref(p_terms)))
        bare = MultiPoly(used, {tuple(e[pv.index(v)] for v in used): x
                                for e, x in _ref(p_terms).items()})
        assert bare == p and hash(bare) == hash(p)
        assert (p == q) == (pr == qr)
        assert (p == c) == (_ref(p_terms) == _ref(const))

        # coefficients_in splits off each variable, or none
        for var in (*union, "z"):
            buckets = (p * q).coefficients_in(var)
            i = union.index(var) if var in union else None
            rest = tuple(v for v in union if v != var)
            expected: dict = {}
            for e, x in _ref_product(pr, qr).items():
                deg, key = (0, e) if i is None else (e[i], e[:i] + e[i + 1:])
                expected.setdefault(deg, {})[key] = x
            assert buckets.keys() == expected.keys()
            for deg, bucket in buckets.items():
                _assert_is(bucket, union if i is None else rest, expected[deg])


def test_a_zero_power_of_a_variable_is_no_variable_to_in_vars():
    p = parse_poly_string("u*w^0")
    assert (p.vars, p.used_vars) == (("u", "w"), ("u",))
    lifted = p.in_vars(("u",))
    assert lifted == MultiPoly.variable("u") and lifted.vars == ("u",)
    with pytest.raises(VariableError, match="variable u missing from target"):
        p.in_vars(("w",))


def _clash_verdicts(p: MultiPoly, names) -> list:
    """For each name: what ``char_poly`` and ``pfaffian_char_poly`` of diag(p, p) give in it,
    the name None picking ``pfaffian_char_poly``'s own; a refusal is the string "clash"."""
    m, ctx = RingMatrix.scalar(2, p), SymplecticContext(1)
    out = []
    for name in names:
        for call in ((lambda: char_poly(m, name)) if name else (lambda: None),
                     lambda: pfaffian_char_poly(ctx, m, name)):
            try:
                out.append(call())
            except VariableError as e:
                assert str(e) == f"matrix entries already use variable {name!r}"
                out.append("clash")
    return out


def test_a_declared_but_unused_variable_changes_no_verdict():
    """p and p declared over one more variable that no term uses are one value to every reader:
    ``==``, ``hash``, ``used_vars``, ``in_vars`` back to p's variables, ``entry_vars`` and the
    clash verdicts of both characteristic polynomials."""
    rng = random.Random(47)
    names = ("s", "t", "u", "x")
    for _ in range(300):
        variables = tuple(sorted(rng.sample(names, rng.randint(0, 3))))
        p = rand_poly(rng, variables, max_exp=2)
        extra = rng.choice([v for v in names if v not in variables])
        wide = tuple(sorted(variables + (extra,)))
        at = wide.index(extra)
        q = MultiPoly(wide, {e[:at] + (0,) + e[at:]: c for e, c in p.terms.items()})
        assert q.vars == wide and q == p and hash(q) == hash(p)
        assert q.used_vars == p.used_vars
        back = q.in_vars(variables)
        assert back.vars == p.vars and back._packed == p._packed
        assert entry_vars(RingMatrix.scalar(2, q)) == entry_vars(RingMatrix.scalar(2, p))
        assert _clash_verdicts(q, names + (None,)) == _clash_verdicts(p, names + (None,))
