import json
import random
import re
import time
from fractions import Fraction

import pytest

from symplaw import serialize
from symplaw.cli import main
from symplaw.detlaws import GroupAlgebraElement, InvolutiveRepresentation
from symplaw.errors import MembershipError, SchemaError, StructureError
from symplaw.gma import counterexample_fixture, standard_fixture
from symplaw.matrices import RingMatrix
from symplaw.multipoly import MultiPoly
from symplaw.serialize import (
    fraction_from_json,
    gma_spec_from_json,
    group_elem_from_json,
    matrix_from_json,
    parse_poly_string,
    poly_from_json,
    representation_from_json,
    ring_value_from_json,
)
from symplaw.symplectic import SymplecticContext, sample_similitude, sample_symplectic
from symplaw.words import parse_word


LITERALS = ["5", "-0", "007/010", "-3/4", "+3", " 4 ", "--5", "3/-4", "1/0", "0/0", "1_000",
            "1.5", "1e3", "\u00b2", "\u0663/\u0664", "2/3*u"]


def _outcome(read, text):
    """(type, value) of read(text), or the class of the exception it raises."""
    try:
        value = read(text)
    except Exception as e:
        return type(e)
    return type(value), value


# the rational grammar spelled out: an optional "-", ASCII digits, and an optional "/" with
# ASCII digits of a positive value
RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _fraction_reference(text):
    if not RATIONAL.fullmatch(text):
        raise SchemaError(text)
    return Fraction(text)


def _ring_value_reference(text):
    return Fraction(text) if RATIONAL.fullmatch(text) else parse_poly_string(text)


@pytest.mark.parametrize("text", LITERALS)
def test_rational_literal_reader_matches_fraction(text):
    assert _outcome(fraction_from_json, text) == _outcome(_fraction_reference, text)
    assert _outcome(ring_value_from_json, text) == _outcome(_ring_value_reference, text)


def test_fraction_round_trip():
    """The CLI prints a value with ``str``; the readers take that text back."""
    for x in (Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(22, 4)):
        assert fraction_from_json(str(x)) == x
    assert fraction_from_json("3") == 3 and fraction_from_json(-7) == -7
    with pytest.raises(SchemaError):
        fraction_from_json("x+y")
    with pytest.raises(SchemaError):
        fraction_from_json(True)


def test_poly_round_trip():
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    p = Fraction(2, 3) * x**2 * y - y + 5
    assert poly_from_json(str(p)) == p
    blob = {"vars": ["x", "y"], "terms": [{"exp": [2, 1], "coef": "2/3"}, {"exp": [0, 1], "coef": -1},
                                          {"exp": [0, 0], "coef": 5}]}
    assert poly_from_json(json.loads(json.dumps(blob))) == p


def test_parse_poly_string():
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    assert parse_poly_string("2/3*x^2*y - y + 5") == Fraction(2, 3) * x**2 * y - y + 5
    assert parse_poly_string("-x") == -x
    assert parse_poly_string("7") == MultiPoly.constant(7)
    with pytest.raises(SchemaError):
        parse_poly_string("")


def _sum_of_terms(n):
    """A polynomial string of n distinct terms."""
    return " + ".join(f"{i % 7 + 1}/{i % 5 + 1}*u^{i}*v^{i % 3}" for i in range(n))


def test_parse_poly_string_is_linear_in_the_number_of_terms():
    """Best of three at 2000 and 8000 terms: four times the terms take less than eight times
    as long.  A fold that adds each term to a running sum, copying it, takes about fifteen."""
    def best(text):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            parse_poly_string(text)
            times.append(time.perf_counter() - start)
        return min(times)

    small, large = best(_sum_of_terms(2000)), best(_sum_of_terms(8000))
    assert large < 8 * small, (small, large)


def _fold_parse(text):
    """A valid polynomial string read term by term, each term a MultiPoly added to the running
    sum: the reference that ``parse_poly_string``, which sums into one dict, is held to."""
    parts = ["+", *serialize._SIGN.split(text)]
    if text.startswith("-"):
        del parts[:2]
    total = None
    for sign, term in zip(parts[::2], parts[1::2]):
        coef, factors = Fraction(-1 if sign == "-" else 1), {}
        for factor in serialize._TIMES.split(term):
            if (ratio := serialize._ratio_literal(factor)) is not None:
                coef *= Fraction(*ratio)
                continue
            name, caret, exp = factor.partition("^")
            factors[name] = factors.get(name, 0) + (int(exp) if caret else 1)
        vs = tuple(sorted(factors))
        term = MultiPoly(vs, {tuple(factors[v] for v in vs): coef})
        total = term if total is None else total + term
    return total


def _random_poly_string(rng):
    """A string in the grammar: rationals and variables with exponents, 0 and repeats included,
    joined with and without spaces, sometimes after a leading "-"."""
    def factor():
        if rng.random() < 0.3:
            return rng.choice(["0", "1", "07", f"{rng.randint(0, 99)}/{rng.randint(1, 9)}"])
        name = rng.choice(["u", "v", "w", "x_1"])
        return rng.choice([name, f"{name}^{rng.randint(0, 4)}", f"{name}^0{rng.randint(0, 4)}"])

    text = "-" if rng.random() < 0.3 else ""
    for i in range(rng.randint(1, 10)):
        if i:
            text += rng.choice(["+", "-", " + ", " - ", "+ ", " -"])
        text += rng.choice(["*", " * ", "* "]).join(factor() for _ in range(rng.randint(1, 4)))
    return text


def test_parse_poly_string_reads_as_the_term_by_term_fold():
    rng = random.Random("parse_poly_string")
    for _ in range(2000):
        text = _random_poly_string(rng)
        got, expected = parse_poly_string(text), _fold_parse(text)
        assert (got.vars, got.terms) == (expected.vars, expected.terms), text


# text that no reader takes: each reader's error quotes it as written
REFUSED = ["1 2", "u^1 0", "u*v w", "+3", " 3", "3.5", "1e2", "\u0661\u0662", "1_0", "1/-2",
           "u+-v"]
_x, _y, _u, _v = (MultiPoly.variable(name) for name in "xyuv")
# (text, value): a rational is read as such by every reader, a polynomial by all but the first
ACCEPTED = [("5", 5), ("-0", 0), ("007/010", Fraction(7, 10)), ("-3/4", Fraction(-3, 4)),
            ("2/3*x^2*y - y + 5", Fraction(2, 3) * _x**2 * _y - _y + 5), ("u - v", _u - _v),
            ("2 * u", 2 * _u), ("-x", -_x)]
READERS = {
    "fraction_from_json": fraction_from_json,
    "ring_value_from_json": ring_value_from_json,
    "parse_poly_string": parse_poly_string,
    "matrix_from_json": lambda text: matrix_from_json([[text, 0]], 12)[0, 0],
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("text", REFUSED)
def test_every_reader_refuses_text_outside_the_grammar_and_quotes_it(reader, text):
    with pytest.raises(SchemaError) as caught:
        READERS[reader](text)
    assert repr(text) in str(caught.value)


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize(("text", "value"), ACCEPTED, ids=[text for text, _ in ACCEPTED])
def test_every_reader_keeps_the_value_of_text_in_the_grammar(reader, text, value):
    if reader == "fraction_from_json" and isinstance(value, MultiPoly):
        with pytest.raises(SchemaError, match=re.escape(repr(text))):
            fraction_from_json(text)
        return
    got = READERS[reader](text)
    assert got == value
    if reader != "parse_poly_string":  # a rational stays a Fraction, outside any polynomial
        assert isinstance(got, MultiPoly) == isinstance(value, MultiPoly)


_SL2 = {"d": 1, "kind": "Sp", "generators": [[[1, 1], [0, 1]]]}
_NILS = {"I0": [], "I1": [1], "I2": [2], "sigma": [2, 1], "dims": [1, 1], "base_vars": ["u", "v"],
         "blocks": {"1,2": ["u"], "2,1": ["v"]}, "tau_signs": {"1,2": -1}}
# where the CLI reads a rational or a polynomial from text: (argv, input with the text in place)
PLACES = {
    "matrix_entry": (["eval", "invariant"], lambda t: {
        "matrices": [[[t, 0], [0, 1]]], "sigma_index": 2, "word": "1"}),
    "element_coef": (["eval", "detlaw"], lambda t: {
        "rep": _SL2, "law": "D", "element": {"terms": [{"word": "g1", "coef": t}]}}),
    "polynomial_coef": (["eval", "detlaw"], lambda t: {
        "rep": _SL2, "law": "D", "element": {"terms": [
            {"word": "g1", "coef": {"vars": ["u"], "terms": [{"exp": [1], "coef": t}]}}]}}),
    "lambdas": (["eval", "detlaw"], lambda t: {
        "rep": {**_SL2, "lambdas": [t]}, "law": "D",
        "element": {"terms": [{"word": "g1", "coef": 1}]}}),
    "nil_monomials": (["suite", "gma", "--trials", "1"], lambda t: {
        **_NILS, "nil_monomials": ["u^2", "v^2", t]}),
}


@pytest.mark.parametrize("place", sorted(PLACES))
@pytest.mark.parametrize("text", REFUSED)
def test_the_cli_refuses_text_outside_the_grammar_in_one_line(tmp_path, capsys, place, text):
    argv, blob = PLACES[place]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(blob(text)))
    assert main([*argv, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("input error: ") and repr(text) in line


def test_matrix_round_trip():
    m = RingMatrix([[Fraction(1, 2), 3], [MultiPoly.variable("u"), 0]])
    m2 = matrix_from_json([[str(x) for x in row] for row in m.entries], 12)
    assert m2 == m
    with pytest.raises(SchemaError):
        matrix_from_json([], 12)
    with pytest.raises(SchemaError):
        matrix_from_json([[1, 2], [3]], 12)


def test_matrix_size_is_checked_before_any_entry_is_read():
    # a bool or "1/0" entry is refused when it is read, so these errors come from the size check
    for rows in ([[True] * 5], [[True]] * 5, [["1/0"] * 5] * 5):
        with pytest.raises(SchemaError, match="SYMPLAW_MAX_DIM = 4"):
            matrix_from_json(rows, 4)
        with pytest.raises(SchemaError, match="not a rational|unserializable|bad rational"):
            matrix_from_json(rows, 12)
    assert matrix_from_json([[1] * 4] * 4, 4) == RingMatrix([[1] * 4] * 4)


def _random_rational_entry(rng):
    """An int, a big int, or a "p"/"p/q" literal, often unreduced, zero-padded or signed."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return rng.choice((-1, 1)) * rng.getrandbits(rng.choice((64, 200)))
    if kind == 2:
        return rng.choice(("-0", "0/7", "007", "-3/06", "2/4", "0", "-00/010"))
    g = rng.randint(1, 12)
    p, q = rng.randint(-50, 50) * g, rng.randint(1, 30) * g
    pad = "0" * rng.randint(0, 2)
    return f"{pad}{p}/{pad}{q}" if p >= 0 else f"-{pad}{-p}/{pad}{q}"


def test_rational_matrix_reads_as_the_matrix_of_its_fraction_values():
    rng = random.Random(31)
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        blob = [[_random_rational_entry(rng) for _ in range(cols)] for _ in range(rows)]
        expected = RingMatrix([[Fraction(x) for x in row] for row in blob])
        got = matrix_from_json(json.loads(json.dumps(blob)), 12)
        assert got == expected
        assert got.cleared() == expected.cleared()
        assert got.entries == expected.entries


def _det_of_json_matrix(tmp_path, capsys, rows):
    """(exit code, stdout value or "", stderr) of `eval invariant` sigma_2, the determinant of 2 x 2 rows."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"matrices": [rows], "sigma_index": 2, "word": "1"}))
    code = main(["eval", "invariant", "--input", str(path)])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)["value"] if captured.out else "", captured.err


LONG_LITERAL = "7" * 4301  # past the int digit limit

# (entry, determinant of [[entry, 0], [0, 1]] or the one-line error) as the CLI reads them
EDGE_ENTRIES = [
    ("+3", "input error: empty factor in '+3'\n"),
    (" 3", "input error: bad rational literal ' 3'\n"),
    ("3.5", "input error: bad rational literal '3.5'\n"),
    ("1e2", "input error: bad rational literal '1e2'\n"),
    ("\u0661\u0662", "input error: bad rational literal '\u0661\u0662'\n"),
    ({"vars": ["u"], "terms": [{"exp": [1], "coef": "1/2"}]}, "1/2*u"),
    ("1/0", "input error: bad rational literal '1/0'\n"),
    ("1/-2", "input error: bad rational literal '1/' in '1/-2'\n"),
    ("-", "input error: empty factor in '-'\n"),
    ("--1", "input error: empty factor in '--1'\n"),
    ("\u00b2", "input error: bad rational literal '\u00b2'\n"),
    # the 4324-character message cut to its first 300
    (LONG_LITERAL, f"input error: bad rational literal '{LONG_LITERAL[:278]}... (4324 characters)\n"),
    (True, "input error: unserializable value True\n"),
    (None, "input error: unserializable value None\n"),
    ([1], "input error: unserializable value [1]\n"),
]


@pytest.mark.parametrize(("entry", "expected"), EDGE_ENTRIES, ids=[
    "plus", "space", "decimal", "exponent", "arabic_indic", "poly_object", "zero_den",
    "negative_den", "minus", "minus_minus", "superscript", "past_digit_limit", "true", "null",
    "list"])
def test_edge_matrix_entries_read_as_before(tmp_path, capsys, entry, expected):
    code, value, err = _det_of_json_matrix(tmp_path, capsys, [[entry, 0], [0, 1]])
    assert (value if code == 0 else err) == expected
    assert code == (0 if expected[-1:] != "\n" else 2)


def test_row_mixing_a_polynomial_string_with_rationals():
    rows = [["u", "2/4"], ["3", "-3/06"]]
    u = MultiPoly.variable("u")
    m = matrix_from_json(rows, 12)
    assert m == RingMatrix([[u, Fraction(1, 2)], [3, Fraction(-1, 2)]])
    assert m.cleared() is None and [type(x) for row in m.entries for x in row] == [
        MultiPoly, Fraction, int, Fraction]


def test_matrix_shape_is_checked_before_any_entry_is_read():
    # every entry here is refused when it is read, so these errors come from the shape checks
    bad = "1/0"
    with pytest.raises(SchemaError, match="ragged rows"):
        matrix_from_json([[bad, bad], [bad]], 12)
    with pytest.raises(SchemaError, match="empty matrix"):
        matrix_from_json([[], [bad]], 12)
    with pytest.raises(SchemaError, match="bad rational literal"):
        matrix_from_json([[bad, bad], [bad, bad]], 12)


def test_round_trip_of_a_polynomial_matrix_with_int_entries():
    u = MultiPoly.variable("u")
    m = RingMatrix([[Fraction(4, 2), 2 * u + 1], [Fraction(1, 3), -5]])
    assert [type(x) for row in m.entries for x in row] == [int, MultiPoly, Fraction, int]
    blob = [[2, "2*u + 1"], ["1/3", -5]]
    back = matrix_from_json(json.loads(json.dumps(blob)), 12)
    assert back == m and [[str(x) for x in row] for row in back.entries] == [["2", "2*u + 1"],
                                                                            ["1/3", "-5"]]


def test_group_elem_round_trip():
    x = GroupAlgebraElement(
        {parse_word("g1 g2^-1"): Fraction(-1, 2), (): MultiPoly.variable("c")}
    )
    blob = {"terms": [
        {"word": "1", "coef": {"vars": ["c"], "terms": [{"exp": [1], "coef": 1}]}},
        {"word": "g1 g2^-1", "coef": "-1/2"},
    ]}
    assert group_elem_from_json(json.loads(json.dumps(blob))) == x


def test_representation_round_trip():
    ctx = SymplecticContext(2)
    rep = InvolutiveRepresentation.from_images(
        [sample_similitude(ctx, 5, factor=Fraction(4)), sample_symplectic(ctx, 6)],
        kind="GSp",
    )
    blob = {
        "d": 2,
        "kind": "GSp",
        "generators": [[list(map(str, row)) for row in m.entries] for m in rep.generator_images],
        "lambdas": [4, "1"],
    }
    rep2 = representation_from_json(json.loads(json.dumps(blob)), 12)
    assert rep2.generator_images == rep.generator_images
    assert rep2.lambda_values == rep.lambda_values == (4, 1)
    assert rep2.kind == "GSp"
    # lambdas are recomputed when omitted
    del blob["lambdas"]
    rep3 = representation_from_json(blob, 12)
    assert rep3.lambda_values == rep.lambda_values


def test_representation_schema_errors():
    with pytest.raises(SchemaError):
        representation_from_json({"d": 1, "generators": []}, 12)
    with pytest.raises(StructureError, match="Sp representation must have all similitudes equal to 1"):
        representation_from_json({"d": 1, "kind": "Sp", "generators": [[[2, 0], [0, 2]]]}, 12)
    with pytest.raises(SchemaError, match="generators must be a list"):
        representation_from_json({"d": 1, "kind": "Sp", "generators": 5}, 12)


@pytest.mark.parametrize(("lambdas", "message"), [
    (["4", "1"], "one lambda per generator image"),
    ([], "one lambda per generator image"),
    (5, "one lambda per generator image"),
    (["2"], r"declared similitude 2 but M\^j M = 4 Id"),
    (["x"], "bad rational literal"),
])
def test_declared_lambdas_are_checked(lambdas, message):
    blob = {"d": 1, "kind": "GSp", "generators": [[[2, 0], [0, 2]]], "lambdas": lambdas}
    with pytest.raises(SchemaError, match=message):
        representation_from_json(blob, 12)
    blob["lambdas"] = ["4"]
    assert representation_from_json(blob, 12).lambda_values == (4,)


def _basis(exp):
    return [{"vars": ["u", "v"], "terms": [{"exp": exp, "coef": 1}]}]


# the two fixtures as JSON, written out by hand
FIXTURE_SPECS = [
    (standard_fixture, {
        "I0": [1], "I1": [2], "I2": [3], "sigma": [1, 3, 2], "dims": [2, 1, 1],
        "base_vars": ["u", "v"], "nil_monomials": ["u^2", "v^2", "u*v"],
        "blocks": {"1,2": _basis([1, 0]), "1,3": _basis([0, 1]),
                   "2,1": _basis([0, 1]), "3,1": _basis([1, 0])},
        "tau_signs": {"1,2": 1, "1,3": 1, "2,3": 1},
    }),
    (counterexample_fixture, {
        "I0": [], "I1": [1], "I2": [2], "sigma": [2, 1], "dims": [1, 1],
        "base_vars": ["u", "v"], "nil_monomials": ["u^2", "v^2", "u*v"],
        "blocks": {"1,2": _basis([1, 0]), "2,1": _basis([0, 1])},
        "tau_signs": {"1,2": -1},
    }),
]


def test_gma_spec_round_trip():
    for fixture, blob in FIXTURE_SPECS:
        spec = fixture()
        again = gma_spec_from_json(json.loads(json.dumps(blob)), 12)
        assert again.type == spec.type
        assert again.ring == spec.ring
        assert again.blocks == spec.blocks
        assert again.tau_signs == spec.tau_signs


def test_gma_spec_compact_strings():
    blob = {
        "I0": [], "I1": [1], "I2": [2], "sigma": [2, 1], "dims": [1, 1],
        "base_vars": ["u", "v"],
        "nil_monomials": ["u^2", "v^2", "u*v"],
        "blocks": {"1,2": ["u"], "2,1": ["v"]},
        "tau_signs": {"1,2": -1},
    }
    spec = gma_spec_from_json(blob, 12)
    assert spec.tau_signs == {frozenset((1, 2)): -1}
    assert spec.ring.nil_monomials == ((2, 0), (0, 2), (1, 1))


def test_a_block_basis_is_lifted_into_the_ring_by_the_spec_alone():
    """A basis polynomial is read over its own variables; ``GmaSpec`` lifts it into the ring,
    and refuses one with a foreign variable by naming that polynomial's variables alone."""
    blob = {**FIXTURE_SPECS[1][1], "blocks": {"1,2": ["u"], "2,1": ["v"]}}
    assert gma_spec_from_json(blob, 12).blocks == counterexample_fixture().blocks
    blob["blocks"] = {"1,2": ["w"], "2,1": ["v"]}
    with pytest.raises(MembershipError, match=re.escape("outside the ring: ('w',)")):
        gma_spec_from_json(blob, 12)
