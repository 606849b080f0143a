"""A fixed-seed mutation fuzzer over every CLI input.

Each case starts from one valid input: one per ``eval`` verb (the P law of
``eval detlaw`` as its own case) and the standard GMA spec for
``suite gma --input``.  A mutation replaces one or two leaves with a value
from ``VALUES``, deletes a key, or puts a matrix one size above
``SYMPLAW_MAX_DIM`` in place of one; ``cli.main`` then runs in process.  It
must return 0, 1 or 2, no exception may escape it, and an exit 2 writes one
stderr line, which starts ``input error: `` and is at most ``MAX_LINE`` long.
The splices, all of them and in order, put each string of ``VALUES``, and
``LONG_POLY``, in place of each token of each string leaf (a letter or index
of a word, a numeral, a variable or a ``^`` exponent) and of each whole term,
so that a malformed token reaches the parsers inside an otherwise valid
field.  The two values one past a
work guard (a word of ``MAX_WORD_LETTERS`` + 1 letters, an element of
``MAX_ELEMENT_TERMS`` + 1 terms) also go in place of every node of every
case, since random draws seldom put them where their guard reads them, and
so do four malformed numbers, which must exit 2 wherever they stand, except
"1 2" where it is read as a trace word.
At every key of every object of every case, a copy with that key renamed by
one letter, and one with an unknown key added, must exit 2 with one
``input error:`` line that names the key.
Every input this has flagged is pinned as a named case in
``tests/test_cli.py``.
"""

import contextlib
import copy
import io
import json
import random
import re

import pytest

from symplaw.cli import _MESSAGE_CHARS, main
from symplaw.serialize import MAX_ELEMENT_TERMS, MAX_EVAL_ARGUMENTS
from symplaw.words import MAX_WORD_LETTERS

MAX_DIM = 4  # small, so that matrices above the cap stay cheap
# the longest refusal line: the message cut to its first _MESSAGE_CHARS, then its length
MAX_LINE = len("input error: ") + _MESSAGE_CHARS + len("... (999999999 characters)\n")

# one past a work guard: a word of one letter too many, an element of one term too many
LONG_WORD = " ".join(["g1"] * (MAX_WORD_LETTERS + 1))
LONG_ELEMENT = {"terms": [{"word": "g1", "coef": 1}] * (MAX_ELEMENT_TERMS + 1)}

# text that a reader which strips spaces, or takes Fraction's grammar, reads as 12, u^10, 7/2, 3
MALFORMED_NUMERALS = ("1 2", "u^1 0", "3.5", " 3")

VALUES = (None, True, False, 0, 2, 1.5, -1, 10**6, 10**30, "", "x", "1/0", "1/3", "u^-1", "g3",
          [], {}, [[]], [1], {"a": 1},
          ["g1"] * (MAX_EVAL_ARGUMENTS + 1),  # one past the argument cap, as gammas or matrices
          "\u00b2",  # a digit to isdigit, but not to int
          "1_0", "+1", "\u0661",  # numerals int reads but the integer grammar refuses
          "1" * 4301,  # one digit past CPython's default int digit limit
          *MALFORMED_NUMERALS,
          LONG_WORD, LONG_ELEMENT)


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


_SL2 = [[[1, 1], [0, 1]], [[2, 1], [1, 1]]]
_REP = {"d": 1, "kind": "Sp", "generators": _SL2}
_GSP_REP = {"d": 1, "kind": "GSp", "generators": [[[2, 0], [0, 1]], [[1, 1], [0, 1]]]}

CASES = {
    "pfaffian": (["eval", "pfaffian"], {
        "matrix": [[0, 1, "2/3", 0], [-1, 0, 0, 3], ["-2/3", 0, 0, -1], [0, -3, 1, 0]]}),
    "detlaw_D": (["eval", "detlaw"], {
        "rep": _REP, "law": "D",
        "element": {"terms": [{"word": "g1 g2^-1", "coef": "1/2"}, {"word": "g2", "coef": 3}]}}),
    "detlaw_P": (["eval", "detlaw"], {
        "rep": _GSP_REP, "law": "P",
        "element": {"terms": [{"word": "g1", "coef": 1}, {"word": "g1^-1", "coef": 2}]}}),
    "invariant": (["eval", "invariant"], {
        "matrices": [[[1, 2], [3, "1/2"]], [[0, 1], [-1, 0]]], "sigma_index": 1, "word": "1 2*"}),
    "theta": (["eval", "theta"], {
        "rep": _GSP_REP, "gammas": ["g1", "g2 g1"],
        "f": {"sigma_index": 2, "word": "1 2*", "arity": 2}}),
    "invariant_similitude": (["eval", "invariant"], {
        "matrices": [[[2, 0], [0, 1]], [[1, 1], [0, 1]]], "similitude_power": -1, "var_index": 1}),
    "theta_similitude": (["eval", "theta"], {
        "rep": _GSP_REP, "gammas": ["g1 g2"], "f": {"similitude_power": 2, "var_index": 1}}),
    "gma_spec": (["suite", "gma", "--trials", "2"], {
        "I0": [1], "I1": [2], "I2": [3], "sigma": [1, 3, 2], "dims": [2, 1, 1],
        "base_vars": ["u", "v"], "nil_monomials": ["u^2", "v^2", "u*v"],
        "blocks": {"1,2": ["u"], "3,1": ["u"], "2,1": ["v"], "1,3": ["v"]},
        "tau_signs": {"1,2": 1, "1,3": 1, "2,3": 1}}),
}


def _paths(node, path=()):
    """The path of every node below ``node``: a tuple of dict keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _get(blob, path):
    for key in path:
        blob = blob[key]
    return blob


def _string_leaves(blob) -> list:
    return [p for p in _paths(blob) if isinstance(_get(blob, p), str)]


# the splice cases: every case above with a string leaf, and a polynomial coefficient with "^"
SPLICE_CASES = {name: case for name, case in CASES.items() if _string_leaves(case[1])}
SPLICE_CASES["detlaw_poly"] = (["eval", "detlaw"], {
    "rep": _REP, "law": "D",
    "element": {"terms": [{"word": "g1 g2^-1", "coef": "u^2 - 1/2*u*v + 3"},
                          {"word": "g2", "coef": "v"}]}})
# a polynomial string of 2000 terms over three monomials: read in linear time, and quoted whole
# by any refusal that quotes the field it lands in
LONG_POLY = " + ".join(f"{i}/7*u^{i % 3}*v" for i in range(2000))
SPLICES = (*(v for v in VALUES if isinstance(v, str)), LONG_POLY)
TOKEN = re.compile(r"\w+")
TERM = re.compile(r"[^\s+-](?:[^+-]*[^\s+-])?")  # a term of a polynomial string, or a whole word


def _is_matrix(node):
    return (isinstance(node, list) and node and all(isinstance(r, list) and r for r in node)
            and not any(isinstance(x, list) for r in node for x in r))


def mutations(blob, rng, count):
    """``count`` pairs (mutated copy of ``blob``, what changed), drawn from ``rng``."""
    paths = list(_paths(blob))
    keys = [p for p in paths if isinstance(_get(blob, p[:-1]), dict)]
    matrices = [p for p in paths if _is_matrix(_get(blob, p))]
    for _ in range(count):
        out = copy.deepcopy(blob)
        kind = rng.random()
        if kind < 0.15:
            path = rng.choice(keys)
            del _get(out, path[:-1])[path[-1]]
            yield out, f"delete {path}"
        elif kind < 0.25 and matrices:
            path = rng.choice(matrices)
            size = MAX_DIM + rng.choice((1, 2))
            _get(out, path[:-1])[path[-1]] = _identity(size)
            yield out, f"{path} = identity({size})"
        else:
            said = []
            for path in rng.sample(paths, rng.choice((1, 2))):
                value = copy.deepcopy(rng.choice(VALUES))
                try:
                    _get(out, path[:-1])[path[-1]] = value
                except (KeyError, IndexError, TypeError):
                    continue  # the other replacement took this path away
                said.append(f"{path} = {value!r}")
            yield out, "; ".join(said)


def splices(blob):
    """Every pair (copy of ``blob`` with a string of ``SPLICES`` spliced into a leaf, what changed)."""
    for path in _string_leaves(blob):
        text = _get(blob, path)
        for start, end in sorted({m.span() for r in (TOKEN, TERM) for m in r.finditer(text)}):
            for value in SPLICES:
                out = copy.deepcopy(blob)
                _get(out, path[:-1])[path[-1]] = text[:start] + value + text[end:]
                yield out, f"{path}: {text[start:end]!r} -> {value[:20]!r} ({len(value)} chars)"


def run(argv, blob, tmp_path, err=None):
    """cli.main on ``blob`` as the input file; its exit code, or the exception that escaped,
    or an AssertionError for an exit 2 that wrote other than one ``input error: `` line.

    What ``main`` writes to stderr goes to ``err`` if one is given.
    """
    path = tmp_path / "in.json"
    path.write_text(json.dumps(blob))
    out, err = io.StringIO(), io.StringIO() if err is None else err
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--input", str(path)])
    except Exception as e:  # anything escaping main is the finding
        return e
    lines = err.getvalue().splitlines(keepends=True)
    if code == 2 and not (len(lines) == 1 and lines[0].startswith("input error: ")
                          and len(lines[0]) <= MAX_LINE):
        return AssertionError(f"exit 2 without one bounded 'input error: ' line: {err.getvalue()!r}")
    return code


def _flagged(argv, variants, tmp_path) -> list:
    """(what changed, outcome) for each variant on which ``main`` does not return 0, 1 or 2."""
    flagged = []
    for blob, what in variants:
        code = run(argv, blob, tmp_path)
        if code not in (0, 1, 2):
            flagged.append((what, repr(code)))
    return flagged


@pytest.mark.parametrize("name", sorted(CASES))
def test_mutated_inputs_exit_0_1_or_2(name, tmp_path, monkeypatch):
    monkeypatch.setenv("SYMPLAW_MAX_DIM", str(MAX_DIM))
    argv, blob = CASES[name]
    assert run(argv, blob, tmp_path) == 0
    flagged = _flagged(argv, mutations(blob, random.Random(f"fuzz:{name}"), 300), tmp_path)
    assert not flagged, flagged


@pytest.mark.parametrize("name", sorted(SPLICE_CASES))
def test_spliced_inputs_exit_0_1_or_2(name, tmp_path, monkeypatch):
    monkeypatch.setenv("SYMPLAW_MAX_DIM", str(MAX_DIM))
    argv, blob = SPLICE_CASES[name]
    assert run(argv, blob, tmp_path) == 0
    flagged = _flagged(argv, splices(blob), tmp_path)
    assert not flagged, flagged


@pytest.mark.parametrize("value", [LONG_WORD, LONG_ELEMENT], ids=["word", "element"])
def test_a_value_past_a_work_guard_in_place_of_every_node(value, tmp_path, monkeypatch):
    """The value in place of each node of each case exits 0, 1 or 2, and the guard refuses
    it where it lands as a word or an element; random draws seldom put it there."""
    monkeypatch.setenv("SYMPLAW_MAX_DIM", str(MAX_DIM))
    flagged, refused = [], 0
    for argv, blob in CASES.values():
        for path in _paths(blob):
            out, err = copy.deepcopy(blob), io.StringIO()
            _get(out, path[:-1])[path[-1]] = copy.deepcopy(value)
            code = run(argv, out, tmp_path, err)
            if code not in (0, 1, 2):
                flagged.append((argv, path, repr(code)))
            refused += code == 2 and "guard" in err.getvalue()
    assert not flagged, flagged
    assert refused


# the two trace words, where "1 2" is the valid word of letters 1 and 2
TRACE_WORDS = {("invariant", ("word",)), ("theta", ("f", "word"))}


@pytest.mark.parametrize("value", MALFORMED_NUMERALS)
def test_a_malformed_numeral_in_place_of_every_node_exits_2(value, tmp_path, monkeypatch):
    monkeypatch.setenv("SYMPLAW_MAX_DIM", str(MAX_DIM))
    wrong = []
    for name, (argv, blob) in CASES.items():
        for path in _paths(blob):
            out = copy.deepcopy(blob)
            _get(out, path[:-1])[path[-1]] = value
            code = run(argv, out, tmp_path)
            if code != (0 if value == "1 2" and (name, path) in TRACE_WORDS else 2):
                wrong.append((name, path, repr(code)))
    assert not wrong, wrong


# every case, and one whose element holds a polynomial object, so that its two objects are read
KEY_CASES = {**CASES, "detlaw_poly_object": (["eval", "detlaw"], {
    "rep": _REP, "element": {"terms": [
        {"word": "g1", "coef": {"vars": ["u", "v"], "terms": [{"exp": [1, 2], "coef": "1/2"}]}}]}})}
UNKNOWN_KEY = "zz"


def _renamed(key: str) -> str:
    """``key`` with its last letter changed."""
    return key[:-1] + ("y" if key.endswith("x") else "x")


def key_mutations(blob):
    """Every pair (copy of ``blob`` with a key renamed or an unknown key added, that key), at
    every key of every object: each is a key no reader was told of."""
    objects = [()] + [p for p in _paths(blob) if isinstance(_get(blob, p), dict)]
    for path in objects:
        for key in _get(blob, path):
            out = copy.deepcopy(blob)
            obj = _get(out, path)
            renamed = {(_renamed(k) if k == key else k): v for k, v in obj.items()}
            obj.clear()
            obj.update(renamed)
            yield out, _renamed(key)
        out = copy.deepcopy(blob)
        _get(out, path)[UNKNOWN_KEY] = 1
        yield out, UNKNOWN_KEY


@pytest.mark.parametrize("name", sorted(KEY_CASES))
def test_a_misspelt_or_unknown_key_exits_2_naming_it(name, tmp_path, monkeypatch):
    monkeypatch.setenv("SYMPLAW_MAX_DIM", str(MAX_DIM))
    argv, blob = KEY_CASES[name]
    assert run(argv, blob, tmp_path) == 0
    wrong = []
    for out, key in key_mutations(blob):
        err = io.StringIO()
        code, line = run(argv, out, tmp_path, err), err.getvalue()
        if not (code == 2 and line.startswith("input error: ") and line.count("\n") == 1
                and repr(key) in line):
            wrong.append((key, code, line))
    assert not wrong, wrong


@pytest.mark.parametrize("raw", ["3", "5", "2.5", "4.0", "1e1"])
def test_every_input_runs_under_an_odd_or_non_integer_cap(raw, tmp_path, monkeypatch):
    monkeypatch.setenv("SYMPLAW_MAX_DIM", raw)
    for argv, blob in CASES.values():
        code = run(argv, blob, tmp_path)
        assert code in (0, 2) if raw.isdigit() else code == 2, (raw, argv, code)
