import random

import pytest
from hypothesis import given, strategies as st

from symplaw.errors import GeneratorError
from symplaw.words import (
    check_word,
    format_word,
    integer_literal,
    parse_word,
    random_word,
    reduce_letters,
    word_inv,
    word_mul,
)


def test_reduction_cancels_adjacent_inverses():
    assert reduce_letters([(1, 1), (1, -1)]) == ()
    assert reduce_letters([(1, 1), (2, 1), (2, -1), (1, -1)]) == ()
    assert reduce_letters([(1, 1), (1, 1), (1, -1)]) == ((1, 1),)


def test_check_word_returns_a_reduced_word_as_a_tuple():
    assert check_word([]) == ()
    assert check_word([(1, 1), (2, -1), (1, 1)]) == ((1, 1), (2, -1), (1, 1))
    assert check_word(parse_word("g3^2 g1^-1")) == parse_word("g3^2 g1^-1")


@pytest.mark.parametrize("word, error", [
    (((1, 2),), GeneratorError),
    (((0, 1),), GeneratorError),
    (((-1, 1),), GeneratorError),
    (((1, 1), (1, -1)), GeneratorError),
    (((2, 1), (1, -1), (1, 1)), GeneratorError),
    ("g1", TypeError),
    (((1, 1, 1),), TypeError),
    (((1.0, 1),), TypeError),
    (((1, "1"),), TypeError),
    ([[1, 1]], TypeError),
])
def test_check_word_refuses_a_malformed_word(word, error):
    with pytest.raises(error):
        check_word(word)


def test_mul_inverse_identity():
    w = parse_word("g1 g2^-1 g1")
    assert word_mul(w, word_inv(w)) == ()
    assert word_mul(word_inv(w), w) == ()
    assert word_mul(word_inv(w), word_inv(w)) == word_inv(word_mul(w, w))


def test_parse_format_round_trip():
    for text in ("1", "g1", "g1 g2^-1", "g3^2 g1^-1"):
        w = parse_word(text)
        assert parse_word(format_word(w)) == w
    assert parse_word("g1^2") == ((1, 1), (1, 1))
    assert format_word(parse_word("g1 g1")) == "g1 g1"
    assert parse_word("g02^-2") == ((2, -1), (2, -1))
    for text in ("h1", "g0", "g+1", "g1_0", "g\u0661", "g1^", "g1^+1", "g1^1_0",
                 "g1^\u0661"):
        with pytest.raises(GeneratorError):
            parse_word(text)


@pytest.mark.parametrize(("text", "value"), [
    ("0", 0), ("007", 7), ("-0", 0), ("-12", -12), ("1" * 4300, int("1" * 4300)),
    ("", None), ("-", None), ("--1", None), ("+1", None), (" 1", None), ("1 ", None),
    ("1_0", None), ("\u00b2", None), ("\u0661", None), ("1.0", None), ("1" * 4301, None),
], ids=["zero", "leading_zeros", "minus_zero", "negative", "at_digit_limit", "empty", "minus",
        "minus_minus", "plus", "space_before", "space_after", "underscore", "superscript",
        "arabic_indic", "decimal_point", "past_digit_limit"])
def test_integer_literal_is_a_minus_and_ascii_digits_within_the_digit_limit(text, value):
    assert integer_literal(text) == value


letters = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from((1, -1))), min_size=0, max_size=12
)


@given(letters, letters)
def test_reduction_is_homomorphic(a, b):
    assert word_mul(reduce_letters(a), reduce_letters(b)) == reduce_letters(list(a) + list(b))


@given(letters)
def test_double_inverse(a):
    w = reduce_letters(a)
    assert word_inv(word_inv(w)) == w
    assert word_mul(w, word_inv(w)) == ()


def test_random_word_deterministic():
    assert random_word(random.Random(5), 2, 4) == random_word(random.Random(5), 2, 4)
