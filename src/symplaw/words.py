"""Reduced words in a free group on generators g1, g2, ...

A word is a tuple of letters (index, exponent_sign) with index >= 1 and
sign in {+1, -1}, stored reduced: no adjacent letter cancels its
neighbour.  The empty tuple is the identity.  Text form: "g1 g2^-1".
"""

from __future__ import annotations

import random

from .errors import CapacityError, GeneratorError

Word = tuple  # tuple[tuple[int, int], ...]

IDENTITY: Word = ()

# Letters a parsed word may spell out.  ``evaluate`` forms and stores an image of
# every prefix, so time grows faster than the length: at 2d = 12 a word of 100
# letters takes about 0.5 s and one of 300 about 3 s (Python 3.11, 2-core x86-64 VM).
MAX_WORD_LETTERS = 100


def check_word_length(letters: int) -> None:
    if letters > MAX_WORD_LETTERS:
        raise CapacityError(f"word longer than the {MAX_WORD_LETTERS}-letter guard")


def integer_literal(text: str) -> int | None:
    """int(text) if text is an optional "-" and one or more ASCII digits within the int
    digit limit, else None: the one integer grammar of every numeral the CLI reads."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past the int digit limit
            pass
    return None


def evaluate(word: tuple, images: dict):
    """The product of ``word``'s letter images, keyed in ``images`` by 1-tuples: the longest prefix
    there grows by one letter, one product, at a time, and each new prefix is stored."""
    k = len(word)
    while k and word[:k] not in images:
        k -= 1
    m = images[word[:k]]
    for i in range(k, len(word)):
        m = images[word[: i + 1]] = m * images[word[i : i + 1]]
    return m


def check_word(w) -> Word:
    """``w`` as a tuple: TypeError unless every letter is a pair of ints, GeneratorError unless
    ``w`` is a reduced word of letters (generator >= 1, +-1)."""
    w = tuple(w)
    for k, letter in enumerate(w):
        if not (type(letter) is tuple and len(letter) == 2 and isinstance(letter[0], int)
                and isinstance(letter[1], int)):
            raise TypeError(f"a word letter is a pair (generator, +-1) of ints, got {letter!r}")
        if letter[0] < 1 or letter[1] not in (1, -1) or k and w[k - 1] == (letter[0], -letter[1]):
            raise GeneratorError(f"{w} is not a reduced word of letters (generator >= 1, +-1)")
    return w


def reduce_letters(letters) -> Word:
    out: list = []
    for gen, sign in letters:
        if out and out[-1][0] == gen and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


def word_mul(a: Word, b: Word) -> Word:
    return reduce_letters(list(a) + list(b))


def word_inv(a: Word) -> Word:
    return tuple((gen, -sign) for gen, sign in reversed(a))


def format_word(w: Word) -> str:
    return " ".join(f"g{gen}" if sign == 1 else f"g{gen}^-1" for gen, sign in w) or "1"


def parse_word(text: str) -> Word:
    if not isinstance(text, str):
        raise TypeError(f"a word is parsed from a string, got {type(text).__name__}")
    text = text.strip()
    if text in ("", "1"):
        return IDENTITY
    letters = []
    for token in text.split():
        body, caret, exp = token.partition("^")
        gen = integer_literal(body[1:]) if body.startswith("g") else None
        if gen is None or gen < 1:
            raise GeneratorError(f"bad word token {token!r}")
        n = integer_literal(exp) if caret else 1
        if n is None:
            raise GeneratorError(f"bad exponent in {token!r}")
        check_word_length(len(letters) + abs(n))
        sign = 1 if n > 0 else -1
        letters.extend([(gen, sign)] * abs(n))
    return reduce_letters(letters)


def random_word(rng: random.Random, num_generators: int, max_len: int = 4) -> Word:
    n = rng.randint(1, max_len)
    letters = [(rng.randint(1, num_generators), rng.choice((1, -1))) for _ in range(n)]
    return reduce_letters(letters)
