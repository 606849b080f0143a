"""Pseudocharacters for Sp_2d and GSp_2d backed by explicit representations.

A pseudocharacter is the family of maps sending a conjugation-invariant
function f of m group elements and a tuple (gamma_1..gamma_m) to
f(rho(gamma_1), ..., rho(gamma_m)).  Evaluation is restricted to the
generating invariants (characteristic-polynomial coefficients of trace
words, plus inverse similitudes in the GSp case), which suffices by the
generation theorems tested in the invariants module.

Two axioms characterize these families: compatibility with variable
relabelling, and compatibility with merging the last two arguments by
group multiplication.  Both are checked on randomized trials; a cache of
evaluated values doubles as the corruption fixture for detecting
axiom failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Iterable, Iterator

from .detlaws import GroupAlgebraElement, InvolutiveRepresentation, star
from .errors import ArityError, StructureError, SymplawError, UnsupportedKindError
from .invariants import InvariantFunction, TraceWord, eval_invariant, hat, relabel
from .matrices import _linear_combination, lambdas_of_matrix
from .multipoly import Ring
from .symplectic import reduced_pfaffian, similitude
from .words import Word, format_word, random_word, word_inv, word_mul


@dataclass
class Pseudocharacter:
    """Representation-backed pseudocharacter with a memo cache.

    The cache maps (function key, word tuple) to the exact value; entries
    are always re-derivable from the representation, and tests may corrupt
    one deliberately to exercise axiom-failure detection.  ``lambdas`` is the
    Lambda-vector memo of eval_invariant, which holds no value of f.
    """

    rep: InvolutiveRepresentation
    cache: dict = field(default_factory=dict)
    lambdas: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def kind(self) -> str:
        return self.rep.kind

    def cache_key(self, f: InvariantFunction, gammas: tuple) -> tuple:
        return (f.key(), tuple(gammas))


def theta_eval(pc: Pseudocharacter, f: InvariantFunction, gammas) -> Fraction:
    """Evaluate one generating invariant on a word tuple; memoized."""
    gammas = tuple(tuple(w) for w in gammas)
    if len(gammas) != f.arity:
        raise ArityError(f"function of arity {f.arity} applied to {len(gammas)} words")
    if f.kind == "similitude" and pc.kind != "GSp":
        raise UnsupportedKindError("similitude generators require a GSp pseudocharacter")
    key = pc.cache_key(f, gammas)
    if key in pc.cache:
        return pc.cache[key]
    mats = [pc.rep.rho_word(w) for w in gammas]
    value = eval_invariant(f, mats, pc.lambdas)
    pc.cache[key] = value
    return value


def _random_sigma_function(rng: random.Random, arity: int, two_d: int) -> InvariantFunction:
    length = rng.randint(1, 4)
    letters = tuple((rng.randint(1, arity), rng.choice((False, True))) for _ in range(length))
    return InvariantFunction.sigma(rng.randint(1, two_d), TraceWord(letters), arity)


def _draw_trials(pc: Pseudocharacter, trials: int, seed: int) -> Iterator[tuple]:
    """The trials of verify_axioms, each (f, f^zeta, gamma_n, gamma_zeta, the functions whose
    product is hat(f), gamma, merged gamma), drawn one at a time.  They read the seed, the kind,
    2d and the generator count, never the cache."""
    rng = random.Random(seed)
    two_d = pc.rep.ctx.n
    k = pc.rep.num_generators
    for _ in range(trials):
        m = rng.randint(1, 3)
        if pc.kind == "GSp" and rng.random() < 0.25:
            f = InvariantFunction.similitude_power(rng.randint(1, m), -1, m)
        else:
            f = _random_sigma_function(rng, m, two_d)
        n = rng.randint(1, 3)
        zeta = [rng.randint(1, n) for _ in range(m)]
        gammas_n = [random_word(rng, k, 4) for _ in range(n)]
        gammas = [random_word(rng, k, 4) for _ in range(m + 1)]
        if f.kind == "similitude" and f.var_index == m:
            # hat of the last-slot similitude generator is a product of two generators
            hats = tuple(InvariantFunction.similitude_power(i, -1, m + 1) for i in (m, m + 1))
        else:
            hats = (hat(f),)
        merged = gammas[: m - 1] + [word_mul(gammas[m - 1], gammas[m])]
        yield (f, relabel(f, zeta, n), gammas_n, [gammas_n[z - 1] for z in zeta],
               hats, gammas, merged)


def _failures(pc: Pseudocharacter, draws: Iterable[tuple]) -> list:
    """The witnesses of the drawn trials that fail an axiom on pc's values."""
    failures = []
    for f, f_zeta, gammas_n, gammas_zeta, hats, gammas, merged in draws:
        # axiom 1, relabelling variables commutes with evaluation.  Two sides with one cache
        # key would compare a value with itself, and a corrupted entry would cancel out, so
        # the comparison is skipped before either side is evaluated.
        if (pc.cache_key(f_zeta, gammas_n) != pc.cache_key(f, gammas_zeta)
                and theta_eval(pc, f_zeta, gammas_n) != theta_eval(pc, f, gammas_zeta)):
            failures.append({"axiom": 1, "f": str(f.key()), "words": [format_word(w) for w in gammas_n]})
        # axiom 2, merging the last two arguments by multiplication
        if prod(theta_eval(pc, h, gammas) for h in hats) != theta_eval(pc, f, merged):
            failures.append({"axiom": 2, "f": str(f.key()), "words": [format_word(w) for w in gammas]})
    return failures


def verify_axioms(pc: Pseudocharacter, trials: int, seed: int) -> dict:
    """Randomized check of the relabelling and last-argument-product axioms.

    Returns {"passed": bool, "trials": n, "failures": [witness, ...]} where a
    witness records the axiom, the function and the word tuple.
    """
    if trials < 1:
        raise SymplawError("trials must be >= 1")
    failures = _failures(pc, _draw_trials(pc, trials, seed))
    return {"passed": not failures, "trials": trials, "failures": failures}


def _corrupted_cache_detected(pc: Pseudocharacter, trials: int, seed: int) -> bool:
    """The axioms pass on one draw of trials, and fail on the same draw once the cache entry
    first by repr is off by one.  The draws never read the cache, so both passes check the
    same trials, and the second reads every value from the cache."""
    draws = list(_draw_trials(pc, trials, seed))
    if _failures(pc, draws) or not pc.cache:
        return False
    entry = sorted(pc.cache, key=repr)[0]
    pc.cache[entry] += 1
    return bool(_failures(pc, draws))


# -- comparison with the determinant-law side ---------------------------


def comparison_to_det_law(pc: Pseudocharacter):
    """The determinant-law pair induced by the pseudocharacter.

    D sends sum c_i gamma_i to det(sum c_i rho(gamma_i)), read off as
    Lambda_2d of its characteristic polynomial, so that it does not share
    mat_det with eval_det_law; P sends a symmetric sum c_w w to the
    normalized Pfaffian of sum c_w rho(w).  Of each pair w, w^(-1) only the
    lexicographically smaller word goes through rho_word, and the other's
    image is that matrix's inverse by elimination, not rho_word's M^j /
    lambda generator inverses, so that P does not share the involution with
    eval_pf_law.
    """
    rep = pc.rep
    ctx = rep.ctx

    def d_law(x: GroupAlgebraElement) -> Ring:
        return lambdas_of_matrix(rep.rho(x))[-1]

    def p_law(x: GroupAlgebraElement) -> Ring:
        if star(rep, x) != x:
            raise StructureError("comparison P is defined on symmetric elements")
        terms = []
        for w, c in x.terms.items():
            wi = word_inv(w)
            m = rep.rho_word(min(w, wi))
            terms.append((c, m if w <= wi else m.inverse()))
        return reduced_pfaffian(ctx, _linear_combination(terms, ctx.n, ctx.n))

    return d_law, p_law


def similitude_character(pc: Pseudocharacter, gamma: Word) -> Fraction:
    """lambda recovered from the pseudocharacter side; GSp only."""
    if pc.kind != "GSp":
        raise UnsupportedKindError("similitude character requires kind GSp")
    return similitude(pc.rep.ctx, pc.rep.rho_word(tuple(gamma)))
