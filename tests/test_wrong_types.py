"""Wrong-typed and malformed arguments to public calls: each is refused with ``TypeError`` or a
``SymplawError``, never with an ``AttributeError``, a ``KeyError`` or a bare ``ValueError`` from
deep inside the library.  ``RingMatrix`` and ``MultiPoly`` operands are tested with their
kernels, in ``test_matrices.py`` and ``test_multipoly.py``."""

import pytest

from symplaw import (
    GroupAlgebraElement,
    InvariantFunction,
    InvolutiveRepresentation,
    Pseudocharacter,
    SymplawError,
    SymplecticContext,
    RingMatrix,
    TraceWord,
    char_poly,
    check_invariance,
    closed_form_check_d4,
    eval_det_law,
    eval_invariant,
    eval_pf_law,
    lambdas_of_matrix,
    mat_det,
    newton_lambdas_from_traces,
    pfaffian,
    pfaffian_char_poly,
    pfaffian_coeffs_from_lambdas,
    reduced_pfaffian,
    sample_symplectic,
    similitude,
    star,
    symplectic_transpose,
    theta_eval,
)
from symplaw.errors import GeneratorError
from symplaw.gma import GmaType
from symplaw.symplectic import is_alternating, sample_similitude
from symplaw.words import parse_word


def _pc():
    rep = InvolutiveRepresentation.from_images([sample_symplectic(SymplecticContext(1), 3)])
    return Pseudocharacter(rep)


def _gma_type(**fields):
    """The standard fixture's GMA type with ``fields`` replaced."""
    return GmaType(**{"i0": (1,), "i1": (2,), "i2": (3,), "sigma": (1, 3, 2), "dims": (2, 1, 1),
                      **fields})


_TRACE = InvariantFunction.sigma(1, TraceWord(((1, False),)))
_CTX = SymplecticContext(1)

# name: (the call, the exception it must raise)
CALLS = {
    # a letter with exponent 2 once printed as g1^-1 and failed later with KeyError
    "element_with_exponent_2": (
        lambda: eval_det_law(_pc().rep, GroupAlgebraElement({((1, 2),): 1})), GeneratorError),
    "element_with_generator_0": (lambda: GroupAlgebraElement({((0, 1),): 1}), GeneratorError),
    # once accepted, and unequal to GroupAlgebraElement.one()
    "element_with_unreduced_word": (
        lambda: GroupAlgebraElement({((1, 1), (1, -1)): 1}), GeneratorError),
    "element_with_text_word": (lambda: GroupAlgebraElement({"g1": 1}), TypeError),
    "element_with_a_bare_letter": (lambda: GroupAlgebraElement({(1, 1): 1}), TypeError),
    "element_with_inexact_coefficient": (lambda: GroupAlgebraElement({(): 1.5}), TypeError),
    "element_plus_int": (lambda: GroupAlgebraElement.one() + 1, TypeError),
    "element_minus_int": (lambda: GroupAlgebraElement.one() - 1, TypeError),
    "element_times_int": (lambda: GroupAlgebraElement.one() * 2, TypeError),
    "int_plus_element": (lambda: 1 + GroupAlgebraElement.one(), TypeError),
    "theta_with_exponent_2": (lambda: theta_eval(_pc(), _TRACE, [((1, 2),)]), GeneratorError),
    "theta_with_text_word": (lambda: theta_eval(_pc(), _TRACE, ["g1"]), TypeError),
    "rho_of_unreduced_word": (lambda: _pc().rep.rho_word(((1, -1), (1, 1))), GeneratorError),
    "trace_word_from_text": (lambda: TraceWord("12"), TypeError),
    "trace_word_with_text_index": (lambda: TraceWord((("1", False),)), TypeError),
    # each of these once ended in AttributeError on a list or an int
    "det_of_rows": (lambda: mat_det([[1]]), TypeError),
    "char_poly_of_rows": (lambda: char_poly([[1]]), TypeError),
    "lambdas_of_rows": (lambda: lambdas_of_matrix([[1]]), TypeError),
    "pfaffian_of_rows": (lambda: pfaffian([[0, 1], [-1, 0]]), TypeError),
    "symplectic_transpose_of_rows": (lambda: symplectic_transpose(_CTX, [[1, 0], [0, 1]]), TypeError),
    "similitude_of_int": (lambda: similitude(_CTX, 1), TypeError),
    "reduced_pfaffian_of_rows": (lambda: reduced_pfaffian(_CTX, [[1, 0], [0, 1]]), TypeError),
    "pfaffian_char_poly_of_rows": (lambda: pfaffian_char_poly(_CTX, [[1, 0], [0, 1]]), TypeError),
    "rho_of_int": (lambda: _pc().rep.rho(1), TypeError),
    "star_of_int": (lambda: star(_pc().rep, 1), TypeError),
    "det_law_of_int": (lambda: eval_det_law(_pc().rep, 1), TypeError),
    "pf_law_of_int": (lambda: eval_pf_law(_pc().rep, 1), TypeError),
    "element_from_a_list": (lambda: GroupAlgebraElement([((1, 1),)]), TypeError),
    "representation_from_ints": (lambda: InvolutiveRepresentation.from_images([1]), TypeError),
    # these five once ended in AttributeError on an int
    "representation_of_int_images": (lambda: InvolutiveRepresentation(_CTX, (1,)), TypeError),
    "det_law_on_int": (lambda: eval_det_law(1, GroupAlgebraElement.one()), TypeError),
    "pf_law_on_int": (lambda: eval_pf_law(1, GroupAlgebraElement.one()), TypeError),
    "star_on_int": (lambda: star(1, GroupAlgebraElement.one()), TypeError),
    "is_alternating_of_int": (lambda: is_alternating(1), TypeError),
    "invariant_of_ints": (lambda: eval_invariant(_TRACE, [1]), TypeError),
    "invariance_under_int": (
        lambda: check_invariance([_TRACE], [RingMatrix.identity(2)], 1), TypeError),
    "sigma_of_a_letter_tuple": (lambda: InvariantFunction.sigma(1, ((1, False),)), TypeError),
    "word_from_int": (lambda: parse_word(5), TypeError),
    # each of these once computed in floats, or read a float as its binary fraction
    "newton_of_float_traces": (lambda: newton_lambdas_from_traces([0.5, 1.0]), TypeError),
    "pfaffian_coeffs_of_float_lambdas": (
        lambda: pfaffian_coeffs_from_lambdas([1, 0.5, 0.0625]), TypeError),
    "closed_forms_of_float_lambdas": (
        lambda: closed_form_check_d4([1, 0.5, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0]), TypeError),
    "closed_forms_of_float_traces": (
        lambda: closed_form_check_d4([1] + [0] * 8, [0.5, 0, 0, 0]), TypeError),
    "similitude_power_of_a_float_power": (
        lambda: eval_invariant(InvariantFunction.similitude_power(1, 0.5, 1),
                               [RingMatrix([[2, 0], [0, 1]])]), TypeError),
    "similitude_power_of_a_float_index": (
        lambda: InvariantFunction.similitude_power(1.0), TypeError),
    "similitude_sample_with_a_float_factor": (
        lambda: sample_similitude(_CTX, 0, factor=0.1), TypeError),
    # each of these was once converted by int(), so 2.9 was read as 2 and True as 1
    "gma_type_with_float_dims": (lambda: _gma_type(dims=(2.9, 1, 1)), TypeError),
    "gma_type_with_text_sigma": (lambda: _gma_type(sigma=("1", 3, 2)), TypeError),
    "gma_type_with_bool_dims": (lambda: _gma_type(dims=(2, 1, True)), TypeError),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_wrong_typed_call_is_refused_by_type_or_library_error(name):
    call, expected = CALLS[name]
    assert issubclass(expected, (TypeError, SymplawError))
    with pytest.raises(expected):
        call()
