"""Library input guards: each refused input raises its own exception type and message."""

import pytest

from hecketree.endstab import (
    HorocycleAlgebra,
    ToeplitzAlgebra,
    m_element_to_nf,
    nf_to_m,
    to_sequence,
    toeplitz_bratteli,
    toeplitz_shift_alpha,
)
from hecketree.iwahori import IwahoriAlgebra
from hecketree.ktheory import AbelianGroupPresentation
from hecketree.sl2 import (
    PruferElement,
    SL2EndAlgebra,
    make_prufer,
    same_double_coset,
    unit_squares_mod,
)

#: name -> (call, exception type, message)
GUARDS = {
    "p_projection": (
        lambda: ToeplitzAlgebra(2).p_projection(-1),
        ValueError,
        "projection index must be nonnegative",
    ),
    "m_element_to_nf": (
        lambda: m_element_to_nf(ToeplitzAlgebra(2).one()),
        TypeError,
        "expected an element of the horocycle algebra",
    ),
    "to_sequence": (
        lambda: to_sequence(ToeplitzAlgebra(2).one()),
        TypeError,
        "expected an element of the horocycle algebra",
    ),
    "nf_to_m": (
        lambda: nf_to_m(HorocycleAlgebra(2).one()),
        TypeError,
        "expected an element of the normal-form algebra",
    ),
    "toeplitz_bratteli": (lambda: toeplitz_bratteli(0), ValueError, "need at least one level"),
    "toeplitz_shift_alpha": (
        lambda: toeplitz_shift_alpha(0),
        ValueError,
        "stage rank must be positive",
    ),
    "letter_weight": (
        lambda: IwahoriAlgebra(2, 3).letter_weight("x"),
        ValueError,
        "bad letter 'x'",
    ),
    "AbelianGroupPresentation": (
        lambda: AbelianGroupPresentation(-1),
        ValueError,
        "free rank must be nonnegative",
    ),
    "PruferElement-depth": (
        lambda: PruferElement(5, -1, 0),
        ValueError,
        "depth must be nonnegative",
    ),
    "PruferElement-depth-0": (
        lambda: PruferElement(5, 0, 1),
        ValueError,
        "depth-0 element must be zero",
    ),
    "make_prufer": (lambda: make_prufer(5, 1, -1), ValueError, "depth must be nonnegative"),
    "unit_squares_mod-prime": (lambda: unit_squares_mod(4, 1), ValueError, "4 is not prime"),
    "unit_squares_mod-exponent": (
        lambda: unit_squares_mod(5, 0),
        ValueError,
        "exponent must be at least 1",
    ),
    "same_double_coset": (
        lambda: same_double_coset(make_prufer(5, 1, 1), make_prufer(3, 1, 1)),
        ValueError,
        "prime mismatch: 5 != 3",
    ),
    "SL2EndAlgebra.coset": (
        lambda: SL2EndAlgebra(5).coset(make_prufer(3, 1, 1)),
        ValueError,
        "prime mismatch: 3 != 5",
    ),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guards_raise_their_exception_and_message(name):
    call, kind, message = GUARDS[name]
    with pytest.raises((TypeError, ValueError)) as excinfo:
        call()
    assert excinfo.type is kind
    assert str(excinfo.value) == message
