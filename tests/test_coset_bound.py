"""The coset-count bound that every genuine Hecke algebra obeys.

In ``D_a * D_b`` the coefficient of ``D_k`` counts, for one fixed coset of
``k``, the left cosets of ``a`` meeting a right coset of ``b`` there, so it
is at most ``r_value(involute_basis(a))`` (the left cosets of ``a``) and at
most ``r_value(b)``.  This checks each family's ``r_value`` against its table
from a second angle, and finds the edge-fixator algebra's decorated sector
with unequal weights, which is formal rewriting data and no Hecke algebra.
"""

import itertools

import pytest

from hecketree.endstab import HorocycleAlgebra, ToeplitzAlgebra
from hecketree.iwahori import IwahoriAlgebra
from hecketree.sl2 import SL2EndAlgebra
from hecketree.spherical import SphericalAlgebra, SphericalParams
from hecketree.verify import CELLS


def _over_bound(algebra, cells) -> tuple:
    """The number of terms in the cells' products, and the terms over the bound."""
    terms, over = 0, []
    for a, b in cells:
        bound = min(algebra.r_value(algebra.involute_basis(a)), algebra.r_value(b))
        for k, c in algebra.multiply_basis(a, b).items():
            terms += 1
            if c > bound:
                over.append((a, b, k, c, bound))
    return terms, over


_MONOMIALS = list(itertools.product(range(5), repeat=2))

_SWEEPS = {
    "spherical q=2": (SphericalAlgebra(SphericalParams.homogeneous(2)), "spherical", 8),
    "spherical (2,3)": (SphericalAlgebra(SphericalParams.two_orbit(2, 3)), "spherical", 5),
    "iwahori (2,2)": (IwahoriAlgebra(2, 2), "iwahori", 5),
    "affine q=3": (HorocycleAlgebra(3), "affine", 8),
    "sl2 p=5": (SL2EndAlgebra(5), "sl2", 2),
    "sl2 p=3": (SL2EndAlgebra(3), "sl2", 3),
}


@pytest.mark.parametrize("name", list(_SWEEPS))
def test_sweep_constants_are_at_most_the_coset_counts(name):
    algebra, family, top = _SWEEPS[name]
    terms, over = _over_bound(algebra, CELLS[family](algebra, top))
    assert terms > 0
    assert over == []


def test_toeplitz_constants_are_at_most_the_coset_counts():
    algebra = ToeplitzAlgebra(3)
    terms, over = _over_bound(algebra, itertools.product(_MONOMIALS, repeat=2))
    assert terms == len(_MONOMIALS) ** 2
    assert over == []


def test_unequal_weights_break_the_bound_only_with_one_decorated_factor():
    algebra = IwahoriAlgebra(2, 3)
    terms, over = _over_bound(algebra, CELLS["iwahori"](algebra, 5))
    assert (terms, len(over)) == (924, 18)
    assert all(a.iflag + b.iflag == 1 for a, b, *_ in over)
    # D_s * D_it contains 3 D_i, over the 2 cosets of D_s
    s, it, i = (algebra.parse_label(text) for text in ("s", "it", "i"))
    assert (s, it, i, 3, 2) in over
    # and the sector is not associative: the witness the iwahori docstring and README state
    d = algebra.delta
    assert (d("s") * d("s")) * d("i") == 2 * d("i") + d("it")
    assert d("s") * (d("s") * d("i")) == 3 * d("i") + 2 * d("it")
