"""Element arithmetic over a concrete provider (the vertex-stabilizer algebra)."""

import copy
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hecketree.core import HeckeAlgebra
from hecketree.core import shared
from hecketree.endstab import HorocycleAlgebra, ToeplitzAlgebra
from hecketree.iwahori import IwahoriAlgebra
from hecketree.sl2 import PruferGroupAlgebra
from hecketree.sl2 import SL2EndAlgebra
from hecketree.spherical import SphericalAlgebra, SphericalParams
from hecketree.tree import build_ball

A = SphericalAlgebra(SphericalParams.homogeneous(2))


def elements(max_index=6, coeff_range=4):
    coeffs = st.builds(
        Fraction,
        st.integers(-coeff_range, coeff_range),
        st.integers(1, 3),
    )
    return st.dictionaries(st.integers(0, max_index), coeffs, max_size=4).map(A.element)


def test_zero_terms_pruned():
    x = A.element({1: Fraction(0), 2: 3})
    assert x.support() == {2}
    assert A.element({}) == A.zero()
    assert not A.zero()


def test_additive_identity_and_collection():
    g1 = A.basis_element(1)
    assert g1 + A.zero() == g1
    assert g1 + g1 == 2 * g1
    assert (g1 + (-1) * g1).is_zero()


def test_duplicate_indices_collected_on_build():
    assert A.element([(1, 2), (1, 3)]) == 5 * A.basis_element(1)
    assert A.element([(1, 2), (1, -2)]).is_zero()


def test_unit_multiplication():
    assert A.one() * A.basis_element(3) == A.basis_element(3)
    assert A.basis_element(3) * A.one() == A.basis_element(3)


def test_known_products():
    g = A.basis_element
    assert g(1) * g(1) == A.element({0: 3, 2: 1})
    assert g(2) * g(3) == A.element({5: 1, 3: 1, 1: 4})


def test_scalar_coefficient_types():
    x = Fraction(1, 2) * A.basis_element(1)
    assert x.coefficient(1) == Fraction(1, 2)
    # integers are kept as given, never converted to Fraction
    y = A.element({1: 3})
    assert type(y.coefficient(1)) is int and type(y.coefficient(2)) is int
    assert type((2 * y).coefficient(1)) is int
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            A.element({1: bad})
        with pytest.raises(TypeError):
            A.basis_element(1).scale(bad)


def test_scalar_on_the_right_and_scale_by_zero():
    x = A.element({1: 3, 2: Fraction(1, 2)})
    assert x * 3 == 3 * x == A.element({1: 9, 2: Fraction(3, 2)})
    assert x * Fraction(1, 2) == A.element({1: Fraction(3, 2), 2: Fraction(1, 4)})
    assert x.scale(0) == A.zero()


def test_mixed_algebra_rejected():
    other = SphericalAlgebra(SphericalParams.homogeneous(3))
    with pytest.raises(ValueError):
        A.basis_element(1) * other.basis_element(1)
    with pytest.raises(ValueError):
        A.basis_element(1) + other.basis_element(1)


def test_star_fixes_distance_classes():
    for n in range(6):
        assert A.basis_element(n).star() == A.basis_element(n)


def test_r_hom_values():
    g = A.basis_element
    assert A.one().r_hom() == 1
    assert g(2).r_hom() == 6
    assert (g(1) * g(1)).r_hom() == 9 == g(1).r_hom() ** 2


@given(elements(), elements())
def test_star_antimultiplicative(x, y):
    assert (x * y).star() == y.star() * x.star()


@given(elements())
def test_star_involutive(x):
    assert x.star().star() == x


@given(elements(), elements())
def test_r_hom_multiplicative(x, y):
    assert (x * y).r_hom() == x.r_hom() * y.r_hom()


@given(elements(), elements())
def test_r_hom_additive(x, y):
    assert (x + y).r_hom() == x.r_hom() + y.r_hom()


@given(elements(), elements(), elements())
def test_distributive(x, y, z):
    assert x * (y + z) == x * y + x * z


def test_negative_basis_index_is_rejected():
    # each call once took a power q ** -k or returned a wrong product
    from hecketree.endstab import HorocycleAlgebra, ToeplitzAlgebra

    two_orbit = SphericalAlgebra(SphericalParams.two_orbit(2, 3))
    calls = [
        (lambda: A.multiply_recursive(-1, 2), "-1"),
        (lambda: two_orbit.multiply_recursive(-2, 3), "-2"),
        (lambda: A.multiply_closed(-1, 2), "-1"),
        (lambda: HorocycleAlgebra(2).multiply_basis(-1, 2), "-1"),
        (lambda: ToeplitzAlgebra(2).multiply_basis((0, -1), (0, 0)), r"\(0, -1\)"),
    ]
    for call, index in calls:
        with pytest.raises(ValueError, match=index):
            call()


def test_structure_constants_nonnegative_integers():
    # every route of every family keeps the counts as int, not Fraction
    from hecketree.endstab import HorocycleAlgebra, ToeplitzAlgebra, m_to_nf, nf_to_m
    from hecketree.iwahori import IwahoriAlgebra

    two_orbit = SphericalAlgebra(SphericalParams.two_orbit(2, 3))
    iwahori, M, S = IwahoriAlgebra(2, 3), HorocycleAlgebra(3), SL2EndAlgebra(5)
    families = [
        (A, range(5), A.multiply_recursive),
        (two_orbit, range(4), two_orbit.multiply_recursive),
        (iwahori, iwahori.words_up_to(2), iwahori.multiply_closed),
        (M, range(4), lambda a, b: nf_to_m(m_to_nf(M, a) * m_to_nf(M, b))),
        (ToeplitzAlgebra(2), [(a, b) for a in range(3) for b in range(3)], None),
        (S, S.cosets_up_to_depth(2), None),
    ]
    for algebra, indices, other_route in families:
        for a in indices:
            for b in indices:
                products = [
                    algebra.multiply_basis(a, b),
                    algebra.basis_element(a) * algebra.basis_element(b),
                ]
                if other_route:
                    products.append(other_route(a, b))
                for x in products:
                    assert all(type(c) is int and c > 0 for _, c in x.terms()), (a, b)
                    assert type(x.r_hom()) is int


class _ToyAlgebra(HeckeAlgebra):
    """One basis index whose square has the structure constants it is given."""

    unit = 0

    def __init__(self, constants):
        super().__init__()
        self.constants = constants

    def _basis_product(self, a, b):
        return self.constants


@pytest.mark.parametrize("bad", [True, -1, Fraction(1)])
def test_structure_constants_checked_on_admission(bad):
    # a structure constant is a plain nonnegative int: bool, negative and
    # Fraction values are rejected before anything is cached
    algebra = _ToyAlgebra({0: bad})
    with pytest.raises(AssertionError, match="not a nonnegative integer"):
        algebra.multiply_basis(0, 0)
    assert algebra._product_cache == {}


@pytest.mark.parametrize("entry", ["basis_terms", "multiply_basis", "table_terms"])
@pytest.mark.parametrize("bad", [-1, Fraction(1, 2), True])
def test_each_product_entry_point_checks_on_admission(entry, bad):
    # multiply_basis reaches the cache through basis_terms, which checks;
    # table_terms checks as basis_terms does but admits nothing
    algebra = _ToyAlgebra({0: bad})
    with pytest.raises(AssertionError, match="not a nonnegative integer"):
        getattr(algebra, entry)(0, 0)
    assert algebra._product_cache == {}


def test_both_product_entry_points_hand_out_the_kept_dict():
    constants = {0: 1, 1: 2}
    algebra = _ToyAlgebra(constants)
    assert algebra.basis_terms(0, 0) is constants
    assert algebra.multiply_basis(0, 0)._terms is constants
    assert algebra.basis_terms(0, 0) is algebra._product_cache[(0, 0)] is constants


def test_sweep_cells_read_terms_without_making_elements(monkeypatch):
    # every route hands over the dict it keeps: the spherical, iwahori and sl2
    # sweeps make no element, and the affine sweep makes them only in its
    # normal-form route, whose arithmetic is on elements
    from test_acceptance import ACCEPTANCE_COMMANDS

    from hecketree import cli, verify
    from hecketree.core import HeckeElement

    made = []
    of, init = HeckeElement._of.__func__, HeckeElement.__init__
    monkeypatch.setattr(
        HeckeElement, "_of", classmethod(lambda cls, *args: made.append(1) or of(cls, *args))
    )
    monkeypatch.setattr(HeckeElement, "__init__", lambda x, *args: made.append(1) or init(x, *args))
    sweeps = [argv for argv in ACCEPTANCE_COMMANDS if argv[0] == "verify"]
    assert len(sweeps) == 11
    for argv in [*sweeps, ("verify", "sl2", "--p", "5", "--max", "2")]:
        assert cli.main(list(argv)) == 0
        if argv[1] != "affine":
            assert made == [], argv
        made.clear()
    make_algebra, makers = verify.affine_routes(3, 4)
    for name, make in makers.items():
        route = make(make_algebra())
        assert all(route(m, n) for m in range(5) for n in range(5))
        assert bool(made) == (name == "normal-form"), name
        made.clear()
    # the element entry points still make elements, as the count shows
    make_algebra().multiply_basis(1, 1)
    assert len(made) == 1


def test_element_product_wraps_only_its_result(monkeypatch):
    # the basis products inside x * x are read as the kept dicts
    from hecketree.core import HeckeElement

    wrapped = []
    original = HeckeElement._of.__func__
    monkeypatch.setattr(
        HeckeElement, "_of", classmethod(lambda cls, *args: wrapped.append(1) or original(cls, *args))
    )
    x = A.element({0: 1, 1: 2, 3: Fraction(1, 2)})
    x * x
    assert wrapped == [1]


def test_product_cache_keeps_the_dict_handed_over():
    # checked, a zero-free dict is cached and handed out as the algebra made it
    constants = {0: 1, 1: 2}
    algebra = _ToyAlgebra(constants)
    assert algebra.multiply_basis(0, 0)._terms is constants
    assert algebra._product_cache[(0, 0)] is constants


def test_table_terms_checks_without_admitting():
    algebra = _ToyAlgebra({0: 0, 1: 2})
    assert algebra.table_terms(0, 0) == {1: 2}
    assert algebra._product_cache == {}


def test_zero_structure_constants_dropped_on_admission():
    algebra = _ToyAlgebra({0: 0, 1: 2})
    assert algebra.multiply_basis(0, 0).items() == {1: 2}.items()
    assert algebra._product_cache == {(0, 0): {1: 2}}
    # a sweep reads the element's terms as counts: the dict checked when it was cached
    assert algebra.multiply_basis(0, 0)._terms is algebra._product_cache[(0, 0)]


def test_terms_sorted_canonically():
    x = A.element({4: 1, 1: 2, 0: 3})
    assert [idx for idx, _ in x.terms()] == [0, 1, 4]


def test_repr_readable():
    assert repr(A.element({0: 3, 2: 1})) == "3*G0 + G2"
    # a coefficient that is no integer is parenthesized
    assert repr(A.element({1: Fraction(1, 2), 2: 3})) == "(1/2)*G1 + 3*G2"
    assert repr(A.zero()) == "0"


def test_hashable_value_semantics():
    x = A.element({1: 1, 2: 2})
    y = A.element({2: 2, 1: 1})
    assert hash(x) == hash(y) and x == y


def test_provider_unit_laws():
    from hecketree.endstab import HorocycleAlgebra, ToeplitzAlgebra
    from hecketree.iwahori import IwahoriAlgebra
    from hecketree.sl2 import PruferGroupAlgebra, SL2EndAlgebra

    providers = [
        A,
        SphericalAlgebra(SphericalParams.two_orbit(2, 3)),
        IwahoriAlgebra(2, 3),
        HorocycleAlgebra(3),
        ToeplitzAlgebra(2),
        PruferGroupAlgebra(5),
        SL2EndAlgebra(5),
    ]
    for algebra in providers:
        assert algebra.r_value(algebra.unit) == 1
        assert algebra.involute_basis(algebra.unit) == algebra.unit
        assert algebra.multiply_basis(algebra.unit, algebra.unit) == algebra.one()


def test_operations_leave_cached_constants_unchanged():
    # multiply_basis hands out the cached dict itself, so nothing may mutate it
    S = SL2EndAlgebra(5)
    for algebra, a, b in ((A, 2, 3), (S, S.parse_label("1/5"), S.parse_label("2/5"))):
        x = algebra.multiply_basis(a, b)
        cached = algebra._product_cache[(a, b)]
        before = dict(cached)
        for y in (x + x, -x, 2 * x, x * x, x.star(), x - x):
            assert y.algebra == algebra
        assert algebra._product_cache[(a, b)] is cached
        assert cached == before and x == algebra.element(before)


def test_memoized_routes_hand_out_values_later_calls_leave_alone():
    # multiply_recursive keeps its rows and multiply_closed its terms as the
    # term dicts of the elements they return, so no later call may change one
    spherical = SphericalAlgebra(SphericalParams.two_orbit(2, 3))
    iwahori = IwahoriAlgebra(2, 2)
    s, i_s, i = iwahori.parse_label("s"), iwahori.parse_label("is"), iwahori.parse_label("i")
    handed = [
        (spherical, spherical.multiply_recursive(2, 3)),
        (spherical, spherical.multiply_recursive(3, 3)),
        (iwahori, iwahori.multiply_closed(s, s)),
        (iwahori, iwahori.multiply_closed(i_s, i)),
    ]
    snapshots = [copy.deepcopy(dict(x.items())) for _, x in handed]
    for n, m in ((3, 3), (4, 3), (1, 3), (2, 3), (5, 2), (2, 2)):
        spherical.multiply_recursive(n, m)
    # (is) * i = t shares its kept terms with t * 1: left word t, right word 1, flag 0
    for a, b in itertools.product(iwahori.words_up_to(2), repeat=2):
        iwahori.multiply_closed(a, b)
    for (algebra, x), before in zip(handed, snapshots):
        for y in (x + x, -x, 2 * x, x * x, x.star(), x - x):
            assert y.algebra == algebra
        assert dict(x.items()) == before and x == algebra.element(before)
    assert spherical.multiply_recursive(2, 3) == spherical.element(snapshots[0])
    assert iwahori.multiply_closed(i_s, i) == iwahori.element(snapshots[3])


#: name -> (constructor taking one branching number or letter weight q,
#: its message for q = 1)
BRANCHED = {
    "spherical": (SphericalParams.homogeneous, "branching numbers must be >= 2, got (1, 1)"),
    "two-orbit": (
        lambda q: SphericalParams.two_orbit(3, q),
        "branching numbers must be >= 2, got (3, 1)",
    ),
    "horocycle": (HorocycleAlgebra, "branching number must be >= 2, got 1"),
    "toeplitz": (ToeplitzAlgebra, "branching number must be >= 2, got 1"),
    "iwahori": (lambda q: IwahoriAlgebra(q, 3), "letter weights must be >= 2, got (1, 3)"),
    "ball": (lambda q: build_ball(2, q, 3), "branching numbers must be >= 2, got (2, 1)"),
}


@pytest.mark.parametrize("name", BRANCHED)
@pytest.mark.parametrize("q", [2.0, 2.5, Fraction(5, 2), Fraction(3)], ids=repr)
def test_branching_numbers_are_integers(name, q):
    # a float or a Fraction would carry into every exact table
    make, message = BRANCHED[name]
    with pytest.raises(TypeError):
        make(q)
    with pytest.raises(ValueError) as excinfo:
        make(1)
    assert str(excinfo.value) == message
    make(3)


#: name -> (algebra class, two parameter tuples naming different algebras)
PARAMETERIZED = {
    "spherical": (
        SphericalAlgebra,
        (SphericalParams.homogeneous(2),),
        (SphericalParams.two_orbit(2, 3),),
    ),
    "iwahori": (IwahoriAlgebra, (2, 3), (3, 2)),
    "horocycle": (HorocycleAlgebra, (2,), (3,)),
    "toeplitz": (ToeplitzAlgebra, (2,), (3,)),
    "prufer": (PruferGroupAlgebra, (3,), (5,)),
    "sl2": (SL2EndAlgebra, (3,), (5,)),
}


@pytest.mark.parametrize("name", PARAMETERIZED)
def test_algebras_compare_by_class_and_parameters(name):
    cls, params, other = PARAMETERIZED[name]
    a, b = cls(*params), cls(*params)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != cls(*other)
    # a product of elements of equal algebras is defined, of unequal ones not
    assert (a.one() * b.one()).algebra is a
    with pytest.raises(ValueError, match="different Hecke algebras"):
        a.one() * cls(*other).one()


def test_equal_parameters_in_another_class_make_another_algebra():
    assert HorocycleAlgebra(2) != ToeplitzAlgebra(2)
    assert PruferGroupAlgebra(3) != SL2EndAlgebra(3)


def test_shared_keeps_one_instance_per_class_and_parameters():
    assert shared(HorocycleAlgebra, 2) is shared(HorocycleAlgebra, 2)
    assert shared(HorocycleAlgebra, 2) is not shared(ToeplitzAlgebra, 2)
    assert shared(HorocycleAlgebra, 2) is not shared(HorocycleAlgebra, 3)
    # typed: a float equal to a cached int reaches the constructor, which refuses it
    with pytest.raises(TypeError):
        shared(HorocycleAlgebra, 2.0)
