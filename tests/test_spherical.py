"""Vertex-stabilizer algebra: recursions, closed forms, normalization, polynomial model."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hecketree import tree
from hecketree.spherical import SphericalAlgebra, SphericalParams

Q2 = SphericalAlgebra(SphericalParams.homogeneous(2))
TO23 = SphericalAlgebra(SphericalParams.two_orbit(2, 3))


def test_params_validation():
    with pytest.raises(ValueError):
        SphericalParams.homogeneous(1)
    with pytest.raises(ValueError):
        SphericalParams.two_orbit(2, 1)
    with pytest.raises(ValueError):
        SphericalParams("homogeneous", 2, 3)
    with pytest.raises(ValueError):
        SphericalParams("diagonal", 2, 2)


def test_r_values():
    assert Q2.r_value(0) == 1
    assert Q2.r_value(3) == 12
    assert TO23.r_value(1) == 9
    assert TO23.r_value(2) == 9 * 6


def test_recursion_products():
    g = Q2.basis_element
    assert Q2.multiply_recursive(1, 1) == Q2.element({0: 3, 2: 1})
    assert Q2.multiply_recursive(1, 2) == Q2.element({1: 2, 3: 1})
    assert Q2.multiply_recursive(2, 2) == Q2.element({0: 6, 2: 1, 4: 1})
    assert g(0) * g(3) == g(3)
    assert Q2.multiply_recursive(0, 3) == g(3)
    for algebra in (Q2, TO23):
        assert algebra.generator_times(algebra.one()) == algebra.basis_element(1)


def test_closed_products():
    assert Q2.multiply_closed(2, 3) == Q2.element({5: 1, 3: 1, 1: 4})
    assert Q2.multiply_closed(3, 3) == Q2.element({6: 1, 4: 1, 2: 2, 0: 12})
    assert Q2.multiply_closed(0, 4) == Q2.basis_element(4)


def test_two_orbit_products():
    g = TO23.basis_element
    assert g(1) * g(1) == TO23.element({0: 9, 1: 2, 2: 1})
    assert g(2) * g(2) == TO23.element({0: 54, 1: 12, 2: 3, 3: 2, 4: 1})
    assert TO23.multiply_recursive(2, 2) == TO23.multiply_closed(2, 2)


@pytest.mark.parametrize(
    "params", [SphericalParams.homogeneous(3), SphericalParams.two_orbit(2, 3)]
)
def test_kept_recursion_rows_match_in_any_order(params):
    # (2, 9) is behind the step (6, 9) reached, so it restarts at row 0
    algebra = SphericalAlgebra(params)
    cells = [(n, m) for n in range(9) for m in range(9)]
    random.Random(17).shuffle(cells)
    for n, m in [(6, 9), (2, 9), (9, 9), (9, 2)] + cells:
        assert algebra.multiply_recursive(n, m) == algebra.multiply_closed(n, m), (n, m)


@pytest.mark.parametrize(
    "params", [SphericalParams.homogeneous(3), SphericalParams.two_orbit(2, 3)]
)
def test_kept_closed_form_rows_match_in_any_order(params):
    # one kept coefficient list serves every smaller factor n, and m < n, m = n and m > n
    algebra = SphericalAlgebra(params)
    cells = [(n, m) for n in range(13) for m in range(13)]
    random.Random(29).shuffle(cells)
    for n, m in cells:
        fresh = SphericalAlgebra(params)
        assert algebra._basis_product(n, m) == fresh._basis_product(n, m), (n, m)
    # a returned dict is the caller's: changing it changes no later product
    for n, m in [(4, 9), (9, 4), (4, 4), (4, 6)]:
        fresh = SphericalAlgebra(params)._basis_product(n, m)
        out = algebra._basis_product(n, m)
        out.clear()
        out[0] = 7
        assert algebra._basis_product(n, m) == fresh, (n, m)
        assert algebra._basis_product(n, 12) == SphericalAlgebra(params)._basis_product(n, 12)


@pytest.mark.parametrize(
    "params, step", [(SphericalParams.homogeneous(3), 1), (SphericalParams.two_orbit(2, 3), 2)]
)
def test_closed_form_keeps_one_coefficient_list(params, step):
    # the row of a smaller factor is a prefix of a larger one's, so the kept
    # lists grow to the largest distance asked for and no further
    algebra = SphericalAlgebra(params)
    for n, m in [(5, 9), (2, 7), (5, 5), (0, 11)]:
        algebra._basis_product(n, m)
    _, coeffs, prods = algebra._closed_form
    assert len(coeffs) == len(prods) == 5 * step + 1
    algebra._basis_product(8, 6)
    assert len(coeffs) == len(prods) == 6 * step + 1


@pytest.mark.parametrize(
    "params",
    [SphericalParams.homogeneous(q) for q in (2, 3, 5)]
    + [SphericalParams.two_orbit(q0, q1) for q0, q1 in ((2, 3), (3, 2), (4, 7), (7, 4))],
)
def test_closed_form_matches_recursion_to_index_12(params):
    # one distance formula for both modes, checked against the generator's
    # own three-term recursion, which shares no code with it
    algebra = SphericalAlgebra(params)
    for m in range(13):
        for n in range(13):
            assert algebra.multiply_closed(n, m) == algebra.multiply_recursive(n, m), (n, m)


@pytest.mark.parametrize(
    "params", [SphericalParams.homogeneous(3), SphericalParams.two_orbit(2, 3)]
)
def test_r_value_is_the_sphere_of_the_ball(params):
    algebra = SphericalAlgebra(params)
    ball = tree.build_ball(params.q0, params.q1, 10)
    for n in range(10 // params.step + 1):
        assert algebra.r_value(n) == len(ball.sphere(params.step * n)), n

@pytest.mark.parametrize("q", [2, 3])
def test_three_routes_agree_homogeneous(q):
    algebra = SphericalAlgebra(SphericalParams.homogeneous(q))
    ball = tree.build_ball(q, q, 8)
    for n in range(5):
        for m in range(n, 5):
            closed = algebra.multiply_closed(n, m)
            assert closed == algebra.multiply_recursive(n, m)
            assert {k: int(c) for k, c in closed.terms()} == tree.spherical_product(
                ball, n, m
            )


@pytest.mark.parametrize("q0,q1", [(2, 2), (2, 3), (3, 2)])
def test_three_routes_agree_two_orbit(q0, q1):
    algebra = SphericalAlgebra(SphericalParams.two_orbit(q0, q1))
    ball = tree.build_ball(q0, q1, 12)
    for n in range(4):
        for m in range(n, 4):
            closed = algebra.multiply_closed(n, m)
            assert closed == algebra.multiply_recursive(n, m)
            oracle = {
                k // 2: c for k, c in tree.spherical_product(ball, 2 * n, 2 * m).items()
            }
            assert {k: int(c) for k, c in closed.terms()} == oracle


def test_commutative():
    for n in range(5):
        for m in range(5):
            assert Q2.multiply_basis(n, m) == Q2.multiply_basis(m, n)
            assert TO23.multiply_basis(n, m) == TO23.multiply_basis(m, n)


def test_leading_coefficient_is_one():
    for algebra in (Q2, TO23):
        for n in range(1, 5):
            for m in range(1, 5):
                assert algebra.multiply_basis(n, m).coefficient(n + m) == 1


def test_normalize_examples():
    gn = Q2.normalize(Q2.basis_element(1))
    prod = gn * gn
    coords = Q2.normalized_coefficients(prod)
    assert coords == {0: Fraction(1, 3), 2: Fraction(2, 3)}
    for k in range(7):
        assert Q2.normalize(Q2.basis_element(k)).r_hom() == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_normalized_recurrence_homogeneous(q):
    algebra = SphericalAlgebra(SphericalParams.homogeneous(q))
    for n in range(1, 6):
        got = algebra.normalized_generator_product(n)
        expected = Fraction(1, q + 1) * (
            algebra.normalize(algebra.basis_element(n - 1))
            + q * algebra.normalize(algebra.basis_element(n + 1))
        )
        assert got == expected
        coords = algebra.normalized_coefficients(got)
        assert coords == {n - 1: Fraction(1, q + 1), n + 1: Fraction(q, q + 1)}


@pytest.mark.parametrize("q0,q1", [(2, 2), (2, 3), (3, 2)])
def test_normalized_recurrence_two_orbit(q0, q1):
    algebra = SphericalAlgebra(SphericalParams.two_orbit(q0, q1))
    scale = Fraction(1, (q0 + 1) * q1)
    for n in range(1, 5):
        got = algebra.normalized_generator_product(n)
        expected = scale * (
            algebra.normalize(algebra.basis_element(n - 1))
            + (q1 - 1) * algebra.normalize(algebra.basis_element(n))
            + q0 * q1 * algebra.normalize(algebra.basis_element(n + 1))
        )
        assert got == expected
        coords = algebra.normalized_coefficients(got)
        expected_coords = {n - 1: scale, n + 1: scale * q0 * q1}
        if q1 > 1:
            expected_coords[n] = scale * (q1 - 1)
        assert coords == expected_coords


def test_polynomial_examples():
    assert Q2.to_polynomial(Q2.basis_element(2)) == (-3, 0, 1)
    assert Q2.to_polynomial(Q2.one()) == (1,)
    assert Q2.to_polynomial(Q2.basis_element(3)) == (0, -5, 0, 1)
    # trailing zeros of the input are dropped
    assert Q2.from_polynomial((1, 0, 0)) == Q2.one()
    with pytest.raises(TypeError):
        Q2.from_polynomial([0.5])


def test_polynomial_monic():
    for algebra in (Q2, TO23):
        for n in range(7):
            poly = algebra.to_polynomial(algebra.basis_element(n))
            assert len(poly) == n + 1 and poly[-1] == 1


@given(
    st.dictionaries(
        st.integers(0, 6),
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
        max_size=4,
    )
)
def test_polynomial_roundtrip(terms):
    for algebra in (Q2, TO23):
        x = algebra.element(terms)
        assert algebra.from_polynomial(algebra.to_polynomial(x)) == x


def test_polynomial_evaluation_consistent():
    # the coordinates of a product are the polynomial product's coordinates
    g = Q2.basis_element
    x = g(2) * g(3)
    px = Q2.to_polynomial(g(2))
    py = Q2.to_polynomial(g(3))
    prod = [Fraction(0)] * (len(px) + len(py) - 1)
    for i, a in enumerate(px):
        for j, b in enumerate(py):
            prod[i + j] += a * b
    assert Q2.to_polynomial(x) == tuple(prod)


def test_two_orbit_deep_oracle_sweep():
    # beyond the acceptance bound: the alternating-weight pattern of the
    # closed form exercised through longer products
    grid = [((2, 3), 4, 16), ((3, 2), 4, 16), ((2, 2), 5, 20)]
    for (q0, q1), top, radius in grid:
        algebra = SphericalAlgebra(SphericalParams.two_orbit(q0, q1))
        ball = tree.build_ball(q0, q1, radius, max_vertices=8_000_000)
        for n in range(top + 1):
            for m in range(n, top + 1):
                closed = algebra.multiply_closed(n, m)
                assert closed == algebra.multiply_recursive(n, m)
                oracle = {
                    k // 2: c
                    for k, c in tree.spherical_product(ball, 2 * n, 2 * m).items()
                }
                assert {k: int(c) for k, c in closed.terms()} == oracle


@given(
    st.dictionaries(
        st.integers(0, 5),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
        max_size=3,
    ),
    st.dictionaries(
        st.integers(0, 5),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
        max_size=3,
    ),
)
def test_polynomial_model_is_ring_isomorphism(terms_x, terms_y):
    for algebra in (Q2, TO23):
        x, y = algebra.element(terms_x), algebra.element(terms_y)
        px, py = algebra.to_polynomial(x), algebra.to_polynomial(y)
        prod = [Fraction(0)] * max(len(px) + len(py) - 1, 1)
        for i, a in enumerate(px):
            for j, b in enumerate(py):
                prod[i + j] += a * b
        while prod and not prod[-1]:
            prod.pop()
        assert algebra.to_polynomial(x * y) == tuple(prod)
