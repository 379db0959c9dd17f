"""End-stabilizer algebras: class table, normal form, sequence model, K-theory inputs."""

import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hecketree import tree
from hecketree.core import shared
from hecketree.endstab import (
    EventuallyConstantSeq,
    HorocycleAlgebra,
    ToeplitzAlgebra,
    from_sequence,
    m_element_to_nf,
    m_to_nf,
    nf_to_m,
    to_sequence,
    toeplitz_bratteli,
    toeplitz_shift_alpha,
)
from hecketree.ktheory import kernel_rank

M3 = HorocycleAlgebra(3)
M2 = HorocycleAlgebra(2)
NF2 = ToeplitzAlgebra(2)


def test_class_table_examples():
    b = M3.basis_element
    assert b(2) * b(1) == 2 * b(2)
    assert b(1) * b(1) == b(1) + 2 * M3.one()
    assert b(2) * b(2) == M3.element({2: 3, 1: 6, 0: 6})
    # branching 3 kills the diagonal term of the square of class 1
    assert M2.basis_element(1) * M2.basis_element(1) == M2.one()


def test_class_algebra_commutative_and_self_adjoint():
    for m in range(5):
        assert M3.basis_element(m).star() == M3.basis_element(m)
        for n in range(5):
            assert M3.multiply_basis(m, n) == M3.multiply_basis(n, m)


def test_r_values():
    assert [M3.r_value(n) for n in range(4)] == [1, 2, 6, 18]
    assert NF2.r_value((1, 0)) == 2
    assert NF2.r_value((0, 1)) == 1
    assert NF2.r_value((2, 3)) == 4


def test_isometry_relation():
    s, sS = NF2.isometry(), NF2.co_isometry()
    assert sS * s == 2 * NF2.one()
    assert s * sS == NF2.basis_element((1, 1))
    assert s * sS != 2 * NF2.one()
    assert (s * sS) * (s * sS) == 2 * NF2.basis_element((1, 1))


def test_monomial_rule():
    x = NF2.basis_element((2, 1))
    y = NF2.basis_element((1, 2))
    assert x * y == 2 * NF2.basis_element((2, 2))
    assert y * x == NF2.element({(1, 1): 4})


def test_nf_star():
    assert NF2.isometry().star() == NF2.co_isometry()
    x = NF2.basis_element((2, 1))
    assert x.star() == NF2.basis_element((1, 2))
    assert x.star().star() == x


def test_nf_star_antimultiplicative():
    xs = [NF2.basis_element((a, b)) for a in range(3) for b in range(3)]
    for x, y in itertools.product(xs, repeat=2):
        assert (x * y).star() == y.star() * x.star()


def test_m_to_nf():
    assert m_to_nf(M2, 0) == NF2.one()
    assert m_to_nf(M2, 1) == NF2.element({(1, 1): 1, (0, 0): -1})
    acc = NF2.zero()
    for i in range(4):
        acc = acc + m_to_nf(M2, i)
    assert acc == NF2.basis_element((3, 3))
    # one normal-form algebra per q: conversions share its product cache
    assert m_to_nf(M2, 2).algebra is m_to_nf(M2, 3).algebra
    assert m_element_to_nf(M2.basis_element(1)).algebra is m_to_nf(M2, 0).algebra


def test_nf_to_m_roundtrip():
    for q in (2, 3):
        algebra = HorocycleAlgebra(q)
        x = algebra.element({0: 2, 1: Fraction(1, 2), 3: -1})
        assert nf_to_m(m_element_to_nf(x)) == x


def test_nf_to_m_shares_one_horocycle_algebra():
    # so products of its results share one product cache
    x = m_to_nf(M3, 1) * m_to_nf(M3, 2)
    y = m_to_nf(M3, 3)
    assert nf_to_m(x).algebra is nf_to_m(y).algebra


def test_conversions_take_their_hosts_from_shared():
    # two distinct owners at one q convert into the one core.shared algebra of each model
    owners = HorocycleAlgebra(3), HorocycleAlgebra(3)
    assert owners[0] is not owners[1]
    for owner in owners:
        x = m_to_nf(owner, 1)
        assert x.algebra is shared(ToeplitzAlgebra, 3)
        assert m_element_to_nf(owner.basis_element(2)).algebra is shared(ToeplitzAlgebra, 3)
        assert nf_to_m(x).algebra is shared(HorocycleAlgebra, 3)
    # an element of an unshared normal-form algebra converts into the shared one too
    y = ToeplitzAlgebra(3).basis_element((1, 1))
    assert nf_to_m(y).algebra is shared(HorocycleAlgebra, 3)


def test_nf_to_m_rejects_off_diagonal():
    with pytest.raises(ValueError):
        nf_to_m(NF2.basis_element((1, 0)))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_table_equals_nf_route(q):
    algebra = HorocycleAlgebra(q)
    for m in range(5):
        for n in range(5):
            direct = algebra.multiply_basis(m, n)
            via_nf = nf_to_m(m_to_nf(algebra, m) * m_to_nf(algebra, n))
            assert direct == via_nf


def test_table_matches_horocycle_oracle(ball33):
    algebra = M3
    for m in range(4):
        for n in range(4):
            prod = algebra.multiply_basis(m, n)
            for k in range(max(m, n) + 1):
                assert prod.coefficient(k) == tree.horocycle_constant(ball33, m, n, k)


def test_projections():
    assert NF2.p_projection(0) == NF2.one()
    for n in range(7):
        p = NF2.p_projection(n)
        assert p * p == p
    for n in range(7):
        for m in range(7):
            assert NF2.p_projection(n) * NF2.p_projection(m) == NF2.p_projection(
                max(n, m)
            )


def test_difference_projections_orthogonal():
    qs = [NF2.p_projection(i) - NF2.p_projection(i + 1) for i in range(7)]
    for i, qi in enumerate(qs):
        for j, qj in enumerate(qs):
            assert qi * qj == (qi if i == j else NF2.zero())


def test_covariance_keeps_class_span():
    s, sS = NF2.isometry(), NF2.co_isometry()
    x = m_element_to_nf(M2.element({0: 1, 1: 2, 2: Fraction(1, 2)}))
    conjugated = s * x * sS
    back = nf_to_m(conjugated)  # raises if any off-diagonal support appears
    assert back.algebra == M2


def test_sequence_examples():
    assert to_sequence(M2.one()) == EventuallyConstantSeq([], 1)
    p1 = Fraction(1, 2) * (M2.basis_element(0) + M2.basis_element(1))
    assert to_sequence(p1) == EventuallyConstantSeq([0], 1)
    assert to_sequence(M2.basis_element(1)) == EventuallyConstantSeq([-1], 1)


@pytest.mark.parametrize("q", [2, 3])
def test_sequence_isomorphism_multiplicative(q):
    algebra = HorocycleAlgebra(q)
    for m in range(4):
        for n in range(4):
            x, y = algebra.basis_element(m), algebra.basis_element(n)
            assert to_sequence(x * y) == to_sequence(x) * to_sequence(y)
            assert to_sequence(x + y) == to_sequence(x) + to_sequence(y)


@given(
    st.dictionaries(
        st.integers(0, 5),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
        max_size=4,
    )
)
def test_sequence_roundtrip(terms):
    x = M2.element(terms)
    assert from_sequence(to_sequence(x), 2) == x



def test_from_sequence_images_share_one_algebra_per_q():
    # so a product of two images reads one product cache
    s, t = EventuallyConstantSeq([0, 2], 1), EventuallyConstantSeq([3], 1)
    assert from_sequence(s, 2).algebra is from_sequence(t, 2).algebra
    assert from_sequence(s, 2).algebra is not from_sequence(s, 3).algebra

def test_sequence_canonical_form():
    assert EventuallyConstantSeq([1, 1], 1) == EventuallyConstantSeq([], 1)
    s = EventuallyConstantSeq([0, 2, 1], 1)
    assert s.prefix == (0, 2)
    assert s.value_at(1) == 2 and s.value_at(10) == 1
    with pytest.raises(TypeError):
        EventuallyConstantSeq([0.1], 1)


def test_toeplitz_bratteli_shape():
    diagram = toeplitz_bratteli(4)
    assert [len(level) for level in diagram.levels] == [1, 2, 3, 4]
    for k, m in enumerate(diagram.maps):
        assert kernel_rank(m) == 0
        # duplication of the last coordinate
        assert m.entries[-1] == m.entries[-2]


def test_toeplitz_shift_alpha_shape():
    alpha = toeplitz_shift_alpha(3)
    assert alpha.to_lists() == [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]


@given(
    st.dictionaries(
        st.integers(0, 5),
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
        max_size=3,
    )
)
def test_coset_counts_agree_across_embedding(terms):
    for q in (2, 3):
        algebra = HorocycleAlgebra(q)
        x = algebra.element(terms)
        assert x.r_hom() == m_element_to_nf(x).r_hom()


def test_from_sequence_refuses_a_float_q_after_the_int():
    # the shared algebra for q = 2 is not handed out for 2.0
    s = EventuallyConstantSeq([], 1)
    assert from_sequence(s, 2).algebra.q == 2
    with pytest.raises(TypeError):
        from_sequence(s, 2.0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7])
def test_table_is_the_documented_formula(q):
    # M_m·M_n = r_min·M_max for m ≠ n, and
    # M_n² = Σ_(i<n) r_n·M_i + (r_n − Σ_(i<n) r_i)·M_n, the sum taken over r_value
    algebra = HorocycleAlgebra(q)
    r = algebra.r_value
    for m, n in itertools.product(range(41), repeat=2):
        if m != n:
            expected = {max(m, n): r(min(m, n))}
        else:
            expected = dict.fromkeys(range(n), r(n))
            expected[n] = r(n) - sum(r(i) for i in range(n))
        assert algebra._basis_product(m, n) == expected, (m, n)


def test_off_diagonal_product_keeps_nothing_that_grows_with_the_class():
    algebra = HorocycleAlgebra(2)
    n = 10**5
    tracemalloc.start()
    try:
        product = algebra.multiply_basis(n, n + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert product.terms() == [(n + 1, 2 ** (n - 1))]
    assert peak < 2**20


@pytest.mark.parametrize("m,n,negative", [(-1, 0, -1), (3, -1, -1), (-1, -2, -1), (-2, -1, -2)])
def test_negative_class_is_refused_by_the_first_negative_operand(m, n, negative):
    with pytest.raises(ValueError, match=f"^horocycle class {negative} is negative$"):
        HorocycleAlgebra(3)._basis_product(m, n)
