"""Integer matrices, Smith normal form, Bratteli limits, crossed-product K-groups."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from hecketree.endstab import toeplitz_bratteli, toeplitz_shift_alpha
from hecketree.ktheory import (
    AbelianGroupPresentation,
    BratteliDiagram,
    IntMatrix,
    cokernel,
    kernel_rank,
    load_bratteli,
    pv_k_groups,
    smith_normal_form,
    truncated_limit,
)


def test_matrix_validation_and_ops():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert m.det() == -2
    with pytest.raises(ValueError):
        IntMatrix.zeros(2, 3).det()
    assert (m @ IntMatrix.identity(2)) == m
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1], [2, 3]])
    with pytest.raises(ValueError):
        m @ IntMatrix.identity(3)
    with pytest.raises(ValueError, match="shape mismatch in subtraction"):
        m - IntMatrix.zeros(2, 3)


@pytest.mark.parametrize("rows, cols", [(0, 3), (2, 0), (0, 0)])
def test_a_matrix_without_rows_keeps_its_column_count(rows, cols):
    # the column count is a field: Z^3 -> 0 is 0 x 3, with a rank-3 kernel
    m = IntMatrix.zeros(rows, cols)
    assert (m.rows, m.cols) == (rows, cols)
    assert m != IntMatrix.zeros(rows, cols + 1)
    assert kernel_rank(m) == cols
    assert IntMatrix.zeros(2, rows) @ m == IntMatrix.zeros(2, cols)
    assert m @ IntMatrix.zeros(cols, 4) == IntMatrix.zeros(rows, 4)
    assert smith_normal_form(m) == (
        IntMatrix.identity(rows),
        IntMatrix.zeros(rows, cols),
        IntMatrix.identity(cols),
    )
    _assert_snf_postconditions(m)


def test_the_constructor_reads_the_column_count_off_the_first_row():
    assert IntMatrix.from_rows([[1, 2, 3]]).cols == 3
    assert IntMatrix.from_rows([[], []]).cols == IntMatrix.from_rows([]).cols == 0


def test_det_examples():
    assert IntMatrix.identity(3).det() == 1
    assert IntMatrix.zeros(2, 2).det() == 0
    assert IntMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]]).det() == 30
    assert IntMatrix.from_rows([[0, 1], [1, 0]]).det() == -1


def test_snf_identity():
    u, d, v = smith_normal_form(IntMatrix.identity(2))
    assert d == IntMatrix.identity(2)


def test_snf_diag_2_3():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    u, d, v = smith_normal_form(m)
    assert [d.entries[i][i] for i in range(2)] == [1, 6]
    assert u @ m @ v == d
    assert abs(u.det()) == 1 and abs(v.det()) == 1


def test_snf_zero():
    u, d, v = smith_normal_form(IntMatrix.from_rows([[0]]))
    assert d.entries == ((0,),)


def _assert_snf_postconditions(m):
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = [d.entries[i][i] for i in range(min(m.rows, m.cols))]
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert d.entries[i][j] == 0
    for i, x in enumerate(diag):
        assert x >= 0
        if i and diag[i - 1]:
            assert x % diag[i - 1] == 0 or x == 0
        if i and diag[i - 1] == 0:
            assert x == 0
    return u, d, v


@st.composite
def int_matrices(draw, max_rows, max_cols, bound):
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    entries = st.integers(-bound, bound)
    return IntMatrix.from_rows([[draw(entries) for _ in range(cols)] for _ in range(rows)])


@st.composite
def low_rank_matrices(draw, size=4, bound=3):
    """Products of a rows x k and a k x cols matrix, up to size x size, with
    factor entries in [-bound, bound]: k bounds the rank, so rank-deficient
    matrices are common, and k = 0 gives zero ones."""
    left = draw(int_matrices(size, size, bound))
    right = draw(int_matrices(size, size, bound))
    inner = draw(st.integers(0, min(left.cols, right.rows)))
    a, b = left.entries, right.entries
    return IntMatrix.from_rows(
        [
            [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(right.cols)]
            for i in range(left.rows)
        ]
    )


def degenerate_shapes(test):
    """Add as examples the shapes the strategies never draw: 2 x 0, 0 x 0,
    a 1 x 3 zero row and a single column."""
    for rows in ([[], []], [], [[0, 0, 0]], [[2], [4], [7]]):
        test = example(IntMatrix.from_rows(rows))(test)
    return test


@settings(max_examples=120, deadline=None)
@given(st.one_of(int_matrices(5, 5, 9), int_matrices(5, 5, 10**6), low_rank_matrices()))
@degenerate_shapes
def test_snf_postconditions_random(m):
    # large entries take many Euclid rounds per pivot, and rank-deficient
    # matrices end the elimination on a zero block
    _assert_snf_postconditions(m)


def test_trusted_results_equal_validated_ones():
    m = IntMatrix.from_rows([[4, 6, 2], [6, 4, 8]])
    assert IntMatrix.identity(2) == IntMatrix.from_rows([[1, 0], [0, 1]])
    assert hash(IntMatrix.zeros(2, 3)) == hash(IntMatrix.from_rows([[0] * 3] * 2))
    for result in (*smith_normal_form(m), m @ IntMatrix.identity(3), m - m):
        assert result == IntMatrix(result.entries)
        assert hash(result) == hash(IntMatrix(result.entries))
        assert type(result.entries) is tuple
        assert all(type(row) is tuple for row in result.entries)
        assert all(type(x) is int for row in result.entries for x in row)


def test_snf_deterministic():
    m = IntMatrix.from_rows([[4, 6, 2], [6, 4, 8]])
    first = smith_normal_form(m)
    second = smith_normal_form(m)
    assert first == second


def test_cokernel_examples():
    assert cokernel(IntMatrix.zeros(2, 2)) == AbelianGroupPresentation(2)
    assert cokernel(IntMatrix.from_rows([[2]])) == AbelianGroupPresentation(0, (2,))
    assert cokernel(IntMatrix.from_rows([[0]])) == AbelianGroupPresentation(1)
    assert kernel_rank(IntMatrix.zeros(2, 2)) == 2
    assert kernel_rank(IntMatrix.from_rows([[2]])) == 0
    # rectangular: Z^3 / image of [[2, 0], [0, 0], [0, 0]] and a rank-one kernel
    snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 0], [0, 0]]))
    assert snf.cokernel == AbelianGroupPresentation(2, (2,))
    assert snf.kernel_rank == 1


def test_rank_nullity():
    m = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    snf = smith_normal_form(m)
    assert snf.rank + kernel_rank(m) == m.cols


def test_presentation_validation():
    with pytest.raises(ValueError):
        AbelianGroupPresentation(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroupPresentation(0, (4, 2))
    # no silent truncation of non-integers
    with pytest.raises(TypeError):
        AbelianGroupPresentation(0, (2.7,))
    with pytest.raises(TypeError):
        AbelianGroupPresentation(1.5, ())
    assert AbelianGroupPresentation(0).describe() == "0"
    assert AbelianGroupPresentation(1).describe() == "Z"
    assert AbelianGroupPresentation(2, (2, 6)).describe() == "Z^2 + Z/2 + Z/6"


def test_id_minus_shift_rectangular():
    # the canonical inclusion minus the deeper-stage shift: free cokernel of
    # rank one and no kernel, at every stage size
    for n in range(3, 11):
        k0, k1 = pv_k_groups(toeplitz_shift_alpha(n))
        assert k0 == AbelianGroupPresentation(1)
        assert k1 == 0


def test_pv_square_cases():
    k0, k1 = pv_k_groups(IntMatrix.identity(3))
    assert k0 == AbelianGroupPresentation(3) and k1 == 3
    k0, k1 = pv_k_groups(IntMatrix.zeros(2, 2))
    assert k0 == AbelianGroupPresentation(0) and k1 == 0
    with pytest.raises(ValueError):
        pv_k_groups(IntMatrix.zeros(2, 3))


def test_truncated_limit_constant_diagram():
    d = BratteliDiagram(((1,), (1,), (1,)), ([[1]], [[1]]))
    report = truncated_limit(d)
    assert report["stabilized"] is True
    assert all(level["k0_rank"] == 1 for level in report["levels"])
    assert report["composed_cokernel"]["description"] == "0"


def test_truncated_limit_sequence_diagram():
    diagram = toeplitz_bratteli(5)
    report = truncated_limit(diagram)
    assert report["levels"][-1]["k0_rank"] == 5
    assert report["map_kernel_ranks"] == [0, 0, 0, 0]
    assert report["stabilized"] is False  # ranks keep growing


def test_truncated_limit_doubling():
    d = BratteliDiagram(((1,), (1,), (1,)), ([[2]], [[2]]))
    report = truncated_limit(d)
    assert report["composed_map"] == [[4]]
    assert report["stage_cokernels"][-1]["invariant_factors"] == [4]


def test_truncated_limit_identity_level_insertion():
    d = BratteliDiagram(((1,), (1,), (1,)), ([[2]], [[2]]))
    padded = BratteliDiagram(((1,), (1,), (1,), (1,)), ([[2]], [[1]], [[2]]))
    a, b = truncated_limit(d), truncated_limit(padded)
    assert a["composed_map"] == b["composed_map"]
    assert a["composed_cokernel"] == b["composed_cokernel"]
    assert a["stabilized"] == b["stabilized"]


def test_diagram_validation():
    with pytest.raises(ValueError):
        BratteliDiagram(((1,), (2,)), ())
    with pytest.raises(ValueError):
        BratteliDiagram(((1,), (2,)), ([[1], [1], [1]],))
    with pytest.raises(ValueError):
        BratteliDiagram(((1,), (1,)), ([[-1]],))
    with pytest.raises(ValueError):
        BratteliDiagram(((0,),), ())


def test_non_integer_entries_are_not_truncated():
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1.5]])
    # a bool is no integer entry either, as in core.exact and from_json
    for make in (
        lambda: IntMatrix.from_rows([[True, False]]),
        lambda: IntMatrix(((1, 0), (0, True))),
        lambda: BratteliDiagram(((True,),), ()),
        lambda: BratteliDiagram(((1,), (1,)), ([[True]],)),
        lambda: AbelianGroupPresentation(True),
        lambda: AbelianGroupPresentation(0, (2, False)),
    ):
        with pytest.raises(TypeError, match="bool"):
            make()
    with pytest.raises(TypeError):
        BratteliDiagram(((1.5,),), ())
    with pytest.raises(TypeError):
        BratteliDiagram((("2",), (1,)), ([[1]],))
    for data in ({"levels": [[1], [1]], "maps": [[[1.0]]]}, {"levels": [[True]], "maps": []}):
        with pytest.raises(ValueError):
            BratteliDiagram.from_json(data)


def test_diagram_json_roundtrip(tmp_path):
    diagram = toeplitz_bratteli(3)
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(diagram.to_json()))
    assert load_bratteli(path) == diagram


def test_truncated_limit_depth_bound():
    d = BratteliDiagram(((1,), (1,)), ([[1]],))
    with pytest.raises(ValueError):
        truncated_limit(d, 5)


def _fraction_rank(m):
    rows = [[Fraction(x) for x in row] for row in m.entries]
    rank = 0
    col = 0
    while rank < len(rows) and col < m.cols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_snf_rank_matches_rational_elimination(rows, cols, data):
    m = IntMatrix.from_rows(
        [[data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    )
    assert smith_normal_form(m).rank == _fraction_rank(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.data())
def test_snf_diagonal_product_matches_determinant(n, data):
    m = IntMatrix.from_rows(
        [[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(n)]
    )
    snf = smith_normal_form(m)
    prod = 1
    for x in snf.diagonal:
        prod *= x
    assert prod == abs(m.det())


def _fraction_det(m):
    """Determinant by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in m.entries]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return det


@st.composite
def square_matrices(draw):
    """Square matrices up to 6 x 6 with entries in [-20, 20], the 0 x 0 one
    included.  Half of them have about half their entries zero, so a zero
    pivot entry (a row swap) and a column with no pivot left are common."""
    n = draw(st.integers(0, 6))
    entries = st.integers(-20, 20)
    if draw(st.booleans()):
        entries = st.one_of(st.just(0), entries)
    return IntMatrix.from_rows([[draw(entries) for _ in range(n)] for _ in range(n)])


@settings(max_examples=300, deadline=None)
@given(square_matrices())
@example(IntMatrix.from_rows([[0, 1, 2], [0, 3, 4], [5, 6, 7]]))
@example(IntMatrix.from_rows([[0, 0, 1], [0, 2, 0], [3, 0, 0]]))
@example(IntMatrix.from_rows([[1, 2, 3], [0, 0, 4], [0, 5, 6]]))
def test_det_matches_rational_elimination(m):
    assert m.det() == _fraction_det(m)


@settings(max_examples=300, deadline=None)
@given(low_rank_matrices(7, 4))
@degenerate_shapes
# row 2 has a zero pivot-column entry at a changed pivot, so it must be rescaled
@example(IntMatrix.from_rows([[-4, 3, -5, -21], [3, -18, -12, -21], [0, -6, 0, -3], [-10, 3, 19, 3]]))
def test_fraction_free_rank_of_low_rank_products(m):
    # the fraction-free rank against the rational one and the Smith diagonal
    assert kernel_rank(m) == m.cols - _fraction_rank(m) == smith_normal_form(m).kernel_rank


def test_kernel_rank_of_toeplitz_maps_matches_smith_diagonal():
    for m in toeplitz_bratteli(12).maps:
        assert kernel_rank(m) == smith_normal_form(m).kernel_rank


def test_pv_doubling_endomorphism():
    k0, k1 = pv_k_groups(IntMatrix.from_rows([[2]]))
    assert k0 == AbelianGroupPresentation(0) and k1 == 0


def _determinantal_divisors(m):
    """D_0 = 1, then D_k = gcd of all k x k minors for k = 1 .. min(rows, cols)."""
    divisors = [1]
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for r in combinations(range(m.rows), k):
            for c in combinations(range(m.cols), k):
                g = gcd(g, IntMatrix.from_rows([[m.entries[i][j] for j in c] for i in r]).det())
        divisors.append(g)
    return divisors


@settings(max_examples=150, deadline=None)
@given(st.one_of(low_rank_matrices(), int_matrices(4, 4, 9)))
def test_cokernel_matches_determinantal_divisors(m):
    # a second route to the invariant factors, sharing no elimination with
    # the Smith normal form: d_1 ... d_k = D_k
    divisors = _determinantal_divisors(m)
    rank = max(k for k, dk in enumerate(divisors) if dk)
    assert all(dk == 0 for dk in divisors[rank + 1 :])
    factors = tuple(divisors[k] // divisors[k - 1] for k in range(1, rank + 1))
    torsion = tuple(x for x in factors if x != 1)
    assert cokernel(m) == AbelianGroupPresentation(m.rows - rank, torsion)
    assert kernel_rank(m) == m.cols - rank


@settings(max_examples=120, deadline=None)
@given(int_matrices(8, 8, 9))
@degenerate_shapes
def test_transform_free_routes_match_smith_normal_form(m):
    snf = smith_normal_form(m)
    assert cokernel(m) == snf.cokernel
    assert kernel_rank(m) == snf.kernel_rank
    alpha = m if m.rows >= m.cols else IntMatrix(tuple(zip(*m.entries)))
    inclusion = IntMatrix.from_rows(
        [[1 if i == j else 0 for j in range(alpha.cols)] for i in range(alpha.rows)]
    )
    snf = smith_normal_form(inclusion - alpha)
    assert pv_k_groups(alpha) == (snf.cokernel, snf.kernel_rank)


# Digests over seeded matrices of the benchmark's shapes.  D is unique, so
# its digest holds for every correct elimination; the pivot rule fixes U and
# V exactly, so theirs keeps a change to the elimination from moving them
# unnoticed.
SNF_PIN_SHAPES = [(n, n) for n in (8, 12, 16, 20, 24, 28, 28, 32, 32)]
SNF_PIN_SHAPES += [(8, 12), (12, 8), (16, 24), (24, 16)]
SNF_D_SHA256 = "e353a7a98204dbb6aedfc55f4c9740111c049a398f1e0299c69beb6e3d5e7e83"
SNF_UV_SHA256 = "a62843e4c4be15acc9733d8a2a9f1764cd5b32f34d6cabd80a2547cc7bcecf34"
# U and V need 40 and 347 digits on these matrices; an elimination that
# lets the transforms grow past this bound fails even with a correct D.
SNF_MAX_TRANSFORM_DIGITS = 400


def test_snf_transforms_pinned():
    rng = random.Random(2008)
    d_digest, uv_digest = hashlib.sha256(), hashlib.sha256()
    digits = 0
    for rows, cols in SNF_PIN_SHAPES:
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        snf = smith_normal_form(m)
        u, d, v = snf
        # the bare-rows elimination meets the augmented one on these shapes too
        assert cokernel(m) == snf.cokernel and kernel_rank(m) == snf.kernel_rank
        d_digest.update(json.dumps(d.to_lists()).encode())
        uv_digest.update(json.dumps([u.to_lists(), v.to_lists()]).encode())
        digits = max(digits, *(len(str(abs(x))) for t in (u, v) for row in t.entries for x in row))
    assert d_digest.hexdigest() == SNF_D_SHA256
    assert uv_digest.hexdigest() == SNF_UV_SHA256
    assert digits <= SNF_MAX_TRANSFORM_DIGITS
