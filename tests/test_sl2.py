"""Prüfer-group arithmetic, unit-square orbits, and the pulled-back product."""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hecketree import sl2
from hecketree.sl2 import (
    DoubleCoset,
    PruferElement,
    PruferGroupAlgebra,
    SL2EndAlgebra,
    make_prufer,
    double_coset,
    nu,
    orbit,
    orbit_convolution,
    parse_prufer,
    prufer_add,
    prufer_zero,
    same_double_coset,
    unit_squares_mod,
)


def test_prufer_canonical_form():
    assert make_prufer(3, 3, 2) == make_prufer(3, 1, 1)
    assert make_prufer(3, 9, 2) == prufer_zero(3)
    assert make_prufer(5, 26, 2) == make_prufer(5, 1, 2)
    with pytest.raises(ValueError, match="4 is not prime"):
        PruferElement(4, 1, 1)
    with pytest.raises(ValueError):
        PruferElement(3, 2, 3)  # 3/9 is not reduced


@pytest.mark.parametrize("p", [7.0, Fraction(7)], ids=repr)
@pytest.mark.parametrize(
    "make",
    [lambda p: PruferElement(p, 1, 3), PruferGroupAlgebra, SL2EndAlgebra],
    ids=["PruferElement", "PruferGroupAlgebra", "SL2EndAlgebra"],
)
def test_prime_must_be_an_int(make, p):
    # the int prime first, so a primality answer kept for 7 cannot let 7.0 through
    assert make(7).p == 7
    assert PruferElement(7, 1, 3).label() == "3/7"
    with pytest.raises(TypeError):
        make(p)


def test_prufer_add_examples():
    third = make_prufer(3, 1, 1)
    assert prufer_add(third, make_prufer(3, 2, 1)) == prufer_zero(3)
    assert prufer_add(third, make_prufer(3, 1, 2)) == make_prufer(3, 4, 2)
    assert prufer_add(third, prufer_zero(3)) == third
    with pytest.raises(ValueError):
        prufer_add(third, make_prufer(5, 1, 1))


@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_prufer_group_laws(a, b, c):
    x, y, z = (make_prufer(3, n, 4) for n in (a, b, c))
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + (-x) == prufer_zero(3)


def test_unit_squares_examples():
    assert unit_squares_mod(5, 1) == (1, 4)
    assert unit_squares_mod(3, 1) == (1,)
    assert unit_squares_mod(2, 1) == (1,)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_unit_square_counts_odd(p, n):
    phi = p**n - p ** (n - 1)
    assert len(unit_squares_mod(p, n)) == phi // 2


def test_unit_square_counts_two():
    # square classes are finer at the even prime: index 4 from exponent 3 on
    assert len(unit_squares_mod(2, 1)) == 1
    assert len(unit_squares_mod(2, 2)) == 1
    assert len(unit_squares_mod(2, 3)) == 1
    assert len(unit_squares_mod(2, 4)) == 2


def test_nu_examples():
    z5 = prufer_zero(5)
    assert nu(z5) == PruferGroupAlgebra(5).one()
    image = nu(make_prufer(5, 1, 1))
    assert image == PruferGroupAlgebra(5).element(
        {make_prufer(5, 1, 1): 1, make_prufer(5, 4, 1): 1}
    )
    assert nu(make_prufer(3, 1, 1)) == PruferGroupAlgebra(3).basis_element(
        make_prufer(3, 1, 1)
    )



def test_nu_images_share_one_algebra_per_prime():
    # so a product of two images reads one product cache
    a, b = make_prufer(7, 3, 2), make_prufer(7, 5, 2)
    assert nu(a).algebra is nu(b).algebra
    assert nu(a).algebra is not nu(make_prufer(5, 1, 1)).algebra

def test_same_double_coset():
    assert same_double_coset(make_prufer(5, 1, 1), make_prufer(5, 4, 1))
    assert not same_double_coset(make_prufer(5, 1, 1), make_prufer(5, 2, 1))
    assert same_double_coset(prufer_zero(5), prufer_zero(5))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_orbits_partition_each_depth(p):
    for n in range(1, 4):
        layer = [
            PruferElement(p, n, a) for a in range(1, p**n) if a % p
        ]
        seen = {}
        for u in layer:
            members = orbit(u)
            assert u in members
            key = members[0]
            if key in seen:
                assert seen[key] == members
            else:
                seen[key] = members
        total = sum(len(m) for m in set(seen.values()))
        assert total == len(layer)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_same_coset_matches_brute_force(p):
    algebra = SL2EndAlgebra(p)
    for n in range(3 + 1):
        layer = [prufer_zero(p)] if n == 0 else [
            PruferElement(p, n, a) for a in range(1, p**n) if a % p
        ]
        for u in layer[:12]:
            for v in layer[:12]:
                brute = any(w == v for w in orbit(u))
                assert same_double_coset(u, v) == brute


def test_nu_star_compatibility():
    # the orbit-sum map commutes with the involution on both sides
    for p in (3, 5, 7):
        for n in (1, 2):
            u = make_prufer(p, 1, n)
            assert nu(-u) == nu(u).star()


def test_unit_product():
    A = SL2EndAlgebra(5)
    u = make_prufer(5, 2, 1)
    assert A.one() * A.coset_element(u) == A.coset_element(u)


def test_p5_square_example():
    A = SL2EndAlgebra(5)
    x = A.coset_element(make_prufer(5, 1, 1))
    expected = 2 * A.one() + A.coset_element(make_prufer(5, 2, 1))
    assert x * x == expected


def test_p3_identity_coefficient():
    A = SL2EndAlgebra(3)
    prod = A.coset_element(make_prufer(3, 1, 1)) * A.coset_element(make_prufer(3, 2, 1))
    assert prod.coefficient(A.unit) == 1


def test_p5_cross_product_spreads():
    # support on two distinct non-identity cosets: a pattern the rank-one
    # class table cannot produce, witnessing non-isomorphy with the full
    # automorphism case
    A = SL2EndAlgebra(5)
    prod = A.coset_element(make_prufer(5, 1, 1)) * A.coset_element(make_prufer(5, 2, 1))
    support = prod.support()
    assert len(support) == 2
    assert A.unit not in support


@pytest.mark.parametrize("p", [3, 5, 7])
def test_products_pull_back_and_commute(p):
    A = SL2EndAlgebra(p)
    cosets = A.cosets_up_to_depth(3)
    for a, b in itertools.product(cosets, repeat=2):
        x = A.basis_element(a) * A.basis_element(b)
        y = A.basis_element(b) * A.basis_element(a)
        assert x == y
        for c, coeff in x.terms():
            assert coeff.denominator == 1 and coeff > 0
            assert c.representative.depth <= max(
                a.representative.depth, b.representative.depth
            )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_associativity_depth_three(p):
    A = SL2EndAlgebra(p)
    cosets = A.cosets_up_to_depth(3)
    for a, b, c in itertools.product(cosets, repeat=3):
        ea, eb, ec = (A.basis_element(i) for i in (a, b, c))
        assert (ea * eb) * ec == ea * (eb * ec)


def test_r_hom_multiplicative():
    A = SL2EndAlgebra(5)
    cosets = A.cosets_up_to_depth(2)
    for a, b in itertools.product(cosets, repeat=2):
        ea, eb = A.basis_element(a), A.basis_element(b)
        assert (ea * eb).r_hom() == ea.r_hom() * eb.r_hom()


def test_depth_bound_enforced():
    A = SL2EndAlgebra(5)
    assert A.coset(make_prufer(5, 1, sl2.DEPTH_BOUND)).representative.depth == 6
    with pytest.raises(ValueError, match="depth 7 exceeds the bound 6"):
        A.coset(make_prufer(5, 1, 7))


def test_parse_labels():
    assert parse_prufer(5, "0") == prufer_zero(5)
    assert parse_prufer(5, "4/25") == make_prufer(5, 4, 2)
    with pytest.raises(ValueError):
        parse_prufer(5, "1/6")
    for text in ("1/0", "1/-5"):
        with pytest.raises(ValueError, match="is not a power of 5"):
            parse_prufer(5, text)
    # the group algebra of the Prüfer group reads and prints the same labels
    group = PruferGroupAlgebra(5)
    assert group.parse_label("2/5") == make_prufer(5, 2, 1)
    assert group.parse_label("0") == group.unit
    for text in ("2/5", "0"):
        assert group.basis_label(group.parse_label(text)) == text


def test_coset_ordering_deterministic():
    A = SL2EndAlgebra(5)
    labels = [c.label() for c in A.cosets_up_to_depth(1)]
    assert labels == ["0", "1/5", "2/5"]


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_star_trivial_iff_minus_one_is_square(p):
    # negation permutes each orbit exactly when -1 is a unit square, so the
    # involution fixes every double coset iff p = 1 mod 4
    A = SL2EndAlgebra(p)
    minus_one_square = (p - 1) in unit_squares_mod(p, 1)
    assert minus_one_square == (p % 4 == 1)
    for c in A.cosets_up_to_depth(2):
        fixed = A.involute_basis(c) == c
        if c.representative.is_zero():
            assert fixed
        else:
            assert fixed == minus_one_square


@pytest.mark.parametrize("p,depth", [(2, 3), (3, 3), (5, 3), (7, 2), (11, 2), (2, 5)])
def test_orbit_convolution_matches_nu_products(p, depth):
    # the full convolution and the generic product of nu images are the
    # references for the count at one representative
    algebra = SL2EndAlgebra(p)
    cosets = algebra.cosets_up_to_depth(depth)
    for a, b in itertools.product(cosets, repeat=2):
        product = algebra.multiply_basis(a, b).terms()
        points = {g: coeff for c, coeff in product for g in c.members}
        assert points == orbit_convolution(a, b), (a, b)
        expected = nu(a.representative) * nu(b.representative)
        pulled = PruferGroupAlgebra(p).zero()
        for c, coeff in product:
            pulled = pulled + coeff * nu(c.representative)
        assert pulled == expected, (a, b)


def test_double_coset_compares_by_representative():
    u = make_prufer(5, 1, 1)
    full = double_coset(u)
    bare = DoubleCoset(u, ())
    assert full == bare and hash(full) == hash(bare)
    assert {full: 1}[bare] == 1
    other = double_coset(make_prufer(5, 2, 1))
    assert full < other and bare < other
    assert sorted([other, bare]) == [bare, other]


def test_representative_count_checks_depth():
    A = SL2EndAlgebra(5)
    u = make_prufer(5, 1, 1)
    # an orbit of depth 1 has no member of depth 2: 2/5 + 1/25 = 11/25 is deeper
    bogus = DoubleCoset(u, (u, make_prufer(5, 1, 2)))
    with pytest.raises(AssertionError, match="sum 11/25 exceeds the operand depth 1"):
        A._basis_product(bogus, A.coset(make_prufer(5, 2, 1)))


def test_representative_count_checks_depth_after_indexing():
    # the check tests the sum's depth, not whether the sum's coset is listed:
    # after a product of depth 2 every point of depth 2 has its coset
    A = SL2EndAlgebra(5)
    A.multiply_basis(A.unit, A.coset(make_prufer(5, 1, 2)))
    u = make_prufer(5, 1, 1)
    bogus = DoubleCoset(u, (u, make_prufer(5, 1, 2)))
    with pytest.raises(AssertionError, match="sum 11/25 exceeds the operand depth 1"):
        A._basis_product(bogus, A.coset(make_prufer(5, 2, 1)))


def test_listed_cosets_are_the_algebra_objects():
    # coset, involute_basis and products return the listed objects, whose
    # member codes the algebra keeps; an equal coset built outside it is
    # coded from its own members
    A = SL2EndAlgebra(7)
    listed = A.cosets_up_to_depth(2)
    assert A.cosets_up_to_depth(2) == listed
    assert all(A.coset(c.representative) is c for c in listed)
    assert all(A.involute_basis(c) in listed for c in listed)
    for a, b in itertools.product(listed, repeat=2):
        for c in A._basis_product(a, b):
            assert any(c is d for d in listed)
        outside = double_coset(a.representative)
        assert outside is not a
        assert A._basis_product(outside, b) == A._basis_product(a, b)


def test_prufer_codes_add_mod_p_to_the_depth():
    # num / p^depth is num * p^(D - depth) in [0, p^D); addition is mod p^D
    D = 3
    for p in (2, 3, 5):
        points = [prufer_zero(p)] + [
            make_prufer(p, a, n) for n in range(1, D + 1) for a in range(1, p**n) if a % p
        ]
        codes = {sl2._code(g, D): g for g in points}
        assert sorted(codes) == list(range(p**D))
        for x, y in itertools.product(points[:20], repeat=2):
            total = (sl2._code(x, D) + sl2._code(y, D)) % p**D
            assert codes[total] == prufer_add(x, y)
    with pytest.raises(ValueError, match="deeper than the coding depth 1"):
        sl2._code(make_prufer(5, 1, 2), 1)


def test_orbit_convolution_checks_the_prime():
    with pytest.raises(ValueError, match="prime mismatch"):
        orbit_convolution(double_coset(make_prufer(5, 1, 1)), double_coset(make_prufer(3, 1, 1)))


@pytest.mark.parametrize(
    "left, right",
    [
        (
            SL2EndAlgebra(3).coset(make_prufer(3, 1, 1)),
            SL2EndAlgebra(5).coset(make_prufer(5, 1, 1)),
        ),
        (SL2EndAlgebra(3).unit, SL2EndAlgebra(5).unit),
        (SL2EndAlgebra(5).unit, SL2EndAlgebra(3).unit),
    ],
)
def test_basis_product_checks_the_prime(left, right):
    # a coset of another prime is refused as coset() refuses its point, and
    # nothing is cached
    algebra = SL2EndAlgebra(5)
    with pytest.raises(ValueError, match="prime mismatch: 3 != 5"):
        algebra.multiply_basis(left, right)
    assert algebra._product_cache == {}


@pytest.mark.parametrize(
    "n", [561, 3_215_031_751, 3_825_123_056_546_413_051, 1_000_000_000_000_000_001]
)
def test_is_prime_rejects_pseudoprimes(n):
    # a Carmichael number, strong pseudoprimes to the bases 2, 3, 5, 7 and to
    # the primes 2 to 31, and 10^18 + 1, a multiple of 101
    assert not sl2._is_prime(n)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if sl2._is_prime(n)] == [n for n in range(3000) if trial(n)]
    assert sl2._is_prime(1_000_000_000_000_000_003)
    assert sl2._is_prime(2**61 - 1)


def test_is_prime_refuses_beyond_its_bound():
    with pytest.raises(ValueError, match="exact only below 3,317,044,064,679,887,385,961,981"):
        sl2._is_prime(sl2.PRIME_BOUND)
    assert sl2.PRIME_BOUND == 3_317_044_064_679_887_385_961_981


def test_representative_count_checks_exact_division():
    A = SL2EndAlgebra(5)
    u = make_prufer(5, 1, 1)
    # three members cannot be a unit-square orbit at p = 5 (orbits of depth 1 have two)
    bogus = DoubleCoset(u, (u, make_prufer(5, 2, 1), make_prufer(5, 4, 1)))
    with pytest.raises(AssertionError, match="do not spread evenly"):
        A._basis_product(A.unit, bogus)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PruferElement(1, 0, 0), "1 is not prime"),
        (lambda: SL2EndAlgebra(1), "1 is not prime"),
        (lambda: PruferGroupAlgebra(0), "0 is not prime"),
        (lambda: PruferGroupAlgebra(-3), "-3 is not prime"),
    ],
    ids=["element", "end-algebra", "group-algebra", "negative"],
)
def test_prime_below_two_is_not_prime(make, message):
    # a prime is no branching number: below 2 it is refused as not prime
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("p,depth", [(3, 3), (5, 3), (7, 3), (2, 5)])
def test_listed_members_are_the_checked_points(p, depth):
    # the algebra builds its orbit points unchecked, from residues that are
    # canonical by construction: each must be the point the checked
    # constructor makes, with the same fields and hash
    A = SL2EndAlgebra(p)
    for c in A.cosets_up_to_depth(depth):
        assert c.representative is c.members[0]
        for g in c.members:
            checked = PruferElement(p, c.representative.depth, g.num)
            assert type(g) is PruferElement and g == checked and hash(g) == hash(checked)


def test_double_coset_keeps_its_hash_through_pickle_and_copy():
    A = SL2EndAlgebra(5)
    listed = A.cosets_up_to_depth(2)
    for c in listed:
        assert hash(c) == hash(c.representative)
        pickles = [pickle.dumps(c, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in [*map(pickle.loads, pickles), copy.copy(c), copy.deepcopy(c)]:
            assert type(twin) is DoubleCoset
            assert twin == c and hash(twin) == hash(c) == hash(twin.representative)
            assert twin.members == c.members
            assert {c: 1}[twin] == 1
            assert [d < twin for d in listed] == [d < c for d in listed]
            assert [d > twin for d in listed] == [d > c for d in listed]
