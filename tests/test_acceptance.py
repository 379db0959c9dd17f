"""Acceptance sweeps: one test per criterion, each printing a pass/fail line.

Every comparison is exact (integer or rational equality); the two runtime
budgets from the criteria are asserted alongside the math.
"""

import itertools
import random
import time
from fractions import Fraction

from hecketree.cli import main
from hecketree.endstab import HorocycleAlgebra, ToeplitzAlgebra, to_sequence
from hecketree.iwahori import IwahoriAlgebra
from hecketree.ktheory import (
    AbelianGroupPresentation,
    IntMatrix,
    pv_k_groups,
    smith_normal_form,
)
from hecketree.endstab import toeplitz_shift_alpha
from hecketree.sl2 import PruferElement, SL2EndAlgebra, make_prufer, orbit, same_double_coset
from hecketree.spherical import SphericalAlgebra, SphericalParams
from hecketree.verify import verify_affine, verify_iwahori, verify_spherical

SEED = 20260809


def _report(number: int, description: str, ok: bool):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_spherical_oracle_sweep():
    t0 = time.perf_counter()
    ok = all(
        verify_spherical(SphericalParams.homogeneous(q), 5).ok for q in (2, 3, 4)
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(
        1,
        f"homogeneous closed = recursive = oracle, q in {{2,3,4}}, n <= m <= 5, "
        f"exact, in {elapsed:.2f}s (< 10s)",
        ok,
    )


def test_criterion_2_two_orbit_sweep():
    ok = True
    for q0, q1 in ((2, 2), (2, 3), (3, 2)):
        params = SphericalParams.two_orbit(q0, q1)
        ok = ok and verify_spherical(params, 3).ok
        algebra = SphericalAlgebra(params)
        for n in range(1, 4):
            for m in range(n, 4):
                prod = algebra.multiply_basis(n, m)
                ok = ok and prod.coefficient(n + m) == 1
                delta = 1 if n == m else 0
                expected_const = q1**n * q0 ** (n - 1) * (q0 + delta)
                ok = ok and prod.coefficient(m - n) == expected_const
    _report(
        2,
        "two-orbit closed = recursive = oracle for (q0,q1) in {(2,2),(2,3),(3,2)}, "
        "n,m <= 3, with unit leading term and the stated constant term",
        ok,
    )


def test_criterion_3_iwahori_sweep():
    ok = verify_iwahori(2, 2, 5).ok and verify_iwahori(2, 3, 5).ok
    for qs, qt in ((2, 2), (2, 3)):
        algebra = IwahoriAlgebra(qs, qt)
        d = algebra.delta
        for letter, q in (("s", qs), ("t", qt)):
            ok = ok and d(letter) * d(letter) == q * algebra.one() + (q - 1) * d(letter)
        ok = ok and d("i") * d("i") == algebra.one()
        ok = ok and d("i") * d("s") * d("i") == d("t")
    _report(
        3,
        "generator rules = closed form = edge oracle on word pairs <= 5 at (2,2) and "
        "(2,3) (decorated pairs oracle-checked at equal weights, where the inversion "
        "has a tree model; both algebraic routes everywhere), presentation relations exact",
        ok,
    )


def test_criterion_4_affine_sweep():
    ok = all(verify_affine(q, 4).ok for q in (2, 3, 4))
    for q in (2, 3, 4):
        nf = ToeplitzAlgebra(q)
        s, s_adj = nf.isometry(), nf.co_isometry()
        ok = ok and s_adj * s == q * nf.one()
        ok = ok and s * s_adj != q * nf.one()
        for n in range(7):
            for m in range(7):
                ok = ok and nf.p_projection(n) * nf.p_projection(m) == nf.p_projection(
                    max(n, m)
                )
        algebra = HorocycleAlgebra(q)
        for m in range(5):
            for n in range(5):
                x, y = algebra.basis_element(m), algebra.basis_element(n)
                ok = ok and to_sequence(x * y) == to_sequence(x) * to_sequence(y)
    _report(
        4,
        "class table = normal form = horocycle oracle for q in {2,3,4}, m,n <= 4; "
        "isometry relation and its non-unitarity; projection lattice to 6; sequence "
        "isomorphism multiplicative on all tested products",
        ok,
    )


def _random_element(rng, algebra, indices):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.choice(indices)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return algebra.element(terms)


def test_criterion_5_algebra_axioms():
    ok = True
    sph = SphericalAlgebra(SphericalParams.homogeneous(2))
    two = SphericalAlgebra(SphericalParams.two_orbit(2, 3))
    iwa = IwahoriAlgebra(2, 2)
    aff = HorocycleAlgebra(3)
    sl2 = SL2EndAlgebra(5)

    for a, b, c in itertools.product(range(7), repeat=3):
        for algebra in (sph, two):
            ea, eb, ec = (algebra.basis_element(i) for i in (a, b, c))
            ok = ok and (ea * eb) * ec == ea * (eb * ec)
    words = iwa.words_up_to(3)
    for a, b, c in itertools.product(words, repeat=3):
        ea, eb, ec = (iwa.basis_element(i) for i in (a, b, c))
        ok = ok and (ea * eb) * ec == ea * (eb * ec)
    for a, b, c in itertools.product(range(4), repeat=3):
        ea, eb, ec = (aff.basis_element(i) for i in (a, b, c))
        ok = ok and (ea * eb) * ec == ea * (eb * ec)

    families = [
        (sph, list(range(7))),
        (iwa, words),
        (aff, list(range(4))),
        (sl2, sl2.cosets_up_to_depth(2)),
    ]
    rng = random.Random(SEED)
    for algebra, indices in families:
        for _ in range(1000):
            x = _random_element(rng, algebra, indices)
            y = _random_element(rng, algebra, indices)
            ok = ok and (x * y).star() == y.star() * x.star()
            ok = ok and (x * y).r_hom() == x.r_hom() * y.r_hom()
    _report(
        5,
        "associativity on basis triples (distance classes <= 6, words <= 3, horocycle "
        "classes <= 3), star anti-multiplicativity and coset-count multiplicativity "
        "on 1000 random pairs per family, exact",
        ok,
    )


def test_criterion_6_sl2_nu():
    ok = True
    for p in (3, 5, 7):
        algebra = SL2EndAlgebra(p)
        for n in range(1, 4):
            layer = [PruferElement(p, n, a) for a in range(1, p**n) if a % p]
            seen = set()
            covered = 0
            for u in layer:
                members = orbit(u)
                key = members[0]
                if key not in seen:
                    seen.add(key)
                    covered += len(members)
                for v in layer[: min(len(layer), 8)]:
                    ok = ok and same_double_coset(u, v) == (v in orbit(u))
            ok = ok and covered == len(layer)  # orbits are pairwise disjoint
        cosets = algebra.cosets_up_to_depth(3)
        for a, b in itertools.product(cosets, repeat=2):
            # the product asserts its depth bound and exact division internally
            prod = algebra.multiply_basis(a, b)
            for _, coeff in prod.terms():
                ok = ok and coeff.denominator == 1 and coeff > 0
    a5 = SL2EndAlgebra(5)
    x = a5.coset_element(make_prufer(5, 1, 1))
    ok = ok and x * x == 2 * a5.one() + a5.coset_element(make_prufer(5, 2, 1))
    _report(
        6,
        "p in {3,5,7}, depth <= 3: orbit disjointness, double-coset test vs brute "
        "force, every product pulls back onto full orbits, and the p=5 square example",
        ok,
    )


def test_criterion_7_ktheory():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(SEED)
    for _ in range(500):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        u, d, v = smith_normal_form(m)
        ok = ok and u @ m @ v == d
        ok = ok and abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [d.entries[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    ok = ok and d.entries[i][j] == 0
        for i in range(1, len(diag)):
            if diag[i - 1] == 0:
                ok = ok and diag[i] == 0
            else:
                ok = ok and diag[i] % diag[i - 1] == 0
    for n in range(3, 11):
        k0, k1 = pv_k_groups(toeplitz_shift_alpha(n))
        ok = ok and k0 == AbelianGroupPresentation(1) and k1 == 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(
        7,
        f"SNF postconditions on 500 random matrices up to 8x8, and id-minus-shift "
        f"K-groups (Z, 0) for stages 3..10, in {elapsed:.2f}s (< 5s)",
        ok,
    )


ACCEPTANCE_COMMANDS = [
    ("table", "spherical", "--q", "2", "--max", "2"),
    ("table", "iwahori", "--qs", "2", "--qt", "2", "--len", "1"),
    ("table", "affine", "--q", "3", "--max", "1"),
    ("verify", "spherical", "--q", "2", "--max", "5"),
    ("verify", "spherical", "--q", "3", "--max", "5"),
    ("verify", "spherical", "--q", "4", "--max", "5"),
    ("verify", "spherical", "--q0", "2", "--q1", "2", "--max", "3"),
    ("verify", "spherical", "--q0", "2", "--q1", "3", "--max", "3"),
    ("verify", "spherical", "--q0", "3", "--q1", "2", "--max", "3"),
    ("verify", "iwahori", "--qs", "2", "--qt", "2", "--len", "5"),
    ("verify", "iwahori", "--qs", "2", "--qt", "3", "--len", "5"),
    ("verify", "affine", "--q", "2", "--max", "4"),
    ("verify", "affine", "--q", "3", "--max", "4"),
    ("verify", "affine", "--q", "4", "--max", "4"),
    ("ktheory", "--example", "toeplitz", "--size", "6"),
    ("nu", "--p", "3", "--depth", "2"),
    ("nu", "--p", "5", "--depth", "2"),
    ("nu", "--p", "7", "--depth", "2"),
]


def test_criterion_8_cli_determinism(capsys):
    ok = True
    for argv in ACCEPTANCE_COMMANDS:
        code_first = main(list(argv))
        out_first = capsys.readouterr().out
        code_second = main(list(argv))
        out_second = capsys.readouterr().out
        ok = ok and out_first == out_second and code_first == code_second == 0
    _report(
        8,
        f"{len(ACCEPTANCE_COMMANDS)} acceptance commands byte-identical across "
        "consecutive runs; every verify sweep exits 0",
        ok,
    )
