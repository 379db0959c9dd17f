"""Anchor the coset-counting convention on explicit finite permutation groups.

The tree oracle computes every structure constant as

    coeff of class u in class_a * class_b
        = #{points p : position(base -> p) = a and position(p -> w) = b}

for one witness w at position u from the base point.  This module checks
that formula against the raw definition of the double-coset product -- pairs
of right-coset representatives landing in a given coset -- on small
symmetric groups where everything can be enumerated, including a pair with
a noncommutative algebra (which pins down the order of the two factors).
"""

import itertools

from hecketree.core import HeckeAlgebra


def _perm_mul(a, b):
    # (a b)(x) = a(b(x))
    return tuple(a[b[i]] for i in range(len(a)))


def _perm_inv(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def _symmetric_group(n):
    return [tuple(p) for p in itertools.permutations(range(n))]


class FinitePairData:
    """Double cosets, one-sided cosets, and both product computations."""

    def __init__(self, group, subgroup):
        self.group = group
        self.subgroup = set(subgroup)
        self.double_of = {}
        self.double_reps = []
        for g in group:
            if g in self.double_of:
                continue
            members = {h1g for h in self.subgroup for h1g in [_perm_mul(h, g)]}
            members = {_perm_mul(m, h) for m in members for h in self.subgroup}
            rep = min(members)
            self.double_reps.append(rep)
            for m in members:
                self.double_of[m] = rep
        self.double_reps.sort()

    def right_coset_reps(self, rep):
        seen = set()
        out = []
        for g in self.group:
            if self.double_of[g] != rep:
                continue
            key = frozenset(_perm_mul(h, g) for h in self.subgroup)
            if key not in seen:
                seen.add(key)
                out.append(g)
        return out

    def alpha_raw(self, a, b, target):
        """Pair count straight from the product definition, via right cosets.

        Counts representative pairs whose product lies in the single right
        coset of the chosen target element; checked to be independent of
        which element of the target double coset is chosen.
        """
        reps_a = self.right_coset_reps(a)
        reps_b = self.right_coset_reps(b)
        counts = set()
        for x in self.right_coset_reps(target):
            coset = {_perm_mul(h, x) for h in self.subgroup}
            counts.add(
                sum(
                    1
                    for ga in reps_a
                    for gb in reps_b
                    if _perm_mul(ga, gb) in coset
                )
            )
        assert len(counts) == 1, "count depends on the target representative"
        return counts.pop()

    def left_cosets(self):
        seen = set()
        out = []
        for g in self.group:
            key = frozenset(_perm_mul(g, h) for h in self.subgroup)
            if key not in seen:
                seen.add(key)
                out.append(min(_perm_mul(g, h) for h in self.subgroup))
        return out

    def position(self, x, y):
        """Double coset of x^{-1} y: the relative position of the cosets xH, yH."""
        return self.double_of[_perm_mul(_perm_inv(x), y)]

    def alpha_points(self, a, b, target):
        """The oracle-style count: fixed witness, points at position a from base."""
        identity = tuple(range(len(self.group[0])))
        points = self.left_cosets()
        witnesses = [w for w in points if self.position(identity, w) == target]
        counts = {
            sum(
                1
                for p in points
                if self.position(identity, p) == a and self.position(p, w) == b
            )
            for w in witnesses
        }
        assert len(counts) == 1, "witness-dependent count"
        return counts.pop()


class FinitePairAlgebra(HeckeAlgebra):
    """Hecke algebra of an enumerated pair, with raw-definition constants."""

    def __init__(self, data: FinitePairData):
        # compared by these parameters, which name the pair
        super().__init__(tuple(data.group[:3]), len(data.subgroup))
        self.data = data
        self.unit = data.double_of[min(data.group)]

    def _basis_product(self, a, b):
        out = {}
        for target in self.data.double_reps:
            c = self.data.alpha_raw(a, b, target)
            if c:
                out[target] = c
        return out

    def involute_basis(self, a):
        return self.data.double_of[_perm_inv(a)]

    def r_value(self, a):
        return len(self.data.right_coset_reps(a))

    def basis_label(self, a):
        return str(a)


def _pair(n, subgroup_gens):
    group = _symmetric_group(n)
    subgroup = {tuple(range(n))}
    frontier = list(subgroup_gens)
    while frontier:
        g = frontier.pop()
        if g not in subgroup:
            subgroup.add(g)
            frontier.extend(_perm_mul(g, h) for h in list(subgroup))
    return FinitePairData(group, subgroup)


def test_point_stabilizer_pair_matches_raw_counts():
    # stabilizer of the last point in the symmetric group on 4 letters:
    # a two-class pair, the toy model of sphere counting
    data = _pair(4, [(1, 0, 2, 3), (0, 2, 1, 3)])
    assert len(data.double_reps) == 2
    for a in data.double_reps:
        for b in data.double_reps:
            for t in data.double_reps:
                assert data.alpha_raw(a, b, t) == data.alpha_points(a, b, t)


def test_noncommutative_pair_matches_raw_counts_in_order():
    # subgroup generated by one transposition: the algebra is noncommutative,
    # so this check pins the operand order of the point formula
    data = _pair(4, [(1, 0, 2, 3)])
    algebra = FinitePairAlgebra(data)
    noncomm = any(
        algebra.multiply_basis(a, b) != algebra.multiply_basis(b, a)
        for a in data.double_reps
        for b in data.double_reps
    )
    assert noncomm
    for a in data.double_reps:
        for b in data.double_reps:
            for t in data.double_reps:
                assert data.alpha_raw(a, b, t) == data.alpha_points(a, b, t)


def test_enumerated_pair_is_a_hecke_algebra():
    data = _pair(4, [(1, 0, 2, 3)])
    algebra = FinitePairAlgebra(data)
    basis = [algebra.basis_element(r) for r in data.double_reps]
    for x, y, z in itertools.product(basis, repeat=3):
        assert (x * y) * z == x * (y * z)
    for x, y in itertools.product(basis, repeat=2):
        assert (x * y).star() == y.star() * x.star()
        assert (x * y).r_hom() == x.r_hom() * y.r_hom()
