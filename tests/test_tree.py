"""Geometry of tree balls and the counting oracle itself."""

import copy
import random
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from hecketree import tree, verify
from hecketree.iwahori import IwahoriAlgebra
from hecketree.spherical import SphericalParams


def test_ball_shapes():
    b = tree.build_ball(2, 2, 1)
    assert b.num_vertices == 4
    assert [len(b.sphere(d)) for d in range(2)] == [1, 3]
    b = tree.build_ball(2, 2, 3)
    assert len(b.sphere(3)) == 12
    b = tree.build_ball(2, 3, 2)
    assert len(b.sphere(2)) == 9


def test_ball_semi_homogeneous_sphere_growth():
    b = tree.build_ball(3, 2, 5)
    # even vertices (including the root) branch with q0, odd with q1
    assert [len(b.sphere(d)) for d in range(6)] == [1, 4, 8, 24, 48, 144]


def test_ball_validation():
    with pytest.raises(ValueError):
        tree.build_ball(1, 2, 3)
    with pytest.raises(ValueError):
        tree.build_ball(2, 2, -1)
    # the budget limits the vertex ranges a count visits, not the ball
    b = tree.build_ball(2, 2, 10, max_vertices=100)
    with pytest.raises(tree.BallBudgetExceeded):
        b.sphere(10)


def test_distance_basics(ball22):
    assert tree.distance(ball22, 0, 0) == 0
    assert tree.distance(ball22, 0, 1) == 1
    assert tree.distance(ball22, 0, ball22.ray_vertex(7)) == 7


@settings(max_examples=60)
@given(st.integers(0, 3069), st.integers(0, 3069))
def test_distance_symmetric(u, v):
    b = tree.build_ball(2, 2, 10)
    assert tree.distance(b, u, v) == tree.distance(b, v, u)


def test_vertex_path_endpoints(ball22):
    path = tree.vertex_path(ball22, 5, 11)
    assert path[0] == 5 and path[-1] == 11
    assert len(path) == tree.distance(ball22, 5, 11) + 1
    for a, b in zip(path, path[1:]):
        assert tree.distance(ball22, a, b) == 1


def test_spherical_constant_examples(ball22):
    assert tree.spherical_constant(ball22, 1, 1, 0) == 3
    assert tree.spherical_constant(ball22, 1, 1, 1) == 0
    assert tree.spherical_constant(ball22, 2, 3, 5) == 1


def test_spherical_support_bound(ball22):
    for n in range(4):
        for m in range(4):
            for k in range(9):
                c = tree.spherical_constant(ball22, n, m, k)
                if k > n + m or k < abs(n - m) or (n + m - k) % 2:
                    assert c == 0


def test_spherical_mass_identity():
    # applying the coset-count homomorphism to an oracle product vector
    for q in (2, 3):
        b = tree.build_ball(q, q, 8)
        for n in range(1, 4):
            for m in range(1, 4):
                vec = tree.spherical_product(b, n, m)
                total = sum(c * len(b.sphere(k)) for k, c in vec.items())
                assert total == len(b.sphere(n)) * len(b.sphere(m))


def test_spherical_product_matches_singles(ball22, ball23):
    for b in (ball22, ball23):
        for n in range(4):
            for m in range(4):
                vec = tree.spherical_product(b, n, m)
                for k in range(n + m + 1):
                    assert vec.get(k, 0) == tree.spherical_constant(b, n, m, k)


def test_spherical_witness_independence():
    b = tree.build_ball(2, 3, 6)
    for n, m, k in [(1, 1, 2), (2, 2, 2), (1, 2, 3), (3, 2, 1), (2, 2, 0)]:
        counts = {
            sum(1 for v in b.sphere(n) if tree.distance(b, v, w) == m)
            for w in b.sphere(k)
        }
        assert len(counts) == 1
        assert counts.pop() == tree.spherical_constant(b, n, m, k)


def test_spherical_requires_radius():
    b = tree.build_ball(2, 2, 3)
    with pytest.raises(tree.BallTooSmall):
        tree.spherical_product(b, 2, 2)
    with pytest.raises(tree.BallTooSmall):
        tree.spherical_constant(b, 2, 2, 4)


def test_weyl_distance_basics(ball22):
    e0 = ball22.ray_vertex(1)  # the base edge, named by its child endpoint
    assert tree.weyl_distance(ball22, e0, e0) == ""
    groups = tree.edges_by_weyl_word(ball22, 3)
    # crossing the even-type root gives the letter s, the odd endpoint t
    assert len(groups["s"]) == 2 and len(groups["t"]) == 2
    assert len(groups["st"]) == 4 and len(groups["ts"]) == 4
    for word, edges in groups.items():
        for f in edges:
            assert tree.weyl_distance(ball22, e0, f) == word


def test_weyl_word_lengths_are_edge_valencies(ball23):
    # the number of edges at word w is the product of the letter weights
    groups = tree.edges_by_weyl_word(ball23, 4)
    weight = {"s": 2, "t": 3}
    for word, edges in groups.items():
        expected = 1
        for ch in word:
            expected *= weight[ch]
        assert len(edges) == expected


def test_weyl_reverse_symmetry(ball23):
    rng = random.Random(7)
    edges = range(1, 401)  # edges, each named by its child endpoint
    for _ in range(60):
        e, f = rng.choice(edges), rng.choice(edges)
        assert tree.weyl_distance(ball23, e, f) == tree.weyl_distance(ball23, f, e)[::-1]


def _edges_by_weyl_word_scan(ball, max_len):
    """Reference grouping: measure every edge of child depth <= max_len + 1."""
    e0 = ball.ray_vertex(1)
    groups = {}
    for f in range(1, ball.sphere_start[max_len + 2]):
        word = tree.weyl_distance(ball, e0, f)
        if len(word) <= max_len:
            groups.setdefault(word, []).append(f)
    return groups


@pytest.mark.parametrize("q0,q1", [(2, 2), (2, 3), (3, 2), (4, 4), (3, 5)])
def test_edges_by_weyl_word_match_edge_scan(q0, q1):
    b = tree.build_ball(q0, q1, 8)
    for max_len in range(7):
        groups = tree.edges_by_weyl_word(b, max_len)
        scan = _edges_by_weyl_word_scan(b, max_len)
        assert list(groups) == list(scan)
        assert {word: list(edges) for word, edges in groups.items()} == scan


def test_edges_by_weyl_word_budget_counts_one_group():
    # the largest group at length 6 in the 5-regular ball has 4^6 edges,
    # of the 27305 edges of child depth <= 7
    groups = tree.edges_by_weyl_word(tree.build_ball(4, 4, 8, max_vertices=4096), 6)
    assert max(len(edges) for edges in groups.values()) == 4096
    with pytest.raises(tree.BallBudgetExceeded):
        tree.edges_by_weyl_word(tree.build_ball(4, 4, 8, max_vertices=4095), 6)


def test_iwahori_constant_examples(ball22):
    assert tree.iwahori_constant(ball22, "s", "s", "") == 2
    assert tree.iwahori_constant(ball22, "s", "t", "st") == 1
    assert tree.iwahori_constant(ball22, "s", "s", "s") == 1


def test_iwahori_constant_parity_gate(ball22):
    assert tree.iwahori_constant(ball22, "s", "s", "", (1, 0, 0)) == 0
    assert tree.iwahori_constant(ball22, "", "s", "s", (1, 0, 1)) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda b: tree.iwahori_constant(b, "x", "", ""),
        lambda b: tree.iwahori_constant(b, "ss", "s", ""),
        lambda b: tree.iwahori_constant(b, "ss", "", "ss"),
        lambda b: tree.iwahori_product(b, "ss", "", (0, 0)),
    ],
)
def test_iwahori_oracle_rejects_words_that_do_not_alternate(call):
    # no edge has such a crossing word: a count of 0, a missing witness or a
    # missing group would each hide a caller's bad word
    with pytest.raises(ValueError, match="is not an alternating word in s and t"):
        call(tree.build_ball(2, 2, 6))


def test_horocycle_class_examples(ball22):
    assert tree.horocycle_class(ball22, 0, 0) == 0
    siblings = [
        v
        for v in ball22.sphere(2)
        if ball22.parent(v) == 1 and v != ball22.ray_vertex(2)
    ]
    assert siblings
    for v in siblings:
        assert tree.horocycle_class(ball22, 0, v) == 1


def test_horocycle_partition_sizes(ball22, ball33):
    for b, q in ((ball22, 2), (ball33, 3)):
        for n in range(1, 5):
            assert len(tree.horocycle_members(b, n)) == (q - 1) * q ** (n - 1)


@pytest.mark.parametrize(
    "q0,q1,radius", [(2, 2, 12), (3, 3, 10), (4, 4, 8), (2, 3, 10), (3, 2, 10)]
)
def test_horocycle_members_match_sphere_scan(q0, q1, radius):
    b = tree.build_ball(q0, q1, radius)
    for n in range(radius // 2 + 1):
        scan = [v for v in b.sphere(2 * n) if tree.ray_confluence_depth(b, v) == n]
        assert list(tree.horocycle_members(b, n)) == scan


def test_horocycle_members_budget_counts_members():
    # class 4 of the 4-regular ball: 192 members in a sphere of 81920 vertices
    assert len(tree.horocycle_members(tree.build_ball(4, 4, 8, max_vertices=192), 4)) == 192
    with pytest.raises(tree.BallBudgetExceeded):
        tree.horocycle_members(tree.build_ball(4, 4, 8, max_vertices=191), 4)


def test_horocycle_class_symmetric(ball33):
    members = [*tree.horocycle_members(ball33, 2), *tree.horocycle_members(ball33, 3)]
    rng = random.Random(3)
    for _ in range(40):
        u, v = rng.choice(members), rng.choice(members)
        assert tree.horocycle_class(ball33, u, v) == tree.horocycle_class(ball33, v, u)


def test_horocycle_mismatch_raises(ball22):
    with pytest.raises(tree.HorocycleMismatch):
        tree.horocycle_class(ball22, 0, ball22.ray_vertex(2))


def _ray_path(ball, v):
    """The ray from ``v`` toward the marked end: up to the marked ray, then along it."""
    path = [v]
    while v not in ball.ray():
        v = ball.parent(v)
        path.append(v)
    path.extend(ball.ray()[ball.depth(v) + 1 :])
    return path


def _horocycle_class_by_ray_lists(ball, u, v):
    """Reference route: compare the two ray lists from their common far end."""
    pu, pv = _ray_path(ball, u), _ray_path(ball, v)
    i = 1
    while i <= min(len(pu), len(pv)) and pu[-i] == pv[-i]:
        i += 1
    n_u, n_v = len(pu) - i + 1, len(pv) - i + 1
    if n_u != n_v:
        raise tree.HorocycleMismatch(f"{n_u} != {n_v}")
    return n_u


@pytest.mark.parametrize(
    "q0,q1,radius", [(2, 2, 5), (3, 3, 4), (2, 3, 4), (3, 2, 4), (4, 4, 3)]
)
def test_horocycle_class_matches_ray_lists(q0, q1, radius):
    # every vertex pair of the ball, most of them on different horocycles,
    # where both routes must raise
    b = tree.build_ball(q0, q1, radius)
    outcomes = Counter()
    for u in range(b.num_vertices):
        for v in range(b.num_vertices):
            try:
                expected = _horocycle_class_by_ray_lists(b, u, v)
            except tree.HorocycleMismatch:
                with pytest.raises(tree.HorocycleMismatch):
                    tree.horocycle_class(b, u, v)
                outcomes["mismatch"] += 1
            else:
                assert tree.horocycle_class(b, u, v) == expected, (u, v)
                outcomes[expected] += 1
    assert outcomes["mismatch"] and len(outcomes) > radius // 2


def test_horocycle_class_stable_under_deepening():
    shallow = tree.build_ball(2, 2, 8)
    deep = tree.build_ball(2, 2, 11)
    members = tree.horocycle_members(shallow, 3)
    for u in members:
        for v in members[:4]:
            assert tree.horocycle_class(shallow, u, v) == tree.horocycle_class(deep, u, v)


def test_horocycle_constant_examples(ball22):
    assert tree.horocycle_constant(ball22, 1, 2, 2) == 1
    assert tree.horocycle_constant(ball22, 1, 1, 0) == 1
    assert tree.horocycle_constant(ball22, 1, 1, 1) == 0


def test_horocycle_constant_vanishes_beyond_max():
    # the confluence distance is an ultrametric: no witness deeper than
    # max(m, n) is reachable
    b = tree.build_ball(2, 2, 10)
    for m in range(1, 3):
        for n in range(1, 3):
            k = max(m, n) + 1
            assert tree.horocycle_constant(b, m, n, k) == 0


def test_horocycle_requires_radius():
    b = tree.build_ball(2, 2, 5)
    with pytest.raises(tree.BallTooSmall):
        tree.horocycle_constant(b, 2, 2, 2)


def test_iwahori_witness_independence(ball22, ball23):
    # the count must not depend on which edge represents the target class
    for ball in (ball22, ball23):
        groups = tree.edges_by_weyl_word(ball, 5)
        cases = [
            ("s", "s", "s"),
            ("s", "t", "st"),
            ("st", "ts", ""),
            ("st", "t", "s"),
            ("ts", "st", "ts"),
        ]
        for w1, w2, target in cases:
            counts = set()
            for g in groups.get(target, []):
                counts.add(
                    sum(
                        1
                        for f in groups.get(w1, ())
                        if tree.weyl_distance(ball, f, g) == w2
                    )
                )
            assert len(counts) <= 1
            if counts:
                assert counts.pop() == tree.iwahori_constant(ball, w1, w2, target)


def test_horocycle_witness_independence(ball22, ball33):
    for ball in (ball22, ball33):
        for m in range(3):
            members_m = tree.horocycle_members(ball, m)
            for n in range(3):
                for k in range(max(m, n) + 1):
                    counts = set()
                    for w in tree.horocycle_members(ball, k):
                        counts.add(
                            sum(
                                1
                                for v in members_m
                                if tree.horocycle_class(ball, v, w) == n
                            )
                        )
                    assert len(counts) == 1
                    assert counts.pop() == tree.horocycle_constant(ball, m, n, k)


@pytest.mark.parametrize("qs, qt, max_len", [(2, 2, 3), (2, 3, 3), (3, 3, 3)])
def test_iwahori_product_equals_constants(qs, qt, max_len):
    # decorated indices included, at unequal weights too: the counts are the
    # same edge counts whether or not they model an algebra
    algebra = IwahoriAlgebra(qs, qt)
    targets = algebra.words_up_to(2 * max_len)
    ball = tree.build_ball(qs, qt, 2 * max_len + 2)
    for a in algebra.words_up_to(max_len):
        for b in algebra.words_up_to(max_len):
            flags = (a.iflag, b.iflag)
            expected = {}
            for t in targets:
                count = tree.iwahori_constant(ball, a.word, b.word, t.word, (*flags, t.iflag))
                if count:
                    expected[t] = count
            # the tables earlier pairs left in the ball's memo serve this one
            assert tree.iwahori_product(ball, a.word, b.word, flags) == expected


@pytest.mark.parametrize(
    "oracle, args",
    [
        (tree.spherical_product, [(2, 3), (2, 1), (3, 2)]),
        (tree.horocycle_product, [(2, 1), (2, 2), (1, 2)]),
    ],
    ids=["spherical", "horocycle"],
)
def test_oracle_vectors_belong_to_the_caller(oracle, args):
    # the memo keeps histograms; a caller that mutates the vector it was
    # handed changes neither the memo nor a later answer (an Iwahori vector
    # is the row the memo keeps, at either result flag: below)
    ball = tree.build_ball(2, 2, 8)
    fresh = [oracle(tree.build_ball(2, 2, 8), *cell) for cell in args]
    for cell, expected in zip(args, fresh):
        vector = oracle(ball, *cell)
        before = copy.deepcopy(vector)
        assert vector == expected
        for idx in list(vector):
            vector[idx] += 1
        vector["junk"] = 1
        assert oracle(ball, *cell) == before == expected
    assert [oracle(ball, *cell) for cell in args] == fresh


def test_flag_0_iwahori_vectors_are_the_rows_the_memo_keeps(monkeypatch):
    # a flag-0 cell hands over its kept row, read-only: a second pass over
    # the sweep's cells returns the same objects and leaves the memo as it was
    balls = []
    build = tree.build_ball
    monkeypatch.setattr(tree, "build_ball", lambda *args: balls.append(build(*args)) or balls[-1])
    make_algebra, makers = verify.iwahori_routes(2, 2, 5)
    algebra = make_algebra()
    oracle = makers["oracle"](algebra)
    (ball,) = balls
    cells = list(verify.CELLS["iwahori"](algebra, 5))
    first = [oracle(a, b) for a, b in cells]
    kept = copy.deepcopy(ball.memo)
    second = [oracle(a, b) for a, b in cells]
    assert second == first and ball.memo == kept
    flag_0 = [i for i, (a, b) in enumerate(cells) if a.iflag == b.iflag]
    assert len(flag_0) == len(cells) // 2
    for i in flag_0:
        a, b = cells[i]
        word_ef = tree.swap_types(a.word) if a.iflag else a.word
        assert second[i] is first[i] is ball.memo["tables"][word_ef][b.word], cells[i]


def test_flag_1_iwahori_vectors_are_the_rows_the_memo_keeps(monkeypatch):
    # a flag-1 cell hands over a re-keyed row the memo keeps, built on its
    # first read and read-only after: a repeated call returns the same object
    balls = []
    build = tree.build_ball
    monkeypatch.setattr(tree, "build_ball", lambda *args: balls.append(build(*args)) or balls[-1])
    make_algebra, makers = verify.iwahori_routes(2, 2, 5)
    algebra = make_algebra()
    oracle = makers["oracle"](algebra)
    (ball,) = balls
    cells = [(a, b) for a, b in verify.CELLS["iwahori"](algebra, 5) if a.iflag != b.iflag]
    assert len(cells) == 242
    first = [oracle(a, b) for a, b in cells]
    kept = copy.deepcopy(ball.memo)
    second = [oracle(a, b) for a, b in cells]
    assert second == first and ball.memo == kept
    fresh = tree.build_ball(2, 2, 12)
    for (a, b), vector, again in zip(cells, first, second):
        word_ef = tree.swap_types(a.word) if a.iflag else a.word
        assert again is vector is ball.memo["flipped"][word_ef][b.word], (a, b)
        # the row re-keyed from the flag-0 row of the swapped word, as a fresh ball counts it
        flag_0 = tree.iwahori_product(ball, word_ef, tree.swap_types(b.word), (0, 0))
        assert vector == {(1, tree.swap_types(w)): c for (_, w), c in flag_0.items()}
        assert vector == tree.iwahori_product(fresh, a.word, b.word, (a.iflag, b.iflag))
        assert all(iflag == 1 for iflag, _ in vector)


@pytest.mark.parametrize("q", [2, 3])
def test_horocycle_product_equals_constants(q):
    top = 4
    ball = tree.build_ball(q, q, 2 * top + 2)
    for m in range(top + 1):
        for n in range(top + 1):
            # every class up to top, so the classes the product skips must count 0
            expected = {
                k: count
                for k in range(top + 1)
                if (count := tree.horocycle_constant(ball, m, n, k))
            }
            assert tree.horocycle_product(ball, m, n) == expected


@pytest.mark.parametrize(
    "name, sweep, oracle_cells",
    [
        # 14 indices of length <= 3; qs == qt, so every pair has an oracle vector
        ("iwahori_product", lambda: verify.verify_iwahori(2, 2, 3), 14 * 14),
        # qs != qt: only the 7 plain words have an edge model
        ("iwahori_product", lambda: verify.verify_iwahori(2, 3, 3), 7 * 7),
        ("horocycle_product", lambda: verify.verify_affine(2, 3), 4 * 4),
        ("horocycle_product", lambda: verify.verify_affine(3, 3), 4 * 4),
        (
            "spherical_product",
            lambda: verify.verify_spherical(SphericalParams.homogeneous(2), 5),
            21,
        ),
        (
            "spherical_product",
            lambda: verify.verify_spherical(SphericalParams.two_orbit(2, 3), 3),
            10,
        ),
    ],
    ids=["iwahori-2-2", "iwahori-2-3", "affine-2", "affine-3", "spherical-2", "spherical-2-3"],
)
def test_ball_memo_changes_no_count(monkeypatch, name, sweep, oracle_cells):
    # every oracle call of the sweep, on the sweep's ball with the histograms
    # earlier cells left in its memo, against the same call on a freshly
    # built ball with an empty memo; one call per oracle cell
    original = getattr(tree, name)
    calls = []

    def checked(ball, *args):
        vector = original(ball, *args)
        fresh = tree.build_ball(ball.q0, ball.q1, ball.radius, ball.max_vertices)
        assert fresh.memo == {}
        assert vector == original(fresh, *args), args[:3]
        calls.append(args[:3])
        return vector

    monkeypatch.setattr(tree, name, checked)
    report = sweep()
    assert report.ok
    assert len(calls) == len(set(calls)) == oracle_cells


@pytest.mark.parametrize(
    "sweep, kind, histograms, kinds",
    [
        # one table per word group from the base edge: the 11 words of length
        # <= 5, each counted against the witness sides the ball keeps once;
        # the flag-1 rows re-keyed from them are kept beside them
        (
            lambda: verify.verify_iwahori(2, 2, 5),
            "tables", 11, ["tables", "sides", "flipped"],
        ),
        # one per class block 0..7, each climbed once against all 8 witnesses
        (lambda: verify.verify_affine(2, 7), "classes", 8, ["classes"]),
        # one per sphere radius 0..8
        (
            lambda: verify.verify_spherical(SphericalParams.homogeneous(2), 8),
            "depths", 9, ["depths"],
        ),
    ],
    ids=["iwahori", "affine", "spherical"],
)
def test_sweep_measures_each_histogram_once(monkeypatch, sweep, kind, histograms, kinds):
    # the sweep's one ball keeps every histogram its cells read, measured once
    balls = []
    build_ball = tree.build_ball
    monkeypatch.setattr(
        tree, "build_ball", lambda *args: balls.append(build_ball(*args)) or balls[-1]
    )
    climbs = []
    anchored_climb = tree._anchored_climb
    monkeypatch.setattr(
        tree, "_anchored_climb", lambda *args: climbs.append(1) or anchored_climb(*args)
    )
    assert sweep().ok
    (ball,) = balls
    assert len(ball.memo[kind]) == len(climbs) == histograms
    assert list(ball.memo) == kinds


def test_affine_sweep_keeps_whole_histograms(monkeypatch):
    # one histogram per class block and witness, each over every member
    balls = []
    build_ball = tree.build_ball
    monkeypatch.setattr(
        tree, "build_ball", lambda *args: balls.append(build_ball(*args)) or balls[-1]
    )
    assert verify.verify_affine(3, 5).ok
    (ball,) = balls
    kept = ball.memo["classes"]
    assert sorted(kept) == list(range(6))
    for m, histograms in kept.items():
        assert len(histograms) == 6
        assert {sum(h.values()) for h in histograms} == {len(tree.horocycle_members(ball, m))}


class _ExplicitBall:
    """Reference ball: a parent list built breadth-first, walked one step at a time."""

    def __init__(self, q0, q1, radius):
        self.parent, self.depth, self.children = [-1], [0], [[]]
        frontier = [0]
        for d in range(radius):
            width = (q0 + 1) if d == 0 else (q0 if d % 2 == 0 else q1)
            nxt = []
            for v in frontier:
                for _ in range(width):
                    child = len(self.parent)
                    self.parent.append(v)
                    self.depth.append(d + 1)
                    self.children.append([])
                    self.children[v].append(child)
                    nxt.append(child)
            frontier = nxt
        self.ray = [0]
        while self.children[self.ray[-1]]:
            self.ray.append(self.children[self.ray[-1]][0])

    def path(self, u, v):
        up, down = [u], [v]
        while self.depth[up[-1]] > self.depth[down[-1]]:
            up.append(self.parent[up[-1]])
        while self.depth[down[-1]] > self.depth[up[-1]]:
            down.append(self.parent[down[-1]])
        while up[-1] != down[-1]:
            up.append(self.parent[up[-1]])
            down.append(self.parent[down[-1]])
        return up + down[-2::-1]

    def distance(self, u, v):
        return len(self.path(u, v)) - 1

    def confluence_depth(self, v):
        ray = set(self.ray)
        while v not in ray:
            v = self.parent[v]
        return self.depth[v]

    def weyl_distance(self, e, f):
        # crossed vertices: from the endpoint of e nearer f to that of f nearer e
        if e == f:
            return ""

        def near(edge, target):
            p = self.parent[edge]
            return edge if self.distance(edge, target) < self.distance(p, target) else p

        crossed = self.path(near(e, f), near(f, e))
        return "".join("s" if self.depth[v] % 2 == 0 else "t" for v in crossed)


@pytest.mark.parametrize("q0,q1,radius", [(2, 2, 9), (2, 3, 8), (3, 2, 8), (4, 4, 6)])
def test_implicit_ball_matches_explicit_reference(q0, q1, radius):
    ref = _ExplicitBall(q0, q1, radius)
    b = tree.build_ball(q0, q1, radius)
    n = len(ref.parent)
    assert b.num_vertices == n
    assert [b.parent(v) for v in range(n)] == ref.parent
    assert [b.depth(v) for v in range(n)] == ref.depth
    assert b.ray() == tuple(ref.ray)
    rng = random.Random(q0 * 100 + q1)
    for v in rng.sample(range(n), 200):
        assert tree.ray_confluence_depth(b, v) == ref.confluence_depth(v)
    for _ in range(300):
        u, v = rng.randrange(n), rng.randrange(n)
        assert tree.vertex_path(b, u, v) == ref.path(u, v)
        assert tree.distance(b, u, v) == ref.distance(u, v)
    # edges are named by their child endpoint; include near pairs, where the
    # two edges share a vertex or one lies below the other
    for _ in range(300):
        e = rng.randrange(1, n)
        f = rng.choice([rng.randrange(1, n), e, ref.parent[e] or e] + ref.children[e])
        assert tree.weyl_distance(b, e, f) == ref.weyl_distance(e, f)


def test_deep_ball_is_implicit():
    b = tree.build_ball(4, 4, 200)
    assert tree.distance(b, 0, b.ray_vertex(200)) == 200
    assert len(b.sphere_start) == 202 and len(b.width) == 200
    with pytest.raises(tree.BallBudgetExceeded):
        b.sphere(200)
    # vertex numbers are capped in size, so a huge radius fails before building
    with pytest.raises(tree.BallBudgetExceeded):
        tree.build_ball(2, 2, 100_000)


def _landing(ball, v, w):
    """Per-vertex reference for one key of the anchored climb of ``v`` against ``w``."""
    dc = tree._meet(ball, v, w)[2]
    if dc > tree.ray_confluence_depth(ball, w):
        # the common ancestor is on the witness's path off the marked ray
        return tree.vertex_path(ball, w, 0)[ball.depth(w) - dc]
    return ball.ray_vertex(tree.ray_confluence_depth(ball, v))


@st.composite
def _blocks(draw):
    """A ball, a block of one sphere and a witness on or off the marked ray."""
    ball = tree.build_ball(draw(st.sampled_from((2, 3))), draw(st.sampled_from((2, 3))), 7)
    kind = draw(st.sampled_from(("sphere", "edges", "horocycle", "mixed", "subtree")))
    if kind == "sphere":
        block = ball.sphere(draw(st.integers(1, 5)))
    elif kind == "edges":
        block = draw(st.sampled_from(list(tree.edges_by_weyl_word(ball, 4).values())))
    elif kind == "subtree":  # the vertices of one sphere below one vertex
        u = draw(st.integers(1, ball.sphere_start[4] - 1))
        du = ball.depth(u)
        d = draw(st.integers(du, 5))
        span = prod(ball.width[du:d])
        start = ball.sphere_start[d] + (u - ball.sphere_start[du]) * span
        block = range(start, start + span)
    else:
        block = tree.horocycle_members(ball, draw(st.integers(1, 2)))
        if kind == "mixed":  # one more vertex of the sphere, on another horocycle
            block = draw(
                st.sampled_from(
                    (range(block.start - 1, block.stop), range(block.start, block.stop + 1))
                )
            )
    witness = draw(
        st.one_of(
            st.sampled_from(ball.ray()[1:]),
            st.integers(1, ball.num_vertices - 1),
            # on the root's horocycle
            st.integers(0, 3).flatmap(lambda k: st.sampled_from(tree.horocycle_members(ball, k))),
        )
    )
    return ball, block, witness


@settings(max_examples=120, deadline=None)
@given(_blocks())
def test_anchored_climb_matches_per_vertex_functions(case):
    ball, block, w = case
    climb = tree._anchored_climb(ball, block, w)
    assert climb == Counter(_landing(ball, v, w) for v in block)
    # every vertex of the block was visited
    assert sum(climb.values()) == len(block)


@st.composite
def _comb_blocks(draw):
    """A ball, a class block (or one straddling two horocycles) and several witnesses.

    The witnesses are members of the root's horocycle classes: some the
    first members, which form the comb a horocycle sweep climbs against, and
    some not, so that two witnesses may share a path off the marked ray.
    """
    q0, q1 = draw(st.sampled_from([(2, 2), (3, 3), (2, 3), (3, 2)]))
    ball = tree.build_ball(q0, q1, 8)
    reach = 3
    block = tree.horocycle_members(ball, draw(st.integers(0, reach)))
    if block.start > 0 and draw(st.booleans()):  # one more vertex of the sphere
        start, stop = block.start, block.stop
        block = draw(st.sampled_from((range(start - 1, stop), range(start, stop + 1))))
    comb = tree._horocycle_witnesses(ball, reach)
    members = st.integers(0, reach).flatmap(
        lambda k: st.sampled_from(tree.horocycle_members(ball, k))
    )
    witnesses = draw(
        st.one_of(
            st.just(comb),
            st.lists(st.one_of(st.sampled_from(comb), members), min_size=1, max_size=6),
        )
    )
    return ball, block, witnesses


def _anchor_landing(ball, v, witnesses):
    """Per-vertex reference: the deepest anchor vertex on the path from ``v`` to the root."""
    anchor = set(ball.ray())
    for w in witnesses:
        anchor.update(tree.vertex_path(ball, w, 0))
    return next(u for u in tree.vertex_path(ball, v, 0) if u in anchor)


@settings(max_examples=150, deadline=None)
@given(_comb_blocks())
def test_climb_against_several_witnesses_matches_per_vertex_classes(case):
    # each vertex lands where its path to the root first meets the anchor;
    # the classes read from these landings are checked on the comb below
    ball, block, witnesses = case
    climb = tree._anchored_climb(ball, block, *witnesses)
    assert climb == Counter(_anchor_landing(ball, v, witnesses) for v in block)


@pytest.mark.parametrize("q0, q1", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_class_histograms_match_per_vertex_classes_on_the_comb(q0, q1):
    # every class block of the ball, against each witness of the comb; a
    # block one vertex wider holds a vertex of another horocycle, on which
    # no witness lies
    ball = tree.build_ball(q0, q1, 8)
    reach = 3
    comb = tree._horocycle_witnesses(ball, reach)
    assert comb == [tree.horocycle_members(ball, k)[0] for k in range(reach + 1)]
    for n in range(ball.radius // 2 + 1):
        block = tree.horocycle_members(ball, n)
        histograms = tree._class_histograms(ball, block, reach)
        assert histograms == [
            Counter(tree.horocycle_class(ball, v, w) for v in block) for w in comb
        ], n
        assert all(sum(classes.values()) == len(block) for classes in histograms), n
        if n:
            for wider in (range(block.start - 1, block.stop), range(block.start, block.stop + 1)):
                with pytest.raises(tree.HorocycleMismatch):
                    tree._class_histograms(ball, wider, reach)


def test_horocycle_product_climbs_only_the_block_it_reads():
    # the witnesses of every class the ball reaches are found by arithmetic,
    # so a budget below the deepest class block still answers a shallow cell
    q, reach = 3, 3
    radius = 2 * reach + 2
    deepest = len(tree.horocycle_members(tree.build_ball(q, q, radius), reach))
    budgeted = tree.build_ball(q, q, radius, max_vertices=deepest - 1)
    with pytest.raises(tree.BallBudgetExceeded):
        tree.horocycle_members(budgeted, reach)
    expected = tree.horocycle_product(tree.build_ball(q, q, radius), 0, 1)
    assert tree.horocycle_product(budgeted, 0, 1) == expected == {1: 1}
    assert list(budgeted.memo["classes"]) == [0]


def test_iwahori_product_climbs_only_the_group_it_reads():
    # the sts group has 12 edges; the 18-edge tst group of the same length
    # is not climbed, so it does not count against the budget
    groups = tree.edges_by_weyl_word(tree.build_ball(2, 3, 10), 3)
    assert (len(groups["sts"]), len(groups["tst"])) == (12, 18)
    budgeted = tree.build_ball(2, 3, 10, max_vertices=12)
    assert tree.iwahori_product(budgeted, "sts", "", (0, 0)) == {(0, "sts"): 1}
    with pytest.raises(tree.BallBudgetExceeded):
        tree.iwahori_product(tree.build_ball(2, 3, 10, max_vertices=11), "sts", "", (0, 0))


def test_iwahori_constant_enumerates_only_the_group_it_counts():
    # the reference enumerates the 12-edge sts group and reads the witness,
    # the first edge of the target's group, by offset: the 18-edge tst
    # group of the same length is never handed out
    assert tree.iwahori_constant(tree.build_ball(2, 3, 10, max_vertices=12), "sts", "", "sts") == 1
    with pytest.raises(tree.BallBudgetExceeded):
        tree.iwahori_constant(tree.build_ball(2, 3, 10, max_vertices=11), "sts", "", "sts")


@pytest.mark.parametrize("q0, q1", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("radius", [6, 9])
def test_word_table_matches_per_edge_weyl_distance(q0, q1, radius):
    # every word group up to length 4, against every witness the ball reaches;
    # at radius 6 the deepest s... witness (depth 4) lies above the t... groups
    # of length 4 (child depth 5), at radius 9 below every group
    ball = tree.build_ball(q0, q1, radius)
    groups = tree.edges_by_weyl_word(ball, radius - 2)
    witnesses = {word: groups[word][0] for word in groups}
    # the sides, found by offset arithmetic, are those of each group's first edge
    apex, sides = tree._witness_sides(ball)
    deepest = ("st" * radius)[: radius - 2]
    assert apex == witnesses[deepest]
    assert sides == [
        ((0, word), ball.depth(g), g in ball.ray()) for word, g in witnesses.items()
    ]
    for word_ef in tree.edges_by_weyl_word(ball, 4):
        expected = {}
        for word_eg, g in witnesses.items():
            for word_fg, count in Counter(
                tree.weyl_distance(ball, f, g) for f in groups[word_ef]
            ).items():
                expected.setdefault(word_fg, {})[(0, word_eg)] = count
        # a cell from this group reads row w2 only if len(word_ef) + len(w2)
        # <= radius - 2 (iwahori_product's BallTooSmall guard); the table
        # keeps exactly those rows, each as the per-edge count gives it
        longest = radius - 2 - len(word_ef)
        table = tree._word_table(ball, word_ef)
        assert table == {w: row for w, row in expected.items() if len(w) <= longest}, word_ef
        assert all(len(w) > longest for w in expected.keys() - table.keys()), word_ef


@pytest.mark.parametrize("q0, q1, radius", [(2, 3, 12), (3, 3, 10)])
def test_word_table_keeps_exactly_the_readable_rows(q0, q1, radius):
    # a row is readable when len(word_ef) + len(word_fg) <= radius - 2: each
    # one, up to exactly that length, is the per-edge count, and no longer
    # row is kept, so a length rule one off either way fails here
    ball = tree.build_ball(q0, q1, radius)
    reach = radius - 2
    # every crossing word the ball reaches, each once
    words = list(dict.fromkeys(
        w for n in range(reach + 1) for w in (("st" * n)[:n], ("ts" * n)[:n])
    ))
    for word_ef in words:
        longest = reach - len(word_ef)
        table = tree._word_table(ball, word_ef)
        assert max(map(len, table)) == longest, word_ef
        for word_fg in (w for w in words if len(w) <= longest):
            expected = {}
            for word_eg in words:
                count = tree.iwahori_constant(ball, word_ef, word_fg, word_eg)
                if count:
                    expected[(0, word_eg)] = count
            assert table.get(word_fg, {}) == expected, (word_ef, word_fg)


@pytest.mark.parametrize("q0, q1", [(2, 2), (2, 3), (3, 2), (4, 3)])
def test_witness_edges_lie_on_one_apartment(q0, q1):
    # every witness is a marked-ray vertex or an ancestor of the deepest s... witness
    ball = tree.build_ball(q0, q1, 10)
    groups = tree.edges_by_weyl_word(ball, 8)
    apex = groups["stststst"][0]
    branch = set(tree.vertex_path(ball, apex, 0))
    ray = set(ball.ray())
    for word in groups:
        g = groups[word][0]
        if word.startswith("s"):
            assert g in branch and g not in ray, word
        else:  # the t... words and the base edge
            assert g in ray, word
    # the s... witnesses are the path from the root's second child down to the apex
    assert sorted(branch - {0}) == sorted(
        groups[("st" * n)[:n]][0] for n in range(1, 9)
    )


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: verify.verify_iwahori(2, 3, 8),
        lambda: verify.verify_affine(4, 7),
        lambda: verify.verify_spherical(SphericalParams.homogeneous(4), 9),
        lambda: verify.verify_spherical(SphericalParams.two_orbit(3, 2), 6),
    ],
    ids=["iwahori-2-3-len8", "affine-4-max7", "spherical-4-max9", "spherical-3-2-max6"],
)
def test_deep_sweeps_ok(sweep):
    report = sweep()
    assert report.ok and report.cells


#: name -> (call on the radius-3 ball of T(2, 2), exception type, message)
GUARDS = {
    "sphere-above": (
        lambda b: b.sphere(4),
        tree.BallTooSmall,
        "sphere radius 4 outside ball of radius 3",
    ),
    "sphere-below": (
        lambda b: b.sphere(-1),
        tree.BallTooSmall,
        "sphere radius -1 outside ball of radius 3",
    ),
    "ray-above": (
        lambda b: b.ray_vertex(4),
        tree.BallTooSmall,
        "ray vertex 4 outside ball of radius 3",
    ),
    "ray-below": (
        lambda b: b.ray_vertex(-1),
        tree.BallTooSmall,
        "ray vertex -1 outside ball of radius 3",
    ),
    "climb-two-spheres": (
        lambda b: tree._anchored_climb(b, range(2, 5), 0),
        ValueError,
        "block range(2, 5) spans more than one sphere",
    ),
    "edges_by_weyl_word": (
        lambda b: tree.edges_by_weyl_word(b, 2),
        tree.BallTooSmall,
        "ball radius 3 < required 4 for words of length 2",
    ),
    "iwahori_constant": (
        lambda b: tree.iwahori_constant(b, "s", "t", "st"),
        tree.BallTooSmall,
        "ball radius 3 < required 4",
    ),
    "iwahori_product": (
        lambda b: tree.iwahori_product(b, "s", "t", (0, 0)),
        tree.BallTooSmall,
        "ball radius 3 < required 4",
    ),
    "horocycle_members": (
        lambda b: tree.horocycle_members(b, 2),
        tree.BallTooSmall,
        "ball radius 3 < required 4",
    ),
    "horocycle_product": (
        lambda b: tree.horocycle_product(b, 1, 0),
        tree.BallTooSmall,
        "ball radius 3 < required 4",
    ),
    "spherical_constant-radius": (
        lambda b: tree.spherical_constant(b, 4, 0, 4),
        tree.BallTooSmall,
        "ball radius 3 < required 4 for (4,0,4)",
    ),
    "spherical_product-radius": (
        lambda b: tree.spherical_product(b, 2, 2),
        tree.BallTooSmall,
        "ball radius 3 < required 4",
    ),
    "horocycle_constant-radius": (
        lambda b: tree.horocycle_constant(b, 2, 2, 0),
        tree.BallTooSmall,
        "ball radius 3 < required 6",
    ),
    "spherical_constant": (
        lambda b: tree.spherical_constant(b, 1, -1, 0),
        ValueError,
        "sphere radii must be nonnegative",
    ),
    "spherical_product": (
        lambda b: tree.spherical_product(b, -1, 1),
        ValueError,
        "sphere radii must be nonnegative",
    ),
    "horocycle_constant": (
        lambda b: tree.horocycle_constant(b, 0, 0, -1),
        ValueError,
        "horocycle classes must be nonnegative",
    ),
    "horocycle_product-negative": (
        lambda b: tree.horocycle_product(b, 0, -1),
        ValueError,
        "horocycle classes must be nonnegative",
    ),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guards_raise_their_exception_and_message(name):
    call, kind, message = GUARDS[name]
    with pytest.raises(ValueError) as excinfo:
        call(tree.build_ball(2, 2, 3))
    assert excinfo.type is kind
    assert str(excinfo.value) == message
