"""Finite semi-homogeneous tree balls and geometric counting of structure constants.

The counting functions here know nothing about closed-form multiplication
tables: every structure constant is obtained by enumerating vertices or
edges of a finite ball and measuring distances along unique paths.  They
serve as the independent oracle against which the algebraic modules are
verified.  Each family has a per-cell function (:func:`spherical_product`,
:func:`iwahori_product`, :func:`horocycle_product`) that returns a whole
structure-constant vector, read from histograms kept in the ball's memo
(:attr:`TreeBall.memo`) and so shared by every cell counted on one ball, and
a single-constant reference beside it.  An Iwahori cell hands over the
row the memo keeps, at result flag 1 re-keyed once, which its caller only
reads.

The histograms come from one anchored climb (:func:`_anchored_climb`).  A
block is a contiguous range of one sphere (a sphere, the edges at one
crossing word, the members of one horocycle class) and a witness is one
fixed vertex.  The anchor is the marked ray together with the paths of the
witnesses up to it; their offsets are read once.  Then each vertex of the
block climbs its own offset toward the root until it lands on the anchor,
and the vertex it lands on fixes where it meets each witness, hence its
confluence depth, crossing word or confluence class.  The climb runs one
depth at a time over a chunk of at most :data:`CLIMB_CHUNK` vertices: the
chunk's offsets are listed, the ones on the anchor at that depth are
counted and dropped, and each of the others is divided on its own by the
branching above it, so memory stays bounded by the chunk, not the block.
Every vertex of the block is enumerated and climbed, none is skipped by
arithmetic on the block as a whole.  A sphere is climbed against the ray
alone.  The Iwahori witnesses all lie on one apartment through the base
edge, the marked ray and one branch off it, so each edge group is climbed
once, against the deepest witness of that branch, and the one climb gives
its crossing words to every witness.  The horocycle witnesses, the first
member of each class, hang off the marked ray as the teeth of a comb, one
per class, so each class block is climbed once against the whole comb, and
its confluence classes from every witness are read from the depths of
each landing and of where it leaves the ray.  Witnesses are found by
offset arithmetic, so only the blocks actually climbed count against the
ball's budget.  The single-constant references
(:func:`spherical_constant`, :func:`iwahori_constant`,
:func:`horocycle_constant`) stay per-vertex: they measure each vertex with
the generic :func:`distance`, :func:`weyl_distance` or confluence-class
function, so the tests hold the climb against an independent count.

Conventions (fixed so all enumeration orders are deterministic):

* vertex 0 is the root, has even type, and carries ``q0 + 1`` children;
  vertices are numbered in breadth-first order, so the sphere of radius ``d``
  is a contiguous range of indices;
* the marked ray toward the boundary is the leftmost branch, i.e. the first
  vertex of every sphere;
* the distinguished edge for edge counting is the first ray edge, and
  crossing an even-type vertex contributes the letter ``s``, an odd-type
  vertex the letter ``t``.

A ball stores O(radius) integers and derives parents and paths arithmetically;
its vertex budget limits what a count visits, not the size of the ball.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from math import prod

from .core import Frozen, branching

DEFAULT_MAX_VERTICES = 4_000_000
#: The most vertices an anchored climb lists at once (:func:`_anchored_climb`).
CLIMB_CHUNK = 4096
MAX_INDEX_BITS = 8192  # a ball stores radius + 2 vertex numbers; this caps their size

_SWAP_TYPES = str.maketrans("st", "ts")


def swap_types(word: str) -> str:
    """Swap the two vertex-type letters in a crossing word."""
    return word.translate(_SWAP_TYPES)


class BallBudgetExceeded(ValueError):
    """A vertex range handed out for counting would exceed the vertex budget."""


class BallTooSmall(ValueError):
    """A counting operation was handed a ball below its minimal radius."""


class HorocycleMismatch(ValueError):
    """The two vertices do not lie on a common horocycle."""


class TreeBall(Frozen):
    """Ball of a given radius in the (q0+1, q1+1)-semi-homogeneous tree.

    Only the sphere offsets and the branching ``width[d]`` at each depth are
    stored, O(radius) integers; depths, parents, the marked ray and paths
    are derived on demand.  ``max_vertices`` bounds every vertex range the
    ball hands out (:meth:`sphere`, the word groups of :func:`edges_by_weyl_word`,
    :func:`_word_table` and :func:`iwahori_constant`, :func:`horocycle_members`):
    what a count visits.

    ``memo`` holds the histograms the per-cell oracles read, one inner dict
    per kind (``"depths"``, ``"tables"``, ``"classes"``; a word table is kept
    alone, its rows the vectors :func:`iwahori_product` returns at flag 0,
    and a class block's histograms as one list, one per comb witness), under
    ``"flipped"`` the rows :func:`iwahori_product` returns at flag 1, and
    under ``"sides"`` the witness sides every word table is counted against
    (:func:`_witness_sides`).  They depend only on the ball, so they live as
    long as it does, and a pickle or copy of the ball carries them.  Two
    balls are equal only if they are the same object.
    """

    __slots__ = ("q0", "q1", "radius", "width", "sphere_start", "max_vertices", "memo")

    def __init__(
        self, q0: int, q1: int, radius: int, width: list, sphere_start: list, max_vertices: int
    ):
        self._set(q0, q1, radius, width, sphere_start, max_vertices, {})

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def num_vertices(self) -> int:
        return self.sphere_start[-1]

    def depth(self, v: int) -> int:
        return bisect_right(self.sphere_start, v) - 1

    def parent(self, v: int) -> int:
        """The neighbour of ``v`` one step nearer the root (-1 for the root)."""
        d, ss = self.depth(v), self.sphere_start
        return ss[d - 1] + (v - ss[d]) // self.width[d - 1] if d else -1

    def _budgeted(self, start: int, stop: int) -> range:
        if stop - start > self.max_vertices:
            raise BallBudgetExceeded(
                f"counting would visit more than the budget of {self.max_vertices} vertices"
            )
        return range(start, stop)

    def sphere(self, d: int) -> range:
        """Vertices at distance ``d`` from the root, as a contiguous range."""
        if d < 0 or d > self.radius:
            raise BallTooSmall(f"sphere radius {d} outside ball of radius {self.radius}")
        return self._budgeted(self.sphere_start[d], self.sphere_start[d + 1])

    def ray(self) -> tuple:
        """The marked ray from the root toward the boundary (leftmost branch)."""
        return tuple(self.sphere_start[: self.radius + 1])

    def ray_vertex(self, j: int) -> int:
        if j < 0 or j > self.radius:
            raise BallTooSmall(f"ray vertex {j} outside ball of radius {self.radius}")
        return self.sphere_start[j]

    def __repr__(self):
        return (
            f"TreeBall(q0={self.q0}, q1={self.q1}, radius={self.radius}, "
            f"vertices={self.num_vertices})"
        )


def build_ball(
    q0: int, q1: int, radius: int, max_vertices: int = DEFAULT_MAX_VERTICES
) -> TreeBall:
    """Build the ball of the semi-homogeneous tree with the stated branching.

    Even-type vertices have degree ``q0 + 1``, odd-type ``q1 + 1``; the tree
    is homogeneous when ``q0 == q1``.  Both parameters must be at least 2
    (at least three edges at every vertex).
    """
    q0, q1 = branching(q0, q1)
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if (radius + 1) * (max(q0, q1) + 1).bit_length() > MAX_INDEX_BITS:
        raise BallBudgetExceeded(f"ball of radius {radius} too deep to number its vertices")
    width = [(q0 + 1) if d == 0 else (q0 if d % 2 == 0 else q1) for d in range(radius)]
    sphere_start = [0, 1]
    for w in width:
        sphere_start.append(sphere_start[-1] + (sphere_start[-1] - sphere_start[-2]) * w)
    return TreeBall(q0, q1, radius, width, sphere_start, max_vertices)


def _meet(ball: TreeBall, u: int, v: int) -> tuple:
    """Depths of ``u``, ``v`` and of their deepest common ancestor.

    Climbs (depth, offset within the sphere) pairs: breadth-first numbering
    makes offset ``i // width[d - 1]`` at depth ``d - 1`` the parent of
    offset ``i`` at depth ``d``.
    """
    ss, width = ball.sphere_start, ball.width
    du, dv = bisect_right(ss, u) - 1, bisect_right(ss, v) - 1
    a, b = u - ss[du], v - ss[dv]
    d = du
    while d > dv:
        d -= 1
        a //= width[d]
    e = dv
    while e > d:
        e -= 1
        b //= width[e]
    while a != b:
        d -= 1
        w = width[d]
        a //= w
        b //= w
    return du, dv, d


def distance(ball: TreeBall, u: int, v: int) -> int:
    """Length of the unique path between two vertices."""
    du, dv, dc = _meet(ball, u, v)
    return du + dv - 2 * dc


def vertex_path(ball: TreeBall, u: int, v: int) -> list:
    """Vertices of the unique path from ``u`` to ``v``, inclusive."""
    du, dv, dc = _meet(ball, u, v)
    up, down = [u], [v]
    for path, steps in ((up, du - dc), (down, dv - dc)):
        for _ in range(steps):
            path.append(ball.parent(path[-1]))
    return up + down[-2::-1]


def ray_confluence_depth(ball: TreeBall, v: int) -> int:
    """Depth of the deepest marked-ray vertex on the path from ``v`` to the root."""
    width = ball.width
    d = ball.depth(v)
    offset = v - ball.sphere_start[d]
    while offset:
        d -= 1
        offset //= width[d]
    return d


def _anchored_climb(ball: TreeBall, block: range, *witnesses: int) -> Counter:
    """Where each vertex of ``block`` lands on the anchor of ``witnesses``, as a histogram.

    ``block`` is a contiguous range of one sphere.  The anchor is the marked
    ray together with the path from each witness up to it; with no witness
    it is the ray alone.  Each vertex of the block climbs its offset one
    depth at a time (the parent of offset ``i`` at depth ``e`` is offset
    ``i // width[e - 1]``) until it lands on the anchor, at its deepest
    common ancestor with it.  Key ``x`` counts the vertices that land on
    anchor vertex ``x``.  A landing on the marked ray is at the vertices'
    :func:`ray_confluence_depth`.  Since the anchor holds the ray and every
    witness's path to it, a vertex meets each witness, and leaves the ray,
    where its landing vertex does.  The counts sum to ``len(block)``.

    The block is climbed in chunks of at most :data:`CLIMB_CHUNK` vertices,
    each one depth at a time: the chunk's offsets at the block's depth are
    a list, kept in order, and at each depth the offsets on the anchor (0
    on the marked ray, a witness's ancestor off it) are counted and
    dropped, and every other offset is divided on its own into its parent's
    offset one depth up.  At depth 0 every offset left is the root's, on
    the ray.  So a climb against several witnesses enumerates and climbs
    each vertex of the block once, as a climb against one does.
    """
    ss, width = ball.sphere_start, ball.width
    d = ball.depth(block.start)
    if block and block.stop > ss[d + 1]:
        raise ValueError(f"block {block} spans more than one sphere")
    # off[e]: offsets of the witnesses' ancestors at depth e that are off the marked ray
    off = [()] * (d + 1)
    for w in witnesses:
        e = ball.depth(w)
        o = w - ss[e]
        while e > d:
            e -= 1
            o //= width[e]
        while o and o not in off[e]:  # above a vertex already listed, all are
            off[e] += (o,)
            e -= 1
            o //= width[e]

    landed = Counter()
    first, last = block.start - ss[d], block.stop - ss[d]
    for start in range(first, last, CLIMB_CHUNK):
        level = list(range(start, min(start + CLIMB_CHUNK, last)))
        for e in range(d, 0, -1):
            anchor, w = off[e], width[e - 1]
            # the ray alone (spheres) and one path (Iwahori groups) are the
            # common anchors: testing them by comparison makes sphere 5 at
            # q = 4 climb in 290 us, not 365, and the --len 5 groups of
            # (2, 3) in 150 us, not 180 (in-process, CPython 3.11, 2 vCPU)
            if not anchor:
                climbing = [o // w for o in level if o]
            elif len(anchor) == 1:
                a = anchor[0]
                climbing = [o // w for o in level if o and o != a]
            else:
                climbing = [o // w for o in level if o and o not in anchor]
            if len(climbing) < len(level):
                lo, hi = level[0], level[-1]
                if not lo:
                    landed[ss[e]] += level.count(0)
                for a in anchor:
                    if lo <= a <= hi and (count := level.count(a)):
                        landed[ss[e] + a] += count
            level = climbing
            if not level:
                break
        if level:
            landed[0] += len(level)
    return landed


# -- vertex-stabilizer (spherical) counting ---------------------------------


def spherical_constant(ball: TreeBall, n: int, m: int, k: int) -> int:
    """Count vertices at distance ``n`` from the root and ``m`` from a witness.

    The witness is the marked-ray vertex at depth ``k``; this is the
    structure constant of the radius-``k`` basis element in the product of
    the radius-``n`` and radius-``m`` ones.  Inconsistent parameters (``k``
    outside ``[|n-m|, n+m]`` or of the wrong parity) give 0, not an error.
    """
    if min(n, m, k) < 0:
        raise ValueError("sphere radii must be nonnegative")
    if k > n + m or k < abs(n - m) or (n + m - k) % 2:
        return 0
    if ball.radius < max(n, k):
        raise BallTooSmall(
            f"ball radius {ball.radius} < required {max(n, k)} for ({n},{m},{k})"
        )
    w = ball.ray_vertex(k)
    return sum(1 for v in ball.sphere(n) if distance(ball, v, w) == m)


def spherical_product(ball: TreeBall, n: int, m: int) -> dict:
    """Full structure-constant vector of a sphere-sphere product, by counting.

    Equivalent to ``{k: spherical_constant(ball, n, m, k)}`` over all
    ``k <= n + m`` but in a single pass: with the witness for class ``k``
    sitting on the marked ray at depth ``k``, the distance from a vertex
    ``v`` of the ``n``-sphere to it is determined by the depth at which the
    path from ``v`` to the root meets the ray.  So the vector is read from
    the histogram of those depths over the ``n``-sphere, which does not
    depend on ``m``; it is one anchored climb of the sphere with no witness,
    whose anchor is the marked ray.  The ball's memo keeps it under ``n``, so
    each sphere is measured once and every ``m`` is read from it.
    """
    if min(n, m) < 0:
        raise ValueError("sphere radii must be nonnegative")
    if ball.radius < n + m:
        raise BallTooSmall(f"ball radius {ball.radius} < required {n + m}")
    cache = ball.memo.setdefault("depths", {})
    depths = cache.get(n)
    if depths is None:
        landed = _anchored_climb(ball, ball.sphere(n))
        depths = cache[n] = {ball.depth(x): size for x, size in landed.items()}
    counts: dict = {}
    for c, size in depths.items():
        k = n - m
        if 0 <= k <= c:
            counts[k] = counts.get(k, 0) + size
        k = m - n + 2 * c
        if c < k <= n + m:
            counts[k] = counts.get(k, 0) + size
    return counts


# -- edge-fixator (Weyl distance) counting -----------------------------------


def _crossing_length(de: int, df: int, dc: int) -> int:
    """Length of the crossing word between two edges: :func:`_crossing_word`'s, from its depths.

    The crossed vertices run from the near endpoint of one edge to that of
    the other, and an edge's near endpoint is its child when that is the
    meet, else its parent, one depth up.  The same edge crosses none.
    """
    if de == df == dc:
        return 0
    return de + df - 2 * dc + 1 - (dc != de) - (dc != df)


def _crossing_word(de: int, df: int, dc: int) -> str:
    """Crossing word between two edges, from the depths of their child endpoints and meet.

    ``de`` and ``df`` are the depths of the child endpoints, ``dc`` that of
    their deepest common ancestor (:func:`_meet`).  Its length is
    :func:`_crossing_length`; its first letter is the type of ``e``'s near
    endpoint.
    """
    length = _crossing_length(de, df, dc)
    near_e = de if dc == de else de - 1
    return (("ts" if near_e & 1 else "st") * (length // 2 + 1))[:length]


def weyl_distance(ball: TreeBall, e: int, f: int) -> str:
    """Crossing word of the edge path from ``e`` to ``f``.

    Each step of the path crosses one vertex; even-type vertices contribute
    ``s`` and odd-type vertices ``t``, so the word alternates and its length
    is the edge-graph distance.  The crossed vertices run between the near
    endpoints of the two edges: an edge's child endpoint when that is an
    ancestor of the other edge, else its parent.  So one climb fixes the
    first letter and the length, hence the word.
    """
    return _crossing_word(*_meet(ball, e, f))


def _word_blocks(ball: TreeBall, max_len: int):
    """``(word, start, stop)`` of each crossing-word group of length <= max_len, unbudgeted.

    The derivation is in :func:`edges_by_weyl_word`, which hands the blocks
    out; :func:`_word_table` hands out the one it climbs, and
    :func:`_witness_sides` reads only their first edges.
    """
    ss = ball.sphere_start
    span = 1  # span_d, vertices of sphere d below ray vertex 1
    for d in range(1, max_len + 2):
        if d > 1:
            span *= ball.width[d - 1]
        yield ("ts" * d)[: d - 1], ss[d], ss[d] + span
        if d <= max_len:
            yield ("st" * d)[:d], ss[d] + span, ss[d + 1]


def edges_by_weyl_word(ball: TreeBall, max_len: int) -> dict:
    """Group all edges at crossing-word length <= max_len from the base edge.

    Each group is one block of one sphere, handed out as a ``range``.  The
    crossing word from the base edge (ray vertex 1) to the edge named by a
    child at depth ``d`` depends only on ``d`` and on whether the child lies
    below ray vertex 1.  If it does, the path crosses ray vertex 1 first and
    the word is the ``t...`` word of length ``d - 1``; if not, it crosses the
    root first and the word is the ``s...`` word of length ``d``.  The
    children below ray vertex 1 are the first
    ``span_d = width[1] * ... * width[d-1]`` of sphere ``d``, so the ``t...``
    word of length ``L`` is offsets ``[0, span_{L+1})`` of sphere ``L + 1``,
    the ``s...`` word of length ``L`` is offsets ``[span_L, |sphere L|)`` of
    sphere ``L``, and the empty word is the base edge alone.  Groups come in
    the order in which a scan of all edges would meet them.
    """
    if ball.radius < max_len + 2:
        raise BallTooSmall(
            f"ball radius {ball.radius} < required {max_len + 2} for words of length {max_len}"
        )
    return {
        word: ball._budgeted(start, stop) for word, start, stop in _word_blocks(ball, max_len)
    }


def _check_words(*words: str) -> None:
    """Raise ``ValueError`` unless every word is a crossing word: ``s`` and ``t`` alternating.

    The crossing word of an edge path alternates its two letters, so no
    other word has an edge, a group or a witness; the empty word is the
    base edge's own.
    """
    for word in words:
        if not set(word) <= {"s", "t"} or "ss" in word or "tt" in word:
            raise ValueError(f"{word!r} is not an alternating word in s and t")


def _witness_sides(ball: TreeBall) -> tuple:
    """``(apex, sides)``: what every word table of the ball is counted against, once per ball.

    The witness of a crossing word is the first edge of its group
    (:func:`_word_blocks`).  ``sides`` lists ``((0, word_eg), dg, on_ray)``
    for the witness at every crossing word the ball reaches (length <=
    radius - 2): its result index at flag 0, its depth and whether it lies
    on the marked ray.  The ``t...`` witness of length ``L`` is ray vertex
    ``L + 1``.  The ``s...`` witness of length ``L`` is offset ``span_L``
    of sphere ``L``, whose parent is offset ``span_{L-1}`` of sphere ``L -
    1``: the ``s...`` witness one letter shorter.  So every witness lies on
    one apartment through the base edge, the marked ray together with the
    path from the root to ``apex``, the deepest ``s...`` witness.  Offset
    arithmetic alone, so no budget applies; the ball's memo keeps the pair
    under ``"sides"``.
    """
    kept = ball.memo.get("sides")
    if kept is None:
        reach = ball.radius - 2
        deepest = ("st" * reach)[:reach]
        ss = ball.sphere_start
        sides = []
        for word_eg, g, _ in _word_blocks(ball, reach):
            if word_eg == deepest:
                apex = g
            dg = ball.depth(g)
            sides.append(((0, word_eg), dg, g == ss[dg]))
        kept = ball.memo["sides"] = (apex, sides)
    return kept


def _word_table(ball: TreeBall, word_ef: str) -> dict:
    """Crossing words to every witness over the group at ``word_ef``, by one anchored climb.

    Maps ``word_fg`` to ``{(0, word_eg): count}``: the number of edges
    ``f`` of the group at crossing word ``word_ef`` from the base edge whose
    crossing word to the witness at ``word_eg`` is ``word_fg``, for every
    witness the ball reaches (words of length <= radius - 2), keyed as it
    is counted by the result index of a flag-0 cell.  Only the rows a cell
    can read are kept: :func:`iwahori_product` asks for row ``w2`` of the
    group at ``w1`` only when ``len(w1) + len(w2) <= radius - 2``, so a row
    longer than ``radius - 2 - len(word_ef)`` is dropped; its length is
    worked out (:func:`_crossing_length`) before any word is spelled, so
    only a kept row's word is.  The witnesses lie on one apartment
    (:func:`_witness_sides`), so the group is climbed once, every edge of it
    enumerated, against the deepest ``s...`` witness.  An edge
    landing on the marked ray at depth ``e`` meets a witness on the ray at
    depth ``min(e, dg)``, with ``dg`` the witness's depth, and an ``s...``
    witness at the root; one landing on the path of the ``s...`` witnesses
    at depth ``e`` meets an ``s...`` witness at ``min(e, dg)`` and a witness
    on the ray at the root.  At radius 2 there is no ``s...`` witness: the
    deepest ``s...`` word is then empty, and the climb is against the base
    edge, on the ray.  The witnesses and their sides are found once per
    ball (:func:`_witness_sides`).  Only the group climbed is handed out,
    so only it counts against the budget.
    """
    longest = ball.radius - 2 - len(word_ef)
    block = next(
        ball._budgeted(start, stop)
        for word, start, stop in _word_blocks(ball, len(word_ef))
        if word == word_ef
    )
    apex, sides = _witness_sides(ball)
    ss = ball.sphere_start
    d = ball.depth(block.start)
    table: dict = {}
    for x, count in _anchored_climb(ball, block, apex).items():
        e = ball.depth(x)
        on_ray = x == ss[e]
        for index_eg, dg, ray_witness in sides:
            dc = min(e, dg) if ray_witness == on_ray else 0
            if _crossing_length(d, dg, dc) <= longest:
                row = table.setdefault(_crossing_word(d, dg, dc), {})
                row[index_eg] = row.get(index_eg, 0) + count
    return table


def iwahori_constant(
    ball: TreeBall, w1: str, w2: str, target: str, iflags: tuple = (0, 0, 0)
) -> int:
    """Edge count giving one structure constant of the edge-fixator algebra.

    For the type-preserving basis (all ``iflags`` zero) this counts edges
    ``f`` with crossing word ``w1`` from the base edge and ``w2`` from a
    fixed witness edge at crossing word ``target``.  In the extended algebra
    a one-sided coset is an (edge, type-parity) pair; an index with the
    inversion flag set reaches the same edges through a type-swapped word,
    which is what the ``iflags`` adjustments below implement.

    Every call measures each edge with :func:`weyl_distance`: this is the
    single-constant reference for :func:`iwahori_product`.  Only the group
    at ``w1`` is enumerated, so only it counts against the budget; the
    witness, the first edge of its group (:func:`_word_blocks`), is found
    by offset alone.  Raises ``ValueError`` on a word that is not
    alternating.
    """
    _check_words(w1, w2, target)
    d1, d2, dt = (flag & 1 for flag in iflags)
    if d1 ^ d2 != dt:
        return 0
    if len(target) > len(w1) + len(w2):
        # triangle inequality on the edge metric: no witness can be reached
        return 0
    if ball.radius < len(w1) + len(w2) + 2:
        raise BallTooSmall(
            f"ball radius {ball.radius} < required {len(w1) + len(w2) + 2}"
        )
    # the ball reaches every word up to len(w1) + len(w2), so both groups are nonempty
    blocks = {word: (start, stop) for word, start, stop in _word_blocks(ball, len(w1) + len(w2))}
    g = blocks[swap_types(target) if dt else target][0]
    word = swap_types(w2) if dt else w2
    return sum(
        1
        for f in ball._budgeted(*blocks[swap_types(w1) if d1 else w1])
        if weyl_distance(ball, f, g) == word
    )


def iwahori_product(ball: TreeBall, w1: str, w2: str, iflags: tuple) -> dict:
    """Structure-constant vector of one edge-fixator product, by counting.

    ``iflags`` are the inversion flags of the two factors.  Maps each result
    index, an ``(iflag, word)`` pair like :class:`hecketree.iwahori.DeltaIndex`,
    to ``iwahori_constant(ball, w1, w2, word, (*iflags, iflag))`` and omits
    the zeros.  Every index counted has the flag ``iflags[0] + iflags[1]``
    mod 2, and a word no longer than ``w1`` and ``w2`` together, by the
    triangle inequality on the edge metric.

    All witnesses lie on one apartment (:func:`_witness_sides`), so one climb
    of a word group fixes its crossing words to every witness.  The ball's
    memo keeps that table (:func:`_word_table`) for each word from the base
    edge; its rows are keyed by flag-0 result index as they are counted.  A
    cell with result flag 0 returns row ``w2`` itself.  One with result
    flag 1 reads row ``swap_types(w2)`` keyed ``(1, swap_types(word))``: the
    memo keeps that re-keyed row too, under ``"flipped"``, by ``w2`` within
    the group's word, built on the first read.  Either way the cell returns
    the dict the memo keeps, so the caller reads it and must not change it,
    as it reads a product's terms.  So each group is climbed once per ball,
    every edge of it enumerated, each flag-1 row is re-keyed once, and each
    cell is one lookup.  Raises ``ValueError`` on a word that is not
    alternating: only crossing words reach the memo, so the words are
    checked when the lookup misses.
    """
    d1 = iflags[0] & 1
    word_ef = swap_types(w1) if d1 else w1
    flip = d1 ^ (iflags[1] & 1)
    rows = ball.memo.setdefault("flipped" if flip else "tables", {}).get(word_ef)
    row = None if rows is None else rows.get(w2)
    if row is None:
        # a kept row passed these checks, for words of the same lengths
        _check_words(w1, w2)
        bound = len(w1) + len(w2)
        if ball.radius < bound + 2:
            raise BallTooSmall(f"ball radius {ball.radius} < required {bound + 2}")
        tables = ball.memo.setdefault("tables", {})
        table = tables.get(word_ef)
        if table is None:
            table = tables[word_ef] = _word_table(ball, word_ef)
        # a row the table lacks is a new empty dict; the memo keeps only a re-keyed one
        row = table.get(swap_types(w2) if flip else w2, {})
        if flip:
            row = {(1, swap_types(word)): count for (_, word), count in row.items()}
            ball.memo["flipped"].setdefault(word_ef, {})[w2] = row
    return row


# -- end-stabilizer (horocycle) counting ---------------------------------------


def horocycle_class(ball: TreeBall, u: int, v: int) -> int:
    """Confluence distance of two vertices on a common horocycle.

    Both rays toward the ball's marked end eventually merge; the class is
    the distance from either vertex to the merge point.  The ray from a
    vertex climbs to its deepest marked-ray ancestor, at depth ``c``
    (:func:`ray_confluence_depth`), then runs down the marked ray.  If the
    deepest common ancestor of ``u`` and ``v`` is off the marked ray, the two
    rays merge there; otherwise they merge at the marked-ray vertex of depth
    ``max(cu, cv)``.  Raises :class:`HorocycleMismatch` when the two
    distances differ, i.e. the vertices sit on different horocycles.
    """
    du, dv, dc = _meet(ball, u, v)
    cu = ray_confluence_depth(ball, u)
    if dc > cu:
        n_u, n_v = du - dc, dv - dc
    else:
        cv = ray_confluence_depth(ball, v)
        top = max(cu, cv)
        n_u, n_v = du + top - 2 * cu, dv + top - 2 * cv
    if n_u != n_v:
        raise HorocycleMismatch(
            f"vertices {u} and {v} lie on different horocycles ({n_u} != {n_v})"
        )
    return n_u


def _class_bounds(ball: TreeBall, n: int) -> tuple:
    """First vertex and stop of horocycle class ``n``, by offset arithmetic.

    Class 0 is the root.  Class ``n > 0`` is the vertices of sphere ``2n``
    whose ancestor at depth ``n`` is on the marked ray and whose ancestor
    at depth ``n + 1`` is not: with ``span = width[n+1] * ... *
    width[2n-1]`` vertices of sphere ``2n`` below each vertex of sphere
    ``n + 1``, that is the block of offsets ``[span, width[n] * span)``
    within the sphere.  Its first vertex is the first below offset 1 of
    sphere ``n + 1``, so its path leaves the marked ray at depth ``n``.
    """
    if n == 0:
        return 0, 1
    span = prod(ball.width[n + 1 : 2 * n])
    start = ball.sphere_start[2 * n]
    return start + span, start + ball.width[n] * span


def horocycle_members(ball: TreeBall, n: int) -> range:
    """Vertices on the root's horocycle at confluence distance ``n``, as a contiguous range.

    The range is :func:`_class_bounds`, checked against the ball's radius
    and budget; class 0, the root alone, is checked like every other class,
    so a budget of 0 refuses it.
    """
    if ball.radius < 2 * n:
        raise BallTooSmall(f"ball radius {ball.radius} < required {2 * n}")
    return ball._budgeted(*_class_bounds(ball, n))


def _horocycle_witnesses(ball: TreeBall, reach: int) -> list:
    """The first member of each horocycle class ``k <= reach``, by offset arithmetic.

    Equals ``horocycle_members(ball, k)[0]`` for each ``k`` but hands out no
    block, so no budget applies (:func:`_class_bounds`).  The witness of
    class ``k > 0`` leaves the marked ray at depth ``k``, so together with
    the ray the witnesses' paths form a comb: one tooth per class, tooth
    ``k`` hanging from ray vertex ``k`` down to depth ``2k``, and no two
    teeth share a vertex.
    """
    return [_class_bounds(ball, k)[0] for k in range(reach + 1)]


def _class_histograms(ball: TreeBall, block: range, reach: int) -> list:
    """Confluence classes from each comb witness over the vertices of ``block``, by one climb.

    Item ``k`` equals ``Counter(horocycle_class(ball, v, w) for v in
    block)``, with ``w`` the witness of class ``k <= reach``
    (:func:`_horocycle_witnesses`), and, like it, sums to ``len(block)``;
    a vertex of the block off the root's horocycle, which holds every
    witness, raises :class:`HorocycleMismatch`.  The block, at depth ``d``,
    is climbed once against the comb (:func:`_anchored_climb`), and every
    class is read from depths.  A vertex whose landing vertex at depth
    ``e`` leaves the marked ray at depth ``c`` lies on the root's horocycle
    exactly when ``d == 2c``.  Its landing lies on the path of witness ``c``, on
    the ray or on tooth ``c`` off it, so the two meet there, and their rays
    toward the marked end merge there or, if it is on the ray, at ray
    vertex ``c``: class ``d - e``.  Any other witness ``k`` leaves the ray
    elsewhere, so the two meet on the ray, and their rays merge at ray
    vertex ``max(c, k)``: class ``max(c, k)``.
    """
    d = ball.depth(block.start)
    histograms = [Counter() for _ in range(reach + 1)]
    for x, count in _anchored_climb(ball, block, *_horocycle_witnesses(ball, reach)).items():
        c = ray_confluence_depth(ball, x)
        if d != 2 * c:
            raise HorocycleMismatch(
                f"{count} vertices of {block} lie off the root's horocycle ({d - c} != {c})"
            )
        e = ball.depth(x)
        for k, classes in enumerate(histograms):
            classes[d - e if k == c else max(c, k)] += count
    return histograms


def horocycle_constant(ball: TreeBall, m: int, n: int, k: int) -> int:
    """Count horocycle points at class ``m`` from the root and ``n`` from a witness.

    The witness is the first vertex at class ``k`` from the root; the count
    is the structure constant of the class-``k`` basis element in the
    product of the class-``m`` and class-``n`` ones.  Every call measures
    each member with :func:`horocycle_class`: this is the single-constant
    reference for :func:`horocycle_product`.
    """
    if min(m, n, k) < 0:
        raise ValueError("horocycle classes must be nonnegative")
    bound = 2 * max(m, n, k) + 2
    if ball.radius < bound:
        raise BallTooSmall(f"ball radius {ball.radius} < required {bound}")
    w = horocycle_members(ball, k)[0]
    return sum(1 for v in horocycle_members(ball, m) if horocycle_class(ball, v, w) == n)


def horocycle_product(ball: TreeBall, m: int, n: int) -> dict:
    """Structure-constant vector of one horocycle-class product, by counting.

    Maps each class ``k <= max(m, n)`` to ``horocycle_constant(ball, m, n,
    k)`` and omits the zeros.  Deeper classes are not counted: the
    confluence distance is an ultrametric, so a witness beyond ``max(m, n)``
    cannot be reached.  The witnesses of every class the ball reaches lie
    on one comb (:func:`_horocycle_witnesses`), found by offset arithmetic,
    so the class-``m`` members are climbed once against all of them.  The
    ball's memo keeps, under ``m``, one histogram of confluence classes per
    comb witness (:func:`_class_histograms`), so each class block is measured
    once per ball, every vertex of it enumerated, and every ``n`` and ``k``
    is read from it; only the blocks of the classes asked for are handed
    out, so only they count against the budget.
    """
    if min(m, n) < 0:
        raise ValueError("horocycle classes must be nonnegative")
    top = max(m, n)
    if ball.radius < 2 * top + 2:
        raise BallTooSmall(f"ball radius {ball.radius} < required {2 * top + 2}")
    cache = ball.memo.setdefault("classes", {})
    histograms = cache.get(m)
    if histograms is None:
        block = horocycle_members(ball, m)
        histograms = cache[m] = _class_histograms(ball, block, (ball.radius - 2) // 2)
    counts: dict = {}
    for k in range(top + 1):
        count = histograms[k][n]
        if count:
            counts[k] = count
    return counts
