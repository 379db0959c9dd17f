"""Verification sweeps: every route of a family compared on every cell, exactly.

The routes are the closed form, the generator or recursive route and,
where a tree model exists, tree counting; sl2 has none, and compares its
two routes point by point in the Prüfer group.  Each family declares its
routes once, in its ``<family>_routes`` function: an algebra constructor
and named makers.  A maker takes the sweep's algebra, does its route's own
setup (the oracle's ball and budget check, the affine normal forms) and
returns the route's function of one cell, which returns ``None`` where the
route has no model.  :func:`_sweep`, the one driver, runs these
declarations, as ``tests/test_route_independence.py`` does, compares whole
route columns with the first route's, which has a vector on every cell,
and counts in ``report.route_cells`` the cells each route was compared on.
Routes read ``tree``, ``nf_to_m`` and ``orbit_convolution`` through this
module as they run, so a patched name is the one called.  Reports list all
mismatching cells, in cell order, with the values from each route and the
``hecketree mul`` command that replays the cell; an empty mismatch list is
the pass condition.  Each sweep states its parameters once, as the report's
``params`` keyed by the CLI's option names, and the replay line's options
are those entries but the extent (the spherical report alone names its
parameters otherwise, so its sweep passes its replay options itself).

One rule holds for every route: it hands over the term dict it keeps, one
per cell, uncopied, which the sweep only reads, and builds an element only
where element arithmetic is the route, in affine ``normal-form``.  The
spherical closed, Iwahori generated and affine table routes are
``basis_terms`` itself, the spherical recursive and Iwahori closed routes
``recursive_terms`` and ``closed_terms``, and the sl2 orbit route spreads
the ``basis_terms`` dict over each orbit.  The tree oracle reads each
cell's vector from histograms kept in the memo of the sweep's ball, each
measured once per sweep: a new dict or, for an Iwahori cell, the row the
ball keeps (at result flag 1 re-keyed on its first read).  Spherical
counts are keyed by distance (re-keyed by index only in two-orbit mode),
horocycle counts by class, and Iwahori counts by ``(iflag, word)`` tuples,
which compare and hash as the equal :class:`DeltaIndex` keys of the other
routes; a mismatch report labels them as they are, since
:func:`iwahori.index_label` takes any such pair.  Structure constants are
checked once, where the product cache admits them
(:func:`core.structure_constants`), and every sweep compares each route
with one that reads that cache, so a non-integral or negative value in any
route is an ordinary mismatch: the report prints an ``int`` as a number
and any other coefficient as its ``str`` (``"1/2"``).
"""

from __future__ import annotations

import itertools

from . import tree
from .endstab import HorocycleAlgebra, m_to_nf, nf_to_m
from .iwahori import IwahoriAlgebra
from .sl2 import PruferElement, SL2EndAlgebra, orbit_convolution
from .spherical import HOMOGENEOUS, SphericalAlgebra, SphericalParams

#: The most Prüfer additions a ``verify sl2`` sweep may make, p^(2 max):
#: ``verify sl2 --p 11 --max 3`` makes 1,771,561, as int additions, in about
#: 0.3 s (Python 3.11, one core of a shared 2-vCPU host).
MAX_SL2_SWEEP_ADDITIONS = 2_000_000


class VerifyReport:
    """A sweep's result, filled in as it runs, so not hashable: cells checked, mismatches.

    ``route_cells`` maps each route to the cells it was compared on; it is
    not part of :meth:`to_json`.
    """

    def __init__(self, family: str, params: dict, cells: int = 0, mismatches: list | None = None):
        self.family = family
        self.params = params
        self.cells = cells
        self.mismatches = [] if mismatches is None else mismatches
        self.route_cells = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_json() == other.to_json()

    def __repr__(self):
        return (
            f"VerifyReport(family={self.family!r}, params={self.params!r},"
            f" cells={self.cells!r}, mismatches={self.mismatches!r})"
        )

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "cells": self.cells,
            "mismatches": self.mismatches,
            "ok": self.ok,
        }


def _route_json(label, routes: dict) -> dict:
    """The route vectors as JSON: an ``int`` is a number, any other coefficient its ``str``."""
    return {
        name: {
            label(idx): coeff if type(coeff) is int else str(coeff)
            for idx, coeff in sorted(vec.items())
        }
        for name, vec in routes.items()
    }


def _flags(values: dict) -> list:
    """``--name value`` tokens for the ``hecketree mul`` replay of a cell, one per entry."""
    return [token for name, value in values.items() for token in (f"--{name}", str(value))]


#: ``CELLS[family](algebra, extent)``: the cells ``(a, b)`` of the family's
#: sweep, in order, which ``hecketree table`` also prints.  Spherical takes
#: ``n <= m`` only, since that algebra commutes.
CELLS = {
    "spherical": lambda algebra, top: ((n, m) for n in range(top + 1) for m in range(n, top + 1)),
    "iwahori": lambda algebra, top: itertools.product(algebra.words_up_to(top), repeat=2),
    "affine": lambda algebra, top: itertools.product(range(top + 1), repeat=2),
    "sl2": lambda algebra, top: itertools.product(algebra.cosets_up_to_depth(top), repeat=2),
}


def _agrees(first: list, column: list, gaps: int) -> bool:
    """Whether ``column`` equals ``first`` on every cell where it holds a vector.

    ``gaps`` counts the cells where ``column`` holds ``None``.  With none,
    this is one list equality.
    """
    if gaps:
        first = [None if vec is None else ref for ref, vec in zip(first, column)]
    return column == first


def _sweep(family: str, params: dict, routes: tuple, replay=None, label=None) -> VerifyReport:
    """Compare the declared ``routes`` on every cell of ``CELLS[family]`` up to the extent.

    ``params`` is the report's, keyed by the CLI's option names, with the
    extent as its last entry.  The other entries are the options of the
    ``hecketree mul`` replay line of a mismatching cell (:func:`_flags`),
    unless ``replay`` gives them, as the spherical sweep does.

    ``routes`` is a ``<family>_routes`` declaration: ``(algebra, makers)``.
    Every route is made before the cells are listed, so each fails on its
    budget before any cell.  Each route then runs over all the cells into
    a column of the dicts it hands over (``basis_terms``, ``recursive_terms``,
    ``closed_terms``, an oracle row; elements only in affine ``normal-form``),
    and each later column is compared with the first route's
    (:func:`_agrees`): faster than taking the routes in turn on each cell,
    at the cost of keeping every vector of the sweep at once (``verify sl2
    --p 11 --max 3`` peaks 1.4 MiB higher).  The comparison is sound
    whichever route returns ``None``: a cell where only the first does is
    a disagreement.  Only when a column disagrees are the cells walked in
    order, each compared across the routes that return a vector there, to
    list the mismatches.  ``label`` names the keys of the route vectors
    (default ``algebra.basis_label``).
    """
    *options, (_, extent) = params.items()
    replay = dict(options) if replay is None else replay
    make_algebra, makers = routes
    algebra = make_algebra()
    label = algebra.basis_label if label is None else label
    made = {name: make(algebra) for name, make in makers.items()}
    cells = list(CELLS[family](algebra, extent))
    columns = [[route(a, b) for a, b in cells] for route in made.values()]
    report = VerifyReport(family=family, params=params, cells=len(cells))
    gaps = [col.count(None) for col in columns]
    report.route_cells = {name: len(cells) - n for name, n in zip(made, gaps)}
    if all(_agrees(columns[0], col, n) for col, n in zip(columns[1:], gaps[1:])):
        return report
    for (a, b), *vectors in zip(cells, *columns):
        first, *rest = [vec for vec in vectors if vec is not None]
        if rest.count(first) != len(rest):
            import shlex  # only a failing sweep needs it; importing costs 0.1 MiB resident

            key = [algebra.basis_label(a), algebra.basis_label(b)]
            compared = {name: vec for name, vec in zip(made, vectors) if vec is not None}
            report.mismatches.append(
                {
                    "key": key,
                    "routes": _route_json(label, compared),
                    "replay": shlex.join(["hecketree", "mul", family, *key, *_flags(replay)]),
                }
            )
    return report


def spherical_routes(
    params: SphericalParams, max_index: int, max_vertices: int = tree.DEFAULT_MAX_VERTICES
) -> tuple:
    """Closed form, generator recursion and sphere counting, cells up to ``max_index``."""
    step = params.step

    def oracle(algebra):
        ball = tree.build_ball(params.q0, params.q1, 2 * step * max_index, max_vertices)
        ball.sphere(step * max_index)  # the deepest sphere counted: fail on its budget first

        def cell(n, m):
            counts = tree.spherical_product(ball, step * n, step * m)
            # keyed by distance, which is the basis index in homogeneous mode
            return counts if step == 1 else {k // step: c for k, c in counts.items()}

        return cell

    return lambda: SphericalAlgebra(params), {
        "closed": lambda algebra: algebra.basis_terms,
        "recursive": lambda algebra: algebra.recursive_terms,
        "oracle": oracle,
    }


def iwahori_routes(
    qs: int, qt: int, max_len: int, max_vertices: int = tree.DEFAULT_MAX_VERTICES
) -> tuple:
    """Generator rewriting, closed form and edge counting, word pairs up to ``max_len``.

    The inversion-decorated sector is oracle-checked only when qs == qt: a
    type-exchanging automorphism forces equal branching at the two vertex
    types, so for unequal weights those indices have no edge model (and the
    formal rewriting on them is not even associative).  Plain-word pairs are
    checked three ways at any parameters; decorated pairs at unequal weights
    are still checked along both algebraic routes.

    All Iwahori witnesses lie on one apartment through the base edge, so
    the oracle (:func:`tree.iwahori_product`) climbs each word group of
    length <= max_len once, enumerating every edge of it, and reads each
    cell from that group's table; the budget is checked on those groups
    before the first cell.
    """

    def oracle(algebra):
        ball = tree.build_ball(qs, qt, 2 * max_len + 2, max_vertices)
        tree.edges_by_weyl_word(ball, max_len)  # every word group climbed: fail on its budget
        decorated = qs == qt

        def cell(a, b):
            if decorated or a.iflag == b.iflag == 0:
                return tree.iwahori_product(ball, a.word, b.word, (a.iflag, b.iflag))
            return None

        return cell

    return lambda: IwahoriAlgebra(qs, qt), {
        "generated": lambda algebra: algebra.basis_terms,
        "closed": lambda algebra: algebra.closed_terms,
        "oracle": oracle,
    }


def affine_routes(
    q: int, max_index: int, max_vertices: int = tree.DEFAULT_MAX_VERTICES
) -> tuple:
    """M-table, normal-form expansion and horocycle counting, classes up to ``max_index``.

    The oracle vector of a cell covers classes up to max(m, n)
    (:func:`tree.horocycle_product`): the confluence distance is an
    ultrametric, so a witness at a deeper class cannot be reached and those
    counts vanish identically (spot-checked separately in the tests).  The
    witnesses of all classes hang off the marked ray as one comb, so the
    oracle climbs each class block once, against every witness, enumerating
    every member of it: ``max_index + 1`` climbs per sweep.  Each class is
    converted to normal form once per sweep, not once per cell.
    """

    def normal_form(algebra):
        forms = [m_to_nf(algebra, n) for n in range(max_index + 1)]
        return lambda m, n: nf_to_m(forms[m] * forms[n])._terms

    def oracle(algebra):
        ball = tree.build_ball(q, q, 2 * max_index + 2, max_vertices)
        tree.horocycle_members(ball, max_index)  # the largest class counted: fail on its budget
        return lambda m, n: tree.horocycle_product(ball, m, n)

    return lambda: HorocycleAlgebra(q), {
        "table": lambda algebra: algebra.basis_terms,
        "normal-form": normal_form,
        "oracle": oracle,
    }


def sl2_routes(p: int, max_depth: int) -> tuple:
    """Representative counting vs. the full orbit convolution, cosets of depth <= max_depth.

    Both routes give the product in the Prüfer group algebra, one count per
    point: ``orbit`` spreads each structure constant of ``basis_terms``
    over the points of its orbit, ``convolution`` adds every pair of orbit
    members.  A convolution count that varies within an orbit, or a point
    deeper than both operands, is then a mismatch.  The convolution makes
    ``p^(2 max_depth)`` additions, one per pair of points of depth <=
    ``max_depth``, and a sweep over :data:`MAX_SL2_SWEEP_ADDITIONS` exits
    before any work; the ``nu`` table of the same depth makes one addition
    per member of the smaller orbit of each cell.
    """

    def convolution(algebra):
        algebra.check_depth(max_depth)  # the depth's own limits are reported first
        additions = p ** (2 * max_depth)
        if additions > MAX_SL2_SWEEP_ADDITIONS:
            raise ValueError(
                f"verify sl2 at p = {p} and max {max_depth} makes {additions:,} additions,"
                f" over the limit of {MAX_SL2_SWEEP_ADDITIONS:,}"
            )
        return lambda a, b: orbit_convolution(a, b)

    return lambda: SL2EndAlgebra(p), {
        "orbit": lambda algebra: lambda a, b: {
            g: coeff for c, coeff in algebra.basis_terms(a, b).items() for g in c.members
        },
        "convolution": convolution,
    }


def verify_spherical(
    params: SphericalParams,
    max_index: int,
    max_vertices: int = tree.DEFAULT_MAX_VERTICES,
) -> VerifyReport:
    """Closed form vs. generator recursion vs. sphere counting, all pairs up to max_index."""
    return _sweep(
        "spherical",
        {"mode": params.mode, "q0": params.q0, "q1": params.q1, "max": max_index},
        spherical_routes(params, max_index, max_vertices),
        {"q": params.q0} if params.mode == HOMOGENEOUS else {"q0": params.q0, "q1": params.q1},
    )


def verify_iwahori(
    qs: int,
    qt: int,
    max_len: int,
    max_vertices: int = tree.DEFAULT_MAX_VERTICES,
) -> VerifyReport:
    """Generator rewriting vs. closed form vs. edge counting, word pairs up to max_len."""
    return _sweep(
        "iwahori",
        {"qs": qs, "qt": qt, "len": max_len},
        iwahori_routes(qs, qt, max_len, max_vertices),
    )


def verify_affine(
    q: int,
    max_index: int,
    max_vertices: int = tree.DEFAULT_MAX_VERTICES,
) -> VerifyReport:
    """M-table vs. normal-form expansion vs. horocycle counting, classes up to max_index."""
    return _sweep("affine", {"q": q, "max": max_index}, affine_routes(q, max_index, max_vertices))


def verify_sl2(p: int, max_depth: int) -> VerifyReport:
    """Representative counting vs. the full orbit convolution, cosets of depth <= max_depth."""
    return _sweep(
        "sl2", {"p": p, "max": max_depth}, sl2_routes(p, max_depth), label=PruferElement.label
    )
