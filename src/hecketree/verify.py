"""Verification sweeps: every route of a family compared, cell by cell, exactly.

The routes are the closed form, the generator or recursive route and,
where a tree model exists, tree counting; sl2 has none, and compares its
two routes point by point in the Prüfer group.  Each family declares its
routes once, in its ``<family>_routes`` function: an algebra constructor
and named makers.  A maker takes the sweep's algebra, does its route's own
setup (the oracle's ball and budget check, the affine normal forms) and
returns the route's function of one cell, which returns ``None`` where the
route has no model.  :func:`_sweep`, the one driver, runs these
declarations, as ``tests/test_route_independence.py`` does, and counts in
``report.route_cells`` the cells each route was compared on.  Routes read
``tree``, ``nf_to_m`` and ``orbit_convolution`` through this module as they
run, so a patched name is the one called.  Reports list all mismatching
cells, in cell order, with the values from each route and the ``hecketree
mul`` command that replays the cell; an empty mismatch list is the pass
condition.

Each route hands over the term dict it made or kept, one per cell,
uncopied, and the sweep compares them as they are.  Structure constants
are checked once, where the product cache admits them
(:func:`core.structure_constants`), and every sweep compares each route
with one that reads that cache, so a non-integral or negative value in
any route is an ordinary mismatch: the report prints an ``int`` as a
number and any other coefficient as its ``str`` (``"1/2"``).  The tree
oracle reads each cell's vector from histograms kept in the memo of the
sweep's ball, each measured once per sweep, and returns it fresh:
spherical counts keyed by distance (re-keyed by index only in two-orbit
mode), horocycle counts keyed by class, and Iwahori counts keyed by
``(iflag, word)`` tuples, which compare and hash as the equal
:class:`DeltaIndex` keys of the other routes; only a mismatch report turns
them into :class:`DeltaIndex`, to label them.
"""

from __future__ import annotations

import itertools

from . import tree
from .endstab import HorocycleAlgebra, m_to_nf, nf_to_m
from .iwahori import DeltaIndex, IwahoriAlgebra, index_label
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


def _flags(**values) -> list:
    """``--name value`` tokens for the ``hecketree mul`` replay of a cell."""
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


def _sweep(
    family: str, params: dict, extent: int, routes: tuple, mul_flags: list, label=None
) -> VerifyReport:
    """Compare the declared ``routes`` on every cell of ``CELLS[family]`` up to ``extent``.

    ``routes`` is a ``<family>_routes`` declaration: ``(algebra, makers)``.
    Every route is made before the cells are listed, so each fails on its
    budget before any cell.  Each route then runs over all the cells and
    the cells are compared in order: faster than taking the routes in turn
    on each cell, at the cost of keeping every vector of the sweep at once
    (``verify sl2 --p 11 --max 3`` peaks 1.4 MiB higher).  ``label`` names
    the keys of the route vectors (default ``algebra.basis_label``);
    ``mul_flags`` completes the ``hecketree mul`` replay line of a
    mismatching cell.
    """
    make_algebra, makers = routes
    algebra = make_algebra()
    label = algebra.basis_label if label is None else label
    made = {name: make(algebra) for name, make in makers.items()}
    cells = list(CELLS[family](algebra, extent))
    columns = [[route(a, b) for a, b in cells] for route in made.values()]
    report = VerifyReport(family=family, params=params, cells=len(cells))
    report.route_cells = {name: len(cells) - col.count(None) for name, col in zip(made, columns)}
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
                    "replay": shlex.join(["hecketree", "mul", family, *key, *mul_flags]),
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
        "closed": lambda algebra: lambda n, m: algebra.multiply_closed(n, m)._terms,
        "recursive": lambda algebra: lambda n, m: algebra.multiply_recursive(n, m)._terms,
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
        "generated": lambda algebra: lambda a, b: algebra.multiply_basis(a, b)._terms,
        "closed": lambda algebra: lambda a, b: algebra.multiply_closed(a, b)._terms,
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
        "table": lambda algebra: lambda m, n: algebra.multiply_basis(m, n)._terms,
        "normal-form": normal_form,
        "oracle": oracle,
    }


def sl2_routes(p: int, max_depth: int) -> tuple:
    """Representative counting vs. the full orbit convolution, cosets of depth <= max_depth.

    Both routes give the product in the Prüfer group algebra, one count per
    point: ``orbit`` spreads each structure constant of ``multiply_basis``
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
            g: coeff for c, coeff in algebra.multiply_basis(a, b).items() for g in c.members
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
        max_index,
        spherical_routes(params, max_index, max_vertices),
        (
            _flags(q=params.q0)
            if params.mode == HOMOGENEOUS
            else _flags(q0=params.q0, q1=params.q1)
        ),
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
        max_len,
        iwahori_routes(qs, qt, max_len, max_vertices),
        _flags(qs=qs, qt=qt),
        label=lambda idx: index_label(DeltaIndex._make(idx)),
    )


def verify_affine(
    q: int,
    max_index: int,
    max_vertices: int = tree.DEFAULT_MAX_VERTICES,
) -> VerifyReport:
    """M-table vs. normal-form expansion vs. horocycle counting, classes up to max_index."""
    return _sweep(
        "affine", {"q": q, "max": max_index}, max_index,
        affine_routes(q, max_index, max_vertices), _flags(q=q),
    )


def verify_sl2(p: int, max_depth: int) -> VerifyReport:
    """Representative counting vs. the full orbit convolution, cosets of depth <= max_depth."""
    return _sweep(
        "sl2", {"p": p, "max": max_depth}, max_depth, sl2_routes(p, max_depth), _flags(p=p),
        label=PruferElement.label,
    )
