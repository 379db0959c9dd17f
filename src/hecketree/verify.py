"""Three-way verification sweeps: closed forms vs. independent routes vs. tree counting.

Each sweep multiplies out a block of basis pairs along every implemented
route and compares the structure-constant vectors exactly.  Reports list all
mismatching cells, in cell order, with the values from each route and the
``hecketree mul`` command that replays the cell; an empty mismatch list is
the pass condition.  The tree oracle returns each cell's whole vector in one
call, read from histograms kept in the memo of the sweep's ball, so each is
measured once per sweep and shared between cells.  The SL2 sweep has no
tree model: it compares its two routes point by point in the Prüfer group.

Each route hands over the term dict it made or kept, one per cell,
uncopied, and the sweep compares them as they are.  Structure constants
are checked once, where the product cache admits them
(:func:`core.structure_constants`), and every sweep compares each route
with one that reads that cache, so a non-integral or negative value in
any route is an ordinary mismatch: the report prints an ``int`` as a
number and any other coefficient as its ``str`` (``"1/2"``).  The tree
oracle's vector is fresh: spherical counts keyed by distance (re-keyed by
index only in two-orbit mode), horocycle counts keyed by class, and
Iwahori counts keyed by ``(iflag, word)`` tuples, which compare and hash
as the equal :class:`DeltaIndex` keys of the other routes; only a
mismatch report turns them into :class:`DeltaIndex`, to label them.
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
    """A sweep's result, filled in as it runs, so not hashable: cells checked, mismatches."""

    def __init__(self, family: str, params: dict, cells: int = 0, mismatches: list | None = None):
        self.family = family
        self.params = params
        self.cells = cells
        self.mismatches = [] if mismatches is None else mismatches

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
    family: str, params: dict, algebra, cells, routes, mul_flags: list, label=None
) -> VerifyReport:
    """Compare the named route vectors ``routes(a, b)`` on every cell ``(a, b)``.

    ``label`` names the keys of the route vectors (default
    ``algebra.basis_label``); ``mul_flags`` completes the ``hecketree mul``
    replay line of a mismatching cell.
    """
    label = algebra.basis_label if label is None else label
    report = VerifyReport(family=family, params=params)
    for a, b in cells:
        report.cells += 1
        vectors = routes(a, b)
        first, *rest = vectors.values()
        if rest.count(first) != len(rest):
            import shlex  # only a failing sweep needs it; importing costs 0.1 MiB resident

            key = [algebra.basis_label(a), algebra.basis_label(b)]
            report.mismatches.append(
                {
                    "key": key,
                    "routes": _route_json(label, vectors),
                    "replay": shlex.join(["hecketree", "mul", family, *key, *mul_flags]),
                }
            )
    return report


def verify_spherical(
    params: SphericalParams,
    max_index: int,
    max_vertices: int = tree.DEFAULT_MAX_VERTICES,
) -> VerifyReport:
    """Closed form vs. generator recursion vs. sphere counting, all pairs up to max_index."""
    algebra = SphericalAlgebra(params)
    step = params.step
    ball = tree.build_ball(params.q0, params.q1, 2 * step * max_index, max_vertices)
    ball.sphere(step * max_index)  # the deepest sphere counted: fail on its budget first

    def routes(n, m):
        oracle = tree.spherical_product(ball, step * n, step * m)
        return {
            "closed": algebra.multiply_closed(n, m)._terms,
            "recursive": algebra.multiply_recursive(n, m)._terms,
            # keyed by distance, which is the basis index in homogeneous mode
            "oracle": oracle if step == 1 else {k // step: c for k, c in oracle.items()},
        }

    return _sweep(
        "spherical",
        {"mode": params.mode, "q0": params.q0, "q1": params.q1, "max": max_index},
        algebra,
        CELLS["spherical"](algebra, max_index),
        routes,
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
    """Generator rewriting vs. closed form vs. edge counting, word pairs up to max_len.

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
    before the first cell.  Its keys stay ``(iflag, word)`` tuples, which
    compare and hash as the equal :class:`DeltaIndex` keys of the other
    routes; a mismatch report turns every key into a :class:`DeltaIndex`
    to label it.
    """
    algebra = IwahoriAlgebra(qs, qt)
    ball = tree.build_ball(qs, qt, 2 * max_len + 2, max_vertices)
    tree.edges_by_weyl_word(ball, max_len)  # every word group climbed: fail on its budget
    oracle_decorated = qs == qt

    def routes(a, b):
        vectors = {
            "generated": algebra.multiply_basis(a, b)._terms,
            "closed": algebra.multiply_closed(a, b)._terms,
        }
        if oracle_decorated or (a.iflag == b.iflag == 0):
            vectors["oracle"] = tree.iwahori_product(ball, a.word, b.word, (a.iflag, b.iflag))
        return vectors

    return _sweep(
        "iwahori",
        {"qs": qs, "qt": qt, "len": max_len},
        algebra,
        CELLS["iwahori"](algebra, max_len),
        routes,
        _flags(qs=qs, qt=qt),
        label=lambda idx: index_label(DeltaIndex._make(idx)),
    )


def verify_affine(
    q: int,
    max_index: int,
    max_vertices: int = tree.DEFAULT_MAX_VERTICES,
) -> VerifyReport:
    """M-table vs. normal-form expansion vs. horocycle counting, classes up to max_index.

    The oracle vector of a cell covers classes up to max(m, n)
    (:func:`tree.horocycle_product`): the confluence distance is an
    ultrametric, so a witness at a deeper class cannot be reached and those
    counts vanish identically (spot-checked separately in the tests).  The
    witnesses of all classes hang off the marked ray as one comb, so the
    oracle climbs each class block once, against every witness, enumerating
    every member of it: ``max_index + 1`` climbs per sweep.  Each class is
    converted to normal form once per sweep, not once per cell.
    """
    algebra = HorocycleAlgebra(q)
    ball = tree.build_ball(q, q, 2 * max_index + 2, max_vertices)
    tree.horocycle_members(ball, max_index)  # the largest class counted: fail on its budget
    normal_forms = [m_to_nf(algebra, n) for n in range(max_index + 1)]

    def routes(m, n):
        return {
            "table": algebra.multiply_basis(m, n)._terms,
            "normal-form": nf_to_m(normal_forms[m] * normal_forms[n])._terms,
            "oracle": tree.horocycle_product(ball, m, n),
        }

    return _sweep(
        "affine",
        {"q": q, "max": max_index},
        algebra,
        CELLS["affine"](algebra, max_index),
        routes,
        _flags(q=q),
    )


def verify_sl2(p: int, max_depth: int) -> VerifyReport:
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
    algebra = SL2EndAlgebra(p)
    algebra.check_depth(max_depth)
    additions = p ** (2 * max_depth)
    if additions > MAX_SL2_SWEEP_ADDITIONS:
        raise ValueError(
            f"verify sl2 at p = {p} and max {max_depth} makes {additions:,} additions,"
            f" over the limit of {MAX_SL2_SWEEP_ADDITIONS:,}"
        )

    def routes(a, b):
        return {
            "orbit": {
                g: coeff
                for c, coeff in algebra.multiply_basis(a, b).items()
                for g in c.members
            },
            "convolution": orbit_convolution(a, b),
        }

    return _sweep(
        "sl2",
        {"p": p, "max": max_depth},
        algebra,
        CELLS["sl2"](algebra, max_depth),
        routes,
        _flags(p=p),
        label=PruferElement.label,
    )
