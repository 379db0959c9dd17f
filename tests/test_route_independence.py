"""Route independence: the routes a ``verify`` sweep compares share no code.

A sweep is evidence only while its routes are separate code paths.  Here
each route of each sweep runs on its own, at a small extent, with a fresh
algebra, a fresh ball and emptied module caches, under ``sys.setprofile``,
which collects the hecketree functions it enters.  Every route restates the
expression its sweep in ``verify.py`` evaluates for a cell.  Two routes of a
family may share only ``core.py`` (elements, ``multiply_basis`` and the
product cache, shared by design) and the functions of that family's
allowlist in ``SHARED``.  Since each route has an algebra of its own, a
route that reached another route's ``_basis_product`` through ``core``
would enter it, and fail here.
"""

import itertools
import sys
import types
from pathlib import Path

import pytest

import hecketree
from hecketree import cli, core, endstab, iwahori, ktheory, sl2, spherical, tree, verify
from hecketree.endstab import HorocycleAlgebra, m_to_nf, nf_to_m
from hecketree.iwahori import IwahoriAlgebra
from hecketree.sl2 import SL2EndAlgebra, orbit_convolution
from hecketree.spherical import SphericalAlgebra, SphericalParams

MODULES = (cli, core, endstab, iwahori, ktheory, sl2, spherical, tree, verify)
PACKAGE = str(Path(hecketree.__file__).parent)


def _function(obj):
    """The plain function behind a method, property or cache wrapper, else None."""
    while not isinstance(obj, types.FunctionType):
        attrs = [a for a in ("__wrapped__", "__func__", "fget", "func") if hasattr(obj, a)]
        if not attrs:
            return None
        obj = getattr(obj, attrs[0])
    return obj


def _code_names() -> dict:
    """Code object -> ``module.qualname`` of each hecketree function.

    Nested code (closures, comprehensions) is named after its enclosing
    function, as the qualified name of a code object needs Python 3.11.
    """
    names = {}

    def visit(code, name):
        names[code] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                visit(const, name)

    for module in MODULES:
        short = module.__name__.rpartition(".")[2]
        for obj in vars(module).values():
            members = [obj]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                members += vars(obj).values()
            for member in members:
                func = _function(member)
                if func is not None and func.__module__ == module.__name__:
                    visit(func.__code__, f"{short}.{func.__qualname__}")
    return names


NAMES = _code_names()


def entered(route) -> set:
    """The hecketree functions ``route()`` enters, with every module cache emptied first."""
    for module in MODULES:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE):
            seen.add(NAMES.get(code) or f"{Path(code.co_filename).stem}.{code.co_name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        route()
    finally:
        sys.setprofile(previous)
    return seen


def spherical_routes(params: SphericalParams, top: int) -> dict:
    step = params.step
    cells = list(verify.CELLS["spherical"](None, top))

    def closed():
        algebra = SphericalAlgebra(params)
        for n, m in cells:
            algebra.multiply_closed(n, m)

    def recursive():
        algebra = SphericalAlgebra(params)
        for n, m in cells:
            algebra.multiply_recursive(n, m)

    def oracle():
        ball = tree.build_ball(params.q0, params.q1, 2 * step * top)
        ball.sphere(step * top)
        for n, m in cells:
            tree.spherical_product(ball, step * n, step * m)

    return {"closed": closed, "recursive": recursive, "oracle": oracle}


def iwahori_routes(qs: int, qt: int, top: int) -> dict:
    cells = list(verify.CELLS["iwahori"](IwahoriAlgebra(qs, qt), top))

    def generated():
        algebra = IwahoriAlgebra(qs, qt)
        for a, b in cells:
            algebra.multiply_basis(a, b)

    def closed():
        algebra = IwahoriAlgebra(qs, qt)
        for a, b in cells:
            algebra.multiply_closed(a, b)

    def oracle():
        ball = tree.build_ball(qs, qt, 2 * top + 2)
        tree.edges_by_weyl_word(ball, top)
        for a, b in cells:
            if qs == qt or a.iflag == b.iflag == 0:
                tree.iwahori_product(ball, a.word, b.word, (a.iflag, b.iflag))

    return {"generated": generated, "closed": closed, "oracle": oracle}


def affine_routes(q: int, top: int) -> dict:
    cells = list(verify.CELLS["affine"](None, top))

    def table():
        algebra = HorocycleAlgebra(q)
        for m, n in cells:
            algebra.multiply_basis(m, n)

    def normal_form():
        algebra = HorocycleAlgebra(q)
        normal_forms = [m_to_nf(algebra, n) for n in range(top + 1)]
        for m, n in cells:
            nf_to_m(normal_forms[m] * normal_forms[n])

    def oracle():
        ball = tree.build_ball(q, q, 2 * top + 2)
        tree.horocycle_members(ball, top)
        for m, n in cells:
            tree.horocycle_product(ball, m, n)

    return {"table": table, "normal-form": normal_form, "oracle": oracle}


def sl2_routes(p: int, top: int) -> dict:
    # the sweep's cells are cosets listed by its algebra, whose members the
    # convolution adds; so each route lists the cosets it reads
    def cells():
        algebra = SL2EndAlgebra(p)
        algebra.check_depth(top)
        return algebra, verify.CELLS["sl2"](algebra, top)

    def orbit():
        algebra, pairs = cells()
        for a, b in pairs:
            algebra.multiply_basis(a, b)

    def convolution():
        _, pairs = cells()
        for a, b in pairs:
            orbit_convolution(a, b)

    return {"orbit": orbit, "convolution": convolution}


#: family -> the route sets of its sweeps, each at a small extent.
SWEEPS = {
    "spherical": [
        spherical_routes(SphericalParams.homogeneous(2), 3),
        spherical_routes(SphericalParams.two_orbit(2, 3), 2),
        spherical_routes(SphericalParams.two_orbit(3, 2), 2),
    ],
    "iwahori": [iwahori_routes(2, 3, 3), iwahori_routes(2, 2, 3)],
    "affine": [affine_routes(2, 4), affine_routes(3, 3)],
    "sl2": [sl2_routes(3, 2), sl2_routes(5, 1)],
}

#: family -> the functions outside ``core.py`` that two of its routes may share.
SHARED = {
    "spherical": {
        "spherical.SphericalAlgebra.__init__",
        "spherical._check_index",
    },
    "iwahori": {
        "iwahori.IwahoriAlgebra.__init__",
        "iwahori.IwahoriAlgebra.letter_weight",
        "iwahori.bar",
    },
    "affine": {"endstab.HorocycleAlgebra.__init__"},
    # Both sl2 routes read their orbits from this one enumeration of the
    # unit-square orbits (the lambda is the sweep's cell list), so an error
    # in it, say unit_squares_mod listing all units, changes both routes
    # alike and the sweep still reads ok.  This is a known gap, not
    # independence; its mend is a route through SL2(Q_p) itself, ROADMAP
    # item 4.
    "sl2": {
        "sl2._is_prime",
        "sl2.unit_squares_mod",
        "sl2._orbit_residues",
        "sl2.orbit",
        "sl2.double_coset",
        "sl2.prufer_zero",
        "sl2._code",
        "sl2.PruferElement.__init__",
        "sl2.PruferElement.__hash__",
        "sl2.DoubleCoset.__init__",
        "sl2.SL2EndAlgebra.__init__",
        "sl2.SL2EndAlgebra.check_depth",
        "sl2.SL2EndAlgebra._index_to",
        "sl2.SL2EndAlgebra.cosets_up_to_depth",
        "verify.<lambda>",
    },
}


@pytest.mark.parametrize("family", SWEEPS)
def test_routes_share_only_core_and_the_allowlist(family):
    for routes in SWEEPS[family]:
        reached = {
            name: {f for f in entered(route) if not f.startswith("core.")}
            for name, route in routes.items()
        }
        for (first, a), (second, b) in itertools.combinations(reached.items(), 2):
            extra = sorted(a & b - SHARED[family])
            assert not extra, f"{first} and {second} share {extra}"


def test_each_route_does_its_work():
    # an empty route, or one the profile does not see, would share nothing
    assert "spherical.SphericalAlgebra._basis_product" in entered(SWEEPS["spherical"][0]["closed"])
    assert "spherical.SphericalAlgebra.generator_times" in entered(
        SWEEPS["spherical"][0]["recursive"]
    )
    assert "tree.spherical_product" in entered(SWEEPS["spherical"][0]["oracle"])
    assert "iwahori.IwahoriAlgebra._word_product" in entered(SWEEPS["iwahori"][0]["generated"])
    assert "iwahori.IwahoriAlgebra._word_product_closed" in entered(SWEEPS["iwahori"][0]["closed"])
    assert "tree.iwahori_product" in entered(SWEEPS["iwahori"][0]["oracle"])
    assert "endstab.HorocycleAlgebra._basis_product" in entered(SWEEPS["affine"][0]["table"])
    assert "endstab.ToeplitzAlgebra._basis_product" in entered(SWEEPS["affine"][0]["normal-form"])
    assert "tree.horocycle_product" in entered(SWEEPS["affine"][0]["oracle"])
    assert "sl2.SL2EndAlgebra._basis_product" in entered(SWEEPS["sl2"][0]["orbit"])
    assert "sl2.orbit_convolution" in entered(SWEEPS["sl2"][0]["convolution"])
