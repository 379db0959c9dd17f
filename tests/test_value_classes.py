"""Value classes: constructors, equality, order, repr, immutability and pickling."""

import copy
import pickle
from fractions import Fraction

import pytest

from hecketree.endstab import EventuallyConstantSeq
from hecketree.ktheory import AbelianGroupPresentation, BratteliDiagram, IntMatrix
from hecketree.sl2 import DoubleCoset, PruferElement
from hecketree.spherical import SphericalParams
from hecketree.tree import TreeBall, build_ball
from hecketree.verify import VerifyReport

P = PruferElement

#: name -> (build, repr): ``build(n)`` makes a fresh instance from fields
#: fixed by ``n``, by keyword; ``repr`` is that of ``build(0)``.
VALUES = {
    "IntMatrix": (
        lambda n: IntMatrix(entries=[[1, n], [3, 4]]),
        "IntMatrix(entries=((1, 0), (3, 4)), cols=2)",
    ),
    "AbelianGroupPresentation": (
        lambda n: AbelianGroupPresentation(free_rank=n, invariant_factors=[2, 4]),
        "AbelianGroupPresentation(free_rank=0, invariant_factors=(2, 4))",
    ),
    "BratteliDiagram": (
        lambda n: BratteliDiagram(levels=[(1,), (1, n + 1)], maps=[[[1], [2]]]),
        "BratteliDiagram(levels=((1,), (1, 1)), maps=(IntMatrix(entries=((1,), (2,)), cols=1),))",
    ),
    "PruferElement": (lambda n: P(p=3, depth=1, num=n + 1), "1/3"),
    "DoubleCoset": (
        lambda n: DoubleCoset(representative=P(5, 1, n + 1), members=(P(5, 1, n + 1),)),
        "coset(1/5)",
    ),
    "SphericalParams": (
        lambda n: SphericalParams(mode="two-orbit", q0=2, q1=3 + n),
        "SphericalParams(mode='two-orbit', q0=2, q1=3)",
    ),
    "VerifyReport": (
        lambda n: VerifyReport(family="sl2", params={"p": 3}, cells=n, mismatches=[{"cell": 1}]),
        "VerifyReport(family='sl2', params={'p': 3}, cells=0, mismatches=[{'cell': 1}])",
    ),
}

#: The fields of each immutable class.
FROZEN_FIELDS = {
    "IntMatrix": ("entries", "cols"),
    "AbelianGroupPresentation": ("free_rank", "invariant_factors"),
    "BratteliDiagram": ("levels", "maps"),
    "PruferElement": ("p", "depth", "num"),
    "DoubleCoset": ("representative", "members"),
    "SphericalParams": ("mode", "q0", "q1"),
}

VALUES["EventuallyConstantSeq"] = (
    lambda n: EventuallyConstantSeq(prefix=[Fraction(1, 2), n], tail=3),
    "(1/2, 0, 3, 3, ...)",
)
FROZEN_FIELDS["EventuallyConstantSeq"] = ("prefix", "tail")

#: The classes whose equality and hash come from ``core.Frozen``.
GENERIC = (
    "IntMatrix",
    "AbelianGroupPresentation",
    "BratteliDiagram",
    "SphericalParams",
    "EventuallyConstantSeq",
)

BALL_FIELDS = ("q0", "q1", "radius", "width", "sphere_start", "max_vertices")


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_compare_equal_and_print_as_before(name):
    build, text = VALUES[name]
    a, b, other = build(0), build(0), build(1)
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert a.__eq__(object()) is NotImplemented
    assert a.__eq__(other) is False
    assert repr(a) == text
    if name == "VerifyReport":
        # a report is filled in as its sweep runs, so it is not hashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2


def test_defaults_are_fresh():
    assert AbelianGroupPresentation(2).invariant_factors == ()
    assert BratteliDiagram(((1,),)).maps == ()
    first, second = VerifyReport("spherical", {}), VerifyReport("spherical", {})
    assert first.cells == 0 and first.mismatches == [] == second.mismatches
    first.mismatches.append(1)
    first.cells += 2
    assert first.to_json()["cells"] == 2 and not first.ok
    assert second.mismatches == [] and second.ok


@pytest.mark.parametrize("name", FROZEN_FIELDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = VALUES[name][0](0)
    for field in FROZEN_FIELDS[name]:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


@pytest.mark.parametrize("name", VALUES)
def test_pickle_and_copy_round_trip(name):
    value = VALUES[name][0](0)
    pickles = [pickle.dumps(value, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*map(pickle.loads, pickles), copy.copy(value), copy.deepcopy(value)]:
        assert type(twin) is type(value) and twin == value
        assert repr(twin) == repr(value)


def test_prufer_element_order():
    elements = [P(3, 2, 4), P(3, 1, 2), P(3, 0, 0), P(3, 1, 1), P(2, 3, 5)]
    # fields in order: p, then depth, then num
    assert sorted(elements) == [P(2, 3, 5), P(3, 0, 0), P(3, 1, 1), P(3, 1, 2), P(3, 2, 4)]
    a, b = P(3, 1, 1), P(3, 1, 2)
    assert a < b and a <= b and b > a and b >= a and a <= P(3, 1, 1) and a >= P(3, 1, 1)
    assert not (b < a or b <= a or a > b or a >= b)
    with pytest.raises(TypeError):
        a < 1


def test_double_coset_order_ignores_members():
    one, two = P(5, 1, 1), P(5, 1, 2)
    short, long = DoubleCoset(one, (one,)), DoubleCoset(one, (one, P(5, 1, 4)))
    assert short == long and hash(short) == hash(long)
    assert short <= long and short >= long and not short < long and not short > long
    other = DoubleCoset(two, (two,))
    assert long < other and long <= other and other > long and other >= long
    assert sorted([other, long]) == [long, other]
    with pytest.raises(TypeError):
        other < one


def test_tree_ball_is_compared_by_identity_and_keeps_its_memo():
    ball = build_ball(2, 3, 3, max_vertices=100)
    same = TreeBall(
        q0=2, q1=3, radius=3, width=[3, 3, 2], sphere_start=[0, 1, 4, 13, 31], max_vertices=100
    )
    assert [getattr(same, f) for f in BALL_FIELDS] == [getattr(ball, f) for f in BALL_FIELDS]
    assert ball == ball and ball != same and ball.__eq__(same) is NotImplemented
    assert repr(ball) == "TreeBall(q0=2, q1=3, radius=3, vertices=31)"
    assert same.memo == {}
    for field in BALL_FIELDS + ("memo",):
        with pytest.raises(AttributeError):
            setattr(ball, field, None)
        with pytest.raises(AttributeError):
            delattr(ball, field)
    # the memo is a cache of what the ball determines; it travels with the ball
    ball.memo["depths"] = {1: 3}
    pickles = [pickle.dumps(ball, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*map(pickle.loads, pickles), copy.copy(ball), copy.deepcopy(ball)]:
        assert type(twin) is TreeBall and twin is not ball
        assert [getattr(twin, f) for f in BALL_FIELDS] == [getattr(ball, f) for f in BALL_FIELDS]
        assert twin.memo == {"depths": {1: 3}}
        assert twin.sphere(2) == ball.sphere(2)


@pytest.mark.parametrize("name", GENERIC)
def test_generic_values_hash_as_their_field_tuple(name):
    value = VALUES[name][0](0)
    assert hash(value) == hash(tuple(getattr(value, field) for field in FROZEN_FIELDS[name]))
