"""End-centralizer Hecke algebra of SL2 over the p-adic numbers.

The algebra is realized entirely on the unipotent side: the quotient of the
additive group of the field by its integer ring is the Prüfer p-group, the
double cosets correspond to orbits of multiplication by squares of p-adic
units, and the support-restriction map sends a double coset to the sum of
its orbit inside the Prüfer group algebra.  Since that map is an injective
*-homomorphism, a product is the convolution of two orbit sums pulled back
to orbits.  Unit squares act by automorphisms fixing both operand orbits, so
that convolution counts the same number at every point of an orbit, and one
representative of one operand determines the whole product (see
:meth:`SL2EndAlgebra._basis_product`).  :func:`orbit_convolution` adds every
pair of orbit members instead; ``verify sl2`` compares the two point by point.

Squares of units acting on denominator-``p^n`` elements factor through the
residue ring, so orbits are finite and computed by enumeration for every
prime, including p = 2 (where square classes are finer; supported but
considered experimental).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .core import HeckeAlgebra, HeckeElement

DEFAULT_DEPTH_BOUND = 6

#: The most Prüfer points ``p + p^2 + ... + p^depth`` that enumerating the
#: cosets of depth <= depth may walk.  The depth bound alone does not bound
#: that work: ``nu --p 31 --depth 3`` walks 30,783 points in about a second and
#: prints 2.5 MB, while p = 101 at depth 3 would walk over a million.
MAX_POINTS = 50_000


@lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, order=True)
class PruferElement:
    """Element ``num / p^depth`` of the Prüfer p-group, in lowest terms.

    Canonical form: ``0 <= num < p^depth`` with ``num`` coprime to ``p``;
    zero is ``(depth=0, num=0)``.
    """

    p: int
    depth: int
    num: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if self.depth == 0:
            if self.num != 0:
                raise ValueError("depth-0 element must be zero")
        elif not 0 < self.num < self.p**self.depth or self.num % self.p == 0:
            raise ValueError(f"{self.num}/{self.p}^{self.depth} is not in lowest terms")

    def is_zero(self) -> bool:
        return self.depth == 0

    def label(self) -> str:
        return "0" if self.depth == 0 else f"{self.num}/{self.p ** self.depth}"

    def __repr__(self):
        return self.label()

    def __add__(self, other: "PruferElement") -> "PruferElement":
        return prufer_add(self, other)

    def __neg__(self) -> "PruferElement":
        if self.depth == 0:
            return self
        return PruferElement(self.p, self.depth, self.p**self.depth - self.num)


def make_prufer(p: int, num: int, depth: int) -> PruferElement:
    """Canonicalize ``num / p^depth``: reduce mod 1 and strip powers of p."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    modulus = p**depth
    num %= modulus
    while depth > 0 and num % p == 0:
        num //= p
        depth -= 1
        modulus //= p
    if depth == 0:
        return PruferElement(p, 0, 0)
    return PruferElement(p, depth, num)


def prufer_zero(p: int) -> PruferElement:
    return PruferElement(p, 0, 0)


def prufer_add(x: PruferElement, y: PruferElement) -> PruferElement:
    if x.p != y.p:
        raise ValueError(f"prime mismatch: {x.p} != {y.p}")
    p = x.p
    depth = max(x.depth, y.depth)
    num = x.num * p ** (depth - x.depth) + y.num * p ** (depth - y.depth)
    return make_prufer(p, num, depth)


@lru_cache(maxsize=None)
def unit_squares_mod(p: int, n: int) -> tuple:
    """Sorted squares of units in the residue ring mod ``p^n`` (by enumeration)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("exponent must be at least 1")
    modulus = p**n
    return tuple(sorted({v * v % modulus for v in range(1, modulus) if v % p}))


def orbit(u: PruferElement) -> tuple:
    """Unit-square orbit of ``u``, sorted; depth is preserved."""
    if u.depth == 0:
        return (u,)
    return tuple(
        sorted(
            PruferElement(u.p, u.depth, w * u.num % u.p**u.depth)
            for w in unit_squares_mod(u.p, u.depth)
        )
    )


def same_double_coset(u: PruferElement, u2: PruferElement) -> bool:
    """Whether two unipotent representatives generate the same double coset."""
    if u.p != u2.p:
        raise ValueError(f"prime mismatch: {u.p} != {u2.p}")
    return u2 in orbit(u)


class PruferGroupAlgebra(HeckeAlgebra):
    """Group algebra of the Prüfer p-group; hosts the images of the nu map."""

    def __init__(self, p: int):
        super().__init__()
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.unit = prufer_zero(p)

    def _key(self):
        return self.p

    def r_value(self, g: PruferElement) -> int:
        return 1

    def involute_basis(self, g: PruferElement) -> PruferElement:
        return -g

    def basis_key(self, g: PruferElement):
        return (g.depth, g.num)

    def basis_label(self, g: PruferElement) -> str:
        return g.label()

    def parse_label(self, text: str) -> PruferElement:
        return parse_prufer(self.p, text)

    def _basis_product(self, g: PruferElement, h: PruferElement) -> dict:
        return {g + h: 1}


def parse_prufer(p: int, text: str) -> PruferElement:
    if text == "0":
        return prufer_zero(p)
    num_text, _, den_text = text.partition("/")
    num, den = int(num_text), int(den_text)
    if den < 1:
        raise ValueError(f"denominator of {text!r} is not a power of {p}")
    depth = 0
    while den > 1:
        if den % p:
            raise ValueError(f"denominator of {text!r} is not a power of {p}")
        den //= p
        depth += 1
    return make_prufer(p, num, depth)


def nu(u: PruferElement) -> HeckeElement:
    """Image of the double coset of ``u``: the sum over its unit-square orbit."""
    algebra = PruferGroupAlgebra(u.p)
    return algebra.element({g: 1 for g in orbit(u)})


@dataclass(frozen=True, order=True)
class DoubleCoset:
    """A unit-square orbit, keyed by its minimal representative.

    Equality, hashing and order look at the representative alone: it
    determines the orbit, and ``members`` can run to hundreds of points.
    """

    representative: PruferElement
    members: tuple = field(compare=False)

    def label(self) -> str:
        return self.representative.label()

    def __repr__(self):
        return f"coset({self.label()})"


def double_coset(u: PruferElement) -> DoubleCoset:
    members = orbit(u)
    return DoubleCoset(members[0], members)


class SL2EndAlgebra(HeckeAlgebra):
    """Double-coset algebra of the end centralizer, multiplied as orbit sums."""

    def __init__(self, p: int, depth_bound: int = DEFAULT_DEPTH_BOUND):
        super().__init__()
        self.p = p
        self.depth_bound = depth_bound
        self.unit = double_coset(prufer_zero(p))
        self._coset_of: dict = {}  # Prüfer point -> its DoubleCoset
        self._indexed_depth = -1  # _coset_of covers every point of depth <= this

    def _key(self):
        return (self.p, self.depth_bound)

    def check_depth(self, depth: int) -> None:
        """Raise ValueError if cosets of depth ``depth`` are out of bounds.

        Two limits, both checked before any enumeration: the depth bound, and
        :data:`MAX_POINTS` on the points ``p + ... + p^depth`` walked.
        """
        if depth > self.depth_bound:
            raise ValueError(f"depth {depth} exceeds the bound {self.depth_bound}")
        points = sum(self.p**n for n in range(1, depth + 1))
        if points > MAX_POINTS:
            raise ValueError(
                f"depth {depth} at p = {self.p} walks {points:,} points,"
                f" over the limit of {MAX_POINTS:,}"
            )

    def coset(self, u: PruferElement) -> DoubleCoset:
        if u.p != self.p:
            raise ValueError(f"prime mismatch: {u.p} != {self.p}")
        self.check_depth(u.depth)
        return double_coset(u)

    def coset_element(self, u: PruferElement) -> HeckeElement:
        return self.basis_element(self.coset(u))

    def cosets_up_to_depth(self, depth: int) -> list:
        """All double cosets of depth <= depth, in canonical order."""
        self.check_depth(depth)
        out = [self.unit]
        for n in range(1, depth + 1):
            claimed = set()
            for a in range(1, self.p**n):
                if a % self.p == 0 or a in claimed:
                    continue
                c = double_coset(PruferElement(self.p, n, a))
                claimed.update(g.num for g in c.members)
                out.append(c)
        out.sort(key=self.basis_key)
        return out

    def r_value(self, c: DoubleCoset) -> int:
        # one-sided cosets correspond to the points of the orbit
        return len(c.members)

    def involute_basis(self, c: DoubleCoset) -> DoubleCoset:
        return double_coset(-c.representative)

    def basis_key(self, c: DoubleCoset):
        return (c.representative.depth, c.representative.num)

    def basis_label(self, c: DoubleCoset) -> str:
        return c.label()

    def parse_label(self, text: str) -> DoubleCoset:
        return self.coset(parse_prufer(self.p, text))

    def _cosets_by_point(self, depth: int) -> dict:
        """Map every point of depth <= ``depth`` to its double coset (filled lazily)."""
        if depth > self._indexed_depth:
            for c in self.cosets_up_to_depth(depth):
                for g in c.members:
                    self._coset_of[g] = c
            self._indexed_depth = depth
        return self._coset_of

    def _basis_product(self, c1: DoubleCoset, c2: DoubleCoset) -> dict:
        """Count the product at one representative of the larger orbit.

        With ``O1`` the smaller orbit and ``r`` the representative of the
        other, ``O2``, let ``n_O = #{g in O1 : r + g in O}`` for each orbit
        ``O``.  Each point of ``O2`` sees the same counts, since a unit square
        carrying ``r`` to it permutes ``O1`` and ``O``; so the convolution of
        the two orbit sums has ``|O2| * n_O`` pairs landing in ``O``, spread
        evenly over its ``|O|`` points, and the structure constant is
        ``|O2| * n_O / |O|``.  A sum deeper than both operands, or a division
        that is not exact, raises :class:`AssertionError`.
        """
        if len(c1.members) > len(c2.members):
            c1, c2 = c2, c1
        max_depth = max(c1.representative.depth, c2.representative.depth)
        cosets = self._cosets_by_point(max_depth)
        r = c2.representative
        hits = Counter()
        for g in c1.members:
            total = prufer_add(r, g)
            c = cosets.get(total)
            if c is None:
                raise AssertionError(f"sum {total!r} exceeds the operand depth {max_depth}")
            hits[c] += 1
        out: dict = {}
        for c, n in hits.items():
            coeff, rest = divmod(len(c2.members) * n, len(c.members))
            if rest:
                raise AssertionError(
                    f"{len(c2.members)} * {n} pairs do not spread evenly over the orbit of {c!r}"
                )
            out[c] = coeff
        return out


def orbit_convolution(c1: DoubleCoset, c2: DoubleCoset) -> Counter:
    """Convolution of two orbit sums, one count per Prüfer point.

    Adds every pair of orbit members, ``|O1| * |O2|`` additions: the
    reference that ``verify sl2`` holds the representative count against.
    """
    return Counter(prufer_add(g, h) for g in c1.members for h in c2.members)
