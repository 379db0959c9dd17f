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

Hot paths code points as ints.  A point ``num / p^depth`` with depth <= D
is the int ``num * p^(D - depth)`` in ``[0, p^D)`` (:func:`_code`), so
addition is ``(x + y) % p^D`` and the point's depth is at most ``d`` exactly
when its code is a multiple of ``p^(D - d)``.  :class:`SL2EndAlgebra` codes
at :data:`DEPTH_BOUND` and indexes its cosets by the codes of their members;
:func:`orbit_convolution` codes at the depth of its operands.  Orbits are
enumerated as sorted int residues.  :class:`PruferElement` objects are built
only where points are parsed, labelled or returned: the members of each
:class:`DoubleCoset`, one per point, and each distinct sum of a
convolution.  :func:`prufer_add` and :class:`PruferGroupAlgebra` stay on
:class:`PruferElement` and are the route the ``nu`` images are multiplied
along.
"""

from __future__ import annotations

import operator
from collections import Counter
from functools import lru_cache, total_ordering

from .core import Frozen, HeckeAlgebra, HeckeElement, label_int, shared

#: The deepest cosets :class:`SL2EndAlgebra` lists; its points are coded at this depth.
DEPTH_BOUND = 6

#: The most Prüfer points ``p + p^2 + ... + p^depth`` that enumerating the
#: cosets of depth <= depth may walk.  The depth bound alone does not bound
#: that work: ``nu --p 31 --depth 3`` walks 30,783 points in about a second and
#: prints 2.5 MB, while p = 101 at depth 3 would walk over a million.
MAX_POINTS = 50_000


#: Bases of the Miller-Rabin test: the first 13 primes.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: Miller-Rabin on :data:`_WITNESSES` decides primality exactly below this
#: bound (Sorenson and Webster, Math. Comp. 86 (2017), arXiv 2015); above it
#: :func:`_is_prime` refuses to answer rather than guess.
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raise ValueError from :data:`PRIME_BOUND` on."""
    if p < 2:
        return False
    if p >= PRIME_BOUND:
        raise ValueError(
            f"cannot decide whether {p} is prime: the primality test is exact"
            f" only below {PRIME_BOUND:,}"
        )
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False  # a witnesses that p is composite
    return True


@total_ordering
class PruferElement(Frozen):
    """Element ``num / p^depth`` of the Prüfer p-group, in lowest terms.

    Canonical form: ``0 <= num < p^depth`` with ``num`` coprime to ``p``;
    zero is ``(depth=0, num=0)``.  Elements compare, hash and sort as the
    tuple ``(p, depth, num)``.  The prime is read by ``operator.index``, so
    a float or a Fraction is a TypeError, and one below 2 is not prime.
    """

    __slots__ = ("p", "depth", "num")

    def __init__(self, p: int, depth: int, num: int):
        p = operator.index(p)
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if depth == 0:
            if num != 0:
                raise ValueError("depth-0 element must be zero")
        elif not 0 < num < p**depth or num % p == 0:
            raise ValueError(f"{num}/{p}^{depth} is not in lowest terms")
        self._set(p, depth, num)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.depth, self.num) == (other.p, other.depth, other.num)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.depth, self.num) < (other.p, other.depth, other.num)

    def __hash__(self):
        return hash((self.p, self.depth, self.num))

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


def _orbit_residues(p: int, n: int, a: int) -> list:
    """Sorted orbit ``{w * a mod p^n}`` of a unit ``a`` under the unit squares mod ``p^n``.

    ``w * a`` is distinct for distinct ``w`` because ``a`` is a unit.
    """
    modulus = p**n
    return sorted([w * a % modulus for w in unit_squares_mod(p, n)])


def _code(g: PruferElement, depth: int) -> int:
    """The int coding ``g`` at ``depth`` >= its own: ``num * p^(depth - g.depth)``."""
    if g.depth > depth:
        raise ValueError(f"{g!r} is deeper than the coding depth {depth}")
    return g.num * g.p ** (depth - g.depth)


def orbit(u: PruferElement) -> tuple:
    """Unit-square orbit of ``u``, sorted; depth is preserved."""
    if u.depth == 0:
        return (u,)
    return tuple([PruferElement(u.p, u.depth, x) for x in _orbit_residues(u.p, u.depth, u.num)])


def same_double_coset(u: PruferElement, u2: PruferElement) -> bool:
    """Whether two unipotent representatives generate the same double coset."""
    if u.p != u2.p:
        raise ValueError(f"prime mismatch: {u.p} != {u2.p}")
    return u2 in orbit(u)


class PruferGroupAlgebra(HeckeAlgebra):
    """Group algebra of the Prüfer p-group; hosts the images of the nu map."""

    def __init__(self, p: int):
        p = operator.index(p)
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(p)
        self.p = p
        self.unit = prufer_zero(p)

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
    num, den = label_int(num_text), label_int(den_text)
    if num is None:
        raise ValueError(f"bad numerator in Prüfer label {text!r}")
    if not den:
        raise ValueError(f"denominator of {text!r} is not a power of {p}")
    depth = 0
    while den > 1:
        if den % p:
            raise ValueError(f"denominator of {text!r} is not a power of {p}")
        den //= p
        depth += 1
    return make_prufer(p, num, depth)


def nu(u: PruferElement) -> HeckeElement:
    """Image of the double coset of ``u``: the sum over its unit-square orbit.

    Every image for one prime lies in the same algebra, so products of images
    share its product cache.
    """
    algebra = shared(PruferGroupAlgebra, u.p)
    return algebra.element({g: 1 for g in orbit(u)})


@total_ordering
class DoubleCoset(Frozen):
    """A unit-square orbit, keyed by its minimal representative.

    Equality, hashing and order look at the representative alone: it
    determines the orbit, and ``members`` can run to hundreds of points.
    """

    __slots__ = ("representative", "members")

    def __init__(self, representative: PruferElement, members: tuple):
        self._set(representative, members)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.representative == other.representative

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.representative < other.representative

    def __hash__(self):
        return hash((self.representative,))

    def label(self) -> str:
        return self.representative.label()

    def __repr__(self):
        return f"coset({self.label()})"


def double_coset(u: PruferElement) -> DoubleCoset:
    members = orbit(u)
    return DoubleCoset(members[0], members)


class SL2EndAlgebra(HeckeAlgebra):
    """Double-coset algebra of the end centralizer, multiplied as orbit sums.

    The algebra codes points at :data:`DEPTH_BOUND` (see the module docstring)
    and keeps one :class:`DoubleCoset` object per orbit it has listed, with
    the codes of its members.  :meth:`cosets_up_to_depth` lists the orbits
    of each depth once; :meth:`coset` and the products return those objects.
    """

    def __init__(self, p: int):
        p = operator.index(p)
        super().__init__(p)
        self.p = p
        self.unit = double_coset(prufer_zero(p))
        self._modulus = p**DEPTH_BOUND
        self._cosets = [self.unit]  # every coset of depth <= len(_depth_end) - 1, in order
        self._member_codes = [(0,)]  # the codes of the members of each of _cosets
        self._position = {0: 0}  # point code -> position in _cosets of its coset
        self._depth_end = [1]  # _depth_end[n]: how many cosets have depth <= n

    def check_depth(self, depth: int) -> None:
        """Raise ValueError if cosets of depth ``depth`` are out of bounds.

        Two limits, both checked before any enumeration: the depth bound, and
        :data:`MAX_POINTS` on the points ``p + ... + p^depth`` walked.
        """
        if depth > DEPTH_BOUND:
            raise ValueError(f"depth {depth} exceeds the bound {DEPTH_BOUND}")
        points = sum(self.p**n for n in range(1, depth + 1))
        if points > MAX_POINTS:
            raise ValueError(
                f"depth {depth} at p = {self.p} walks {points:,} points,"
                f" over the limit of {MAX_POINTS:,}"
            )

    def _index_to(self, depth: int) -> None:
        """List the cosets of every depth <= ``depth`` not listed yet."""
        if depth < len(self._depth_end):
            return  # listed already, so within both limits
        self.check_depth(depth)
        p, position = self.p, self._position
        for n in range(len(self._depth_end), depth + 1):
            scale = p ** (DEPTH_BOUND - n)
            for a in range(1, p**n):
                # the first point of an orbit met is its least member
                if a % p == 0 or a * scale in position:
                    continue
                residues = _orbit_residues(p, n, a)
                members = tuple([PruferElement(p, n, x) for x in residues])
                codes = tuple([x * scale for x in residues])
                position.update(dict.fromkeys(codes, len(self._cosets)))
                self._cosets.append(DoubleCoset(members[0], members))
                self._member_codes.append(codes)
            self._depth_end.append(len(self._cosets))

    def coset(self, u: PruferElement) -> DoubleCoset:
        if u.p != self.p:
            raise ValueError(f"prime mismatch: {u.p} != {self.p}")
        self._index_to(u.depth)
        return self._cosets[self._position[_code(u, DEPTH_BOUND)]]

    def coset_element(self, u: PruferElement) -> HeckeElement:
        return self.basis_element(self.coset(u))

    def cosets_up_to_depth(self, depth: int) -> list:
        """All double cosets of depth <= depth, in canonical order."""
        self._index_to(depth)
        return self._cosets[: self._depth_end[depth]]

    def r_value(self, c: DoubleCoset) -> int:
        # one-sided cosets correspond to the points of the orbit
        return len(c.members)

    def involute_basis(self, c: DoubleCoset) -> DoubleCoset:
        return self.coset(-c.representative)

    def basis_key(self, c: DoubleCoset):
        return (c.representative.depth, c.representative.num)

    def basis_label(self, c: DoubleCoset) -> str:
        return c.label()

    def parse_label(self, text: str) -> DoubleCoset:
        return self.coset(parse_prufer(self.p, text))

    def _codes_of(self, c: DoubleCoset) -> tuple:
        """Codes of the members of ``c``: kept for the algebra's own cosets, else computed."""
        i = self._position.get(_code(c.representative, DEPTH_BOUND))
        if i is not None and self._cosets[i] is c:
            return self._member_codes[i]
        return tuple([_code(g, DEPTH_BOUND) for g in c.members])

    def _basis_product(self, c1: DoubleCoset, c2: DoubleCoset) -> dict:
        """Count the product at one representative of the larger orbit.

        With ``O1`` the smaller orbit and ``r`` the representative of the
        other, ``O2``, let ``n_O = #{g in O1 : r + g in O}`` for each orbit
        ``O``.  Each point of ``O2`` sees the same counts, since a unit square
        carrying ``r`` to it permutes ``O1`` and ``O``; so the convolution of
        the two orbit sums has ``|O2| * n_O`` pairs landing in ``O``, spread
        evenly over its ``|O|`` points, and the structure constant is
        ``|O2| * n_O / |O|``.  An operand of another prime raises
        ``ValueError``; a sum deeper than both operands, or a division that
        is not exact, raises :class:`AssertionError`.
        """
        for c in (c1, c2):
            if c.representative.p != self.p:
                raise ValueError(f"prime mismatch: {c.representative.p} != {self.p}")
        if len(c1.members) > len(c2.members):
            c1, c2 = c2, c1
        max_depth = max(c1.representative.depth, c2.representative.depth)
        self._index_to(max_depth)
        modulus = self._modulus
        r = _code(c2.representative, DEPTH_BOUND)
        totals = [(r + g) % modulus for g in self._codes_of(c1)]
        # a sum of depth <= max_depth is a multiple of p^(DEPTH_BOUND - max_depth)
        step = self.p ** (DEPTH_BOUND - max_depth)
        for total in totals:
            if total % step:
                raise AssertionError(
                    f"sum {make_prufer(self.p, total, DEPTH_BOUND)!r}"
                    f" exceeds the operand depth {max_depth}"
                )
        hits = Counter(map(self._position.__getitem__, totals))
        out: dict = {}
        for i, n in hits.items():
            c = self._cosets[i]
            coeff, rest = divmod(len(c2.members) * n, len(c.members))
            if rest:
                raise AssertionError(
                    f"{len(c2.members)} * {n} pairs do not spread evenly over the orbit of {c!r}"
                )
            out[c] = coeff
        return out


def orbit_convolution(c1: DoubleCoset, c2: DoubleCoset) -> Counter:
    """Convolution of two orbit sums, one count per Prüfer point.

    Adds every pair of orbit members, ``|O1| * |O2|`` additions of int codes
    at the depth of the deepest member, and builds one :class:`PruferElement`
    per distinct sum: the reference that ``verify sl2`` holds the
    representative count against.
    """
    p = c1.representative.p
    if c2.representative.p != p:
        raise ValueError(f"prime mismatch: {p} != {c2.representative.p}")
    depth = max(g.depth for c in (c1, c2) for g in c.members)
    modulus = p**depth
    codes2 = [_code(h, depth) for h in c2.members]
    sums = Counter()
    for g in c1.members:
        x = _code(g, depth)
        sums.update([(x + y) % modulus for y in codes2])
    return Counter({make_prufer(p, total, depth): n for total, n in sums.items()})
