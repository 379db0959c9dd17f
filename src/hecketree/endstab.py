"""Hecke algebras of the full end stabilizer on a homogeneous tree.

Two concrete models, with exact conversions between them:

* :class:`HorocycleAlgebra` -- the commutative algebra of the elliptic part,
  with basis indexed by horocycle classes (the confluence distance toward
  the fixed end); its complete multiplication table is read off the coset
  counts ``r_n`` alone.
* :class:`ToeplitzAlgebra` -- the full algebra generated by the translation
  coset ``[s]`` and its adjoint, in the normal form ``[s]^a [s*]^b``.
  Working with ``[s]`` instead of its unitarily normalized version keeps all
  scalars rational: the defining relation is ``[s*][s] = q`` while
  ``[s][s*]`` stays a non-scalar monomial, the algebraic form of "the
  generator is a nonunitary isometry".

The horocycle subalgebra embeds into the normal form via
``class_n = (n,n) - (n-1,n-1)`` and is isomorphic to the algebra of
eventually constant sequences; both routes are implemented and are required
to agree with each other and with the tree-counting oracle.  Every map
between these models (:func:`m_to_nf`, :func:`nf_to_m`, :func:`from_sequence`)
takes its target from ``core.shared``, one algebra per class and ``q``, so
all images at one ``q`` share that algebra's product cache.

General picture (documentation only; the executable model is the full
automorphism group, where complete tables exist).  Any end stabilizer built
from a vertex stabilizer ``M0`` and a finite-index endomorphism ``alpha``
splits as elliptic part extended by a single translation, and its double
coset algebra is the semigroup crossed product of the elliptic algebra by
one injective endomorphism: the translation coset acts by

    alpha_hat(A) = [M0 : alpha(M0)]^{-1} * sum of the double cosets
                   partitioning the alpha-preimage of A,

and conjugation of the elliptic part by ``[s]``/``[s*]`` in this module is
precisely that action in the concrete model (the covariance checked by the
tests).  For a general subgroup the elliptic algebra depends on the chosen
group and no uniform table exists, which is why only the full case ships as
code.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Frozen, HeckeAlgebra, HeckeElement, branching, exact, label_int, shared
from .ktheory import BratteliDiagram, IntMatrix


class HorocycleAlgebra(HeckeAlgebra):
    """End-centralizer double cosets indexed by horocycle class, for branching ``q + 1``."""

    unit = 0

    def __init__(self, q: int):
        (q,) = branching(q)
        super().__init__(q)
        self.q = q

    def r_value(self, n: int) -> int:
        return 1 if n == 0 else (self.q - 1) * self.q ** (n - 1)

    def involute_basis(self, n: int) -> int:
        # each class is closed under inversion
        return n

    def basis_label(self, n: int) -> str:
        return f"M{n}"

    def parse_label(self, text: str) -> int:
        n = label_int(text[1:]) if text.startswith("M") else None
        if n is None:
            raise ValueError(f"bad horocycle label {text!r}")
        return n

    def _basis_product(self, m: int, n: int) -> dict:
        """The table read off the coset counts r_n (r_0 = 1, so M_0 is the unit).

        M_m·M_n = r_min·M_max for m ≠ n, and
        M_n² = Σ_(i<n) r_n·M_i + (r_n − Σ_(i<n) r_i)·M_n.

        The counts are written out here rather than read through
        :meth:`r_value`, and Σ_(i<n) r_i = 1 + (q − 1)(1 + q + ... + q^(n−2))
        telescopes to q^(n−1) for n ≥ 1, so no cell makes a call per class.
        """
        if m < 0 or n < 0:
            raise ValueError(f"horocycle class {m if m < 0 else n} is negative")
        q = self.q
        if m != n:
            lo, hi = (m, n) if m < n else (n, m)
            return {hi: 1 if lo == 0 else (q - 1) * q ** (lo - 1)}
        if n == 0:
            return {0: 1}
        below = q ** (n - 1)
        r = (q - 1) * below
        out = dict.fromkeys(range(n), r)
        out[n] = r - below
        return out


class ToeplitzAlgebra(HeckeAlgebra):
    """Normal-form monomials ``[s]^a [s*]^b`` indexed by pairs ``(a, b)``.

    The only rewriting is ``[s*][s] -> q``, so a product of two monomials is
    a single monomial weighted by a power of ``q``; mixed words never need
    further reduction once in ``(a, b)`` form.
    """

    unit = (0, 0)

    def __init__(self, q: int):
        (q,) = branching(q)
        super().__init__(q)
        self.q = q

    def r_value(self, ab) -> int:
        a, _ = ab
        return self.q**a

    def involute_basis(self, ab):
        a, b = ab
        return (b, a)

    def basis_label(self, ab) -> str:
        return f"({ab[0]},{ab[1]})"

    def parse_label(self, text: str):
        parts = text[1:-1].split(",") if text.startswith("(") and text.endswith(")") else ()
        ab = tuple(label_int(part) for part in parts)
        if len(ab) != 2 or None in ab:
            raise ValueError(f"bad monomial label {text!r}")
        return ab

    def _basis_product(self, x, y) -> dict:
        for index in (x, y):
            if min(index) < 0:
                raise ValueError(f"monomial {index} has a negative exponent")
        a, b = x
        c, d = y
        k = min(b, c)
        return {(a + c - k, b + d - k): self.q**k}

    def isometry(self) -> HeckeElement:
        """The translation coset ``[s]``."""
        return self.basis_element((1, 0))

    def co_isometry(self) -> HeckeElement:
        """Its adjoint ``[s*]``."""
        return self.basis_element((0, 1))

    def p_projection(self, n: int) -> HeckeElement:
        """Range projection of the n-th power of the normalized isometry."""
        if n < 0:
            raise ValueError("projection index must be nonnegative")
        return self.element({(n, n): Fraction(1, self.q**n)})


def m_to_nf(m_algebra: HorocycleAlgebra, n: int) -> HeckeElement:
    """Horocycle class ``n`` in normal form: ``(n,n) - (n-1,n-1)``; class 0 is the unit.

    The image lies in ``core.shared(ToeplitzAlgebra, q)``, one algebra for
    every image at ``q``, so products of images share its product cache.
    """
    nf = shared(ToeplitzAlgebra, m_algebra.q)
    if n == 0:
        return nf.one()
    return nf.element({(n, n): 1, (n - 1, n - 1): -1})


def m_element_to_nf(x: HeckeElement) -> HeckeElement:
    """Linear extension of :func:`m_to_nf`."""
    m_algebra = x.algebra
    if not isinstance(m_algebra, HorocycleAlgebra):
        raise TypeError("expected an element of the horocycle algebra")
    out = shared(ToeplitzAlgebra, m_algebra.q).zero()
    for n, coeff in x.terms():
        out = out + coeff * m_to_nf(m_algebra, n)
    return out


def nf_to_m(x: HeckeElement) -> HeckeElement:
    """Rewrite a diagonally supported normal-form element in the horocycle basis.

    Only defined on the span of the monomials ``(n, n)``; raises ValueError
    on any off-diagonal support.  One pass reads the diagonal, in no
    particular order, and one pass from the top class down sums its tails.
    The image lies in ``core.shared(HorocycleAlgebra, q)``, as
    :func:`from_sequence`'s does.
    """
    nf = x.algebra
    if not isinstance(nf, ToeplitzAlgebra):
        raise TypeError("expected an element of the normal-form algebra")
    diag: dict = {}
    for (a, b), coeff in x.items():
        if a != b:
            raise ValueError(f"monomial ({a},{b}) is outside the horocycle subalgebra")
        diag[a] = coeff
    # (n, n) = sum of classes 0..n, so the class-i coefficient is a tail sum;
    # sums of the element's exact coefficients are exact, so only zeros drop
    terms = {}
    tail = 0
    for i in range(max(diag, default=-1), -1, -1):
        tail += diag.get(i, 0)
        if tail:
            terms[i] = tail
    return HeckeElement._of(shared(HorocycleAlgebra, nf.q), terms)


class EventuallyConstantSeq(Frozen):
    """Rational sequence with a finite prefix and a constant tail, in canonical form.

    Values must pass :func:`core.exact`; they are kept as given.  An
    immutable value: equal prefix and tail make equal sequences, it hashes
    as ``(prefix, tail)``, and assigning a field is an AttributeError.  It
    prints as the sequence itself, ``(prefix..., tail, tail, ...)``.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix, tail):
        tail = exact(tail)
        cleaned = [exact(x) for x in prefix]
        while cleaned and cleaned[-1] == tail:
            cleaned.pop()
        self._set(tuple(cleaned), tail)

    def value_at(self, k: int) -> int | Fraction:
        return self.prefix[k] if k < len(self.prefix) else self.tail

    def __repr__(self):
        body = ", ".join(str(x) for x in self.prefix)
        sep = ", " if body else ""
        return f"({body}{sep}{self.tail}, {self.tail}, ...)"

    def __mul__(self, other: "EventuallyConstantSeq") -> "EventuallyConstantSeq":
        n = max(len(self.prefix), len(other.prefix))
        return EventuallyConstantSeq(
            [self.value_at(k) * other.value_at(k) for k in range(n)],
            self.tail * other.tail,
        )

    def __add__(self, other: "EventuallyConstantSeq") -> "EventuallyConstantSeq":
        n = max(len(self.prefix), len(other.prefix))
        return EventuallyConstantSeq(
            [self.value_at(k) + other.value_at(k) for k in range(n)],
            self.tail + other.tail,
        )


def to_sequence(x: HeckeElement) -> EventuallyConstantSeq:
    """Image of a horocycle-basis element under the sequence isomorphism.

    Class ``n`` maps to the sequence with value ``-q^{n-1}`` at coordinate
    ``n - 1`` and ``(q-1) q^{n-1}`` from coordinate ``n`` on (class 0 is the
    constant sequence 1); products go to pointwise products.
    """
    algebra = x.algebra
    if not isinstance(algebra, HorocycleAlgebra):
        raise TypeError("expected an element of the horocycle algebra")
    q = algebra.q
    top = max((n for n, _ in x.terms()), default=0)
    values = [0] * (top + 1)
    tail = 0
    for n, coeff in x.terms():
        if n == 0:
            for k in range(top + 1):
                values[k] += coeff
            tail += coeff
        else:
            step = (q - 1) * q ** (n - 1)
            values[n - 1] += coeff * (-(q ** (n - 1)))
            for k in range(n, top + 1):
                values[k] += coeff * step
            tail += coeff * step
    return EventuallyConstantSeq(values, tail)


def from_sequence(seq: EventuallyConstantSeq, q: int) -> HeckeElement:
    """Inverse of :func:`to_sequence`, through the projection basis.

    A sequence with prefix length N decomposes over the indicator of
    ``{k, k+1, ...}`` for k <= N, and that indicator is ``q^{-k}`` times the
    sum of the classes up to k.  Every image for one ``q`` lies in the same
    algebra, so products of images share its product cache.
    """
    algebra = shared(HorocycleAlgebra, q)
    values = list(seq.prefix) + [seq.tail]
    terms = {0: values[0]}
    for k in range(1, len(values)):
        jump = values[k] - values[k - 1]
        if not jump:
            continue
        weight = jump * Fraction(1, q**k)
        for i in range(k + 1):
            terms[i] = terms.get(i, 0) + weight
    return algebra.element(terms)


# -- K-theory inputs for the eventually-constant-sequence model ------------------


def toeplitz_bratteli(num_levels: int) -> BratteliDiagram:
    """Diagram of the sequence model: level k holds sequences constant from k.

    All summands are one-dimensional and the inclusion into the next level
    duplicates the final coordinate.
    """
    if num_levels < 1:
        raise ValueError("need at least one level")
    levels = tuple((1,) * (k + 1) for k in range(num_levels))
    maps = []
    for k in range(num_levels - 1):
        rows = []
        for i in range(k + 2):
            rows.append([1 if j == min(i, k) else 0 for j in range(k + 1)])
        maps.append(IntMatrix.from_rows(rows))
    return BratteliDiagram(levels, tuple(maps))


def toeplitz_shift_alpha(n: int) -> IntMatrix:
    """Induced endomorphism on a rank-``n`` stage of the sequence model's K-group.

    In the projection basis the endomorphism shifts coordinates one step
    deeper, landing in the rank-``n+1`` stage: the (n+1) x n matrix with an
    identity block on the subdiagonal.
    """
    if n < 1:
        raise ValueError("stage rank must be positive")
    return IntMatrix.from_rows(
        [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n + 1)]
    )
