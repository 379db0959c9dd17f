"""Hecke algebra of a vertex stabilizer: radial basis on a semi-homogeneous tree.

On the (q0 + 1, q1 + 1)-semi-homogeneous tree the multiplication table and
the sphere counts are one formula in the distances
(:meth:`SphericalAlgebra._basis_product`); its coefficients depend on the
smaller factor alone, and the row of each factor is a prefix of the next
one's, so the closed form keeps one coefficient list, grown on demand.
The vertex-orbit mode of a sphere-transitive action only picks which
distances are basis indices:

* homogeneous (q0 = q1) -- one vertex orbit; index ``n`` is distance ``n``;
* two-orbit -- vertices split by parity; index ``n`` is distance ``2n``.

The generator is index 1 and labels print the distance.  The algebra is
commutative: exactly the polynomial ring on its generator.

The recursive route (:meth:`SphericalAlgebra.recursive_terms`) keeps, for
each ``m``, the last two rows of the recursion for ``basis(k) * basis(m)``,
as int dicts.  A sweep that asks for ``n`` in increasing order for every
``m`` (as ``verify spherical`` does) pays one recursion step per cell; a row
behind the kept one restarts at row 0.  Like ``basis_terms``, it hands out
the dict it keeps, and a sweep reads it without making an element.

Note on completions (documentation only, nothing here computes norms): a
polynomial ring in one self-adjoint variable has *-representations given by
evaluating at arbitrary real numbers, whose operator norms are unbounded, so
this algebra admits no universal C*-completion.  All arithmetic in this
module is purely algebraic and exact.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Frozen, HeckeAlgebra, HeckeElement, branching, exact, label_int

HOMOGENEOUS = "homogeneous"
TWO_ORBIT = "two-orbit"


class SphericalParams(Frozen):
    """Branching data of the tree plus the vertex-orbit mode."""

    __slots__ = ("mode", "q0", "q1")

    def __init__(self, mode: str, q0: int, q1: int):
        if mode not in (HOMOGENEOUS, TWO_ORBIT):
            raise ValueError(f"unknown mode {mode!r}")
        q0, q1 = branching(q0, q1)
        if mode == HOMOGENEOUS and q0 != q1:
            raise ValueError("homogeneous mode requires equal branching numbers")
        self._set(mode, q0, q1)

    @classmethod
    def homogeneous(cls, q: int) -> "SphericalParams":
        return cls(HOMOGENEOUS, q, q)

    @classmethod
    def two_orbit(cls, q0: int, q1: int) -> "SphericalParams":
        return cls(TWO_ORBIT, q0, q1)

    @property
    def step(self) -> int:
        """Distance step between consecutive basis indices (1 or 2)."""
        return 1 if self.mode == HOMOGENEOUS else 2


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError(f"basis index {n} is negative")


class SphericalAlgebra(HeckeAlgebra):
    """Commutative algebra of distance classes relative to a vertex stabilizer.

    Basis indices are nonnegative integers; in two-orbit mode index ``n``
    stands for the distance-``2n`` class.
    """

    unit = 0

    def __init__(self, params: SphericalParams):
        super().__init__(params)
        self.params = params
        self._basis_polys = [(1,), (0, 1)]
        self._recursion_rows = {}  # m -> (k, row k - 1, row k), see recursive_terms
        self._closed_form = None  # (step, coefficients, Q_l list), see _basis_product

    # -- basis data ---------------------------------------------------------

    def involute_basis(self, n: int) -> int:
        # distance classes are self-adjoint: moving o by n is symmetric in o
        return n

    def r_value(self, n: int) -> int:
        """Sphere cardinality |S_d| = (q0 + 1)·Q_(d−1) at distance d = step·n."""
        if n == 0:
            return 1
        p = self.params
        d = p.step * n
        return (p.q0 + 1) * p.q1 ** (d // 2) * p.q0 ** ((d - 1) // 2)

    def basis_label(self, n: int) -> str:
        return f"G{self.params.step * n}"

    def parse_label(self, text: str) -> int:
        dist = label_int(text[1:]) if text.startswith("G") else None
        step = self.params.step
        if dist is None or dist % step:
            raise ValueError(f"bad spherical label {text!r}")
        return dist // step

    # -- multiplication -------------------------------------------------------

    def _recursion(self, n: int) -> tuple:
        """Coefficients (a, b) with gen * basis(n) = a*basis(n-1) + b*basis(n) + basis(n+1)."""
        if n == 0:
            return (0, 0)  # gen * basis(0) = basis(1)
        p = self.params
        if p.mode == HOMOGENEOUS:
            return (p.q0 + (1 if n == 1 else 0), 0)
        return ((p.q0 + (1 if n == 1 else 0)) * p.q1, p.q1 - 1)

    def _generator_step(self, terms: dict) -> dict:
        """The terms of the generator times ``terms``, in a new dict that may hold zeros."""
        acc: dict = {}
        for n, coeff in terms.items():
            a, b = self._recursion(n)
            if a:
                acc[n - 1] = acc.get(n - 1, 0) + coeff * a
            if b:
                acc[n] = acc.get(n, 0) + coeff * b
            acc[n + 1] = acc.get(n + 1, 0) + coeff
        return acc

    def generator_times(self, x: HeckeElement) -> HeckeElement:
        """Multiply by the generator through the defining recursion."""
        acc = self._generator_step(x._terms)
        # exact coefficients times int weights: exact, so only zeros are dropped
        return HeckeElement._of(self, {idx: c for idx, c in acc.items() if c})

    def recursive_terms(self, n: int, m: int) -> dict:
        """The terms of ``basis(n) * basis(m)`` by the recursion: the row it keeps.

        Row ``k`` is ``basis(k) * basis(m)``, an int dict, and each step makes
        the next from the last two: a :meth:`_generator_step` over row ``k``,
        less ``b * row k`` and ``a * row (k - 1)``.  The step reached for ``m``
        and its two rows are kept, so ``n`` at or past it continues from there
        and ``n`` behind it restarts at row 0.  The caller only reads the row.
        """
        _check_index(n)
        _check_index(m)
        if n > m:
            n, m = m, n
        state = self._recursion_rows.get(m)
        if state is None or state[0] > n:
            state = (0, {}, {m: 1})
        k, prev, row = state
        while k < n:
            a, b = self._recursion(k)
            nxt = self._generator_step(row)
            for terms, weight in ((row, b), (prev, a)):
                if weight:
                    for idx, coeff in terms.items():
                        nxt[idx] = nxt.get(idx, 0) - weight * coeff
            prev, row = row, {idx: c for idx, c in nxt.items() if c}
            k += 1
        self._recursion_rows[m] = (k, prev, row)
        return row

    def multiply_recursive(self, n: int, m: int) -> HeckeElement:
        """Basis product by the recursion: :meth:`recursive_terms` wrapped, uncopied."""
        return HeckeElement._of(self, self.recursive_terms(n, m))

    def multiply_closed(self, n: int, m: int) -> HeckeElement:
        """Basis product from the closed-form table."""
        return self.multiply_basis(n, m)

    def _basis_product(self, n: int, m: int) -> dict:
        """Closed-form table, one formula in the distances for both modes.

        Let d = step·n <= e = step·m, let q_l be q1 at odd l and q0 at even
        l, and let Q_k = q_1 ⋯ q_k (Q_0 = 1).  Then

            G_d·G_e = G_(e+d) + Σ_(l=1..d−1) (q_l − 1)·Q_(l−1)·G_(e+d−2l)
                      + Q_(d−1)·(q_d + [d = e])·G_(e−d),

        and distance e + d − 2l is basis index m + n − 2l/step.

        The coefficients depend on the smaller factor ``n`` alone, except
        for the ``[d = e]`` of the end term, and the row ``1, (q_l − 1)·Q_(l−1)``
        for ``l < d`` is the length-``d`` prefix of the row for any larger
        ``d``.  So the step, one list of those coefficients and one of the
        products ``Q_l`` are kept, the lists extended as far as the largest
        ``d`` asked for, and each call returns a fresh dict of them.
        """
        _check_index(n)
        _check_index(m)
        if n > m:
            n, m = m, n
        if n == 0:
            return {m: 1}
        kept = self._closed_form
        if kept is None:
            kept = self._closed_form = (self.params.step, [1], [1])
        step, coeffs, prods = kept
        d = step * n
        while len(prods) <= d:
            l = len(prods)
            ql = self.params.q1 if l % 2 else self.params.q0
            coeffs.append((ql - 1) * prods[-1])
            prods.append(prods[-1] * ql)
        # the range holds d indices, so zip reads the first d coefficients
        out = dict(zip(range(m + n, m - n, -2 // step), coeffs))
        out[m - n] = prods[d] + prods[d - 1] if m == n else prods[d]
        return out

    # -- normalization ---------------------------------------------------------

    def normalize(self, x: HeckeElement) -> HeckeElement:
        """Rescale each basis term by the inverse of its coset count."""
        return HeckeElement(
            self, [(n, Fraction(coeff, self.r_value(n))) for n, coeff in x.terms()]
        )

    def normalized_coefficients(self, x: HeckeElement) -> dict:
        """Coordinates of ``x`` in the rescaled (unit coset-count) basis."""
        return {n: coeff * self.r_value(n) for n, coeff in x.terms()}

    def normalized_generator_product(self, n: int) -> HeckeElement:
        """Product of the rescaled generator with the rescaled class ``n``.

        The result satisfies the normalized recurrence relations; read its
        rescaled-basis coordinates with :meth:`normalized_coefficients`.
        """
        return self.normalize(self.basis_element(1)) * self.normalize(
            self.basis_element(n)
        )

    # -- polynomial model -------------------------------------------------------

    def _basis_poly(self, n: int) -> tuple:
        """Coefficients of the monic polynomial expressing class ``n`` in the generator."""
        polys = self._basis_polys
        while len(polys) <= n:
            k = len(polys) - 1
            a, b = self._recursion(k)
            shifted = (0,) + polys[k]
            nxt = [c for c in shifted]
            for i, c in enumerate(polys[k]):
                nxt[i] -= b * c
            for i, c in enumerate(polys[k - 1]):
                nxt[i] -= a * c
            polys.append(tuple(nxt))
        return polys[n]

    def to_polynomial(self, x: HeckeElement) -> tuple:
        """Coefficient sequence (low degree first) of ``x`` as a polynomial in the generator."""
        if x.is_zero():
            return ()
        # each basis polynomial is monic of its degree: the top coefficient is nonzero
        degree = max(n for n, _ in x.terms())
        coeffs = [0] * (degree + 1)
        for n, c in x.terms():
            for i, p in enumerate(self._basis_poly(n)):
                coeffs[i] += c * p
        return tuple(coeffs)

    def from_polynomial(self, coeffs) -> HeckeElement:
        """Inverse of :meth:`to_polynomial`; ``coeffs`` must pass :func:`core.exact`."""
        work = [exact(c) for c in coeffs]
        while work and not work[-1]:
            work.pop()
        acc: dict = {}
        for d in range(len(work) - 1, -1, -1):
            c = work[d]
            if not c:
                continue
            acc[d] = c
            for i, p in enumerate(self._basis_poly(d)):
                work[i] -= c * p
        return HeckeElement(self, acc)
