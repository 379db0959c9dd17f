"""Exact-coefficient Hecke-algebra elements over a pluggable double-coset basis.

A Hecke algebra is presented here by its canonical basis: a subclass of
:class:`HeckeAlgebra` names the unit index and supplies the structure
constants of basis products (always nonnegative integers, since they count
coset incidences), the involution on basis indices induced by inversion, and
the right-coset count of each basis index.  Everything else -- sparse linear
combinations with exact rational coefficients, bilinear multiplication, the
star involution, and the coset-counting homomorphism to the scalars -- is
generic and lives in :class:`HeckeElement`.

A subclass validates its parameters and passes them to
``HeckeAlgebra.__init__``; algebras of one class with equal parameters
compare and hash equal, by those parameters alone.  The rules
every algebra shares live here: branching numbers are read and bounded by
:func:`branching`, :func:`shared` keeps one instance per class and
parameters for the maps whose images must share a product cache, and
:func:`structure_constants` checks the coset counts of a basis product
where the product cache admits them, in :meth:`HeckeAlgebra.basis_terms`,
which keeps the dict the algebra handed over and hands that dict out.
:meth:`HeckeAlgebra.multiply_basis` wraps it, uncopied, as an element.  One
rule: callers read the dict and make an element only where element
arithmetic is the point; every ``verify`` route but affine ``normal-form``
reads it or the dict its own route keeps.  That is the one check: a
``verify`` sweep compares every other route with a route that reads this
cache, so a bad value elsewhere is a mismatch.  A table prints each
product once, so it reads :meth:`HeckeAlgebra.table_terms`, which makes
the same check without admitting the product, and ends with
:meth:`HeckeAlgebra.end_table`, which empties the cache: a table keeps no
product it has printed beyond one left word length's Iwahori rows.

Coefficient rule, owned by :func:`exact`: a coefficient is an ``int`` or a
``Fraction`` and is kept as given, never converted; anything else, ``bool``
and ``float`` included, is a ``TypeError``.  Integer structure constants
therefore stay ``int`` through every product of integer elements, and a
``Fraction`` appears only where a value really is a quotient.
"""

from __future__ import annotations

import functools
import operator
import sys
from collections.abc import Iterable, Mapping
from fractions import Fraction


class HeckeAlgebra:
    """A double-coset basis with integer structure constants.

    Concrete algebras validate their parameters and pass them to
    ``__init__``, implement ``_basis_product``, ``involute_basis``,
    ``r_value``, set ``unit``, and provide label round-tripping for the CLI.
    Two algebras are equal when they are of one class and were passed
    equal parameters, which ``__init__`` keeps as ``_params``.  Instances
    are immutable apart from memos of results already computed, such as the
    product cache here.  No memo changes a result.  The product cache keeps
    the dict ``_basis_product`` returns, which is never mutated afterwards.
    :meth:`basis_terms` is the cache's one entry point: it checks a product
    once, on admission, caches it and hands out the kept dict;
    :meth:`multiply_basis` wraps that dict as an element.  A table reads
    :meth:`table_terms`, checked but not admitted (the Iwahori table keeps
    one left word length's rows), and calls :meth:`end_table` after its
    last cell, which leaves the product cache empty.
    """

    #: basis index of the identity double coset
    unit = None

    def __init__(self, *params):
        self._params = params
        self._product_cache = {}

    # -- subclass surface -------------------------------------------------

    def _basis_product(self, a, b):
        """Structure constants of a basis product, as a dict index -> int, kept as it is."""
        raise NotImplementedError

    def involute_basis(self, a):
        """Image of a basis index under coset inversion."""
        raise NotImplementedError

    def r_value(self, a) -> int:
        """Number of right cosets in the double coset indexed by ``a``."""
        raise NotImplementedError

    def basis_key(self, a):
        """Sort key fixing the canonical ordering of basis indices."""
        return a

    def basis_label(self, a) -> str:
        raise NotImplementedError

    def parse_label(self, text: str):
        raise NotImplementedError

    # -- generic behaviour ------------------------------------------------

    def __eq__(self, other):
        return type(self) is type(other) and self._params == other._params

    def __hash__(self):
        return hash((type(self), self._params))

    def basis_terms(self, a, b) -> dict:
        """The terms of the basis product ``a * b``: the dict the product cache keeps.

        The one entry point to the cache: a product is checked by
        :func:`structure_constants` when it is admitted, once, and every
        later call hands out the same dict, which the caller only reads.
        """
        terms = self._product_cache.get((a, b))
        if terms is None:
            terms = self._product_cache[a, b] = structure_constants(self._basis_product(a, b))
        return terms

    def table_terms(self, a, b) -> dict:
        """The terms of ``a * b`` for a table, which prints each product once.

        Checked by :func:`structure_constants` like an admitted product, but
        not admitted, so a table keeps no product it has printed.  An algebra
        whose products grow from the ones the cache keeps overrides this to
        admit them while they can still be read: the Iwahori table keeps one
        left word length's rows (:meth:`hecketree.iwahori.IwahoriAlgebra.table_terms`).
        """
        return structure_constants(self._basis_product(a, b))

    def end_table(self) -> None:
        """Called once a table has read its last cell: the product cache is left empty."""
        self._product_cache.clear()

    def multiply_basis(self, a, b) -> "HeckeElement":
        """Product of two basis elements: :meth:`basis_terms` wrapped, uncopied, as an element."""
        return HeckeElement._of(self, self.basis_terms(a, b))

    def element(self, terms) -> "HeckeElement":
        return HeckeElement(self, terms)

    def basis_element(self, a) -> "HeckeElement":
        return HeckeElement(self, {a: 1})

    def one(self) -> "HeckeElement":
        return self.basis_element(self.unit)

    def zero(self) -> "HeckeElement":
        return HeckeElement(self, {})


class Frozen:
    """Base of the immutable value classes, whose fields are their ``__slots__``.

    ``__init__`` sets every field once, by one call to :meth:`_set`;
    assigning or deleting a field afterwards is an AttributeError.  From the
    fields, in ``__slots__`` order, this class derives equality (same class,
    equal fields), the hash (that of the field tuple) and the repr
    (``Name(field=value, ...)``).  Pickling and copying carry the fields over
    as they are, without a second ``__init__``.  A subclass whose values
    compare or print by another rule overrides the method concerned.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        """Set the fields to ``values``, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        """The field values, in ``__slots__`` order."""
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable object")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable object")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return _rebuild, (type(self), self._fields())


def _rebuild(cls, values: tuple) -> Frozen:
    """The ``cls`` instance with these field values, in ``__slots__`` order."""
    out = object.__new__(cls)
    out._set(*values)
    return out


def branching(*numbers, noun: str = "branching number") -> tuple:
    """The branching numbers (or letter weights) as ints, each at least 2.

    ``operator.index`` takes ints and their subclasses only, so a float or a
    Fraction is a TypeError and no non-integer reaches an exact table to
    turn its results into floats.  A number below 2 is a ValueError naming
    ``noun``, with one number printed bare and several as a tuple.
    """
    numbers = tuple(map(operator.index, numbers))
    if min(numbers) < 2:
        if len(numbers) == 1:
            raise ValueError(f"{noun} must be >= 2, got {numbers[0]}")
        raise ValueError(f"{noun}s must be >= 2, got {numbers}")
    return numbers


@functools.lru_cache(maxsize=None, typed=True)
def shared(cls, *params):
    """The one ``cls(*params)`` of the process, for maps whose images share a product cache.

    Typed, so a float equal to a cached int is passed on to ``cls`` and
    refused there, never answered with the int's instance.
    """
    return cls(*params)


def exact(value) -> int | Fraction:
    """Return an exact coefficient unchanged; raise TypeError for any other value.

    ``int`` and ``Fraction`` pass as they are, so integers stay integers;
    ``bool``, ``float`` and everything else are rejected, never coerced.
    """
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    raise TypeError(f"coefficients must be int or Fraction, got {type(value)!r}")


def structure_constants(terms: dict) -> dict:
    """Check that the term dict ``terms`` counts cosets; return it, or a copy without its zeros.

    A structure constant is a plain nonnegative ``int`` (``bool`` is not a
    count); any other coefficient is an AssertionError naming its index.
    ``terms`` itself is returned unless a coefficient is zero.
    """
    for idx, coeff in terms.items():
        if type(coeff) is not int or coeff < 0:
            raise AssertionError(
                f"structure constant {coeff!r} at {idx!r} is not a nonnegative integer"
            )
    return terms if all(terms.values()) else {idx: c for idx, c in terms.items() if c}


def int_str_limit() -> int:
    """The interpreter's limit on the decimal digits of an int read or printed, 0 for none."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit else 0


def int_limit_error(fact: str, use: str) -> ValueError:
    """The error stating ``fact`` about an int over the interpreter's limit for ``use``.

    ``use`` is "printing" or "reading".  The interpreter converts between an int of more than
    ``sys.get_int_max_str_digits()`` decimal digits and text only if that
    limit is raised, which a command line can do through the
    ``PYTHONINTMAXSTRDIGITS`` environment variable alone.
    """
    return ValueError(
        f"{fact}, the interpreter's limit for {use} an integer; set PYTHONINTMAXSTRDIGITS"
        " to a larger limit, or to 0 for none"
    )


def unprintable_int(subject: str) -> ValueError:
    """The error for ``subject``, an int of more digits than the interpreter will print."""
    return int_limit_error(f"{subject} has more than {int_str_limit()} digits", "printing")


def label_int(text: str) -> int | None:
    """The integer ``text`` spells inside a basis label, or None if it is no such spelling.

    Labels print a nonnegative integer as ASCII digits without a leading
    zero, and only that spelling is read back: ``int()`` would also take a
    sign, ``_``, spaces, leading zeros and non-ASCII digits.  A spelling
    longer than ``sys.get_int_max_str_digits()`` is a ValueError naming that
    limit, which a command line can raise through ``PYTHONINTMAXSTRDIGITS``.
    """
    if not (text.isascii() and text.isdigit() and (text[0] != "0" or text == "0")):
        return None
    limit = int_str_limit()
    if limit and len(text) > limit:
        raise int_limit_error(
            f"the integer {text[:10]}... has {len(text)} digits, more than {limit}",
            "reading",
        )
    return int(text)


class HeckeElement:
    """Finitely supported rational linear combination of basis indices.

    Immutable value type: every operation returns a new element, zero terms
    are pruned on construction, and equality is structural.  Coefficients
    are checked by :func:`exact` and kept as given: ``int`` or ``Fraction``.
    ``int`` 3 and ``Fraction(3)`` compare and hash equal, so equality does
    not see the difference.  An element may share its term
    dict with the product cache, so ``_terms`` is never mutated once built.
    """

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: HeckeAlgebra, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for idx, coeff in items:
            coeff = exact(coeff)
            if not coeff:
                continue
            prev = acc.get(idx)
            if prev is None:
                acc[idx] = coeff
            else:
                total = prev + coeff
                if total:
                    acc[idx] = total
                else:
                    del acc[idx]
        self.algebra = algebra
        self._terms = acc

    @classmethod
    def _of(cls, algebra: HeckeAlgebra, terms: dict) -> "HeckeElement":
        """Wrap a dict of exact, nonzero coefficients without checking or copying it."""
        out = cls.__new__(cls)
        out.algebra = algebra
        out._terms = terms
        return out

    # -- terms and coefficients --------------------------------------------

    def items(self):
        """The (index, coefficient) pairs, in no fixed order."""
        return self._terms.items()

    def terms(self) -> list:
        """Term list sorted by the algebra's canonical basis order."""
        return sorted(self._terms.items(), key=lambda kv: self.algebra.basis_key(kv[0]))

    def coefficient(self, idx) -> int | Fraction:
        return self._terms.get(idx, 0)

    def support(self) -> set:
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.algebra == other.algebra and self._terms == other._terms

    def __hash__(self):
        return hash((self.algebra, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for idx, coeff in self.terms():
            label = self.algebra.basis_label(idx)
            if coeff == 1:
                parts.append(label)
            elif coeff.denominator == 1:
                parts.append(f"{coeff}*{label}")
            else:
                parts.append(f"({coeff})*{label}")
        return " + ".join(parts)

    # -- linear structure ---------------------------------------------------

    def _check_compatible(self, other: "HeckeElement"):
        if self.algebra != other.algebra:
            raise ValueError("elements belong to different Hecke algebras")

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self._terms)
        for idx, coeff in other._terms.items():
            total = acc.get(idx, 0) + coeff
            if total:
                acc[idx] = total
            else:
                del acc[idx]
        return HeckeElement._of(self.algebra, acc)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement._of(
            self.algebra, {idx: -coeff for idx, coeff in self._terms.items()}
        )

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar) -> "HeckeElement":
        scalar = exact(scalar)
        if not scalar:
            return HeckeElement._of(self.algebra, {})
        return HeckeElement._of(
            self.algebra, {idx: scalar * coeff for idx, coeff in self._terms.items()}
        )

    def __rmul__(self, scalar) -> "HeckeElement":
        if isinstance(scalar, (int, Fraction)):
            return self.scale(scalar)
        return NotImplemented

    # -- ring structure -------------------------------------------------------

    def __mul__(self, other) -> "HeckeElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check_compatible(other)
        algebra = self.algebra
        basis_terms = algebra.basis_terms
        acc: dict = {}
        for a, ca in self._terms.items():
            for b, cb in other._terms.items():
                weight = ca * cb
                for idx, n in basis_terms(a, b).items():
                    acc[idx] = acc.get(idx, 0) + weight * n
        return HeckeElement._of(algebra, {idx: c for idx, c in acc.items() if c})

    def star(self) -> "HeckeElement":
        """Involution: inverts each basis coset (rational scalars are fixed)."""
        return HeckeElement(
            self.algebra,
            [(self.algebra.involute_basis(idx), coeff) for idx, coeff in self._terms.items()],
        )

    def r_hom(self) -> int | Fraction:
        """Coset-counting homomorphism to the scalars."""
        total = 0
        for idx, coeff in self._terms.items():
            total += coeff * self.algebra.r_value(idx)
        return total
