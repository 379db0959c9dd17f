"""Hecke algebra of an edge fixator: reduced-word basis over two involutions.

The type-preserving double cosets are indexed by reduced alternating words
over the letters ``s`` and ``t`` (the two reflections moving the base edge
to its neighbours along an invariant line).  When the ambient group also
contains type-exchanging elements, each basis index acquires an inversion
flag, normalized to the left: ``(1, w)`` stands for the inversion times the
word ``w``.  Products are generated by the rewriting rules

    D_r * D_w = q_r * D_{rw} + (q_r - 1) * D_w    if w begins with r,
    D_r * D_w = D_{rw}                            otherwise,

their mirror images on the right, and the inversion rules ``D_i^2 = 1``,
``D_i D_s D_i = D_t``.  A closed form for arbitrary word pairs is provided
as an independent route and must agree with the generated product.

Each route makes its terms keyed by :class:`DeltaIndex`, each key made by
``tuple.__new__`` (``_index``), not through the named tuple's Python-level
``__new__``: the same class, so equality, hashes, labels and sort keys are
those of ``DeltaIndex(iflag, word)``.  A product depends on its factors
only through the left word, the right word and the result flag, so ``a *
b`` equals its twin with both flags flipped and the letters of ``a.word``
swapped (``is * i`` is ``t * 1``).  The generated route keeps no memo of
its own but reads the product cache (``basis_terms``): a twin is one
lookup and ``a * (b + letter)`` is one rewriting step from ``a * b``.  A
table or sweep asks for the words in length order, so each of its cells
costs one lookup or one step; a pair whose one-letter-shorter pair was
never asked for is rewritten letter by letter.  A row and its twin row
have one left word length, so a table keeps one left word length's rows
and leaves the product cache empty (:meth:`IwahoriAlgebra.table_terms`):
in canonical order at most four rows.  The closed form keeps its own
terms, one dict per triple (:meth:`IwahoriAlgebra.closed_terms`).
Both hand out the dict they keep, which the caller only reads; the
element methods ``multiply_basis`` and ``multiply_closed`` wrap it.

Coherence boundary: a type-exchanging automorphism forces equal branching
at the two vertex types, so the inversion-decorated sector is a genuine
(associative, coset-counting) Hecke algebra only when ``qs == qt``.  With
unequal weights the decorated indices remain available as formal rewriting
data -- the inversion rules conjugate one letter onto the other, which then
transports unequal weights inconsistently -- but only the plain-word span
is an algebra, matching the geometry (the tree oracle covers decorated
indices only in the homogeneous case).  At (2, 3), ``(D_s·D_s)·D_i = 2·D_i +
D_it`` but ``D_s·(D_s·D_i) = 3·D_i + 2·D_it``.  The sector is kept, not
refused, since the seed's acceptance criterion 3 asserts ``D_i·D_i = 1`` and
``D_i·D_s·D_i = D_t`` at (2, 3).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .core import HeckeAlgebra, HeckeElement, branching

LETTERS = ("s", "t")

_SWAP = str.maketrans("st", "ts")


def check_word(word: str) -> str:
    """Validate a reduced word: alternating letters drawn from {s, t}."""
    for i, ch in enumerate(word):
        if ch not in "st":
            raise ValueError(f"bad letter {ch!r} in word {word!r}")
        if i and word[i - 1] == ch:
            raise ValueError(f"word {word!r} is not alternating")
    return word


def bar(word: str) -> str:
    """Swap the two letters; the automorphism induced by conjugating with the inversion."""
    return word.translate(_SWAP)


def word_inverse(word: str) -> str:
    """Group inverse of a reduced word: reversal, since each letter is an involution."""
    return word[::-1]


def word_concat(w1: str, w2: str) -> str:
    """Product of two reduced words, cancelling equal letters at the junction."""
    check_word(w1)
    check_word(w2)
    i, j = len(w1) - 1, 0
    while i >= 0 and j < len(w2) and w1[i] == w2[j]:
        i -= 1
        j += 1
    return w1[: i + 1] + w2[j:]


class DeltaIndex(NamedTuple):
    """Basis index: optional inversion flag on the left, then a reduced word."""

    iflag: int
    word: str


#: ``_index((iflag, word))`` is ``DeltaIndex(iflag, word)``, made by ``tuple.__new__``
#: without the Python frame of the named tuple's ``__new__``; the terms of a
#: product are keyed by it, hundreds of times a sweep.
_index = functools.partial(tuple.__new__, DeltaIndex)


def index_label(idx: DeltaIndex) -> str:
    """Label of an index, or of any ``(iflag, word)`` pair: ``"1"`` for the identity."""
    iflag, word = idx
    text = ("i" if iflag else "") + word
    return text or "1"


def parse_index(text: str) -> DeltaIndex:
    """Inverse of ``index_label``; the identity is written "1", never as the empty label."""
    if not text:
        raise ValueError('empty iwahori label; the identity is written "1"')
    if text == "1":
        return DeltaIndex(0, "")
    iflag = 0
    if text.startswith("i"):
        iflag = 1
        text = text[1:]
    return DeltaIndex(iflag, check_word(text))


class IwahoriAlgebra(HeckeAlgebra):
    """Edge-fixator Hecke algebra with letter weights ``qs`` and ``qt``.

    ``qs`` (resp. ``qt``) is the branching number at the even-type (resp.
    odd-type) endpoint of the base edge, i.e. the coset count of the
    corresponding one-letter basis element.  The basis always carries the
    inversion flag; the type-preserving subalgebra is the flag-0 span.
    """

    unit = DeltaIndex(0, "")

    def __init__(self, qs: int, qt: int):
        qs, qt = branching(qs, qt, noun="letter weight")
        super().__init__(qs, qt)
        self.qs = qs
        self.qt = qt
        self._closed_products = {}  # (left, right, iflag) -> terms, see closed_terms
        self._table_length = None  # the left word length of a table's last cell, see table_terms

    def letter_weight(self, letter: str) -> int:
        if letter == "s":
            return self.qs
        if letter == "t":
            return self.qt
        raise ValueError(f"bad letter {letter!r}")

    # -- basis data ----------------------------------------------------------

    def r_value(self, idx: DeltaIndex) -> int:
        out = 1
        for ch in idx.word:
            out *= self.letter_weight(ch)
        return out  # the inversion contributes a single coset

    def involute_basis(self, idx: DeltaIndex) -> DeltaIndex:
        word = word_inverse(idx.word)
        if idx.iflag:
            word = bar(word)
        return DeltaIndex(idx.iflag, word)

    def basis_key(self, idx: DeltaIndex):
        return (len(idx.word), idx.word, idx.iflag)

    def basis_label(self, idx: DeltaIndex) -> str:
        return index_label(idx)

    def parse_label(self, text: str) -> DeltaIndex:
        return parse_index(text)

    def delta(self, text: str) -> HeckeElement:
        """Basis element from its label, e.g. ``delta("ist")``."""
        return self.basis_element(parse_index(text))

    # -- products by generator rewriting ----------------------------------------

    def _words_times_letter(self, terms: dict, letter: str) -> dict:
        q = self.letter_weight(letter)
        out: dict = {}
        for idx, coeff in terms.items():
            iflag, word = idx
            if word.endswith(letter):
                shorter = _index((iflag, word[:-1]))
                out[shorter] = out.get(shorter, 0) + coeff * q
                out[idx] = out.get(idx, 0) + coeff * (q - 1)
            else:
                longer = _index((iflag, word + letter))
                out[longer] = out.get(longer, 0) + coeff
        return out

    def _basis_product(self, a: DeltaIndex, b: DeltaIndex) -> dict:
        """The rewritten terms of ``a * b``, grown from the products the cache keeps.

        That is the twin's kept dict, else one step from the kept ``a * b``
        with one letter less on the right, else every letter of ``b.word``
        from ``a * i^b.iflag``.  Kept pairs are looked up by plain ``(iflag,
        word)`` tuples, equal to their :class:`DeltaIndex`.
        """
        aflag, aword = a
        iflag, word = b
        cache = self._product_cache
        terms = cache.get(((1 - aflag, bar(aword)), (1 - iflag, word)))
        if terms is not None:
            return terms
        shorter = cache.get((a, (iflag, word[:-1]))) if word else None
        if shorter is None:
            left = bar(aword) if iflag else aword
            terms, letters = {_index((aflag ^ iflag, left)): 1}, word
        else:
            terms, letters = shorter, word[-1]
        for letter in letters:
            terms = self._words_times_letter(terms, letter)
        return terms

    def table_terms(self, a: DeltaIndex, b: DeltaIndex) -> dict:
        """The terms of ``a * b`` for a table: admitted, since later cells grow from them.

        A cell grows from its twin or from the cell one right letter shorter
        in its own row (:meth:`_basis_product`), and a row and its twin row
        (both flags flipped, the left letters swapped) have one left word
        length.  So the cache is cleared whenever the left word length
        differs from the previous cell's, and at the end of the table
        (:meth:`end_table`): a table keeps one left word length's rows, in
        canonical order at most four, and none when it ends.
        """
        if len(a.word) != self._table_length:
            self._table_length = len(a.word)
            self._product_cache.clear()
        return self.basis_terms(a, b)

    def multiply_by_generator(
        self, letter: str, x: HeckeElement, side: str = "left"
    ) -> HeckeElement:
        """Termwise application of the one-letter rewriting rule."""
        gen = self.basis_element(DeltaIndex(0, check_word(letter)))
        if side == "left":
            return gen * x
        if side == "right":
            return x * gen
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    # -- closed form ---------------------------------------------------------------

    def _word_product_closed(self, w1: str, w2: str, iflag: int) -> dict:
        # alternating words cancel over min(len) letters when w1 ends with
        # w2's first letter and over none otherwise (m = 0 gives w1 + w2);
        # the words made are distinct, but a term made twice must add up
        m = min(len(w1), len(w2)) if w1[-1:] == w2[:1] else 0
        out: dict = {}
        window = 1  # weight of the i trailing letters of w1 already consumed
        for i in range(m):
            q = self.letter_weight(w2[i])
            idx = _index((iflag, w1[: len(w1) - i] + w2[i + 1 :]))
            out[idx] = out.get(idx, 0) + window * (q - 1)
            window *= q
        idx = _index((iflag, w1[: len(w1) - m] + w2[m:]))
        out[idx] = out.get(idx, 0) + window
        return out

    def closed_terms(self, a: DeltaIndex, b: DeltaIndex) -> dict:
        """The terms of ``a * b`` from the closed form: the dict its memo keeps.

        The product depends on ``a`` and ``b`` only through the word the
        left factor contributes, the right word and the result flag, so its
        terms are made in their final keys and kept under that triple:
        flipping both flags and swapping the letters of the left word gives
        the same entry (``is * i`` and ``t * 1`` share one).  Each kept dict
        is handed out for every pair of its triple, so the caller only
        reads it.  Its terms are not checked here: a sweep compares them
        with the generated product, whose terms the product cache checks.
        """
        aflag, aword = a
        bflag, bword = b
        key = (bar(aword) if bflag else aword, bword, aflag ^ bflag)
        terms = self._closed_products.get(key)
        if terms is None:
            terms = self._closed_products[key] = self._word_product_closed(*key)
        return terms

    def multiply_closed(self, a: DeltaIndex, b: DeltaIndex) -> HeckeElement:
        """Product from the closed form (independent of the rewriting route).

        :meth:`closed_terms` wrapped, uncopied, as an element.
        """
        return HeckeElement._of(self, self.closed_terms(a, b))

    def words_up_to(self, max_len: int, with_iflag: bool = True) -> list:
        """All basis indices with word length <= max_len, in canonical order."""
        words = [""]
        for first in LETTERS:
            word = ""
            for k in range(max_len):
                word += first if k % 2 == 0 else bar(first)
                words.append(word)
        flags = (0, 1) if with_iflag else (0,)
        out = [DeltaIndex(f, w) for w in words for f in flags]
        out.sort(key=self.basis_key)
        return out
