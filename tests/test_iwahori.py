"""Edge-fixator algebra: word arithmetic, presentation, closed form, inversion sector."""

import itertools
import random
from fractions import Fraction

import pytest

from hecketree import tree, verify
from hecketree.iwahori import (
    DeltaIndex,
    IwahoriAlgebra,
    bar,
    check_word,
    index_label,
    parse_index,
    word_concat,
    word_inverse,
)

A22 = IwahoriAlgebra(2, 2)
A23 = IwahoriAlgebra(2, 3)


def test_word_validation():
    check_word("stst")
    with pytest.raises(ValueError):
        check_word("ss")
    with pytest.raises(ValueError):
        check_word("sx")


def test_word_concat():
    assert word_concat("s", "s") == ""
    assert word_concat("st", "ts") == ""
    assert word_concat("st", "st") == "stst"
    assert word_concat("sts", "st") == "s"
    assert word_concat("sts", "ts") == "ststs"
    assert word_concat("", "ts") == "ts"


def test_bar_and_inverse():
    assert bar("s") == "t"
    assert bar("sts") == "tst"
    assert bar("") == ""
    assert bar(bar("stst")) == "stst"
    assert word_inverse("st") == "ts"


def test_label_roundtrip():
    for text in ["1", "i", "s", "ist", "tst"]:
        assert index_label(parse_index(text)) == text
    assert parse_index("1") == DeltaIndex(0, "")
    with pytest.raises(ValueError):
        parse_index("iss")
    with pytest.raises(ValueError):
        parse_index("")


@pytest.mark.parametrize("qs,qt", [(2, 2), (2, 3), (3, 2)])
def test_presentation_relations(qs, qt):
    algebra = IwahoriAlgebra(qs, qt)
    d = algebra.delta
    for letter, q in (("s", qs), ("t", qt)):
        assert d(letter) * d(letter) == q * algebra.one() + (q - 1) * d(letter)
    assert d("i") * d("i") == algebra.one()
    assert d("i") * d("s") * d("i") == d("t")
    assert d("i") * d("t") * d("i") == d("s")


def test_generator_rule_examples():
    d = A22.delta
    assert d("s") * d("t") == d("st")
    assert d("s") * d("st") == 2 * d("t") + d("st")
    assert d("st") * d("ts") == 4 * A22.one() + 2 * d("s") + d("sts")
    assert d("st") * d("st") == d("stst")


def test_multiply_by_generator_sides():
    x = A22.delta("st")
    assert A22.multiply_by_generator("s", x, side="left") == 2 * A22.delta("t") + x
    assert A22.multiply_by_generator("t", x, side="right") == 2 * A22.delta("s") + x
    assert A22.multiply_by_generator("s", x, side="right") == A22.delta("sts")
    with pytest.raises(ValueError):
        A22.multiply_by_generator("s", x, side="middle")


def test_factorization_through_letters():
    # a reduced word's basis element is the ordered product of its letters
    for algebra in (A22, A23):
        for text in ["st", "sts", "tsts"]:
            prod = algebra.one()
            for letter in text:
                prod = prod * algebra.delta(letter)
            assert prod == algebra.delta(text)


def test_r_values():
    assert A22.r_value(DeltaIndex(0, "s")) == 2
    assert A23.r_value(DeltaIndex(0, "sts")) == 12
    assert A23.r_value(DeltaIndex(1, "")) == 1
    for text in ["st", "tst"]:
        idx = parse_index(text)
        total = 1
        for letter in text:
            total *= A23.letter_weight(letter)
        assert A23.r_value(idx) == total


@pytest.mark.parametrize("qs,qt", [(2, 2), (2, 3), (3, 2)])
def test_closed_equals_generated(qs, qt):
    algebra = IwahoriAlgebra(qs, qt)
    indices = algebra.words_up_to(4)
    for a in indices:
        for b in indices:
            assert algebra.multiply_closed(a, b) == algebra.multiply_basis(a, b)


def test_closed_non_interacting_case():
    assert A23.multiply_closed(DeltaIndex(0, "st"), DeltaIndex(0, "st")) == A23.delta(
        "stst"
    )


def test_oracle_agreement_small(ball22):
    indices = A22.words_up_to(3)
    for a in indices:
        for b in indices:
            prod = A22.multiply_basis(a, b)
            for target in A22.words_up_to(len(a.word) + len(b.word)):
                count = tree.iwahori_constant(
                    ball22, a.word, b.word, target.word, (a.iflag, b.iflag, target.iflag)
                )
                assert prod.coefficient(target) == count


def test_oracle_agreement_word_sector_biregular(ball23):
    indices = A23.words_up_to(3, with_iflag=False)
    for a in indices:
        for b in indices:
            prod = A23.multiply_basis(a, b)
            for target in A23.words_up_to(len(a.word) + len(b.word), with_iflag=False):
                count = tree.iwahori_constant(ball23, a.word, b.word, target.word)
                assert prod.coefficient(target) == count


def test_sweep_oracle_checks_the_plain_cells_at_unequal_weights():
    # at qs != qt only plain words have an edge model: the declared oracle
    # returns a vector on exactly the 121 (0, 0) cells of the 484
    make_algebra, routes = verify.iwahori_routes(2, 3, 5)
    algebra = make_algebra()
    oracle = routes["oracle"](algebra)
    checked = {
        (a.iflag, b.iflag)
        for a, b in verify.CELLS["iwahori"](algebra, 5)
        if oracle(a, b) is not None
    }
    assert checked == {(0, 0)}
    report = verify.verify_iwahori(2, 3, 5)
    assert report.ok and report.route_cells == {"generated": 484, "closed": 484, "oracle": 121}
    report = verify.verify_iwahori(2, 2, 5)
    assert report.ok and report.route_cells == {"generated": 484, "closed": 484, "oracle": 484}


def test_twisted_tensor_law():
    # (flag, word) pairs multiply like a group ring twisted by the letter swap
    for algebra in (A22,):
        indices = algebra.words_up_to(2)
        for a in indices:
            for b in indices:
                left = bar(a.word) if b.iflag else a.word
                expected = algebra.element(algebra._word_product(left, b.word, a.iflag ^ b.iflag))
                assert algebra.multiply_basis(a, b) == expected


def _rewritten(algebra, w1, w2):
    """``w1 * w2`` by the one-letter rewriting rule, letter by letter from ``w1``."""
    terms = {w1: 1}
    for letter in w2:
        q = algebra.letter_weight(letter)
        out = {}
        for word, coeff in terms.items():
            if word.endswith(letter):
                out[word[:-1]] = out.get(word[:-1], 0) + coeff * q
                out[word] = out.get(word, 0) + coeff * (q - 1)
            else:
                out[word + letter] = out.get(word + letter, 0) + coeff
        terms = out
    return terms


@pytest.mark.parametrize("qs,qt", [(2, 3), (2, 2)])
def test_kept_word_products_match_in_any_order(qs, qt):
    # each product grows from the kept one a letter shorter when that was
    # asked for, and from w1 otherwise; neither depends on the order of cells
    algebra = IwahoriAlgebra(qs, qt)
    cells = list(itertools.product(algebra.words_up_to(5), repeat=2))
    random.Random(17).shuffle(cells)
    for a, b in cells:
        left = bar(a.word) if b.iflag else a.word
        expected = algebra.element(
            {
                DeltaIndex(a.iflag ^ b.iflag, w): c
                for w, c in _rewritten(algebra, left, b.word).items()
            }
        )
        assert algebra.multiply_basis(a, b) == expected, (a, b)
    assert len(algebra._word_products) == 11 * 11 * 2


def test_kept_terms_are_checked_where_they_are_made(monkeypatch):
    # the product cache checks a generated product as it admits it, so a
    # non-integral coefficient fails there and nothing is cached
    def half(self, *args):
        return {DeltaIndex(0, "st"): Fraction(1, 2)}

    monkeypatch.setattr(IwahoriAlgebra, "_basis_product", half)
    algebra = IwahoriAlgebra(2, 3)
    s, t = DeltaIndex(0, "s"), DeltaIndex(0, "t")
    named = r"Fraction\(1, 2\) at DeltaIndex\(iflag=0, word='st'\)"
    with pytest.raises(AssertionError, match=named):
        algebra.multiply_basis(s, t)
    assert algebra._product_cache == {}


def test_generated_products_are_keyed_once_per_triple():
    # is * i and t * 1 share left word t, right word 1 and flag 0
    algebra = IwahoriAlgebra(2, 2)
    first = algebra._basis_product(*map(algebra.parse_label, ("t", "1")))
    assert algebra._basis_product(*map(algebra.parse_label, ("is", "i"))) is first
    assert list(algebra._word_products) == [("t", "", 0)]
    assert algebra.multiply_basis(*map(algebra.parse_label, ("is", "i")))._terms == first


def test_star_reverses_words():
    assert A22.delta("st").star() == A22.delta("ts")
    assert A22.delta("is").star() == A22.delta("it")
    assert A23.delta("sts").star() == A23.delta("sts")


def test_star_antimultiplicative_random():
    rng = random.Random(11)
    indices = A22.words_up_to(3)
    for _ in range(120):
        x = A22.element({rng.choice(indices): rng.randint(1, 3) for _ in range(2)})
        y = A22.element({rng.choice(indices): rng.randint(1, 3) for _ in range(2)})
        assert (x * y).star() == y.star() * x.star()


def test_associativity_extended_homogeneous():
    indices = A22.words_up_to(3)
    for a, b, c in itertools.product(indices, repeat=3):
        ea, eb, ec = (A22.basis_element(i) for i in (a, b, c))
        assert (ea * eb) * ec == ea * (eb * ec)


def test_associativity_word_sector_biregular():
    indices = A23.words_up_to(3, with_iflag=False)
    for a, b, c in itertools.product(indices, repeat=3):
        ea, eb, ec = (A23.basis_element(i) for i in (a, b, c))
        assert (ea * eb) * ec == ea * (eb * ec)


def test_r_hom_multiplicative_where_coherent():
    rng = random.Random(5)
    cases = [(A22, A22.words_up_to(3)), (A23, A23.words_up_to(3, with_iflag=False))]
    for algebra, indices in cases:
        for _ in range(100):
            x = algebra.element({rng.choice(indices): rng.randint(1, 3)})
            y = algebra.element({rng.choice(indices): rng.randint(1, 3)})
            assert (x * y).r_hom() == x.r_hom() * y.r_hom()


def test_params_validation():
    with pytest.raises(ValueError):
        IwahoriAlgebra(1, 2)
