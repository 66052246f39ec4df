"""Core algebra: words, rational polynomials, formal sums, three products."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from izeta.algebra import (
    FormalSum,
    Index,
    RatPoly,
    T,
    Word,
    as_sum,
    circle,
    circle_act,
    harmonic_product,
    parse_formal_sum,
    parse_index,
    parse_ratpoly,
    parse_word,
    star_product,
    substitute_t,
    t_harmonic_product,
)

from helpers import (
    assert_normal_form,
    dict_to_sum,
    product_of_sums,
    quasi_shuffle,
    t_quasi_shuffle,
    words_up_to_weight,
)

ZERO = FormalSum.zero()
ONE = FormalSum.unit()


def w(*letters):
    return FormalSum.from_word(Word(letters))


letters_st = st.integers(min_value=1, max_value=5)
word_st = st.lists(letters_st, min_size=0, max_size=4).map(tuple)
rational_st = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
poly_st = st.dictionaries(
    st.integers(min_value=0, max_value=4), rational_st, max_size=4
).map(RatPoly)


# ---------------------------------------------------------------- RatPoly

def test_ratpoly_arithmetic_basics():
    p = RatPoly({0: 1, 1: -2, 2: 1})  # (1-t)^2
    q = RatPoly({0: 1, 1: 1})
    assert p + q == RatPoly({0: 2, 1: -1, 2: 1})
    assert p * q == RatPoly({0: 1, 1: -1, 2: -1, 3: 1})
    assert p - p == RatPoly()
    assert (q ** 2) == RatPoly({0: 1, 1: 2, 2: 1})
    assert p.degree == 2 and q.degree == 1 and RatPoly().degree == -1


def test_ratpoly_evaluate_and_derivative():
    p = RatPoly({0: 1, 2: 3})
    assert p.evaluate(Fraction(1, 2)) == Fraction(7, 4)
    assert p.derivative() == RatPoly({1: 6})
    assert RatPoly({0: 5}).derivative() == RatPoly()


def test_ratpoly_compose():
    p = RatPoly({0: 1, 1: -2, 2: 1})
    shift = RatPoly({0: 1, 1: 1})  # t + 1
    assert p.compose(shift) == RatPoly({2: 1})
    assert p.compose(RatPoly({0: Fraction(1, 2)})) == RatPoly({0: Fraction(1, 4)})


def test_ratpoly_rejects_floats():
    with pytest.raises(TypeError):
        RatPoly({0: 0.5})
    with pytest.raises(TypeError):
        RatPoly({0: 1}).evaluate(0.5)


@pytest.mark.parametrize("e", [1.5, 1.0, True, "1", Fraction(1), -1])
def test_ratpoly_exponents_must_be_nonnegative_ints(e):
    message = "negative exponent" if e == -1 else "exponent must be an integer"
    with pytest.raises(ValueError, match=message):
        RatPoly({e: 1})


@pytest.mark.parametrize("c", [0, 2, -3, Fraction(1, 2)])
def test_a_constant_polynomial_hashes_as_the_number_it_equals(c):
    assert RatPoly(c) == c
    assert hash(RatPoly(c)) == hash(c)
    assert len({RatPoly(c), c}) == 1


def test_bools_are_neither_coefficients_nor_powers():
    for build in (
        lambda: RatPoly(True),
        lambda: RatPoly({1: False}),
        lambda: FormalSum.from_word(Word((2,)), True),
    ):
        with pytest.raises(TypeError, match="exact rational coefficient required, got bool"):
            build()
    with pytest.raises(ValueError, match="nonnegative integer power required"):
        pow(T, True)
    # a bool is no scalar either, from either side
    x = FormalSum.from_word(Word((2,)))
    for product in (
        lambda: T * True,
        lambda: True * T,
        lambda: T * False,
        lambda: x * True,
        lambda: False * x,
        lambda: FormalSum.zero() * True,
    ):
        with pytest.raises(TypeError):
            product()
    for b in (True, False):
        assert (RatPoly(int(b)) == b) is False
        assert RatPoly(int(b)) != b


def test_ratpoly_str_and_parse():
    assert str(RatPoly({0: 1, 1: -2, 2: 1})) == "1 - 2*t + t^2"
    assert str(RatPoly()) == "0"
    assert str(RatPoly({1: Fraction(1, 2)})) == "1/2*t"
    for text in ["0", "1", "-1", "t", "-t", "1 + t", "1 - 2*t + t^2", "1/2*t - 3*t^4"]:
        assert str(parse_ratpoly(text)) == text
    with pytest.raises(ValueError):
        parse_ratpoly("1 +")
    with pytest.raises(ValueError):
        parse_ratpoly("t^")


@given(poly_st, poly_st, rational_st)
@settings(max_examples=60, deadline=None)
def test_ratpoly_evaluation_is_ring_homomorphism(p, q, a):
    assert (p + q).evaluate(a) == p.evaluate(a) + q.evaluate(a)
    assert (p * q).evaluate(a) == p.evaluate(a) * q.evaluate(a)


@given(poly_st, poly_st, rational_st)
@settings(max_examples=60, deadline=None)
def test_ratpoly_compose_agrees_with_evaluation(p, q, a):
    assert p.compose(q).evaluate(a) == p.evaluate(q.evaluate(a))


# ---------------------------------------------------------- Word / Index

def test_word_basics():
    u = Word((2, 1, 3))
    assert u.weight == 6 and u.depth == 3
    assert str(u) == "2,1,3"
    assert parse_word("2,1,3") == u
    assert str(Word(())) == ""
    assert Word((1, 2)) < Word((2,)) < Word((2, 1))


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word((0,))
    with pytest.raises(ValueError):
        Word((2, -1))


def test_index_admissibility_and_word_view():
    assert Index((2, 1)).admissible
    assert not Index((1, 2)).admissible
    assert Index((2, 1)).to_word() == Word((2, 1))
    assert Index((3,)).weight == 3 and Index((3,)).depth == 1
    with pytest.raises(ValueError):
        Index(())
    assert not parse_index("1,2").admissible
    with pytest.raises(ValueError):
        parse_index("2,,1")


@pytest.mark.parametrize("x", [(), (1,), (2, 1), (3, 1, 2)])
def test_a_word_is_its_tuple(x):
    assert Word.__hash__ is tuple.__hash__
    assert hash(Word(x)) == hash(x) and Word(x) == x and Word(Word(x)) == x
    assert type(Word(x).letters) is tuple
    if x:
        assert Index(x) == Word(x) and hash(Index(x)) == hash(x)
        assert type(Index(x).parts) is tuple
    # tuple operations give plain tuples
    assert type(Word(x) + Word((1,))) is tuple and type(2 * Word(x)) is tuple


@pytest.mark.parametrize(
    "letters", [(1.5, 2.9), (2.0,), ("2",), (2, "1"), (True,), (2, 1.0)]
)
def test_letters_must_be_ints(letters):
    for cls in (Word, Index):
        with pytest.raises(ValueError, match="positive integer"):
            cls(letters)


def test_an_index_is_never_a_formal_sum_key():
    with pytest.raises(ValueError, match="index must be nonempty"):
        Index(())
    idx = Index((2, 1))
    for make in (
        lambda: FormalSum({idx: 1}),
        lambda: FormalSum([(idx, 1)]),
        lambda: FormalSum.from_word(idx),
        lambda: as_sum(idx),
    ):
        with pytest.raises(TypeError):
            make()
    assert FormalSum.from_word(idx.to_word()) == w(2, 1)
    assert type(idx.to_word()) is Word


# ------------------------------------------------------------- FormalSum

def test_formal_sum_normal_form_drops_zeros():
    e = w(2, 1) - w(2, 1)
    assert e.is_zero() and e == ZERO
    assert not (w(2) + w(3)).is_zero()
    e = w(2) + (-1) * w(2) + w(3)
    assert set(e.words()) == {Word((3,))}


def test_formal_sum_scalar_and_poly_action():
    e = 2 * w(2, 1) + T * w(3)
    assert e.coefficient(Word((2, 1))) == RatPoly({0: 2})
    assert e.coefficient(Word((3,))) == RatPoly({1: 1})
    assert e.coefficient(Word((9,))) == RatPoly()
    assert (e * T).coefficient(Word((3,))) == RatPoly({2: 1})
    assert Fraction(1, 2) * w(2) == FormalSum.from_word(Word((2,)), RatPoly({0: Fraction(1, 2)}))


def test_formal_sum_str_is_canonical_and_parseable():
    e = T * w(3) + w(2, 1)
    assert str(e) == "(1)*[2,1] + (t)*[3]"
    assert parse_formal_sum(str(e)) == e
    assert str(ZERO) == "0"
    assert parse_formal_sum("0") == ZERO
    assert str(ONE) == "(1)*[]"
    assert parse_formal_sum("(1)*[]") == ONE
    with pytest.raises(ValueError):
        parse_formal_sum("(1)*[2,1] junk")


@given(st.lists(st.tuples(word_st, poly_st), max_size=4))
@settings(max_examples=80, deadline=None)
def test_formal_sum_round_trips_through_text(pairs):
    e = ZERO
    for letters, poly in pairs:
        e = e + FormalSum.from_word(Word(letters), poly)
    assert parse_formal_sum(str(e)) == e


def test_substitute_t_examples():
    e = 2 * w(1, 1) + RatPoly({0: 1, 1: -2}) * w(2)
    assert substitute_t(e, Fraction(1, 2)) == 2 * w(1, 1)
    assert substitute_t(RatPoly({2: 1}) * w(3), Fraction(-1)) == w(3)
    e = w(2) + T * w(3)
    assert substitute_t(e, 0) == w(2)


# ------------------------------------------------------ circle and action

def test_circle_adds_subscripts():
    assert circle(2, 1) == 3
    assert circle(1, 1) == 2
    assert circle(5, 3) == 8


def test_circle_act_examples():
    assert circle_act(2, ONE) == ZERO
    assert circle_act(2, w(1, 3)) == w(3, 3)
    assert circle_act(1, w(1, 1) + w(2)) == w(2, 1) + w(3)


# ------------------------------------------------------------- products

def test_harmonic_product_examples():
    assert harmonic_product(w(1), w(1)) == 2 * w(1, 1) + w(2)
    assert harmonic_product(ONE, w(3, 1)) == w(3, 1)
    assert harmonic_product(w(1), w(1, 1)) == 3 * w(1, 1, 1) + w(1, 2) + w(2, 1)
    assert harmonic_product(w(2), w(2)) == 2 * w(2, 2) + w(4)


def test_star_product_examples():
    assert star_product(w(1), w(1)) == 2 * w(1, 1) - w(2)
    assert star_product(w(1), w(1, 1)) == 3 * w(1, 1, 1) - w(1, 2) - w(2, 1)
    assert star_product(ONE, w(4, 2)) == w(4, 2)


def test_t_product_examples():
    one_minus_2t = RatPoly({0: 1, 1: -2})
    t2_minus_t = RatPoly({1: -1, 2: 1})
    assert t_harmonic_product(w(1), w(1)) == 2 * w(1, 1) + one_minus_2t * w(2)
    expected = (
        3 * w(1, 1, 1)
        + one_minus_2t * (w(1, 2) + w(2, 1))
        + t2_minus_t * w(3)
    )
    assert t_harmonic_product(w(1), w(1, 1)) == expected
    assert t_harmonic_product(ONE, w(2, 1)) == w(2, 1)


small_word_st = st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=3).map(tuple)


@given(small_word_st, small_word_st)
@settings(max_examples=60, deadline=None)
def test_harmonic_product_matches_reference_quasi_shuffle(u, v):
    expected = dict_to_sum(quasi_shuffle(u, v, +1))
    assert harmonic_product(FormalSum.from_word(Word(u)), FormalSum.from_word(Word(v))) == expected


@given(small_word_st, small_word_st)
@settings(max_examples=60, deadline=None)
def test_star_product_matches_reference_quasi_shuffle(u, v):
    expected = dict_to_sum(quasi_shuffle(u, v, -1))
    assert star_product(FormalSum.from_word(Word(u)), FormalSum.from_word(Word(v))) == expected


@given(small_word_st, small_word_st)
@settings(max_examples=60, deadline=None)
def test_t_product_specializes_to_both_classical_products(u, v):
    e = t_harmonic_product(FormalSum.from_word(Word(u)), FormalSum.from_word(Word(v)))
    assert substitute_t(e, 0) == harmonic_product(FormalSum.from_word(Word(u)), FormalSum.from_word(Word(v)))
    assert substitute_t(e, 1) == star_product(FormalSum.from_word(Word(u)), FormalSum.from_word(Word(v)))


@pytest.mark.parametrize("product", [harmonic_product, star_product, t_harmonic_product])
def test_products_commute_up_to_combined_weight_8(product):
    words = words_up_to_weight(4)
    for a in words:
        for b in words:
            if a.weight + b.weight > 8 or b < a:
                continue
            ea, eb = FormalSum.from_word(a), FormalSum.from_word(b)
            assert product(ea, eb) == product(eb, ea)


@pytest.mark.parametrize("product", [harmonic_product, star_product, t_harmonic_product])
def test_products_associate_up_to_combined_weight_7(product):
    words = words_up_to_weight(3)
    for a in words:
        for b in words:
            for c in words:
                if a.weight + b.weight + c.weight > 7:
                    continue
                ea, eb, ec = (FormalSum.from_word(x) for x in (a, b, c))
                assert product(product(ea, eb), ec) == product(ea, product(eb, ec))


@pytest.mark.parametrize("product", [harmonic_product, star_product, t_harmonic_product])
def test_unit_law(product):
    for word in words_up_to_weight(4):
        e = FormalSum.from_word(word)
        assert product(ONE, e) == e
        assert product(e, ONE) == e


def test_products_are_weight_homogeneous():
    for a in words_up_to_weight(4):
        for b in words_up_to_weight(4):
            if a.weight + b.weight > 7:
                continue
            e = t_harmonic_product(FormalSum.from_word(a), FormalSum.from_word(b))
            assert all(word.weight == a.weight + b.weight for word in e.words())


def test_products_are_bilinear():
    ea, eb, ec = w(2), w(1, 1), w(3)
    lhs = harmonic_product(ea + 2 * eb, ec)
    assert lhs == harmonic_product(ea, ec) + 2 * harmonic_product(eb, ec)
    lhs = t_harmonic_product(ec, T * ea - eb)
    assert lhs == T * t_harmonic_product(ec, ea) - t_harmonic_product(ec, eb)


# the three products as plain-dict word products, {letter tuple: {t exponent: int}}
REFERENCE_PRODUCTS = {
    harmonic_product: lambda u, v: {x: {0: m} for x, m in quasi_shuffle(u, v, +1).items()},
    star_product: lambda u, v: {x: {0: m} for x, m in quasi_shuffle(u, v, -1).items()},
    t_harmonic_product: t_quasi_shuffle,
}

# sums over {letter tuple: {t exponent: coefficient}}: Fraction coefficients,
# several degrees, the unit word, and words that two products share
PLAIN_SUMS = {
    "z1-z2": {(1,): {0: 1}, (2,): {0: -1}},
    "z1+z2": {(1,): {0: 1}, (2,): {0: 1}},
    "fractions": {(2, 1): {0: Fraction(1, 2), 1: 3}, (1,): {2: Fraction(-2, 3)}, (3,): {0: 1}},
    "unit-and-degrees": {
        (): {0: Fraction(1, 2)},
        (1, 1): {0: Fraction(-5, 4), 1: 1},
        (2,): {0: 7},
        (1, 2, 1): {1: Fraction(1, 3), 3: -2},
    },
}


def as_plain(e):
    return {word.letters: dict(poly.coeffs) for word, poly in e.items()}


def lift(terms):
    return FormalSum({Word(u): RatPoly(poly) for u, poly in terms.items()})


def test_the_plain_t_product_specializes_to_both_classical_products():
    for u in words_up_to_weight(4):
        for v in words_up_to_weight(3):
            ref = t_quasi_shuffle(u.letters, v.letters)
            for t, sign in ((0, +1), (1, -1)):
                at_t = {x: sum(c * t**e for e, c in poly.items()) for x, poly in ref.items()}
                assert {x: c for x, c in at_t.items() if c} == quasi_shuffle(u.letters, v.letters, sign)


@pytest.mark.parametrize("product", list(REFERENCE_PRODUCTS), ids=lambda f: f.__name__)
@pytest.mark.parametrize("left", sorted(PLAIN_SUMS))
@pytest.mark.parametrize("right", sorted(PLAIN_SUMS))
def test_products_of_sums_match_the_plain_dict_expansion(product, left, right):
    x, y = PLAIN_SUMS[left], PLAIN_SUMS[right]
    got = product(lift(x), lift(y))
    assert_normal_form(got)
    assert as_plain(got) == product_of_sums(x, y, REFERENCE_PRODUCTS[product])


@pytest.mark.parametrize("product", list(REFERENCE_PRODUCTS), ids=lambda f: f.__name__)
def test_words_cancel_inside_a_product_of_sums(product):
    # ([1] - [2]) * ([1] + [2]): the words [1,2], [2,1] and [3] of
    # [1] * [2] and of -[2] * [1] cancel
    got = product(w(1) - w(2), w(1) + w(2))
    assert_normal_form(got)
    merge = {harmonic_product: {0: 1}, star_product: {0: -1}, t_harmonic_product: {0: 1, 1: -2}}
    expected = {
        (1, 1): {0: 2},
        (2,): merge[product],
        (2, 2): {0: -2},
        (4,): {e: -c for e, c in merge[product].items()},
    }
    assert as_plain(got) == expected


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda: parse_ratpoly(""), ValueError, "empty polynomial"),
        (lambda: parse_ratpoly("2t^x"), ValueError, "malformed polynomial term '2t^x'"),
        (lambda: parse_formal_sum("(1)*[2] + junk"), ValueError,
         "malformed formal sum near 'junk'"),
        (lambda: parse_formal_sum("(1)*[2] junk"), ValueError,
         "malformed formal sum near ' junk'"),
        (lambda: parse_word("2,x"), ValueError,
         "malformed word '2,x': invalid literal for int() with base 10: 'x'"),
        (lambda: parse_index("  "), ValueError, "index must be nonempty"),
        (lambda: RatPoly(2) ** -1, ValueError, "nonnegative integer power required"),
        (lambda: as_sum(3), TypeError, "expected Word or FormalSum, got int"),
    ],
)
def test_refusals_name_what_is_wrong(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == message


@pytest.mark.parametrize(
    "parse, text, term",
    [
        (parse_ratpoly, "1/0", "1/0"),
        (parse_ratpoly, "1 - 3/00*t^2", "3/00*t^2"),
        (parse_formal_sum, "(1/0)*[2]", "1/0"),
        (parse_formal_sum, "(1)*[3] + (t - 0/0t)*[2]", "0/0t"),
    ],
)
def test_a_zero_denominator_is_refused_as_malformed_text(parse, text, term):
    # every malformed text raises ValueError, a zero denominator too
    with pytest.raises(ValueError) as info:
        parse(text)
    assert type(info.value) is ValueError
    assert str(info.value) == f"zero denominator in polynomial term {term!r}"
