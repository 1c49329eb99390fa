import math
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest

from triaut import polynomials
from triaut.automorphisms import compose, compose_all, invert, make, random_triangular
from triaut.derivations import exponential, make_derivation
from triaut.parsing import parse_polynomial
from triaut.polynomials import (
    EXPONENT_BITS,
    MINUS_INFINITY,
    Polynomial,
    _weighted_degree,
    as_scalar,
    monomials_up_to_degree,
    term_order_key,
)

from helpers import (nonzero_polynomial, random_polynomial, reference_str, reference_substitute,
                     to_sympy, wide_rational_polynomial)

x1 = Polynomial.variable(1)
x2 = Polynomial.variable(2)
x3 = Polynomial.variable(3)


def test_add_merges_into_canonical_form():
    # the four terms of the squared staircase coordinate
    assert x2 ** 2 + (2 * x1 ** 2 * x2 + x1 ** 4) == \
        Polynomial({(0, 2): 1, (2, 1): 2, (4, 0): 1})


def test_add_identity_and_inverse():
    p = 3 * x1 ** 2 - x2 + Fraction(1, 2)
    assert p + Polynomial.zero() == p
    assert p + (-p) == Polynomial.zero(2)
    assert not (p - p)


def _over(rng, den):
    """A random polynomial in x1, x2 of degree <= 2 whose denominator is
    exactly `den`: one coefficient is 1/den, the others k/den."""
    keys = list(monomials_up_to_degree(2, 2))
    terms = {key: Fraction(rng.randint(-3, 3), den) for key in rng.sample(keys, 4)}
    terms[rng.choice(keys)] = Fraction(1, den)
    p = Polynomial(terms, 2)
    assert p._den == den
    return p


def _snapshot(p):
    return dict(p._num), p._den, str(p), hash(p)


def _terms_oracle(a, b, sign):
    out = dict(a.terms)
    for key, c in b.terms.items():
        out[key] = out.get(key, 0) + sign * Fraction(c)
    return {key: c for key, c in out.items() if c}


# (denominator of a, denominator of b): one divides the other, coprime,
# equal, and integer polynomials against rational ones.
DENOMINATORS = [(6, 3), (3, 6), (4, 9), (6, 6), (1, 1), (1, 5), (5, 1)]


@pytest.mark.parametrize("da, db", DENOMINATORS)
def test_add_and_sub_match_the_terms_oracle_and_leave_operands_unchanged(da, db):
    rng = Random(da * 100 + db)
    for _ in range(25):
        a, b = _over(rng, da), _over(rng, db)
        before = _snapshot(a), _snapshot(b)
        for x, y, sign in [(a, b, 1), (a, b, -1), (b, a, -1), (a, a, 1), (a, a, -1),
                           (b, b, 1), (a, -a, 1)]:
            result = x + y if sign == 1 else x - y
            assert dict(result.terms) == _terms_oracle(x, y, sign)
            assert result == Polynomial(result.terms, 2)  # normalised
        assert (_snapshot(a), _snapshot(b)) == before


def test_adding_or_subtracting_zero_hands_back_the_other_operand():
    p = Fraction(3, 4) * x1 ** 2 - x2 / 6 + 1
    before = _snapshot(p)
    assert p + 0 is p
    assert p - 0 is p
    assert p + Polynomial.zero(2) is p
    assert 0 + p == p
    assert 0 - p == -p
    assert Polynomial.zero(2) - p == -p
    # the result takes the wider ambient
    for result in [p + Polynomial.zero(4), Polynomial.zero(4) + p, p - Polynomial.zero(4)]:
        assert result == p and result.nvars == 4
    result = Polynomial.zero(4) - p
    assert result == -p and result.nvars == 4
    zero = Polynomial.zero(3)
    assert (zero + zero).nvars == 3
    assert (zero - Polynomial.zero(5)).nvars == 5
    assert _snapshot(p) == before
    assert _snapshot(zero) == ({}, 1, "0", hash(0))


def test_weighted_degree_matches_the_terms_oracle():
    rng = Random(71)
    for _ in range(100):
        nvars = rng.randint(1, 4)
        p = random_polynomial(rng, nvars, 3)
        # fewer weights than variables: the rest are not counted
        weights = [rng.randint(1, 9) for _ in range(rng.randint(0, nvars))]
        expected = max((sum(e * w for e, w in zip(key, weights)) for key in p.terms), default=0)
        assert _weighted_degree(p, weights) == expected


def test_mul_expands_binomial_square():
    assert (x2 + x1 ** 2) * (x2 + x1 ** 2) == x2 ** 2 + 2 * x1 ** 2 * x2 + x1 ** 4


def test_mul_units():
    p = x1 * x2 - 7
    assert p * Polynomial.one() == p
    assert p * Polynomial.zero() == Polynomial.zero(2)
    assert p * 0 == Polynomial.zero(2)


def test_substitute_expands_composition():
    assert (x2 ** 2).substitute([x1, x2 + x1 ** 2]) == \
        x2 ** 2 + 2 * x1 ** 2 * x2 + x1 ** 4


def test_substitute_identity_and_swap():
    p = x1 ** 3 - 2 * x1 * x2 + 5
    assert p.substitute([x1, x2]) == p
    assert (x1 + x2).substitute([x2, x1]) == x1 + x2


def test_substitute_requires_enough_images():
    with pytest.raises(ValueError):
        (x1 + x2).substitute([x1])


def test_partial_examples():
    assert (x1 ** 4).partial(1) == 4 * x1 ** 3
    assert (x2 ** 2).partial(1) == Polynomial.zero(2)
    assert (2 * x1 ** 2 * x2).partial(2) == 2 * x1 ** 2
    with pytest.raises(ValueError):
        x1.partial(2)


def test_total_degree():
    assert (x3 + 2 * x2 ** 2 + 2 * x1 ** 2 * x2 + x1 ** 4).total_degree() == 4
    assert Polynomial.zero().total_degree() == MINUS_INFINITY
    assert Polynomial.constant(Fraction(7, 2)).total_degree() == 0


def test_zero_degree_sentinel_is_absorbed():
    assert MINUS_INFINITY < 0
    assert max(MINUS_INFINITY, 3) == 3
    assert Polynomial.zero().total_degree() < 1


def test_max_variable():
    assert (x2 + x1 ** 2).max_variable() == 2
    assert Polynomial.constant(5).max_variable() == 0
    assert (x1 ** 4 + x3).max_variable() == 3


def test_mixed_arity_promotion():
    narrow = Polynomial.variable(1, 1)
    wide = Polynomial.variable(2, 3)
    s = narrow + wide
    assert s.nvars == 3
    assert s == x1 + x2
    assert narrow == x1.promoted(4)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Polynomial.constant(0.5)
    with pytest.raises(TypeError):
        x1 * 0.5
    # nor anything else that Fraction() would parse: strings, Decimals
    for value in ("1/2", "5", Decimal("0.1")):
        with pytest.raises(TypeError):
            as_scalar(value)
    with pytest.raises(TypeError):
        make(1, ["2"], ["1/3"])
    with pytest.raises(TypeError):
        Polynomial({(1,): "5"})
    with pytest.raises(TypeError):
        exponential(make_derivation(2, [1, 0]), "1/2")


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        Polynomial({(-1,): 1})
    with pytest.raises(ValueError):
        x1 ** -2


def test_bool_scalars_rejected():
    with pytest.raises(TypeError):
        as_scalar(True)
    with pytest.raises(TypeError):
        Polynomial.constant(False)
    with pytest.raises(TypeError):
        x1 * True


def test_ambient_dimension_must_be_an_int():
    # print -> parse needs an int n: n=True or n=2.0 would print as such
    for n in (True, 2.0, Fraction(2), "2"):
        with pytest.raises(TypeError):
            make(n, [1] * 2, [0] * 2)
        with pytest.raises(TypeError):
            make_derivation(n, [0] * 2)
        with pytest.raises(TypeError):
            Polynomial({(1, 0): 1}, nvars=n)
        for build in (Polynomial.zero, Polynomial.one, lambda n: Polynomial.constant(3, n),
                      lambda n: Polynomial.variable(1, n)):
            with pytest.raises(TypeError):
                build(n)
    # the named constructors share the check, range included
    for build in (Polynomial.zero, Polynomial.one, lambda n: Polynomial.constant(3, n)):
        with pytest.raises(ValueError):
            build(-1)
    with pytest.raises(ValueError):
        Polynomial.variable(2, 1)
    assert make(1, [1], [0]).to_text() == "n=1\nx1 -> x1\n"
    assert Polynomial({(1, 0): 1}, nvars=2).terms == {(1, 0): 1}


def test_variable_index_must_be_an_int():
    for index in (True, False, 2.0, Fraction(1), "1"):
        with pytest.raises(TypeError):
            Polynomial.variable(index, 2)
    with pytest.raises(ValueError):
        Polynomial.variable(0, 2)
    assert Polynomial.variable(2, 3) == x2


def test_partial_index_must_be_an_int():
    # True would differentiate by x1; 2.0 would fail inside the key shift
    p = x1 ** 2 * x2
    for index in (True, False, 1.0, Fraction(1), "1"):
        with pytest.raises(TypeError):
            p.partial(index)
    for index in (0, -1, 3):
        with pytest.raises(ValueError):
            p.partial(index)


def test_bool_is_not_a_scalar_for_equality():
    # an equality test answers False (bool is rejected as a scalar, see
    # test_bool_scalars_rejected) instead of raising
    one, zero = Polynomial.one(), Polynomial.zero(2)
    assert not one == True
    assert one != True
    assert not True == one
    assert not zero == False
    assert one not in [True]
    assert one in [True, 1]


def test_bool_exponents_rejected():
    with pytest.raises(ValueError):
        Polynomial({(True,): 1})
    with pytest.raises(ValueError):
        Polynomial({(1, False): 1})


def test_pow_exponent_must_be_an_int():
    assert x1 ** 0 == 1 and x1 ** 1 == x1
    for exponent in (True, False, 2.0, Fraction(2), "2"):
        with pytest.raises(TypeError):
            x1 ** exponent


def test_scalar_division():
    assert (2 * x1) / 2 == x1
    assert (3 * x1) / 2 == Fraction(3, 2) * x1
    with pytest.raises(ZeroDivisionError):
        x1 / 0


def test_term_order_lists_low_degree_then_low_index_first():
    p = x2 ** 2 + x1 * x2 + x1 ** 2 + x3 + 1
    assert str(p) == "1 + x3 + x1^2 + x1*x2 + x2^2"
    assert str(x3 + 2 * x2 ** 2 + 2 * x1 ** 2 * x2 + x1 ** 4) == \
        "x3 + 2*x2^2 + 2*x1^2*x2 + x1^4"


def test_printing_signs_and_fractions():
    assert str(Polynomial.zero()) == "0"
    assert str(-x1 + 2) == "2 - x1"
    assert str(-(x1 ** 2) - Fraction(1, 2)) == "-1/2 - x1^2"
    assert str(Fraction(3, 2) * x1) == "3/2*x1"


def test_printing_matches_the_terms_oracle():
    rng = Random(613)
    cases = [Polynomial.zero(3), Polynomial.constant(Fraction(-7, 3)), -x1, -(x3 ** 2) + x1,
             Polynomial.constant(5, 6), Fraction(-1, 2) * x2 + Fraction(4, 6)]
    for _ in range(200):
        nvars = rng.randint(1, 7)
        p = random_polynomial(rng, nvars, rng.randint(0, 3), density=rng.choice([0.1, 0.4]),
                              bound=rng.choice([1, 4, 1000]))
        if rng.random() < 0.3:  # a negative leading term
            p = p - rng.randint(1, 5)
        cases.append(p)
        cases.append(wide_rational_polynomial(rng, nvars, 2, density=0.2))
    for p in cases:
        assert str(p) == reference_str(p)


def test_monomials_up_to_degree():
    keys = list(monomials_up_to_degree(2, 2))
    assert keys == sorted(keys, key=term_order_key)
    assert set(keys) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    for nvars in range(5):
        # brute force: every monomial of degree d + 1 is one of degree d times a variable
        level = {(0,) * nvars}
        brute = set(level)
        for degree in range(5):
            keys = monomials_up_to_degree(nvars, degree)
            assert keys == tuple(sorted(brute, key=term_order_key))
            assert monomials_up_to_degree(nvars, degree) is keys  # built once
            level = {e[:i] + (e[i] + 1,) + e[i + 1:] for e in level for i in range(nvars)}
            brute |= level


def test_monomials_up_to_degree_take_ints_only_whatever_is_cached():
    monomials_up_to_degree(1, 2)
    monomials_up_to_degree(2, 2)
    for args in ((True, 2), (2.0, 2), (2, True), (2, 2.0)):
        with pytest.raises(TypeError):
            monomials_up_to_degree(*args)


def test_pow_equals_repeated_products():
    p = Fraction(1, 2) * x1 - x2 + 3
    product = Polynomial.one(2)
    for k in range(10):
        assert p ** k == product
        product = product * p


def test_add_and_sub_reject_non_scalars():
    p = x1 + 1
    for bad in (object(), True, 2.0, "1"):
        with pytest.raises(TypeError):
            p + bad
        with pytest.raises(TypeError):
            p - bad
        with pytest.raises(TypeError):
            bad - p


def test_duplicate_keys_of_one_monomial_are_summed():
    # (1,) and (1, 0) pack to the same key
    assert Polynomial({(1,): 2, (1, 0): 3}) == 5 * x1
    assert Polynomial({(1,): 2, (1, 0): -2}) == 0


def test_promoted_refuses_to_drop_a_variable():
    with pytest.raises(ValueError, match="cannot shrink ambient below x2"):
        Polynomial.variable(2, 3).promoted(1)


def test_coefficients_past_the_int_str_digit_limit_print_and_parse():
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    big = int(Decimal("9" * 10000))
    p = big * x1 + Fraction(1, big)
    text = str(p)
    assert text == "1/" + "9" * 10000 + " + " + "9" * 10000 + "*x1"
    assert parse_polynomial(text) == p and str(parse_polynomial(text)) == text
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_printing_is_the_same_with_a_cold_warm_or_full_monomial_cache():
    rng = Random(614)
    cases = [random_polynomial(rng, 4, 4, density=0.3) for _ in range(30)]
    cases += [wide_rational_polynomial(rng, 3, 3, density=0.5) for _ in range(10)]
    # more distinct monomials than the cache holds, so it evicts while printing
    cases.append(Polynomial({(i, i % 7): Fraction(i + 1, 3) for i in range(5000)}, 2))
    cache = polynomials._monomial
    assert cache.cache_info().maxsize == polynomials._MONOMIAL_CACHE
    for p in cases:
        cache.cache_clear()
        cold = str(p)
        assert cold == str(p) == reference_str(p)
        assert cache.cache_info().currsize <= polynomials._MONOMIAL_CACHE


def test_ring_axioms_on_random_triples():
    rng = Random(100)
    for _ in range(120):
        nvars = rng.randint(1, 3)
        p = random_polynomial(rng, nvars, 3)
        q = random_polynomial(rng, nvars, 3)
        r = random_polynomial(rng, nvars, 3)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_substitute_is_a_ring_homomorphism():
    rng = Random(101)
    for _ in range(60):
        p = random_polynomial(rng, 2, 3)
        q = random_polynomial(rng, 2, 3)
        images = [random_polynomial(rng, 2, 2) for _ in range(2)]
        assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


def test_degree_bounds_for_add_and_substitute():
    rng = Random(105)
    for _ in range(60):
        p = random_polynomial(rng, 3, 3)
        q = random_polynomial(rng, 3, 3)
        assert (p + q).total_degree() <= max(p.total_degree(), q.total_degree())
        images = [random_polynomial(rng, 2, 2) for _ in range(3)]
        image_deg = max(im.total_degree() for im in images)
        bound = p.total_degree() * image_deg
        if p and image_deg > 0:
            assert p.substitute(images).total_degree() <= bound


def test_substitute_composition_law():
    rng = Random(102)
    for _ in range(40):
        p = random_polynomial(rng, 2, 3)
        u = [random_polynomial(rng, 2, 2) for _ in range(2)]
        v = [random_polynomial(rng, 2, 2) for _ in range(2)]
        lhs = p.substitute(u).substitute(v)
        rhs = p.substitute([ui.substitute(v) for ui in u])
        assert lhs == rhs


def test_degree_is_additive_for_products():
    rng = Random(103)
    for _ in range(100):
        nvars = rng.randint(1, 3)
        p = nonzero_polynomial(rng, nvars, 4)
        q = nonzero_polynomial(rng, nvars, 4)
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()


def test_partial_satisfies_leibniz():
    rng = Random(104)
    for _ in range(60):
        nvars = rng.randint(1, 3)
        i = rng.randint(1, nvars)
        p = random_polynomial(rng, nvars, 3)
        q = random_polynomial(rng, nvars, 3)
        assert (p * q).partial(i) == p * q.partial(i) + q * p.partial(i)


# -- packed exponents ------------------------------------------------------------

def test_largest_exponent_is_accepted():
    top = Polynomial({(2 ** EXPONENT_BITS - 1,): 1})
    assert top.total_degree() == 2 ** EXPONENT_BITS - 1
    assert (top * x2).terms == {(2 ** EXPONENT_BITS - 1, 1): 1}


def test_exponent_overflow_raises_instead_of_spilling():
    top = 2 ** EXPONENT_BITS - 1
    with pytest.raises(ValueError):
        Polynomial({(top + 1,): 1})
    with pytest.raises(ValueError):
        Polynomial({(0, 0, top + 1): 1})
    with pytest.raises(ValueError):
        Polynomial({(top,): 1}) * x1
    with pytest.raises(ValueError):
        (x1 + Polynomial({(0, top): 3})) * (x2 ** 2 - 1)
    with pytest.raises(ValueError):
        x1 ** (2 ** EXPONENT_BITS)


def test_substitution_overflow_raises_instead_of_spilling():
    # x1^150000 would carry into x2's field (as x1^18928*x2) unless every
    # step of the evaluation is checked, not just its result.
    with pytest.raises(ValueError):
        (x2 ** 5).substitute([x1, x1 ** 30000])
    outer = make(3, (1, 1, 1), (0, 0, Polynomial.monomial(1, (0, 5), 3)))
    inner = make(3, (1, 1, 1), (0, Polynomial.monomial(1, (30000,), 3), 0))
    with pytest.raises(ValueError):
        compose(outer, inner)


def _oracle_monomial_images(rng: Random, nvars: int):
    """Images x_v -> c * x_w^k with a Fraction c and w != v, often w > v,
    so that the parts of a polynomial split on x_v land on colliding keys."""
    images = []
    for v in range(1, nvars + 1):
        w = rng.choice([u for u in range(1, nvars + 1) if u != v])
        c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4]))
        images.append(Polynomial.monomial(c, [rng.randint(0, 3) if u == w else 0
                                              for u in range(1, nvars + 1)], nvars))
    return images


def test_one_term_images_match_the_term_by_term_oracle():
    rng = Random(110)
    for _ in range(60):
        nvars = rng.randint(2, 4)
        p = random_polynomial(rng, nvars, 4, density=0.4)
        images = _oracle_monomial_images(rng, nvars)
        if rng.random() < 0.3:  # one general image among the one-term ones
            images[rng.randrange(nvars)] = random_polynomial(rng, nvars, 2, density=0.5)
        assert p.substitute(images) == reference_substitute(p, images)
    # parts on x2 collide after the shift: x2 -> x1, so x1*x2 and x1^2 meet
    p = x1 * x2 - x1 ** 2 + Fraction(1, 3) * x2 ** 2
    assert p.substitute([x1, x1]) == Fraction(1, 3) * x1 ** 2
    # x1 -> 3/2 x2^2, x2 -> -x1/2: both one-term images, w > v and w < v
    images = [Fraction(3, 2) * x2 ** 2, -x1 / 2]
    p = x1 ** 2 * x2 + 4 * x2 ** 3 - x1
    assert p.substitute(images) == reference_substitute(p, images)


def test_one_term_image_exponent_boundary():
    # A one-term image is folded in by products like any other image, and
    # the guard check after each product catches every overflow below.
    top = 2 ** EXPONENT_BITS - 1  # 65535 = 3 * 21845 = 5 * 13107
    c = Fraction(-2, 3)
    assert (x1 ** 3).substitute([c * x2 ** 21845, x2]) == c ** 3 * x2 ** top
    assert (x1 ** 5 * x2).substitute([x2 ** 13107, x1]) == \
        Polynomial({(1, top): 1})
    with pytest.raises(ValueError):  # the fourth product reaches 4 * 16384 = 2**16
        (x1 ** 4).substitute([c * x2 ** 16384, x2])
    with pytest.raises(ValueError):  # x1^65534 times the image x1^2 reaches 2**16
        (x1 ** (top - 1) * x2).substitute([x1, x1 ** 2])
    # the third product (90000) is caught before 5 * 30000 could carry past the guard
    with pytest.raises(ValueError):
        (x1 ** 5).substitute([x2 ** 30000, x2])
    # the part x1 evaluates to 0, so its products with x1^30000 have no key
    assert (x1 * x2 ** 5).substitute([Polynomial.zero(2), x1 ** 30000]) == 0


# Degree 27 is the bound m^(n-1) of the theorem for (n, m) = (4, 3).
def test_degree_27_parts_at_one_term_images_match_the_oracle():
    dense = (1 + x1) ** 27
    for image in [Fraction(-2, 3) * x1, Fraction(5, 2) * x2 ** 3]:
        images = [image, x2]
        assert dense.substitute(images) == reference_substitute(dense, images)
    # split on x3, each part is a dense polynomial in x1 and x2 of degree 27
    two = (Fraction(1, 2) + x1 - Fraction(2, 3) * x2) ** 27 * (x3 - 3) ** 2
    images = [Fraction(-3, 2) * x2, Fraction(7, 3) * x1, Fraction(5, 4) * x1 ** 2]
    assert two.substitute(images) == reference_substitute(two, images)


def test_degree_27_compose_at_a_one_term_x1_image_matches_the_oracle():
    rng = Random(127)
    x1_, x2_, x3_ = (Polynomial.variable(i, 4) for i in (1, 2, 3))
    # the x_{i-1}^3 term of each tail i multiplies the degree by 3 per factor
    phi = make(4, [Fraction(2, 3), -2, Fraction(1, 2), 3],
               [Fraction(1, 2), x1_ - Fraction(1, 3) * x1_ ** 3,
                x2_ ** 3 - Fraction(2, 5) * x1_ * x2_ + x1_ ** 2,
                Fraction(3, 4) * x3_ ** 3 + x1_ * x3_ - x2_ ** 2])
    outer = compose_all([phi, phi, phi], 4)
    assert outer.degree() == 27
    # tail 1 is 0, so x1's image x1 -> -5/2 x1 has one term
    inner = make(4, [Fraction(-5, 2), Fraction(1, 2), 3, Fraction(-1, 3)],
                 [0] + [random_polynomial(rng, i, 3, density=0.4).promoted(4)
                        for i in range(1, 4)])
    images = inner.coordinates()
    assert len(images[0]._num) == 1
    assert compose(outer, inner).coordinates() == [reference_substitute(f, images)
                                                   for f in outer.coordinates()]


# -- the terms view --------------------------------------------------------------

def test_terms_view_keys_values_and_read_only():
    p = Fraction(3, 2) * x1 ** 2 - Fraction(1, 2) * x1 * x2 + 2 * x3
    terms = p.terms
    assert len(terms) == 3
    assert all(len(key) == p.nvars == 3 for key in terms)
    assert terms == {(2, 0, 0): Fraction(3, 2), (1, 1, 0): Fraction(-1, 2), (0, 0, 1): 2}
    assert type(terms[(0, 0, 1)]) is int
    with pytest.raises(TypeError):
        terms[(0, 0, 1)] = 5
    copy = dict(terms)
    copy[(0, 0, 1)] = 5
    assert p.terms[(0, 0, 1)] == 2
    assert list(x1.promoted(4).terms) == [(1, 0, 0, 0)]


def test_terms_view_values_are_int_wherever_integral():
    rng = Random(106)
    for _ in range(40):
        p = random_polynomial(rng, 3, 3) * Fraction(rng.randint(1, 6), rng.randint(1, 6))
        assert all(type(c) is int or c.denominator > 1 for c in p.terms.values())
        assert all(len(key) == 3 for key in p.terms)


# A word over (4, 3) maps whose tails have only non-integral coefficients.
# The expected texts were printed by the tuple-keyed Fraction representation
# that the packed integer one replaced.
FRACTION_WORD_TEXT = (
    "n=4\nx1 -> x1\nx2 -> -1/2*x2 + 1/2*x1^3\n"
    "x3 -> -1/2*x2 + x3 + 1/2*x1*x2 - 3/2*x1^3 - x1^2*x2 - 1/2*x1^4 + x1^5\n"
    "x4 -> -1 + 1/2*x2 + x3 - x4 - x1*x2 + 1/2*x1*x3 - 1/2*x1^3 - 1/2*x1^2*x2"
    " - 1/2*x1*x2^2 + 3/2*x1*x2*x3 - x1*x3^2 + 9/8*x2^3 - 1/2*x2^2*x3"
    " + 3/4*x1^2*x2^2 - x1^2*x2*x3 + 1/2*x1^5 - 2*x1^4*x2 + 5/2*x1^4*x3"
    " - 17/8*x1^3*x2^2 + 2*x1^3*x2*x3 + 1/2*x1^5*x2 + x1^5*x3 + x1^4*x2^2"
    " - 3/2*x1^7 - 1/8*x1^6*x2 - 2*x1^6*x3 - x1^5*x2^2 - 5/4*x1^8 - 2*x1^7*x2"
    " + 17/8*x1^9 + 2*x1^8*x2 + x1^10 - x1^11\n")
FRACTION_WORD_LAST_TAIL = (
    "-1 + 1/2*x2 + x3 - x1*x2 + 1/2*x1*x3 - 1/2*x1^3 - 1/2*x1^2*x2"
    " - 1/2*x1*x2^2 + 3/2*x1*x2*x3 - x1*x3^2 + 9/8*x2^3 - 1/2*x2^2*x3"
    " + 3/4*x1^2*x2^2 - x1^2*x2*x3 + 1/2*x1^5 - 2*x1^4*x2 + 5/2*x1^4*x3"
    " - 17/8*x1^3*x2^2 + 2*x1^3*x2*x3 + 1/2*x1^5*x2 + x1^5*x3 + x1^4*x2^2"
    " - 3/2*x1^7 - 1/8*x1^6*x2 - 2*x1^6*x3 - x1^5*x2^2 - 5/4*x1^8 - 2*x1^7*x2"
    " + 17/8*x1^9 + 2*x1^8*x2 + x1^10 - x1^11")


def test_fraction_heavy_word_prints_byte_identically():
    phi = random_triangular(4, 3, seed=19, density=0.25)
    psi = random_triangular(4, 3, seed=1019, density=0.25)
    word = compose_all([invert(phi), psi], 4)
    assert word.to_text() == FRACTION_WORD_TEXT
    assert str(word.tails[3]) == FRACTION_WORD_LAST_TAIL


# -- differential tests against sympy -------------------------------------------

@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def _operand_pairs(seed: int, count: int, max_degree: int):
    rng = Random(seed)
    for _ in range(count):
        p = wide_rational_polynomial(rng, rng.randint(1, 4), max_degree)
        q = wide_rational_polynomial(rng, rng.randint(1, 4), max_degree)
        yield rng, p, q


def test_arithmetic_matches_sympy(sympy):
    gens = sympy.symbols("x1:5")

    def same(ours, theirs):
        assert sympy.expand(to_sympy(sympy, ours, gens) - theirs) == 0

    for rng, p, q in _operand_pairs(107, 25, 3):
        sp, sq = to_sympy(sympy, p, gens), to_sympy(sympy, q, gens)
        c = Fraction(rng.randint(-2 ** 40, 2 ** 40) or 1, rng.randint(1, 2 ** 40))
        sc = sympy.Rational(c.numerator, c.denominator)
        same(p * q, sp * sq)
        same(p + q, sp + sq)
        same(p - q, sp - sq)
        same(-p, -sp)
        same(p * c, sp * sc)
        same(p / c, sp / sc)
        same(p * 3, sp * 3)
        same(p ** 2, sp ** 2)
        r = wide_rational_polynomial(rng, 2, 2)
        same(r ** 5, to_sympy(sympy, r, gens) ** 5)
        for i in range(1, p.nvars + 1):
            same(p.partial(i), sympy.diff(sp, gens[i - 1]))


def test_substitute_matches_sympy(sympy):
    gens = sympy.symbols("x1:5")
    for rng, p, _ in _operand_pairs(108, 15, 2):
        images = [wide_rational_polynomial(rng, rng.randint(1, 4), 2, density=0.25)
                  for _ in range(p.nvars)]
        expected = to_sympy(sympy, p, gens).subs(
            {g: to_sympy(sympy, im, gens) for g, im in zip(gens, images)}, simultaneous=True)
        assert sympy.expand(to_sympy(sympy, p.substitute(images), gens) - expected) == 0


def test_equal_polynomials_hash_equal_across_nvars():
    for _, p, q in _operand_pairs(109, 40, 3):
        wide = p.promoted(p.nvars + 2)
        rebuilt = Polynomial(dict(p.terms), p.nvars + 1)
        roundabout = (p + q) - q
        for other in (wide, rebuilt, roundabout):
            assert other == p
            assert hash(other) == hash(p)


def test_constant_polynomials_hash_like_their_scalars():
    for scalar, p in ((3, Polynomial.constant(3)), (0, Polynomial.zero(2)),
                      (Fraction(1, 2), Polynomial.constant(Fraction(1, 2), 3))):
        assert p == scalar
        assert hash(p) == hash(scalar)
        assert len({p, scalar}) == 1


# -- the packed product and the schoolbook loop ---------------------------------

def _numerators(terms: dict, nvars: int = 3) -> dict[int, int]:
    """The packed numerator dict of an integer polynomial {exponents: int}."""
    p = Polynomial(terms, nvars)
    assert p._den == 1
    return p._num


def _dense_in_x1(rng: Random, slices: int, degree: int, bound: int) -> dict[int, int]:
    """Numerators with `slices` rests in x2, x3, each dense in x1 up to
    `degree`, coefficients in -bound..bound."""
    terms = {}
    for _ in range(slices):
        rest = (rng.randint(0, 3), rng.randint(0, 3))
        for e in range(rng.randint(0, 2), degree + 1):
            if rng.random() < 0.8:
                terms[(e,) + rest] = rng.randint(-bound, bound) or 1
    return _numerators(terms)


_PACKED_PAIRS = polynomials._PACKED_PAIRS


def _scaled(terms: dict[int, int], scale: int) -> dict[int, int]:
    return {k: v * scale for k, v in terms.items()}


def _both_paths(monkeypatch, ta, tb):
    """(packed, schoolbook) results of `_product`, or the ValueError text
    each raises; the first must have taken the packed path."""
    assert len(ta) * len(tb) >= _PACKED_PAIRS
    assert polynomials._packed_product(ta, tb) is not None
    outcomes = []
    for pairs in (_PACKED_PAIRS, 10 ** 18):
        monkeypatch.setattr(polynomials, "_PACKED_PAIRS", pairs)
        try:
            outcomes.append(polynomials._product(ta, tb, polynomials._guards(3)))
        except ValueError as exc:
            outcomes.append(str(exc))
    return outcomes


def test_packed_product_matches_the_schoolbook_loop():
    rng = Random(2017)
    taken = 0
    for _ in range(60):
        bound = rng.choice([1, 3, 1000, 2 ** 20, 2 ** 40])
        ta = _dense_in_x1(rng, rng.randint(1, 6), rng.randint(8, 27), bound)
        tb = _dense_in_x1(rng, rng.randint(1, 4), rng.randint(8, 27), bound)
        ta = _scaled(ta, rng.choice([1, -1, 3, -7, 2 ** 10]))
        expected = polynomials._schoolbook(ta, tb)
        packed = polynomials._packed_product(ta, tb)
        if packed is not None:
            taken += 1
            assert packed == expected
        assert polynomials._product(ta, tb, polynomials._guards(3)) == expected
    assert taken >= 30  # the large bounds fall back


def test_product_never_hands_back_an_operand(monkeypatch):
    # `_horner` adds each Horner step into its product's dict in place
    dense = _dense_in_x1(Random(5), 4, 20, 9)
    assert polynomials._packed_product(dense, dense) is not None
    for ta, tb in ((dense, dense), (dense, {0: 1}), ({0: 1}, dense), ({0: 1}, {0: 1}),
                   ({}, dense), (dense, {}), ({}, {})):
        for pairs in (_PACKED_PAIRS, 10 ** 18):
            monkeypatch.setattr(polynomials, "_PACKED_PAIRS", pairs)
            out = polynomials._product(ta, tb, polynomials._guards(3))
            assert out is not ta and out is not tb


def test_packed_product_cancels_terms_to_zero(monkeypatch):
    # (x1 - 1) * (1 + x1 + ... + x1^19) * q = (x1^20 - 1) * q: the inner terms cancel
    q = {(0, i, j): (-1) ** (i + j) * (i + 2 * j + 1) for i in range(4) for j in range(4)}
    geometric = _numerators({(e, i, j): c for e in range(20) for (_, i, j), c in q.items()})
    x1_minus_1 = _numerators({(1, 0, 0): 1, (0, 0, 0): -1})
    packed, schoolbook = _both_paths(monkeypatch, _scaled(geometric, -5), x1_minus_1)
    assert packed == schoolbook == _numerators(
        {(e, i, j): -5 * s * c for (_, i, j), c in q.items() for e, s in ((20, 1), (0, -1))})


def test_packed_product_decodes_up_to_its_coefficient_bound(monkeypatch):
    # 16 terms times 16 terms: the middle coefficient is 16 * c, and the
    # bound max|a| * max|b| * 16 stays below 2**62 up to c = 2**58 - 1
    ones = _numerators({(e, 0, 0): 1 for e in range(16)})
    for c in (2 ** 58 - 1, -(2 ** 58 - 1)):
        ta = _numerators({(e, 0, 0): c for e in range(16)})
        packed, schoolbook = _both_paths(monkeypatch, ta, ones)
        assert packed == schoolbook
        assert packed[15] == 16 * c
    # at 2**58 the bound reaches 2**62: the schoolbook loop takes the product
    ta = _numerators({(e, 0, 0): -(2 ** 58) for e in range(16)})
    assert polynomials._packed_product(ta, ones) is None
    assert polynomials._product(ta, ones, polynomials._guards(3)) == \
        polynomials._schoolbook(ta, ones)


def test_packed_product_overflow_raises_as_the_schoolbook_loop_does(monkeypatch):
    # x1^7, x1^15, ..., x1^65535: dense enough to pack, and one more x1
    # makes 2**16
    top = 2 ** EXPONENT_BITS - 1
    spread = {e: 1 for e in range(7, top + 1, 8)}
    packed, schoolbook = _both_paths(monkeypatch, spread, {1: 1})
    assert packed == schoolbook == f"product has an exponent not below 2**{EXPONENT_BITS}"
    packed, schoolbook = _both_paths(monkeypatch, spread, {0: 1, 1 << 17: 2})
    assert packed == schoolbook and packed[top] == 1


def test_sparse_or_fragmented_operands_take_the_schoolbook_loop():
    # 40 * 20 = 800 term pairs, but x1 spans 1,500 powers per term of ta
    ta = _numerators({(1500 * j, 0, 0): j + 1 for j in range(40)})
    tb = _numerators({(e, 1, 0): 1 for e in range(20)})
    assert polynomials._x1_slices(ta, len(ta)) is None
    assert polynomials._packed_product(ta, tb) is None
    assert polynomials._product(ta, tb, polynomials._guards(3)) == \
        polynomials._schoolbook(ta, tb)
    # one sparse slice is enough, however dense the others are, and the
    # pass stops before it packs x1^60000 into a 3.84-Mbit (480 kB) int
    lone = _numerators({**{(e, 1, 0): 1 for e in range(20)}, (60000, 0, 0): 1})
    tracemalloc.start()
    try:
        assert polynomials._x1_slices(lone, len(lone)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert polynomials._packed_product(lone, tb) is None
    # 400 one-term slices times 3 terms: 3 term pairs per pair of slices
    flat = _numerators({(0, i, j): i - j or 1 for i in range(20) for j in range(20)})
    short = _numerators({(e, 0, 0): 1 for e in range(3)})
    assert polynomials._x1_slices(flat, len(flat)) is not None
    assert polynomials._packed_product(flat, short) is None
    assert polynomials._product(flat, short, polynomials._guards(3)) == \
        polynomials._schoolbook(flat, short)


def test_packed_product_matches_the_schoolbook_loop_on_generated_operands(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # every operand pair the coefficient bound and x1 spans allow is packed,
    # however few pairs of terms it makes
    monkeypatch.setattr(polynomials, "_PACKED_FILL", 1)
    keys = st.tuples(st.integers(0, 30), st.integers(0, 2), st.integers(0, 1))
    coefficients = st.one_of(st.integers(-3, 3), st.integers(-2 ** 28, 2 ** 28))
    operands = st.dictionaries(keys, coefficients.filter(bool), min_size=1, max_size=40)

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @hypothesis.given(operands, operands, st.sampled_from([1, -1, 6, -(2 ** 12)]))
    def check(a, b, scale):
        ta, tb = _scaled(_numerators(a), scale), _numerators(b)
        expected = polynomials._schoolbook(ta, tb)
        packed = polynomials._packed_product(ta, tb)
        assert packed is None or packed == expected
        assert polynomials._product(ta, tb, polynomials._guards(3)) == expected

    check()


def test_a_gap_at_a_one_term_image_costs_logarithmically_many_products(monkeypatch):
    u1, u2 = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
    p = u1 ** 60000 * u2 + u2
    calls = []
    product = polynomials._product

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(polynomials, "_product", counted)
    assert p.substitute([-u1, u2]) == p
    assert 0 < len(calls) <= 2 * math.log2(60000) + 8
    # a gap at a multi-term image still costs one product per power
    calls.clear()
    assert (u1 ** 30 * u2).substitute([u1 + 1, u2]) == (u1 + 1) ** 30 * u2
    assert len(calls) >= 30
