from fractions import Fraction
from random import Random

import pytest

from triaut.polynomials import (
    MINUS_INFINITY,
    Polynomial,
    as_scalar,
    monomials_up_to_degree,
    term_order_key,
)

from helpers import nonzero_polynomial, random_polynomial

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


def test_bool_exponents_rejected():
    with pytest.raises(ValueError):
        Polynomial({(True,): 1})
    with pytest.raises(ValueError):
        Polynomial({(1, False): 1})


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


def test_monomials_up_to_degree():
    keys = list(monomials_up_to_degree(2, 2))
    assert keys == sorted(keys, key=term_order_key)
    assert set(keys) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


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
