from fractions import Fraction
from random import Random

import pytest

from triaut.automorphisms import (
    commutator,
    compose,
    compose_all,
    elementary_factorization,
    elementary_shear,
    identity,
    invert,
    make,
    power,
    random_triangular,
    staircase_map,
)
from triaut.errors import TriangularityError
from triaut.harness import degree_fuzz
from triaut.polynomials import Polynomial

x1 = Polynomial.variable(1, 3)
x2 = Polynomial.variable(2, 3)
x3 = Polynomial.variable(3, 3)


def shear_tower():
    return make(3, (1, 1, 1), (0, x1 ** 2, x2 ** 2))


def random_aut(rng, n=None, m=None, **kw):
    if n is None:
        n = rng.randint(1, 4)
    if m is None:
        m = rng.randint(1, 3)
    return random_triangular(n, m, rng=rng, **kw)


# -- construction -------------------------------------------------------

def test_make_accepts_the_shear_tower():
    phi = shear_tower()
    assert phi.degree() == 2
    assert phi.coordinate(2) == x2 + x1 ** 2


def test_make_rejects_tail_on_own_variable():
    with pytest.raises(TriangularityError):
        make(2, (1, 1), (0, Polynomial.variable(2, 2)))


def test_make_rejects_zero_lambda():
    with pytest.raises(TriangularityError):
        make(2, (1, 0), (0, 0))


def test_make_rejects_nonconstant_first_tail():
    with pytest.raises(TriangularityError):
        make(2, (1, 1), (Polynomial.variable(1, 2), 0))


def test_make_one_dimensional_affine():
    phi = make(1, (2,), (Fraction(1, 2),))
    assert phi.coordinate(1) == 2 * Polynomial.variable(1) + Fraction(1, 2)
    assert phi.degree() == 1


def test_identity():
    assert identity(1).coordinate(1) == Polynomial.variable(1)
    assert identity(3).coordinates() == [x1, x2, x3]
    assert identity(4).degree() == 1
    assert identity(3).is_identity()


# -- composition and inversion -----------------------------------------

def test_squaring_the_shear_tower_reaches_degree_four():
    phi = shear_tower()
    sq = compose(phi, phi)
    assert sq.coordinate(1) == x1
    assert sq.coordinate(2) == x2 + 2 * x1 ** 2
    assert sq.coordinate(3) == x3 + 2 * x2 ** 2 + 2 * x1 ** 2 * x2 + x1 ** 4
    assert sq.degree() == 4
    assert power(phi, 2) == sq


def test_compose_with_identity():
    phi = shear_tower()
    assert compose(identity(3), phi) == phi
    assert compose(phi, identity(3)) == phi


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(identity(2), identity(3))


def test_invert_single_shear():
    phi = make(2, (1, 1), (0, Polynomial.variable(1, 2) ** 2))
    assert invert(phi) == make(2, (1, 1), (0, -Polynomial.variable(1, 2) ** 2))


def test_invert_by_back_substitution_matches_full_composition():
    phi = shear_tower()
    inv = invert(phi)
    assert inv.coordinate(2) == x2 - x1 ** 2
    assert inv.coordinate(3) == x3 - (x2 - x1 ** 2) ** 2
    assert compose(phi, inv) == identity(3)
    assert compose(inv, phi) == identity(3)


def test_invert_linear_solve():
    phi = make(1, (2,), (1,))
    inv = invert(phi)
    assert inv.coordinate(1) == Polynomial.variable(1) / 2 - Fraction(1, 2)
    assert compose(phi, inv) == identity(1)


def test_compose_coordinates_equal_full_substitution():
    rng = Random(206)
    for _ in range(25):
        n = rng.randint(1, 4)
        outer = random_aut(rng, n=n)
        inner = random_aut(rng, n=n)
        result = compose(outer, inner)
        images = inner.coordinates()
        for j in range(1, n + 1):
            assert result.coordinate(j) == outer.coordinate(j).substitute(images)


def test_group_laws_on_random_triples():
    rng = Random(200)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = random_aut(rng, n=n)
        b = random_aut(rng, n=n)
        c = random_aut(rng, n=n)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, identity(n)) == a == compose(identity(n), a)


def test_inverse_round_trip_and_degree_bound():
    rng = Random(201)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        phi = random_aut(rng, n=n, m=m)
        inv = invert(phi)
        assert compose(phi, inv) == identity(n)
        assert compose(inv, phi) == identity(n)
        assert inv.degree() <= m ** (n - 1)


def test_power_negative_and_zero():
    phi = shear_tower()
    assert power(phi, 0) == identity(3)
    assert power(phi, -1) == invert(phi)
    assert compose(power(phi, 3), power(phi, -3)) == identity(3)


# -- unitriangularity, prefixes, commutators ----------------------------

def test_shear_tower_is_unitriangular():
    assert shear_tower().is_unitriangular()
    assert not make(1, (2,), (0,)).is_unitriangular()


def test_fixes_prefix():
    assert identity(4).fixes_prefix(4)
    phi = make(2, (2, 1), (0, 0))
    assert phi.fixes_prefix(0)
    assert not phi.fixes_prefix(1)
    with pytest.raises(ValueError):
        phi.fixes_prefix(3)


def test_commutator_trivial_cases():
    phi = shear_tower()
    assert commutator(phi, phi) == identity(3)
    assert commutator(phi, identity(3)) == identity(3)


def test_commutator_one_dimensional():
    scale = make(1, (2,), (0,))
    shift = make(1, (1,), (1,))
    assert commutator(scale, shift) == make(1, (1,), (1,))


def test_commutator_is_always_unitriangular():
    rng = Random(202)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_aut(rng, n=n)
        b = random_aut(rng, n=n)
        assert commutator(a, b).is_unitriangular()


def test_affine_maps_are_closed_under_compose_and_invert():
    rng = Random(203)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_aut(rng, n=n, m=1)
        b = random_aut(rng, n=n, m=1)
        assert compose(a, b).degree() == 1
        assert invert(a).degree() == 1


# -- elementary factorization -------------------------------------------

def test_factorization_of_a_single_shear():
    phi = make(2, (1, 1), (0, Polynomial.variable(1, 2) ** 2))
    factors = elementary_factorization(phi)
    assert factors == [elementary_shear(2, 2, 1, (2, 0))]


def test_factorization_of_identity_is_empty():
    assert elementary_factorization(identity(3)) == []
    assert compose_all([], 3) == identity(3)


def test_factorization_of_the_shear_tower():
    phi = shear_tower()
    factors = elementary_factorization(phi)
    assert factors == [elementary_shear(3, 2, 1, (2, 0, 0)),
                       elementary_shear(3, 3, 1, (0, 2, 0))]
    assert compose_all(factors, 3) == phi


def test_factorization_round_trip_with_scalings():
    phi = make(2, (2, Fraction(-1, 3)), (5, 3 * Polynomial.variable(1, 2)))
    factors = elementary_factorization(phi)
    assert compose_all(factors, 2) == phi
    assert any(f.lambdas != (1, 1) for f in factors)


def test_factorization_round_trip_random():
    rng = Random(204)
    for _ in range(60):
        phi = random_aut(rng)
        factors = elementary_factorization(phi)
        assert compose_all(factors, phi.n) == phi
        for f in factors:
            assert f.degree() <= phi.degree()
    # factor count <= n + number of tail monomials
        assert len(factors) <= phi.n + sum(len(t.terms) for t in phi.tails)


# -- random generator ----------------------------------------------------

def test_random_triangular_is_deterministic_per_seed():
    a = random_triangular(3, 2, seed=99)
    b = random_triangular(3, 2, seed=99)
    assert a == b
    assert a != random_triangular(3, 2, seed=100) or True  # different seed may differ


def test_random_triangular_respects_degree_class():
    rng = Random(205)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        phi = random_triangular(n, m, rng=rng)
        assert phi.n == n and phi.degree() <= m


def test_random_triangular_on_the_line_is_affine():
    phi = random_triangular(1, 3, seed=7)
    assert phi.degree() == 1


def test_degree_class_bound():
    # products of degree-<=m maps are bounded by m^(n-1); degree_fuzz
    # reports that bound and rejects an empty class
    assert degree_fuzz(3, 2, max_word_len=2, trials=1, seed=0).bound == 4
    assert degree_fuzz(1, 5, max_word_len=2, trials=1, seed=0).bound == 1
    with pytest.raises(ValueError):
        degree_fuzz(0, 2, max_word_len=2, trials=1, seed=0)


def test_staircase_map_matches_hand_built_tower():
    assert staircase_map(3, 2) == shear_tower()
    assert staircase_map(1, 5) == identity(1)
    assert staircase_map(4, 3).degree() == 3


def test_text_round_trip_through_coordinates():
    phi = shear_tower()
    text = phi.to_text()
    assert text == "n=3\nx1 -> x1\nx2 -> x2 + x1^2\nx3 -> x3 + x2^2\n"
