"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every comparison is equality at tolerance zero.  Run with

    pytest tests/test_acceptance.py -v -s

to get one printed PASS line per criterion (pytest -v itself shows one
pass/fail line per criterion either way).
"""

import itertools
from fractions import Fraction
from random import Random

from triaut.automorphisms import (
    compose,
    compose_all,
    elementary_factorization,
    identity,
    invert,
    make,
    random_triangular,
    staircase_map,
)
from triaut.derivations import exponential, random_triangular_derivation
from triaut.harness import (
    degree_fuzz,
    derived_depth_test,
    nonconnected_counterexample,
    unipotent_generation_test,
)
from triaut.lie import lie_closure, lower_central_series, nilpotency_class
from triaut.parsing import parse_automorphism, parse_derivation, parse_polynomial
from triaut.polynomials import Polynomial

from helpers import random_polynomial
from test_lie import heisenberg, oracle_closure_dimension


def _pass(number: int, message: str):
    print(f"criterion {number:02d} PASS - {message}")


def test_criterion_01_golden_square_of_the_shear_tower():
    x1 = Polynomial.variable(1, 3)
    x2 = Polynomial.variable(2, 3)
    x3 = Polynomial.variable(3, 3)
    phi = make(3, (1, 1, 1), (0, x1 ** 2, x2 ** 2))
    assert phi.degree() == 2
    square = compose(phi, phi)
    assert square.coordinate(1) == x1
    assert square.coordinate(2) == x2 + 2 * x1 ** 2
    assert square.coordinate(3) == x3 + 2 * x2 ** 2 + 2 * x1 ** 2 * x2 + x1 ** 4
    assert square.degree() == 4
    _pass(1, "squaring the degree-2 shear tower gives the exact degree-4 tuple")


def test_criterion_02_degree_bound_at_desk_scale():
    observed = {}
    for n, m in itertools.product((1, 2, 3, 4), (1, 2, 3)):
        report = degree_fuzz(n, m, max_word_len=8, trials=1000,
                             seed=20_000 + 10 * n + m)
        assert report.max_degree <= report.bound == m ** (n - 1)
        observed[(n, m)] = report.max_degree
    # the (3, 2) cell attains the bound via the square of the staircase word
    phi = staircase_map(3, 2)
    assert compose_all([phi, phi], 3).degree() == 4
    assert observed[(3, 2)] == 4
    _pass(2, "12 cells x 1000 words of length <= 8 never left T(m^(n-1)); "
             f"(n=3, m=2) attained 4; max degrees {observed}")


def test_criterion_03_group_axioms():
    rng = Random(30_001)
    for _ in range(500):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        a = random_triangular(n, m, rng=rng, density=0.25)
        b = random_triangular(n, m, rng=rng, density=0.25)
        c = random_triangular(n, m, rng=rng, density=0.25)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
    rng = Random(30_002)
    for _ in range(500):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        phi = random_triangular(n, m, rng=rng, density=0.25)
        inv = invert(phi)
        assert compose(phi, inv) == identity(n)
        assert compose(inv, phi) == identity(n)
        assert inv.degree() <= m ** (n - 1)
    _pass(3, "500 associativity triples, 500 two-sided inverse round trips, "
             "all inverses inside T(m^(n-1))")


def test_criterion_04_solvability_shadow():
    for n in (1, 2, 3, 4):
        for depth in range(1, n + 2):
            report = derived_depth_test(n, depth, trials=10,
                                        seed=40_000 + 10 * n + depth)
            if depth == n + 1:
                assert report.identities == report.trials
    _pass(4, "iterated commutators: depth 1 unitriangular, depth s+1 fixes "
             "x1..xs, depth n+1 trivial, for n = 1..4")


def test_criterion_05_products_of_exponentials_are_unipotent():
    rng = Random(50_000)
    products = 0
    for batch in range(25):
        n = rng.randint(1, 4)
        count = rng.randint(1, 3)
        derivations = [random_triangular_derivation(n, 2, rng=rng, density=0.3)
                       for _ in range(count)]
        report = unipotent_generation_test(derivations, max_word_len=6,
                                           trials=20, seed=50_100 + batch)
        products += report.trials
    assert products == 500
    _pass(5, "500 products of <= 6 exponentials of <= 3 random triangular "
             "derivations (n <= 4) are unitriangular")


def test_criterion_06_bracket_closures_are_finite_and_nilpotent():
    rng = Random(60_000)
    max_dim = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        count = rng.randint(1, 3)
        generators = [random_triangular_derivation(n, 2, rng=rng, density=0.3)
                      for _ in range(count)]
        basis = lie_closure(generators, cap=50)
        series = lower_central_series(basis)
        assert series[-1] == 0
        max_dim = max(max_dim, basis.dimension)
    heis = heisenberg()
    basis = lie_closure(heis)
    assert basis.dimension == 3 == oracle_closure_dimension(heis)
    assert nilpotency_class(basis) == 2
    _pass(6, f"200 random closures terminated (max dimension {max_dim}) with "
             "nilpotent series; Heisenberg pair has dimension 3, class 2")


def test_criterion_07_one_parameter_law():
    rng = Random(70_000)
    for _ in range(100):
        n = rng.randint(1, 3)
        d = random_triangular_derivation(n, 2, rng=rng, density=0.4)
        s = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        t = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        assert compose(exponential(d, s), exponential(d, t)) == exponential(d, s + t)
    _pass(7, "100 random (D, s, t) satisfy exp(sD) exp(tD) = exp((s+t)D) exactly")


def test_criterion_08_nonconnected_counterexample():
    for half_length in range(1, 7):
        report = nonconnected_counterexample(1, 0, 2 * half_length)
        assert report.translation_steps == list(range(-half_length, half_length + 1))
        assert report.counts_by_even_length[-1] == (2 * half_length,
                                                    2 * half_length + 1)
    full = nonconnected_counterexample(1, 0, 12)
    counts = [count for _, count in full.counts_by_even_length]
    assert counts == [3, 5, 7, 9, 11, 13]
    assert all(b > a for a, b in zip(counts, counts[1:]))
    _pass(8, "determinant-1 words of the order-two pair are exactly the "
             "shears k(a-b) with |k| <= L, strictly growing in L = 1..6")


def test_criterion_09_elementary_factorization_round_trip():
    rng = Random(90_000)
    for _ in range(500):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        phi = random_triangular(n, m, rng=rng, density=0.3)
        factors = elementary_factorization(phi)
        assert compose_all(factors, n) == phi
        assert all(f.degree() <= phi.degree() for f in factors)
    _pass(9, "500 elementary factorizations recompose exactly with factor "
             "degrees bounded by the input degree")


def test_criterion_10_parser_round_trip():
    rng = Random(10_000)
    for _ in range(400):
        p = random_polynomial(rng, rng.randint(1, 4), rng.randint(0, 4))
        text = str(p)
        assert str(parse_polynomial(text)) == text
    for _ in range(300):
        phi = random_triangular(rng.randint(1, 4), rng.randint(1, 3), rng=rng)
        text = phi.to_text()
        assert parse_automorphism(text).to_text() == text
    for _ in range(300):
        d = random_triangular_derivation(rng.randint(1, 4), rng.randint(0, 3),
                                         rng=rng)
        text = d.to_text()
        assert parse_derivation(text).to_text() == text
    _pass(10, "1000 print -> parse -> print round trips are byte-exact "
              "(400 polynomials, 300 automorphisms, 300 derivations)")
