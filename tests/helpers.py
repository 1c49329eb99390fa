"""Shared random generators for the property tests.

Everything takes an explicit Random instance so each test pins its own
seed and stays reproducible.
"""

from fractions import Fraction
from random import Random

from triaut.polynomials import Polynomial, monomials_up_to_degree


def random_scalar(rng: Random, bound: int = 4, fractions: bool = True):
    num = rng.randint(-bound, bound)
    if fractions and rng.random() < 0.3:
        return Fraction(num, rng.randint(1, 3))
    return num


def random_polynomial(rng: Random, nvars: int, max_degree: int,
                      density: float = 0.5, bound: int = 4,
                      fractions: bool = True) -> Polynomial:
    terms = {}
    for key in monomials_up_to_degree(nvars, max_degree):
        if rng.random() < density:
            c = random_scalar(rng, bound, fractions)
            if c:
                terms[key] = c
    return Polynomial(terms, nvars)


def nonzero_polynomial(rng: Random, nvars: int, max_degree: int, **kw) -> Polynomial:
    while True:
        p = random_polynomial(rng, nvars, max_degree, **kw)
        if p:
            return p


def wide_rational_polynomial(rng: Random, nvars: int, max_degree: int,
                             density: float = 0.4) -> Polynomial:
    """Random polynomial whose coefficients are fractions with numerators
    and denominators up to 2^40."""
    terms = {}
    for key in monomials_up_to_degree(nvars, max_degree):
        if rng.random() < density:
            terms[key] = Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 2 ** 40))
    return Polynomial(terms, nvars)


def to_sympy(sympy, p: Polynomial, gens):
    """p as a sympy expression in gens (one generator per variable, at
    least p.nvars of them)."""
    return sympy.Add(*(sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
                       * sympy.Mul(*(g ** e for g, e in zip(gens, key)))
                       for key, c in p.terms.items()))
