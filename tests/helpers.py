"""Shared random generators for the property tests.

Everything takes an explicit Random instance so each test pins its own
seed and stays reproducible.
"""

from fractions import Fraction
from random import Random

from triaut.derivations import bracket
from triaut.polynomials import Polynomial, monomials_up_to_degree, term_order_key


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


def reference_str(p: Polynomial) -> str:
    """p's canonical text built from `terms`: exponent tuples sorted by
    `term_order_key`, int or Fraction coefficients.  A test oracle for
    `Polynomial.__str__`, which reads the packed keys instead."""
    if not p:
        return "0"
    terms = p.terms
    pieces = []
    for key in sorted(terms, key=term_order_key):
        coeff = terms[key]
        vars_part = "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                             for i, e in enumerate(key) if e)
        if not vars_part:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = vars_part
        else:
            body = f"{abs(coeff)}*{vars_part}"
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(pieces)


def reference_substitute(p: Polynomial, images) -> Polynomial:
    """p at x_i = images[i-1], one term at a time: each monomial is a
    product of cached powers of the images, scaled and added to the running
    total.  A test oracle for the Horner evaluation in `substitute`."""
    powers = {}

    def power(i: int, e: int) -> Polynomial:
        if (i, e) not in powers:
            powers[(i, e)] = images[i] if e == 1 else power(i, e - 1) * images[i]
        return powers[(i, e)]

    width = max(im.nvars for im in images)
    total = Polynomial.zero(width)
    for key, c in p.terms.items():
        term = Polynomial.constant(c, width)
        for i, e in enumerate(key):
            if e:
                term = term * power(i, e)
        total = total + term
    return total


def _independent(derivations):
    """A maximal linearly independent subset, by exact sparse elimination:
    each kept vector is reduced by the earlier ones, in order, and scaled
    to 1 at its least nonzero key."""
    rows, kept = [], []
    for d in derivations:
        vec = {(i, key): Fraction(c)
               for i, g in enumerate(d.coeffs, start=1) for key, c in g.terms.items()}
        for pivot, row in rows:
            factor = vec.get(pivot)
            if factor:
                for key, value in row.items():
                    s = vec.get(key, 0) - factor * value
                    if s:
                        vec[key] = s
                    else:
                        del vec[key]
        if vec:
            pivot = min(vec)
            rows.append((pivot, {key: value / vec[pivot] for key, value in vec.items()}))
            kept.append(d)
    return kept


def reference_series(basis, left_full: bool) -> list[int]:
    """Lower central (left_full) or derived series dimensions, computed by
    bracketing the polynomial derivations of every term anew: a test oracle
    for the series that `triaut.lie` computes on structure constants."""
    dims = [basis.dimension]
    current = list(basis.elements)
    while dims[-1] > 0:
        left = basis.elements if left_full else current
        current = _independent([bracket(a, b) for a in left for b in current])
        assert len(current) < dims[-1], f"series stalled at {dims + [len(current)]}"
        dims.append(len(current))
    return dims
