"""Triangular derivations of the polynomial algebra and their exponentials.

A triangular derivation is D = g_1 d/dx_1 + ... + g_n d/dx_n where g_1 is
constant and g_i involves only x_1, ..., x_{i-1}.  Every such D is locally
nilpotent: repeated application kills any polynomial, because each
application can only push support toward lower-index variables.  That
finiteness is what makes exp(s*D) a polynomial automorphism rather than a
formal power series.
"""

from __future__ import annotations

from random import Random
from typing import Iterator, Sequence

from .automorphisms import TriangularAutomorphism, _random_tails, _triangular, _trusted, identity
from .errors import CapExceededError
from .polynomials import (
    Polynomial,
    Scalar,
    _checked_int,
    _guards,
    _merged,
    _normalised,
    _partial,
    _product,
    _weighted_degree,
    _width,
    as_scalar,
)

# Entry i of a derivation's tuple, in `automorphisms._shape_error`'s text.
_COEFFICIENT_LABEL = "coefficient of d/dx{}"


class TriangularDerivation:
    """Coefficient tuple (g_1, ..., g_n) of a triangular derivation."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Sequence):
        self.coeffs = _triangular(n, coeffs, "coefficients", _COEFFICIENT_LABEL)
        self.n = n

    def apply(self, p: Polynomial) -> Polynomial:
        """D(p) = sum_i g_i * dp/dx_i in ambient n, summed by `_add_applied`
        into one numerator dict and normalised once."""
        top = p.max_variable()
        if top > self.n:
            raise ValueError(f"polynomial mentions x{top}, beyond n={self.n}")
        num, den = _add_applied({}, 1, self.coeffs, p, 1, _guards(self.n))
        return _normalised(num, den, self.n)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "TriangularDerivation") -> "TriangularDerivation":
        if not isinstance(other, TriangularDerivation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return TriangularDerivation(
            self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TriangularDerivation") -> "TriangularDerivation":
        return self + (-other)

    def __neg__(self) -> "TriangularDerivation":
        return TriangularDerivation(self.n, [-g for g in self.coeffs])

    def __mul__(self, scalar) -> "TriangularDerivation":
        return TriangularDerivation(self.n, [g * as_scalar(scalar) for g in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, TriangularDerivation):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def to_text(self) -> str:
        lines = [f"n={self.n}"]
        lines += [f"dx{i} <- {g}" for i, g in enumerate(self.coeffs, start=1)]
        return "\n".join(lines) + "\n"

    __str__ = to_text

    def __repr__(self) -> str:
        parts = " + ".join(f"({g})*d/dx{i}" for i, g in enumerate(self.coeffs, start=1) if g)
        return f"TriangularDerivation({parts or '0'})"


def make_derivation(n: int, coeffs: Sequence) -> TriangularDerivation:
    return TriangularDerivation(n, coeffs)


def _trusted_derivation(n: int, coeffs: Sequence[Polynomial]) -> TriangularDerivation:
    """A derivation built from kernel output, without the `_triangular`
    check, as `automorphisms._trusted` builds a map: the coefficients are
    triangular polynomials in ambient n by construction."""
    d = object.__new__(TriangularDerivation)
    d.n = n
    d.coeffs = tuple(coeffs)
    return d


def _add_applied(num: dict[int, int], den: int, coeffs: Sequence[Polynomial], p: Polynomial,
                 sign: int, guards: int) -> tuple[dict[int, int], int]:
    """num/den + sign * D(p) for the derivation D with coefficients
    `coeffs`, as (numerators, denominator), not normalised; `num` is
    updated in place or replaced.

    Each g_i * dp/dx_i, for i up to p's top variable only, is one
    `_product` of g_i's numerators by those of `_partial`, taken straight
    off p's packed keys, added by `_merged` over the lcm of the
    denominators.  A `guards` bit set by a product raises ValueError, as
    in `_product`."""
    pnum = p._num
    if not pnum:
        return num, den
    pden = p._den
    for i in range(_width(max(pnum))):
        g = coeffs[i]
        if not g._num:
            continue
        partial = _partial(pnum, i + 1)
        if not partial:
            continue
        product = _product(g._num, partial, guards)
        if num or sign != 1:
            num, den = _merged(num, den, product, g._den * pden, sign, True)
        else:  # the first term: the product is the sum so far
            num, den = product, g._den * pden
    return num, den


def bracket(d1: TriangularDerivation, d2: TriangularDerivation) -> TriangularDerivation:
    """Lie bracket [D1, D2] = D1 D2 - D2 D1, itself triangular.

    Its k-th coefficient is D1(b_k) - D2(a_k) for a = d1's and b = d2's
    coefficients, summed by `_add_applied` into one numerator dict and
    normalised once; as a_k, b_k involve x_<k only, just the partials by
    x_1..x_{k-1} are taken.  The result is built by `_trusted_derivation`,
    as its coefficients are triangular by construction.
    """
    if d1.n != d2.n:
        raise ValueError(f"dimension mismatch: {d1.n} vs {d2.n}")
    n = d1.n
    guards = _guards(n)
    coeffs = []
    for a, b in zip(d1.coeffs, d2.coeffs):
        num, den = _add_applied({}, 1, d1.coeffs, b, 1, guards)
        num, den = _add_applied(num, den, d2.coeffs, a, -1, guards)
        coeffs.append(_normalised(num, den, n))
    return _trusted_derivation(n, coeffs)


def _weights(derivations: Sequence[TriangularDerivation], n: int) -> list[int]:
    """Weights w_1 = 1 and w_i = 1 + the largest weighted degree of the
    derivations' d/dx_i coefficients (which involve x_1..x_{i-1} only).

    Each of the derivations, and so each of their brackets, lowers weighted
    degree by at least 1: D(x^e) = sum_i e_i g_i x^e / x_i with
    wdeg(g_i) <= w_i - 1.  Hence D^k(p) = 0 once k > wdeg(p).
    """
    weights: list[int] = []
    for i in range(n):
        weights.append(1 + max((_weighted_degree(d.coeffs[i], weights) for d in derivations),
                               default=0))
    return weights


def _iterates(d: TriangularDerivation, p: Polynomial, cap: int) -> Iterator[Polynomial]:
    """p, D(p), D^2(p), ... while nonzero, at most `cap` of them; the cap
    comes from `_weights`, so a nonzero D^cap(p) is a property violation."""
    for _ in range(cap):
        if not p:
            return
        yield p
        p = d.apply(p)
    if p:
        raise CapExceededError(f"D^{cap}(p) is nonzero, beyond the weighted-degree bound")


def nilpotency_index(d: TriangularDerivation, p: Polynomial) -> int:
    """Least k with D^k(p) = 0; 0 for the zero polynomial.

    The index is the number of nonzero iterates of p, at most wdeg(p) + 1
    (see `_weights`).
    """
    if not isinstance(p, Polynomial):
        p = Polynomial.constant(p)
    if not p:
        return 0
    cap = 1 + _weighted_degree(p, _weights([d], d.n))
    return sum(1 for _ in _iterates(d, p, cap))


def exponential(d: TriangularDerivation, s) -> TriangularAutomorphism:
    """exp(s*D): the unitriangular automorphism x_i -> sum_k s^k D^k(x_i) / k!.

    The sum is finite and exact: D^k(x_i) = D^(k-1)(g_i) for g_i = D(x_i)
    is 0 for k > w_i (see `_weights`).  It is a polynomial in s whose
    coefficients, the iterates D^(k-1)(g_i), do not depend on s, so they
    are built once (`_coordinate_iterates`) and summed at any s by
    `_exponential`.  The tails are triangular by construction.
    """
    s = as_scalar(s)
    if not s:
        return identity(d.n)
    return _exponential(d.n, _coordinate_iterates(d), s)


def _coordinate_iterates(d: TriangularDerivation) -> list[list[Polynomial]]:
    """[g_i, D(g_i), D^2(g_i), ...] for each coefficient g_i of D, each
    run capped by its weight (see `_weights`)."""
    weights = _weights([d], d.n)
    return [list(_iterates(d, g, w)) for g, w in zip(d.coeffs, weights)]


def _exponential(n: int, iterates: list[list[Polynomial]], s: Scalar) -> TriangularAutomorphism:
    """exp(s*D) from D's `_coordinate_iterates`, for a nonzero scalar s:
    tail i is sum_k s^k / k! * D^(k-1)(g_i), added term by term into one
    numerator dict by `_merged` and normalised once."""
    p, q = (s, 1) if type(s) is int else (s.numerator, s.denominator)
    tails = []
    for series in iterates:
        num: dict[int, int] = {}
        den = 1
        scale, scale_den = 1, 1     # s^k / k! = scale / scale_den, unreduced
        for k, term in enumerate(series, start=1):
            scale *= p
            scale_den *= q * k
            num, den = _merged(num, den, term._num, term._den * scale_den, scale, True)
        tails.append(_normalised(num, den, n))
    return _trusted(n, (1,) * n, tails)


def random_triangular_derivation(n: int, max_degree: int, seed=None, density: float = 0.4,
                                 rng: Random | None = None) -> TriangularDerivation:
    """Random triangular derivation with coefficient degrees <= max_degree.

    The coefficients are sampled as the tails of
    automorphisms.random_triangular, without the lambdas, and the result
    is built by `_trusted_derivation`: `_random_tails` builds them
    triangular in ambient n.  n and max_degree must be ints (not bool),
    else TypeError.
    """
    _checked_int(n, "ambient dimension")
    _checked_int(max_degree, "degree bound")
    if n < 1 or max_degree < 0:
        raise ValueError("need n >= 1 and max_degree >= 0")
    if rng is None:
        rng = Random(seed)
    return _trusted_derivation(n, _random_tails(n, max_degree, rng, density))
