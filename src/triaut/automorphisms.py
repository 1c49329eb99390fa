"""Triangular polynomial automorphisms of affine n-space.

A triangular automorphism is a tuple (f_1, ..., f_n) with

    f_i = lambda_i * x_i + h_i,    lambda_i != 0,

where h_1 is a constant and h_i involves only x_1, ..., x_{i-1}.  Any
such tuple is invertible, so validity is a shape check, not a Jacobian
computation.  Composition substitutes the inner tuple into the outer
coordinates: compose(outer, inner) applies `inner` first.

Degrees of compositions can exceed the degrees of the factors; tracking
exactly how far they can grow is the point of the degree fuzz harness
(see triaut.harness).
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Sequence

from .errors import TriangularityError
from .polynomials import (
    Monomial,
    Polynomial,
    Scalar,
    as_scalar,
    monomials_up_to_degree,
    scalar_inverse,
    term_order_key,
)


def _as_tail(value, n: int, position: int) -> Polynomial:
    if not isinstance(value, Polynomial):
        value = Polynomial.constant(value, n)
    mv = value.max_variable()
    if mv > n:
        raise TriangularityError(
            f"tail of coordinate {position} mentions x{mv}, beyond ambient n={n}")
    return value.promoted(n)


class TriangularAutomorphism:
    """A validated triangular tuple; immutable after construction."""

    __slots__ = ("n", "lambdas", "tails")

    def __init__(self, n: int, lambdas: Sequence, tails: Sequence):
        if n < 1:
            raise TriangularityError("ambient dimension must be at least 1")
        lambdas = tuple(as_scalar(l) for l in lambdas)
        if len(lambdas) != n:
            raise TriangularityError(f"expected {n} scalars, got {len(lambdas)}")
        for i, lam in enumerate(lambdas, start=1):
            if lam == 0:
                raise TriangularityError(f"lambda_{i} is zero")
        if len(tails) != n:
            raise TriangularityError(f"expected {n} tails, got {len(tails)}")
        tails = tuple(_as_tail(t, n, i + 1) for i, t in enumerate(tails))
        for i, tail in enumerate(tails, start=1):
            mv = tail.max_variable()
            if mv >= i:
                raise TriangularityError(
                    f"tail of coordinate {i} mentions x{mv}; only x1..x{i - 1} allowed")
        self.n = n
        self.lambdas = lambdas
        self.tails = tails

    # -- views -----------------------------------------------------------

    def coordinate(self, i: int) -> Polynomial:
        """The coordinate polynomial f_i = lambda_i x_i + h_i (1-based)."""
        if i < 1 or i > self.n:
            raise ValueError(f"coordinate index {i} out of range 1..{self.n}")
        terms = dict(self.tails[i - 1].terms)
        key = tuple(1 if j == i - 1 else 0 for j in range(self.n))
        terms[key] = self.lambdas[i - 1]
        return Polynomial._raw(terms, self.n)

    def coordinates(self) -> list[Polynomial]:
        return [self.coordinate(i) for i in range(1, self.n + 1)]

    def degree(self) -> int:
        """Max total degree over the coordinates; at least 1."""
        deg = 1
        for tail in self.tails:
            d = tail.total_degree()
            if d > deg:
                deg = d
        return deg

    def is_unitriangular(self) -> bool:
        return all(lam == 1 for lam in self.lambdas)

    def is_identity(self) -> bool:
        return self.is_unitriangular() and not any(self.tails)

    def fixes_prefix(self, s: int) -> bool:
        """True iff f_i = x_i for all i <= s."""
        if s < 0 or s > self.n:
            raise ValueError(f"prefix length {s} out of range 0..{self.n}")
        return all(self.lambdas[i] == 1 and not self.tails[i] for i in range(s))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TriangularAutomorphism):
            return NotImplemented
        return (self.n == other.n and self.lambdas == other.lambdas
                and self.tails == other.tails)

    def __hash__(self) -> int:
        return hash((self.n, tuple(Fraction(l) for l in self.lambdas), self.tails))

    def to_text(self) -> str:
        lines = [f"n={self.n}"]
        lines += [f"x{i} -> {self.coordinate(i)}" for i in range(1, self.n + 1)]
        return "\n".join(lines) + "\n"

    __str__ = to_text

    def __repr__(self) -> str:
        coords = ", ".join(str(c) for c in self.coordinates())
        return f"TriangularAutomorphism({coords})"


def make(n: int, lambdas: Sequence, tails: Sequence) -> TriangularAutomorphism:
    """Validating constructor; alias for the class itself."""
    return TriangularAutomorphism(n, lambdas, tails)


def identity(n: int) -> TriangularAutomorphism:
    return TriangularAutomorphism(n, (1,) * n, (Polynomial.zero(n),) * n)


def compose(outer: TriangularAutomorphism,
            inner: TriangularAutomorphism) -> TriangularAutomorphism:
    """The automorphism applying `inner` first, then `outer`.

    Coordinate j of the result is outer_j evaluated at the inner tuple:
    lambda'_j lambda_j x_j + lambda'_j p_j + p'_j(inner coordinates).
    """
    if outer.n != inner.n:
        raise ValueError(f"dimension mismatch: {outer.n} vs {inner.n}")
    n = outer.n
    coords = inner.coordinates()
    pow_cache: dict = {}
    lambdas = []
    tails = []
    for j in range(n):
        lam = outer.lambdas[j]
        lambdas.append(lam * inner.lambdas[j])
        tail = inner.tails[j] * lam
        if outer.tails[j]:
            tail = tail + outer.tails[j]._substitute(coords, pow_cache)
        tails.append(tail)
    return TriangularAutomorphism(n, lambdas, tails)


def invert(phi: TriangularAutomorphism) -> TriangularAutomorphism:
    """Two-sided inverse, computed by back-substitution.

    Coordinate i of the inverse is lambda_i^{-1} (x_i - h_i(g_1, ..., g_{i-1}))
    where g_1, ..., g_{i-1} are the already-computed earlier coordinates.
    """
    n = phi.n
    inv_lambdas = [scalar_inverse(lam) for lam in phi.lambdas]
    solved: list[Polynomial] = []
    tails = []
    zero = Polynomial.zero(n)
    for i in range(n):
        tail = phi.tails[i]
        if tail:
            images = solved + [zero] * (n - len(solved))
            tail = tail.substitute(images)
        inv_tail = tail * (-inv_lambdas[i])
        tails.append(inv_tail)
        solved.append(Polynomial.variable(i + 1, n) * inv_lambdas[i] + inv_tail)
    return TriangularAutomorphism(n, inv_lambdas, tails)


def power(phi: TriangularAutomorphism, k: int) -> TriangularAutomorphism:
    """k-fold composition of phi with itself; negative k uses the inverse."""
    if k < 0:
        return power(invert(phi), -k)
    result = identity(phi.n)
    base = phi
    while k:
        if k & 1:
            result = compose(result, base)
        k >>= 1
        if k:
            base = compose(base, base)
    return result


def commutator(phi: TriangularAutomorphism,
               psi: TriangularAutomorphism) -> TriangularAutomorphism:
    """phi . psi . phi^{-1} . psi^{-1}; always unitriangular."""
    return compose(compose(compose(phi, psi), invert(phi)), invert(psi))


def elementary_scaling(n: int, i: int, lam) -> TriangularAutomorphism:
    """(x_1, ..., lam * x_i, ..., x_n)."""
    lambdas = [1] * n
    lambdas[i - 1] = lam
    return TriangularAutomorphism(n, lambdas, (Polynomial.zero(n),) * n)


def elementary_shear(n: int, i: int, coeff, exponents: Monomial) -> TriangularAutomorphism:
    """(x_1, ..., x_i + coeff * x^exponents, ..., x_n) with x^exponents
    supported on x_1..x_{i-1}."""
    tails = [Polynomial.zero(n)] * n
    tails[i - 1] = Polynomial.monomial(coeff, exponents, n)
    return TriangularAutomorphism(n, (1,) * n, tails)


def elementary_factorization(phi: TriangularAutomorphism) -> list[TriangularAutomorphism]:
    """Write phi as an ordered composition of elementary factors.

    The returned list composes outermost-first back to phi.  Coordinate
    blocks appear in order i = 1..n; inside a block, one shear per tail
    monomial (in the canonical term order) and then the scaling, so the
    scaling acts innermost and the shears add the raw tail monomials on
    top of it.  Identity factors are omitted.
    """
    factors = []
    for i in range(1, phi.n + 1):
        tail = phi.tails[i - 1]
        for key in sorted(tail.terms, key=term_order_key):
            factors.append(elementary_shear(phi.n, i, tail.terms[key], key))
        if phi.lambdas[i - 1] != 1:
            factors.append(elementary_scaling(phi.n, i, phi.lambdas[i - 1]))
    return factors


def compose_all(factors: Sequence[TriangularAutomorphism], n: int) -> TriangularAutomorphism:
    """Ordered composition, first factor outermost; empty input gives identity."""
    result = identity(n)
    for factor in reversed(factors):
        result = compose(factor, result)
    return result


def random_triangular(n: int, m: int, seed=None, coeff_bound: int = 2,
                      density: float = 0.4, rng: Random | None = None) -> TriangularAutomorphism:
    """Random triangular map of degree <= m, deterministic for a fixed seed.

    The lambdas are drawn first, then the tails as in `_random_tails`; all
    are uniform nonzero integers in [-coeff_bound, coeff_bound].
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if rng is None:
        rng = Random(seed)
    nonzero = [c for c in range(-coeff_bound, coeff_bound + 1) if c]
    lambdas = [rng.choice(nonzero) for _ in range(n)]
    return TriangularAutomorphism(n, lambdas, _random_tails(n, m, rng, nonzero, density))


def _random_tails(n: int, max_degree: int, rng: Random, nonzero: list[int],
                  density: float) -> list[Polynomial]:
    """Triangular tails h_1..h_n, drawn in order: each candidate monomial in
    x_1..x_{i-1} of degree <= max_degree is kept with probability `density`,
    with a coefficient drawn from `nonzero`."""
    tails = []
    for i in range(1, n + 1):
        terms: dict[Monomial, Scalar] = {}
        for key in monomials_up_to_degree(i - 1, max_degree):
            if rng.random() < density:
                terms[key + (0,) * (n - i + 1)] = rng.choice(nonzero)
        tails.append(Polynomial._raw(terms, n))
    return tails


def staircase_map(n: int, m: int) -> TriangularAutomorphism:
    """(x_1, x_2 + x_1^m, x_3 + x_2^m, ...): the canonical degree-m member
    whose iterates exhibit degree growth."""
    tails = [Polynomial.zero(n)]
    for i in range(2, n + 1):
        key = tuple(m if j == i - 2 else 0 for j in range(n))
        tails.append(Polynomial._raw({key: 1}, n))
    return TriangularAutomorphism(n, (1,) * n, tails)
