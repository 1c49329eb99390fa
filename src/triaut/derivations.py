"""Triangular derivations of the polynomial algebra and their exponentials.

A triangular derivation is D = g_1 d/dx_1 + ... + g_n d/dx_n where g_1 is
constant and g_i involves only x_1, ..., x_{i-1}.  Every such D is locally
nilpotent: repeated application kills any polynomial, because each
application can only push support toward lower-index variables.  That
finiteness is what makes exp(s*D) a polynomial automorphism rather than a
formal power series.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Sequence

from .automorphisms import TriangularAutomorphism, _random_tails
from .errors import CapExceededError, TriangularityError
from .polynomials import Polynomial, as_scalar

# Hard ceiling on power iterations; hit only on a bug, since triangular
# derivations are locally nilpotent.
_HARD_CAP = 10_000


class TriangularDerivation:
    """Coefficient tuple (g_1, ..., g_n) of a triangular derivation."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Sequence):
        if n < 1:
            raise TriangularityError("ambient dimension must be at least 1")
        if len(coeffs) != n:
            raise TriangularityError(f"expected {n} coefficients, got {len(coeffs)}")
        prepared = []
        for i, g in enumerate(coeffs, start=1):
            if not isinstance(g, Polynomial):
                g = Polynomial.constant(g, n)
            mv = g.max_variable()
            if mv >= i:
                raise TriangularityError(
                    f"coefficient of d/dx{i} mentions x{mv}; only x1..x{i - 1} allowed")
            prepared.append(g.promoted(n))
        self.n = n
        self.coeffs = tuple(prepared)

    def apply(self, p: Polynomial) -> Polynomial:
        """D(p) = sum_i g_i * dp/dx_i."""
        if p.max_variable() > self.n:
            raise ValueError(f"polynomial mentions x{p.max_variable()}, beyond n={self.n}")
        p = p.promoted(self.n)
        total = Polynomial.zero(self.n)
        for i, g in enumerate(self.coeffs, start=1):
            if g:
                dp = p.partial(i)
                if dp:
                    total = total + g * dp
        return total

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


def bracket(d1: TriangularDerivation, d2: TriangularDerivation) -> TriangularDerivation:
    """Lie bracket [D1, D2] = D1 D2 - D2 D1, itself triangular.

    Its i-th coefficient is D1(g2_i) - D2(g1_i).
    """
    if d1.n != d2.n:
        raise ValueError(f"dimension mismatch: {d1.n} vs {d2.n}")
    return TriangularDerivation(
        d1.n, [d1.apply(g2) - d2.apply(g1) for g1, g2 in zip(d1.coeffs, d2.coeffs)])


def _variable_index(d: TriangularDerivation, i: int) -> int:
    """Least k with D^k(x_i) = 0."""
    q = d.apply(Polynomial.variable(i, d.n))
    k = 1
    while q:
        q = d.apply(q)
        k += 1
        if k > _HARD_CAP:
            raise CapExceededError(
                f"D^k(x{i}) survived {_HARD_CAP} applications; derivation is not locally nilpotent")
    return k


def nilpotency_index(d: TriangularDerivation, p: Polynomial) -> int:
    """Least k with D^k(p) = 0; 0 for the zero polynomial.

    Local nilpotency guarantees termination; the cap (from the degree of p
    and the per-variable indices) only trips on an implementation bug.
    """
    if not isinstance(p, Polynomial):
        p = Polynomial.constant(p)
    if not p:
        return 0
    per_var = max((_variable_index(d, i) for i in range(1, d.n + 1)), default=1)
    cap = 1 + p.total_degree() * per_var
    q = p
    k = 0
    while q:
        q = d.apply(q)
        k += 1
        if k > cap:
            raise CapExceededError(
                f"D^k(p) survived the nilpotency ceiling {cap}")
    return k


def exponential(d: TriangularDerivation, s) -> TriangularAutomorphism:
    """exp(s*D): the unitriangular automorphism x_i -> sum_k s^k D^k(x_i) / k!.

    The sum is finite by local nilpotency, and exact: s is a rational
    scalar and factorials are computed exactly.
    """
    s = as_scalar(s)
    n = d.n
    tails = []
    for i in range(1, n + 1):
        term = d.coeffs[i - 1]  # D(x_i)
        tail = Polynomial.zero(n)
        k = 1
        factorial = 1
        s_power = s
        while term:
            if s_power:
                coeff = as_scalar(Fraction(s_power) / factorial)
                tail = tail + term * coeff
            term = d.apply(term)
            k += 1
            factorial *= k
            s_power = s_power * s
            if k > _HARD_CAP:
                raise CapExceededError(
                    f"series for coordinate {i} did not terminate within {_HARD_CAP} steps")
        tails.append(tail)
    return TriangularAutomorphism(n, (1,) * n, tails)


def random_triangular_derivation(n: int, max_degree: int, seed=None,
                                 coeff_bound: int = 2, density: float = 0.4,
                                 rng: Random | None = None) -> TriangularDerivation:
    """Random triangular derivation with coefficient degrees <= max_degree.

    The coefficients are sampled as the tails of
    automorphisms.random_triangular, without the lambdas.
    """
    if n < 1 or max_degree < 0:
        raise ValueError("need n >= 1 and max_degree >= 0")
    if rng is None:
        rng = Random(seed)
    nonzero = [c for c in range(-coeff_bound, coeff_bound + 1) if c]
    return TriangularDerivation(n, _random_tails(n, max_degree, rng, nonzero, density))
