"""Triangular polynomial automorphisms of affine n-space.

A triangular automorphism is a tuple (f_1, ..., f_n) with

    f_i = lambda_i * x_i + h_i,    lambda_i != 0,

where h_1 is a constant and h_i involves only x_1, ..., x_{i-1}.  Any
such tuple is invertible, so validity is a shape check, not a Jacobian
computation.  Composition substitutes the inner tuple into the outer
coordinates: compose(outer, inner) applies `inner` first.

The inverse psi of phi is triangular too, with psi_i = lambda_i^{-1} x_i +
k_i(psi_1, ..., psi_{i-1}) for k_i = -h_i / lambda_i.  An `invert` result
keeps these k_i, its *nested form*, in a private slot.  Expanded, its
tails can reach degree m^(n-1) for a map of degree m (Bass, Connell &
Wright, Bull. AMS 7, 1982), while the k_i keep the forward map's degree.
So `compose` with an inverse as the outer map back-substitutes: it
evaluates k_j at the result's own earlier coordinates, one coordinate at
a time, and `invert` is that same loop run against the identity.  The
nested form plays no part in `==`, `hash` or the text forms, and nothing
is cached: a map built by `make` from an inverse's lambdas and tails
composes to the same result by the expanded route.  `compose` returns
the other operand when one of them is the identity.  `commutator` never
expands phi^{-1}: it back-substitutes phi's nested form, computed from
phi's lambdas and tails, straight into psi^{-1}.

Degrees of compositions can exceed the degrees of the factors; tracking
exactly how far they can grow is the point of the degree fuzz harness
(see triaut.harness).
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from .errors import TriangularityError
from .polynomials import (
    Monomial,
    Polynomial,
    Scalar,
    _binary_power,
    _checked_index,
    _checked_int,
    _coordinate,
    _make,
    _pack,
    _substitute_add,
    _text,
    as_scalar,
    monomials_up_to_degree,
    scalar_inverse,
    term_order_key,
)


class TriangularAutomorphism:
    """A validated triangular tuple; immutable after construction.

    An `invert` result also carries its nested form in `_nested` (see the
    module docstring); every other map has None there.  It is private and
    plays no part in `==`, `hash` or the text forms.
    """

    __slots__ = ("n", "lambdas", "tails", "_nested")

    def __init__(self, n: int, lambdas: Sequence, tails: Sequence):
        tails = _triangular(n, tails, "tails", _TAIL_LABEL)
        lambdas = tuple(as_scalar(l) for l in lambdas)
        if len(lambdas) != n:
            raise TriangularityError(f"expected {n} scalars, got {len(lambdas)}")
        for i, lam in enumerate(lambdas, start=1):
            if lam == 0:
                raise TriangularityError(f"lambda_{i} is zero")
        self.n = n
        self.lambdas = lambdas
        self.tails = tails
        self._nested = None

    # -- views -----------------------------------------------------------

    def coordinate(self, i: int) -> Polynomial:
        """The coordinate polynomial f_i = lambda_i x_i + h_i (1-based)."""
        _checked_index(i, 1, self.n, "coordinate index")
        return _coordinate(self.lambdas[i - 1], i, self.tails[i - 1])

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
        for tail in self.tails:  # most maps that are not the identity fail here
            if tail._num:
                return False
        for lam in self.lambdas:
            if lam != 1:
                return False
        return True

    def fixes_prefix(self, s: int) -> bool:
        """True iff f_i = x_i for all i <= s."""
        _checked_index(s, 0, self.n, "prefix length")
        return all(self.lambdas[i] == 1 and not self.tails[i] for i in range(s))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TriangularAutomorphism):
            return NotImplemented
        return (self.n == other.n and self.lambdas == other.lambdas
                and self.tails == other.tails)

    def __hash__(self) -> int:
        return hash((self.n, self.lambdas, self.tails))

    def to_text(self) -> str:
        lines = [f"n={self.n}"]
        lines += [f"x{i} -> {_text(tail, lam, i)}"
                  for i, (lam, tail) in enumerate(zip(self.lambdas, self.tails), start=1)]
        return "\n".join(lines) + "\n"

    __str__ = to_text

    def __repr__(self) -> str:
        coords = ", ".join(str(c) for c in self.coordinates())
        return f"TriangularAutomorphism({coords})"


def make(n: int, lambdas: Sequence, tails: Sequence) -> TriangularAutomorphism:
    """Validating constructor; alias for the class itself."""
    return TriangularAutomorphism(n, lambdas, tails)


def _trusted(n: int, lambdas: Sequence[Scalar],
             tails: Sequence[Polynomial]) -> TriangularAutomorphism:
    """A map built from kernel output, without the `_triangular` check: the
    tails are triangular polynomials in ambient n by construction and the
    lambdas nonzero.  A lambda that is not an int is normalised
    (Fraction(1, 2) * 2 is the int 1)."""
    phi = object.__new__(TriangularAutomorphism)
    phi.n = n
    phi.lambdas = tuple([lam if type(lam) is int else as_scalar(lam) for lam in lambdas])
    phi.tails = tuple(tails)
    phi._nested = None
    return phi


def identity(n: int) -> TriangularAutomorphism:
    """The identity map of affine n-space, for an int n >= 1."""
    _checked_dimension(n)
    return _trusted(n, (1,) * n, (Polynomial.zero(n),) * n)


def compose(outer: TriangularAutomorphism,
            inner: TriangularAutomorphism) -> TriangularAutomorphism:
    """The automorphism applying `inner` first, then `outer`.

    Coordinate j of the result is outer_j evaluated at the inner tuple:
    lambda'_j lambda_j x_j + lambda'_j p_j + p'_j(inner coordinates).  Each
    tail p'_j(inner coordinates) + lambda'_j p_j is one call of the
    substitution kernel (`polynomials._substitute_add`): one numerator
    dict, normalised once; where p'_j is 0 and lambda'_j is 1 it is p_j
    itself.

    An outer map from `invert` is applied through its nested form instead
    (see `_back_substitute`): the small forward tails are evaluated at the
    result's own earlier coordinates, not its expanded tails at the inner
    coordinates.  When either operand is the identity the other one is
    returned as is, as `p * 1 is p` for polynomials.
    """
    if outer.n != inner.n:
        raise ValueError(f"dimension mismatch: {outer.n} vs {inner.n}")
    if outer.is_identity():
        return inner
    if inner.is_identity():
        return outer
    if outer._nested is not None:
        return _back_substitute(outer.lambdas, outer._nested, inner)
    n = outer.n
    # no tail mentions x_n, so its image is not needed
    coords = [_coordinate(inner.lambdas[i], i + 1, inner.tails[i]) for i in range(n - 1)]
    lambdas = []
    tails = []
    for j in range(n):
        lam = outer.lambdas[j]
        lambdas.append(lam * inner.lambdas[j])
        tails.append(_substitute_add(outer.tails[j], coords, n, lam, inner.tails[j]))
    return _trusted(n, lambdas, tails)


def invert(phi: TriangularAutomorphism) -> TriangularAutomorphism:
    """Two-sided inverse, computed by back-substitution.

    Coordinate i of the inverse is psi_i = lambda_i^{-1} x_i + k_i(psi_1,
    ..., psi_{i-1}) with k_i = -h_i / lambda_i: the inverse's nested form,
    applied to the identity by `_back_substitute`.  The result keeps the
    nested form, so that `compose` with it as the outer map evaluates the
    small k_i, not the inverse's expanded tails, whose degree can reach
    m^(n-1) for a forward map of degree m.
    """
    mus, nested = _nested_form(phi)
    psi = _back_substitute(mus, nested, identity(phi.n))
    psi._nested = nested
    return psi


def _nested_form(phi: TriangularAutomorphism) -> tuple[list[Scalar], tuple[Polynomial, ...]]:
    """phi^{-1}'s diagonal lambda_i^{-1} and nested form k_i = -h_i / lambda_i."""
    mus = [scalar_inverse(lam) for lam in phi.lambdas]
    return mus, tuple(h._scaled(-mu) for h, mu in zip(phi.tails, mus))


def _back_substitute(mus: Sequence[Scalar], nested: Sequence[Polynomial],
                     inner: TriangularAutomorphism) -> TriangularAutomorphism:
    """psi . inner for psi with diagonal `mus` and nested form `nested`.

    Coordinate j of the result T is psi_j(inner) = mu_j inner_j +
    k_j(T_1, ..., T_{j-1}), as psi_i(inner) = T_i for i < j: its tail,
    k_j(T_1, ..., T_{j-1}) + mu_j p_j, is one call of the substitution
    kernel on the result's own earlier coordinates.
    """
    n = inner.n
    solved: list[Polynomial] = []
    lambdas = []
    tails = []
    for j in range(n):
        mu = mus[j]
        lam = mu * inner.lambdas[j]
        tail = _substitute_add(nested[j], solved, n, mu, inner.tails[j])
        lambdas.append(lam)
        tails.append(tail)
        if j + 1 < n:  # T_n is no later coordinate's image
            solved.append(_coordinate(lam, j + 1, tail))
    return _trusted(n, lambdas, tails)


def power(phi: TriangularAutomorphism, k: int) -> TriangularAutomorphism:
    """k-fold composition of phi with itself; negative k uses the inverse.
    k must be an int (not bool), else TypeError."""
    _checked_int(k, "power exponent")
    if k < 0:
        return power(invert(phi), -k)
    return _binary_power(phi, k, compose, identity(phi.n))


def commutator(phi: TriangularAutomorphism,
               psi: TriangularAutomorphism) -> TriangularAutomorphism:
    """phi . psi . phi^{-1} . psi^{-1}, always unitriangular, associated as
    (phi psi)(phi^{-1} psi^{-1}).  phi^{-1} is never expanded: its nested
    form is back-substituted into psi^{-1} directly, so a commutator costs
    two back-substitutions, not the three of composing two `invert`
    results."""
    return compose(compose(phi, psi), _back_substitute(*_nested_form(phi), invert(psi)))


def elementary_scaling(n: int, i: int, lam) -> TriangularAutomorphism:
    """(x_1, ..., lam * x_i, ..., x_n) for an int i in 1..n."""
    _checked_int(n, "ambient dimension")
    _checked_index(i, 1, n, "coordinate index")
    lambdas = [1] * n
    lambdas[i - 1] = lam
    return TriangularAutomorphism(n, lambdas, (Polynomial.zero(n),) * n)


def elementary_shear(n: int, i: int, coeff, exponents: Monomial) -> TriangularAutomorphism:
    """(x_1, ..., x_i + coeff * x^exponents, ..., x_n) with x^exponents
    supported on x_1..x_{i-1}, for an int i in 1..n."""
    _checked_int(n, "ambient dimension")
    _checked_index(i, 1, n, "coordinate index")
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
        terms = phi.tails[i - 1].terms
        for key in sorted(terms, key=term_order_key):
            factors.append(elementary_shear(phi.n, i, terms[key], key))
        if phi.lambdas[i - 1] != 1:
            factors.append(elementary_scaling(phi.n, i, phi.lambdas[i - 1]))
    return factors


def compose_all(factors: Sequence[TriangularAutomorphism], n: int) -> TriangularAutomorphism:
    """Ordered composition, first factor outermost; empty input gives identity."""
    result = identity(n)
    for factor in reversed(factors):
        result = compose(factor, result)
    return result


# The sampled lambdas and tail coefficients: the nonzero integers in [-2, 2].
_COEFFICIENTS = (-2, -1, 1, 2)


def random_triangular(n: int, m: int, seed=None, density: float = 0.4,
                      rng: Random | None = None) -> TriangularAutomorphism:
    """Random triangular map of degree <= m, deterministic for a fixed seed.

    The lambdas are drawn first, then the tails as in `_random_tails`; all
    are uniform over `_COEFFICIENTS`.  n and m must be ints (not bool),
    else TypeError.  The map is built by `_trusted`, without the shape
    check of `make`: the lambdas are nonzero ints and `_random_tails`
    builds its tails triangular in ambient n.
    """
    _checked_int(n, "ambient dimension")
    _checked_int(m, "degree bound")
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if rng is None:
        rng = Random(seed)
    lambdas = [rng.choice(_COEFFICIENTS) for _ in range(n)]
    return _trusted(n, lambdas, _random_tails(n, m, rng, density))


def _triangular(n: int, polys: Sequence, noun: str, label: str) -> tuple[Polynomial, ...]:
    """The triangular tuple (p_1, ..., p_n) in ambient n, scalars taken as
    constants: p_i may mention x_1..x_{i-1} only.  The ambient n must be
    an int (not bool), else TypeError; `noun` names the entries in the
    count error and `label`, formatted with i, names entry i."""
    _checked_dimension(n)
    if len(polys) != n:
        raise TriangularityError(f"expected {n} {noun}, got {len(polys)}")
    out = []
    for i, p in enumerate(polys, start=1):
        if not isinstance(p, Polynomial):
            p = Polynomial.constant(p, n)
        mv = p.max_variable()
        if mv >= i:
            raise _shape_error(label, i, mv)
        out.append(p.promoted(n))
    return tuple(out)


def _checked_dimension(n) -> None:
    """Raise unless the ambient dimension n is an int (not bool, TypeError)
    of at least 1 (TriangularityError)."""
    _checked_int(n, "ambient dimension")
    if n < 1:
        raise TriangularityError("ambient dimension must be at least 1")


# Entry i of a map's tuple, in `_shape_error`'s text.
_TAIL_LABEL = "tail of coordinate {}"


def _shape_error(label: str, i: int, top: int | str) -> TriangularityError:
    """The error for entry i of a triangular tuple that mentions x_top, top
    >= i, given as an int or as its decimal digits; `label`, formatted with
    i, names the entry."""
    allowed = f"only x1..x{i - 1} allowed" if i > 1 else "it must be a constant"
    return TriangularityError(f"{label.format(i)} mentions x{top}; {allowed}")


def _random_tails(n: int, max_degree: int, rng: Random, density: float) -> list[Polynomial]:
    """Triangular tails h_1..h_n, drawn in order: each candidate monomial in
    x_1..x_{i-1} of degree <= max_degree is kept with probability `density`,
    with a coefficient drawn from `_COEFFICIENTS`.  The coefficients are
    nonzero ints and the monomials distinct, so each tail is built
    straight from its packed keys over denominator 1."""
    tails = []
    for i in range(1, n + 1):
        num: dict[int, int] = {}
        for exponents in monomials_up_to_degree(i - 1, max_degree):
            if rng.random() < density:
                num[_pack(exponents)] = rng.choice(_COEFFICIENTS)
        tails.append(_make(num, 1, n))
    return tails


def staircase_map(n: int, m: int) -> TriangularAutomorphism:
    """(x_1, x_2 + x_1^m, x_3 + x_2^m, ...): the canonical degree-m member
    whose iterates exhibit degree growth."""
    tails = [Polynomial.zero(n)]
    for i in range(2, n + 1):
        tails.append(Polynomial.monomial(1, (0,) * (i - 2) + (m,), n))
    return TriangularAutomorphism(n, (1,) * n, tails)
