"""Exact linear algebra on derivation coefficients, bracket closure, and
the structure constants of the closed algebra.

A derivation is a sparse vector {(coordinate index, exponents): coefficient}.
A row space keeps fully reduced rows, each a dict of its nonzero entries.
A row's pivot is its least key in the keys' natural order, and the rows
are kept sorted by pivot; a fully reduced basis under a fixed key order
is unique, so the rows depend only on the span, not on the order in which
vectors were offered.  No a-priori degree bound is assumed.  All
elimination is fraction-exact Gaussian elimination, so ranks and
dimensions are never approximate.

`lie_closure` saturates a generator set under the bracket with the
generators only: left-normed brackets [s_1, [s_2, ... [s_{k-1}, s_k]]]
of generators span the generated Lie algebra (Reutenauer, *Free Lie
Algebras*, 1993).  For triangular generators the loop provably terminates
(the generated Lie algebra is finite-dimensional and nilpotent) within a
number of rounds derived from the generators, so hitting that cap is a
property violation.

Everything after the closure is rational linear algebra on the structure
constants, [e_i, e_j] = sum_k c_ij^k e_k (de Graaf, *Lie Algebras: Theory
and Algorithms*, 2000, ch. 1).  The basis e_k is the closure's reduced
rows: e_k is 1 at its pivot key p_k and 0 at every other pivot, so a
vector v of the span is sum_k v[p_k] e_k and c_ij^k is read off
[e_i, e_j] at p_k; a bracket that leaves a remainder shows the basis is
not bracket-closed.  The dim*(dim-1)/2 brackets are paid once per basis,
on first use; the series are then row spaces of coordinate vectors in
Q^dim, bracketed bilinearly, and no polynomial is bracketed again.
"""

from __future__ import annotations

from bisect import bisect
from functools import cached_property
from itertools import combinations, product
from typing import Sequence

from .derivations import TriangularDerivation, _weights, bracket
from .errors import CapExceededError, PropertyViolation
from .polynomials import Polynomial, Scalar, _add_into, as_scalar, scalar_inverse

Coordinates = dict[int, Scalar]  # {basis index: nonzero coordinate}


def _derivation_entries(d: TriangularDerivation) -> dict:
    """{(coordinate index, exponents): coefficient} over d's nonzero terms."""
    return {(i, key): coeff
            for i, g in enumerate(d.coeffs, start=1) for key, coeff in g.terms.items()}


class _RowSpace:
    """Fully reduced sparse rows, each pivoting on its least key."""

    def __init__(self):
        # keys: (coordinate index, exponents) or basis indices
        self.rows: list[dict] = []   # {key: nonzero value}, sorted by pivot
        self.pivots: list = []   # each row's pivot: its least key

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """A reduced copy of vec: empty exactly when vec lies in the span."""
        vec = dict(vec)
        for pivot, row in zip(self.pivots, self.rows):
            factor = vec.get(pivot)
            if factor:
                _add_into(vec, row, -factor)
        return vec

    def add(self, vec: dict) -> bool:
        """Insert vec if independent; True iff the rank grew."""
        vec = self.reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        inv = scalar_inverse(vec[pivot])
        vec = {key: as_scalar(v * inv) for key, v in vec.items()}
        for row in self.rows:
            factor = row.get(pivot)
            if factor:
                _add_into(row, vec, -factor)
        at = bisect(self.pivots, pivot)
        self.rows.insert(at, vec)
        self.pivots.insert(at, pivot)
        return True


class LieBasis:
    """A bracket-closed, linearly independent set of triangular derivations.

    `elements` are canonical representatives, one per reduced row of the
    row space that `lie_closure` built; membership is tested against that
    same row space.
    """

    def __init__(self, n: int, space: _RowSpace):
        self.n = n
        self.elements = []
        for row in space.rows:
            coeff_terms: list[dict] = [dict() for _ in range(n)]
            for (i, key), value in row.items():
                coeff_terms[i - 1][key] = value
            self.elements.append(TriangularDerivation(n, [Polynomial(t, n) for t in coeff_terms]))
        self._space = space

    @property
    def dimension(self) -> int:
        return len(self.elements)

    def contains(self, d: TriangularDerivation) -> bool:
        """True iff d lies in the rational span of the basis."""
        if d.n != self.n:
            raise ValueError(f"dimension mismatch: {d.n} vs {self.n}")
        return not self._space.reduce(_derivation_entries(d))

    @cached_property
    def structure_constants(self) -> dict[tuple[int, int], Coordinates]:
        """{(i, j): {k: c_ij^k}} for each ordered pair of 0-based indices
        into `elements` with a nonzero bracket.  PropertyViolation if a
        bracket leaves the span (the basis is not bracket-closed)."""
        space = self._space
        constants: dict[tuple[int, int], Coordinates] = {}
        for i, j in combinations(range(self.dimension), 2):
            vec = _derivation_entries(bracket(self.elements[i], self.elements[j]))
            if space.reduce(vec):
                raise PropertyViolation(
                    f"[e{i + 1}, e{j + 1}] lies outside the span; the basis is not bracket-closed")
            coords = {k: vec[p] for k, p in enumerate(space.pivots) if p in vec}
            if coords:
                constants[i, j] = coords
                constants[j, i] = {k: -v for k, v in coords.items()}
        return constants

    def __repr__(self) -> str:
        return f"LieBasis(n={self.n}, dimension={self.dimension})"


def lie_closure(generators: Sequence[TriangularDerivation]) -> LieBasis:
    """Smallest bracket-closed rational subspace containing the generators.

    Left-normed saturation: round 1 brackets each pair of independent
    generators, and round r > 1 brackets each of them with each element
    round r - 1 added, so round r adds left-normed brackets of length
    r + 1; an element [s, y] with y dependent on earlier rounds is already
    spanned.  Rounds are capped by max_i w_i over the generators' weights
    (see `derivations._weights`): a bracket of length L lowers weighted
    degree by at least L and a nonzero derivation by at most max_i w_i.
    Valid input never exceeds it.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("lie_closure needs at least one generator")
    n = generators[0].n
    for d in generators:
        if d.n != n:
            raise ValueError(f"dimension mismatch: {d.n} vs {n}")
    cap = max(_weights(generators, n))
    space = _RowSpace()
    gens = [d for d in generators if space.add(_derivation_entries(d))]
    pairs = combinations(gens, 2)
    for _ in range(cap):
        new = [c for a, b in pairs
               if space.add(_derivation_entries(c := bracket(a, b)))]
        if not new:
            return LieBasis(n, space)
        pairs = product(gens, new)
    raise CapExceededError(
        f"bracket closure still growing after {cap} rounds "
        f"(dimension {space.dimension})")


def _coordinate_bracket(u: Coordinates, v: Coordinates,
                        constants: dict[tuple[int, int], Coordinates]) -> Coordinates:
    """[u, v] of two coordinate vectors, bilinear in the structure constants."""
    out: Coordinates = {}
    for i, a in u.items():
        for j, b in v.items():
            c = constants.get((i, j))
            if c:
                _add_into(out, c, a * b)
    return out


def _series(basis: LieBasis, left_full: bool) -> list[int]:
    constants = basis.structure_constants
    full = [{k: 1} for k in range(basis.dimension)]
    dims = [basis.dimension]
    current = full
    while dims[-1] > 0:
        space = _RowSpace()
        for a, b in product(full, current) if left_full else combinations(current, 2):
            if c := _coordinate_bracket(a, b, constants):
                space.add(c)
        dim = space.dimension
        if dim >= dims[-1]:
            name = "lower central" if left_full else "derived"
            raise PropertyViolation(
                f"{name} series stalled at dimension {dim}; "
                "the closed algebra is not nilpotent")
        dims.append(dim)
        current = space.rows
    return dims


def lower_central_series(basis: LieBasis) -> list[int]:
    """Dimensions of L, [L, L], [L, [L, L]], ..., ending at 0.

    The length minus one is the nilpotency class.  A stall above zero
    would falsify nilpotency for a bracket-closed triangular basis and
    raises PropertyViolation.
    """
    return _series(basis, left_full=True)


def derived_series(basis: LieBasis) -> list[int]:
    """Dimensions of L, [L, L], [[L, L], [L, L]], ..., ending at 0."""
    return _series(basis, left_full=False)


def nilpotency_class(basis: LieBasis) -> int:
    return len(lower_central_series(basis)) - 1


def closure_report(basis: LieBasis) -> dict:
    """JSON-ready summary: dimension, basis texts, both series, class."""
    lcs = lower_central_series(basis)
    return {
        "dimension": basis.dimension,
        "basis": [d.to_text() for d in basis.elements],
        "lower_central_series": lcs,
        "derived_series": derived_series(basis),
        "nilpotency_class": len(lcs) - 1,
    }
