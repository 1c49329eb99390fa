"""Exact linear algebra on derivation coefficients and bracket closure.

Derivations are vectorized against a *frame*: an ordered list of
(coordinate index, monomial) pairs covering every coefficient monomial
seen so far.  The frame grows lazily as bracket results introduce new
monomials; no a-priori degree bound is assumed.  All elimination is
fraction-exact Gaussian elimination, so ranks and dimensions are never
approximate.

`lie_closure` saturates a generator set under the bracket.  For
triangular generators the loop provably terminates (the generated Lie
algebra is finite-dimensional and nilpotent); the round cap converts a
violation of that guarantee into a diagnosable error instead of a hang.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .derivations import TriangularDerivation, bracket
from .errors import CapExceededError, PropertyViolation
from .polynomials import Polynomial, Scalar, as_scalar, _strip

FrameKey = tuple[int, tuple[int, ...]]  # (coordinate index, stripped exponents)


def _derivation_entries(d: TriangularDerivation):
    for i, g in enumerate(d.coeffs, start=1):
        for key, coeff in g.terms.items():
            yield (i, _strip(key)), coeff


def vectorize(d: TriangularDerivation, frame: Sequence[FrameKey]) -> list[Scalar]:
    """Coordinates of d in the given frame.

    Raises ValueError if some coefficient monomial of d lies outside the
    frame (the frame must be grown before the call).
    """
    index = {key: pos for pos, key in enumerate(frame)}
    vec: list[Scalar] = [0] * len(frame)
    for key, coeff in _derivation_entries(d):
        pos = index.get(key)
        if pos is None:
            raise ValueError(f"frame incomplete: no column for {key}")
        vec[pos] = coeff
    return vec


class _RowSpace:
    """Growable frame plus a row-reduced basis of vectors over it."""

    def __init__(self):
        self.frame: list[FrameKey] = []
        self.index: dict[FrameKey, int] = {}
        self.rows: list[list[Scalar]] = []   # reduced, sorted by pivot column
        self.pivots: list[int] = []

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def _column(self, key: FrameKey) -> int:
        pos = self.index.get(key)
        if pos is None:
            pos = len(self.frame)
            self.frame.append(key)
            self.index[key] = pos
            for row in self.rows:
                row.append(0)
        return pos

    def _vector(self, d: TriangularDerivation) -> list[Scalar]:
        entries = [(self._column(key), coeff) for key, coeff in _derivation_entries(d)]
        vec: list[Scalar] = [0] * len(self.frame)
        for pos, coeff in entries:
            vec[pos] = coeff
        return vec

    def reduce(self, vec: list[Scalar]) -> list[Scalar]:
        vec = vec + [0] * (len(self.frame) - len(vec))
        for pivot, row in zip(self.pivots, self.rows):
            factor = vec[pivot]
            if factor:
                for j in range(len(vec)):
                    if row[j]:
                        vec[j] = vec[j] - factor * row[j]
        return vec

    def contains(self, d: TriangularDerivation) -> bool:
        try:
            vec = vectorize(d, self.frame)
        except ValueError:
            return False
        return not any(self.reduce(vec))

    def add(self, d: TriangularDerivation) -> bool:
        """Insert d's vector if independent; True iff the rank grew."""
        vec = self.reduce(self._vector(d))
        pivot = next((j for j, v in enumerate(vec) if v), None)
        if pivot is None:
            return False
        inv = Fraction(1, 1) / Fraction(vec[pivot])
        vec = [as_scalar(Fraction(v) * inv) if v else 0 for v in vec]
        for row in self.rows:
            factor = row[pivot]
            if factor:
                for j in range(len(vec)):
                    if vec[j]:
                        row[j] = row[j] - factor * vec[j]
        at = next((k for k, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, vec)
        self.pivots.insert(at, pivot)
        return True

    def derivations(self, n: int) -> list[TriangularDerivation]:
        """Rebuild one derivation per reduced row (a canonical basis)."""
        out = []
        for row in self.rows:
            coeff_terms: list[dict] = [dict() for _ in range(n)]
            for pos, value in enumerate(row):
                if value:
                    i, key = self.frame[pos]
                    coeff_terms[i - 1][key + (0,) * (n - len(key))] = value
            out.append(TriangularDerivation(
                n, [Polynomial._raw(t, n) for t in coeff_terms]))
        return out


class LieBasis:
    """A bracket-closed, linearly independent set of triangular derivations.

    `elements` are canonical representatives, one per reduced row of the
    row space that `lie_closure` built; membership is tested against that
    same row space.
    """

    def __init__(self, n: int, space: _RowSpace):
        self.n = n
        self.elements = space.derivations(n)
        self._space = space

    @property
    def dimension(self) -> int:
        return len(self.elements)

    def contains(self, d: TriangularDerivation) -> bool:
        """True iff d lies in the rational span of the basis."""
        return self._space.contains(d)

    def __repr__(self) -> str:
        return f"LieBasis(n={self.n}, dimension={self.dimension})"


def _span(derivations: Sequence[TriangularDerivation]) -> _RowSpace:
    space = _RowSpace()
    for d in derivations:
        if not d.is_zero():
            space.add(d)
    return space


def lie_closure(generators: Sequence[TriangularDerivation], cap: int = 50) -> LieBasis:
    """Smallest bracket-closed rational subspace containing the generators.

    Worklist saturation: each round brackets (new, old) and (new, new)
    pairs and inserts the independent results.  Rounds are capped; for
    valid triangular inputs the cap is unreachable.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("lie_closure needs at least one generator")
    n = generators[0].n
    for d in generators:
        if d.n != n:
            raise ValueError(f"dimension mismatch: {d.n} vs {n}")
    space = _RowSpace()
    new = [d for d in generators if space.add(d)]
    old: list[TriangularDerivation] = []
    rounds = 0
    while new:
        rounds += 1
        if rounds > cap:
            raise CapExceededError(
                f"bracket closure still growing after {cap} rounds "
                f"(dimension {space.dimension})")
        batch = []
        for a in new:
            for b in old:
                c = bracket(a, b)
                if not c.is_zero() and space.add(c):
                    batch.append(c)
        for ai in range(len(new)):
            for bi in range(ai + 1, len(new)):
                c = bracket(new[ai], new[bi])
                if not c.is_zero() and space.add(c):
                    batch.append(c)
        old.extend(new)
        new = batch
    return LieBasis(n, space)


def _series(basis: LieBasis, left_full: bool) -> list[int]:
    dims = [basis.dimension]
    current = basis.elements
    while dims[-1] > 0:
        left = basis.elements if left_full else current
        nxt = _span([bracket(a, b) for a in left for b in current])
        dim = nxt.dimension
        if dim >= dims[-1]:
            name = "lower central" if left_full else "derived"
            raise PropertyViolation(
                f"{name} series stalled at dimension {dim}; "
                "the closed algebra is not nilpotent")
        dims.append(dim)
        current = nxt.derivations(basis.n)
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
