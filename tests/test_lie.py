from fractions import Fraction
from random import Random

import pytest

from triaut.derivations import bracket, make_derivation, random_triangular_derivation
from triaut import lie
from triaut.errors import CapExceededError, PropertyViolation
from triaut.lie import (
    LieBasis,
    _derivation_entries,
    _RowSpace,
    derived_series,
    closure_report,
    lie_closure,
    lower_central_series,
    nilpotency_class,
)
from triaut.polynomials import Polynomial

from helpers import reference_series

x1 = Polynomial.variable(1, 2)


# -- independent oracle ---------------------------------------------------
#
# Brute-force saturation with its own rank computation: collect coefficient
# vectors over the union of all monomials seen, run fraction Gaussian
# elimination from scratch each round, and bracket *every* pair of the
# current spanning list.  Slow but independent of the production closure.

def _oracle_rank(vectors):
    rows = [list(map(Fraction, v)) for v in vectors if any(v)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / pivot
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _oracle_vectors(derivations):
    keys = sorted({(i, key)
                   for d in derivations
                   for i, g in enumerate(d.coeffs, start=1)
                   for key in g.terms})
    index = {key: pos for pos, key in enumerate(keys)}
    vectors = []
    for d in derivations:
        vec = [0] * len(keys)
        for i, g in enumerate(d.coeffs, start=1):
            for key, coeff in g.terms.items():
                vec[index[(i, key)]] = coeff
        vectors.append(vec)
    return vectors


def oracle_closure_dimension(generators, max_rounds=30):
    spanning = [d for d in generators if not d.is_zero()]
    rank = _oracle_rank(_oracle_vectors(spanning)) if spanning else 0
    for _ in range(max_rounds):
        brackets = [bracket(a, b) for a in spanning for b in spanning]
        candidates = spanning + [c for c in brackets if not c.is_zero()]
        new_rank = _oracle_rank(_oracle_vectors(candidates))
        if new_rank == rank:
            return rank
        spanning = candidates
        rank = new_rank
    raise AssertionError("oracle did not stabilize")


# -- frozen examples -------------------------------------------------------

def heisenberg():
    return [make_derivation(2, [1, 0]), make_derivation(2, [0, x1])]


def test_heisenberg_closure_dimension_three():
    basis = lie_closure(heisenberg())
    assert basis.dimension == 3
    assert oracle_closure_dimension(heisenberg()) == 3


def test_single_generator_closure():
    basis = lie_closure([make_derivation(2, [1, 0])])
    assert basis.dimension == 1
    assert lower_central_series(basis) == [1, 0]


def test_quadratic_shear_closure_dimension_four():
    gens = [make_derivation(2, [1, 0]), make_derivation(2, [0, x1 ** 2])]
    basis = lie_closure(gens)
    assert basis.dimension == 4
    assert oracle_closure_dimension(gens) == 4


def test_heisenberg_series():
    basis = lie_closure(heisenberg())
    assert lower_central_series(basis) == [3, 1, 0]
    assert derived_series(basis) == [3, 1, 0]
    assert nilpotency_class(basis) == 2


def test_abelian_pair_series():
    gens = [make_derivation(2, [1, 0]), make_derivation(2, [0, 1])]
    basis = lie_closure(gens)
    assert basis.dimension == 2
    assert lower_central_series(basis) == [2, 0]
    assert derived_series(basis) == [2, 0]


def test_derived_series_of_the_dimension_four_example():
    gens = [make_derivation(2, [1, 0]), make_derivation(2, [0, x1 ** 2])]
    basis = lie_closure(gens)
    lcs = lower_central_series(basis)
    ds = derived_series(basis)
    assert lcs[0] == 4 and lcs[-1] == 0
    assert all(a > b for a, b in zip(lcs, lcs[1:]))
    assert ds[0] == 4 and ds[-1] == 0
    # derived series falls at least as fast as the lower central series
    assert len(ds) <= len(lcs)


# -- closure invariants -----------------------------------------------------

def test_closure_is_bracket_closed_and_contains_generators():
    rng = Random(400)
    for _ in range(15):
        n = rng.randint(2, 4)
        gens = [random_triangular_derivation(n, 2, rng=rng, density=0.3)
                for _ in range(rng.randint(1, 3))]
        basis = lie_closure(gens)
        for g in gens:
            assert basis.contains(g)
        for a in basis.elements:
            for b in basis.elements:
                assert basis.contains(bracket(a, b))


def test_closure_is_idempotent():
    rng = Random(401)
    for _ in range(10):
        n = rng.randint(2, 4)
        gens = [random_triangular_derivation(n, 2, rng=rng, density=0.3)
                for _ in range(2)]
        basis = lie_closure(gens)
        if basis.dimension == 0:
            continue
        # the reduced rows depend only on the span: re-closing reprints them
        assert closure_report(lie_closure(basis.elements)) == closure_report(basis)


def test_dimension_ignores_generator_order_and_scaling():
    # the whole report, basis texts included, is a function of the algebra
    rng = Random(402)
    for _ in range(10):
        n = rng.randint(2, 4)
        gens = [random_triangular_derivation(n, 2, rng=rng, density=0.4)
                for _ in range(3)]
        report = closure_report(lie_closure(gens))
        assert closure_report(lie_closure(list(reversed(gens)))) == report
        scaled = [g * Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
                  for g in gens]
        assert closure_report(lie_closure(scaled)) == report


def test_closure_matches_oracle_on_random_sets():
    rng = Random(403)
    for _ in range(12):
        n = rng.randint(2, 3)
        gens = [random_triangular_derivation(n, 2, rng=rng, density=0.4)
                for _ in range(rng.randint(1, 3))]
        assert lie_closure(gens).dimension == oracle_closure_dimension(gens)


def test_cap_is_enforced(monkeypatch):
    # the round cap is max_i w_i; weights below the true ones make it unreachable
    gens = [make_derivation(2, [1, 0]), make_derivation(2, [0, x1 ** 2])]
    monkeypatch.setattr(lie, "_weights", lambda generators, n: [0, 0])
    with pytest.raises(CapExceededError):
        lie_closure(gens)


def test_default_cap_is_derived_from_the_generators(monkeypatch):
    # w_2 = 1 + 60: the closure {d/dx1, x1^k d/dx2 : k <= 60} needs exactly
    # 61 rounds, more than any guessed constant below it
    gens = [make_derivation(2, [1, 0]), make_derivation(2, [0, x1 ** 60])]
    basis = lie_closure(gens)
    assert basis.dimension == 62
    assert all(basis.contains(make_derivation(2, [0, x1 ** k])) for k in range(61))
    monkeypatch.setattr(lie, "_weights", lambda generators, n: [1, 60])
    with pytest.raises(CapExceededError):
        lie_closure(gens)


def test_closure_requires_generators_and_common_dimension():
    with pytest.raises(ValueError):
        lie_closure([])
    with pytest.raises(ValueError):
        lie_closure([make_derivation(2, [1, 0]), make_derivation(3, [1, 0, 0])])


# -- structure constants and series -------------------------------------------

def span_basis(derivations):
    """A LieBasis over the span of the derivations, closed or not."""
    space = _RowSpace()
    for d in derivations:
        space.add(_derivation_entries(d))
    return LieBasis(derivations[0].n, space)


def random_closures(seed, count):
    rng = Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        yield lie_closure([random_triangular_derivation(n, 2, rng=rng, density=0.3)
                           for _ in range(rng.randint(1, 3))])


def test_series_agree_with_the_polynomial_bracket_reference():
    for basis in random_closures(405, 100):
        assert lower_central_series(basis) == reference_series(basis, left_full=True)
        assert derived_series(basis) == reference_series(basis, left_full=False)


def test_structure_constants_rebuild_every_bracket():
    for basis in random_closures(406, 20):
        e, c = basis.elements, basis.structure_constants
        for i, a in enumerate(e):
            for j, b in enumerate(e):
                combination = make_derivation(basis.n, [0] * basis.n)
                for k, value in c.get((i, j), {}).items():
                    combination = combination + e[k] * value
                assert bracket(a, b) == combination


def test_series_of_a_basis_that_is_not_bracket_closed_raise():
    # [d/dx1, x1 d/dx2] = d/dx2 has a key the span never saw;
    # [d/dx1, (x1 + 1) d/dx2] = d/dx2 has only seen keys but is not in the span
    for coeff in (x1, x1 + 1):
        basis = span_basis([make_derivation(2, [1, 0]), make_derivation(2, [0, coeff])])
        with pytest.raises(PropertyViolation):
            lower_central_series(basis)
        with pytest.raises(PropertyViolation):
            derived_series(basis)


def test_contains_rejects_vectors_outside_the_frame_or_the_span():
    basis = span_basis([make_derivation(2, [1, 0]), make_derivation(2, [0, x1 + 1])])
    assert basis.contains(make_derivation(2, [2, 2 * x1 + 2]))
    assert basis.contains(make_derivation(2, [0, 0]))
    assert not basis.contains(make_derivation(2, [0, x1 ** 2]))   # a key the span never saw
    assert not basis.contains(make_derivation(2, [0, x1]))        # seen keys, not the span
    assert not basis.contains(make_derivation(2, [1, 1]))
    with pytest.raises(ValueError):
        basis.contains(make_derivation(3, [1, 0, 0]))


# -- report --------------------------------------------------------------------

def test_closure_report_shape():
    report = closure_report(lie_closure(heisenberg()))
    assert report["dimension"] == 3
    assert report["nilpotency_class"] == 2
    assert report["lower_central_series"] == [3, 1, 0]
    assert report["derived_series"] == [3, 1, 0]
    assert len(report["basis"]) == 3
    assert all(text.startswith("n=2\n") for text in report["basis"])


def test_closure_report_basis_texts_are_pinned():
    # the reduced rows sorted by pivot, the least key of each in the natural
    # order of (coordinate index, exponents), each normalised at its pivot;
    # any change to the key order or the elimination shows here
    shear = [make_derivation(2, [1, 0]), make_derivation(2, [0, x1 ** 2])]
    assert closure_report(lie_closure(shear))["basis"] == [
        "n=2\ndx1 <- 1\ndx2 <- 0\n",
        "n=2\ndx1 <- 0\ndx2 <- 1\n",
        "n=2\ndx1 <- 0\ndx2 <- x1\n",
        "n=2\ndx1 <- 0\ndx2 <- x1^2\n",
    ]
    rng = Random(18)
    gens = [random_triangular_derivation(4, 2, rng=rng, density=0.3) for _ in range(3)]
    zero = "n=4\ndx1 <- 0\ndx2 <- 0\ndx3 <- 0\n"
    assert closure_report(lie_closure(gens))["basis"] == [
        "n=4\ndx1 <- 1\ndx2 <- x1\ndx3 <- 1/2*x2 - 1/2*x1*x2\ndx4 <- 1/2*x1*x3 + x2*x3 - 2/15*x1^3\n",
        "n=4\ndx1 <- 0\ndx2 <- 1\ndx3 <- -2*x2\ndx4 <- -2*x1*x3\n",
        "n=4\ndx1 <- 0\ndx2 <- 0\ndx3 <- 1\ndx4 <- 2/15*x1^3\n",
        "n=4\ndx1 <- 0\ndx2 <- 0\ndx3 <- x1\ndx4 <- -1/15*x1^3\n",
        zero + "dx4 <- 1\n",
        zero + "dx4 <- x3 - 2/3*x2^2 + 1/90*x1^3 - 1/3*x1^2*x2\n",
        zero + "dx4 <- x2\n",
        zero + "dx4 <- x1\n",
        zero + "dx4 <- x1*x2 + 2/15*x1^3\n",
        zero + "dx4 <- x1^2\n",
    ]
