from fractions import Fraction
from random import Random

import pytest

from triaut import derivations
from triaut.automorphisms import compose, identity, invert, make, random_triangular
from triaut.derivations import (
    bracket,
    exponential,
    make_derivation,
    nilpotency_index,
    random_triangular_derivation,
)
from triaut.errors import CapExceededError, TriangularityError
from triaut.harness import _EXP_SCALARS
from triaut.polynomials import Polynomial

from helpers import random_polynomial, to_sympy

x1 = Polynomial.variable(1, 2)
x2 = Polynomial.variable(2, 2)


def random_derivation(rng, n=None, deg=2, **kw):
    if n is None:
        n = rng.randint(1, 4)
    return random_triangular_derivation(n, deg, rng=rng, **kw)


def apply_operator_twice(d1, d2, p):
    # D1 D2 - D2 D1 as operators, the oracle for the bracket coefficients
    return d1.apply(d2.apply(p)) - d2.apply(d1.apply(p))


# -- construction and application ---------------------------------------

def test_make_derivation_examples():
    assert make_derivation(2, [1, 0]).coeffs[0] == Polynomial.one(2)
    assert make_derivation(2, [0, x1]).coeffs[1] == x1
    with pytest.raises(TriangularityError):
        make_derivation(2, [0, x2])
    with pytest.raises(TriangularityError):
        make_derivation(2, [x1, 0])


def test_apply_examples():
    d = make_derivation(2, [0, x1])
    assert d.apply(x2 ** 2) == 2 * x1 * x2
    assert d.apply(Polynomial.one(2)) == Polynomial.zero(2)
    assert make_derivation(1, [1]).apply(Polynomial.variable(1) ** 4) == \
        4 * Polynomial.variable(1) ** 3


def test_apply_satisfies_leibniz():
    rng = Random(300)
    for _ in range(50):
        n = rng.randint(1, 3)
        d = random_derivation(rng, n=n)
        p = random_polynomial(rng, n, 3)
        q = random_polynomial(rng, n, 3)
        assert d.apply(p * q) == p * d.apply(q) + q * d.apply(p)


# -- bracket --------------------------------------------------------------

def test_bracket_frozen_examples():
    ddx1 = make_derivation(2, [1, 0])
    assert bracket(ddx1, make_derivation(2, [0, x1])) == make_derivation(2, [0, 1])
    assert bracket(ddx1, make_derivation(2, [0, x1 ** 2])) == make_derivation(2, [0, 2 * x1])
    d = make_derivation(2, [1, x1])
    assert bracket(d, d).is_zero()


def test_bracket_agrees_with_operator_commutator():
    rng = Random(301)
    for _ in range(40):
        n = rng.randint(1, 3)
        d1 = random_derivation(rng, n=n)
        d2 = random_derivation(rng, n=n)
        c = bracket(d1, d2)
        for i in range(1, n + 1):
            xi = Polynomial.variable(i, n)
            assert c.apply(xi) == apply_operator_twice(d1, d2, xi)
        p = random_polynomial(rng, n, 2)
        assert c.apply(p) == apply_operator_twice(d1, d2, p)


def test_bracket_is_bilinear_and_antisymmetric():
    rng = Random(302)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = random_derivation(rng, n=n)
        b = random_derivation(rng, n=n)
        c = random_derivation(rng, n=n)
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert bracket(a, b) == -bracket(b, a)
        assert bracket(a + b, c) == bracket(a, c) + bracket(b, c)
        assert bracket(a * s, b) == bracket(a, b) * s


def test_bracket_satisfies_jacobi():
    rng = Random(303)
    for _ in range(30):
        n = rng.randint(1, 3)
        a = random_derivation(rng, n=n)
        b = random_derivation(rng, n=n)
        c = random_derivation(rng, n=n)
        total = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                 + bracket(c, bracket(a, b)))
        assert total.is_zero()


def test_bracket_output_is_triangular():
    # constructor validation inside bracket() would raise if not
    rng = Random(304)
    for _ in range(40):
        n = rng.randint(2, 4)
        bracket(random_derivation(rng, n=n), random_derivation(rng, n=n))


# -- nilpotency ------------------------------------------------------------

def test_nilpotency_index_examples():
    d = make_derivation(2, [0, x1])
    assert nilpotency_index(d, x2) == 2
    assert nilpotency_index(d, Polynomial.one(2)) == 1
    assert nilpotency_index(make_derivation(1, [1]), Polynomial.variable(1) ** 3) == 4
    assert nilpotency_index(d, Polynomial.zero(2)) == 0


def test_nilpotency_index_is_bounded_by_the_weighted_degree_not_a_constant():
    # w_2 = 10002, so D^k(x2) = 0 exactly from k = wdeg(x2) + 1 = 10003 on
    assert nilpotency_index(make_derivation(2, [1, x1 ** 10001]), x2) == 10003


def test_nilpotency_index_is_exact():
    rng = Random(305)
    for _ in range(25):
        n = rng.randint(1, 3)
        d = random_derivation(rng, n=n)
        p = random_polynomial(rng, n, 2)
        k = nilpotency_index(d, p)
        q = p
        for _ in range(k):
            q = d.apply(q)
        assert not q
        if k:
            q = p
            for _ in range(k - 1):
                q = d.apply(q)
            assert q


def test_apply_differentiates_only_up_to_the_top_variable(monkeypatch):
    # dp/dx_i is 0 above p's top variable, so neither that partial nor the
    # product g_i * dp/dx_i is taken
    seen = []
    calls = []
    partial = derivations._partial
    product = derivations._product

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(derivations, "_partial", lambda num, i: seen.append(i) or partial(num, i))
    monkeypatch.setattr(derivations, "_product", counted)
    x = [Polynomial.variable(i, 3) for i in (1, 2, 3)]
    d = make_derivation(3, [1, x[0], x[1]])
    assert d.apply(x[0] ** 2) == 2 * x[0]
    assert seen == [1]
    assert [ta for ta, _, _ in calls] == [d.coeffs[0]._num]
    assert d.apply(x[1] * x[0]) == x[1] + x[0] ** 2
    assert seen == [1, 1, 2]
    assert [ta for ta, _, _ in calls] == [d.coeffs[0]._num, d.coeffs[0]._num, d.coeffs[1]._num]


def test_trusted_outputs_pass_the_validating_constructors():
    # random_triangular, random_triangular_derivation and bracket skip the
    # shape check; what they build must be what the check accepts
    rng = Random(24)
    for n in range(1, 6):
        for m in range(1, 4):
            phi = random_triangular(n, m, rng=rng)
            assert make(n, phi.lambdas, phi.tails) == phi
            assert all(type(lam) is int for lam in phi.lambdas)
            d1, d2 = (random_triangular_derivation(n, m, rng=rng) for _ in range(2))
            for d in (d1, d2, bracket(d1, d2)):
                assert make_derivation(n, d.coeffs) == d
                assert type(d.coeffs) is tuple
                assert all(g.nvars == n for g in d.coeffs)
            assert all(h.nvars == n for h in phi.tails)


def test_the_weighted_cap_is_enforced(monkeypatch):
    # D = d/dx1 + x1^2 d/dx2 has w = [1, 3]; one less on w_2 makes both the
    # nilpotency index of x2 (4) and the series of coordinate 2 outrun it
    d = make_derivation(2, [1, x1 ** 2])
    assert nilpotency_index(d, x2) == 4
    monkeypatch.setattr(derivations, "_weights", lambda ds, n: [1, 2])
    with pytest.raises(CapExceededError):
        nilpotency_index(d, x2)
    with pytest.raises(CapExceededError):
        exponential(d, 1)


# -- exponentials -----------------------------------------------------------

def test_exponential_examples():
    d = make_derivation(2, [0, x1])
    e = exponential(d, 1)
    assert e.coordinate(1) == x1
    assert e.coordinate(2) == x2 + x1
    assert exponential(d, 0) == identity(2)
    translation = exponential(make_derivation(3, [1, 0, 0]), Fraction(5, 3))
    assert translation.coordinate(1) == Polynomial.variable(1, 3) + Fraction(5, 3)
    assert translation.coordinate(2) == Polynomial.variable(2, 3)


def test_exponential_series_has_exact_factorials():
    d = make_derivation(2, [1, x1 ** 2])
    e = exponential(d, 1)
    # x2 image: x2 + integral-like series x1^2 + x1 + 1/3
    assert e.coordinate(2) == x2 + x1 ** 2 + x1 + Fraction(1, 3)


def test_one_parameter_group_law():
    rng = Random(306)
    for _ in range(30):
        n = rng.randint(1, 3)
        d = random_derivation(rng, n=n)
        s = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert compose(exponential(d, s), exponential(d, t)) == exponential(d, s + t)
        assert invert(exponential(d, s)) == exponential(d, -s)


def test_exponential_runs_the_whole_weighted_series():
    # D = d/dx1 + x1^5 d/dx2 has w_2 = 6: D^k(x2) is nonzero up to k = 6,
    # and exp(sD)(x2) = x2 + ((x1 + s)^6 - x1^6) / 6
    d = make_derivation(2, [1, x1 ** 5])
    for s in (1, Fraction(-2, 3)):
        assert exponential(d, s).tails[1] == ((x1 + s) ** 6 - x1 ** 6) / 6


def test_exponential_is_always_unitriangular():
    rng = Random(307)
    for _ in range(40):
        d = random_derivation(rng)
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert exponential(d, s).is_unitriangular()


def test_commuting_derivations_have_commuting_flows():
    rng = Random(308)
    for _ in range(20):
        # disjoint variable blocks commute by construction
        g1 = random_polynomial(rng, 1, 2)
        g2 = random_polynomial(rng, 3, 2)
        d = make_derivation(4, [0, g1.promoted(4), 0, 0])
        e = make_derivation(4, [0, 0, 0, g2.promoted(4)])
        if bracket(d, e).is_zero():
            s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            t = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert compose(exponential(d, s), exponential(e, t)) == \
                compose(exponential(e, t), exponential(d, s))


def test_exponential_acts_by_the_truncated_series():
    # substituting into exp(sD) equals sum_k s^k D^k(p) / k!
    rng = Random(309)
    for _ in range(25):
        n = rng.randint(1, 3)
        d = random_derivation(rng, n=n)
        p = random_polynomial(rng, n, 2)
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        e = exponential(d, s)
        via_substitution = p.substitute(e.coordinates())
        series = Polynomial.zero(n)
        term = p
        k = 0
        factorial = 1
        s_power = Fraction(1)
        while term:
            series = series + term * (s_power / factorial)
            term = d.apply(term)
            k += 1
            factorial *= k
            s_power *= s
        assert via_substitution == series


def test_exponential_is_the_series_of_applied_iterates_at_every_harness_scalar():
    # exp(sD)(x_i) = sum_k s^k / k! * D^k(x_i), D^k by `apply` alone
    rng = Random(311)
    for _ in range(12):
        n = rng.randint(1, 4)
        d = random_derivation(rng, n=n, deg=rng.randint(0, 3))
        for s in _EXP_SCALARS:
            e = exponential(d, s)
            for i in range(1, n + 1):
                series, term, k, coefficient = Polynomial.zero(n), Polynomial.variable(i, n), 0, 1
                while term:
                    series = series + term * coefficient
                    k += 1
                    term, coefficient = d.apply(term), coefficient * Fraction(s) / k
                assert e.coordinate(i) == series
                assert str(e.coordinate(i)) == str(series)


# -- differential tests against sympy -------------------------------------------

def _fraction_derivation(rng: Random, n: int):
    """Seeded triangular derivation whose coefficients include fractions."""
    degree = rng.randint(1, 2)
    return make_derivation(
        n, [random_polynomial(rng, i, degree, density=0.4).promoted(n) for i in range(n)])


def _vector_field(sympy, d, gens):
    return [to_sympy(sympy, g, gens) for g in d.coeffs]


def test_bracket_matches_sympy_vector_field_commutator():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x1:5")
    rng = Random(310)
    for _ in range(30):
        n = rng.randint(1, 4)
        d1, d2 = _fraction_derivation(rng, n), _fraction_derivation(rng, n)
        v1, v2 = _vector_field(sympy, d1, gens), _vector_field(sympy, d2, gens)
        for ours, f1, f2 in zip(_vector_field(sympy, bracket(d1, d2), gens), v1, v2):
            expected = sum(a * sympy.diff(f2, g) - b * sympy.diff(f1, g)
                           for a, b, g in zip(v1, v2, gens))
            assert sympy.expand(ours - expected) == 0


def test_exponential_matches_sympy_flow_series():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x1:5")
    s = sympy.Symbol("s")
    rng = Random(311)
    for _ in range(20):
        n = rng.randint(1, 4)
        d = _fraction_derivation(rng, n)
        field = _vector_field(sympy, d, gens)
        flow = []
        for g in gens[:n]:
            # sum_k s^k/k! L^k(x_i) for the vector field L, until L^k(x_i) = 0
            series, term, k = 0, g, 0
            while term != 0:
                assert k <= 64, "the vector field is not locally nilpotent"
                series += s ** k / sympy.factorial(k) * term
                term = sympy.expand(sum(f * sympy.diff(term, x) for f, x in zip(field, gens)))
                k += 1
            flow.append(sympy.expand(series))
        # the series is the flow of the field: d/ds phi_s = L o phi_s
        at_flow = dict(zip(gens, flow))
        for phi_i, f in zip(flow, field):
            assert sympy.expand(sympy.diff(phi_i, s) - f.subs(at_flow, simultaneous=True)) == 0
        for _ in range(2):
            t = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            at_t = {s: sympy.Rational(t.numerator, t.denominator)}
            for ours, phi_i in zip(exponential(d, t).coordinates(), flow):
                assert sympy.expand(to_sympy(sympy, ours, gens) - phi_i.subs(at_t)) == 0


@pytest.mark.parametrize("bad", [2.0, True, Fraction(2), "2"])
def test_random_triangular_derivation_checks_dimension_and_degree_first(bad):
    with pytest.raises(TypeError, match="^ambient dimension must be an int, not "):
        random_triangular_derivation(bad, 2, seed=1)
    with pytest.raises(TypeError, match="^degree bound must be an int, not "):
        random_triangular_derivation(2, bad, seed=1)


def test_apply_rejects_a_polynomial_beyond_n():
    d = make_derivation(2, [1, Polynomial.variable(1, 2)])
    with pytest.raises(ValueError, match="mentions x3, beyond n=2"):
        d.apply(Polynomial.variable(3))


def test_sum_and_bracket_need_one_dimension():
    d = make_derivation(2, [1, Polynomial.variable(1, 2)])
    e = make_derivation(3, [1, 0, 0])
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        d + e
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        bracket(d, e)


def test_difference_is_the_sum_with_the_negative_and_equal_derivations_hash_equal():
    rng = Random(41)
    for _ in range(20):
        d = random_derivation(rng, n=3)
        e = random_derivation(rng, n=3)
        assert d - e == d + (-e)
        twin = make_derivation(3, list(d.coeffs))
        assert twin == d and hash(twin) == hash(d)


def test_nilpotency_index_of_a_nonzero_constant_is_one():
    d = make_derivation(2, [1, Polynomial.variable(1, 2)])
    assert nilpotency_index(d, 5) == 1


def test_random_triangular_derivation_is_reproducible():
    assert random_triangular_derivation(3, 2, seed=3) == random_triangular_derivation(3, 2, seed=3)
    with pytest.raises(ValueError, match="need n >= 1"):
        random_triangular_derivation(0, 2, seed=3)
