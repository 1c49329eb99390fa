from fractions import Fraction
from random import Random

import pytest

from triaut import automorphisms
from triaut.automorphisms import (
    commutator,
    compose,
    compose_all,
    elementary_factorization,
    elementary_scaling,
    elementary_shear,
    identity,
    invert,
    make,
    power,
    random_triangular,
    staircase_map,
)
from triaut.errors import TriangularityError
from triaut.harness import degree_fuzz
from triaut.polynomials import Polynomial, monomials_up_to_degree, scalar_inverse

from helpers import (random_polynomial, random_scalar, reference_substitute, to_sympy,
                     wide_rational_polynomial)

x1 = Polynomial.variable(1, 3)
x2 = Polynomial.variable(2, 3)
x3 = Polynomial.variable(3, 3)


def shear_tower():
    return make(3, (1, 1, 1), (0, x1 ** 2, x2 ** 2))


def random_aut(rng, n=None, m=None, **kw):
    if n is None:
        n = rng.randint(1, 4)
    if m is None:
        m = rng.randint(1, 3)
    return random_triangular(n, m, rng=rng, **kw)


# -- construction -------------------------------------------------------

def test_make_accepts_the_shear_tower():
    phi = shear_tower()
    assert phi.degree() == 2
    assert phi.coordinate(2) == x2 + x1 ** 2


def test_make_rejects_tail_on_own_variable():
    with pytest.raises(TriangularityError):
        make(2, (1, 1), (0, Polynomial.variable(2, 2)))


def test_make_rejects_zero_lambda():
    with pytest.raises(TriangularityError):
        make(2, (1, 0), (0, 0))


def test_make_rejects_nonconstant_first_tail():
    with pytest.raises(TriangularityError):
        make(2, (1, 1), (Polynomial.variable(1, 2), 0))


@pytest.mark.parametrize("args, text", [
    ((0, (), ()), "ambient dimension must be at least 1"),
    ((2, (1, 1), (0,)), "expected 2 tails, got 1"),
    ((2, (1,), (0, 0)), "expected 2 scalars, got 1"),
])
def test_make_rejects_wrong_counts(args, text):
    with pytest.raises(TriangularityError, match=f"^{text}$"):
        make(*args)


def test_integral_fraction_lambdas_are_the_ints():
    a = make(2, (Fraction(2, 1), 1), (0, x1.promoted(2)))
    b = make(2, (2, 1), (0, x1.promoted(2)))
    assert a == b and hash(a) == hash(b) and a.lambdas == (2, 1)
    assert type(a.lambdas[0]) is int


def test_make_one_dimensional_affine():
    phi = make(1, (2,), (Fraction(1, 2),))
    assert phi.coordinate(1) == 2 * Polynomial.variable(1) + Fraction(1, 2)
    assert phi.degree() == 1


def test_identity():
    assert identity(1).coordinate(1) == Polynomial.variable(1)
    assert identity(3).coordinates() == [x1, x2, x3]
    assert identity(4).degree() == 1
    assert identity(3).is_identity()


def test_identity_checks_its_dimension():
    with pytest.raises(TriangularityError, match="^ambient dimension must be at least 1$"):
        identity(0)
    for bad in (True, 2.0):
        with pytest.raises(TypeError, match="^ambient dimension must be an int"):
            identity(bad)


# -- composition and inversion -----------------------------------------

def test_squaring_the_shear_tower_reaches_degree_four():
    phi = shear_tower()
    sq = compose(phi, phi)
    assert sq.coordinate(1) == x1
    assert sq.coordinate(2) == x2 + 2 * x1 ** 2
    assert sq.coordinate(3) == x3 + 2 * x2 ** 2 + 2 * x1 ** 2 * x2 + x1 ** 4
    assert sq.degree() == 4
    assert power(phi, 2) == sq


def test_compose_with_identity():
    # the other operand comes back as is, an inverse with its nested form
    rng = Random(223)
    for phi in [shear_tower(), invert(shear_tower())] + [
            invert(_fraction_lambda_map(rng, n, 3)) for n in range(1, 5)]:
        assert compose(identity(phi.n), phi) is phi
        assert compose(phi, identity(phi.n)) is phi


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(identity(2), identity(3))


def test_invert_single_shear():
    phi = make(2, (1, 1), (0, Polynomial.variable(1, 2) ** 2))
    assert invert(phi) == make(2, (1, 1), (0, -Polynomial.variable(1, 2) ** 2))


def test_invert_by_back_substitution_matches_full_composition():
    phi = shear_tower()
    inv = invert(phi)
    assert inv.coordinate(2) == x2 - x1 ** 2
    assert inv.coordinate(3) == x3 - (x2 - x1 ** 2) ** 2
    assert compose(phi, inv) == identity(3)
    assert compose(inv, phi) == identity(3)


def test_invert_linear_solve():
    phi = make(1, (2,), (1,))
    inv = invert(phi)
    assert inv.coordinate(1) == Polynomial.variable(1) / 2 - Fraction(1, 2)
    assert compose(phi, inv) == identity(1)


def test_compose_coordinates_equal_full_substitution():
    rng = Random(206)
    for _ in range(25):
        n = rng.randint(1, 4)
        outer = random_aut(rng, n=n)
        inner = random_aut(rng, n=n)
        result = compose(outer, inner)
        images = inner.coordinates()
        for j in range(1, n + 1):
            assert result.coordinate(j) == outer.coordinate(j).substitute(images)


def _fraction_map_4_3(rng: Random):
    """A (4, 3) map whose lambdas and tail coefficients include fractions."""
    lambdas = [random_scalar(rng) or 1 for _ in range(4)]
    tails = [random_polynomial(rng, i, 3, density=0.4).promoted(4) for i in range(4)]
    return make(4, lambdas, tails)


def test_compose_and_invert_match_term_by_term_substitution():
    """Words of (4, 3) maps and inverses, every step against the oracle."""
    rng = Random(215)
    for _ in range(60):
        pool = [_fraction_map_4_3(rng) for _ in range(3)]
        inverses = {}
        result = identity(4)
        for _ in range(rng.randint(1, 8)):
            idx = rng.randrange(len(pool))
            letter = pool[idx]
            if rng.random() < 0.5:
                if idx not in inverses:
                    # back-substitution, each tail evaluated by the oracle
                    phi = pool[idx]
                    solved = []
                    for i in range(4):
                        images = solved + [Polynomial.zero(4)] * (4 - i)
                        tail = -reference_substitute(phi.tails[i], images) / phi.lambdas[i]
                        solved.append(Polynomial.variable(i + 1, 4) / phi.lambdas[i] + tail)
                    inverses[idx] = invert(phi)
                    assert inverses[idx].coordinates() == solved
                letter = inverses[idx]
            images = result.coordinates()
            result = compose(letter, result)
            assert result.coordinates() == [reference_substitute(f, images)
                                            for f in letter.coordinates()]


def _state(p: Polynomial):
    """Everything of p that an operation could disturb in place."""
    return dict(p._num), p._den, str(p), hash(p)


def test_operations_leave_their_operands_unchanged():
    # constant tails in every position, a nonzero constant first tail,
    # Fraction lambdas (so the scaled addend needs a rescaled result) and
    # integer ones (so it is added into the evaluated tail as is)
    rng = Random(216)
    maps = [make(3, (1, Fraction(1, 2), -1), (Fraction(5, 2), 3, x1 ** 2)),
            make(3, (2, 1, 1), (-1, Fraction(1, 3), Fraction(-7, 4))),
            make(3, (1, 1, 3), (0, x1, 0)),
            shear_tower()]
    maps += [_fraction_map_4_3(rng) for _ in range(3)]
    maps += [random_aut(rng, n=4, m=3, density=0.3) for _ in range(3)]
    polys = [Polynomial.constant(Fraction(3, 2), 3), Polynomial.zero(3),
             Fraction(1, 2) * x1 * x2 - 3 * x3 ** 2 + 1]
    images = [Fraction(-2, 3) * x2, x1 + x3, Polynomial.constant(4, 3)]
    for phi in maps:
        for psi in maps:
            if psi.n != phi.n:
                continue
            before = [_state(p) for p in phi.tails + psi.tails]
            compose(phi, psi)
            assert [_state(p) for p in phi.tails + psi.tails] == before
        before = [_state(p) for p in phi.tails]
        compose(phi, phi)
        invert(phi)
        assert [_state(p) for p in phi.tails] == before
    for p in polys:
        before = [_state(q) for q in [p] + images]
        p.substitute(images)
        assert [_state(q) for q in [p] + images] == before


def test_group_laws_on_random_triples():
    rng = Random(200)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = random_aut(rng, n=n)
        b = random_aut(rng, n=n)
        c = random_aut(rng, n=n)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, identity(n)) == a == compose(identity(n), a)


def test_inverse_round_trip_and_degree_bound():
    rng = Random(201)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        phi = random_aut(rng, n=n, m=m)
        inv = invert(phi)
        assert compose(phi, inv) == identity(n)
        assert compose(inv, phi) == identity(n)
        assert inv.degree() <= m ** (n - 1)


def _fraction_lambda_map(rng: Random, n: int, m: int):
    """An (n, m) map whose lambdas are all non-integral Fractions."""
    lambdas = [Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((2, 3))) for _ in range(n)]
    tails = [random_polynomial(rng, i, m, density=0.4).promoted(n) for i in range(n)]
    return make(n, lambdas, tails)


def test_inverse_from_either_side_of_fraction_lambda_maps():
    rng = Random(220)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        phi = _fraction_lambda_map(rng, n, m)
        inv = invert(phi)
        assert compose(inv, phi) == identity(n)
        assert compose(phi, inv) == identity(n)


def test_compose_through_the_nested_form_equals_the_expanded_inverse():
    rng = Random(221)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        psi = invert(_fraction_lambda_map(rng, n, m))
        expanded = make(n, psi.lambdas, psi.tails)
        assert psi._nested is not None and expanded._nested is None
        # a plain inner map, an inverse (itself carrying a nested form) and
        # a composition of the two
        plain = random_aut(rng, n=n, m=m)
        for inner in (plain, invert(plain), compose(plain, psi)):
            assert compose(psi, inner) == compose(expanded, inner)


def test_the_nested_form_is_invisible():
    rng = Random(222)
    for _ in range(20):
        n = rng.randint(1, 4)
        psi = invert(_fraction_lambda_map(rng, n, rng.randint(1, 3)))
        expanded = make(n, psi.lambdas, psi.tails)
        assert psi == expanded and hash(psi) == hash(expanded)
        assert len({psi, expanded}) == 1
        assert psi.to_text() == expanded.to_text() and repr(psi) == repr(expanded)


def test_composed_lambdas_stay_normalised():
    half = make(1, (Fraction(1, 2),), (0,))
    double = make(1, (2,), (1,))
    for phi in (compose(half, double), compose(double, half), compose(invert(double), double)):
        [lam] = phi.lambdas
        assert lam == 1 and type(lam) is int
    [lam] = invert(half).lambdas
    assert lam == 2 and type(lam) is int


def test_compose_through_an_inverse_overflow_raises():
    # the inverse's nested form -x2^5 is evaluated at the result's own
    # coordinate x2 + x1^30000: x1^150000 must raise, not carry into x2
    psi = invert(make(3, (1, 1, 1), (0, 0, Polynomial.monomial(1, (0, 5), 3))))
    assert psi._nested is not None
    inner = make(3, (1, 1, 1), (0, Polynomial.monomial(1, (30000,), 3), 0))
    with pytest.raises(ValueError):
        compose(psi, inner)


def test_power_equals_k_fold_composition():
    phi = make(3, (2, Fraction(-1, 2), 1), (Fraction(1, 3), x1 ** 2 - 1, x1 * x2))
    product = identity(3)
    for k in range(10):
        assert power(phi, k) == product
        product = compose(product, phi)


def test_power_negative_and_zero():
    phi = shear_tower()
    assert power(phi, 0) == identity(3)
    assert power(phi, -1) == invert(phi)
    assert compose(power(phi, 3), power(phi, -3)) == identity(3)


# -- unitriangularity, prefixes, commutators ----------------------------

def test_shear_tower_is_unitriangular():
    assert shear_tower().is_unitriangular()
    assert not make(1, (2,), (0,)).is_unitriangular()


def test_fixes_prefix():
    assert identity(4).fixes_prefix(4)
    phi = make(2, (2, 1), (0, 0))
    assert phi.fixes_prefix(0)
    assert not phi.fixes_prefix(1)
    with pytest.raises(ValueError):
        phi.fixes_prefix(3)


def test_indices_and_exponents_must_be_ints():
    # True is not 1 and 2.0 is not 2 at any index or exponent of the map API
    phi = shear_tower()
    for bad in (True, False, 1.0, Fraction(1), "1"):
        with pytest.raises(TypeError):
            phi.coordinate(bad)
        with pytest.raises(TypeError):
            phi.fixes_prefix(bad)
        with pytest.raises(TypeError):
            power(phi, bad)
    with pytest.raises(TypeError):
        power(phi, 2.0)
    for i in (0, 4, -1):
        with pytest.raises(ValueError):
            phi.coordinate(i)
    with pytest.raises(ValueError):
        phi.fixes_prefix(-1)


def test_elementary_factors_check_their_index():
    # negative indexing would scale or shear another coordinate
    for n, i in ((3, 0), (3, -1), (2, 3)):
        with pytest.raises(ValueError):
            elementary_scaling(n, i, 2)
    with pytest.raises(ValueError):
        elementary_shear(3, -1, 1, (1, 0, 0))
    with pytest.raises(ValueError):
        elementary_shear(3, 4, 1, (1, 0, 0))
    for bad in (True, 2.0, "2"):
        with pytest.raises(TypeError):
            elementary_scaling(3, bad, 2)
        with pytest.raises(TypeError):
            elementary_shear(3, bad, 1, (1, 0, 0))
    assert elementary_scaling(3, 2, 5).lambdas == (1, 5, 1)
    assert elementary_shear(3, 3, 1, (0, 2, 0)).tails[2] == x2 ** 2


_NOT_INTS = [2.0, True, Fraction(2), "2"]


@pytest.mark.parametrize("bad", _NOT_INTS)
def test_elementary_scaling_checks_its_dimension_first(bad):
    with pytest.raises(TypeError, match="^ambient dimension must be an int, not "):
        elementary_scaling(bad, 1, 2)


@pytest.mark.parametrize("bad", _NOT_INTS)
def test_elementary_shear_checks_its_dimension_first(bad):
    with pytest.raises(TypeError, match="^ambient dimension must be an int, not "):
        elementary_shear(bad, 2, 1, (1, 0))


@pytest.mark.parametrize("bad", _NOT_INTS)
def test_random_triangular_checks_dimension_and_degree_first(bad):
    with pytest.raises(TypeError, match="^ambient dimension must be an int, not "):
        random_triangular(bad, 2, seed=1)
    with pytest.raises(TypeError, match="^degree bound must be an int, not "):
        random_triangular(2, bad, seed=1)


def test_commutator_trivial_cases():
    phi = shear_tower()
    assert commutator(phi, phi) == identity(3)
    assert commutator(phi, identity(3)) == identity(3)


def test_commutator_one_dimensional():
    scale = make(1, (2,), (0,))
    shift = make(1, (1,), (1,))
    assert commutator(scale, shift) == make(1, (1,), (1,))


def test_commutator_is_always_unitriangular():
    rng = Random(202)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_aut(rng, n=n)
        b = random_aut(rng, n=n)
        assert commutator(a, b).is_unitriangular()


def test_commutator_equals_the_left_nested_association():
    # commutator associates as (phi psi)(phi^-1 psi^-1); the product must
    # not depend on that, Fraction lambdas and tails included
    rng = Random(27)
    for trial in range(16):
        n = rng.randint(2, 4)
        phi, psi = random_aut(rng, n=n, m=2), random_aut(rng, n=n, m=2)
        if trial % 2:
            phi = make(n, [Fraction(rng.choice((-3, 1, 2, 5)), rng.choice((2, 3, 7)))
                           for _ in range(n)], [t / 3 for t in phi.tails])
            psi = make(n, [Fraction(1, 2) * lam for lam in psi.lambdas], psi.tails)
        expected = compose(compose(compose(phi, psi), invert(phi)), invert(psi))
        result = commutator(phi, psi)
        assert result == expected
        assert result.to_text() == expected.to_text()


def test_a_commutator_makes_two_back_substitutions(monkeypatch):
    # psi^-1 by one, then phi^-1's nested form into it: phi^-1 is never
    # expanded (composing two `invert` results would make three)
    calls = []
    back_substitute = automorphisms._back_substitute

    def counted(*args):
        calls.append(1)
        return back_substitute(*args)

    monkeypatch.setattr(automorphisms, "_back_substitute", counted)
    rng = Random(29)
    for _ in range(8):
        n = rng.randint(1, 4)
        phi, psi = random_aut(rng, n=n), _fraction_lambda_map(rng, n, 2)
        assert not phi.is_identity() and not psi.is_identity()
        calls.clear()
        commutator(phi, psi)
        assert len(calls) == 2


def test_commutator_with_the_identity_is_the_identity():
    rng = Random(30)
    for n in range(1, 5):
        for phi in (random_aut(rng, n=n), _fraction_lambda_map(rng, n, 2),
                    invert(_fraction_lambda_map(rng, n, 2))):
            assert commutator(identity(n), phi) == identity(n)
            assert commutator(phi, identity(n)) == identity(n)


def test_commutator_dimension_mismatch():
    rng = Random(31)
    phi, psi = random_aut(rng, n=2), random_aut(rng, n=3)
    for a, b in ((phi, psi), (psi, phi), (identity(2), psi), (phi, identity(3))):
        with pytest.raises(ValueError, match="^dimension mismatch"):
            commutator(a, b)


@pytest.mark.parametrize("value", [
    1, -1, 2, -2, 3 ** 90, -(7 ** 60), Fraction(1, 3), Fraction(-1, 3),
    Fraction(1, 5 ** 70), Fraction(2, 3), Fraction(-2, 3), Fraction(-9, 4),
    Fraction(3 ** 50, 2 ** 80)])
def test_scalar_inverse_matches_the_fraction_oracle(value):
    expected = 1 / Fraction(value)
    result = scalar_inverse(value)
    assert result == expected
    assert type(result) is (int if expected.denominator == 1 else Fraction)


def test_scalar_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        scalar_inverse(0)


def test_affine_maps_are_closed_under_compose_and_invert():
    rng = Random(203)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_aut(rng, n=n, m=1)
        b = random_aut(rng, n=n, m=1)
        assert compose(a, b).degree() == 1
        assert invert(a).degree() == 1


# -- elementary factorization -------------------------------------------

def test_factorization_of_a_single_shear():
    phi = make(2, (1, 1), (0, Polynomial.variable(1, 2) ** 2))
    factors = elementary_factorization(phi)
    assert factors == [elementary_shear(2, 2, 1, (2, 0))]


def test_factorization_of_identity_is_empty():
    assert elementary_factorization(identity(3)) == []
    assert compose_all([], 3) == identity(3)


def test_factorization_of_the_shear_tower():
    phi = shear_tower()
    factors = elementary_factorization(phi)
    assert factors == [elementary_shear(3, 2, 1, (2, 0, 0)),
                       elementary_shear(3, 3, 1, (0, 2, 0))]
    assert compose_all(factors, 3) == phi


def test_factorization_round_trip_with_scalings():
    phi = make(2, (2, Fraction(-1, 3)), (5, 3 * Polynomial.variable(1, 2)))
    factors = elementary_factorization(phi)
    assert compose_all(factors, 2) == phi
    assert any(f.lambdas != (1, 1) for f in factors)


def test_factorization_round_trip_random():
    rng = Random(204)
    for _ in range(60):
        phi = random_aut(rng)
        factors = elementary_factorization(phi)
        assert compose_all(factors, phi.n) == phi
        for f in factors:
            assert f.degree() <= phi.degree()
    # factor count <= n + number of tail monomials
        assert len(factors) <= phi.n + sum(len(t.terms) for t in phi.tails)


# -- random generator ----------------------------------------------------

def test_random_triangular_is_deterministic_per_seed():
    a = random_triangular(3, 2, seed=99)
    b = random_triangular(3, 2, seed=99)
    assert a == b
    assert a != random_triangular(3, 2, seed=100) or True  # different seed may differ


def test_random_tails_are_the_kept_monomials_with_their_drawn_coefficients():
    # the sampler's draws, replayed: one random() per candidate monomial
    # and one choice() per kept one, built through the Polynomial constructor
    for seed in range(40):
        n, m, density = 1 + seed % 4, seed % 3, (0.25, 0.5, 1.0)[seed % 3]
        replay, expected = Random(seed), []
        for i in range(1, n + 1):
            terms = {}
            for key in monomials_up_to_degree(i - 1, m):
                if replay.random() < density:
                    terms[key] = replay.choice(automorphisms._COEFFICIENTS)
            expected.append(Polynomial(terms, n))
        rng = Random(seed)
        tails = automorphisms._random_tails(n, m, rng, density)
        assert tails == expected and [t.nvars for t in tails] == [n] * n
        assert [str(t) for t in tails] == [str(t) for t in expected]
        assert rng.random() == replay.random()


def test_random_triangular_respects_degree_class():
    rng = Random(205)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        phi = random_triangular(n, m, rng=rng)
        assert phi.n == n and phi.degree() <= m


def test_random_triangular_on_the_line_is_affine():
    phi = random_triangular(1, 3, seed=7)
    assert phi.degree() == 1


def test_degree_class_bound():
    # products of degree-<=m maps are bounded by m^(n-1); degree_fuzz
    # reports that bound and rejects an empty class
    assert degree_fuzz(3, 2, max_word_len=2, trials=1, seed=0).bound == 4
    assert degree_fuzz(1, 5, max_word_len=2, trials=1, seed=0).bound == 1
    with pytest.raises(ValueError):
        degree_fuzz(0, 2, max_word_len=2, trials=1, seed=0)


def test_staircase_map_matches_hand_built_tower():
    assert staircase_map(3, 2) == shear_tower()
    assert staircase_map(1, 5) == identity(1)
    assert staircase_map(4, 3).degree() == 3


def test_text_round_trip_through_coordinates():
    phi = shear_tower()
    text = phi.to_text()
    assert text == "n=3\nx1 -> x1\nx2 -> x2 + x1^2\nx3 -> x3 + x2^2\n"


def test_text_prints_each_coordinate_as_its_polynomial():
    """`to_text` prints lambda_i*x_i and the tail without building the
    coordinate; the bytes are the coordinate polynomial's own."""
    rng = Random(21)
    lambdas = (1, -1, 3, Fraction(2, 3), Fraction(-5, 7), Fraction(1, 6))
    for _ in range(30):
        n = rng.randint(1, 4)
        tails = [wide_rational_polynomial(rng, i, 2) if rng.random() < 0.7
                 else random_polynomial(rng, i, 2) for i in range(n)]
        phi = make(n, [rng.choice(lambdas) for _ in range(n)], tails)
        assert phi.to_text() == "".join(
            [f"n={n}\n"] + [f"x{i} -> {phi.coordinate(i)}\n" for i in range(1, n + 1)])


# -- differential tests against sympy -------------------------------------------

def _fraction_map(rng: Random):
    """A (3, 2) map with lambdas +-2 and tails with wide fraction coefficients."""
    tails = [wide_rational_polynomial(rng, i, 2) for i in range(3)]
    return make(3, [rng.choice((2, -2)) for _ in range(3)], tails)


def _sympy_coordinates(sympy, phi, gens):
    return [to_sympy(sympy, f, gens) for f in phi.coordinates()]


def test_compose_and_invert_match_sympy():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x1:4")
    rng = Random(210)
    for _ in range(8):
        outer, inner = _fraction_map(rng), _fraction_map(rng)
        inner_coords = dict(zip(gens, _sympy_coordinates(sympy, inner, gens)))
        for ours, f in zip(_sympy_coordinates(sympy, compose(outer, inner), gens),
                           _sympy_coordinates(sympy, outer, gens)):
            assert sympy.expand(ours - f.subs(inner_coords, simultaneous=True)) == 0
        inverse = dict(zip(gens, _sympy_coordinates(sympy, invert(outer), gens)))
        for g, f in zip(gens, _sympy_coordinates(sympy, outer, gens)):
            assert sympy.expand(f.subs(inverse, simultaneous=True)) == g
