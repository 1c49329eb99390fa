import itertools
import json
from dataclasses import asdict
from fractions import Fraction
from random import Random

import pytest

from triaut import harness
from triaut.automorphisms import (
    commutator,
    compose,
    compose_all,
    elementary_shear,
    identity,
    invert,
    make,
    random_triangular,
    staircase_map,
)
from triaut.derivations import make_derivation
from triaut.errors import PropertyViolation
from triaut.harness import (
    degree_fuzz,
    derived_depth_test,
    nonconnected_counterexample,
    order_two_generator,
    unipotent_generation_test,
)
from triaut.polynomials import Polynomial


# -- word evaluation -----------------------------------------------------------

def test_empty_word_is_identity():
    assert compose_all([], 3) == identity(3)
    assert compose_all([], 2) == identity(2)


def test_cancelling_word_is_identity():
    phi = staircase_map(3, 2)
    assert compose_all([phi, invert(phi)], 3) == identity(3)


def test_word_square_reaches_degree_four():
    phi = staircase_map(3, 2)
    sq = compose_all([phi, phi], 3)
    assert sq == compose(phi, phi)
    assert sq.degree() == 4


def test_evaluate_is_a_monoid_homomorphism():
    rng = Random(500)
    for _ in range(25):
        n = rng.randint(1, 3)
        gens = [random_triangular(n, 2, rng=rng) for _ in range(3)]
        letters = gens + [invert(g) for g in gens]

        def random_word():
            return [rng.choice(letters) for _ in range(rng.randint(0, 4))]

        u, v = random_word(), random_word()
        assert compose_all(u + v, n) == compose(compose_all(u, n), compose_all(v, n))


# -- degree fuzz --------------------------------------------------------------

def test_degree_fuzz_attains_the_bound_in_the_n3_m2_cell():
    report = degree_fuzz(3, 2, max_word_len=8, trials=100, seed=1)
    assert report.bound == 4
    assert report.max_degree == 4
    assert report.witness_word  # some word attains it


def test_degree_fuzz_on_the_affine_line():
    report = degree_fuzz(1, 3, max_word_len=6, trials=100, seed=2)
    assert report.bound == 1
    assert report.max_degree == 1


def test_degree_fuzz_is_deterministic_per_seed():
    a = degree_fuzz(2, 2, max_word_len=6, trials=150, seed=42)
    b = degree_fuzz(2, 2, max_word_len=6, trials=150, seed=42)
    assert a == b
    assert json.dumps(asdict(a)) == json.dumps(asdict(b))


def test_degree_fuzz_trial_zero_respects_the_word_length():
    report = degree_fuzz(2, 2, max_word_len=1, trials=3, seed=0)
    assert report.witness_word == ("s",)
    for seed in range(5):
        report = degree_fuzz(3, 2, max_word_len=1, trials=20, seed=seed)
        assert len(report.witness_word) <= 1


def test_exhaustive_short_words_stay_in_degree_two():
    # n=2, m=2: every product of triangular maps of degree <= 2 stays at
    # degree <= 2^1 = 2.  Exhaustive enumeration over a letter set with
    # coefficients in {-1, 0, 1}, words of length <= 3.
    x1 = Polynomial.variable(1, 2)
    gens = [
        make(2, (1, 1), (0, x1 ** 2)),
        make(2, (1, 1), (1, x1 ** 2 - x1)),
        make(2, (-1, 1), (0, x1)),
        make(2, (1, -1), (-1, -x1 ** 2)),
        make(2, (-1, -1), (1, x1 ** 2 + x1 + 1)),
    ]
    letters = gens + [invert(g) for g in gens]
    for length in range(1, 4):
        for combo in itertools.product(letters, repeat=length):
            product = identity(2)
            for g in combo:
                product = compose(product, g)
            assert product.degree() <= 2


def test_degree_fuzz_rejects_bad_parameters():
    with pytest.raises(ValueError):
        degree_fuzz(0, 2, 8, 10, seed=0)
    with pytest.raises(ValueError):
        degree_fuzz(2, 2, 8, 0, seed=0)


def _one_derivation():
    return [make_derivation(2, [1, 0])]


@pytest.mark.parametrize("routine, args, kwargs, name", [
    (degree_fuzz, (3, 2, True, 2, 0), {}, "max_word_len"),
    (degree_fuzz, (3.0, 2, 2, 2, 0), {}, "n"),
    (degree_fuzz, (3, "2", 2, 2, 0), {}, "m"),
    (degree_fuzz, (3, 2, 2, 2.0, 0), {}, "trials"),
    (degree_fuzz, (3, 2, 2, 2), {"seed": 1.5}, "seed"),
    (degree_fuzz, (3, 2, 2, 2), {"seed": "x"}, "seed"),
    (derived_depth_test, (2, True, 2, 0), {}, "depth"),
    (derived_depth_test, (True, 1, 2, 0), {}, "n"),
    (derived_depth_test, (2, 1, 2), {"seed": None}, "seed"),
    (unipotent_generation_test, (_one_derivation(), True, True), {"seed": 0}, "max_word_len"),
    (unipotent_generation_test, (_one_derivation(), 2, 2.5), {"seed": 0}, "trials"),
    (unipotent_generation_test, (_one_derivation(), 2, 2), {"seed": "x"}, "seed"),
    (nonconnected_counterexample, (1, 0, 2.0), {}, "max_word_len"),
], ids=lambda value: value.__name__ if callable(value) else None)
def test_harness_counts_and_seeds_must_be_ints(routine, args, kwargs, name):
    # a bool, float, str or None is refused before any range check or sampling
    with pytest.raises(TypeError, match=rf"^{name} must be an int, not "):
        routine(*args, **kwargs)


# -- derived depth --------------------------------------------------------------

def longest_fixed_prefix(w):
    return next((i for i in range(w.n) if w.lambdas[i] != 1 or w.tails[i]), w.n)


def test_depth_one_commutators_are_unitriangular():
    report = derived_depth_test(3, 1, trials=20, seed=3)
    assert report.trials == 20
    # replay the draws: each trial commutes two fresh random maps
    rng = Random(3)
    samples = [commutator(random_triangular(3, 2, rng=rng, density=0.4),
                          random_triangular(3, 2, rng=rng, density=0.4))
               for _ in range(20)]
    assert all(w.is_unitriangular() for w in samples)
    assert report.prefix_fixed == min(longest_fixed_prefix(w) for w in samples)


def test_prefix_fixed_is_the_shortest_fixed_prefix_over_the_samples():
    assert derived_depth_test(3, 1, trials=7, seed=1).prefix_fixed == 0
    assert derived_depth_test(3, 3, trials=5, seed=2).prefix_fixed >= 2
    assert derived_depth_test(2, 3, trials=3, seed=2).prefix_fixed == 2


def test_full_depth_commutators_are_trivial():
    for n in (1, 2, 3):
        report = derived_depth_test(n, n + 1, trials=8, seed=4)
        assert report.identities == 8


def test_commuting_generators_have_trivial_commutator():
    a = make(2, (1, 1), (1, 0))
    b = make(2, (1, 1), (Fraction(-1, 2), 0))
    assert commutator(a, b) == identity(2)


def test_a_commutator_that_moves_the_prefix_is_a_violation(monkeypatch):
    u1, u2 = Polynomial.variable(1, 3), Polynomial.variable(2, 3)
    # every tail nonzero, the last one included: x1 moves at every depth >= 2
    moving = make(3, (1, 1, 1), (1, u1, u2))
    monkeypatch.setattr(harness, "commutator", lambda phi, psi: moving)
    for depth in (2, 3, 4):
        with pytest.raises(PropertyViolation,
                           match=rf"depth-{depth} commutator moves x1\.\.x{depth - 1}:"):
            derived_depth_test(3, depth, trials=1, seed=0)
    # at depth n+1 the prefix is x1..xn, so a nonzero last tail alone is caught
    last = elementary_shear(3, 3, 1, (1, 0, 0))
    monkeypatch.setattr(harness, "commutator", lambda phi, psi: last)
    with pytest.raises(PropertyViolation, match=r"depth-4 commutator moves x1\.\.x3:"):
        derived_depth_test(3, 4, trials=1, seed=0)


def test_depth_out_of_range():
    with pytest.raises(ValueError):
        derived_depth_test(3, 5, trials=5, seed=0)
    with pytest.raises(ValueError):
        derived_depth_test(3, 0, trials=5, seed=0)


# -- unipotent generation ----------------------------------------------------------

def test_single_exponential_words_are_unitriangular():
    d = make_derivation(2, [0, Polynomial.variable(1, 2)])
    report = unipotent_generation_test([d], max_word_len=4, trials=50, seed=5)
    assert report.trials == 50


def test_heisenberg_exponential_products_are_unitriangular():
    x1 = Polynomial.variable(1, 2)
    ds = [make_derivation(2, [1, 0]), make_derivation(2, [0, x1])]
    report = unipotent_generation_test(ds, max_word_len=6, trials=100, seed=6)
    assert report.max_degree >= 1


def test_unipotent_test_validates_input():
    with pytest.raises(ValueError):
        unipotent_generation_test([], 6, 10, seed=0)
    with pytest.raises(ValueError):
        unipotent_generation_test(
            [make_derivation(2, [1, 0]), make_derivation(3, [1, 0, 0])], 6, 10, seed=0)


# -- the non-connected counterexample ------------------------------------------------

def test_generators_have_order_two():
    a = order_two_generator(1)
    assert compose(a, a) == identity(2)
    assert a.lambdas == (-1, 1)


def test_counterexample_words_up_to_length_two():
    report = nonconnected_counterexample(1, 0, 2)
    assert report.translation_steps == [-1, 0, 1]
    assert report.counts_by_even_length == [(2, 3)]


def test_counterexample_counts_grow_like_two_l_plus_one():
    report = nonconnected_counterexample(1, 0, 12)
    assert report.counts_by_even_length == \
        [(2 * l, 2 * l + 1) for l in range(1, 7)]
    assert report.translation_steps == list(range(-6, 7))


def test_counterexample_with_fractional_parameters():
    report = nonconnected_counterexample(Fraction(1, 2), Fraction(-1, 3), 8)
    assert report.translation_steps == list(range(-4, 5))


def test_counterexample_rejects_equal_parameters():
    with pytest.raises(ValueError):
        nonconnected_counterexample(1, 1, 4)


def test_ab_word_is_the_unit_shear_with_step_minus_one():
    a = order_two_generator(1)
    b = order_two_generator(0)
    ab = compose(a, b)
    assert ab.lambdas == (1, 1)
    assert ab.tails[1] == -Polynomial.variable(1, 2)


def test_generated_shears_contrast_with_bounded_triangular_products():
    # products of the order-two pair produce unboundedly many distinct
    # shears, while triangular products stay inside one degree class
    report = nonconnected_counterexample(1, 0, 10)
    assert len(report.translation_steps) == 11
    fuzz = degree_fuzz(2, 2, max_word_len=10, trials=60, seed=8)
    assert fuzz.max_degree <= fuzz.bound


def test_shear_helper_matches_matrix_picture():
    shear = elementary_shear(2, 2, 3, (1, 0))
    assert shear.coordinate(2) == Polynomial.variable(2, 2) + 3 * Polynomial.variable(1, 2)
