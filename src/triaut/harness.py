"""Executable desk-scale witnesses for the structure theory.

Each routine here either returns a report object (everything it sampled
satisfied the claimed property) or raises PropertyViolation carrying a
concrete counterexample.  A violation from valid inputs would falsify
the underlying theorem, so the harness treats it as a hard failure
rather than a statistic.

All sampling is driven by a single seeded generator per call: the same
seed reproduces the same report byte for byte.  Every count and seed a
routine takes must be an int (not bool), else TypeError, before its
range is checked (ValueError).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .automorphisms import (
    TriangularAutomorphism,
    commutator,
    compose,
    compose_all,
    identity,
    invert,
    random_triangular,
    staircase_map,
)
from .derivations import _coordinate_iterates, _exponential
from .errors import PropertyViolation
from .polynomials import Polynomial, Scalar, _checked_int, as_scalar

_FUZZ_DENSITY = 0.25      # degree_fuzz's pool maps
_DEPTH_DEGREE = 2         # derived_depth_test's commutator leaves
_DEPTH_DENSITY = 0.4
_POOL_SIZE = 3
_POOL_REFRESH = 25


def _check_ints(**counts) -> None:
    """TypeError for the first count or seed that is not an int (not bool)."""
    for name, value in counts.items():
        _checked_int(value, name)


def _letter_names(letters, labels) -> tuple[str, ...]:
    return tuple(labels[i] if e == 1 else f"{labels[i]}^-1" for i, e in letters)


@dataclass
class FuzzReport:
    """Outcome of a degree-bound fuzz cell."""

    n: int
    m: int
    trials: int
    max_word_len: int
    bound: int
    max_degree: int
    witness_word: tuple[str, ...]
    witness_generators: dict[str, str]

    def summary(self) -> str:
        word = " ".join(self.witness_word) or "(empty)"
        return (f"n={self.n} m={self.m}: {self.trials} trials, word length <= "
                f"{self.max_word_len}, max degree {self.max_degree} <= bound "
                f"{self.bound}, attained by [{word}]")


def degree_fuzz(n: int, m: int, max_word_len: int, trials: int, seed: int) -> FuzzReport:
    """Random products of degree-<=m maps and inverses never exceed m^(n-1).

    The generator pool is refreshed periodically and always includes the
    staircase map, whose square (or the map itself when max_word_len is 1)
    is evaluated as trial 0; for (n=3, m=2) that square already attains
    the bound.  Any sampled word whose evaluation exceeds the bound raises
    PropertyViolation with the word and its generators attached.
    """
    _check_ints(n=n, m=m, max_word_len=max_word_len, trials=trials, seed=seed)
    if n < 1 or m < 1 or max_word_len < 1 or trials < 1:
        raise ValueError("fuzz parameters must be positive")
    bound = m ** (n - 1)
    rng = Random(seed)
    ladder = staircase_map(n, m)
    pool: list[TriangularAutomorphism] = []
    inverses: list[TriangularAutomorphism | None] = []
    labels: list[str] = []
    max_degree = 0
    best_word: tuple[str, ...] = ()
    best_table: dict[str, str] = {}

    def letter(idx: int, e: int) -> TriangularAutomorphism:
        if e == 1:
            return pool[idx]
        if inverses[idx] is None:
            inverses[idx] = invert(pool[idx])
        return inverses[idx]

    for trial in range(trials):
        if trial % _POOL_REFRESH == 0:
            pool = [ladder] + [
                random_triangular(n, m, rng=rng, density=_FUZZ_DENSITY)
                for _ in range(_POOL_SIZE)]
            inverses = [None] * len(pool)
            labels = ["s"] + [f"g{k}" for k in range(1, _POOL_SIZE + 1)]
        if trial == 0:
            letters = [(0, 1)] * min(2, max_word_len)
        else:
            length = rng.randint(1, max_word_len)
            letters = [(rng.randrange(len(pool)), rng.choice((1, -1)))
                       for _ in range(length)]
        result = compose_all([letter(idx, e) for idx, e in letters], n)
        degree = result.degree()
        if degree > bound:
            word = _letter_names(letters, labels)
            table = {labels[i]: pool[i].to_text() for i, _ in letters}
            raise PropertyViolation(
                f"degree bound falsified at n={n}, m={m}: word "
                f"[{' '.join(word)}] evaluates to degree {degree} > {bound}; "
                f"generators:\n" + "\n".join(f"{k}:\n{v}" for k, v in table.items()))
        if degree > max_degree:
            max_degree = degree
            best_word = _letter_names(letters, labels)
            best_table = dict(sorted({labels[i]: pool[i].to_text() for i, _ in letters}.items()))
    return FuzzReport(n=n, m=m, trials=trials, max_word_len=max_word_len,
                      bound=bound, max_degree=max_degree,
                      witness_word=best_word, witness_generators=best_table)


@dataclass
class DepthReport:
    """Outcome of an iterated-commutator depth test."""

    n: int
    depth: int
    trials: int
    prefix_fixed: int          # longest x1..x_s fixed by every sample
    identities: int            # samples that collapsed to the identity
    max_degree: int

    def summary(self) -> str:
        prefix = min(self.depth - 1, self.n)
        fixed = f"all fix x1..x{prefix}" if prefix else "unitriangular as required"
        return (f"n={self.n} depth={self.depth}: {self.trials} iterated "
                f"commutators, all unitriangular, {fixed}; "
                f"{self.identities} were the identity")


def derived_depth_test(n: int, depth: int, trials: int, seed: int) -> DepthReport:
    """Depth-d iterated commutators are unitriangular and fix x1..x_{d-1}.

    At depth n+1 the prefix is x1..x_n, so every sample must be the
    identity.  Each trial draws 2^depth fresh random triangular maps of
    degree <= 2 for the commutator tree.
    """
    _check_ints(n=n, depth=depth, trials=trials, seed=seed)
    if depth < 1 or depth > n + 1:
        raise ValueError(f"depth must lie in 1..{n + 1}")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = Random(seed)

    def nested(d: int) -> TriangularAutomorphism:
        if d == 0:
            return random_triangular(n, _DEPTH_DEGREE, rng=rng, density=_DEPTH_DENSITY)
        return commutator(nested(d - 1), nested(d - 1))

    prefix = min(depth - 1, n)
    prefix_fixed = n
    identities = 0
    max_degree = 0
    for trial in range(trials):
        w = nested(depth)
        if not w.is_unitriangular():
            raise PropertyViolation(
                f"depth-{depth} commutator is not unitriangular:\n{w.to_text()}")
        if not w.fixes_prefix(prefix):
            raise PropertyViolation(
                f"depth-{depth} commutator moves x1..x{prefix}:\n{w.to_text()}")
        prefix_fixed = min(prefix_fixed, max(s for s in range(prefix, n + 1) if w.fixes_prefix(s)))
        if w.is_identity():
            identities += 1
        max_degree = max(max_degree, w.degree())
    return DepthReport(n=n, depth=depth, trials=trials,
                       prefix_fixed=prefix_fixed, identities=identities,
                       max_degree=max_degree)


@dataclass
class UnipotentReport:
    """Outcome of a products-of-exponentials test."""

    n: int
    num_generators: int
    trials: int
    max_word_len: int
    max_degree: int

    def summary(self) -> str:
        return (f"n={self.n}: {self.trials} products of <= {self.max_word_len} "
                f"exponentials of {self.num_generators} derivations, all "
                f"unitriangular (max degree {self.max_degree})")


_EXP_SCALARS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2),
                Fraction(1, 3), Fraction(2, 3))


def unipotent_generation_test(derivations, max_word_len: int, trials: int,
                              seed: int) -> UnipotentReport:
    """Products of exponentials exp(s_j D_{i_j}) are always unitriangular."""
    _check_ints(max_word_len=max_word_len, trials=trials, seed=seed)
    derivations = list(derivations)
    if not derivations:
        raise ValueError("need at least one derivation")
    n = derivations[0].n
    for d in derivations:
        if d.n != n:
            raise ValueError(f"dimension mismatch: {d.n} vs {n}")
    if max_word_len < 1 or trials < 1:
        raise ValueError("max_word_len and trials must be positive")
    rng = Random(seed)
    # each derivation's iterates serve every scalar drawn for it
    iterates: dict[int, list[list[Polynomial]]] = {}
    exp_cache: dict[tuple[int, Scalar], TriangularAutomorphism] = {}
    max_degree = 0
    for trial in range(trials):
        length = rng.randint(1, max_word_len)
        factors = []
        for _ in range(length):
            idx = rng.randrange(len(derivations))
            s = rng.choice(_EXP_SCALARS)
            key = (idx, s)
            factor = exp_cache.get(key)
            if factor is None:
                series = iterates.get(idx)
                if series is None:
                    series = iterates[idx] = _coordinate_iterates(derivations[idx])
                factor = exp_cache[key] = _exponential(n, series, s)
            factors.append(factor)
        # each draw acts after the ones before it: the last is outermost
        result = compose_all(factors[::-1], n)
        if not result.is_unitriangular():
            raise PropertyViolation(
                f"product of exponentials is not unitriangular:\n{result.to_text()}")
        max_degree = max(max_degree, result.degree())
    return UnipotentReport(n=n, num_generators=len(derivations), trials=trials,
                           max_word_len=max_word_len, max_degree=max_degree)


@dataclass
class CounterexampleReport:
    """Enumeration of the order-two generator pair's determinant-1 words."""

    a: str
    b: str
    max_word_len: int
    translation_steps: list[int]            # the distinct k values found
    counts_by_even_length: list[tuple[int, int]]
    words_evaluated: int

    def summary(self) -> str:
        counts = ", ".join(f"len<={l}: {c}" for l, c in self.counts_by_even_length)
        return (f"a={self.a} b={self.b}: determinant-1 words up to length "
                f"{self.max_word_len} give k in {self.translation_steps}; "
                f"distinct counts grow strictly ({counts})")


def order_two_generator(n2_coeff) -> TriangularAutomorphism:
    """The involution (-y1, y2 + c*y1): the 2x2 matrix (1 c; 0 -1) written
    in reversed variables so it is triangular."""
    c = as_scalar(n2_coeff)
    tail = Polynomial.monomial(c, (1, 0), 2) if c else Polynomial.zero(2)
    return TriangularAutomorphism(2, (-1, 1), (Polynomial.zero(2), tail))


def nonconnected_counterexample(a, b, max_word_len: int) -> CounterexampleReport:
    """Exhaustive reduced words over two order-two shears A, B.

    Both generators have determinant -1, so determinant-1 elements come
    from even-length alternating words, and each must be the unit shear
    (y1, y2 + k(a-b) y1) for an integer k.  The number of distinct k
    grows strictly with every even length: the generated group meets the
    one-parameter shear group in an infinite proper subgroup, which is
    what blocks it from being algebraic.
    """
    _checked_int(max_word_len, "max_word_len")
    a = as_scalar(a)
    b = as_scalar(b)
    if a == b:
        raise ValueError("generators coincide for a == b; enumeration is degenerate")
    if max_word_len < 1:
        raise ValueError("max_word_len must be positive")
    gen_a = order_two_generator(a)
    gen_b = order_two_generator(b)
    if compose(gen_a, gen_a) != identity(2) or compose(gen_b, gen_b) != identity(2):
        raise PropertyViolation("order-two generators failed A*A == identity")
    step = Fraction(a) - Fraction(b)
    ks: set[int] = set()
    counts: list[tuple[int, int]] = []
    words_evaluated = 0

    def record(phi: TriangularAutomorphism, description: str):
        nonlocal words_evaluated
        words_evaluated += 1
        det = phi.lambdas[0] * phi.lambdas[1]
        if det != 1:
            return
        if phi.lambdas != (1, 1) or phi.tails[0]:
            raise PropertyViolation(
                f"determinant-1 word {description} is not a unit shear:\n{phi.to_text()}")
        tail = phi.tails[1]
        t = tail.coefficient((1, 0))
        if tail != Polynomial.monomial(t, (1, 0), 2):
            raise PropertyViolation(
                f"determinant-1 word {description} has a non-linear tail:\n{phi.to_text()}")
        k = Fraction(t) / step
        if k.denominator != 1:
            raise PropertyViolation(
                f"translation parameter {t} of word {description} is not an "
                f"integer multiple of a-b={step}")
        ks.add(k.numerator)

    record(identity(2), "(empty)")
    # Reduced words never repeat a letter (A and B are involutions), so the
    # words of length L are the two alternating strings starting at A or B.
    state_a, state_b = gen_a, gen_b  # alternating words of the current length
    for length in range(1, max_word_len + 1):
        if length > 1:
            # extend on the right: ...AB -> ...ABA etc.
            state_a, state_b = compose(state_a, gen_b if length % 2 == 0 else gen_a), \
                               compose(state_b, gen_a if length % 2 == 0 else gen_b)
        record(state_a, f"alternating word of length {length} starting with A")
        record(state_b, f"alternating word of length {length} starting with B")
        if length % 2 == 0:
            counts.append((length, len(ks)))
    for (l1, c1), (l2, c2) in zip(counts, counts[1:]):
        if c2 <= c1:
            raise PropertyViolation(
                f"distinct translation count failed to grow: {c1} at length {l1} "
                f"vs {c2} at length {l2}")
    return CounterexampleReport(a=str(a), b=str(b), max_word_len=max_word_len,
                                translation_steps=sorted(ks),
                                counts_by_even_length=counts,
                                words_evaluated=words_evaluated)
