"""Seeded inputs, timed items and output checks for the three workloads.

A workload's `items()` is the list of items one repeat of a run times,
one library call each (`run`), and verifies afterwards, outside the
timed region (`check`).  It is a pure function of the seed, and returns
fresh objects on every call, so repeats and the traced replay do the
same work.

Inputs are drawn by this module's own sampler, which follows the same
distributions as `random_triangular` / `random_triangular_derivation`
(candidate monomials kept with probability `density`, nonzero integer
coefficients and scalars uniform in [-2, 2]), and are built through the
public `make` / `make_derivation` / `Polynomial` constructors.  A change
to the library's samplers therefore cannot change the benchmark's inputs.

`fuzz-big` and `closure` items vary 1000-fold in cost (0.1 ms to over a
second), so a few hundred plain draws give a run whose cost depends on
the seed more than on the program.  Those two workloads draw from a
catalogue of candidates instead (catalogue entry i is drawn from its own
fixed seed), sorted once by measured cost (`catalogue.py`, stored in
`catalogue.json`).  A run cuts the sorted catalogue into as many equal
strata as it has items and `--seed` picks one entry per stratum: every
seed gets different inputs with the same cost profile, and each entry is
still a draw from the stated distribution.
"""

from __future__ import annotations

import io
import json
import os
from fractions import Fraction
from random import Random

from triaut import cli, closure_report, compose, identity, invert, lie_closure
from triaut import make, make_derivation, parse_automorphism, parse_derivation, Polynomial

COEFF_BOUND = 2
_NONZERO = [c for c in range(-COEFF_BOUND, COEFF_BOUND + 1) if c]
CATALOGUE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalogue.json")


# -- sampler -----------------------------------------------------------------

def _monomials(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of degree <= max_degree in the library's canonical
    term order (ascending degree, then low-index variables first)."""
    def rec(k, budget):
        if k == 0:
            yield ()
            return
        for e in range(budget + 1):
            for rest in rec(k - 1, budget - e):
                yield (e,) + rest
    return sorted(rec(nvars, max_degree), key=lambda t: (sum(t), tuple(-e for e in t)))


def _tails(rng: Random, n: int, max_degree: int, density: float) -> list[Polynomial]:
    tails = []
    for i in range(1, n + 1):
        terms = {}
        for key in _monomials(i - 1, max_degree):
            if rng.random() < density:
                terms[key + (0,) * (n - i + 1)] = rng.choice(_NONZERO)
        tails.append(Polynomial(terms, n))
    return tails


def random_map(rng: Random, n: int, m: int, density: float):
    """Same draws, in the same order, as random_triangular(n, m, rng=rng, ...)."""
    lambdas = [rng.choice(_NONZERO) for _ in range(n)]
    return make(n, lambdas, _tails(rng, n, m, density))


def random_derivation(rng: Random, n: int, max_degree: int, density: float):
    """Same draws as random_triangular_derivation(n, max_degree, rng=rng, ...)."""
    return make_derivation(n, _tails(rng, n, max_degree, density))


def staircase(n: int, m: int):
    x = [Polynomial.variable(i, n) for i in range(1, n + 1)]
    return make(n, [1] * n, [Polynomial.zero(n)] + [x[i] ** m for i in range(n - 1)])


def load_order(name: str) -> list[int]:
    """Catalogue entry indices of a workload, cheapest first."""
    with open(CATALOGUE_FILE, encoding="utf-8") as handle:
        return json.load(handle)[name]["order"]


def stratified_pick(order: list[int], count: int, rng: Random) -> list[int]:
    """One entry from each of `count` equal slices of `order`, in seeded order."""
    size = len(order) // count
    picked = [order[j * size + rng.randrange(size)] for j in range(count)]
    rng.shuffle(picked)
    return picked


class CheckFailed(Exception):
    """An output broke an invariant of the workload."""


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


# -- fuzz-big ----------------------------------------------------------------

class FuzzBig:
    """Words of length <= 8 over {staircase(4,3)} + 3 random (4,3) maps.

    There are POOLS fixed pools (density 0.25, coefficient bound 2), each
    with WORDS_PER_POOL catalogue words sampled as degree_fuzz(4, 3, ...)
    samples its trials: a uniform length in 1..8, then letters (uniform
    pool index, uniform sign).  Inverses are computed on first use, once
    per pool per repeat, inside the item that first needs them, as in
    degree_fuzz.
    """

    name = "fuzz-big"
    N, M, WORD_LEN, POOLS, WORDS_PER_POOL = 4, 3, 8, 9, 192
    ITEMS = 216
    BOUND = M ** (N - 1)

    def __init__(self, seed: int, workdir: str):
        self.pools = self.build_pools()
        self.picked = stratified_pick(load_order(self.name), self.ITEMS,
                                      Random(f"{self.name}/{seed}"))
        self.words = {i: self.entry(i) for i in self.picked}

    @classmethod
    def build_pools(cls) -> list:
        rng = Random("fuzz-big/pools")
        ladder = staircase(cls.N, cls.M)
        return [[ladder] + [random_map(rng, cls.N, cls.M, 0.25) for _ in range(3)]
                for _ in range(cls.POOLS)]

    @classmethod
    def catalogue_size(cls) -> int:
        return cls.POOLS * cls.WORDS_PER_POOL

    @classmethod
    def entry(cls, i: int):
        """Catalogue entry i: (pool index, letters)."""
        rng = Random(f"fuzz-big/word/{i}")
        length = rng.randint(1, cls.WORD_LEN)
        return i // cls.WORDS_PER_POOL, [(rng.randrange(4), rng.choice((1, -1)))
                                         for _ in range(length)]

    def items(self) -> list:
        inverses = [[None] * 4 for _ in self.pools]
        return [(self.pools[p], inverses[p], letters)
                for p, letters in (self.words[i] for i in self.picked)]

    @staticmethod
    def run(item):
        pool, inverses, letters = item
        result = identity(pool[0].n)
        for idx, e in reversed(letters):
            if e == 1:
                g = pool[idx]
            else:
                g = inverses[idx]
                if g is None:
                    g = inverses[idx] = invert(pool[idx])
            result = compose(g, result)
        return result

    def check(self, item, result) -> bytes:
        pool, _, letters = item
        degree = result.degree()
        _require(result.n == self.N, f"result has n={result.n}")
        _require(degree <= self.BOUND, f"degree {degree} exceeds the bound {self.BOUND}")
        lambdas = [Fraction(1)] * self.N
        for idx, e in letters:
            for i, lam in enumerate(pool[idx].lambdas):
                lambdas[i] *= Fraction(lam) ** e
        _require(list(result.lambdas) == lambdas, "diagonal is not the product of the letters'")
        return f"{degree}\n{result.to_text()}".encode()


# -- closure -----------------------------------------------------------------

class Closure:
    """Bracket closures of generator sets drawn as in acceptance criterion 06:
    n uniform in 1..4, 1-3 generators, coefficient degree <= 2, density 0.3.
    """

    name = "closure"
    CATALOGUE = 2040
    ITEMS = 204

    def __init__(self, seed: int, workdir: str):
        self.picked = stratified_pick(load_order(self.name), self.ITEMS,
                                      Random(f"{self.name}/{seed}"))
        self.sets = [self.entry(i) for i in self.picked]

    @classmethod
    def catalogue_size(cls) -> int:
        return cls.CATALOGUE

    @staticmethod
    def entry(i: int) -> list:
        rng = Random(f"closure/set/{i}")
        n, count = rng.randint(1, 4), rng.randint(1, 3)
        return [random_derivation(rng, n, 2, 0.3) for _ in range(count)]

    def items(self) -> list:
        return list(self.sets)

    @staticmethod
    def run(generators):
        basis = lie_closure(generators)
        return basis, closure_report(basis)

    def check(self, generators, output) -> bytes:
        basis, report = output
        dim = report["dimension"]
        _require(dim == basis.dimension == len(report["basis"]), "dimension disagrees with basis")
        for key in ("lower_central_series", "derived_series"):
            series = report[key]
            _require(series[0] == dim and series[-1] == 0, f"{key} {series} does not run {dim}..0")
            _require(all(a > b for a, b in zip(series, series[1:])), f"{key} {series} stalls")
        _require(report["nilpotency_class"] == len(report["lower_central_series"]) - 1,
                 "class is not the lower central series length")
        _require(all(basis.contains(g) for g in generators), "a generator is outside its closure")
        return json.dumps(report, sort_keys=True, separators=(",", ":")).encode()


# -- cli-mix -----------------------------------------------------------------

_AUTOMORPHISM_COMMANDS = {"compose", "invert", "power", "commutator", "exp"}
_RESULT_KEYS = {
    "compose": {"automorphism"}, "invert": {"automorphism"}, "power": {"automorphism"},
    "commutator": {"automorphism"}, "exp": {"automorphism"},
    "factor": {"factors", "count"},
    "bracket": {"derivation"},
    "closure": {"dimension", "basis", "lower_central_series", "derived_series",
                "nilpotency_class"},
    "fuzz-degree": {"n", "m", "trials", "max_word_len", "bound", "max_degree",
                    "witness_word", "witness_generators"},
    "derived-depth": {"n", "depth", "trials", "prefix_fixed", "identities", "max_degree"},
    "unipotent-test": {"n", "num_generators", "trials", "max_word_len", "max_degree"},
    "counterexample": {"a", "b", "max_word_len", "translation_steps",
                       "counts_by_even_length", "words_evaluated"},
}
# Commands that chain several products and inverses: on (4, 3) maps their
# cost runs from a few ms to a second, a fuzz-big item inside cli-mix, so
# they take (4, 2) operands where the grid says (4, 3).
_COMPOSITE_COMMANDS = {"power", "commutator"}
_EXP_PARAMETERS = ("1", "-1", "2", "1/2", "-1/2", "2/3")
_RATIONALS = ("0", "1", "-1", "2", "1/2", "-1/2", "1/3", "3/2")


class CliMix:
    """In-process `triaut.cli.run([..., "--json"])` over small generated files.

    A run's items are every command REPEATS times, in seeded order.  Sizes
    are stratified: the k-th occurrence of a command takes its operand
    sizes from a fixed grid (n in 2..4 and degree m in 1..3 for maps, each
    pair twice; `power` and `commutator` stop at (4, 2)), so every seed
    gets the same mix of small and large operands; the seed draws the
    operands themselves, the harness seeds and the order.  The harness
    commands and `closure` are kept small so that this workload measures
    parsing, printing, argparse and JSON rather than repeating `closure`
    or `fuzz-big`.  `items()` writes the input files into `workdir`, which
    is the current directory while the items run.
    """

    name = "cli-mix"
    REPEATS = 18
    COMMANDS = tuple(_RESULT_KEYS)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def _write(self, name: str, text: str) -> str:
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)
        return name

    def _map_file(self, rng, tag, n, m):
        return self._write(f"{tag}.aut", random_map(rng, n, m, 0.4).to_text())

    def _derivations_file(self, rng, tag, n, count, degree, density):
        blocks = [random_derivation(rng, n, degree, density).to_text() for _ in range(count)]
        return self._write(f"{tag}.der", "\n".join(blocks))

    def _argv(self, rng, command: str, k: int, tag: str) -> list[str]:
        """Arguments of the k-th occurrence of `command`."""
        n, m = 2 + k % 3, 1 + k // 3 % 3
        small_n, small_m = 2 + k % 2, 1 + k // 2 % 2
        if command in _COMPOSITE_COMMANDS and (n, m) == (4, 3):
            m = 2
        if command in ("compose", "commutator"):
            return [command, self._map_file(rng, tag + "a", n, m),
                    self._map_file(rng, tag + "b", n, m), "--json"]
        if command in ("invert", "factor"):
            return [command, self._map_file(rng, tag, n, m), "--json"]
        if command == "power":
            return [command, "--json", self._map_file(rng, tag, n, m), "--", ("2", "-2")[k // 9 % 2]]
        if command == "exp":
            path = self._derivations_file(rng, tag, n, 1, 2, 0.4)
            return [command, "--json", path, "--", _EXP_PARAMETERS[k % len(_EXP_PARAMETERS)]]
        if command == "bracket":
            return [command, self._derivations_file(rng, tag + "a", n, 1, 2, 0.4),
                    self._derivations_file(rng, tag + "b", n, 1, 2, 0.4), "--json"]
        if command == "closure":
            return [command, self._derivations_file(rng, tag, small_n, small_m, 1, 0.5), "--json"]
        if command == "fuzz-degree":
            return [command, str(small_n), str(small_m), "--json", "--trials", "10",
                    "--word-len", "4", "--seed", str(rng.randrange(10**6))]
        if command == "derived-depth":
            return [command, str(small_n), str(1 + k // 2 % 3), "--json", "--trials", "2",
                    "--seed", str(rng.randrange(10**6))]
        if command == "unipotent-test":
            path = self._derivations_file(rng, tag, small_n, small_m, 1, 0.5)
            return [command, path, "--json", "--trials", "5", "--word-len", "3",
                    "--seed", str(rng.randrange(10**6))]
        a, b = rng.sample(_RATIONALS, 2)
        return [command, "--json", "--word-len", str(4 + k % 7), "--", a, b]

    def items(self) -> list:
        rng = Random(f"{self.name}/{self.seed}")
        commands = [(command, k) for command in self.COMMANDS for k in range(self.REPEATS)]
        rng.shuffle(commands)
        return [self._argv(rng, command, k, f"i{i}") for i, (command, k) in enumerate(commands)]

    def run(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        code = cli.run(argv, stdout=stdout, stderr=stderr)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, argv, output) -> bytes:
        code, stdout, stderr = output
        command = argv[0]
        _require(code == 0, f"{' '.join(argv)} exited {code}: {stderr.strip()}")
        payload = json.loads(stdout)
        _require(set(payload) == {"command", "inputs", "result", "diagnostics"},
                 f"{command}: top-level keys {sorted(payload)}")
        _require(payload["command"] == command and payload["diagnostics"] == [],
                 f"{command}: wrong command or diagnostics {payload['diagnostics']}")
        result = payload["result"]
        _require(set(result) == _RESULT_KEYS[command], f"{command}: result keys {sorted(result)}")
        texts = []
        if command in _AUTOMORPHISM_COMMANDS:
            texts = [result["automorphism"]]
        elif command == "factor":
            texts = result["factors"]
            _require(result["count"] == len(texts), "factor count disagrees with factors")
        for text in texts:
            _require(parse_automorphism(text).to_text() == text, f"{command}: not a print fixed point")
        if command == "bracket":
            text = result["derivation"]
            _require(parse_derivation(text).to_text() == text, "bracket: not a print fixed point")
        if command == "closure":
            for text in result["basis"]:
                _require(parse_derivation(text).to_text() == text, "closure: not a print fixed point")
        if command == "fuzz-degree":
            _require(result["max_degree"] <= result["bound"], "fuzz-degree: bound exceeded")
        return stdout.encode()


WORKLOADS = {w.name: w for w in (FuzzBig, Closure, CliMix)}
