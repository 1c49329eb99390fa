"""Command-line interface over files and stdin.

Exit codes: 0 success, 1 a checked mathematical property was falsified,
2 input or usage error.  With --json, output is a single object with the
fixed key set {command, inputs, result, diagnostics} on both success and
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import harness
from .automorphisms import (
    TriangularAutomorphism,
    commutator,
    compose,
    elementary_factorization,
    invert,
    power,
)
from .derivations import TriangularDerivation, bracket, exponential
from .errors import ParseError, PropertyViolation, TriangularityError
from .lie import closure_report, lie_closure
from .parsing import parse_automorphism, parse_derivation, parse_derivation_blocks


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _automorphism(path: str):
    return parse_automorphism(_read(path))


def _derivation(path: str):
    return parse_derivation(_read(path))


def _derivation_files(paths: list[str]) -> list:
    return [d for path in paths for d in parse_derivation_blocks(_read(path))]


def _factor(args) -> tuple[dict, str]:
    texts = [f.to_text() for f in elementary_factorization(_automorphism(args.automorphism))]
    return ({"factors": texts, "count": len(texts)},
            "\n".join(texts) if texts else "(identity: empty factorization)\n")


def _closure(args) -> tuple[dict, str]:
    report = closure_report(lie_closure(_derivation_files(args.derivations), cap=args.cap))
    return report, (f"dimension: {report['dimension']}\n"
                    f"nilpotency class: {report['nilpotency_class']}\n"
                    f"lower central series: {report['lower_central_series']}\n"
                    f"derived series: {report['derived_series']}\n"
                    + "\n".join(report["basis"]))


class _Command(NamedTuple):
    """One subcommand.  `positionals` are (name, argparse options) pairs;
    the fields after `handler` declare the shared flags (a default for
    trials/word_len, a switch for seed/cap).  `handler(args)` returns an
    automorphism, a derivation, a harness report, or a ready
    (json result, human text) pair.  Handlers call library functions by
    module-global name at call time, so rebinding a module attribute
    (as a tracer does) reaches every command.
    """

    help: str
    positionals: tuple
    handler: Callable
    seed: bool = False
    trials: int | None = None
    word_len: int | None = None
    cap: bool = False
    epilog: str | None = None


_INT = {"type": int}
_RATIONAL = {"type": _rational}

_COMMANDS = {
    "compose": _Command(
        "compose two automorphisms (first file outermost)",
        (("outer", {}), ("inner", {})),
        lambda a: compose(_automorphism(a.outer), _automorphism(a.inner))),
    "invert": _Command(
        "invert an automorphism", (("automorphism", {}),),
        lambda a: invert(_automorphism(a.automorphism))),
    "power": _Command(
        "k-fold self-composition (negative k inverts)",
        (("automorphism", {}), ("k", _INT)),
        lambda a: power(_automorphism(a.automorphism), a.k)),
    "commutator": _Command(
        "phi psi phi^-1 psi^-1", (("phi", {}), ("psi", {})),
        lambda a: commutator(_automorphism(a.phi), _automorphism(a.psi))),
    "factor": _Command(
        "elementary factorization of an automorphism", (("automorphism", {}),),
        _factor),
    "exp": _Command(
        "exponential of a derivation at a rational parameter",
        (("derivation", {}), ("s", _RATIONAL)),
        lambda a: exponential(_derivation(a.derivation), a.s),
        epilog="write flags first and '--' before a negative parameter: "
               "triaut exp flow.der -- -1/2"),
    "bracket": _Command(
        "Lie bracket of two derivations", (("first", {}), ("second", {})),
        lambda a: bracket(_derivation(a.first), _derivation(a.second))),
    "closure": _Command(
        "bracket closure of derivations, with both series",
        (("derivations", {"nargs": "+",
                          "help": "files of derivation blocks separated by blank lines"}),),
        _closure, cap=True),
    "fuzz-degree": _Command(
        "random products of T(m) never leave T(m^(n-1))", (("n", _INT), ("m", _INT)),
        lambda a: harness.degree_fuzz(a.n, a.m, a.word_len, a.trials, seed=a.seed),
        seed=True, trials=1000, word_len=8),
    "derived-depth": _Command(
        "iterated commutators fix a growing prefix", (("n", _INT), ("depth", _INT)),
        lambda a: harness.derived_depth_test(a.n, a.depth, a.trials, seed=a.seed),
        seed=True, trials=50),
    "unipotent-test": _Command(
        "products of exponentials stay unitriangular", (("derivations", {"nargs": "+"}),),
        lambda a: harness.unipotent_generation_test(
            _derivation_files(a.derivations), a.word_len, a.trials, seed=a.seed),
        seed=True, trials=200, word_len=6),
    "counterexample": _Command(
        "order-two pair whose generated group is not algebraic",
        (("a", _RATIONAL), ("b", _RATIONAL)),
        lambda a: harness.nonconnected_counterexample(a.a, a.b, a.word_len),
        word_len=12,
        epilog="write flags first and '--' before negative parameters: "
               "triaut counterexample --word-len 8 -- -1/2 1/3"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triaut",
        description="Exact arithmetic for triangular automorphisms, derivations, "
                    "and the groups and Lie algebras they generate.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, epilog=command.epilog)
        for arg, options in command.positionals:
            p.add_argument(arg, **options)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if command.seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        if command.trials is not None:
            p.add_argument("--trials", type=int, default=command.trials,
                           help=f"number of sampled trials (default {command.trials})")
        if command.word_len is not None:
            p.add_argument("--word-len", type=int, default=command.word_len,
                           help=f"maximum word length (default {command.word_len})")
        if command.cap:
            p.add_argument("--cap", type=int, default=50,
                           help="iteration ceiling (default 50)")
    return parser


def _inputs(command: _Command, args) -> list[dict]:
    """The echoed inputs: positionals in order (one entry per path of a
    multi-file argument, rationals as text), then word_len, trials, seed."""
    inputs = []
    for name, _ in command.positionals:
        value = getattr(args, name)
        for v in value if isinstance(value, list) else [value]:
            inputs.append({"name": name, "value": str(v) if isinstance(v, Fraction) else v})
    for name in ("word_len", "trials", "seed"):
        if getattr(command, name):
            inputs.append({"name": name, "value": getattr(args, name)})
    return inputs


def _render(result) -> tuple[object, str]:
    """(json result, human text) for whatever a handler returned."""
    if isinstance(result, TriangularAutomorphism):
        text = result.to_text()
        return {"automorphism": text}, text
    if isinstance(result, TriangularDerivation):
        text = result.to_text()
        return {"derivation": text}, text
    if isinstance(result, tuple):
        return result
    return result.to_dict(), result.summary() + "\n"


def _emit_json(command: str, inputs: list, result, diagnostics: list[str],
               stdout) -> None:
    payload = {"command": command, "inputs": inputs, "result": result,
               "diagnostics": diagnostics}
    print(json.dumps(payload, indent=2), file=stdout)


def run(argv=None, stdout=None, stderr=None) -> int:
    """Parse argv, execute, and return the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    wants_json = getattr(args, "json", False)
    command = _COMMANDS[args.command]
    try:
        result, human = _render(command.handler(args))
    except PropertyViolation as exc:
        if wants_json:
            _emit_json(args.command, [], None, [str(exc)], stdout)
        print(f"property violation: {exc}", file=stderr)
        return 1
    except (ParseError, TriangularityError, ValueError, OSError) as exc:
        if wants_json:
            _emit_json(args.command, [], None, [str(exc)], stdout)
        print(f"error: {exc}", file=stderr)
        return 2
    if wants_json:
        _emit_json(args.command, _inputs(command, args), result, [], stdout)
    else:
        print(human, end="" if human.endswith("\n") else "\n", file=stdout)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
