"""Command-line interface over files and stdin.

Exit codes: 0 success, 1 a checked mathematical property was falsified,
2 input or usage error.  A handler's error leaves through one exit: a
`PropertyViolation` gives 1 and "property violation: ...", a ValueError
(`ParseError` and `TriangularityError` among them), OSError or
RecursionError (an input nested or long past the interpreter's
recursion limit) gives 2 and "error: ...".  With --json, output is a single object with the
fixed key set {command, inputs, result, diagnostics} on both success and
failure, usage errors included.

`run(argv, stdout, stderr, stdin)` is the in-process entry point.  All of
its output, argparse's usage, help and error text included, goes to the
given streams, and a `-` operand is read from the given stdin.  The parser
is built once per process, on the first call that needs it, and reused
by every later one.  `_COMMANDS` is the one declaration of each
command's operands and flags.  A valid call is parsed from that table
alone (`_table_parse`), into the namespace argparse would give; on
anything the table cannot show argparse would read the same way (help,
an unknown or abbreviated option, a bad value or operand count, an
operand or flag value that starts with `-` before `--`, such as a
negative number, and the few `--` and option placements argparse reads
apart) it declines and the argparse parser parses argv, so argparse
stays the one source of help, usage and error texts and of its rule for
negative numbers.  An operand that argparse hands over as an
empty list (it drops a second `--` from the operand that consumed it)
is a usage error of the subcommand, as argparse would word it.  Every
`-` operand of a call reads the same text: stdin is read once, when the
first one needs it.  `--json` output is written by `_json`, which gives
`json.dumps(payload, indent=2)`'s bytes without its pure-Python
indenting encoder.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from gettext import gettext
from json.encoder import encode_basestring_ascii
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
from .errors import PropertyViolation
from .lie import closure_report, lie_closure
from .parsing import _integer, parse_automorphism, parse_derivation, parse_derivation_blocks
from .polynomials import Polynomial


def _read(args, path: str) -> str:
    """The text of a file operand, decoded as UTF-8 without a text-mode
    stream: its line ends are left as they are, and the parsers split
    lines with `str.splitlines`, which reads CR LF and a lone CR as LF."""
    if path == "-":
        return args.stdin()
    with open(path, "rb") as handle:
        return handle.read().decode("utf-8")


_INT_FRACTION = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rational(text: str) -> Fraction:
    """An exact rational parameter.  An integer or integer fraction reads
    its numerator and denominator through `parsing._integer`, with no
    digit limit; other forms ("0.25", "1e3") go through `Fraction`."""
    try:
        match = _INT_FRACTION.fullmatch(text.strip())
        if match is None:
            return Fraction(text)
        numerator, denominator = match.groups()
        return Fraction(_integer(numerator), _integer(denominator or "1"))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _automorphism(args, path: str):
    return parse_automorphism(_read(args, path))


def _derivation(args, path: str):
    return parse_derivation(_read(args, path))


def _derivation_files(args, paths: list[str]) -> list:
    return [d for path in paths for d in parse_derivation_blocks(_read(args, path))]


def _factor(args) -> tuple[dict, str]:
    phi = _automorphism(args, args.automorphism)
    texts = [f.to_text() for f in elementary_factorization(phi)]
    return ({"factors": texts, "count": len(texts)},
            "\n".join(texts) if texts else "(identity: empty factorization)\n")


def _closure(args) -> tuple[dict, str]:
    report = closure_report(lie_closure(_derivation_files(args, args.derivations)))
    return report, (f"dimension: {report['dimension']}\n"
                    f"nilpotency class: {report['nilpotency_class']}\n"
                    f"lower central series: {report['lower_central_series']}\n"
                    f"derived series: {report['derived_series']}\n"
                    + "\n".join(report["basis"]))


class _Command(NamedTuple):
    """One subcommand.  `positionals` are (name, argparse options) pairs;
    `flags` maps the dest of each shared flag the command takes to its
    default, in the order the JSON `inputs` echo them.  `handler(args)`
    returns an automorphism, a derivation, a harness report, or a ready
    (json result, human text) pair; `args.stdin()` is the text every `-`
    operand of the call reads, taken from the stream once.  Handlers call
    library functions by module-global name at call time, so rebinding a
    module attribute (as a tracer does) reaches every command.
    """

    help: str
    positionals: tuple
    handler: Callable
    flags: dict = {}
    epilog: str | None = None


# The shared flags: option string -> (dest, help text around the default).
_FLAGS = {
    "--seed": ("seed", "RNG seed (default {})"),
    "--trials": ("trials", "number of sampled trials (default {})"),
    "--word-len": ("word_len", "maximum word length (default {})"),
}


_INT = {"type": int}
_RATIONAL = {"type": _rational}

_COMMANDS = {
    "compose": _Command(
        "compose two automorphisms (first file outermost)",
        (("outer", {}), ("inner", {})),
        lambda a: compose(_automorphism(a, a.outer), _automorphism(a, a.inner))),
    "invert": _Command(
        "invert an automorphism", (("automorphism", {}),),
        lambda a: invert(_automorphism(a, a.automorphism))),
    "power": _Command(
        "k-fold self-composition (negative k inverts)",
        (("automorphism", {}), ("k", _INT)),
        lambda a: power(_automorphism(a, a.automorphism), a.k)),
    "commutator": _Command(
        "phi psi phi^-1 psi^-1", (("phi", {}), ("psi", {})),
        lambda a: commutator(_automorphism(a, a.phi), _automorphism(a, a.psi))),
    "factor": _Command(
        "elementary factorization of an automorphism", (("automorphism", {}),),
        _factor),
    "exp": _Command(
        "exponential of a derivation at a rational parameter",
        (("derivation", {}), ("s", _RATIONAL)),
        lambda a: exponential(_derivation(a, a.derivation), a.s),
        epilog="write flags first and '--' before a negative parameter: "
               "triaut exp flow.der -- -1/2"),
    "bracket": _Command(
        "Lie bracket of two derivations", (("first", {}), ("second", {})),
        lambda a: bracket(_derivation(a, a.first), _derivation(a, a.second))),
    "closure": _Command(
        "bracket closure of derivations, with both series",
        (("derivations", {"nargs": "+",
                          "help": "files of derivation blocks separated by blank lines"}),),
        _closure),
    "fuzz-degree": _Command(
        "random products of T(m) never leave T(m^(n-1))", (("n", _INT), ("m", _INT)),
        lambda a: harness.degree_fuzz(a.n, a.m, a.word_len, a.trials, seed=a.seed),
        flags={"word_len": 8, "trials": 1000, "seed": 0}),
    "derived-depth": _Command(
        "iterated commutators fix a growing prefix", (("n", _INT), ("depth", _INT)),
        lambda a: harness.derived_depth_test(a.n, a.depth, a.trials, seed=a.seed),
        flags={"trials": 50, "seed": 0}),
    "unipotent-test": _Command(
        "products of exponentials stay unitriangular", (("derivations", {"nargs": "+"}),),
        lambda a: harness.unipotent_generation_test(
            _derivation_files(a, a.derivations), a.word_len, a.trials, seed=a.seed),
        flags={"word_len": 6, "trials": 200, "seed": 0}),
    "counterexample": _Command(
        "order-two pair whose generated group is not algebraic",
        (("a", _RATIONAL), ("b", _RATIONAL)),
        lambda a: harness.nonconnected_counterexample(a.a, a.b, a.word_len),
        flags={"word_len": 12},
        epilog="write flags first and '--' before negative parameters: "
               "triaut counterexample --word-len 8 -- -1/2 1/3"),
}


class _UsageError(Exception):
    """args: (argparse's usage and error lines, the error message alone)."""


class _Parser(argparse.ArgumentParser):
    """Raises `_UsageError` where argparse would print and exit, so that a
    usage error reaches `run`'s streams; subparsers inherit the class."""

    def parse_known_args(self, args=None, namespace=None):
        """argparse's reading, refused with the subcommand's usage error
        where it leaves a one-value operand as a list: it drops a second
        "--" from the operand that consumed it (`compose - -- --` gives
        inner=[])."""
        namespace, extras = super().parse_known_args(args, namespace)
        command = _COMMANDS.get(self.get_default("command"))  # None above the subparsers
        for name, spec in command.positionals if command else ():
            if "nargs" not in spec and isinstance(getattr(namespace, name), list):
                self.error(f"argument {name}: expected one argument")
        return namespace, extras

    def error(self, message):
        # argparse's own wording, through the same gettext lookup
        line = gettext("%(prog)s: error: %(message)s\n") % {"prog": self.prog,
                                                              "message": message}
        raise _UsageError(self.format_usage() + line, message)


@cache
def _parser() -> _Parser:
    parser = _Parser(
        prog="triaut",
        description="Exact arithmetic for triangular automorphisms, derivations, "
                    "and the groups and Lie algebras they generate.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, epilog=command.epilog)
        p.set_defaults(command=name)
        for arg, options in command.positionals:
            p.add_argument(arg, **options)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        for flag, (dest, text) in _FLAGS.items():
            if dest in command.flags:
                default = command.flags[dest]
                p.add_argument(flag, type=int, default=default, help=text.format(default))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv read from `_COMMANDS` by `_table_parse`; where that declines,
    by argparse, which gives its own help, usage and error texts."""
    args = _table_parse(argv)
    return args if args is not None else _parser().parse_args(argv)


def _table_parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives for argv, read from `_COMMANDS` alone,
    or None wherever argparse might read argv otherwise: no command,
    -h, an unknown, abbreviated or `--flag=value` option, any other
    token or flag value that starts with `-` before `--` (a negative
    number among them), a flag without a value, a value its type
    refuses, a wrong operand count, a second `--` or one no operand
    absorbs, and operands of a `nargs="+"` positional split by an
    option."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {"json": False, **command.flags}
    operands: list[str] = []
    runs = 0  # runs of operands between options
    after_operand = dashes = loose = False
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            if dashes:
                return None
            # argparse drops a "--" next to an operand; any other is left over
            dashes, loose = True, not after_operand
        elif dashes or token[:1] != "-" or token == "-":
            runs += not after_operand
            operands.append(token)
            after_operand, loose = True, False
        elif token == "--json":
            options["json"] = True
            after_operand = False
        else:
            dest = _FLAGS[token][0] if token in _FLAGS else None
            value = next(tokens, None)
            if dest not in options or value is None or value[:1] == "-":
                return None
            try:
                options[dest] = int(value)
            except ValueError:
                return None
            after_operand = False
    positionals = command.positionals
    # a "+" positional is its command's only one, fed by one run of operands
    many = positionals[0][1].get("nargs") == "+"
    if loose or (runs != 1 if many else len(operands) != len(positionals)):
        return None
    values = {"command": argv[0]}
    try:
        if many:
            (name, spec), = positionals
            convert = spec.get("type", str)
            values[name] = [convert(token) for token in operands]
        else:
            for (name, spec), token in zip(positionals, operands):
                values[name] = spec.get("type", str)(token)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    return argparse.Namespace(**values, **options)


def _inputs(command: _Command, args) -> list[dict]:
    """The echoed inputs: positionals in order (one entry per path of a
    multi-file argument, rationals as text), then the command's flags."""
    inputs = []
    for name, _ in command.positionals:
        value = getattr(args, name)
        for v in value if isinstance(value, list) else [value]:
            # a rational's text is the constant polynomial's: no digit limit
            inputs.append({"name": name, "value": str(Polynomial.constant(v))
                           if isinstance(v, Fraction) else v})
    return inputs + [{"name": name, "value": getattr(args, name)} for name in command.flags]


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
    return vars(result), result.summary() + "\n"


def _json(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)` for what a payload holds: str, int,
    bool and None, in dicts with str keys, lists and tuples."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[\n" + ",\n".join([inner + _json(v, inner) for v in value]) + "\n" + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(command: str | None, inputs: list, result, diagnostics: list[str],
               stdout) -> None:
    payload = {"command": command, "inputs": inputs, "result": result,
               "diagnostics": diagnostics}
    print(_json(payload), file=stdout)


def run(argv=None, stdout=None, stderr=None, stdin=None) -> int:
    """Parse argv, execute, and return the exit code.  Each stream left
    as None is the process's own."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    stdin = stdin if stdin is not None else sys.stdin
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = _parse(argv)
    except SystemExit as exc:  # --help
        return 0 if not exc.code else 2
    except _UsageError as exc:
        text, message = exc.args
        flags = argv[:argv.index("--")] if "--" in argv else argv
        # argparse's abbreviation rule: "--j", "--js" and "--jso" mean --json,
        # also in the "--json=VALUE" form that argparse refuses
        if any(len(f := a.partition("=")[0]) >= 3 and "--json".startswith(f)
               for a in flags):
            name = next((a for a in flags if not a.startswith("-")), None)
            _emit_json(name if name in _COMMANDS else None, [], None, [message], stdout)
        print(text, end="", file=stderr)
        return 2
    wants_json = getattr(args, "json", False)
    command = _COMMANDS[args.command]
    args.stdin = cache(lambda: stdin.read())
    try:
        result, human = _render(command.handler(args))
    except (PropertyViolation, ValueError, OSError, RecursionError) as exc:
        violated = isinstance(exc, PropertyViolation)
        if wants_json:
            _emit_json(args.command, [], None, [str(exc)], stdout)
        print(f"{'property violation' if violated else 'error'}: {exc}", file=stderr)
        return 1 if violated else 2
    if wants_json:
        _emit_json(args.command, _inputs(command, args), result, [], stdout)
    else:
        print(human, end="" if human.endswith("\n") else "\n", file=stdout)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
