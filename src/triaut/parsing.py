"""Text grammar for polynomials, automorphisms, and derivations.

Expression grammar (whitespace-insensitive):

    poly   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' factor) | ('/' INT))*
    factor := INT | VAR ['^' INT] | '(' poly ')'
    VAR    := 'x' INT        with variable index >= 1
    INT    := digits

Division is scalar division by an integer literal only; exponents are
non-negative integer literals.  File formats are line-oriented:

    automorphism:  "n=<int>" then lines "x<i> -> <poly>" for i = 1..n
    derivation:    "n=<int>" then lines "dx<i> <- <poly>" for i = 1..n

The canonical printers (to_text / str) emit exactly this grammar, and
print -> parse -> print is a fixed point byte for byte.
"""

from __future__ import annotations

import re
from itertools import groupby
from typing import Iterable

from .automorphisms import TriangularAutomorphism
from .derivations import TriangularDerivation
from .errors import ParseError
from .polynomials import Polynomial

_TOKEN_RE = re.compile(r"\s*((\d+)|x(\d+)|([+\-*/^()])|(\S))")


class _Token:
    __slots__ = ("kind", "value", "offset")

    def __init__(self, kind, value, offset):
        self.kind = kind      # "int", "var", or the operator character
        self.value = value
        self.offset = offset  # index of the token's first character in the text


class _ExprParser:
    """Recursive descent over the tokens of `text`, which begins at file
    position `start` = (line, col); tokens keep their offset in the text,
    and an error converts it to a file position."""

    def __init__(self, text: str, start: tuple[int, int]):
        self.text = text
        self.start = start
        self.tokens = [self._token(match) for match in _TOKEN_RE.finditer(text)]
        self.pos = 0

    def _error(self, message: str, offset: int) -> ParseError:
        line, col = self.start
        newlines = self.text.count("\n", 0, offset)
        if newlines:
            line, col = line + newlines, offset - self.text.rfind("\n", 0, offset)
        else:
            col += offset
        return ParseError(message, line, col)

    def _token(self, match: re.Match) -> _Token:
        _, number, var, op, junk = match.groups()
        offset = match.start(1)
        if number is not None:
            return _Token("int", int(number), offset)
        if var is not None:
            if int(var) < 1:
                raise self._error("variable index must be at least 1", offset)
            return _Token("var", int(var), offset)
        if op is not None:
            return _Token(op, op, offset)
        raise self._error(f"unexpected character {junk!r}", offset)

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected: str) -> _Token:
        tok = self._peek()
        if tok is None:
            raise self._error(f"expected {expected}, found end of input",
                              len(self.text.rstrip()))
        self.pos += 1
        return tok

    def _fail(self, tok: _Token, expected: str):
        shown = f"x{tok.value}" if tok.kind == "var" else str(tok.value)
        raise self._error(f"expected {expected}, found {shown!r}", tok.offset)

    def parse(self) -> Polynomial:
        poly = self.poly()
        tok = self._peek()
        if tok is not None:
            self._fail(tok, "end of expression")
        return poly

    def poly(self) -> Polynomial:
        negate = False
        tok = self._peek()
        if tok is not None and tok.kind == "-":
            self.pos += 1
            negate = True
        result = self.term()
        if negate:
            result = -result
        while True:
            tok = self._peek()
            if tok is None or tok.kind not in "+-":
                return result
            self.pos += 1
            operand = self.term()
            result = result + operand if tok.kind == "+" else result - operand

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            tok = self._peek()
            if tok is None or tok.kind not in "*/":
                return result
            self.pos += 1
            if tok.kind == "*":
                result = result * self.factor()
            else:
                divisor = self._next("an integer divisor")
                if divisor.kind != "int":
                    self._fail(divisor, "an integer divisor")
                if divisor.value == 0:
                    raise self._error("division by zero", divisor.offset)
                result = result / divisor.value

    def factor(self) -> Polynomial:
        tok = self._next("a number, variable, or '('")
        if tok.kind == "int":
            return Polynomial.constant(tok.value)
        if tok.kind == "var":
            base = Polynomial.variable(tok.value)
            nxt = self._peek()
            if nxt is not None and nxt.kind == "^":
                self.pos += 1
                exp = self._next("a non-negative integer exponent")
                if exp.kind != "int":
                    self._fail(exp, "a non-negative integer exponent")
                return base ** exp.value
            return base
        if tok.kind == "(":
            inner = self.poly()
            closing = self._next("')'")
            if closing.kind != ")":
                self._fail(closing, "')'")
            return inner
        self._fail(tok, "a number, variable, or '('")


def parse_polynomial(text: str) -> Polynomial:
    """Parse one polynomial expression; the whole text must be consumed.
    Error positions count from line 1, col 1 of the text."""
    return _ExprParser(text, (1, 1)).parse()


_HEADER_RE = re.compile(r"^n\s*=\s*(\d+)$")

# The two file formats as (line prefix, arrow, what a line gives, line
# pattern): "x<i> -> <poly>" coordinates and "dx<i> <- <poly>" coefficients.
_AUTOMORPHISM_FILE = ("x", "->", "coordinate", re.compile(r"^x(\d+)\s*->\s*(.*)$"))
_DERIVATION_FILE = ("dx", "<-", "coefficient", re.compile(r"^dx(\d+)\s*<-\s*(.*)$"))


def _coordinate_file(lines: Iterable[tuple[int, str]],
                     file_format) -> tuple[int, list[Polynomial]]:
    """(n, [polynomial of line i for i = 1..n]) from the header "n=<int>"
    and the n lines that follow it in order, given as (file line number,
    line) pairs; blank lines are skipped."""
    prefix, arrow, kind, line_re = file_format
    lines = [(num, line) for num, line in lines if line.strip()]
    if not lines:
        raise ParseError("empty input; expected a header line 'n=<int>'")
    num, first = lines[0]
    first = first.strip()
    match = _HEADER_RE.match(first)
    if match is None:
        raise ParseError(f"expected header 'n=<int>', found {first!r}", num, 1)
    n = int(match.group(1))
    if n < 1:
        raise ParseError("dimension must be at least 1", num, 1)
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} '{prefix}<i> {arrow} <polynomial>' lines "
                         f"after the header, found {len(lines) - 1}")
    polys = []
    for i, (num, raw) in enumerate(lines[1:], start=1):
        line = raw.strip()
        match = line_re.match(line)
        if match is None:
            raise ParseError(f"expected '{prefix}{i} {arrow} <polynomial>', found {line!r}",
                             num, 1)
        index = int(match.group(1))
        if index != i:
            raise ParseError(f"{kind} lines must appear in order; expected "
                             f"{prefix}{i}, found {prefix}{index}", num, 1)
        col = len(raw) - len(raw.lstrip()) + match.start(2) + 1
        polys.append(_ExprParser(match.group(2), (num, col)).parse())
    return n, polys


def parse_automorphism(text: str) -> TriangularAutomorphism:
    """Parse the automorphism file format and validate triangularity."""
    n, coordinates = _coordinate_file(enumerate(text.splitlines(), start=1),
                                      _AUTOMORPHISM_FILE)
    lambdas = []
    tails = []
    for i, f in enumerate(coordinates, start=1):
        key = (0,) * (i - 1) + (1,)
        lam = f.coefficient(key)
        lambdas.append(lam)
        tails.append(f - Polynomial.monomial(lam, key) if lam else f)
    return TriangularAutomorphism(n, lambdas, tails)


def parse_derivation(text: str) -> TriangularDerivation:
    """Parse the derivation file format and validate triangularity."""
    return TriangularDerivation(*_coordinate_file(enumerate(text.splitlines(), start=1),
                                                  _DERIVATION_FILE))


def parse_derivation_blocks(text: str) -> list[TriangularDerivation]:
    """Parse a file of derivation blocks separated by blank lines; error
    positions are the file's."""
    lines = enumerate(text.splitlines(), start=1)
    blocks = [list(block) for blank, block in groupby(lines, lambda line: not line[1].strip())
              if not blank]
    if not blocks:
        raise ParseError("no derivation blocks found")
    return [TriangularDerivation(*_coordinate_file(block, _DERIVATION_FILE))
            for block in blocks]
