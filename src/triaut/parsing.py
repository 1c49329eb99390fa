"""Text grammar for polynomials, automorphisms, and derivations.

Expression grammar (whitespace-insensitive):

    poly   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' factor) | ('/' INT))*
    factor := INT | VAR ['^' INT] | '(' poly ')'
    VAR    := 'x' INT        with variable index >= 1
    INT    := digits

Division is scalar division by an integer literal only; exponents are
non-negative integer literals below 2**EXPONENT_BITS, and so is every
exponent of a term's product (else ValueError).  File formats are
line-oriented:

    automorphism:  "n=<int>" then lines "x<i> -> <poly>" for i = 1..n
    derivation:    "n=<int>" then lines "dx<i> <- <poly>" for i = 1..n

The parser works on the packed numerators of `triaut.polynomials`.  One
regex splits an expression into tokens (kind, value, offset), and the
offset becomes a (line, col) file position only when an error is raised.
A term is (numerators, denominator).  Without parentheses it is one
packed key over one numerator: an INT multiplies the numerator, x_i^e
adds e to x_i's exponent field of the key and /INT multiplies the
denominator.  Only a parenthesised factor becomes a `Polynomial`, and a
term holding one is multiplied out by `*`.  Each expression adds its
further terms into its first term's dict over a running common
denominator, by `polynomials._merged`, and is normalised once.

The canonical printers (to_text / str) emit exactly this grammar, and
print -> parse -> print is a fixed point byte for byte.
"""

from __future__ import annotations

import re
from decimal import Decimal
from itertools import groupby
from typing import Iterable

from .automorphisms import TriangularAutomorphism, _TAIL_LABEL, _shape_error
from .derivations import TriangularDerivation, _COEFFICIENT_LABEL
from .errors import ParseError
from .polynomials import (
    EXPONENT_BITS,
    Polynomial,
    _LIMIT,
    _SHIFT,
    _merged,
    _normalised,
    _scalar,
)

# One group per token kind: INT, VAR, operator, any other character.
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(x\d+)|([+\-*/^()])|(\S))")

# Numerators, denominator and ambient nvars of an expression, not normalised.
_Parsed = tuple[dict[int, int], int, int]


def _integer(digits: str) -> int:
    """The int an INT token spells.  Past the interpreter's limit on
    str-to-int conversion (4,300 digits by default) `decimal.Decimal`
    converts instead: exactly, and with no digit limit."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


class _ExprParser:
    """Recursive descent over the tokens of `text`, which begins at file
    position `start` = (line, col).

    A token is a tuple (kind, value, offset): kind "int" or "var" with the
    integer or the variable index as value, an operator character as both
    kind and value, or "end" after the last token.  The offset is the index
    of the token's first character in the text (for "end", just past the
    last non-blank character); an error converts it to a file position.
    """

    def __init__(self, text: str, start: tuple[int, int]):
        self.text = text
        self.start = start
        self.nvars = 0  # the largest variable index in the text
        self.tokens = self._tokens()
        self.pos = 0

    def _error(self, message: str, offset: int) -> ParseError:
        line, col = self.start
        newlines = self.text.count("\n", 0, offset)
        if newlines:
            line, col = line + newlines, offset - self.text.rfind("\n", 0, offset)
        else:
            col += offset
        return ParseError(message, line, col)

    def _tokens(self) -> list[tuple]:
        tokens = []
        for match in _TOKEN_RE.finditer(self.text):
            kind = match.lastindex
            value = match[kind]
            offset = match.start(kind)
            if kind == 1:
                tokens.append(("int", _integer(value), offset))
            elif kind == 2:
                index = int(value[1:])
                if index < 1:
                    raise self._error("variable index must be at least 1", offset)
                if index > self.nvars:
                    self.nvars = index
                tokens.append(("var", index, offset))
            elif kind == 3:
                tokens.append((value, value, offset))
            else:
                raise self._error(f"unexpected character {value!r}", offset)
        tokens.append(("end", None, len(self.text.rstrip())))
        return tokens

    def _fail(self, tok: tuple, expected: str):
        kind, value, offset = tok
        if kind == "end":
            shown = "end of input"
        else:
            shown = repr(f"x{value}" if kind == "var" else str(value))
        raise self._error(f"expected {expected}, found {shown}", offset)

    def parse(self) -> _Parsed:
        num, den = self.poly()
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self._fail(tok, "end of expression")
        return num, den, self.nvars

    def poly(self) -> tuple[dict[int, int], int]:
        """(numerators, denominator) of the expression at the current token,
        not normalised: the first term's dict, with each further term added
        into it by `_merged` as it is read."""
        tokens = self.tokens
        negated = tokens[self.pos][0] == "-"
        self.pos += negated
        num, den = self.term()
        if negated:
            num = {k: -c for k, c in num.items()}
        while (kind := tokens[self.pos][0]) in ("+", "-"):
            self.pos += 1
            tnum, tden = self.term()
            num, den = _merged(num, den, tnum, tden, 1 if kind == "+" else -1, True)
        return num, den

    def term(self) -> tuple[dict[int, int], int]:
        """(numerators, denominator) of the term at the current token, in a
        fresh dict with no zero numerator."""
        tokens = self.tokens
        n = d = 1
        key = 0
        factors = None  # product of the parenthesised factors
        while True:
            tok = tokens[self.pos]
            self.pos += 1
            kind = tok[0]
            if kind == "int":
                n *= tok[1]
            elif kind == "var":
                shift = _SHIFT * (tok[1] - 1)
                if tokens[self.pos][0] == "^":
                    exp = tokens[self.pos + 1]
                    self.pos += 2
                    if exp[0] != "int":
                        self._fail(exp, "a non-negative integer exponent")
                    if exp[1] >= _LIMIT:
                        raise ValueError(f"exponent {exp[1]} of x{tok[1]} is not below "
                                         f"2**{EXPONENT_BITS}")
                    key += exp[1] << shift
                else:
                    key += 1 << shift
                if key >> shift & _LIMIT:  # the guard bit of x_i's field
                    raise ValueError(f"term has an exponent of x{tok[1]} not below "
                                     f"2**{EXPONENT_BITS}")
            elif kind == "(":
                inner = _normalised(*self.poly(), self.nvars)
                closing = tokens[self.pos]
                self.pos += 1
                if closing[0] != ")":
                    self._fail(closing, "')'")
                factors = inner if factors is None else factors * inner
            else:
                self._fail(tok, "a number, variable, or '('")
            while True:
                kind = tokens[self.pos][0]
                if kind == "*":
                    self.pos += 1
                    break
                if kind != "/":
                    if not n:
                        return {}, 1
                    if factors is None:
                        return {key: n}, d
                    p = factors * _normalised({key: n}, d, self.nvars)
                    return p._num, p._den
                divisor = tokens[self.pos + 1]
                self.pos += 2
                if divisor[0] != "int":
                    self._fail(divisor, "an integer divisor")
                if not divisor[1]:
                    raise self._error("division by zero", divisor[2])
                d *= divisor[1]


def parse_polynomial(text: str) -> Polynomial:
    """Parse one polynomial expression; the whole text must be consumed.
    Error positions count from line 1, col 1 of the text."""
    return _normalised(*_ExprParser(text, (1, 1)).parse())


_HEADER_RE = re.compile(r"^n\s*=\s*(\d+)$")

# The two file formats as (line prefix, arrow, what a line gives, entry
# label of the shape error, line pattern): "x<i> -> <poly>" coordinates
# and "dx<i> <- <poly>" coefficients.
_AUTOMORPHISM_FILE = ("x", "->", "coordinate", _TAIL_LABEL,
                      re.compile(r"^x(\d+)\s*->\s*(.*)$"))
_DERIVATION_FILE = ("dx", "<-", "coefficient", _COEFFICIENT_LABEL,
                    re.compile(r"^dx(\d+)\s*<-\s*(.*)$"))


def _coordinate_file(lines: Iterable[tuple[int, str]],
                     file_format) -> tuple[int, list[_Parsed]]:
    """(n, [expression of line i for i = 1..n]) from the header "n=<int>"
    and the n lines that follow it in order, given as (file line number,
    line) pairs; blank lines are skipped.  Each expression is (numerators,
    denominator, nvars) as `_ExprParser.parse` returns it.

    A line that names a variable beyond x_n raises the entry's
    TriangularityError once it is tokenized, before any key is packed (a
    key has one field per variable up to the index named), even where
    that variable would cancel."""
    prefix, arrow, kind, label, line_re = file_format
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
    exprs = []
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
        parser = _ExprParser(match.group(2), (num, col))
        if parser.nvars > n:
            raise _shape_error(label, i, parser.nvars)
        exprs.append(parser.parse())
    return n, exprs


def parse_automorphism(text: str) -> TriangularAutomorphism:
    """Parse the automorphism file format and validate triangularity.
    lambda_i is the x_i term popped from coordinate i's numerators, and the
    rest is tail i."""
    n, coordinates = _coordinate_file(enumerate(text.splitlines(), start=1),
                                      _AUTOMORPHISM_FILE)
    lambdas = []
    tails = []
    for i, (num, den, nvars) in enumerate(coordinates, start=1):
        lambdas.append(_scalar(num.pop(1 << (_SHIFT * (i - 1)), 0), den))
        tails.append(_normalised(num, den, nvars))
    return TriangularAutomorphism(n, lambdas, tails)


def _derivation(lines: Iterable[tuple[int, str]]) -> TriangularDerivation:
    n, coeffs = _coordinate_file(lines, _DERIVATION_FILE)
    return TriangularDerivation(n, [_normalised(*c) for c in coeffs])


def parse_derivation(text: str) -> TriangularDerivation:
    """Parse the derivation file format and validate triangularity."""
    return _derivation(enumerate(text.splitlines(), start=1))


def parse_derivation_blocks(text: str) -> list[TriangularDerivation]:
    """Parse a file of derivation blocks separated by blank lines; error
    positions are the file's."""
    lines = enumerate(text.splitlines(), start=1)
    blocks = [list(block) for blank, block in groupby(lines, lambda line: not line[1].strip())
              if not blank]
    if not blocks:
        raise ParseError("no derivation blocks found")
    return [_derivation(block) for block in blocks]
