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

The parser works on the packed numerators of `triaut.polynomials`.  A
token is a string, its own text: one `findall` of one regex splits an
expression into INT, VAR and operator tokens, and a token's kind is read
from its first character.  Before that, one regex search finds the first
character no token starts with, and the variable indices ahead of it,
read by one more `findall`, give the expression's nvars and show a
variable x0; of those two errors the earlier in the text is raised.
Offsets are not kept: a token's offset is found again, by scanning the
text, only when an error at that token is raised, and becomes a
(line, col) file position; a file line is matched whole, blanks
included, and its expression is the rest of the line after the arrow.
A term is (numerators, denominator).  Without parentheses it is one
packed key over one numerator: an INT multiplies the numerator, x_i^e
adds e to x_i's exponent field of the key and /INT multiplies the
denominator.  Only a parenthesised factor becomes a `Polynomial`, and a
term holding one is multiplied out by `*`.  Each expression adds its
further terms into its first term's dict over a running common
denominator, by `polynomials._merged`, and is normalised once, in the
file's ambient n when it is a file line.

The canonical printers (to_text / str) emit exactly this grammar, and
print -> parse -> print is a fixed point byte for byte.
"""

from __future__ import annotations

import re
from decimal import Decimal
from itertools import groupby, islice
from typing import Iterable

from .automorphisms import TriangularAutomorphism, _TAIL_LABEL, _shape_error
from .derivations import TriangularDerivation, _COEFFICIENT_LABEL
from .errors import ParseError
from .polynomials import (
    EXPONENT_BITS,
    Polynomial,
    _LIMIT,
    _SHIFT,
    _digits,
    _merged,
    _normalised,
    _scalar,
)

# A token is its own text: an INT, a VAR or an operator character.  Any
# other non-blank character is an error, found by _STRAY_RE: an 'x' that
# no digit follows, or a character no token starts with.
_TOKEN_RE = re.compile(r"x?\d+|[+\-*/^()]")
_STRAY_RE = re.compile(r"x(?!\d)|[^\sx\d+\-*/^()]")
_VAR_RE = re.compile(r"x(\d+)")
_END = ""  # the token after the last one

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

    The tokens are the texts `_TOKEN_RE` finds, then `_END`; a token's kind
    is read from its first character.  A token's offset in the text (for
    `_END`, just past the last non-blank character) is found again only
    when an error at that token is raised, and converted to a file
    position.  `nvars` is the largest variable index in the text.
    """

    def __init__(self, text: str, start: tuple[int, int]):
        self.text = text
        self.start = start
        stray = _STRAY_RE.search(text)
        end = stray.start() if stray else len(text)
        # every variable before the first stray character is a VAR token
        indices = list(map(int, _VAR_RE.findall(text, 0, end)))
        if 0 in indices:
            zero = next(m for m in _VAR_RE.finditer(text) if not int(m[1]))
            raise self._error("variable index must be at least 1", zero.start())
        if stray:
            raise self._error(f"unexpected character {stray[0]!r}", stray.start())
        self.nvars = max(indices, default=0)
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append(_END)
        self.pos = 0

    def _error(self, message: str, offset: int) -> ParseError:
        line, col = self.start
        newlines = self.text.count("\n", 0, offset)
        if newlines:
            line, col = line + newlines, offset - self.text.rfind("\n", 0, offset)
        else:
            col += offset
        return ParseError(message, line, col)

    def _offset(self, index: int) -> int:
        """Offset in the text of token number `index`."""
        if index == len(self.tokens) - 1:
            return len(self.text.rstrip())
        return next(islice(_TOKEN_RE.finditer(self.text), index, None)).start()

    def _fail(self, index: int, expected: str):
        """Raise at token number `index`: `expected` was not found there."""
        tok = self.tokens[index]
        if tok == _END:
            shown = "end of input"
        elif tok[0] == "x":
            shown = repr(f"x{int(tok[1:])}")
        elif tok.isdigit():
            shown = repr(_digits(_integer(tok)))
        else:
            shown = repr(tok)
        raise self._error(f"expected {expected}, found {shown}", self._offset(index))

    def parse(self) -> _Parsed:
        num, den = self.poly()
        if self.tokens[self.pos] != _END:
            self._fail(self.pos, "end of expression")
        return num, den, self.nvars

    def poly(self) -> tuple[dict[int, int], int]:
        """(numerators, denominator) of the expression at the current token,
        not normalised: the first term's dict, with each further term added
        into it by `_merged` as it is read."""
        tokens = self.tokens
        negated = tokens[self.pos] == "-"
        self.pos += negated
        num, den = self.term()
        if negated:
            num = {k: -c for k, c in num.items()}
        while (op := tokens[self.pos]) == "+" or op == "-":
            self.pos += 1
            tnum, tden = self.term()
            num, den = _merged(num, den, tnum, tden, 1 if op == "+" else -1, True)
        return num, den

    def term(self) -> tuple[dict[int, int], int]:
        """(numerators, denominator) of the term at the current token, in a
        fresh dict with no zero numerator."""
        tokens = self.tokens
        pos = self.pos
        n = d = 1
        key = 0
        factors = None  # product of the parenthesised factors
        while True:
            tok = tokens[pos]
            pos += 1
            if tok.isdigit():
                n *= _integer(tok)
            elif tok[:1] == "x":
                index = int(tok[1:])
                shift = _SHIFT * (index - 1)
                if tokens[pos] == "^":
                    exp = tokens[pos + 1]
                    if not exp.isdigit():
                        self._fail(pos + 1, "a non-negative integer exponent")
                    pos += 2
                    e = _integer(exp)
                    if e >= _LIMIT:
                        raise ValueError(f"exponent {e} of x{index} is not below "
                                         f"2**{EXPONENT_BITS}")
                    key += e << shift
                else:
                    key += 1 << shift
                if key >> shift & _LIMIT:  # the guard bit of x_i's field
                    raise ValueError(f"term has an exponent of x{index} not below "
                                     f"2**{EXPONENT_BITS}")
            elif tok == "(":
                self.pos = pos
                inner = _normalised(*self.poly(), self.nvars)
                pos = self.pos
                if tokens[pos] != ")":
                    self._fail(pos, "')'")
                pos += 1
                factors = inner if factors is None else factors * inner
            else:
                self._fail(pos - 1, "a number, variable, or '('")
            while True:
                tok = tokens[pos]
                if tok == "*":
                    pos += 1
                    break
                if tok != "/":
                    self.pos = pos
                    if not n:
                        return {}, 1
                    if factors is None:
                        return {key: n}, d
                    p = factors * _normalised({key: n}, d, self.nvars)
                    return p._num, p._den
                divisor = tokens[pos + 1]
                if not divisor.isdigit():
                    self._fail(pos + 1, "an integer divisor")
                if not (c := _integer(divisor)):
                    raise self._error("division by zero", self._offset(pos + 1))
                d *= c
                pos += 2


def parse_polynomial(text: str) -> Polynomial:
    """Parse one polynomial expression; the whole text must be consumed.
    Error positions count from line 1, col 1 of the text."""
    return _normalised(*_ExprParser(text, (1, 1)).parse())


_HEADER_RE = re.compile(r"^n\s*=\s*(\d+)$")

# The two file formats as (line prefix, arrow, what a line gives, entry
# label of the shape error, line pattern): "x<i> -> <poly>" coordinates
# and "dx<i> <- <poly>" coefficients.  A pattern matches the whole line,
# blanks around it included, and its expression starts right after the
# arrow, so a blank expression ends there, as on the stripped line.
_AUTOMORPHISM_FILE = ("x", "->", "coordinate", _TAIL_LABEL,
                      re.compile(r"\s*x(\d+)\s*->(.*)"))
_DERIVATION_FILE = ("dx", "<-", "coefficient", _COEFFICIENT_LABEL,
                    re.compile(r"\s*dx(\d+)\s*<-(.*)"))


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
    for i, (num, line) in enumerate(lines[1:], start=1):
        match = line_re.fullmatch(line)
        if match is None:
            raise ParseError(f"expected '{prefix}{i} {arrow} <polynomial>', "
                             f"found {line.strip()!r}", num, 1)
        index = int(match[1])
        if index != i:
            raise ParseError(f"{kind} lines must appear in order; expected "
                             f"{prefix}{i}, found {prefix}{index}", num, 1)
        parser = _ExprParser(match[2], (num, match.start(2) + 1))
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
    for i, (num, den, _) in enumerate(coordinates, start=1):
        lambdas.append(_scalar(num.pop(1 << (_SHIFT * (i - 1)), 0), den))
        tails.append(_normalised(num, den, n))
    return TriangularAutomorphism(n, lambdas, tails)


def _derivation(lines: Iterable[tuple[int, str]]) -> TriangularDerivation:
    n, coeffs = _coordinate_file(lines, _DERIVATION_FILE)
    return TriangularDerivation(n, [_normalised(num, den, n) for num, den, _ in coeffs])


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
