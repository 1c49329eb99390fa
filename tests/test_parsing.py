import sys
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from triaut.automorphisms import random_triangular, staircase_map
from triaut.derivations import random_triangular_derivation
from triaut.errors import ParseError, TriangularityError
from triaut.parsing import (
    parse_automorphism,
    parse_derivation,
    parse_derivation_blocks,
    parse_polynomial,
)
from triaut.polynomials import Polynomial

from helpers import random_polynomial, to_sympy

x1 = Polynomial.variable(1)
x2 = Polynomial.variable(2)
x3 = Polynomial.variable(3)


def test_integers_past_the_int_str_digit_limit_round_trip():
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    ones = "1" * 5000
    p = parse_polynomial(ones)
    assert p == (10 ** 5000 - 1) // 9 and str(p) == ones
    assert str(parse_polynomial(f"{ones}/7*x1^2 - x2")) == f"-x2 + {ones}/7*x1^2"
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_parse_the_degree_four_coordinate():
    p = parse_polynomial("x3 + 2*x2^2 + 2*x1^2*x2 + x1^4")
    assert p == x3 + 2 * x2 ** 2 + 2 * x1 ** 2 * x2 + x1 ** 4
    assert str(p) == "x3 + 2*x2^2 + 2*x1^2*x2 + x1^4"


def test_parse_zero_and_constants():
    assert parse_polynomial("0") == Polynomial.zero()
    assert parse_polynomial("7/2") == Polynomial.constant(Fraction(7, 2))
    assert parse_polynomial("-3") == Polynomial.constant(-3)


def test_scalar_division_binds_per_term():
    assert parse_polynomial("3/2*x1 - x1/2") == x1
    assert parse_polynomial("x1/2/2") == x1 / 4


def test_parentheses_and_products():
    assert parse_polynomial("(x1 + x2)*(x1 - x2)") == x1 ** 2 - x2 ** 2
    assert parse_polynomial("2*(x1 + 1)") == 2 * x1 + 2


# Each text against the same expression in Polynomial arithmetic, nvars
# included: the ambient is the largest variable index in the text.
NON_CANONICAL = [
    ("x2*x1", lambda: x2 * x1),
    ("x1*x1", lambda: x1 * x1),
    ("2*x1*3/4", lambda: 2 * x1 * 3 / 4),
    ("x1^0", lambda: x1 ** 0),
    ("x1 - x1", lambda: x1 - x1),
    ("0*x1 + 0", lambda: 0 * x1 + 0),
    ("(x1+1)*(x1-1)/2", lambda: (x1 + 1) * (x1 - 1) / 2),
    ("-(x1 - 2)*3", lambda: -(x1 - 2) * 3),
    ("x1/2/2", lambda: x1 / 2 / 2),
    ("x3^2*2*x1/6*(x2 - 1/3)*x1 - 1/6 + x1^2*x3^2/3",
     lambda: x3 ** 2 * 2 * x1 / 6 * (x2 - Fraction(1, 3)) * x1 - Fraction(1, 6)
     + x1 ** 2 * x3 ** 2 / 3),
    ("(x2)*(x1 + x2)*(1)/4 - 1/4*x2^2 + 0/7", lambda: x2 * (x1 + x2) / 4 - x2 ** 2 / 4),
    ("x1/2 + x2/3 - x1/2", lambda: x1 / 2 + x2 / 3 - x1 / 2),
    ("x1 + 0/3", lambda: x1 + 0),
    ("(x1+1)/6 - x1/6", lambda: (x1 + 1) / 6 - x1 / 6),
    ("0*(x1+1)/5", lambda: 0 * (x1 + 1) / 5),
]


@pytest.mark.parametrize("text, build", NON_CANONICAL)
def test_non_canonical_input_matches_arithmetic(text, build):
    expected = build()
    p = parse_polynomial(text)
    assert p == expected
    assert p.nvars == expected.nvars
    assert str(p) == str(expected)


def test_exponent_limit():
    top = parse_polynomial("x1^65535")
    assert top == x1 ** 65535 and str(top) == "x1^65535"
    assert parse_polynomial("x2^65535*x1^65535*x3") == x1 ** 65535 * x2 ** 65535 * x3
    for text in ("x1^65536", "x1^40000*x1^40000", "x2*x1^65535*x1", "(x1^40000)*x1^40000",
                 "x1^99999999999999999999"):
        with pytest.raises(ValueError):
            parse_polynomial(text)


def _random_expression(rng: Random, sympy, gens, depth: int):
    """(text, sympy value) of a random expression of the grammar, with
    repeated and unordered variables, zero factors, chained divisions and
    parenthesised subexpressions nested up to `depth`."""
    pieces, value = [], 0
    for k in range(rng.randint(1, 3)):
        factors, term = [], sympy.Integer(1)
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            if r < 0.3:
                c = rng.randint(0, 12)
                factors.append(str(c))
                term *= c
            elif r < 0.75 or depth == 0:
                i, e = rng.randint(1, len(gens)), rng.randint(0, 3)
                factors.append(f"x{i}" if e == 1 and rng.random() < 0.5 else f"x{i}^{e}")
                term *= gens[i - 1] ** e
            else:
                text, inner = _random_expression(rng, sympy, gens, depth - 1)
                factors.append(f"({text})")
                term *= inner
        text = "*".join(factors)
        while rng.random() < 0.3:
            d = rng.randint(1, 6)
            text += f"/{d}"
            term *= sympy.Rational(1, d)
        negative = rng.random() < 0.4
        if k == 0:
            pieces.append(f"-{text}" if negative else text)
        else:
            pieces.append(f"- {text}" if negative else f"+ {text}")
        value += -term if negative else term
    return " ".join(pieces), value


def test_parse_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x1:5")
    rng = Random(617)
    for _ in range(150):
        text, value = _random_expression(rng, sympy, gens, depth=2)
        p = parse_polynomial(text)
        assert sympy.expand(to_sympy(sympy, p, gens) - value) == 0, text
        assert parse_polynomial(str(p)) == p


_BLANKS = ["", "", "", " ", "  ", "\t", "\n", " \n\t"]


def _noncanonical_text(rng: Random, nvars: int, depth: int) -> str:
    """A random text of the grammar, far from canonical: factors in any
    order, repeated variables, /INT between factors, parentheses nested up
    to `depth` and stray blanks (tabs and newlines too) between tokens."""
    def blank():
        return rng.choice(_BLANKS)

    terms = []
    for k in range(rng.randint(1, 4)):
        text = ""
        for j in range(rng.randint(1, 4)):
            r = rng.random()
            if r < 0.25:
                factor = str(rng.randint(0, 30))
            elif r < 0.8 or depth == 0:
                factor = f"x{rng.randint(1, nvars)}"
                if rng.random() < 0.5:
                    factor += f"{blank()}^{blank()}{rng.randint(0, 4)}"
            else:
                factor = f"({blank()}{_noncanonical_text(rng, nvars, depth - 1)}{blank()})"
            text += (f"{blank()}*{blank()}" if j else "") + factor
            while rng.random() < 0.25:
                text += f"{blank()}/{blank()}{rng.randint(1, 12)}"
        if k:
            text = f"{blank()}{rng.choice('+-')}{blank()}{text}"
        elif rng.random() < 0.3:
            text = f"-{blank()}{text}"
        terms.append(text)
    return "".join(terms)


def test_parse_polynomial_reads_non_canonical_text_as_sympy_does():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x1:5")
    names = {str(g): g for g in gens}
    rng = Random(618)
    for _ in range(150):
        text = _noncanonical_text(rng, len(gens), depth=2)
        # inside parentheses Python's tokenizer, and so sympy's, joins lines
        expected = sympy.parse_expr(f"({text.replace('^', '**')})", local_dict=names)
        p = parse_polynomial(text)
        assert sympy.expand(to_sympy(sympy, p, gens) - expected) == 0, text


def test_whitespace_insensitive():
    assert parse_polynomial("x1+2*x2^2") == parse_polynomial(" x1 + 2 * x2 ^ 2 ")


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 + + x2")
    assert err.value.line == 1 and err.value.col == 6
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 +\n  3 * $")
    assert err.value.line == 2 and err.value.col == 7
    with pytest.raises(ParseError) as err:
        parse_polynomial("x0")
    assert "index" in str(err.value)
    with pytest.raises(ParseError):
        parse_polynomial("x1^-1")
    with pytest.raises(ParseError):
        parse_polynomial("x1^(2)")
    with pytest.raises(ParseError):
        parse_polynomial("x1 x2")
    with pytest.raises(ParseError):
        parse_polynomial("")


# A variable token's position is its 'x', not its digits.
EXPRESSION_ERRORS = [
    ("x1 x22", "line 1, col 4: expected end of expression, found 'x22'"),
    ("2 +\n  x0", "line 2, col 3: variable index must be at least 1"),
    ("3/x1", "line 1, col 3: expected an integer divisor, found 'x1'"),
    ("x1^x2", "line 1, col 4: expected a non-negative integer exponent, found 'x2'"),
    ("(x1 + 1 x3", "line 1, col 9: expected ')', found 'x3'"),
    ("x1 * )", "line 1, col 6: expected a number, variable, or '(', found ')'"),
    ("x1^ ", "line 1, col 4: expected a non-negative integer exponent, found end of input"),
    ("x1/0", "line 1, col 4: division by zero"),
    # '²'.isdigit() is True, but no token starts with it
    ("x1²", "line 1, col 3: unexpected character '²'"),
    ("x", "line 1, col 1: unexpected character 'x'"),
    # of an unexpected character and a variable x0, the first in the text wins
    ("x0 + $", "line 1, col 1: variable index must be at least 1"),
    ("$ + x0", "line 1, col 1: unexpected character '$'"),
    ("x1 + x00 $", "line 1, col 6: variable index must be at least 1"),
    # a token shows as the value it spells
    ("x1 x01", "line 1, col 4: expected end of expression, found 'x1'"),
    ("x1 007", "line 1, col 4: expected end of expression, found '7'"),
    ("x1 ٣", "line 1, col 4: expected end of expression, found '3'"),
    ("1/(x1)", "line 1, col 3: expected an integer divisor, found '('"),
    # a tab counts as one column, and a newline starts the next line
    ("x1 +\t*", "line 1, col 6: expected a number, variable, or '(', found '*'"),
    ("x1 *\n\t\n  2 x2", "line 3, col 5: expected end of expression, found 'x2'"),
    ("(x1\n", "line 1, col 4: expected ')', found end of input"),
    ("x1 /\t0", "line 1, col 6: division by zero"),
]


def test_an_integer_past_the_int_str_digit_limit_shows_in_an_error():
    digits = "7" * 5000
    with pytest.raises(ParseError) as err:
        parse_polynomial(f"x1 {digits}")
    assert str(err.value) == f"line 1, col 4: expected end of expression, found '{digits}'"


# Texts whose reading hangs on how digits, blanks and variables are split
# into tokens: Unicode digits, leading zeros, tabs, newlines, long INTs.
ACCEPTED = [
    ("٣*x١", "3*x1", 1),  # Arabic-Indic digits are digits
    ("x01^02 + 007", "7 + x1^2", 1),
    ("x1\t+\n2*x2\n", "x1 + 2*x2", 2),
    ("( x1 )*(x2)", "x1*x2", 2),
    ("1" * 4400 + "/2", "1" * 4400 + "/2", 0),
]


@pytest.mark.parametrize("text, canonical, nvars", ACCEPTED)
def test_texts_the_tokenizer_must_read_as_before(text, canonical, nvars):
    p = parse_polynomial(text)
    assert (str(p), p.nvars) == (canonical, nvars)


@pytest.mark.parametrize("text, message", EXPRESSION_ERRORS)
def test_expression_error_texts_are_pinned(text, message):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text)
    assert str(err.value) == message


def test_parse_automorphism_round_trip():
    text = "n=3\nx1 -> x1\nx2 -> x2 + x1^2\nx3 -> x3 + x2^2\n"
    phi = parse_automorphism(text)
    assert phi == staircase_map(3, 2)
    assert phi.to_text() == text


def test_parse_identity_automorphism():
    phi = parse_automorphism("n=2\nx1 -> x1\nx2 -> x2\n")
    assert phi.is_identity()


def test_parse_automorphism_reports_offending_coordinate():
    with pytest.raises(TriangularityError) as err:
        parse_automorphism("n=3\nx1 -> x1\nx2 -> x2 + x3\nx3 -> x3\n")
    assert "coordinate 2" in str(err.value)


def test_parse_automorphism_header_and_count_errors():
    with pytest.raises(ParseError):
        parse_automorphism("nope\nx1 -> x1\n")
    with pytest.raises(ParseError):
        parse_automorphism("n=2\nx1 -> x1\n")
    with pytest.raises(ParseError):
        parse_automorphism("n=1\nx2 -> x2\n")
    with pytest.raises(ParseError):
        parse_automorphism("n=0\n")
    with pytest.raises(ParseError):
        parse_automorphism("")


def test_parse_derivation_round_trip():
    text = "n=2\ndx1 <- 1\ndx2 <- x1\n"
    d = parse_derivation(text)
    assert d.to_text() == text


def test_parse_derivation_blocks():
    blocks = parse_derivation_blocks(
        "n=2\ndx1 <- 1\ndx2 <- 0\n\n\nn=2\ndx1 <- 0\ndx2 <- x1\n")
    assert len(blocks) == 2
    with pytest.raises(ParseError):
        parse_derivation_blocks("   \n  \n")


def test_polynomial_round_trip_random():
    rng = Random(600)
    for _ in range(150):
        p = random_polynomial(rng, rng.randint(1, 4), rng.randint(0, 4))
        text = str(p)
        assert parse_polynomial(text) == p
        assert str(parse_polynomial(text)) == text


def test_automorphism_round_trip_random():
    rng = Random(601)
    for _ in range(60):
        phi = random_triangular(rng.randint(1, 4), rng.randint(1, 3), rng=rng)
        text = phi.to_text()
        assert parse_automorphism(text) == phi
        assert parse_automorphism(text).to_text() == text


def test_derivation_round_trip_random():
    rng = Random(602)
    for _ in range(60):
        d = random_triangular_derivation(rng.randint(1, 4), rng.randint(0, 3), rng=rng)
        text = d.to_text()
        assert parse_derivation(text) == d
        assert parse_derivation(text).to_text() == text


# (text, exception type, exact message) for both file formats: a bad header,
# a wrong line count, a malformed line, an out-of-order line, a
# non-triangular entry, and syntax errors at their file line and column.
FILE_FORMAT_ERRORS = [
    (parse_automorphism, "nope\nx1 -> x1\n", ParseError,
     "line 1, col 1: expected header 'n=<int>', found 'nope'"),
    (parse_automorphism, "n=2\nx1 -> x1\n", ParseError,
     "expected 2 'x<i> -> <polynomial>' lines after the header, found 1"),
    (parse_automorphism, "n=2\nx1 -> x1\n  x2 => x2\n", ParseError,
     "line 3, col 1: expected 'x2 -> <polynomial>', found 'x2 => x2'"),
    (parse_automorphism, "n=2\n\nx2 -> x2\nx1 -> x1\n", ParseError,
     "line 3, col 1: coordinate lines must appear in order; expected x1, found x2"),
    (parse_automorphism, "n=2\nx1 -> x1 + x2\nx2 -> x2\n", TriangularityError,
     "tail of coordinate 1 mentions x2; it must be a constant"),
    # an index beyond n is rejected when its line is tokenized, cancelling or not
    (parse_automorphism, "n=2\nx1 -> x1\nx2 -> x2 + x9 - x9\n", TriangularityError,
     "tail of coordinate 2 mentions x9; only x1..x1 allowed"),
    (parse_derivation, "n=x\ndx1 <- 1\n", ParseError,
     "line 1, col 1: expected header 'n=<int>', found 'n=x'"),
    (parse_derivation, "n=2\ndx1 <- 1\n", ParseError,
     "expected 2 'dx<i> <- <polynomial>' lines after the header, found 1"),
    (parse_derivation, "n=2\ndx1 <- 1\ndx2 < x1\n", ParseError,
     "line 3, col 1: expected 'dx2 <- <polynomial>', found 'dx2 < x1'"),
    (parse_derivation, "n=2\ndx2 <- 1\ndx1 <- 0\n", ParseError,
     "line 2, col 1: coefficient lines must appear in order; expected dx1, found dx2"),
    (parse_derivation, "n=2\ndx1 <- x1\ndx2 <- 0\n", TriangularityError,
     "coefficient of d/dx1 mentions x1; it must be a constant"),
    (parse_derivation, "n=2\ndx1 <- 1\ndx2 <- x2\n", TriangularityError,
     "coefficient of d/dx2 mentions x2; only x1..x1 allowed"),
    (parse_derivation, "n=2\ndx1 <- 1\ndx2 <- 1 + x3\n", TriangularityError,
     "coefficient of d/dx2 mentions x3; only x1..x1 allowed"),
    (parse_derivation, "", ParseError, "empty input; expected a header line 'n=<int>'"),
    (parse_derivation, "n=0\n", ParseError, "line 1, col 1: dimension must be at least 1"),
    (parse_automorphism, "n=1\nx1 -> x1 + \n", ParseError,
     "line 2, col 11: expected a number, variable, or '(', found end of input"),
    (parse_automorphism, "n=1\nx1 -> x1 + $\n", ParseError,
     "line 2, col 12: unexpected character '$'"),
    (parse_automorphism, "n=2\nx1 -> x1\n\n   x2  ->  x2 + (x1\n", ParseError,
     "line 4, col 20: expected ')', found end of input"),
    (parse_derivation_blocks, "n=1\ndx1 <- 1\n\nn=1\ndx1 <- $\n", ParseError,
     "line 5, col 8: unexpected character '$'"),
]


@pytest.mark.parametrize("parse, text, error, message", FILE_FORMAT_ERRORS)
def test_file_format_error_texts_are_pinned(parse, text, error, message):
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error
    assert str(err.value) == message


# Blanks around a file line, Unicode ones and "\r" line ends included:
# columns count from the raw line, and trailing blanks end no expression.
LINE_BLANKS = [
    ("n=1\nx1 -> x1 + \t \n",
     "line 2, col 11: expected a number, variable, or '(', found end of input"),
    ("n=1\n\t x1\t->\tx1 $\n", "line 2, col 12: unexpected character '$'"),
    ("n=2\r\nx1 -> -x1\r\n x2 ->  x2 + \xa0( x1\u3000\r\n",
     "line 3, col 19: expected ')', found end of input"),
    ("n=1\r\rx1 -> x1 $", "line 3, col 10: unexpected character '$'"),
    # a blank expression ends right after the arrow, whatever blanks follow
    ("n=1\n x1 ->   \n",
     "line 2, col 7: expected a number, variable, or '(', found end of input"),
    ("n=2\ndx1 <- 0\ndx2 <-\t\xa0\n",
     "line 3, col 7: expected a number, variable, or '(', found end of input"),
    ("n=1\n\u2003x1 -> 2*x1\u2003\n", None),
]


@pytest.mark.parametrize("text, message", LINE_BLANKS)
def test_blanks_around_a_file_line_keep_its_columns(text, message):
    if message is None:
        assert parse_automorphism(text).to_text() == "n=1\nx1 -> 2*x1\n"
        return
    with pytest.raises(ParseError) as err:
        (parse_derivation if "\ndx" in text else parse_automorphism)(text)
    assert str(err.value) == message


def test_tail_beyond_the_ambient_is_reported_as_non_triangular():
    with pytest.raises(TriangularityError) as err:
        parse_automorphism("n=2\nx1 -> x1\nx2 -> x2 + x3\n")
    assert str(err.value) == "tail of coordinate 2 mentions x3; only x1..x1 allowed"


# Digit tokens of a file read as int() reads them, Unicode digits and
# leading zeros included, also past int()'s 4,300-digit limit: a line
# label, an exponent, a variable index and the header n.
FILE_DIGITS = [
    ("n=1\nx١ -> x1\n", "n=1\nx1 -> x1\n"),
    ("n=2\nx1 -> x1\nx2 -> x2 + x1^٠٠٠٠٠٢\n",
     "n=2\nx1 -> x1\nx2 -> x2 + x1^2\n"),
    ("n=2\nx1 -> x1\nx2 -> x2 + x1^" + "0" * 5000 + "2\n",
     "n=2\nx1 -> x1\nx2 -> x2 + x1^2\n"),
    ("n=1\nx1 -> x1 + x" + "0" * 5000 + "1\n", "n=1\nx1 -> 2*x1\n"),
    ("n=1\nx1 -> x1 + x" + "٠" * 5000 + "١\n", "n=1\nx1 -> 2*x1\n"),
    ("n=" + "0" * 5000 + "1\nx" + "0" * 5000 + "1 -> x1\n", "n=1\nx1 -> x1\n"),
]


@pytest.mark.parametrize("text, canonical", FILE_DIGITS)
def test_file_digit_tokens_read_as_int_reads_them(text, canonical):
    assert parse_automorphism(text).to_text() == canonical


# A digit token too large for its place gets the parser's own error, which
# shows the token's value in ASCII digits, however long the token is.
TOO_LARGE = [
    ("n=2\nx1 -> x1\nx2 -> x2 + x١^٧٠٠٠٠\n", ValueError,
     "exponent 70000 of x1 is not below 2**16"),
    ("n=2\nx1 -> x1\nx2 -> x2 + x1^0" + "9" * 5000 + "\n", ValueError,
     f"exponent {'9' * 5000} of x1 is not below 2**16"),
    ("n=1\nx1 -> x1 + x٣\n", TriangularityError,
     "tail of coordinate 1 mentions x3; it must be a constant"),
    ("n=1\nx1 -> x1 + x" + "1" * 5000 + " + x" + "0" * 5000 + "9" * 4999 + "\n",
     TriangularityError, f"tail of coordinate 1 mentions x{'1' * 5000}; it must be a constant"),
    ("n=1\nx" + "1" * 5000 + " -> x1\n", ParseError,
     f"line 2, col 1: coordinate lines must appear in order; expected x1, found x{'1' * 5000}"),
    ("n=" + "1" * 5000 + "\nx1 -> x1\n", ParseError,
     f"expected {'1' * 5000} 'x<i> -> <polynomial>' lines after the header, found 1"),
]


@pytest.mark.parametrize("text, error, message", TOO_LARGE)
def test_a_digit_token_too_large_for_its_place_gets_the_parser_error(text, error, message):
    with pytest.raises(error) as err:
        parse_automorphism(text)
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("parse, text, message", [
    (parse_automorphism, "n=2\nx1 -> x1\nx2 -> x2 + x3000000\n",
     "tail of coordinate 2 mentions x3000000; only x1..x1 allowed"),
    (parse_derivation, "n=2\ndx1 <- 1\ndx2 <- 1 + x3000000\n",
     "coefficient of d/dx2 mentions x3000000; only x1..x1 allowed"),
])
def test_index_beyond_n_is_rejected_before_a_key_is_packed(parse, text, message):
    # a packed key for x3000000 would take 17 * 3000000 bits
    tracemalloc.start()
    try:
        with pytest.raises(TriangularityError) as err:
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    assert peak < 2 ** 20
