"""print -> parse -> print is a fixed point, on generated inputs."""

import pytest

from triaut.automorphisms import make
from triaut.derivations import make_derivation
from triaut.parsing import parse_automorphism, parse_derivation, parse_polynomial
from triaut.polynomials import Polynomial

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# Small, derandomized example budget: the suite stays deterministic.
_SETTINGS = hypothesis.settings(max_examples=60, derandomize=True, deadline=None,
                                database=None)

_rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)
_nonzero = _rationals.filter(bool)


@st.composite
def _tails(draw, n: int) -> list[Polynomial]:
    """Triangular tails: tail i involves x1..x_{i-1} only."""
    tails = []
    for i in range(n):
        keys = st.tuples(*[st.integers(0, 5)] * i, *[st.just(0)] * (n - i))
        tails.append(Polynomial(draw(st.dictionaries(keys, _rationals, max_size=6)), n))
    return tails


@st.composite
def _automorphisms(draw):
    n = draw(st.integers(1, 4))
    return make(n, draw(st.lists(_nonzero, min_size=n, max_size=n)), draw(_tails(n)))


@st.composite
def _derivations(draw):
    n = draw(st.integers(1, 4))
    return make_derivation(n, draw(_tails(n)))


@_SETTINGS
@hypothesis.given(_automorphisms())
def test_automorphism_print_parse_print_is_a_fixed_point(phi):
    text = phi.to_text()
    parsed = parse_automorphism(text)
    assert parsed == phi
    assert parsed.to_text() == text


@_SETTINGS
@hypothesis.given(_derivations())
def test_derivation_print_parse_print_is_a_fixed_point(d):
    text = d.to_text()
    parsed = parse_derivation(text)
    assert parsed == d
    assert parsed.to_text() == text


@_SETTINGS
@hypothesis.given(st.dictionaries(st.tuples(*[st.integers(0, 8)] * 4), _rationals, max_size=8))
def test_polynomial_print_parse_print_is_a_fixed_point(terms):
    p = Polynomial(terms, 4)
    parsed = parse_polynomial(str(p))
    assert parsed == p
    assert str(parsed) == str(p)
