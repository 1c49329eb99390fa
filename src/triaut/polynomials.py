"""Exact sparse multivariate polynomials over the rationals.

A polynomial is an integer polynomial over one positive common
denominator (the content-times-integer-polynomial layout of FLINT's
`fmpq_mpoly`), stored as a dict from packed exponent keys to integer
numerators, together with an ambient variable count `nvars`:

    x2**2/2 + 3*x1**2*x2  (nvars=2)
        ->  numerators {pack(0, 2): 1, pack(2, 1): 6}, denominator 2

Packed keys follow Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors" (CASC 2007): the exponent of
x_i (variables are 1-based throughout the public API) sits in bits
[(i-1)*S, i*S) of the key, S = EXPONENT_BITS + 1, which holds the
exponent in its low EXPONENT_BITS bits and keeps the top bit as a guard.
Multiplying monomials is one int addition, and a key does not depend on
`nvars`, so a polynomial viewed in a wider ambient is the same dict.

Exponents must stay below 2**EXPONENT_BITS.  Construction rejects a
larger one with ValueError, and a product whose exponent would reach
the limit sets a guard bit, which is checked once per product (one pass
over the result's keys), and raises ValueError instead of carrying into
the next variable.  Substitution is a chain of such products, each
checked: two exponents below the limit sum to less than twice it, so a
step can set a guard bit but never carry past it.

Products of large operands go by Kronecker substitution on x1 (Kronecker
1882; Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 44, 2009), which turns the inner
products along x1 into one C-level int product.  Each operand is split
into x1-slices, the terms sharing one key with x1's field cleared, and a
slice sum c * x1^e1 becomes the int sum c << (e1 << 6): one 64-bit slot
per power of x1.  Slices are multiplied pairwise as ints, summed per key,
and each sum is read back slot by slot.  Every term product goes through
one of three paths, chosen from the operands alone:
- one comprehension {k + kb: c * cb} when an operand has the one term
  cb * x^kb: its keys stay distinct and no numerator is zero, so nothing
  is looked up or merged;
- the schoolbook loop below _PACKED_PAIRS = 256 term pairs, and whenever
  the packed path does not suit;
- the packed path when the term pairs are at least _PACKED_FILL = 12 per
  pair of slices (fewer term products per int product run faster in the
  loop), and each slice spans at most _PACKED_SPAN = 8 powers of x1 per
  term (so a sparse exponent such as x1^60000 never packs into a
  3.8-Mbit int).
It is exact when max|a| * max|b| * min(len(a), len(b)) is below 2**62: a
coefficient of the product sums at most min(len) term products, so every
slot holds a coefficient of magnitude below 2**62 < 2**63, and the slots
decode exactly; a larger bound takes the schoolbook loop.  All three
paths give the same dict of terms, not in the same order, and make the
same guard-bit check.

Substitution evaluates by the multivariate Horner scheme: the polynomial
is split on its highest variable and acc = acc * image + coefficient is
folded in from the top power down, each coefficient evaluated the same
way, whatever the image; a constant coefficient, the most common kind,
is used as it is, with no recursive call.  Each step multiplies into one
fresh numerator dict and adds the coefficient into that same dict, over
a running common denominator.  Across a gap of g >= 5 missing powers, a
one-term image costs one product by its g-th power, built by squaring.
One kernel, `_substitute_add`, returns p(images) + c * addend: the addend
is added into the evaluated dict and the result normalised once, so
`substitute` and the compose and invert of `triaut.automorphisms` (tail'
= p'(coordinates) + lambda' * tail) build no intermediate polynomial.

One function, `_merged`, adds one numerator dict into another over the
lcm of their denominators: for `+` and `-`, the addend of
`_substitute_add`, a map's coordinate lambda * x_i + tail, each term
that `triaut.parsing` reads, every Horner step, and each product
g_i * dp/dx_i of `triaut.derivations`' apply and bracket.

The form is normalised: the denominator is positive and shares no factor
with all numerators together (it is 1 for integer polynomials, which
then skip every gcd), so two polynomials are equal exactly when their
numerators and denominators are, whatever their `nvars`.

`terms` is a read-only dict {exponent tuple of length nvars:
coefficient} (a `types.MappingProxyType`), built when it is read, with
coefficients `int` where integral and `fractions.Fraction` otherwise.
The canonical text (`_text`, behind `str` and a map's `to_text`) does
not go through it.  It takes each packed key's sort key and monomial
text ("x1^2*x3") from `_monomial`, a `functools.lru_cache` bounded at
_MONOMIAL_CACHE = 4,096 keys (1.2 MB when full of four-variable keys),
and reduces each numerator against its denominator by an integer gcd.
The cache pays off only where the monomials repeat within one process,
as they do across the maps of one computation or of a run of in-process
CLI calls: a key seen before skips the decoding of its exponent fields,
and a key seen first costs that decoding plus the cache's own
bookkeeping.
Polynomials are immutable values: nothing here mutates its inputs, and
an operation may hand back an operand unchanged (p * 1 is p) or share
its numerator dict.  The result of an operation lives in the larger of
its operands' ambients.
"""

from __future__ import annotations

import sys
from array import array
from decimal import Decimal
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import chain, compress, product
from math import gcd, lcm
from operator import or_
from types import MappingProxyType
from typing import Callable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Monomial = tuple[int, ...]

# Exponents are < 2**EXPONENT_BITS; each variable's field has one more
# bit, the guard that a product sets when an exponent overflows.
EXPONENT_BITS = 16
_SHIFT = EXPONENT_BITS + 1
_LIMIT = 1 << EXPONENT_BITS
_MASK = _LIMIT - 1

# When a product packs x1 (see the module docstring): from _PACKED_PAIRS
# term pairs on, at _PACKED_FILL term pairs per pair of x1-slices or
# more, and at most _PACKED_SPAN powers of x1 per term of a slice.
_PACKED_PAIRS = 256
_PACKED_FILL = 12
_PACKED_SPAN = 8
_HALF_WORD = (1 << 63).to_bytes(8, "little")

# Keys the canonical printer's cache holds (see `_monomial`).
_MONOMIAL_CACHE = 4096

# Degree of the zero polynomial: absorbed by max(), propagates through
# bound comparisons, and can never be confused with an integer degree.
MINUS_INFINITY = float("-inf")


def as_scalar(value) -> Scalar:
    """An exact rational: ints stay ints, integral Fractions become ints.
    Only int (not bool) and Fraction are accepted; anything else, float,
    str and Decimal included, raises TypeError."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"coefficients must be int or Fraction, not {type(value).__name__}")


def scalar_inverse(value: Scalar) -> Scalar:
    """1 / value for an int or Fraction, normalised as `as_scalar` does:
    the int itself for +-1, the int +-q for a unit fraction +-1/q, and
    otherwise the one Fraction(q, p) for value = p/q, with no Fraction
    division.  ZeroDivisionError for 0."""
    if type(value) is int:
        if value == 1 or value == -1:
            return value
        p, q = value, 1
    else:
        p, q = value.numerator, value.denominator
        if p == 1 or p == -1:
            return p * q
    return Fraction(q, p)


def term_order_key(exponents: Monomial):
    """Sort key for the canonical term order.

    Ascending total degree, ties broken so monomials weighted toward
    low-index variables come first (x1^2 before x1*x2 before x2^2).
    """
    return (sum(exponents), tuple(-e for e in exponents))


@lru_cache(maxsize=None, typed=True)
def monomials_up_to_degree(nvars: int, max_degree: int) -> tuple[Monomial, ...]:
    """All exponent tuples of length nvars with total degree <= max_degree,
    in canonical term order: one tuple per (nvars, max_degree), built on
    the first request and shared by every later one.  Both must be ints
    (not bool), else TypeError."""
    _checked_int(nvars, "nvars")
    _checked_int(max_degree, "max_degree")
    return tuple(sorted((e for e in product(range(max_degree + 1), repeat=nvars)
                         if sum(e) <= max_degree), key=term_order_key))


def _pack(exponents: Sequence[int]) -> int:
    key = 0
    for i, e in enumerate(exponents):
        if type(e) is bool or not isinstance(e, int) or e < 0:
            raise ValueError(f"exponents must be non-negative integers: {tuple(exponents)}")
        if e >= _LIMIT:
            raise ValueError(f"exponent {e} of x{i + 1} is not below 2**{EXPONENT_BITS}")
        key |= e << (_SHIFT * i)
    return key


def _width(key: int) -> int:
    """Index of the last variable occurring in a packed key (0 for a constant)."""
    return (key.bit_length() + _SHIFT - 1) // _SHIFT


def _degree(key: int) -> int:
    d = 0
    while key:
        d += key & _MASK
        key >>= _SHIFT
    return d


def _weighted_degree(p: "Polynomial", weights: Sequence[int]) -> int:
    """max of sum_i weights[i-1] * e_i over p's terms x^e (0 for p = 0),
    from the packed keys; variables past len(weights) are not counted."""
    best = 0
    for key in p._num:
        d = 0
        for w in weights:
            d += (key & _MASK) * w
            key >>= _SHIFT
        if d > best:
            best = d
    return best


@cache
def _guards(nvars: int) -> int:
    return sum(_LIMIT << (_SHIFT * i) for i in range(nvars))


def _scalar(numerator: int, denominator: int) -> Scalar:
    if denominator == 1:
        return numerator
    q = Fraction(numerator, denominator)
    return q.numerator if q.denominator == 1 else q


def _ambient(nvars, width: int) -> int:
    """The ambient variable count: `width` when nvars is None, else nvars,
    which must be an int (not bool, TypeError) of at least `width`
    (ValueError)."""
    if nvars is None:
        return width
    _checked_int(nvars, "nvars")
    if nvars < width:
        raise ValueError(f"nvars={nvars} too small for a monomial in x{width}")
    return nvars


def _digits(n: int) -> str:
    """The decimal digits of the int n.  Past the interpreter's limit on
    int-to-str conversion (4,300 digits by default) `decimal.Decimal`
    converts instead: exactly, and with no digit limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _checked_int(value, what: str) -> None:
    """Raise TypeError unless `value` is an int (not bool); `what` names it."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, not {type(value).__name__}")


def _checked_index(value, low: int, high: int, what: str) -> None:
    """Raise unless `value` is an int (not bool, TypeError) in low..high
    (ValueError): Python's negative indexing must not pick an entry."""
    _checked_int(value, what)
    if not low <= value <= high:
        raise ValueError(f"{what} {value} out of range {low}..{high}")


def _make(num: dict[int, int], den: int, nvars: int) -> "Polynomial":
    # num and den already normalised; num may be shared, as no polynomial
    # mutates its dict.
    p = object.__new__(Polynomial)
    p._num = num
    p._den = den
    p.nvars = nvars
    return p


def _normalised(num: dict[int, int], den: int, nvars: int) -> "Polynomial":
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
    return _make(num, den, nvars)


def _combine(a: "Polynomial", b, sign: int) -> "Polynomial":
    """a + sign*b for a polynomial or scalar b (a scalar is a constant in
    a's ambient), NotImplemented for anything else; a term that cancels is
    dropped.  A zero operand costs nothing: the other one (negated for
    a - b) is handed back, in the wider ambient."""
    if isinstance(b, (int, Fraction)):
        b = Polynomial.constant(b, a.nvars)
    elif not isinstance(b, Polynomial):
        return NotImplemented
    nvars = max(a.nvars, b.nvars)
    if not b._num:
        return a.promoted(nvars)
    if not a._num:
        return (b if sign == 1 else -b).promoted(nvars)
    num, den = _merged(a._num, a._den, b._num, b._den, sign, False)
    return _normalised(num, den, nvars)


def _merged(num: dict[int, int], den: int, terms: dict[int, int], tden: int,
            scale: int, own: bool) -> tuple[dict[int, int], int]:
    """num/den + scale * terms/tden over lcm(den, tden), as (numerators,
    denominator), not normalised, a term that cancels dropped; `scale` is
    a nonzero int.  `num` is rescaled into a new dict only when tden does
    not divide den, and otherwise updated in place only when the caller
    owns it (`own`)."""
    g = gcd(den, tden)
    if g != tden:
        s = tden // g
        num = {k: c * s for k, c in num.items()}
        den *= s
    elif not own:
        num = dict(num)
    _add_into(num, terms, scale * (den // tden))
    return num, den


def _add_into(out: dict, terms: dict, scale: Scalar) -> None:
    """out += scale * terms, in place; a term that cancels is dropped.  The
    one accumulate loop: behind `_merged` on int numerators, and behind
    the row reduction and `_coordinate_bracket` of `triaut.lie` on int
    and Fraction entries."""
    get = out.get
    for key, c in terms.items():
        prev = get(key)
        if prev is None:
            out[key] = c * scale
        else:
            s = prev + c * scale
            if s:
                out[key] = s
            else:
                del out[key]


def _product(ta: dict[int, int], tb: dict[int, int], guards: int) -> dict[int, int]:
    """ta * tb as a fresh numerator dict, never one of the operands: by
    one comprehension when an operand has one term, else by
    `_packed_product` when it takes the operands, else by `_schoolbook`.
    Raises ValueError when an exponent reaches 2**EXPONENT_BITS, i.e. when
    a bit of `guards` is set."""
    if len(ta) < len(tb):
        ta, tb = tb, ta
    if len(tb) == 1:
        # one shift and one scale per term: the keys stay distinct and no
        # product of nonzero ints is zero
        [(kb, cb)] = tb.items()
        out = {k + kb: c * cb for k, c in ta.items()}
    else:
        out = None
        if len(ta) * len(tb) >= _PACKED_PAIRS:
            out = _packed_product(ta, tb)
        if out is None:
            out = _schoolbook(ta, tb)
    if reduce(or_, out, 0) & guards:
        raise ValueError(f"product has an exponent not below 2**{EXPONENT_BITS}")
    return out


def _schoolbook(ta: dict[int, int], tb: dict[int, int]) -> dict[int, int]:
    """ta * tb, one dict update per term pair, ta's terms in the outer
    loop."""
    out: dict[int, int] = {}
    get = out.get
    b_items = list(tb.items())
    for ka, ca in ta.items():
        for kb, cb in b_items:
            key = ka + kb
            prev = get(key)
            if prev is None:
                out[key] = ca * cb
            else:
                s = prev + ca * cb
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def _packed_product(ta: dict[int, int], tb: dict[int, int]) -> dict[int, int] | None:
    """ta * tb by Kronecker substitution on x1, or None when the operands
    do not suit it (see the module docstring).

    Each operand is split into x1-slices by `_x1_slices`.  One int product
    per pair of slices does all their term products in C, and the products
    of slice pairs whose rests add to one key are summed.  Each sum is read
    back by one offset add, one xor and `int.to_bytes`: the offset puts
    2**63 into each 64-bit slot, so every slot holds c + 2**63 in
    [0, 2**64) and no borrow crosses a slot, and the xor takes that 2**63
    back out of each slot's top bit, which leaves the two's complement of
    c.  The bytes of all sums make one `array("q")`, and a nonzero word c
    at slot e of the sum at `rest` becomes the term c at key rest + e."""
    bound = max(map(abs, ta.values())) * max(map(abs, tb.values())) * min(len(ta), len(tb))
    if bound >> 62:
        return None
    pairs = len(ta) * len(tb)
    sb = _x1_slices(tb, pairs // _PACKED_FILL)
    sa = _x1_slices(ta, pairs // (_PACKED_FILL * len(sb))) if sb is not None else None
    if sa is None:
        return None
    sums: dict[int, int] = {}
    get = sums.get
    for ra, va in sa:
        for rb, vb in sb:
            rest = ra + rb
            prev = get(rest)
            sums[rest] = va * vb if prev is None else prev + va * vb
    # bit_length // 64 + 1 slots cover a sum's top slot, as its slots
    # hold magnitudes below 2**63.  One offset serves every sum: its slots
    # above a sum's top come back as zero words from the xor.
    top = max(map(int.bit_length, sums.values())) >> 6
    offset = int.from_bytes(_HALF_WORD * (top + 1), "little")
    keys, chunks = [], []
    for rest, v in sums.items():
        n = (v.bit_length() >> 6) + 1
        keys.append(range(rest, rest + n))
        chunks.append(((v + offset) ^ offset).to_bytes(n << 3, "little"))
    words = array("q", b"".join(chunks))
    if sys.byteorder == "big":
        words.byteswap()
    return dict(compress(zip(chain.from_iterable(keys), words), words))


def _x1_slices(terms: dict[int, int], most: int) -> list[tuple[int, int]] | None:
    """[(key with its x1 field cleared, sum of c << (e1 << 6) over that
    slice's terms c * x1^e1 * rest)], or None when there are more than
    `most` slices or a slice is sparse in x1: its packed int would take
    more than 64 * _PACKED_SPAN bits per term.  An x1 exponent of
    _PACKED_SPAN * len(terms) or more makes some slice sparse, and stops
    the pass before it packs an int that large."""
    cap = _PACKED_SPAN * len(terms)
    slices: dict[int, list[int]] = {}
    get = slices.get
    for key, c in terms.items():
        e = key & _MASK
        if e >= cap:
            return None
        part = get(key - e)
        if part is None:
            if len(slices) == most:
                return None
            slices[key - e] = [c << (e << 6), 1]
        else:
            part[0] += c << (e << 6)
            part[1] += 1
    limit = _PACKED_SPAN << 6
    packed = []
    for rest, (v, count) in slices.items():
        if v.bit_length() > limit * count:
            return None
        packed.append((rest, v))
    return packed


def _horner(num: dict[int, int], images: list["Polynomial"],
            guards: int) -> tuple[dict[int, int], int]:
    """The nonzero integer polynomial `num` at x_i = images[i-1], as
    (numerators, denominator), not normalised.

    Multivariate Horner scheme (Peña & Sauer, "On the multivariate Horner
    scheme", SIAM J. Numer. Anal. 37, 2000): split `num` on its highest
    variable x_v as sum_e c_e * x_v^e, evaluate each c_e recursively (a
    constant c_e is its own value, taken without a call), and fold them in
    as acc = acc * images[v-1] + c_e from the top power down.
    Each step adds c_e by `_merged` into the fresh dict of `_product`,
    which checks its guard bits, over the lcm of the two denominators.  A
    gap of g missing powers costs g products, except at a one-term image y
    from g = 5 on: there it costs one product by y^g, which `_binary_power`
    builds in O(log g) products of one-term dicts, fewer than g from g = 5
    on even when acc has one term.

    A constant `num` is returned as is, not copied.
    """
    top = _width(max(num))
    if not top:
        return num, 1
    shift = _SHIFT * (top - 1)
    low = (1 << shift) - 1
    parts: dict[int, dict[int, int]] = {}
    for key, c in num.items():
        part = parts.get(key >> shift)
        if part is None:
            parts[key >> shift] = {key & low: c}
        else:
            part[key & low] = c
    y = images[top - 1]
    e = max(parts)
    acc = parts[e]
    den = 1
    if len(acc) > 1 or 0 not in acc:
        acc, den = _horner(acc, images, guards)
    while e:
        e -= 1
        den *= y._den
        part = parts.get(e)
        if part is None:
            step = y._num
            # From 5 missing powers on (e down to nxt + 1), one product by
            # y^(e - nxt) takes fewer products than the loop.  Not for
            # acc = 0, whose products cannot overflow where y^(e - nxt) might.
            if len(step) == 1 and e >= 4 and acc and parts.keys().isdisjoint(range(e - 4, e)):
                nxt = max([k for k in parts if k < e], default=-1)
                step = _binary_power(step, e - nxt - 1, lambda a, b: _product(a, b, guards),
                                     step)
                den *= y._den ** (e - nxt - 1)
                e = nxt + 1
            acc = _product(acc, step, guards)
            continue
        pden = 1
        if len(part) > 1 or 0 not in part:  # a constant part is added as is
            part, pden = _horner(part, images, guards)
        acc, den = _merged(_product(acc, y._num, guards), den, part, pden, 1, True)
    return acc, den


def _substitute_add(p: "Polynomial", images: Sequence["Polynomial"], nvars: int,
                    c: Scalar = 0, addend: "Polynomial | None" = None) -> "Polynomial":
    """p(images) + c * addend in ambient nvars, normalised once: the one
    substitution kernel, behind `Polynomial.substitute` and the compose and
    invert of `triaut.automorphisms`.

    `images` are polynomials, at least p.max_variable() of them; neither
    they nor `addend` may be wider than nvars.  p's numerators go through
    `_horner`; c * addend is added into the result's dict over the common
    denominator.  With p zero the result is addend scaled by c (addend
    itself when c is 1).
    """
    if not p._num:
        if addend is None:
            return _make({}, 1, nvars)
        return addend._scaled(c).promoted(nvars)
    num, den = _horner(p._num, images, _guards(nvars))
    den *= p._den
    if c and addend:
        cp, cq = (c, 1) if type(c) is int else (c.numerator, c.denominator)
        # a constant p: _horner handed back p's own dict
        num, den = _merged(num, den, addend._num, addend._den * cq, cp, num is not p._num)
    return _normalised(num, den, nvars)


def _partial(num: dict[int, int], index: int) -> dict[int, int]:
    """The numerators of d/dx_index over the same denominator, as a fresh
    dict, not normalised: behind `Polynomial.partial` and the apply and
    bracket of `triaut.derivations`."""
    shift = _SHIFT * (index - 1)
    unit = 1 << shift
    return {key - unit: e * c for key, c in num.items() if (e := key >> shift & _MASK)}


def _binary_power(base, k: int, mul: Callable, result):
    """base**k under the associative `mul`, by square-and-multiply from
    `result`, the unit (k >= 0): the one powering loop, behind
    `Polynomial.__pow__` and `triaut.automorphisms.power`."""
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def _coordinate(lam: Scalar, index: int, tail: "Polynomial") -> "Polynomial":
    """lam * x_index + tail for a nonzero lam and a tail free of x_index,
    built on the tail's numerators over the lcm of the two denominators.
    The result needs no gcd pass: a prime dividing that lcm and every
    numerator would divide either the tail's denominator and numerators,
    or lam's numerator and denominator."""
    p, q = (lam, 1) if type(lam) is int else (lam.numerator, lam.denominator)
    num, den = _merged(tail._num, tail._den, {1 << (_SHIFT * (index - 1)): p}, q, 1, False)
    return _make(num, den, tail.nvars)


@lru_cache(maxsize=_MONOMIAL_CACHE)
def _monomial(key: int) -> tuple:
    """(degree, -e_1, ..., -e_v, text) for the monomial a packed key stands
    for, with e_v its last nonzero exponent; the text is its factors, as
    in "x1^2*x3" ("" for the constant monomial).

    As a sort key it gives `term_order_key`'s order, and two keys never
    compare as far as their texts: keys of one degree differ before the
    shorter one's exponents end (were those a prefix of the longer one's,
    its extra entries would sum to 0, and its last one is nonzero)."""
    negated = []
    factors = []
    while key:
        e = key & _MASK
        negated.append(-e)
        if e:
            i = len(negated)
            factors.append(f"x{i}" if e == 1 else f"x{i}^{e}")
        key >>= _SHIFT
    return (-sum(negated), *negated, "*".join(factors))


def _text(poly: "Polynomial", lam: Scalar = 0, index: int = 0) -> str:
    """Canonical text of poly + lam * x_index (of poly alone for lam = 0),
    for an x_index absent from poly: terms in `term_order_key` order, each
    key's sort key and monomial text from `_monomial`, each coefficient
    reduced against its denominator by one integer gcd.  The sum is never
    built, so a map's coordinate prints without the copy `_coordinate`
    makes."""
    num = poly._num
    keys = list(num)
    if lam:
        keys.append(1 << (_SHIFT * (index - 1)))
        p, q = (lam, 1) if type(lam) is int else (lam.numerator, lam.denominator)
    if not keys:
        return "0"
    keys.sort(key=_monomial)
    den = poly._den
    pieces = []
    for key in keys:
        c = num.get(key)
        d = den
        if c is None:  # lam's term
            c, d = p, q
        if d != 1:
            g = gcd(c, d)
            if g != 1:
                c //= g
                d //= g
        sign = "- " if c < 0 else "+ "
        c = abs(c)
        coeff = _digits(c)
        if d != 1:
            coeff = f"{coeff}/{_digits(d)}"
        monomial = _monomial(key)[-1]
        if not monomial:
            pieces.append(sign + coeff)
        elif coeff == "1":
            pieces.append(sign + monomial)
        else:
            pieces.append(f"{sign}{coeff}*{monomial}")
    first = pieces[0]
    pieces[0] = first[2:] if first[0] == "+" else "-" + first[2:]
    return " ".join(pieces)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_num", "_den", "nvars")

    def __init__(self, terms: Mapping[Sequence[int], object] | None = None,
                 nvars: int | None = None):
        cleaned: dict[int, Scalar] = {}
        width = 0
        if terms:
            for exps, coeff in terms.items():
                key = _pack(exps)
                coeff = as_scalar(coeff)
                if coeff:
                    width = max(width, _width(key))
                    prev = cleaned.get(key)
                    if prev is not None:
                        coeff = prev + coeff
                        if not coeff:
                            del cleaned[key]
                            continue
                    cleaned[key] = coeff
        nvars = _ambient(nvars, width)
        # Over the lcm of the reduced denominators the numerators are
        # already coprime to it: no gcd pass needed.
        den = lcm(*(c.denominator for c in cleaned.values() if type(c) is not int))
        self._num = {k: c * den if type(c) is int else c.numerator * (den // c.denominator)
                     for k, c in cleaned.items()}
        self._den = den
        self.nvars = nvars

    @classmethod
    def zero(cls, nvars: int = 0) -> "Polynomial":
        return _make({}, 1, _ambient(nvars, 0))

    @classmethod
    def one(cls, nvars: int = 0) -> "Polynomial":
        return _make({0: 1}, 1, _ambient(nvars, 0))

    @classmethod
    def constant(cls, value, nvars: int = 0) -> "Polynomial":
        c = as_scalar(value)
        nvars = _ambient(nvars, 0)
        if not c:
            return _make({}, 1, nvars)
        if type(c) is int:
            return _make({0: c}, 1, nvars)
        return _make({0: c.numerator}, c.denominator, nvars)

    @classmethod
    def variable(cls, index: int, nvars: int | None = None) -> "Polynomial":
        """The polynomial x_index (1-based); index must be an int (not
        bool), else TypeError."""
        _checked_int(index, "variable index")
        if index < 1:
            raise ValueError("variable index must be at least 1")
        return _make({1 << (_SHIFT * (index - 1)): 1}, 1, _ambient(nvars, index))

    @classmethod
    def monomial(cls, coeff, exponents: Sequence[int], nvars: int | None = None) -> "Polynomial":
        return cls({tuple(exponents): coeff}, nvars)

    # -- structure -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Scalar]:
        """Read-only {exponent tuple of length nvars: coefficient} dict,
        built on each read."""
        shifts = range(0, _SHIFT * self.nvars, _SHIFT)
        den = self._den
        return MappingProxyType({tuple([(k >> s) & _MASK for s in shifts]): _scalar(c, den)
                                 for k, c in self._num.items()})

    def promoted(self, nvars: int) -> "Polynomial":
        """The same polynomial viewed in an ambient with nvars variables."""
        if nvars == self.nvars:
            return self
        if nvars < self.nvars and self.max_variable() > nvars:
            raise ValueError(f"cannot shrink ambient below x{self.max_variable()}")
        return _make(self._num, self._den, nvars)

    def total_degree(self):
        """Max term degree; MINUS_INFINITY for the zero polynomial."""
        if not self._num:
            return MINUS_INFINITY
        return max(map(_degree, self._num))

    def max_variable(self) -> int:
        """Largest index i with x_i occurring, or 0 for constants."""
        return _width(max(self._num)) if self._num else 0

    def coefficient(self, exponents: Sequence[int]) -> Scalar:
        """Coefficient of the given monomial (0 if absent)."""
        return _scalar(self._num.get(_pack(exponents), 0), self._den)

    def constant_term(self) -> Scalar:
        return _scalar(self._num.get(0, 0), self._den)

    def is_constant(self) -> bool:
        return not self._num or (len(self._num) == 1 and 0 in self._num)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if type(other) is bool:  # not a scalar here (see as_scalar)
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        if self.is_constant():  # __eq__ equates a constant with its scalar
            return hash(self.constant_term())
        return hash((self._den, frozenset(self._num.items())))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _make({k: -c for k, c in self._num.items()}, self._den, self.nvars)

    def __sub__(self, other) -> "Polynomial":
        return _combine(self, other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            nvars = max(self.nvars, other.nvars)
            ta, tb = self._num, other._num
            if not ta or not tb:
                return _make({}, 1, nvars)
            return _normalised(_product(ta, tb, _guards(nvars)),
                               self._den * other._den, nvars)
        if isinstance(other, (int, Fraction)):
            return self._scaled(as_scalar(other))
        return NotImplemented

    __rmul__ = __mul__

    def _scaled(self, c: Scalar) -> "Polynomial":
        if c == 1:
            return self
        if not c:
            return _make({}, 1, self.nvars)
        p, q = (c, 1) if type(c) is int else (c.numerator, c.denominator)
        return _normalised({k: v * p for k, v in self._num.items()}, self._den * q, self.nvars)

    def __truediv__(self, divisor) -> "Polynomial":
        """Scalar division only."""
        if isinstance(divisor, (int, Fraction)):
            if divisor == 0:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self * scalar_inverse(as_scalar(divisor))
        return NotImplemented

    def __pow__(self, exponent: int) -> "Polynomial":
        """Power by an int (not bool, TypeError) exponent >= 0 (ValueError)."""
        _checked_int(exponent, "polynomial exponent")
        if exponent < 0:
            raise ValueError("polynomial exponents must be non-negative integers")
        return _binary_power(self, exponent, Polynomial.__mul__, Polynomial.one(self.nvars))

    # -- calculus and substitution --------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to x_index (1-based)."""
        _checked_index(index, 1, self.nvars, "variable index")
        return _normalised(_partial(self._num, index), self._den, self.nvars)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Replace x_i by images[i-1] and expand to canonical form.

        images must supply at least nvars polynomials; they may be any
        polynomials or scalars.  The numerators are evaluated by the
        multivariate Horner scheme (see `_horner` and `_substitute_add`)
        over a running common denominator, and the result is divided by
        this polynomial's denominator and normalised once, at the end.  An
        exponent reaching 2**EXPONENT_BITS at any Horner step raises
        ValueError.
        """
        if len(images) < self.nvars:
            raise ValueError(
                f"substitute needs {self.nvars} images, got {len(images)}")
        images = [im if isinstance(im, Polynomial) else Polynomial.constant(im)
                  for im in images]
        return _substitute_add(self, images, max((im.nvars for im in images), default=0))

    # -- canonical text -------------------------------------------------

    def __str__(self) -> str:
        """Canonical text (see `_text`)."""
        return _text(self)

    def __repr__(self) -> str:
        return f"Polynomial({self}, nvars={self.nvars})"
