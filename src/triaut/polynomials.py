"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a dict mapping exponent tuples to nonzero rational
coefficients, together with an ambient variable count `nvars`:

    x2**2 + 2*x1**2*x2 + x1**4  (nvars=2)
        ->  {(0, 2): 1, (2, 1): 2, (4, 0): 1}

Every key has length `nvars` (element i is the exponent of x_{i+1};
variables are 1-based throughout the public API).  Coefficients are
`int` where integral and `fractions.Fraction` otherwise; the two mix
transparently under arithmetic, equality, and hashing, and the integer
fast path is what keeps long composition chains affordable.

Polynomials are immutable values: every operation returns a fresh
instance and nothing here mutates its inputs.  Operations on operands
with different `nvars` promote to the larger ambient by zero-padding.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _add
from typing import Iterator, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Monomial = tuple[int, ...]

# Degree of the zero polynomial: absorbed by max(), propagates through
# bound comparisons, and can never be confused with an integer degree.
MINUS_INFINITY = float("-inf")


def as_scalar(value) -> Scalar:
    """Coerce to an exact rational; ints stay ints, floats and bools are rejected."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, (bool, float)):
        raise TypeError(
            f"coefficients must be exact rationals, not {type(value).__name__}")
    if isinstance(value, int):
        return int(value)
    frac = Fraction(value)
    return frac.numerator if frac.denominator == 1 else frac


def scalar_inverse(value: Scalar) -> Scalar:
    q = 1 / Fraction(value)
    return q.numerator if q.denominator == 1 else q


def term_order_key(exponents: Monomial):
    """Sort key for the canonical term order.

    Ascending total degree, ties broken so monomials weighted toward
    low-index variables come first (x1^2 before x1*x2 before x2^2).
    """
    return (sum(exponents), tuple(-e for e in exponents))


def _strip(exponents: Monomial) -> Monomial:
    end = len(exponents)
    while end and exponents[end - 1] == 0:
        end -= 1
    return exponents[:end]


def monomials_up_to_degree(nvars: int, max_degree: int) -> Iterator[Monomial]:
    """Yield all exponent tuples of length nvars with total degree <= max_degree,
    in canonical term order."""
    def rec(remaining_vars: int, budget: int):
        if remaining_vars == 0:
            yield ()
            return
        for e in range(budget + 1):
            for rest in rec(remaining_vars - 1, budget - e):
                yield (e,) + rest

    yield from sorted(rec(nvars, max_degree), key=term_order_key)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Mapping[Sequence[int], object] | None = None,
                 nvars: int | None = None):
        cleaned: dict[Monomial, Scalar] = {}
        width = 0
        if terms:
            for exps, coeff in terms.items():
                key = tuple(exps)
                if any(type(e) is bool or not isinstance(e, int) or e < 0 for e in key):
                    raise ValueError(f"exponents must be non-negative integers: {exps}")
                key = _strip(key)
                coeff = as_scalar(coeff)
                if coeff:
                    width = max(width, len(key))
                    prev = cleaned.get(key)
                    if prev is not None:
                        coeff = prev + coeff
                        if not coeff:
                            del cleaned[key]
                            continue
                    cleaned[key] = coeff
        if nvars is None:
            nvars = width
        elif nvars < width:
            raise ValueError(f"nvars={nvars} too small for a monomial in x{width}")
        self.terms = {k + (0,) * (nvars - len(k)): c for k, c in cleaned.items()}
        self.nvars = nvars

    @classmethod
    def _raw(cls, terms: dict[Monomial, Scalar], nvars: int) -> "Polynomial":
        # Internal fast path: terms already canonical, keys of length nvars.
        p = object.__new__(cls)
        p.terms = terms
        p.nvars = nvars
        return p

    @classmethod
    def zero(cls, nvars: int = 0) -> "Polynomial":
        return cls._raw({}, nvars)

    @classmethod
    def one(cls, nvars: int = 0) -> "Polynomial":
        return cls._raw({(0,) * nvars: 1}, nvars)

    @classmethod
    def constant(cls, value, nvars: int = 0) -> "Polynomial":
        c = as_scalar(value)
        return cls._raw({(0,) * nvars: c} if c else {}, nvars)

    @classmethod
    def variable(cls, index: int, nvars: int | None = None) -> "Polynomial":
        """The polynomial x_index (1-based)."""
        if index < 1:
            raise ValueError("variable index must be at least 1")
        if nvars is None:
            nvars = index
        elif nvars < index:
            raise ValueError(f"nvars={nvars} too small for x{index}")
        key = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls._raw({key: 1}, nvars)

    @classmethod
    def monomial(cls, coeff, exponents: Sequence[int], nvars: int | None = None) -> "Polynomial":
        return cls({tuple(exponents): coeff}, nvars)

    # -- structure -----------------------------------------------------

    def promoted(self, nvars: int) -> "Polynomial":
        """The same polynomial viewed in an ambient with nvars variables."""
        if nvars == self.nvars:
            return self
        if nvars < self.nvars:
            if self.max_variable() > nvars:
                raise ValueError(f"cannot shrink ambient below x{self.max_variable()}")
            return Polynomial._raw(
                {_strip(k) + (0,) * (nvars - len(_strip(k))): c for k, c in self.terms.items()},
                nvars)
        pad = (0,) * (nvars - self.nvars)
        return Polynomial._raw({k + pad: c for k, c in self.terms.items()}, nvars)

    def total_degree(self):
        """Max term degree; MINUS_INFINITY for the zero polynomial."""
        if not self.terms:
            return MINUS_INFINITY
        return max(map(sum, self.terms))

    def max_variable(self) -> int:
        """Largest index i with x_i occurring, or 0 for constants."""
        best = 0
        for key in self.terms:
            for i in range(len(key) - 1, best - 1, -1):
                if key[i]:
                    best = i + 1
                    break
        return best

    def coefficient(self, exponents: Sequence[int]) -> Scalar:
        """Coefficient of the given monomial (0 if absent)."""
        key = _strip(tuple(exponents))
        return self.terms.get(key + (0,) * (self.nvars - len(key)), 0)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self.nvars, 0)

    def is_constant(self) -> bool:
        return all(not any(k) for k in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.nvars)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        if self.nvars == other.nvars:
            return self.terms == other.terms
        n = max(self.nvars, other.nvars)
        return self.promoted(n).terms == other.promoted(n).terms

    def __hash__(self) -> int:
        return hash(frozenset((_strip(k), Fraction(c)) for k, c in self.terms.items()))

    # -- arithmetic ----------------------------------------------------

    def _aligned(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if self.nvars == other.nvars:
            return self, other
        n = max(self.nvars, other.nvars)
        return self.promoted(n), other.promoted(n)

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.nvars)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._aligned(other)
        if len(b.terms) > len(a.terms):
            a, b = b, a
        out = dict(a.terms)
        for key, c in b.terms.items():
            prev = out.get(key)
            if prev is None:
                out[key] = c
            else:
                s = prev + c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Polynomial._raw(out, a.nvars)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({k: -c for k, c in self.terms.items()}, self.nvars)

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.nvars)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = as_scalar(other)
            if not c:
                return Polynomial.zero(self.nvars)
            return Polynomial._raw({k: c * v for k, v in self.terms.items()}, self.nvars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._aligned(other)
        if not a.terms or not b.terms:
            return Polynomial.zero(a.nvars)
        if len(a.terms) < len(b.terms):
            a, b = b, a
        out: dict[Monomial, Scalar] = {}
        get = out.get
        b_items = list(b.terms.items())
        for ka, ca in a.terms.items():
            for kb, cb in b_items:
                key = tuple(map(_add, ka, kb))
                prev = get(key)
                if prev is None:
                    out[key] = ca * cb
                else:
                    s = prev + ca * cb
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        return Polynomial._raw(out, a.nvars)

    __rmul__ = __mul__

    def __truediv__(self, divisor) -> "Polynomial":
        """Scalar division only."""
        if isinstance(divisor, (int, Fraction)):
            if divisor == 0:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self * scalar_inverse(as_scalar(divisor))
        return NotImplemented

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponents must be non-negative integers")
        result = Polynomial.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- calculus and substitution --------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to x_index (1-based)."""
        if index < 1 or index > self.nvars:
            raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        i = index - 1
        out: dict[Monomial, Scalar] = {}
        for key, c in self.terms.items():
            e = key[i]
            if e:
                dkey = key[:i] + (e - 1,) + key[i + 1:]
                prev = out.get(dkey)
                out[dkey] = e * c if prev is None else prev + e * c
        return Polynomial._raw(out, self.nvars)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Replace x_i by images[i-1] and expand to canonical form.

        images must supply at least nvars polynomials.
        """
        if len(images) < self.nvars:
            raise ValueError(
                f"substitute needs {self.nvars} images, got {len(images)}")
        images = [im if isinstance(im, Polynomial) else Polynomial.constant(im)
                  for im in images]
        width = max((im.nvars for im in images), default=0)
        images = [im.promoted(width) for im in images]
        return self._substitute(images, {})

    def _substitute(self, images: list["Polynomial"], pow_cache: dict) -> "Polynomial":
        # images pre-promoted to a common ambient; pow_cache maps
        # (image position, exponent) -> Polynomial and may be shared
        # across calls substituting the same tuple.
        width = images[0].nvars if images else 0
        total = Polynomial.zero(width)
        for key, c in self.terms.items():
            term = None
            for i, e in enumerate(key):
                if not e:
                    continue
                power = pow_cache.get((i, e))
                if power is None:
                    power = images[i]
                    for k in range(2, e + 1):
                        nxt = pow_cache.get((i, k))
                        if nxt is None:
                            nxt = power * images[i]
                            pow_cache[(i, k)] = nxt
                        power = nxt
                    pow_cache[(i, e)] = power
                term = power if term is None else term * power
            if term is None:
                total = total + Polynomial.constant(c, width)
            else:
                total = total + term * c
        return total

    # -- canonical text -------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms, key=term_order_key):
            coeff = self.terms[key]
            vars_part = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(key) if e)
            if not vars_part:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = vars_part
            else:
                body = f"{abs(coeff)}*{vars_part}"
            negative = coeff < 0
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self}, nvars={self.nvars})"
