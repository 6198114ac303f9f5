"""Exact arithmetic in the field generated over Q by square roots of
squarefree positive integers, and its complexification.

Every number is a finite sum  sum_d  c_d * sqrt(d)  with rational c_d and
distinct squarefree radicands d.  The linear independence of the sqrt(d)
over Q makes the representation canonical: a value is zero exactly when its
term collection is empty.  Rational numbers are the terms with radicand 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable


class NegativeRadicand(ValueError):
    """Square root of a negative rational requested."""


def square_free_split(n: int) -> tuple[int, int]:
    """Write n > 0 as s*s*d with d squarefree, by trial division.

    Returns (s, d).  Intended for the small integers produced by the
    operator coefficient formulas; not a general-purpose factorizer.
    """
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    s, d = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * n


def prime_factors(n: int) -> list[int]:
    """Prime divisors of n > 0, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class RadicalScalar:
    """An exact real number  sum_d c_d * sqrt(d)  (d squarefree, c_d in Q)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        # terms maps squarefree radicand -> nonzero rational coefficient
        self._terms = {d: c for d, c in (terms or {}).items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RadicalScalar":
        return cls()

    @classmethod
    def one(cls) -> "RadicalScalar":
        return cls({1: Fraction(1)})

    @classmethod
    def of(cls, x) -> "RadicalScalar":
        """Embed an int, Fraction or RadicalScalar."""
        if isinstance(x, RadicalScalar):
            return x
        return cls({1: _as_fraction(x)})

    @classmethod
    def sqrt(cls, q) -> "RadicalScalar":
        """Exact square root of a rational q >= 0, as a single term c*sqrt(d).

        sqrt(a/b) = sqrt(a*b)/b, then the integer radicand is reduced to its
        squarefree part.
        """
        q = _as_fraction(q)
        if q < 0:
            raise NegativeRadicand(f"sqrt of negative rational {q}")
        if q == 0:
            return cls.zero()
        s, d = square_free_split(q.numerator * q.denominator)
        return cls({d: Fraction(s, q.denominator)})

    # -- structure ---------------------------------------------------------

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return set(self._terms) <= {1}

    def rational_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self._terms[1]

    def triples(self) -> list[list[int]]:
        """Serialization: [[radicand, numerator, denominator], ...], radicands increasing."""
        return [[d, c.numerator, c.denominator] for d, c in sorted(self._terms.items())]

    @classmethod
    def from_triples(cls, triples: Iterable[Iterable[int]]) -> "RadicalScalar":
        return cls({int(d): Fraction(int(n), int(m)) for d, n, m in triples})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "RadicalScalar":
        other = RadicalScalar.of(other)
        terms = dict(self._terms)
        for d, c in other._terms.items():
            terms[d] = terms.get(d, Fraction(0)) + c
        return RadicalScalar(terms)

    __radd__ = __add__

    def __neg__(self) -> "RadicalScalar":
        return RadicalScalar({d: -c for d, c in self._terms.items()})

    def __sub__(self, other) -> "RadicalScalar":
        return self + (-RadicalScalar.of(other))

    def __rsub__(self, other) -> "RadicalScalar":
        return RadicalScalar.of(other) + (-self)

    def __mul__(self, other) -> "RadicalScalar":
        other = RadicalScalar.of(other)
        if not self._terms or not other._terms:
            return RadicalScalar()
        terms: dict[int, Fraction] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in other._terms.items():
                # sqrt(d1)*sqrt(d2) = g*sqrt((d1/g)*(d2/g)) with g = gcd(d1, d2);
                # the product of coprime squarefree integers is squarefree.
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                terms[d] = terms.get(d, Fraction(0)) + c1 * c2 * g
        return RadicalScalar(terms)

    __rmul__ = __mul__

    def inverse(self) -> "RadicalScalar":
        """Exact multiplicative inverse.

        A single term c*sqrt(d) inverts to sqrt(d)/(c*d).  A multi-term value
        is rationalized by multiplying with all its Galois conjugates: for the
        m primes occurring in the radicands there are 2^m - 1 nontrivial
        sign-flip conjugates, and the full product is rational.
        """
        if not self._terms:
            raise ZeroDivisionError("inverse of zero RadicalScalar")
        if len(self._terms) == 1:
            ((d, c),) = self._terms.items()
            return RadicalScalar({d: 1 / (c * d)})
        primes = sorted({p for d in self._terms for p in prime_factors(d)})
        acc = RadicalScalar.one()
        for mask in range(1, 1 << len(primes)):
            flips = {primes[i] for i in range(len(primes)) if mask >> i & 1}
            conj = RadicalScalar(
                {
                    d: -c if sum(1 for p in flips if d % p == 0) % 2 else c
                    for d, c in self._terms.items()
                }
            )
            acc = acc * conj
        norm = (self * acc).rational_value()
        return acc * RadicalScalar({1: 1 / norm})

    def __truediv__(self, other) -> "RadicalScalar":
        return self * RadicalScalar.of(other).inverse()

    def __rtruediv__(self, other) -> "RadicalScalar":
        return RadicalScalar.of(other) * self.inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RadicalScalar.of(other)
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- numeric bridge ----------------------------------------------------

    def to_float(self) -> float:
        return sum(float(c) * math.sqrt(d) for d, c in self._terms.items())

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for d, c in sorted(self._terms.items()):
            if d == 1:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"sqrt({d})")
            else:
                parts.append(f"{c}*sqrt({d})")
        return " + ".join(parts).replace("+ -", "- ")


class ComplexRadical:
    """re + i*im with RadicalScalar real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=None, im=None):
        self.re = RadicalScalar.of(re) if re is not None else RadicalScalar.zero()
        self.im = RadicalScalar.of(im) if im is not None else RadicalScalar.zero()

    @classmethod
    def of(cls, x) -> "ComplexRadical":
        if isinstance(x, ComplexRadical):
            return x
        if isinstance(x, RadicalScalar):
            return cls(x)
        return cls(RadicalScalar.of(x))

    @classmethod
    def i(cls) -> "ComplexRadical":
        return cls(None, RadicalScalar.one())

    @classmethod
    def i_times(cls, x) -> "ComplexRadical":
        """i*x for a real x (int, Fraction or RadicalScalar)."""
        return cls(None, RadicalScalar.of(x))

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def conj(self) -> "ComplexRadical":
        return ComplexRadical(self.re, -self.im)

    def __add__(self, other) -> "ComplexRadical":
        other = ComplexRadical.of(other)
        return ComplexRadical(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "ComplexRadical":
        return ComplexRadical(-self.re, -self.im)

    def __sub__(self, other) -> "ComplexRadical":
        return self + (-ComplexRadical.of(other))

    def __rsub__(self, other) -> "ComplexRadical":
        return ComplexRadical.of(other) + (-self)

    def __mul__(self, other) -> "ComplexRadical":
        # The operator coefficients are mostly purely real or purely
        # imaginary, so branch on the zero parts instead of always paying
        # four real products.
        other = ComplexRadical.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b._terms:
            if not d._terms:
                return ComplexRadical(a * c)
            if not c._terms:
                return ComplexRadical(None, a * d)
            return ComplexRadical(a * c, a * d)
        if not a._terms:
            if not d._terms:
                return ComplexRadical(None, b * c)
            if not c._terms:
                return ComplexRadical(-(b * d))
            return ComplexRadical(-(b * d), b * c)
        if not d._terms:
            return ComplexRadical(a * c, b * c)
        if not c._terms:
            return ComplexRadical(-(b * d), a * d)
        return ComplexRadical(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "ComplexRadical":
        norm = self.re * self.re + self.im * self.im
        if norm.is_zero():
            raise ZeroDivisionError("inverse of zero ComplexRadical")
        inv = norm.inverse()
        return ComplexRadical(self.re * inv, -self.im * inv)

    def __truediv__(self, other) -> "ComplexRadical":
        return self * ComplexRadical.of(other).inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, RadicalScalar)):
            other = ComplexRadical.of(other)
        if not isinstance(other, ComplexRadical):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def to_complex(self) -> complex:
        return complex(self.re.to_float(), self.im.to_float())

    def to_dict(self) -> dict:
        return {"re": self.re.triples(), "im": self.im.triples()}

    @classmethod
    def from_dict(cls, data: dict) -> "ComplexRadical":
        return cls(
            RadicalScalar.from_triples(data.get("re", [])),
            RadicalScalar.from_triples(data.get("im", [])),
        )

    def __repr__(self) -> str:
        if self.im.is_zero():
            return repr(self.re)
        if self.re.is_zero():
            return f"i*({self.im!r})"
        return f"({self.re!r}) + i*({self.im!r})"
