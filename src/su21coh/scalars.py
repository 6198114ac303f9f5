"""Exact arithmetic in Q(i) and in its extension by the square roots of
positive squarefree integers.

`GaussianRational`, (re + i*im)/den over ints, is the scalar of the exact
engine: in the rescaled Wigner basis every `plus1` operator coefficient and
every cochain coordinate lies in Q(i).

`ComplexRadical` is a finite sum  sum_d  c_d * sqrt(d)  over distinct
squarefree d > 0, canonical by the linear independence of the sqrt(d) over
Q(i); its coefficients c_d are GaussianRationals, whose arithmetic it uses.
Signed radicands, -a for i*sqrt(a), appear only in the constructor's input,
`items()` and the re/im export.  It serves GAMMA's sqrt(1/2), the rejected
`plus2` row and the unitary export, and embeds Q(i): mixed sums and products
are ComplexRadicals, and equal values compare and hash equal across int,
Fraction and both classes.
"""

from __future__ import annotations

import math
from fractions import Fraction


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


def _num_den(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"cannot interpret {x!r} as an exact rational")
    return x.numerator, x.denominator


def _real_repr(terms) -> str:
    """Text of sum c*sqrt(d) over (d > 0, c) pairs sorted by d."""
    parts = []
    for d, c in terms:
        if d == 1:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"sqrt({d})")
        else:
            parts.append(f"{c}*sqrt({d})")
    return " + ".join(parts).replace("+ -", "- ")


class ComplexRadical:
    """An exact complex number  sum_d c_d * sqrt(d)  (d > 0 squarefree, c_d in
    Q(i)), stored as {d: nonzero GaussianRational}; zero is {}."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        """From {squarefree radicand (either sign): int or Fraction}, a
        negative radicand -a standing for i*sqrt(a); zero coefficients are
        dropped."""
        out: dict[int, GaussianRational] = {}
        for d, c in (terms or {}).items():
            if not isinstance(d, int):
                raise TypeError(f"radicand must be an int, got {d!r}")
            if not d or square_free_split(abs(d))[0] != 1:
                raise ValueError(f"radicand must be nonzero and squarefree, got {d}")
            n, m = _num_den(c)
            out[abs(d)] = out.get(abs(d), 0) + (_gauss(n, 0, m) if d > 0 else _gauss(0, n, m))
        self._terms = {d: c for d, c in out.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ComplexRadical":
        return _wrap({})

    @classmethod
    def one(cls) -> "ComplexRadical":
        return _wrap({1: _gauss(1, 0, 1)})

    @classmethod
    def i(cls) -> "ComplexRadical":
        return _wrap({1: _gauss(0, 1, 1)})

    @classmethod
    def of(cls, x) -> "ComplexRadical":
        """Embed an int, Fraction, GaussianRational or ComplexRadical."""
        if isinstance(x, ComplexRadical):
            return x
        x = GaussianRational.of(x)
        return _wrap({1: x} if x else {})

    @classmethod
    def i_times(cls, x) -> "ComplexRadical":
        return cls.of(x) * cls.i()

    @classmethod
    def sqrt(cls, q) -> "ComplexRadical":
        """Exact square root of a rational q >= 0, as a single term c*sqrt(d).

        sqrt(a/b) = sqrt(a*b)/b, then the integer radicand is reduced to its
        squarefree part.  A negative q is refused rather than read as i*sqrt(-q):
        the coefficient formulas only take roots of nonnegative quantities.
        """
        a, b = _num_den(q)
        if a < 0:
            raise NegativeRadicand(f"sqrt of negative rational {q}")
        if a == 0:
            return _wrap({})
        s, d = square_free_split(a * b)
        return _wrap({d: _gauss(s, 0, b)})

    # -- structure ---------------------------------------------------------

    def items(self) -> list[tuple[int, Fraction]]:
        """(signed radicand, rational coefficient) pairs: (d, re) and (-d, im)
        for each nonzero part of the coefficient of sqrt(d)."""
        re, im = self._parts()
        return re + [(-d, c) for d, c in im]

    def is_zero(self) -> bool:
        return not self._terms

    def conj(self) -> "ComplexRadical":
        return _wrap({d: c.conj() for d, c in self._terms.items()})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "ComplexRadical":
        if (other := _operand(other)) is None:
            return NotImplemented
        terms = dict(self._terms)
        for d, c in other._terms.items():
            if d in terms:
                c += terms[d]
                if not c:
                    del terms[d]
                    continue
            terms[d] = c
        return _wrap(terms)

    __radd__ = __add__

    def __neg__(self) -> "ComplexRadical":
        return _wrap({d: -c for d, c in self._terms.items()})

    def __sub__(self, other) -> "ComplexRadical":
        if (other := _operand(other)) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ComplexRadical":
        if (other := _operand(other)) is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "ComplexRadical":
        if (other := _operand(other)) is None:
            return NotImplemented
        terms: dict[int, GaussianRational] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in other._terms.items():
                # sqrt(d1)*sqrt(d2) = g*sqrt((d1/g)*(d2/g)) with g = gcd(d1, d2);
                # the product of coprime squarefree integers is squarefree
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                c = c1 * c2
                if g != 1:
                    c = _gauss(c.re * g, c.im * g, c.den)
                terms[d] = terms[d] + c if d in terms else c
        if len(self._terms) > 1 and len(other._terms) > 1:
            # only then can two products land on one radicand and cancel
            terms = {d: c for d, c in terms.items() if c}
        return _wrap(terms)

    __rmul__ = __mul__

    def inverse(self) -> "ComplexRadical":
        """Exact multiplicative inverse.

        A single term c*sqrt(d) inverts to sqrt(d)/(c*d).  A multi-term value
        is rationalized by multiplying with all its conjugates over Q(i):
        each flips the sign of sqrt(p) for a set of primes p of the
        radicands; with m such primes there are 2^m - 1 nontrivial
        conjugates, and the full product lies in Q(i).
        """
        terms = self._terms
        if not terms:
            raise ZeroDivisionError("inverse of zero ComplexRadical")
        if len(terms) == 1:
            ((d, c),) = terms.items()
            return _wrap({d: (c * d).inverse()})
        flippers = {d: set(prime_factors(d)) for d in terms}
        gens = sorted(set().union(*flippers.values()))
        acc = ComplexRadical.one()
        for mask in range(1, 1 << len(gens)):
            flips = {gens[i] for i in range(len(gens)) if mask >> i & 1}
            acc = acc * _wrap({d: -c if len(flippers[d] & flips) % 2 else c
                               for d, c in terms.items()})
        norm = (self * acc)._terms[1]
        return acc * norm.inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = ComplexRadical.of(other)
        if not isinstance(other, ComplexRadical):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a value in Q(i) hashes as the GaussianRational it equals
        if self._terms.keys() <= {1}:
            return hash(self._terms.get(1, 0))
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- numeric bridge and serialization ----------------------------------

    def to_complex(self) -> complex:
        # int / int is correctly rounded and fsum sums exactly, so the float
        # depends on the value only, not on the order of the terms
        terms = [(c, math.sqrt(d)) for d, c in self._terms.items()]
        return complex(
            math.fsum(c.re / c.den * r for c, r in terms),
            math.fsum(c.im / c.den * r for c, r in terms),
        )

    def _parts(self) -> tuple[list, list]:
        """(real, imaginary) (d, Fraction) pairs, each sorted by d."""
        ordered = sorted(self._terms.items())
        return (
            [(d, Fraction(c.re, c.den)) for d, c in ordered if c.re],
            [(d, Fraction(c.im, c.den)) for d, c in ordered if c.im],
        )

    def to_dict(self) -> dict:
        """{"re": triples, "im": triples}, triples [[d, numerator, denominator], ...]."""
        return {
            part: [[d, c.numerator, c.denominator] for d, c in pairs]
            for part, pairs in zip(("re", "im"), self._parts())
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ComplexRadical":
        terms = {}
        for sign, part in ((1, "re"), (-1, "im")):
            for d, n, m in data.get(part, []):
                if any(type(v) is not int for v in (d, n, m)) or d <= 0 or sign * d in terms:
                    raise ValueError(f"{part} entry {[d, n, m]}: need ints and a new |d| > 0")
                if not m:
                    raise ValueError(f"{part} entry {[d, n, m]}: zero denominator")
                terms[sign * d] = Fraction(n, m)
        return cls(terms)

    def __repr__(self) -> str:
        re, im = self._parts()
        if not im:
            return _real_repr(re) or "0"
        if not re:
            return f"i*({_real_repr(im)})"
        return f"({_real_repr(re)}) + i*({_real_repr(im)})"


_new = object.__new__


def _operand(x) -> ComplexRadical | None:
    """x as a ComplexRadical; None for other types, whose own methods decide."""
    if isinstance(x, ComplexRadical):
        return x
    return ComplexRadical.of(x) if isinstance(x, (int, Fraction, GaussianRational)) else None


def _wrap(terms: dict[int, GaussianRational]) -> ComplexRadical:
    """A ComplexRadical on a zero-free {d > 0: coefficient} dict, taken as is."""
    x = _new(ComplexRadical)
    x._terms = terms
    return x


class GaussianRational:
    """An exact element (re + i*im)/den of Q(i), stored as ints with den > 0
    and gcd(re, im, den) == 1; zero is (0, 0, 1).  Prints as the
    ComplexRadical of the same value."""

    __slots__ = ("re", "im", "den")

    def __init__(self, re: int = 0, im: int = 0, den: int = 1):
        if not (type(re) is type(im) is type(den) is int and den):
            raise ValueError(f"need ints and a nonzero denominator, got {(re, im, den)}")
        g = math.gcd(re, im, den) * (1 if den > 0 else -1)
        self.re, self.im, self.den = re // g, im // g, den // g

    @classmethod
    def of(cls, x) -> "GaussianRational":
        """Embed an int, Fraction, GaussianRational, or a ComplexRadical that
        lies in Q(i) (ValueError otherwise)."""
        if isinstance(x, GaussianRational):
            return x
        if not isinstance(x, ComplexRadical):
            n, m = _num_den(x)
            return _gauss(n, 0, m)
        if not x._terms.keys() <= {1}:
            raise ValueError(f"{x!r} is not in Q(i)")
        return x._terms.get(1, GaussianRational())

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def conj(self) -> "GaussianRational":
        return _gauss(self.re, -self.im, self.den)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented  # a ComplexRadical adds it
            other = GaussianRational.of(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _gauss(self.re + other.re, self.im + other.im, d1)
        g = math.gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        return _gauss(self.re * s1 + other.re * s2, self.im * s1 + other.im * s2, d1 * s1)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _gauss(-self.re, -self.im, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented  # a ComplexRadical multiplies it
            other = GaussianRational.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _gauss(a * c - b * d, a * d + b * c, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        """den/(re + i*im) = den*(re - i*im)/(re^2 + im^2)."""
        a, b = self.re, self.im
        if not (a or b):
            raise ZeroDivisionError("inverse of zero GaussianRational")
        return _gauss(self.den * a, -self.den * b, a * a + b * b)

    def __eq__(self, other) -> bool:
        if type(other) is GaussianRational:
            return self.re == other.re and self.im == other.im and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # a real value hashes as the int or Fraction it equals
        if not self.im:
            return hash(Fraction(self.re, self.den))
        return hash((self.re, self.im, self.den))

    def to_complex(self) -> complex:
        return complex(self.re / self.den, self.im / self.den)

    def __repr__(self) -> str:
        return repr(ComplexRadical.of(self))


def _gauss(re: int, im: int, den: int) -> GaussianRational:
    """(re + i*im)/den for den > 0, after dividing out gcd(re, im, den)."""
    if den != 1:
        g = math.gcd(re, im, den)
        if g != 1:
            re, im, den = re // g, im // g, den // g
    x = _new(GaussianRational)
    x.re, x.im, x.den = re, im, den
    return x


def exact(x):
    """GaussianRationals and ComplexRadicals as they are; ints and Fractions
    as GaussianRationals."""
    return x if isinstance(x, (GaussianRational, ComplexRadical)) else GaussianRational.of(x)


# bench/tracer.py binds RadicalScalar.__mul__/__add__/sqrt/inverse by name,
# and tests build real values as RadicalScalar({d: c}); one class serves both.
RadicalScalar = ComplexRadical
