"""Exact arithmetic in Q(i) and in the field generated over Q by the square
roots of squarefree integers of either sign, with sqrt(-1) = i.

`GaussianRational`, (re + i*im)/den over ints, is the scalar of the exact
engine: in the rescaled Wigner basis every `plus1` operator coefficient and
every cochain coordinate lies in Q(i).

`ComplexRadical` is a finite sum  sum_d  c_d * sqrt(d)  with rational c_d and
distinct squarefree radicands d != 0; a negative radicand d = -a stands for
i * sqrt(a), so the key -1 is i and the key -6 is i*sqrt(6).  The linear
independence of the sqrt(d) over Q makes the representation canonical (zero
has no terms).  It serves GAMMA's sqrt(1/2), the rejected `plus2` row and the
unitary export, and embeds Q(i): mixed sums and products are ComplexRadicals,
and equal values compare and hash equal across int, Fraction and both classes.
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
    """An exact complex number  sum_d c_d * sqrt(d)  (d squarefree, c_d in Q),
    stored as integer numerators c_d = _terms[d] / _den over one _den > 0 with
    gcd(_den, *numerators) == 1; zero is ({}, 1)."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: dict[int, Fraction] | None = None):
        """From {squarefree radicand (either sign): int or Fraction}; zero
        coefficients are dropped.  Reduced coefficients over the lcm of their
        denominators already have gcd(den, *numerators) == 1."""
        terms = terms or {}
        for d in terms:
            if not isinstance(d, int):
                raise TypeError(f"radicand must be an int, got {d!r}")
            if not d or square_free_split(abs(d))[0] != 1:
                raise ValueError(f"radicand must be nonzero and squarefree, got {d}")
        den = math.lcm(1, *(_num_den(c)[1] for c in terms.values()))
        self._terms = {d: c.numerator * (den // c.denominator) for d, c in terms.items() if c}
        self._den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ComplexRadical":
        return _wrap({})

    @classmethod
    def one(cls) -> "ComplexRadical":
        return _wrap({1: 1})

    @classmethod
    def i(cls) -> "ComplexRadical":
        return _wrap({-1: 1})

    @classmethod
    def of(cls, x) -> "ComplexRadical":
        """Embed an int, Fraction, GaussianRational or ComplexRadical."""
        if isinstance(x, ComplexRadical):
            return x
        if isinstance(x, GaussianRational):
            return _wrap({d: n for d, n in ((1, x.re), (-1, x.im)) if n}, x.den)
        n, m = _num_den(x)
        return _wrap({1: n} if n else {}, m)

    @classmethod
    def i_times(cls, x) -> "ComplexRadical":
        """i*x: sqrt(d) -> sqrt(-d), and i*i*sqrt(a) = -sqrt(a) for d = -a."""
        x = cls.of(x)
        return _wrap({-d: -n if d < 0 else n for d, n in x._terms.items()}, x._den)

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
        return _reduced({d: s}, b)

    # -- structure ---------------------------------------------------------

    def items(self) -> list[tuple[int, Fraction]]:
        """(radicand, rational coefficient) pairs."""
        return [(d, Fraction(n, self._den)) for d, n in self._terms.items()]

    def is_zero(self) -> bool:
        return not self._terms

    def conj(self) -> "ComplexRadical":
        return _wrap({d: -n if d < 0 else n for d, n in self._terms.items()}, self._den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "ComplexRadical":
        if (other := _operand(other)) is None:
            return NotImplemented
        # rescale both numerator sets to the lcm of the denominators, unless
        # they already share one
        den = self._den
        if den == other._den:
            terms, s2 = dict(self._terms), 1
        else:
            g = math.gcd(den, other._den)
            s1, s2 = other._den // g, den // g
            terms = {d: n * s1 for d, n in self._terms.items()}
            den *= s1
        for d, n in other._terms.items():
            n *= s2
            if d in terms:
                n += terms[d]
                if not n:
                    del terms[d]
                    continue
            terms[d] = n
        return _reduced(terms, den)

    __radd__ = __add__

    def __neg__(self) -> "ComplexRadical":
        return _wrap({d: -n for d, n in self._terms.items()}, self._den)

    def __sub__(self, other) -> "ComplexRadical":
        if (other := _operand(other)) is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "ComplexRadical":
        if (other := _operand(other)) is None:
            return NotImplemented
        terms: dict[int, int] = {}
        for d1, n1 in self._terms.items():
            for d2, n2 in other._terms.items():
                # sqrt(d1)*sqrt(d2) = g*sqrt((d1/g)*(d2/g)) with g = gcd(|d1|, |d2|);
                # the product of coprime squarefree integers is squarefree, and
                # two negative radicands contribute i*i = -1.
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                n = -n1 * n2 * g if d1 < 0 and d2 < 0 else n1 * n2 * g
                terms[d] = terms[d] + n if d in terms else n
        if len(self._terms) > 1 and len(other._terms) > 1:
            # only then can two products land on one radicand and cancel
            terms = {d: n for d, n in terms.items() if n}
        return _reduced(terms, self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "ComplexRadical":
        """Exact multiplicative inverse.

        A single term c*sqrt(d) inverts to sqrt(d)/(c*d), for either sign of
        d.  A multi-term value is rationalized by multiplying with all its
        Galois conjugates: each conjugate flips the sign of sqrt(p) for a set
        of primes p of the |d|, and of i (complex conjugation) when -1 is in
        the set; with m such generators there are 2^m - 1 nontrivial
        conjugates, and the full product is rational.
        """
        terms = self._terms
        if not terms:
            raise ZeroDivisionError("inverse of zero ComplexRadical")
        if len(terms) == 1:
            # (n/D)*sqrt(d) inverts to D*sqrt(d)/(n*d)
            ((d, n),) = terms.items()
            return _reduced({d: self._den if n * d > 0 else -self._den}, abs(n * d))
        flippers = {d: set(prime_factors(abs(d))) | ({-1} if d < 0 else set()) for d in terms}
        gens = sorted(set().union(*flippers.values()))
        acc = ComplexRadical.one()
        for mask in range(1, 1 << len(gens)):
            flips = {gens[i] for i in range(len(gens)) if mask >> i & 1}
            acc = acc * _wrap(
                {d: -n if len(flippers[d] & flips) % 2 else n for d, n in terms.items()},
                self._den,
            )
        norm = self * acc  # rational: norm._terms[1] / norm._den
        n = norm._terms[1]
        return acc * _wrap({1: norm._den if n > 0 else -norm._den}, abs(n))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = ComplexRadical.of(other)
        if not isinstance(other, ComplexRadical):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        # a rational value hashes as the int or Fraction it equals
        if self._terms.keys() <= {1}:
            return hash(Fraction(self._terms.get(1, 0), self._den))
        return hash((frozenset(self._terms.items()), self._den))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- numeric bridge and serialization ----------------------------------

    def to_complex(self) -> complex:
        # int / int is correctly rounded, the same bits as float(Fraction(n, den))
        den, terms = self._den, self._terms.items()
        return complex(
            sum(n / den * math.sqrt(d) for d, n in terms if d > 0),
            sum(n / den * math.sqrt(-d) for d, n in terms if d < 0),
        )

    def _parts(self) -> tuple[list, list]:
        """(real, imaginary) (|d|, Fraction) pairs, each sorted by |d|."""
        ordered = sorted(self.items(), key=lambda t: abs(t[0]))
        return [(d, c) for d, c in ordered if d > 0], [(-d, c) for d, c in ordered if d < 0]

    def to_dict(self) -> dict:
        """{"re": triples, "im": triples}, triples [[|d|, numerator, denominator], ...]."""
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


def _wrap(terms: dict[int, int], den: int = 1) -> ComplexRadical:
    """A ComplexRadical on zero-free numerators over den > 0, already in
    lowest terms, taken as is."""
    x = _new(ComplexRadical)
    x._terms = terms
    x._den = den
    return x


def _reduced(terms: dict[int, int], den: int) -> ComplexRadical:
    """A ComplexRadical on zero-free numerators over den > 0, after dividing
    out gcd(den, *numerators); zero comes back with den 1."""
    g = math.gcd(den, *terms.values())
    if g != 1:
        terms = {d: n // g for d, n in terms.items()}
        den //= g
    return _wrap(terms, den)


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
        if not x._terms.keys() <= {1, -1}:
            raise ValueError(f"{x!r} is not in Q(i)")
        return _gauss(x._terms.get(1, 0), x._terms.get(-1, 0), x._den)

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
        return hash(ComplexRadical.of(self))

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
