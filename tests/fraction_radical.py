"""Test-only reference: the radical-field number type as it was before the
integer-numerator representation, one Fraction per radicand.

`tests/test_scalar_reference.py` drives the same operation sequences through
this class and through `su21coh.scalars.ComplexRadical` and requires equal
exports, representations and floats after every step.
"""

from __future__ import annotations

import math
from fractions import Fraction

from su21coh.scalars import prime_factors, square_free_split


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


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


class FractionRadical:
    """An exact complex number  sum_d c_d * sqrt(d)  (d squarefree, c_d in Q)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        # terms maps squarefree radicand (either sign) -> nonzero rational coefficient
        self._terms = {d: c for d, c in (terms or {}).items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "FractionRadical":
        return _wrap({})

    @classmethod
    def one(cls) -> "FractionRadical":
        return _wrap({1: Fraction(1)})

    @classmethod
    def i(cls) -> "FractionRadical":
        return _wrap({-1: Fraction(1)})

    @classmethod
    def of(cls, x) -> "FractionRadical":
        """Embed an int, Fraction or FractionRadical."""
        if isinstance(x, FractionRadical):
            return x
        q = _as_fraction(x)
        return _wrap({1: q} if q else {})

    @classmethod
    def i_times(cls, x) -> "FractionRadical":
        """i*x: sqrt(d) -> sqrt(-d), and i*i*sqrt(a) = -sqrt(a) for d = -a."""
        return _wrap({-d: -c if d < 0 else c for d, c in cls.of(x)._terms.items()})

    @classmethod
    def sqrt(cls, q) -> "FractionRadical":
        """Exact square root of a rational q >= 0, as a single term c*sqrt(d).

        sqrt(a/b) = sqrt(a*b)/b, then the integer radicand is reduced to its
        squarefree part.  A negative q is refused rather than read as i*sqrt(-q):
        the coefficient formulas only take roots of nonnegative quantities.
        """
        q = _as_fraction(q)
        if q < 0:
            raise ValueError(f"sqrt of negative rational {q}")
        if q == 0:
            return _wrap({})
        s, d = square_free_split(q.numerator * q.denominator)
        return _wrap({d: Fraction(s, q.denominator)})

    # -- structure ---------------------------------------------------------

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def conj(self) -> "FractionRadical":
        return _wrap({d: -c if d < 0 else c for d, c in self._terms.items()})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "FractionRadical":
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

    def __neg__(self) -> "FractionRadical":
        return _wrap({d: -c for d, c in self._terms.items()})

    def __sub__(self, other) -> "FractionRadical":
        if (other := _operand(other)) is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "FractionRadical":
        if (other := _operand(other)) is None:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in other._terms.items():
                # sqrt(d1)*sqrt(d2) = g*sqrt((d1/g)*(d2/g)) with g = gcd(|d1|, |d2|);
                # the product of coprime squarefree integers is squarefree, and
                # two negative radicands contribute i*i = -1.
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                c = -c1 * c2 * g if d1 < 0 and d2 < 0 else c1 * c2 * g
                terms[d] = terms[d] + c if d in terms else c
        if len(self._terms) > 1 and len(other._terms) > 1:
            # only then can two products land on one radicand and cancel
            terms = {d: c for d, c in terms.items() if c}
        return _wrap(terms)

    __rmul__ = __mul__

    def inverse(self) -> "FractionRadical":
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
            raise ZeroDivisionError("inverse of zero FractionRadical")
        if len(terms) == 1:
            ((d, c),) = terms.items()
            return _wrap({d: 1 / (c * d)})
        flippers = {d: set(prime_factors(abs(d))) | ({-1} if d < 0 else set()) for d in terms}
        gens = sorted(set().union(*flippers.values()))
        acc = FractionRadical.one()
        for mask in range(1, 1 << len(gens)):
            flips = {gens[i] for i in range(len(gens)) if mask >> i & 1}
            acc = acc * _wrap(
                {d: -c if len(flippers[d] & flips) % 2 else c for d, c in terms.items()}
            )
        norm = (self * acc)._terms[1]
        return acc * _wrap({1: 1 / norm})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = FractionRadical.of(other)
        if not isinstance(other, FractionRadical):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- numeric bridge and serialization ----------------------------------

    def to_complex(self) -> complex:
        terms = self._terms.items()
        return complex(
            sum(float(c) * math.sqrt(d) for d, c in terms if d > 0),
            sum(float(c) * math.sqrt(-d) for d, c in terms if d < 0),
        )

    def _parts(self) -> tuple[list, list]:
        """(real, imaginary) (|d|, c) pairs, each sorted by |d|."""
        ordered = sorted(self._terms.items(), key=lambda t: abs(t[0]))
        return [(d, c) for d, c in ordered if d > 0], [(-d, c) for d, c in ordered if d < 0]

    def to_dict(self) -> dict:
        """{"re": triples, "im": triples}, triples [[|d|, numerator, denominator], ...]."""
        return {
            part: [[d, c.numerator, c.denominator] for d, c in pairs]
            for part, pairs in zip(("re", "im"), self._parts())
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FractionRadical":
        parts = ((1, data.get("re", [])), (-1, data.get("im", [])))
        return cls({sign * int(d): Fraction(int(n), int(m)) for sign, t in parts for d, n, m in t})

    def __repr__(self) -> str:
        re, im = self._parts()
        if not im:
            return _real_repr(re) or "0"
        if not re:
            return f"i*({_real_repr(im)})"
        return f"({_real_repr(re)}) + i*({_real_repr(im)})"


_new = object.__new__


def _operand(x) -> FractionRadical | None:
    """x as a FractionRadical; None for other types, whose own methods decide."""
    if isinstance(x, FractionRadical):
        return x
    return FractionRadical.of(x) if isinstance(x, (int, Fraction)) else None


def _wrap(terms: dict[int, Fraction]) -> FractionRadical:
    """A FractionRadical on a zero-free terms dict, taken as is."""
    x = _new(FractionRadical)
    x._terms = terms
    return x
