"""Shared sparse linear-combination container over exact scalars.

Subclasses fix the key type (monomials, matrix cells, and the (wedge,
Wigner index, monomial) keys of `cochains.Cochain`, whose 0-cochains at
wedge () are the vectors of the module) and inherit exact module
arithmetic.  Zero coefficients are never stored, so equality of term
dictionaries is equality of the represented vectors.  Coefficients are
GaussianRationals (Q(i)) or ComplexRadicals (Q(i)(sqrt(d)), sums of
sqrt(d) with GaussianRational coefficients); ints and Fractions enter as
GaussianRationals (`scalars.exact`).
"""

from __future__ import annotations

from .scalars import GaussianRational, exact

_ZERO = GaussianRational()  # read for every absent key; no scalar is mutated


class LinComb:
    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                if type(coeff) is not GaussianRational:
                    coeff = exact(coeff)
                clean[key] = clean[key] + coeff if key in clean else coeff
            clean = {key: coeff for key, coeff in clean.items() if coeff}
        self._terms = clean

    def items(self):
        return self._terms.items()

    def support(self):
        return self._terms.keys()

    def get(self, key):
        return self._terms.get(key, _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = terms.get(key)
            coeff = coeff if acc is None else acc + coeff
            if coeff.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = coeff
        return _made(type(self), terms)

    def __neg__(self):
        return _made(type(self), {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scaled(self, scalar):
        scalar = exact(scalar)
        if scalar.is_zero():
            return type(self)()
        # a product of nonzero field elements is nonzero
        return _made(type(self), {k: c * scalar for k, c in self._terms.items()})

    def __mul__(self, scalar):
        return self.scaled(scalar)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return f"{type(self).__name__}(0)"
        body = " + ".join(f"({c!r})*{k}" for k, c in self._terms.items())
        return f"{type(self).__name__}({body})"


def _made(cls, terms: dict):
    """A cls on a dict with no zero coefficient, taken as is."""
    out = object.__new__(cls)
    out._terms = terms
    return out
