"""Degree-k homogeneous polynomials in x, y, z as an exact module over the
algebra, with the derivation action obtained by differentiating the
transpose substitution  p(v) -> p(M^T v).

The action is computed generically from matrices rather than from any
special-cased eigenvalue rules; the diagonal and raising/lowering values on
x^(k-l) y^l used by the cocycle constructions then come out as theorems of
this module, not as inputs.
"""

from __future__ import annotations

from typing import NamedTuple

from .lie import Mat3
from .sparse import LinComb


class Monomial(NamedTuple):
    a: int
    b: int
    c: int

    def degree(self) -> int:
        return self.a + self.b + self.c


def monomial_xy(k: int, l: int) -> Monomial:
    """x^(k-l) y^l."""
    if not 0 <= l <= k:
        raise ValueError(f"l={l} outside [0, {k}]")
    return Monomial(k - l, l, 0)


class PolyVector(LinComb):
    """Exact linear combination of monomials of one common degree."""


def act_poly(mat: Mat3, p: PolyVector) -> PolyVector:
    """First-order derivation: mat acts on a monomial as
    sum_i (sum_j mat[j,i] x_j) d/dx_i, preserving the degree."""
    out: list = []
    for mono, coeff in p.items():
        for (j, i), entry in mat.items():
            e = mono[i]
            if e:
                target = list(mono)
                target[i] -= 1
                target[j] += 1
                out.append((Monomial(*target), coeff * entry * e))
    return PolyVector(out)
