"""Wigner indices of the K-finite vectors of the induced module, with the
raising/lowering actions of the compact generators and the four noncompact
lowering/raising operators on a single index.

The actions are given in the rescaled (unnormalized Gelfand-Tsetlin) basis
W'_idx = W_idx / a(idx), a(idx)^2 = `scale_sq(idx)` (Biedenharn-Louck,
1981), where a unitary coefficient c of W_t becomes c * a(t) / a(idx): the
square roots cancel, and every `plus1` coefficient is a Gaussian rational.

An index (j, n, m1, m2) names the matrix-coefficient function on U(2); the
induced module for the weight parameter k >= 0 contains exactly the
structurally valid indices whose n is fixed by m2 through the central
character of the inducing character, n = 3*m2 - 2k - 3.  `module_index`
is the one place that holds this rule; every index of the module, the
named families included, is built through it.

All half-integers are stored as doubled integers; nothing in this module
touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple

from .lie import LieGen
from .scalars import ComplexRadical, GaussianRational


class InadmissibleResult(ArithmeticError):
    """A nonzero coefficient landed on a structurally invalid index.

    This never fires for correct operator coefficients: targets outside the
    |m| <= j window always carry a vanishing square-root factor.  It exists
    as a tripwire against transcription errors in the coefficient formulas.
    """


class OutOfRange(ValueError):
    """Named index family requested outside its defining range."""


def _half(twice: int) -> str:
    """A doubled integer printed as the half-integer it stands for."""
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


class WignerIndex(NamedTuple):
    """(j, n, m1, m2), each stored doubled."""

    j2: int
    n2: int
    m12: int
    m22: int

    def structurally_valid(self) -> bool:
        j2, n2, m12, m22 = self
        return (
            j2 >= 0
            and abs(m12) <= j2
            and abs(m22) <= j2
            and (j2 + m12) % 2 == 0
            and (j2 + m22) % 2 == 0
            and (j2 + n2) % 2 == 0
        )

    def to_dict(self) -> dict:
        j2, n2, m12, m22 = self
        return {"j2": j2, "n2": n2, "m1_2": m12, "m2_2": m22}

    def __str__(self) -> str:
        j2, n2, m12, m22 = self
        return f"W[j={_half(j2)},n={_half(n2)},m1={_half(m12)},m2={_half(m22)}]"


def module_index(k: int, j2: int, m12: int, m22: int) -> WignerIndex:
    """The index (j, n, m1, m2) of the module at parameter k, with n pinned
    to m2 by the central character, n = 3*m2 - (2k + 3)."""
    return WignerIndex(j2, 3 * m22 - (4 * k + 6), m12, m22)


def admissible(idx: WignerIndex, k: int) -> bool:
    """Membership in the induced module at parameter k: a structurally valid
    index with the central character's n.  The torus window
    -3j - 2k - 3 <= n <= 3j - 2k - 3 then reads |m2| <= j, which structural
    validity already requires."""
    return idx.structurally_valid() and idx == module_index(k, idx.j2, idx.m12, idx.m22)


def admissible_indices(k: int, j_max) -> Iterator[WignerIndex]:
    """All admissible indices with j <= j_max, in deterministic order: a
    plain sweep over (j, m1, m2), since the central character pins n."""
    jmax2 = int(2 * Fraction(j_max))
    for j2 in range(0, jmax2 + 1):
        for m12 in range(-j2, j2 + 1, 2):
            for m22 in range(-j2, j2 + 1, 2):
                yield module_index(k, j2, m12, m22)


def scale_sq(idx: WignerIndex) -> Fraction:
    """a(idx)^2 = prod over m in (m1, m2) of (j+m)!/(j-m)!, the squared scale
    of the rescaled basis vector W'_idx = W_idx / a(idx)."""
    j2, _, m12, m22 = idx
    f = math.factorial
    return Fraction(f((j2 + m12) // 2) * f((j2 + m22) // 2),
                    f((j2 - m12) // 2) * f((j2 - m22) // 2))


# ---------------------------------------------------------------------------
# Compact-generator action (diagonal weights and su(2) raising/lowering).
# ---------------------------------------------------------------------------


def index_weight(gen: LieGen, idx: WignerIndex) -> int:
    """The doubled imaginary weight of a diagonal compact generator on W'_idx:
    U0 acts by i*n and U3 by i*m1, so the weight is n2 or m12."""
    if gen is LieGen.U0:
        return idx.n2
    if gen is LieGen.U3:
        return idx.m12
    raise ValueError(f"{gen} is not a diagonal compact generator")


def act_l_index(gen: LieGen, idx: WignerIndex) -> list[tuple[WignerIndex, GaussianRational]]:
    if gen is LieGen.U0 or gen is LieGen.U3:
        weight = index_weight(gen, idx)
        return [(idx, GaussianRational(0, weight, 2))] if weight else []
    j2, n2, m12, m22 = idx
    if gen is LieGen.U1_PLUS_IU2:
        product = ((j2 - m12) // 2) * ((j2 + m12) // 2 + 1)
        shift, coeff = 2, GaussianRational(0, -product)
    elif gen is LieGen.U1_MINUS_IU2:
        product = ((j2 + m12) // 2) * ((j2 - m12) // 2 + 1)
        shift, coeff = -2, GaussianRational(0, -1)
    else:
        raise ValueError(f"{gen} is not a compact generator")
    if product == 0:
        # raising at m1 = j / lowering at m1 = -j annihilates; the would-be
        # target falls outside |m1| <= j exactly in this case
        return []
    # the unitary -i*sqrt(product) times a(target)/a(idx) = sqrt(product)^(+-1)
    return [(WignerIndex(j2, n2, m12 + shift, m22), coeff)]


# ---------------------------------------------------------------------------
# Noncompact-generator action.
# ---------------------------------------------------------------------------

VARIANTS = ("plus1", "plus2")
DEFAULT_VARIANT = "plus1"

# Each operator X_i is two rows (sign, dj, dn, dm1, dm2), to j - 1/2 and
# j + 1/2: the sign of its coefficient and its doubled move of (j, n, m1, m2),
# with [U0, X_i] = i(dn/2) X_i and [U3, X_i] = i(dm1/2) X_i.  p_C acts as a
# tensor with spin 1/2, so every row's unitary coefficient is
# sign * lin * sqrt(a * b) / (2(2j+1)): a is the spin-1/2 ladder factor on
# the m1 side (j -+ m1 going down, j +- m1 + 1 going up, for dm1 = +-1), b
# the same on the m2 side, and lin, linear in d = m2 - n, is 2j - 1 + s*d
# going down and 2j + 3 - s*d going up, s = dn/3.  By `scale_sq` the m1 part
# of a(t)/a(idx) is sqrt(a) where m1 rises and 1/sqrt(a) where it falls, and
# likewise for b; so in the rescaled basis the roots cancel, and a or b is
# left as a factor exactly where its m rises.  A zero a or b marks
# the targets outside |m| <= j.  The "variant" switch selects between the two
# candidate inner shifts of X3's up row: plus2 reads the root (a + 1) * b.
# Only plus1 is consistent with the rest of the structure (see README);
# plus2 is kept for the numeric adjudication harness.
P_ROWS = {
    LieGen.X1: ((-1, -1, 3, 1, 1), (1, 1, 3, 1, 1)),
    LieGen.X2: ((-1, -1, 3, -1, 1), (-1, 1, 3, -1, 1)),
    LieGen.X3: ((-1, -1, -3, -1, -1), (1, 1, -3, -1, -1)),
    LieGen.X4: ((1, -1, -3, 1, -1), (1, 1, -3, 1, -1)),
}


def act_p_index(
    gen: LieGen, idx: WignerIndex, variant: str = DEFAULT_VARIANT
) -> list[tuple[WignerIndex, GaussianRational | ComplexRadical]]:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    rows = P_ROWS.get(gen)
    if rows is None:
        raise ValueError(f"{gen} is not a noncompact generator")
    plus2 = variant == "plus2" and gen is LieGen.X3
    j2, n2, m12, m22 = idx
    d = (m22 - n2) // 2  # m2 - n, an integer for any valid index
    denom = 2 * (j2 + 1)  # 2(2j+1)
    out = []
    for sign, dj, dn, dm1, dm2 in rows:
        up = dj > 0
        a = (j2 + dj * dm1 * m12) // 2 + up
        b = (j2 + dj * dm2 * m22) // 2 + up
        lin = j2 - dj * (dn // 3) * d + 1 + 2 * dj
        if a * b * lin == 0:
            continue
        target = WignerIndex(j2 + dj, n2 + dn, m12 + dm1, m22 + dm2)
        if not target.structurally_valid():
            raise InadmissibleResult(
                f"{gen.value} on {idx} produced nonzero coefficient on invalid {target}"
            )
        num = sign * lin * (a if dm1 > 0 else 1) * (b if dm2 > 0 else 1)
        if plus2 and up:
            out.append((target, ComplexRadical.sqrt(Fraction(a + 1, a)) * Fraction(num, denom)))
        else:
            out.append((target, GaussianRational(num, 0, denom)))
    return out


# ---------------------------------------------------------------------------
# Named index families entering the explicit cocycles.
# ---------------------------------------------------------------------------


def _check_l(l: int, lo: int, hi: int) -> None:
    if not lo <= l <= hi:
        raise OutOfRange(f"l={l} outside [{lo}, {hi}]")


def psi_index(k: int, l: int) -> WignerIndex:
    """Index family carrying the (1,1)-type cocycle; l in {-1, ..., k+1}."""
    _check_l(l, -1, k + 1)
    return module_index(k, k + 2, -k + 2 * l, k + 2)


def psi0_index(k: int, l: int) -> WignerIndex:
    """Index family carrying the (0,2)-type cocycle; l in {0, ..., k}.

    The m2 parameter equals k/2: it is the unique value compatible with the
    central-character condition (and, for small k, with |m2| <= j).
    """
    _check_l(l, 0, k)
    return module_index(k, k, -k + 2 * l, k)


def chi_index(k: int, l: int) -> WignerIndex:
    """Index family carrying the primitive 1-cochain; l in {0, ..., k+1}."""
    _check_l(l, 0, k + 1)
    return module_index(k, k + 1, -(k + 1) + 2 * l, k + 1)
