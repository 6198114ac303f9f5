"""The operator table and cochain coefficients in the unitary Wigner basis,
kept as a reference for the rescaled engine.

`su21coh.wigner` gives the actions in the rescaled basis
W'_idx = W_idx / a(idx), in which every `plus1` coefficient is a Gaussian
rational, and derives each noncompact row from its move in `P_ROWS`.  This
module is the one home of the literal rows: the square-root form they were
derived from, the su(2) ladder coefficients and the noncompact rows
sign * linear * sqrt(root) / (2(2j+1)) written out one by one, and the
cochain coefficients alpha, beta, gamma.  The tests assert that the two
forms agree exactly, coefficient by coefficient, through a(t)/a(idx).
"""

import math
from fractions import Fraction

from conftest import I
from su21coh.lie import LieGen
from su21coh.scalars import ComplexRadical
from su21coh.wigner import WignerIndex, scale_sq


def unitary(coeff, idx: WignerIndex, tgt: WignerIndex) -> ComplexRadical:
    """A rescaled coefficient of W'_tgt in the image of W'_idx, back in the
    unitary basis: coeff * a(idx) / a(tgt)."""
    return ComplexRadical.of(coeff) * ComplexRadical.sqrt(scale_sq(idx) / scale_sq(tgt))


def unitary_coord(coeff, idx: WignerIndex, mu_sq=1) -> ComplexRadical:
    """A rescaled cochain coordinate at idx, back in the unitary basis, for a
    cochain stored divided by sqrt(mu_sq): coeff * sqrt(mu_sq) / a(idx)."""
    return ComplexRadical.of(coeff) * ComplexRadical.sqrt(Fraction(mu_sq) / scale_sq(idx))


def act_l_index(gen: LieGen, idx: WignerIndex) -> list[tuple[WignerIndex, ComplexRadical]]:
    j2, n2, m12, m22 = idx
    if gen is LieGen.U0:
        return [(idx, Fraction(n2, 2) * I)] if n2 else []
    if gen is LieGen.U3:
        return [(idx, Fraction(m12, 2) * I)] if m12 else []
    if gen is LieGen.U1_PLUS_IU2:
        product, shift = ((j2 - m12) // 2) * ((j2 + m12) // 2 + 1), 2
    elif gen is LieGen.U1_MINUS_IU2:
        product, shift = ((j2 + m12) // 2) * ((j2 - m12) // 2 + 1), -2
    else:
        raise ValueError(f"{gen} is not a compact generator")
    if product == 0:
        return []
    coeff = -ComplexRadical.sqrt(product) * I
    return [(WignerIndex(j2, n2, m12 + shift, m22), coeff)]


def act_p_index(gen: LieGen, idx: WignerIndex, variant: str = "plus1"):
    j2, n2, m12, m22 = idx
    d = (m22 - n2) // 2
    jp, jm = (j2 + m12) // 2, (j2 - m12) // 2
    kp, km = (j2 + m22) // 2, (j2 - m22) // 2
    x3_inner = 1 if variant == "plus1" else 2
    spec = {
        LieGen.X1: [
            (-1, jm * km, j2 + d - 1, (-1, 3, 1, 1)),
            (+1, (jp + 1) * (kp + 1), j2 - d + 3, (1, 3, 1, 1)),
        ],
        LieGen.X2: [
            (-1, jp * km, j2 + d - 1, (-1, 3, -1, 1)),
            (-1, (jm + 1) * (kp + 1), j2 - d + 3, (1, 3, -1, 1)),
        ],
        LieGen.X3: [
            (-1, jp * kp, j2 - d - 1, (-1, -3, -1, -1)),
            (+1, (jm + x3_inner) * (km + 1), j2 + d + 3, (1, -3, -1, -1)),
        ],
        LieGen.X4: [
            (+1, jm * kp, j2 - d - 1, (-1, -3, 1, -1)),
            (+1, (jp + 1) * (km + 1), j2 + d + 3, (1, -3, 1, -1)),
        ],
    }[gen]
    out = []
    for sign, root, lin, (dj, dn, dm1, dm2) in spec:
        if root == 0 or lin == 0:
            continue
        target = WignerIndex(j2 + dj, n2 + dn, m12 + dm1, m22 + dm2)
        assert target.structurally_valid()
        out.append((target, ComplexRadical.sqrt(root) * Fraction(sign * lin, 2 * (j2 + 1))))
    return out


def alpha_coeff(k: int, l: int) -> ComplexRadical:
    """(k-l+1)/(k+1) * sqrt(l+1) * sqrt(C(k+1, l))."""
    return (
        ComplexRadical.of(Fraction(k - l + 1, k + 1))
        * ComplexRadical.sqrt(l + 1)
        * ComplexRadical.sqrt(math.comb(k + 1, l))
    )


def beta_coeff(k: int, l: int) -> ComplexRadical:
    """sqrt(C(k, l))."""
    return ComplexRadical.sqrt(math.comb(k, l))


def gamma_coeff(k: int, l: int) -> ComplexRadical:
    """sqrt((k+1-l)/(k+1)) * sqrt(C(k, l))."""
    return ComplexRadical.sqrt(Fraction(k + 1 - l, k + 1)) * ComplexRadical.sqrt(
        math.comb(k, l)
    )
