"""The relative Chevalley-Eilenberg complex in degrees 0..4 for the induced
module tensored with the degree-k polynomial coefficients, together with the
explicit 1- and 2-cochains, the differential, equivariance checking, and the
full verification suite for the closedness / non-exactness statements.

A q-cochain is a `Cochain`: one sparse `LinComb` keyed by (wedge,
WignerIndex, Monomial), where the wedge is a sorted q-tuple of the
noncompact generators X1..X4, so its value on a basis wedge is the sum of
the index x monomial terms at that wedge.  A vector of the module (induced
module tensor polynomials) is the 0-cochain at wedge ().  Coordinates are
in the rescaled Wigner basis W'_idx = W_idx / a(idx) of `wigner`.  There
the explicit cochains have Gaussian-rational coordinates: k!/(k-l)! at l
for `chi(X3)` and `psi0(X3^X4)`, (l+1) k!/(k-l)! for `psi(X1^X3)`, stored
as psi/sqrt(k+2); `cochain_to_dict` converts back to the unitary basis.
A generator acts on a cochain through all three slots (`act_tensor`):
on the function and polynomial slots by the Leibniz rule, and on the
wedge slot by pulling back, (u.psi)(w) = u.(psi(w)) - psi(u.w).  A
cochain is K-equivariant exactly when the compact generators annihilate
it.  The differential uses only the first-order terms: the pairwise
brackets of the X's project to zero in the quotient, which is asserted
(not assumed) on first use.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .lie import L_GENS, P_GENS, LieGen, bracket_coords, gen_matrix, wedge_action, wedge_insert
from .polynomials import Monomial, PolyVector, act_poly, monomial_xy
from .report import CheckResult, all_passed
from .scalars import ComplexRadical, GaussianRational
from .sparse import LinComb, _made
from .wigner import (
    DEFAULT_VARIANT,
    WignerIndex,
    act_l_index,
    act_p_index,
    admissible,
    chi_index,
    psi0_index,
    psi_index,
    scale_sq,
)

_I = GaussianRational(0, 1)

Wedge = tuple  # sorted tuple of distinct indices from {1, 2, 3, 4}


class BracketNotInL(RuntimeError):
    """A pairwise bracket of noncompact generators escaped the compact part.

    Structurally impossible for this algebra; kept as a tripwire."""


class Cochain(LinComb):
    """Exact cochain with (wedge, WignerIndex, Monomial) keys; a module
    vector is the 0-cochain at wedge ()."""

    __slots__ = ()


def basis_wedges(q: int) -> tuple[Wedge, ...]:
    return tuple(itertools.combinations((1, 2, 3, 4), q))


def _placed(values: dict) -> Cochain:
    """The cochain taking each wedge to the given 0-cochain."""
    return _made(Cochain, {(w, idx, mono): c for w, v in values.items()
                           for (_, idx, mono), c in v.items()})


@lru_cache(maxsize=None)
def _poly_image(gen: LieGen, mono: Monomial) -> tuple:
    """(monomial, coefficient) pairs of gen acting on one monomial."""
    return tuple(act_poly(gen_matrix(gen), PolyVector({mono: 1})).items())


@lru_cache(maxsize=None)
def _pullback(gen: LieGen) -> dict:
    """{w2: ((w, -c), ...)} over the basis wedges w with gen.w = ... + c w2
    + ...: minus the transpose of `wedge_action`.  Empty for a noncompact
    generator, whose brackets with the X's have no p-part.  Memoized:
    callers share the dict and only read it."""
    out: dict = {}
    for w in itertools.chain.from_iterable(basis_wedges(q) for q in range(5)):
        for w2, c in wedge_action(gen, w).items():
            out.setdefault(w2, []).append((w, -c))
    return {w2: tuple(pairs) for w2, pairs in out.items()}


def act_tensor(gen: LieGen, psi: Cochain, variant: str = DEFAULT_VARIANT) -> Cochain:
    """The action on all three slots of every term, (gen.psi)(w) =
    gen.(psi(w)) - psi(gen.w): gen on the function slot plus gen on the
    polynomial slot (Leibniz), and the pullback along gen on the wedge
    slot."""
    compact = gen in L_GENS
    pullback = _pullback(gen)
    out: list = []
    for (w, idx, mono), coeff in psi.items():
        moved = act_l_index(gen, idx) if compact else act_p_index(gen, idx, variant)
        for tgt, c in moved:
            out.append(((w, tgt, mono), c * coeff))
        for pm, pc in _poly_image(gen, mono):
            out.append(((w, idx, pm), pc * coeff))
        for w1, c in pullback.get(w, ()):
            out.append(((w1, idx, mono), c * coeff))
    return Cochain(out)


# ---------------------------------------------------------------------------
# Differential.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _check_p_brackets_central() -> bool:
    for a, b in itertools.combinations(range(4), 2):
        if bracket_coords(P_GENS[a], b + 1):
            raise BracketNotInL(f"[X{a + 1}, X{b + 1}] has a nonzero noncompact part")
    return True


def differential(psi: Cochain, variant: str = DEFAULT_VARIANT) -> Cochain:
    """First sum of the Chevalley-Eilenberg differential: for each X_i, X_i
    acts on the terms whose wedge lacks i, which land on the wedge with i
    inserted, signed (-1)^(position of i).  The second (bracket) sum
    vanishes identically here because all pairwise brackets of the
    noncompact generators lie in the compact part; that fact is checked once
    per process rather than trusted."""
    _check_p_brackets_central()
    out: list = []
    for i, gen in enumerate(P_GENS, 1):
        lacking = {}
        for (w, idx, mono), coeff in psi.items():
            if i not in w:
                target, flip = wedge_insert(w, i)
                lacking[target, idx, mono] = -coeff if flip else coeff
        if lacking:
            out.extend(act_tensor(gen, _made(Cochain, lacking), variant).items())
    return Cochain(out)


# ---------------------------------------------------------------------------
# Compact-group equivariance.
# ---------------------------------------------------------------------------


def check_equivariance(psi: Cochain) -> bool:
    """Exact K-equivariance: the four compact generators annihilate psi,
    i.e. u.(psi(w)) = psi(u.w) for every u and basis wedge w."""
    return all(act_tensor(u, psi).is_zero() for u in L_GENS)


# ---------------------------------------------------------------------------
# The explicit cochains.
# ---------------------------------------------------------------------------


def _family(k: int, index, coeff) -> Cochain:
    """sum over l = 0..k of coeff(l) W'_index(k, l) (x) x^(k-l) y^l, a
    0-cochain."""
    return Cochain([(((), index(k, l), monomial_xy(k, l)), coeff(l)) for l in range(k + 1)])


def chi3_element(k: int) -> Cochain:
    return _family(k, chi_index, lambda l: math.perm(k, l))


def build_chi(k: int) -> Cochain:
    """1-cochain: X3 -> sum_l k!/(k-l)! W'_chi(l) (x) x^(k-l) y^l, X4 -> its
    raised partner, X1 and X2 -> 0."""
    chi3 = chi3_element(k)
    chi4 = act_tensor(LieGen.U1_PLUS_IU2, chi3).scaled(_I)
    return _placed({(3,): chi3, (4,): chi4})


def psi_w13_element(k: int) -> Cochain:
    return _family(k, psi_index, lambda l: (l + 1) * math.perm(k, l))


def build_psi(k: int) -> Cochain:
    """psi/sqrt(k+2): the 2-cochain supported on the mixed wedges, generated
    from its value on X1^X3 by the compact raising/lowering operators."""
    w13 = psi_w13_element(k)
    w23 = act_tensor(LieGen.U1_MINUS_IU2, w13).scaled(-_I)
    w14 = act_tensor(LieGen.U1_PLUS_IU2, w13).scaled(_I)
    return _placed({(1, 3): w13, (2, 3): w23, (2, 4): -w13, (1, 4): w14})


def build_psi0(k: int) -> Cochain:
    """2-cochain supported on X3^X4 alone."""
    return _placed({(3, 4): _family(k, psi0_index, lambda l: math.perm(k, l))})


# ---------------------------------------------------------------------------
# Bigrading.
# ---------------------------------------------------------------------------

_P_PLUS = {1, 2}


def wedge_bidegree(w: Wedge) -> tuple[int, int]:
    p = sum(1 for i in w if i in _P_PLUS)
    return (p, len(w) - p)


def hodge_type(psi: Cochain):
    """Support class of a 2-cochain under the holomorphic bigrading:
    (2,0), (1,1), (0,2), or "mixed"; None for the zero cochain."""
    wedges = {w for w, _, _ in psi.support()}
    if any(len(w) != 2 for w in wedges):
        raise ValueError("hodge type is defined for 2-cochains")
    types = {wedge_bidegree(w) for w in wedges}
    if not types:
        return None
    if len(types) == 1:
        return types.pop()
    return "mixed"


# ---------------------------------------------------------------------------
# Exact linear algebra (kernel computation over Q(i) or the radical field).
# ---------------------------------------------------------------------------


def nullspace(rows: list[list], ncols: int) -> list[list]:
    """Basis of the solution space of rows . x = 0 over exact scalars
    (GaussianRational or ComplexRadical), by sparse Gauss-Jordan elimination
    with exact division.

    Rows are held as {col: nonzero entry} dicts and every pivot column is
    cleared above and below the pivot, so the pivot rows end up in reduced
    row echelon form.  That form is unique, hence so is the returned basis:
    one vector per free column, with a 1 there and minus the reduced
    entries of that column at the pivot positions.
    """
    pending = [{c: x for c, x in enumerate(row) if not x.is_zero()} for row in rows]
    reduced: list[tuple[int, dict]] = []
    for col in range(ncols):
        pivot = next((i for i, row in enumerate(pending) if col in row), None)
        if pivot is None:
            continue
        prow = pending.pop(pivot)
        inv = prow[col].inverse()
        prow = {c: x * inv for c, x in prow.items()}
        for _, row in reduced:
            _eliminate(row, prow, col)
        for row in pending:
            _eliminate(row, prow, col)
        reduced.append((col, prow))
    pivot_cols = {col for col, _ in reduced}
    basis = []
    zero, one = GaussianRational(), GaussianRational(1)
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for pc, prow in reduced:
            if free in prow:
                vec[pc] = -prow[free]
        basis.append(vec)
    return basis


def _eliminate(row: dict, prow: dict, col: int) -> None:
    """row -= row[col] * prow in place, for a pivot row prow normalized at
    col; entries that cancel are dropped."""
    f = row.get(col)
    if f is None:
        return
    for c, x in prow.items():
        new = row[c] - f * x if c in row else -(f * x)
        if new.is_zero():
            del row[c]
        else:
            row[c] = new


# ---------------------------------------------------------------------------
# Theorem verification.
# ---------------------------------------------------------------------------


def verify_closedness(
    k: int, variant: str = DEFAULT_VARIANT, mutate_alpha0: bool = False
) -> list[CheckResult]:
    """The exact identities tying the three explicit cochains together:
    d(chi) splits into the two 2-cocycles, both of which are closed,
    equivariant, and of pure type.

    mutate_alpha0 shifts the leading coefficient of psi by +1 before
    checking, a deliberate mutation used to exercise the failure path: +1 on
    the stored psi/sqrt(k+2) at W'_psi(0), whose scale a = sqrt(k+2) makes it
    the unitary +1 on psi."""
    chi, psi, psi0 = build_chi(k), build_psi(k), build_psi0(k)
    if mutate_alpha0:
        psi = psi + Cochain({((1, 3), psi_index(k, 0), monomial_xy(k, 0)): 1})
    named = (("chi", chi), ("psi", psi), ("psi0", psi0))
    checks = [
        (f"d(chi) = psi/sqrt(k+2) + psi0 [k={k}]", differential(chi, variant) == psi + psi0),
        (f"d(psi) = 0 [k={k}]", differential(psi, variant).is_zero()),
        (f"d(psi0) = 0 [k={k}]", differential(psi0, variant).is_zero()),
        *((f"equivariance({label}) [k={k}]", check_equivariance(c)) for label, c in named),
        (f"type(psi) = (1,1) [k={k}]", hodge_type(psi) == (1, 1)),
        (f"type(psi0) = (0,2) [k={k}]", hodge_type(psi0) == (0, 2)),
    ]
    return [CheckResult(name=name, passed=passed) for name, passed in checks]


def verify_nonexactness(k: int, variant: str = DEFAULT_VARIANT) -> list[CheckResult]:
    """Finite computation mirroring the obstruction argument:

    (a) the only admissible indices whose image under X3 or X4 can reach the
        support of psi0(X3^X4) form exactly the chi family;
    (b) inside the candidate span, the lowering operator has an exactly
        one-dimensional kernel, spanned by the chi seed;
    (c) the X1-image of that seed is nonzero, so no equivariant 1-cochain
        can hit psi0 (whose X1^X3 component vanishes);
    (d) hence psi is not exact either, by the splitting of d(chi).
    """
    results = []
    seed = chi3_element(k)

    # (a) admissible preimages of the psi0 support under X3, X4
    targets = {idx for _w, idx, _mono in build_psi0(k).support()}
    expected = {chi_index(k, l) for l in range(k + 2)}
    found = set()
    for t in targets:
        tj, tn, tm1, tm2 = t
        for gen, dm1 in ((LieGen.X3, +1), (LieGen.X4, -1)):
            for dj in (-1, +1):
                cand = WignerIndex(tj + dj, tn + 3, tm1 + dm1, tm2 + 1)
                if not cand.structurally_valid() or not admissible(cand, k):
                    continue
                image = dict(act_p_index(gen, cand, variant))
                if t in image:
                    found.add(cand)
    detail = "" if found == expected else f"found {len(found)}, expected {len(expected)}"
    results.append(CheckResult(f"preimage candidates = chi family [k={k}]", not detail, detail))

    # (b) lowering kernel inside span{ W_chi(l) (x) x^(k-l) y^l }, the seed's keys
    basis_keys = list(seed.support())
    images = [act_tensor(LieGen.U1_MINUS_IU2, Cochain({key: 1})) for key in basis_keys]
    row_keys = sorted({key for img in images for key in img.support()})
    rows = [[img.get(key) for img in images] for key in row_keys]
    kernel = nullspace(rows, len(basis_keys))
    one_dim = len(kernel) == 1
    results.append(
        CheckResult(f"lowering kernel is 1-dimensional [k={k}]", one_dim, f"dim = {len(kernel)}")
    )
    spans_chi = False
    if one_dim:
        # proportional to the seed's coefficients, none of which is zero
        vec, want = kernel[0], [seed.get(key) for key in basis_keys]
        spans_chi = [c * want[0] for c in vec] == [w * vec[0] for w in want]
    results.append(CheckResult(f"kernel spanned by chi seed [k={k}]", spans_chi))

    # (c) the seed has nonzero X1-image, equal to the X1^X3 value of d(chi)
    x1_image = act_tensor(LieGen.X1, seed, variant)
    nonzero = not x1_image.is_zero() and x1_image == psi_w13_element(k)
    results.append(CheckResult(f"X1-image of chi seed nonzero [k={k}]", nonzero))

    results.append(CheckResult(f"psi and psi0 are not exact [k={k}]", all_passed(results),
                               "follows from (a)-(c) and the d(chi) splitting"))
    return results


# ---------------------------------------------------------------------------
# Export schema.
# ---------------------------------------------------------------------------


def cochain_to_dict(psi: Cochain, mu_sq=1) -> dict:
    """The nonzero cochain in the unitary basis, for a cochain that stores
    the unitary one divided by mu = sqrt(mu_sq) (k+2 for psi): a rescaled
    coordinate c at idx is the unitary c * mu / a(idx)."""
    mu_sq = Fraction(mu_sq)
    # by (wedge, j2, m1_2, monomial, n2, m2_2)
    terms = sorted(psi.items(), key=lambda t: (t[0][0], t[0][1].j2, t[0][1].m12, t[0][2], t[0][1]))
    entries = [
        {
            "wedge": list(w),
            "terms": [
                {
                    "index": idx.to_dict(),
                    "monomial": list(mono),
                    "coeff": (coeff * ComplexRadical.sqrt(mu_sq / scale_sq(idx))).to_dict(),
                }
                for (_, idx, mono), coeff in group
            ],
        }
        for w, group in itertools.groupby(terms, key=lambda t: t[0][0])
    ]
    (wedge, _, mono), _ = terms[0]
    ht = hodge_type(psi) if len(wedge) == 2 else None
    return {
        "k": mono.degree(),
        "degree": len(wedge),
        "entries": entries,
        "hodge_type": list(ht) if isinstance(ht, tuple) else ht,
    }
