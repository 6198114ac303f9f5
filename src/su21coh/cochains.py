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
as psi/sqrt(k+2).  This module owns that scale: `generators_to_dict`
exports all three in the unitary basis, psi times sqrt(k+2).
A generator acts on a cochain through all three slots (`act_tensor`):
on the function and polynomial slots by the Leibniz rule, and on the
wedge slot by pulling back, (u.psi)(w) = u.(psi(w)) - psi(u.w).  A
cochain is K-equivariant exactly when the compact generators annihilate
it.  The torus generators U0 and U3 act diagonally, multiplying the term
at each key by i/2 times an integer `weight` (index, monomial and wedge
parts, read off `wigner.index_weight`, the matrix diagonal and the
pullback table), so they annihilate a cochain exactly when every key in
its support has weight 0: a nonzero coefficient times a nonzero weight is
nonzero.  `check_equivariance` tests that on the keys and acts only with
U1 +- iU2.  The differential uses only the first-order terms: the pairwise
brackets of the X's project to zero in the quotient, which it checks (not
assumes) on every call by reading the pullback tables `act_tensor` applies.
`act_tensor` and `differential` (all four X_i) each add every image into
one dict, computing each distinct index's and monomial's image once per
call, and drop the cancelled terms at the end.  The kernel computation
(`nullspace`) takes sparse rows and reduces each at its leftmost entry by
the pivot row there, so the banded lowering matrix of the non-exactness
argument stays banded.  That argument's step (a) reads the moves of X3 and
X4 from `wigner.P_ROWS`, the one operator table, which `act_p_index` reads.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .lie import L_GENS, P_GENS, LieGen, gen_matrix, wedge_action, wedge_insert
from .polynomials import Monomial, PolyVector, act_poly, monomial_xy
from .report import CheckResult, all_passed
from .scalars import ComplexRadical, GaussianRational
from .sparse import LinComb, _made
from .wigner import (
    DEFAULT_VARIANT,
    P_ROWS,
    act_l_index,
    act_p_index,
    chi_index,
    index_weight,
    module_index,
    psi0_index,
    psi_index,
    scale_sq,
)

_I = GaussianRational(0, 1)

Wedge = tuple  # sorted tuple of distinct indices from {1, 2, 3, 4}

TORUS_GENS = (LieGen.U0, LieGen.U3)


class BracketNotInL(RuntimeError):
    """A pairwise bracket of noncompact generators escaped the compact part.

    Structurally impossible for this algebra; kept as a tripwire."""


class NotDiagonal(RuntimeError):
    """A torus generator moved a wedge or a coordinate, or acted by other
    than i times a half-integer.

    Structurally impossible for U0 and U3; kept as a tripwire."""


class Cochain(LinComb):
    """Exact cochain with (wedge, WignerIndex, Monomial) keys; a module
    vector is the 0-cochain at wedge ()."""

    __slots__ = ()


def basis_wedges(q: int) -> tuple[Wedge, ...]:
    return tuple(itertools.combinations((1, 2, 3, 4), q))


ALL_WEDGES = tuple(itertools.chain.from_iterable(basis_wedges(q) for q in range(5)))


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
    + ...: minus the transpose of `wedge_action`.  Its 1-wedge rows are the
    p-parts of [gen, X_i]; `differential` checks it is empty for each X_i.
    Memoized: callers share the dict and only read it."""
    out: dict = {}
    for w in ALL_WEDGES:
        for w2, c in wedge_action(gen, w).items():
            out.setdefault(w2, []).append((w, -c))
    return {w2: tuple(pairs) for w2, pairs in out.items()}


def _act_into(acc: dict, gen: LieGen, terms, variant: str) -> None:
    """Add gen's action on the given (key, coefficient) pairs into acc, on
    all three slots of every term.  Terms sharing an index or a monomial
    share its image, computed once per call; the memo dies with the call."""
    compact = gen in L_GENS
    pullback = _pullback(gen)
    moved_of: dict = {}
    poly_of: dict = {}
    for (w, idx, mono), coeff in terms:
        moved = moved_of.get(idx)
        if moved is None:
            # read at call time, so a rebound module global is the one used
            moved = moved_of[idx] = (act_l_index(gen, idx) if compact
                                     else act_p_index(gen, idx, variant))
        poly = poly_of.get(mono)
        if poly is None:
            poly = poly_of[mono] = _poly_image(gen, mono)
        # three inlined copies of one add: a helper call per image costs
        # more than the rest of the loop
        for tgt, c in moved:
            key, x = (w, tgt, mono), c * coeff
            old = acc.get(key)
            acc[key] = x if old is None else old + x
        for pm, c in poly:
            key, x = (w, idx, pm), c * coeff
            old = acc.get(key)
            acc[key] = x if old is None else old + x
        for w1, c in pullback.get(w, ()):
            key, x = (w1, idx, mono), c * coeff
            old = acc.get(key)
            acc[key] = x if old is None else old + x


def _nonzero(acc: dict) -> Cochain:
    """The cochain of an accumulator, terms that cancelled dropped."""
    return _made(Cochain, {key: c for key, c in acc.items() if c})


def act_tensor(gen: LieGen, psi: Cochain, variant: str = DEFAULT_VARIANT) -> Cochain:
    """The action on all three slots of every term, (gen.psi)(w) =
    gen.(psi(w)) - psi(gen.w): gen on the function slot plus gen on the
    polynomial slot (Leibniz), and the pullback along gen on the wedge
    slot."""
    acc: dict = {}
    _act_into(acc, gen, psi.items(), variant)
    return _nonzero(acc)


# ---------------------------------------------------------------------------
# Differential.
# ---------------------------------------------------------------------------


def differential(psi: Cochain, variant: str = DEFAULT_VARIANT) -> Cochain:
    """First sum of the Chevalley-Eilenberg differential: for each X_i, X_i
    acts on the terms whose wedge lacks i, which land on the wedge with i
    inserted, signed (-1)^(position of i).  The second (bracket) sum
    vanishes identically here because all pairwise brackets of the
    noncompact generators lie in the compact part.  That fact is checked on
    every call rather than trusted: X_i's pullback table, which `act_tensor`
    applies, must be empty.  All four actions add into one accumulator."""
    acc: dict = {}
    for i, gen in enumerate(P_GENS, 1):
        if _pullback(gen):
            raise BracketNotInL(f"a bracket [{gen.value}, X_j] has a nonzero noncompact part")
        lacking = []
        for (w, idx, mono), coeff in psi.items():
            if i not in w:
                target, flip = wedge_insert(w, i)
                lacking.append(((target, idx, mono), -coeff if flip else coeff))
        _act_into(acc, gen, lacking, variant)
    return _nonzero(acc)


# ---------------------------------------------------------------------------
# Compact-group equivariance.
# ---------------------------------------------------------------------------


def _doubled_imaginary(c, what: str) -> int:
    """2 Im(c) for c = i * (an integer / 2); NotDiagonal otherwise."""
    c = GaussianRational.of(c)
    if c.re or (2 * c.im) % c.den:
        raise NotDiagonal(f"{what} is {c}, not i times a half-integer")
    return 2 * c.im // c.den


@lru_cache(maxsize=None)
def _weight_table(gen: LieGen) -> tuple[dict, tuple[int, int, int]]:
    """The doubled imaginary weights of a torus generator on the 16 basis
    wedges, read off its pullback rows, and on x, y, z, read off its matrix
    diagonal.  Raises NotDiagonal if a row leaves its wedge, the matrix has
    an off-diagonal entry, or an entry is not i times a half-integer."""
    pullback = _pullback(gen)
    wedges = {}
    for w in ALL_WEDGES:
        pairs = pullback.get(w, ())
        if any(w1 != w for w1, _ in pairs):
            raise NotDiagonal(f"{gen.value} moves the wedge {w}")
        wedges[w] = sum(_doubled_imaginary(c, f"{gen.value} on {w}") for _, c in pairs)
    mat = gen_matrix(gen)
    if any(i != j for i, j in mat.support()):
        raise NotDiagonal(f"{gen.value} has an off-diagonal matrix entry")
    diag = tuple(_doubled_imaginary(mat[i, i], f"{gen.value}[{i},{i}]") for i in range(3))
    return wedges, diag


def weight(gen: LieGen, key) -> int:
    """The doubled imaginary weight of U0 or U3 on the term at a (wedge,
    index, monomial) key: act_tensor(gen, Cochain({key: 1})) is that term
    times i * weight / 2.  The sum of the index part, the monomial's
    exponents dotted with the matrix diagonal, and the wedge part."""
    w, idx, (a, b, c) = key
    wedges, (da, db, dc) = _weight_table(gen)
    return wedges[w] + index_weight(gen, idx) + da * a + db * b + dc * c


def check_equivariance(psi: Cochain) -> bool:
    """Exact K-equivariance: the four compact generators annihilate psi,
    i.e. u.(psi(w)) = psi(u.w) for every u and basis wedge w.  U0 and U3
    annihilate it exactly when every key has weight 0, so only U1 +- iU2
    act."""
    if any(weight(u, key) for u in TORUS_GENS for key in psi.support()):
        return False
    return all(act_tensor(u, psi).is_zero() for u in (LieGen.U1_PLUS_IU2, LieGen.U1_MINUS_IU2))


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

def wedge_bidegree(w: Wedge) -> tuple[int, int]:
    """(p, q), the numbers of p+ = <X1, X2> and p- = <X3, X4> slots, read
    off U0's wedge weight -(3i/2)(p - q) and p + q = |w|."""
    p_minus_q = -_weight_table(LieGen.U0)[0][w] // 3
    p = (len(w) + p_minus_q) // 2
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


def nullspace(rows: list[dict], ncols: int) -> list[list]:
    """Basis of the solution space of rows . x = 0 over exact scalars
    (GaussianRational or ComplexRadical), each row a {col: entry} mapping.

    Each row, zeros dropped, is reduced at its leftmost entry by the pivot
    row starting there until none does, then scaled to 1 there as that
    column's pivot row: a banded system stays banded, in linear time.  The
    basis has one vector per free column: a 1 there, 0 at the other free
    columns, and at the pivot columns the unique values solving the rows,
    by back substitution.  So it depends on neither the row order nor the
    elimination order: it is the one reduced row echelon form reads off.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        row = {c: x for c, x in row.items() if not x.is_zero()}
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                inv = row[col].inverse()
                pivots[col] = {c: x * inv for c, x in row.items()}
                break
            f = row[col]
            for c, x in prow.items():
                new = row[c] - f * x if c in row else -(f * x)
                if new.is_zero():
                    del row[c]
                else:
                    row[c] = new
    basis = []
    zero, one = GaussianRational(), GaussianRational(1)
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [zero] * ncols
        vec[free] = one
        # a pivot row's other entries lie right of its pivot, already solved
        for pc in sorted(pivots, reverse=True):
            acc = zero
            for c, x in pivots[pc].items():
                if c != pc and vec[c]:
                    acc = acc + x * vec[c]
            vec[pc] = -acc
        basis.append(vec)
    return basis


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

    # (a) preimages of the psi0 support under X3, X4: each of its indices
    # moved back by a P_ROWS move, n set by the module (valid = admissible)
    expected = {chi_index(k, l) for l in range(k + 2)}
    found = set()
    for _w, t, _mono in build_psi0(k).support():
        j2, _, m12, m22 = t
        for gen in (LieGen.X3, LieGen.X4):
            for _sign, dj, _dn, dm1, dm2 in P_ROWS[gen]:
                cand = module_index(k, j2 - dj, m12 - dm1, m22 - dm2)
                if cand.structurally_valid() and t in dict(act_p_index(gen, cand, variant)):
                    found.add(cand)
    detail = "" if found == expected else f"found {len(found)}, expected {len(expected)}"
    results.append(CheckResult(f"preimage candidates = chi family [k={k}]", not detail, detail))

    # (b) lowering kernel inside span{ W_chi(l) (x) x^(k-l) y^l }, the seed's
    # keys: one sparse row per key the lowering images reach
    basis_keys = list(seed.support())
    rows: dict = {}
    for col, key in enumerate(basis_keys):
        for row_key, x in act_tensor(LieGen.U1_MINUS_IU2, Cochain({key: 1})).items():
            rows.setdefault(row_key, {})[col] = x
    kernel = nullspace(list(rows.values()), len(basis_keys))
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


def cochain_to_dict(psi: Cochain, mu_sq) -> dict:
    """The nonzero cochain in the unitary basis, for a cochain that stores
    the unitary one divided by mu = sqrt(mu_sq): a rescaled coordinate c at
    idx is the unitary c * mu / a(idx)."""
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


def generators_to_dict(k: int) -> dict:
    """The export of chi, psi and psi0 at k in the unitary basis; psi is
    stored as psi/sqrt(k+2), so it is exported at mu_sq = k + 2."""
    return {"k": k, "generators": {"chi": cochain_to_dict(build_chi(k), 1),
                                   "psi": cochain_to_dict(build_psi(k), k + 2),
                                   "psi0": cochain_to_dict(build_psi0(k), 1)}}
