"""Concrete 3x3 matrix models of su(2,1), its maximal compact subalgebra and
the complexified Cartan complement, with exact bracket computation.

Two Hermitian forms are used: the diagonal form diag(1,1,-1) and the
antidiagonal ("parabolic") form, congruent to each other via the real
symmetric involution GAMMA.  The compact generators U0..U3 live in the
diagonal model; X1..X4 span the complexified complement p_C, with
p+ = <X1,X2> and p- = <X3,X4> the holomorphic/antiholomorphic halves.
Their entries and the structure constants are GaussianRationals (Q(i));
only GAMMA, which holds sqrt(1/2), has ComplexRadical entries.

Every structure constant used elsewhere in the package is recomputed here
from matrix brackets; the printed action tables are kept only as test
fixtures, so transcription errors cannot leak into the algebra.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .scalars import ComplexRadical, GaussianRational
from .sparse import LinComb

Half = Fraction(1, 2)


class NotInLieAlgebra(ValueError):
    """Matrix fails the membership equations of the ambient Lie algebra."""


class LieGen(Enum):
    """The eight generators used throughout: four for l_C, four for p_C."""

    U0 = "U0"
    U1_PLUS_IU2 = "U1+iU2"
    U1_MINUS_IU2 = "U1-iU2"
    U3 = "U3"
    X1 = "X1"
    X2 = "X2"
    X3 = "X3"
    X4 = "X4"


L_GENS = (LieGen.U0, LieGen.U1_PLUS_IU2, LieGen.U1_MINUS_IU2, LieGen.U3)
P_GENS = (LieGen.X1, LieGen.X2, LieGen.X3, LieGen.X4)


_UNITS = frozenset((i, j) for i in range(3) for j in range(3))


class Mat3(LinComb):
    """Immutable 3x3 matrix with exact GaussianRational (or, for GAMMA,
    ComplexRadical) entries: a linear combination of the matrix units E_ij,
    keyed by (row, col).

    Built from three rows of three entries, or from a {(row, col): entry}
    dict; zero entries are not stored.
    """

    __slots__ = ()

    def __init__(self, rows=None):
        if rows is not None and not isinstance(rows, dict):
            rows = [tuple(r) for r in rows]
            if len(rows) != 3 or any(len(r) != 3 for r in rows):
                raise ValueError("Mat3 requires 3x3 entries")
            rows = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)}
        elif rows and not _UNITS.issuperset(rows):
            raise ValueError("Mat3 keys must be (row, col) with row, col in 0..2")
        super().__init__(rows)

    def __getitem__(self, ij) -> GaussianRational | ComplexRadical:
        return self.get(ij)

    def __matmul__(self, other):
        out: dict = {}
        for (i, k), x in self.items():
            for (k2, j), y in other.items():
                if k == k2:
                    out[i, j] = out[i, j] + x * y if (i, j) in out else x * y
        return Mat3(out)

    def transpose(self):
        return Mat3({(j, i): x for (i, j), x in self.items()})

    def conj(self):
        return Mat3({ij: x.conj() for ij, x in self.items()})

    def conj_transpose(self):
        return self.conj().transpose()

    def trace(self) -> GaussianRational | ComplexRadical:
        return self[0, 0] + self[1, 1] + self[2, 2]

    def to_numpy(self):
        import numpy as np

        out = np.zeros((3, 3), dtype=complex)
        for ij, x in self.items():
            out[ij] = x.to_complex()
        return out


def bracket(a: Mat3, b: Mat3) -> Mat3:
    """Commutator [a, b] = ab - ba."""
    return (a @ b) - (b @ a)


# the generators have entries in Q(i); only GAMMA needs a square root
_i = GaussianRational(0, 1)
_ih = GaussianRational(0, 1, 2)
_inv_sqrt2 = ComplexRadical.sqrt(Half)

IDENTITY = Mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

# Hermitian forms and the change of basis between them.
J_DIAG = Mat3([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
J_PAR = Mat3([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
GAMMA = Mat3(
    [
        [_inv_sqrt2, 0, _inv_sqrt2],
        [0, 1, 0],
        [_inv_sqrt2, 0, -_inv_sqrt2],
    ]
)

# Real basis of the compact subalgebra l (diagonal basis of the form).
U0 = Mat3([[_ih, 0, 0], [0, _ih, 0], [0, 0, -_i]])
U1 = Mat3([[0, _ih, 0], [_ih, 0, 0], [0, 0, 0]])
U2 = Mat3([[0, Half, 0], [-Half, 0, 0], [0, 0, 0]])
U3 = Mat3([[_ih, 0, 0], [0, -_ih, 0], [0, 0, 0]])

# Real basis of the Cartan complement p.
Y1 = Mat3({(0, 2): 1, (2, 0): 1})
Y2 = Mat3({(0, 2): _i, (2, 0): -_i})
Y3 = Mat3({(1, 2): 1, (2, 1): 1})
Y4 = Mat3({(1, 2): _i, (2, 1): -_i})

# Complex generators: l_C is spanned by U0, U1 +- iU2, U3; p_C by X1..X4
# with X1 = (Y1 - iY2)/2 etc., which collapse to elementary matrices.
U1_PLUS_IU2 = U1 + U2.scaled(_i)
U1_MINUS_IU2 = U1 - U2.scaled(_i)
X1 = Mat3({(0, 2): 1})
X2 = Mat3({(1, 2): 1})
X3 = Mat3({(2, 0): 1})
X4 = Mat3({(2, 1): 1})

_GEN_MATRICES = {
    LieGen.U0: U0,
    LieGen.U1_PLUS_IU2: U1_PLUS_IU2,
    LieGen.U1_MINUS_IU2: U1_MINUS_IU2,
    LieGen.U3: U3,
    LieGen.X1: X1,
    LieGen.X2: X2,
    LieGen.X3: X3,
    LieGen.X4: X4,
}

U_REAL_BASIS = (U0, U1, U2, U3)
Y_BASIS = (Y1, Y2, Y3, Y4)


def gen_matrix(gen: LieGen) -> Mat3:
    return _GEN_MATRICES[gen]


def coords(a: Mat3) -> dict[LieGen, GaussianRational]:
    """The nonzero coordinates of a traceless matrix over the eight
    generators, read off its entries: X1..X4 are the units at (1,3), (2,3),
    (3,1), (3,2), U1 +- iU2 are i at (1,2) and (2,1), and the diagonal fixes
    U0 and U3.  The matrix is rebuilt from them as a check, so a matrix
    outside sl(3,C) cannot slip through."""
    minus_i = -_i
    read = {
        LieGen.U0: a[2, 2] * _i,
        LieGen.U1_PLUS_IU2: a[0, 1] * minus_i,
        LieGen.U1_MINUS_IU2: a[1, 0] * minus_i,
        LieGen.U3: (a[0, 0] - a[1, 1]) * minus_i,
        **{x: a[cell] for x, cell in zip(P_GENS, ((0, 2), (1, 2), (2, 0), (2, 1)))},
    }
    out = {gen: c for gen, c in read.items() if not c.is_zero()}
    if sum((gen_matrix(gen).scaled(c) for gen, c in out.items()), Mat3()) != a:
        raise NotInLieAlgebra("matrix has nonzero trace")
    return out


def is_in_g(a: Mat3) -> bool:
    """Membership in su(2,1): conj(a)^T J + J a = 0 and tr a = 0, for the
    diagonal form J = J_DIAG."""
    lhs = (a.conj_transpose() @ J_DIAG) + (J_DIAG @ a)
    return lhs.is_zero() and a.trace().is_zero()


def is_in_k(a: Mat3) -> bool:
    """Membership in the compact subalgebra l (diagonal form, block shape)."""
    off_block = (a[0, 2], a[1, 2], a[2, 0], a[2, 1])
    return is_in_g(a) and all(x.is_zero() for x in off_block)


# ---------------------------------------------------------------------------
# Printed-table fixtures and their verification against the brackets.
# ---------------------------------------------------------------------------


_it = _i.__mul__  # i*q: the printed table entries are all imaginary


def table1_fixture() -> dict[tuple[LieGen, LieGen], list[tuple[GaussianRational, LieGen]]]:
    """The action of l_C on p_C as printed: (X row, U column) -> sum c*X'."""
    i32, i12 = Fraction(3, 2), Fraction(1, 2)
    return {
        (LieGen.X1, LieGen.U0): [(_it(i32), LieGen.X1)],
        (LieGen.X1, LieGen.U1_PLUS_IU2): [],
        (LieGen.X1, LieGen.U1_MINUS_IU2): [(_it(1), LieGen.X2)],
        (LieGen.X1, LieGen.U3): [(_it(i12), LieGen.X1)],
        (LieGen.X2, LieGen.U0): [(_it(i32), LieGen.X2)],
        (LieGen.X2, LieGen.U1_PLUS_IU2): [(_it(1), LieGen.X1)],
        (LieGen.X2, LieGen.U1_MINUS_IU2): [],
        (LieGen.X2, LieGen.U3): [(_it(-i12), LieGen.X2)],
        (LieGen.X3, LieGen.U0): [(_it(-i32), LieGen.X3)],
        (LieGen.X3, LieGen.U1_PLUS_IU2): [(_it(-1), LieGen.X4)],
        (LieGen.X3, LieGen.U1_MINUS_IU2): [],
        (LieGen.X3, LieGen.U3): [(_it(-i12), LieGen.X3)],
        (LieGen.X4, LieGen.U0): [(_it(-i32), LieGen.X4)],
        (LieGen.X4, LieGen.U1_PLUS_IU2): [],
        (LieGen.X4, LieGen.U1_MINUS_IU2): [(_it(-1), LieGen.X3)],
        (LieGen.X4, LieGen.U3): [(_it(i12), LieGen.X4)],
    }


_PAIR_ORDER = ((1, 2), (2, 3), (3, 4), (1, 3), (1, 4), (2, 4))


def table3_fixture() -> dict[tuple[tuple[int, int], LieGen], list[tuple[GaussianRational, tuple[int, int]]]]:
    """The induced action of l_C on the wedge basis X_i ^ X_j, as printed."""
    t: dict = {((i, j), u): [] for (i, j) in _PAIR_ORDER for u in L_GENS}
    t[((1, 2), LieGen.U0)] = [(_it(3), (1, 2))]
    t[((2, 3), LieGen.U1_PLUS_IU2)] = [(_it(1), (1, 3)), (_it(-1), (2, 4))]
    t[((2, 3), LieGen.U3)] = [(_it(-1), (2, 3))]
    t[((3, 4), LieGen.U0)] = [(_it(-3), (3, 4))]
    t[((1, 3), LieGen.U1_PLUS_IU2)] = [(_it(-1), (1, 4))]
    t[((1, 3), LieGen.U1_MINUS_IU2)] = [(_it(1), (2, 3))]
    t[((1, 4), LieGen.U1_MINUS_IU2)] = [(_it(-1), (1, 3)), (_it(1), (2, 4))]
    t[((1, 4), LieGen.U3)] = [(_it(1), (1, 4))]
    t[((2, 4), LieGen.U1_PLUS_IU2)] = [(_it(1), (1, 4))]
    t[((2, 4), LieGen.U1_MINUS_IU2)] = [(_it(-1), (2, 3))]
    return t


@lru_cache(maxsize=None)
def bracket_coords(u: LieGen, i: int) -> tuple[tuple[int, GaussianRational], ...]:
    """The p-part of [u, X_i] over the X basis, recomputed from matrices
    (1-based slots)."""
    dec = coords(bracket(gen_matrix(u), gen_matrix(P_GENS[i - 1])))
    return tuple((a, dec[x]) for a, x in enumerate(P_GENS, 1) if x in dec)


@lru_cache(maxsize=None)
def wedge_insert(w: tuple[int, ...], i: int) -> tuple[tuple[int, ...], bool]:
    """X_i ^ w as a sorted wedge, and whether the sign (-1)^position of i
    is -1."""
    p = sum(1 for j in w if j < i)
    return w[:p] + (i,) + w[p:], p % 2 == 1


@lru_cache(maxsize=None)
def wedge_action(u: LieGen, w: tuple[int, ...]) -> dict[tuple[int, ...], GaussianRational]:
    """u.(X_{i1} ^ ... ^ X_{iq}) expanded over basis wedges, via the Leibniz
    rule slot by slot: the image of slot t moves to the front, sign (-1)^t,
    and is inserted into the rest.  Memoized: callers share the dict and
    only read it."""
    terms = []
    for t, i in enumerate(w):
        rest = w[:t] + w[t + 1 :]
        for a, c in bracket_coords(u, i):
            if a in rest:
                continue
            target, flip = wedge_insert(rest, a)
            terms.append((target, -c if flip != (t % 2 == 1) else c))
    return dict(LinComb(terms).items())


def _compare_cells(cells) -> list:
    """One check per (name, computed, printed) table cell."""
    from .report import CheckResult

    return [
        CheckResult(
            name=name,
            passed=computed == printed,
            detail="" if computed == printed else f"computed {computed}, printed {printed}",
        )
        for name, computed, printed in cells
    ]


def verify_table1(fixture=None) -> list:
    """Recompute every printed (X, U) action cell from 3x3 brackets."""
    if fixture is None:
        fixture = table1_fixture()
    return _compare_cells(
        (
            f"table1[{x.value},{u.value}]",
            dict(bracket_coords(u, P_GENS.index(x) + 1)),
            {P_GENS.index(tgt) + 1: c for c, tgt in printed},
        )
        for (x, u), printed in fixture.items()
    )


def verify_table3() -> list:
    """Recompute every printed wedge-action cell from 3x3 brackets."""
    return _compare_cells(
        (
            f"table3[X{pair[0]}{pair[1]},{u.value}]",
            wedge_action(u, pair),
            dict(LinComb((tgt, c) for c, tgt in printed).items()),
        )
        for (pair, u), printed in table3_fixture().items()
    )


def verify_structure(inject_error: bool = False) -> list:
    """Full structural suite: tables, p-bracket vanishing, closure, conjugation.

    inject_error corrupts one table fixture cell before comparing; it exists
    so the failure path of the suite (and its exit code) can be exercised.
    """
    from .report import CheckResult

    fixture = table1_fixture()
    if inject_error:
        fixture[(LieGen.X1, LieGen.U0)] = [(_it(Fraction(5, 2)), LieGen.X1)]
    tables = verify_table1(fixture) + verify_table3()
    checks = [
        (f"[X{a + 1},X{b + 1}] in l_C", not bracket_coords(P_GENS[a], b + 1))
        for a in range(4)
        for b in range(4)
    ]
    # p+ and p- are abelian subalgebras, and the brackets vanish as matrices.
    checks += [("p+ abelian", bracket(X1, X2).is_zero()), ("p- abelian", bracket(X3, X4).is_zero())]
    # gamma is a real symmetric involution intertwining the two forms; both
    # transpose conventions agree because gamma is real.
    checks += [
        ("gamma^2 = 1", (GAMMA @ GAMMA) == IDENTITY),
        (
            "gamma congruence (both conventions)",
            (GAMMA.conj_transpose() @ J_DIAG @ GAMMA) == J_PAR
            and (GAMMA.transpose() @ J_DIAG @ GAMMA) == J_PAR,
        ),
    ]
    # Membership of the builtin bases.
    checks += [(f"{nm} in l", is_in_k(m)) for nm, m in (("U0", U0), ("U1", U1), ("U2", U2), ("U3", U3))]
    checks += [(f"{nm} in g", is_in_g(m)) for nm, m in (("Y1", Y1), ("Y2", Y2), ("Y3", Y3), ("Y4", Y4))]
    checks.append(("X1 not in g", not is_in_g(X1)))
    # Complex conjugation on sl(3,C) relative to the real form exchanges
    # X1 <-> X3 and X2 <-> X4.
    checks += [("c(X1) = X3", real_form_conjugate(X1) == X3), ("c(X2) = X4", real_form_conjugate(X2) == X4)]
    return tables + [CheckResult(name, passed) for name, passed in checks]


def real_form_conjugate(a: Mat3) -> Mat3:
    """The conjugation of sl(3,C) fixing su(2,1): a -> -J conj(a)^T J."""
    return -(J_DIAG @ a.conj_transpose() @ J_DIAG)
