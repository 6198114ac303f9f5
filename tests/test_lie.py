from fractions import Fraction

import numpy as np
import pytest
from conftest import random_complex_radical

from su21coh.lie import (
    GAMMA,
    IDENTITY,
    J_DIAG,
    J_PAR,
    U0,
    U3,
    X1,
    X2,
    X3,
    X4,
    Y1,
    Y2,
    Y3,
    Y4,
    L_GENS,
    P_GENS,
    LieGen,
    Mat3,
    NotInLieAlgebra,
    bracket,
    coords,
    gen_matrix,
    is_in_g,
    is_in_k,
    real_form_conjugate,
    table1_fixture,
    verify_structure,
    verify_table1,
    verify_table3,
    wedge_action,
)
from su21coh.report import all_passed
from su21coh.scalars import ComplexRadical, GaussianRational

i = ComplexRadical.i()
ih = ComplexRadical.i_times(Fraction(1, 2))


def is_unitary_numeric(m, tol: float = 1e-12) -> bool:
    """Numeric unitarity check for a numpy matrix."""
    m = np.asarray(m, dtype=complex)
    return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()) <= tol


def test_builtin_matrices():
    mats = {gen: gen_matrix(gen) for gen in LieGen}
    assert len(set(mats.values())) == 8
    assert mats[LieGen.U0] == Mat3([[ih, 0, 0], [0, ih, 0], [0, 0, -i]])
    # X3 is the single entry 1 in row 3, column 1
    assert mats[LieGen.X3] == Mat3([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    assert (GAMMA @ GAMMA) == IDENTITY


def test_gamma_congruence_both_conventions():
    assert GAMMA.conj_transpose() @ J_DIAG @ GAMMA == J_PAR
    assert GAMMA.transpose() @ J_DIAG @ GAMMA == J_PAR


def test_brackets():
    assert bracket(U0, U3).is_zero()
    assert bracket(X1, X1).is_zero()
    assert bracket(X1, X2).is_zero()  # exactly zero as matrices
    assert bracket(X3, X4).is_zero()


def _random_traceless(rng):
    """A 3x3 matrix with random Gaussian-rational entries and trace zero."""
    def draw():
        re, im = (int(x) for x in rng.integers(-9, 10, size=2))
        return GaussianRational(re, im, int(rng.integers(1, 7)))

    rows = [[draw() for _ in range(3)] for _ in range(3)]
    rows[2][2] = -(rows[0][0] + rows[1][1])
    return Mat3(rows)


def test_coords():
    assert coords(X1) == {LieGen.X1: ComplexRadical.of(1)}
    assert coords(U0) == {LieGen.U0: 1}  # no p-part
    # Y1 = X1 + X3
    assert coords(Y1) == {LieGen.X1: 1, LieGen.X3: 1}
    for gen in LieGen:
        assert coords(gen_matrix(gen)) == {gen: 1}
    rng = np.random.default_rng(14)
    traceless = [Y1, Y2, Y3, Y4] + [_random_traceless(rng) for _ in range(20)]
    for m in traceless:
        c = coords(m)
        assert sum((gen_matrix(gen).scaled(x) for gen, x in c.items()), Mat3()) == m
        assert not any(x.is_zero() for x in c.values())
    for m in (IDENTITY, J_DIAG, traceless[-1] + Mat3({(0, 0): GaussianRational(0, 1)})):
        with pytest.raises(NotInLieAlgebra):
            coords(m)


def test_table1_cells():
    res = {r.name: r.passed for r in verify_table1()}
    assert all(res.values())
    # spot values recomputed directly
    assert coords(bracket(gen_matrix(LieGen.U1_PLUS_IU2), X2)) == {LieGen.X1: i}
    assert coords(bracket(U0, X1)) == {LieGen.X1: ComplexRadical.i_times(Fraction(3, 2))}


def test_table3_cells():
    assert all_passed(verify_table3())
    assert wedge_action(LieGen.U3, (2, 3)) == {(2, 3): ComplexRadical.i_times(-1)}
    assert wedge_action(LieGen.U1_MINUS_IU2, (1, 2)) == {}
    act = wedge_action(LieGen.U1_PLUS_IU2, (2, 3))
    assert act == {(1, 3): i, (2, 4): -i}


def test_memberships():
    assert is_in_g(Y1)
    assert not is_in_g(X1)  # in the complexification only
    assert is_in_g(U0) and is_in_k(U0)
    assert not is_in_k(Y1)
    assert is_unitary_numeric(np.eye(3))
    assert is_unitary_numeric(GAMMA.to_numpy())
    assert not is_unitary_numeric(2 * np.eye(3))


def test_l_action_stabilizes_p():
    # [l_C, p_C] stays inside p_C with zero compact residual
    for u in L_GENS:
        for x in P_GENS:
            com = bracket(gen_matrix(u), gen_matrix(x))
            dec = coords(com)
            assert set(dec) <= set(P_GENS)
            rebuilt = Mat3([[0, 0, 0]] * 3)
            for x, c in dec.items():
                rebuilt = rebuilt + gen_matrix(x).scaled(c)
            assert (com - rebuilt).is_zero()


def test_p_brackets_in_l():
    for a in (X1, X2, X3, X4):
        for b in (X1, X2, X3, X4):
            assert not set(coords(bracket(a, b))) & set(P_GENS)


def test_real_form_conjugation_swaps_halves():
    assert real_form_conjugate(X1) == X3
    assert real_form_conjugate(X3) == X1
    assert real_form_conjugate(X2) == X4
    assert real_form_conjugate(X4) == X2


def test_structure_suite_and_injection():
    results = verify_structure()
    assert all_passed(results)
    bad = verify_structure(inject_error=True)
    assert not all_passed(bad)
    assert sum(1 for r in bad if not r.passed) == 1


def test_verify_table1_with_corrupt_fixture():
    fixture = table1_fixture()
    fixture[(LieGen.X2, LieGen.U3)] = []
    res = verify_table1(fixture)
    assert sum(1 for r in res if not r.passed) == 1


# Dense reference for Mat3: nested lists of entries read off the term dict,
# multiplied by the schoolbook triple loop.


def dense(m: Mat3) -> list:
    terms = dict(m.items())
    return [[terms.get((r, c), ComplexRadical()) for c in range(3)] for r in range(3)]


def dense_matmul(a: list, b: list) -> list:
    return [
        [sum((a[r][t] * b[t][c] for t in range(3)), ComplexRadical()) for c in range(3)]
        for r in range(3)
    ]


def unit(r: int, c: int) -> Mat3:
    return Mat3({(r, c): 1})


def test_mat3_matrix_unit_products():
    cells = [(r, c) for r in range(3) for c in range(3)]
    for r, s in cells:
        for t, u in cells:
            expected = unit(r, u) if s == t else Mat3()
            product = unit(r, s) @ unit(t, u)
            assert product == expected
            assert dense(product) == dense_matmul(dense(unit(r, s)), dense(unit(t, u)))


def test_mat3_random_products_match_dense_reference():
    rng = np.random.default_rng(31)

    def draw():
        return Mat3([[random_complex_radical(rng, max_terms=3, bound=50) for _ in range(3)]
                     for _ in range(3)])

    for _ in range(8):
        a, b, c = draw(), draw(), draw()
        assert any(len(x.items()) > 1 for _, x in a.items())  # multi-term entries occur
        ab = a @ b
        assert dense(ab) == dense_matmul(dense(a), dense(b))
        assert (ab @ c) == (a @ (b @ c))
        assert ab.transpose() == b.transpose() @ a.transpose()
        assert ab.trace() == (b @ a).trace()
        assert (a + b - a) == b and (a - a).is_zero()
        assert np.allclose(ab.to_numpy(), a.to_numpy() @ b.to_numpy())


def test_mat3_constructors_agree_and_validate():
    rows = [[1, 0, i], [0, ih, 0], [Fraction(2, 3), 0, 0]]
    assert Mat3(rows) == Mat3({(0, 0): 1, (0, 2): i, (1, 1): ih, (2, 0): Fraction(2, 3)})
    assert Mat3([[0, 0, 0]] * 3) == Mat3() == Mat3({(1, 1): 0})
    for bad in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]], [[0, 0, 0, 0]] * 3):
        with pytest.raises(ValueError):
            Mat3(bad)
    for key in ((3, 0), (0, -1), (1,), "ab"):
        with pytest.raises(ValueError):
            Mat3({key: 1})
