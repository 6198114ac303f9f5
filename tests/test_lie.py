from fractions import Fraction

import numpy as np
import pytest

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
    L_GENS,
    P_GENS,
    LieGen,
    Mat3,
    NotInLieAlgebra,
    bracket,
    gen_matrix,
    is_in_g,
    is_in_k,
    project_to_p,
    real_form_conjugate,
    table1_fixture,
    verify_structure,
    verify_table1,
    verify_table3,
    wedge_action,
)
from su21coh.report import all_passed
from su21coh.scalars import ComplexRadical

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


def test_project_to_p():
    assert project_to_p(X1) == (ComplexRadical.of(1), ComplexRadical(), ComplexRadical(), ComplexRadical())
    assert all(c.is_zero() for c in project_to_p(U0))
    # Y1 = X1 + X3
    c = project_to_p(Y1)
    assert [x == ComplexRadical.of(v) for x, v in zip(c, (1, 0, 1, 0))] == [True] * 4
    with pytest.raises(NotInLieAlgebra):
        project_to_p(IDENTITY)


def test_table1_cells():
    res = {r.name: r.passed for r in verify_table1()}
    assert all(res.values())
    # spot values recomputed directly
    dec = project_to_p(bracket(gen_matrix(LieGen.U1_PLUS_IU2), X2))
    assert dec[0] == i and all(c.is_zero() for c in dec[1:])
    dec = project_to_p(bracket(U0, X1))
    assert dec[0] == ComplexRadical.i_times(Fraction(3, 2))


def test_table3_cells():
    assert all_passed(verify_table3())
    assert wedge_action(LieGen.U3, (2, 3)) == {(2, 3): ComplexRadical.i_times(-1)}
    assert wedge_action(LieGen.U1_MINUS_IU2, (1, 2)) == {}
    act = wedge_action(LieGen.U1_PLUS_IU2, (2, 3))
    assert act == {(1, 3): i, (2, 4): -i}


def test_memberships():
    assert is_in_g(Y1, J_DIAG)
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
            coeffs = project_to_p(com)
            rebuilt = Mat3([[0, 0, 0]] * 3)
            for c, xb in zip(coeffs, (X1, X2, X3, X4)):
                rebuilt = rebuilt + xb.scaled(c)
            assert (com - rebuilt).is_zero()


def test_p_brackets_in_l():
    for a in (X1, X2, X3, X4):
        for b in (X1, X2, X3, X4):
            assert all(c.is_zero() for c in project_to_p(bracket(a, b)))


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
