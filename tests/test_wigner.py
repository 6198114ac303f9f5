from fractions import Fraction

import numpy as np
import pytest

from conftest import random_tensor
from su21coh.cochains import Cochain, act_tensor
from su21coh.lie import L_GENS, P_GENS, LieGen, bracket, coords, gen_matrix
from su21coh.scalars import ComplexRadical, RadicalScalar
from su21coh.wigner import (
    OutOfRange,
    WignerIndex,
    act_l_index,
    act_p_index,
    admissible,
    admissible_indices,
    chi_index,
    psi0_index,
    psi0_tilde_index,
    psi_index,
)
from unitary_table import unitary

CR = ComplexRadical
RS = RadicalScalar


def test_index_validity():
    assert WignerIndex(1, -3, -1, 1).structurally_valid()
    assert not WignerIndex(1, -3, -2, 1).structurally_valid()  # m1 parity
    assert not WignerIndex(1, 0, 1, 1).structurally_valid()  # j+n parity
    assert not WignerIndex(2, -6, 4, 0).structurally_valid()  # |m1| > j


def test_admissible_examples():
    for k in (0, 1, 2, 5):
        # top member of the psi family
        assert admissible(WignerIndex(k + 2, -k, -k, k + 2), k)
        # j = 0 forces n = -2k-3
        assert admissible(WignerIndex(0, -(4 * k + 6), 0, 0), k)
    assert not admissible(WignerIndex(0, 0, 0, 0), 0)  # needs n = -3


def test_admissible_enumeration():
    idxs = list(admissible_indices(0, Fraction(3, 2)))
    # (2j+1)^2 summed over 2j = 0..3
    assert len(idxs) == 1 + 4 + 9 + 16
    assert len(set(idxs)) == len(idxs)
    for idx in idxs:
        assert admissible(idx, 0)


def test_act_l_weights_and_shifts():
    idx = WignerIndex(3, -9, 1, -1)  # k=0 admissible
    (out,) = act_l_index(LieGen.U0, idx)
    assert out == (idx, CR.i_times(Fraction(-9, 2)))
    (out,) = act_l_index(LieGen.U3, idx)
    assert out == (idx, CR.i_times(Fraction(1, 2)))
    # lowering annihilates the bottom weight
    bottom = WignerIndex(3, -9, -3, -1)
    assert act_l_index(LieGen.U1_MINUS_IU2, bottom) == []
    # raising on the chi family: -i sqrt(k+1-l) sqrt(l+1) W_(chi,l+1)
    k, l = 3, 1
    (tgt, coeff), = act_l_index(LieGen.U1_PLUS_IU2, chi_index(k, l))
    assert tgt == chi_index(k, l + 1)
    assert unitary(coeff, chi_index(k, l), tgt) == CR.i_times(-(RS.sqrt(k + 1 - l) * RS.sqrt(l + 1)))


def test_act_p_annihilation_case():
    # j = m1 = m2 = 0, n = -3 at k = 0: the surviving linear factor vanishes
    assert act_p_index(LieGen.X1, WignerIndex(0, -6, 0, 0)) == []


def test_act_p_x1_on_chi_family():
    for k in (0, 1, 4):
        for l in range(k + 1):
            (tgt, coeff), = act_p_index(LieGen.X1, chi_index(k, l))
            assert tgt == psi_index(k, l)
            assert unitary(coeff, chi_index(k, l), tgt) == RS.sqrt(Fraction(l + 1, k + 2))


def test_act_p_x3_on_chi_family():
    k = 2
    for l in range(1, k + 2):
        out = {t: unitary(c, chi_index(k, l), t) for t, c in act_p_index(LieGen.X3, chi_index(k, l))}
        expected = {
            psi0_tilde_index(k, l - 1): RS.sqrt(k + 2 - l) * Fraction(k + 3, k + 2),
        }
        if l >= 1:
            expected[psi0_index(k, l - 1)] = RS.sqrt(l) * RS.sqrt(k + 1) * Fraction(1, k + 2)
        assert out == {key: val for key, val in expected.items() if not val.is_zero()}


def test_act_p_variants_differ_only_in_x3():
    idx = WignerIndex(3, -9, 1, -1)
    for gen in (LieGen.X1, LieGen.X2, LieGen.X4):
        assert act_p_index(gen, idx, "plus1") == act_p_index(gen, idx, "plus2")
    assert act_p_index(LieGen.X3, idx, "plus1") != act_p_index(LieGen.X3, idx, "plus2")
    with pytest.raises(ValueError):
        act_p_index(LieGen.X1, idx, "plus3")


def test_named_families():
    assert chi_index(0, 0) == WignerIndex(1, -3, -1, 1)
    for k in (0, 2, 5):
        for l in range(k + 1):
            assert admissible(psi0_index(k, l), k)
    # the psi family extends one step beyond each end
    idx = psi_index(4, -1)
    assert idx.m12 == -4 - 2
    assert admissible(idx, 4)
    with pytest.raises(OutOfRange):
        psi_index(4, -2)
    with pytest.raises(OutOfRange):
        psi0_index(3, 4)
    with pytest.raises(OutOfRange):
        chi_index(3, 5)
    with pytest.raises(OutOfRange):
        psi0_tilde_index(3, -1)


def test_index_is_plain_doubled_ints():
    idx = WignerIndex(3, -9, 1, -1)
    assert idx == (3, -9, 1, -1) and hash(idx) == hash((3, -9, 1, -1))
    assert (idx.j2, idx.n2, idx.m12, idx.m22) == (3, -9, 1, -1)
    assert str(idx) == "W[j=3/2,n=-9/2,m1=1/2,m2=-1/2]"
    assert str(WignerIndex(2, -6, 0, 2)) == "W[j=1,n=-3,m1=0,m2=1]"
    assert idx.to_dict() == {"j2": 3, "n2": -9, "m1_2": 1, "m2_2": -1}


def test_closure_on_random_vectors():
    rng = np.random.default_rng(5)
    for k in (0, 1, 3):
        for _ in range(25):
            t = random_tensor(k, rng, j_max=6)
            for gen in L_GENS + P_GENS:
                for (_, idx, mono), coeff in act_tensor(gen, t).items():
                    assert not coeff.is_zero()
                    assert admissible(idx, k), (gen, idx)
                    assert mono.degree() == k


def test_su2_commutation():
    # E F - F E = 2i U3 as operators (the doubled compact Cartan generator)
    rng = np.random.default_rng(6)
    E, F, U3 = LieGen.U1_PLUS_IU2, LieGen.U1_MINUS_IU2, LieGen.U3
    for k in (0, 2):
        for _ in range(20):
            t = random_tensor(k, rng)
            lhs = act_tensor(E, act_tensor(F, t)) - act_tensor(F, act_tensor(E, t))
            assert lhs == act_tensor(U3, t).scaled(CR.i_times(2))


def _bracket_failures(variant, seed=7):
    """(k, u, x) cases where act([u, x]) != [act(u), act(x)] on a random
    tensor, with [u, x] expanded over X1..X4 from the 3x3 matrices."""
    rng = np.random.default_rng(seed)
    failures = []
    for k in (0, 1):
        for u in L_GENS:
            for x in P_GENS:
                dec = coords(bracket(gen_matrix(u), gen_matrix(x)))
                assert set(dec) <= set(P_GENS)
                for _ in range(5):
                    t = random_tensor(k, rng)
                    commutator = act_tensor(u, act_tensor(x, t, variant)) - act_tensor(
                        x, act_tensor(u, t), variant
                    )
                    expected = Cochain()
                    for gen, c in dec.items():
                        expected = expected + act_tensor(gen, t, variant).scaled(c)
                    if commutator != expected:
                        failures.append((k, u, x, dec))
    return failures


def test_bracket_consistency_with_structure():
    # ties the two operator families to the structure table
    assert _bracket_failures("plus1") == []
    # the rejected variant changes one X3 coefficient, and breaks exactly the
    # brackets that involve X3
    failures = _bracket_failures("plus2")
    assert failures
    for _k, _u, x, dec in failures:
        assert x is LieGen.X3 or LieGen.X3 in dec


def test_p_halves_commute():
    rng = np.random.default_rng(8)
    X1, X2, X3, X4 = P_GENS
    for k in (0, 2):
        for _ in range(10):
            t = random_tensor(k, rng)
            assert act_tensor(X1, act_tensor(X2, t)) == act_tensor(X2, act_tensor(X1, t))
            assert act_tensor(X3, act_tensor(X4, t)) == act_tensor(X4, act_tensor(X3, t))
