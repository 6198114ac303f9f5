from fractions import Fraction

import numpy as np
import pytest

from conftest import I, psi0_tilde_index, random_tensor
from su21coh import wigner
from su21coh.cochains import Cochain, act_tensor
from su21coh.lie import L_GENS, P_GENS, LieGen, bracket, bracket_coords, coords, gen_matrix
from su21coh.scalars import ComplexRadical, GaussianRational
from su21coh.wigner import (
    InadmissibleResult,
    OutOfRange,
    P_ROWS,
    WignerIndex,
    act_l_index,
    act_p_index,
    admissible,
    admissible_indices,
    chi_index,
    index_weight,
    module_index,
    psi0_index,
    psi_index,
)
from unitary_table import unitary

CR = ComplexRadical


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
    assert out == (idx, Fraction(-9, 2) * I)
    (out,) = act_l_index(LieGen.U3, idx)
    assert out == (idx, Fraction(1, 2) * I)
    # lowering annihilates the bottom weight
    bottom = WignerIndex(3, -9, -3, -1)
    assert act_l_index(LieGen.U1_MINUS_IU2, bottom) == []
    # raising on the chi family: -i sqrt(k+1-l) sqrt(l+1) W_(chi,l+1)
    k, l = 3, 1
    (tgt, coeff), = act_l_index(LieGen.U1_PLUS_IU2, chi_index(k, l))
    assert tgt == chi_index(k, l + 1)
    assert unitary(coeff, chi_index(k, l), tgt) == -(CR.sqrt(k + 1 - l) * CR.sqrt(l + 1)) * I


def test_index_weight_is_the_diagonal_rule():
    idx = WignerIndex(3, -9, 1, -1)
    assert (index_weight(LieGen.U0, idx), index_weight(LieGen.U3, idx)) == (-9, 1)
    for gen in (LieGen.U1_PLUS_IU2, LieGen.X1):
        with pytest.raises(ValueError):
            index_weight(gen, idx)


def test_act_p_annihilation_case():
    # j = m1 = m2 = 0, n = -3 at k = 0: the surviving linear factor vanishes
    assert act_p_index(LieGen.X1, WignerIndex(0, -6, 0, 0)) == []


def test_act_p_x1_on_chi_family():
    for k in (0, 1, 4):
        for l in range(k + 1):
            (tgt, coeff), = act_p_index(LieGen.X1, chi_index(k, l))
            assert tgt == psi_index(k, l)
            assert unitary(coeff, chi_index(k, l), tgt) == CR.sqrt(Fraction(l + 1, k + 2))


def test_act_p_x3_on_chi_family():
    k = 2
    for l in range(1, k + 2):
        out = {t: unitary(c, chi_index(k, l), t) for t, c in act_p_index(LieGen.X3, chi_index(k, l))}
        expected = {
            psi0_tilde_index(k, l - 1): CR.sqrt(k + 2 - l) * Fraction(k + 3, k + 2),
        }
        if l >= 1:
            expected[psi0_index(k, l - 1)] = CR.sqrt(l) * CR.sqrt(k + 1) * Fraction(1, k + 2)
        assert out == {key: val for key, val in expected.items() if not val.is_zero()}


def test_act_p_variants_differ_only_in_x3():
    idx = WignerIndex(3, -9, 1, -1)
    for gen in (LieGen.X1, LieGen.X2, LieGen.X4):
        assert act_p_index(gen, idx, "plus1") == act_p_index(gen, idx, "plus2")
    assert act_p_index(LieGen.X3, idx, "plus1") != act_p_index(LieGen.X3, idx, "plus2")
    with pytest.raises(ValueError):
        act_p_index(LieGen.X1, idx, "plus3")


def test_p_rows_are_the_bracket_weights():
    # each X_i moves n and m1 by twice its U0 and U3 bracket weights, m2 by
    # the step the central character ties to that n, and j by -1/2 and +1/2;
    # each row's sign is +-1
    k, (j2, m12, m22) = 2, (7, 1, 3)
    idx = module_index(k, j2, m12, m22)
    for i, gen in enumerate(P_GENS, 1):
        (u0_slot, u0_weight), = bracket_coords(LieGen.U0, i)
        (u3_slot, u3_weight), = bracket_coords(LieGen.U3, i)
        assert u0_slot == u3_slot == i
        assert [dj2 for _sign, dj2, *_ in P_ROWS[gen]] == [-1, 1]
        for sign, dj2, dn2, dm12, dm22 in P_ROWS[gen]:
            assert sign in (-1, 1)
            assert GaussianRational(0, dn2, 2) == u0_weight
            assert GaussianRational(0, dm12, 2) == u3_weight
            assert dm22 == dn2 // 3
            moved = module_index(k, j2 + dj2, m12 + dm12, m22 + dm22)
            assert moved.n2 - idx.n2 == dn2


def test_inadmissible_result_tripwire(monkeypatch):
    # a move that breaks parity lands a nonzero coefficient on an invalid index
    monkeypatch.setitem(wigner.P_ROWS, LieGen.X1, ((-1, -1, 3, 1, 0), P_ROWS[LieGen.X1][1]))
    with pytest.raises(InadmissibleResult, match=r"invalid W\[j=1,n=-4,m1=0,m2=1/2\]"):
        act_p_index(LieGen.X1, module_index(2, 3, -1, 1))


def test_named_families():
    # each family against its hand-derived n = 3 m2 - 2k - 3
    families = (
        (psi_index, -1, 1, lambda k, l: WignerIndex(k + 2, -k, -k + 2 * l, k + 2)),
        (psi0_index, 0, 0, lambda k, l: WignerIndex(k, -k - 6, -k + 2 * l, k)),
        (psi0_tilde_index, 0, 1, lambda k, l: WignerIndex(k + 2, -k - 6, -k + 2 * l, k)),
        (chi_index, 0, 1, lambda k, l: WignerIndex(k + 1, -k - 3, -(k + 1) + 2 * l, k + 1)),
    )
    for family, lo, extra, formula in families:
        for k in range(31):
            for l in range(lo, k + extra + 1):
                idx = family(k, l)
                assert idx == formula(k, l), (family.__name__, k, l)
                assert admissible(idx, k)
            with pytest.raises(OutOfRange, match=rf"^l={lo - 1} outside \[{lo}, {k + extra}\]$"):
                family(k, lo - 1)
            with pytest.raises(OutOfRange, match=rf"^l={k + extra + 1} outside"):
                family(k, k + extra + 1)
    assert chi_index(0, 0) == WignerIndex(1, -3, -1, 1)
    # the psi family extends one step beyond each end
    assert psi_index(4, -1).m12 == -4 - 2


def _literal_admissible(idx, k):
    """The two membership conditions written out: the torus window and the
    central character, on a structurally valid index."""
    j2, n2, _, m22 = idx
    c = 4 * k + 6  # doubled 2k + 3
    window = -3 * j2 - c <= n2 <= 3 * j2 - c
    return idx.structurally_valid() and window and 3 * m22 - c == n2


def test_admissible_is_the_literal_definition():
    for k in range(7):
        for j2 in range(9):
            ms = range(-j2 - 2, j2 + 3)
            for m12 in ms:
                for m22 in ms:
                    pinned = module_index(k, j2, m12, m22)
                    assert admissible(pinned, k) == pinned.structurally_valid()
                    for n2 in range(-70, 31):
                        idx = WignerIndex(j2, n2, m12, m22)
                        assert admissible(idx, k) == _literal_admissible(idx, k), (k, idx)


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
            assert lhs == act_tensor(U3, t).scaled(2 * I)


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
