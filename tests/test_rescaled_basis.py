"""The exact engine in the rescaled basis W'_idx = W_idx / a(idx).

Two kinds of checks:

* the rescaled operator table and cochain coordinates against their unitary
  square-root forms in `unitary_table`, exactly;
* the module relations act(a)act(b) - act(b)act(a) = act([a, b]) for all 28
  pairs of the eight generators on every basis vector with j <= 2, with the
  bracket taken exactly from the 3x3 matrices.  They hold for `plus1`, fail
  for `plus2`, and catch the four single-row mutants of the X1 and X2 tables
  that the cocycle identities cannot see (those rows only act on K-types
  with m2 < j, which no equivariant cochain reaches).
"""

import itertools
import math
from fractions import Fraction

import pytest

from conftest import monomial_basis, tensor_term, value
from su21coh import cochains
from su21coh.cochains import (
    Cochain,
    act_tensor,
    basis_wedges,
    build_chi,
    build_psi,
    build_psi0,
    chi3_element,
    differential,
)
from su21coh.lie import (
    L_GENS,
    P_GENS,
    LieGen,
    Mat3,
    bracket,
    gen_matrix,
    project_to_p,
    wedge_action,
)
from su21coh.polynomials import monomial_xy
from su21coh.scalars import ComplexRadical, GaussianRational
from su21coh.wigner import (
    VARIANTS,
    WignerIndex,
    act_l_index,
    act_p_index,
    admissible_indices,
    chi_index,
    psi0_index,
    psi_index,
    scale_sq,
)
from unitary_table import alpha_coeff, beta_coeff, gamma_coeff, unitary, unitary_coord
import unitary_table

GENS = L_GENS + P_GENS


def _sweep():
    for k in range(4):
        for idx in admissible_indices(k, Fraction(9, 2)):
            yield k, idx


def test_scale_is_one_on_the_bottom_rows_and_sqrt_k_plus_2_on_psi():
    assert scale_sq(WignerIndex(0, -6, 0, 0)) == 1
    assert scale_sq(WignerIndex(3, -9, -3, -3)) == Fraction(1, 36)
    for k in range(6):
        # --perturb's +1 at W'_psi(0) is the unitary +1 because of this
        assert scale_sq(psi_index(k, 0)) == k + 2


def test_table_identity_against_the_unitary_form():
    """Every rescaled coefficient is the unitary one times a(t)/a(idx), for
    k <= 3, j <= 9/2, all eight generators and both variants."""
    pairs = []
    for k, idx in _sweep():
        for gen in L_GENS:
            pairs.append((idx, act_l_index(gen, idx), unitary_table.act_l_index(gen, idx)))
        for gen, variant in itertools.product(P_GENS, VARIANTS):
            pairs.append((idx, act_p_index(gen, idx, variant),
                          unitary_table.act_p_index(gen, idx, variant)))
    count = 0
    for idx, got, ref in pairs:
        assert [t for t, _ in got] == [t for t, _ in ref], idx
        for (tgt, c), (_, u) in zip(got, ref):
            assert unitary(c, idx, tgt) == u, (idx, tgt)
            count += 1
    assert count == 25_540


def test_plus1_table_is_gaussian_rational():
    for k, idx in _sweep():
        for gen in P_GENS:
            for _, c in act_p_index(gen, idx):
                assert type(c) is GaussianRational
            for tgt, c in act_p_index(gen, idx, "plus2"):
                # only plus2's second X3 row leaves Q(i)
                irrational = gen is LieGen.X3 and tgt.j2 > idx.j2
                assert (type(c) is ComplexRadical) == irrational
        for gen in L_GENS:
            assert all(type(c) is GaussianRational for _, c in act_l_index(gen, idx))


def test_plus1_engine_stays_in_q_i():
    """The cochains, their differentials and the equivariance coefficients
    never leave GaussianRational under plus1."""
    for k in (0, 3):
        chi, psi, psi0 = build_chi(k), build_psi(k), build_psi0(k)
        for coch in (chi, psi, psi0, differential(chi), differential(psi)):
            assert all(type(c) is GaussianRational for _, c in coch.items())
    for u, w in itertools.product(L_GENS, basis_wedges(2)):
        assert all(type(c) is GaussianRational for c in wedge_action(u, w).values())


def test_cochain_closed_forms():
    """chi(X3), psi(X1^X3)/sqrt(k+2) and psi0(X3^X4) hold k!/(k-l)!,
    (l+1) k!/(k-l)! and k!/(k-l)!, which are gamma, alpha and beta in the
    unitary basis, for k <= 30."""
    for k in range(31):
        chi3 = chi3_element(k)
        w13 = value(build_psi(k), (1, 3))
        w034 = value(build_psi0(k), (3, 4))
        assert len(chi3) == len(w13) == len(w034) == k + 1
        for l in range(k + 1):
            mono, perm = monomial_xy(k, l), math.perm(k, l)
            c, a, b = chi_index(k, l), psi_index(k, l), psi0_index(k, l)
            assert chi3.get(((), c, mono)) == perm
            assert w13.get(((), a, mono)) == (l + 1) * perm
            assert w034.get(((), b, mono)) == perm
            assert unitary_coord(perm, c) == gamma_coeff(k, l)
            assert unitary_coord((l + 1) * perm, a, k + 2) == alpha_coeff(k, l)
            assert unitary_coord(perm, b) == beta_coeff(k, l)


# ---------------------------------------------------------------------------
# Module relations.
# ---------------------------------------------------------------------------


def _gen_coords(m):
    """{generator: coefficient} of a matrix in the span of the eight
    generators, checked by rebuilding the matrix."""
    p = project_to_p(m)
    rest = m
    for c, gen in zip(p, P_GENS):
        rest = rest - gen_matrix(gen).scaled(c)
    minus_i = GaussianRational(0, -1)
    l = (rest[2, 2] * GaussianRational(0, 1), rest[0, 1] * minus_i, rest[1, 0] * minus_i,
         (rest[0, 0] - rest[1, 1]) * minus_i)
    coords = {g: GaussianRational.of(c) for g, c in zip(GENS, l + p) if not c.is_zero()}
    rebuilt = sum((gen_matrix(g).scaled(c) for g, c in coords.items()), Mat3())
    assert rebuilt == m
    return coords


def relation_failures(variant="plus1", j_max=2, ks=(0, 1)) -> int:
    """Number of (pair, basis vector) cells where
    act(a)act(b) - act(b)act(a) != act([a, b])."""
    brackets = {
        (a, b): _gen_coords(bracket(gen_matrix(a), gen_matrix(b)))
        for a, b in itertools.combinations(GENS, 2)
    }
    assert len(brackets) == 28
    failures = 0
    for k in ks:
        for idx in admissible_indices(k, j_max):
            for mono in monomial_basis(k):
                t = tensor_term(idx, mono)
                once = {g: act_tensor(g, t, variant) for g in GENS}
                for (a, b), coords in brackets.items():
                    lhs = act_tensor(a, once[b], variant) - act_tensor(b, once[a], variant)
                    rhs = Cochain()
                    for g, c in coords.items():
                        rhs = rhs + once[g].scaled(c)
                    failures += lhs != rhs
    return failures


def test_module_relations_hold_for_plus1():
    assert relation_failures("plus1") == 0


def test_module_relations_reject_plus2():
    assert relation_failures("plus2") > 0


def _first_row(gen, idx, lin_shift=0):
    """The first (dj = -1) row of the rescaled X1 or X2 table on idx, with
    its linear factor shifted by lin_shift."""
    j2, n2, m12, m22 = idx
    d = (m22 - n2) // 2
    jp, jm, km = (j2 + m12) // 2, (j2 - m12) // 2, (j2 - m22) // 2
    dm1, root, factor = (1, jm * km, jm * km) if gen is LieGen.X1 else (-1, jp * km, km)
    lin = j2 + d - 1 + lin_shift
    if root == 0 or lin == 0:
        return []
    target = WignerIndex(j2 - 1, n2 + 3, m12 + dm1, m22 + 1)
    return [(target, GaussianRational(-lin * factor, 0, 2 * (j2 + 1)))]


def _mutant(gen, change):
    """act_p_index with the first row of gen's table mutated: "sign" flips
    its sign, "lin" adds 2 to its linear factor."""

    def mutated(g, idx, variant="plus1"):
        out = act_p_index(g, idx, variant)
        if g is not gen:
            return out
        first = [(t, c) for t, c in out if t.j2 < idx.j2]
        assert first == _first_row(gen, idx)
        rest = [(t, c) for t, c in out if t.j2 > idx.j2]
        first = [(t, -c) for t, c in first] if change == "sign" else _first_row(gen, idx, 2)
        return first + rest

    return mutated


@pytest.mark.parametrize("gen", [LieGen.X1, LieGen.X2], ids=["X1", "X2"])
@pytest.mark.parametrize("change", ["sign", "lin"])
def test_module_relations_catch_the_blind_spot_mutants(gen, change, monkeypatch):
    monkeypatch.setattr(cochains, "act_p_index", _mutant(gen, change))
    assert relation_failures("plus1") > 0
