from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from su21coh.lie import L_GENS, P_GENS, LieGen, bracket, gen_matrix
from su21coh.polynomials import (
    Monomial,
    PolyVector,
    act_poly,
    monomial_xy,
)
from conftest import I, act_poly_gen, monomial_basis
from su21coh.scalars import ComplexRadical

CR = ComplexRadical


def mono(a, b, c, coeff=1):
    return PolyVector({Monomial(a, b, c): CR.of(coeff)})


def eval_poly(p: PolyVector, v) -> complex:
    """Numeric evaluation at a point v = (x, y, z)."""
    x, y, z = (complex(t) for t in v)
    total = 0j
    for (a, b, c), coeff in p.items():
        total += coeff.to_complex() * x**a * y**b * z**c
    return total


def test_monomial_basics():
    m = Monomial(2, 0, 1)
    assert m.degree() == 3
    assert monomial_xy(5, 2) == Monomial(3, 2, 0)
    assert len(monomial_basis(4)) == 5 * 6 // 2


def test_noncompact_action_fixtures():
    k, l = 5, 2
    p = PolyVector({monomial_xy(k, l): CR.of(1)})
    assert act_poly_gen(LieGen.X3, p) == mono(k - l - 1, l, 1, k - l)
    assert act_poly_gen(LieGen.X4, p) == mono(k - l, l - 1, 1, l)
    assert act_poly_gen(LieGen.X1, p).is_zero()
    assert act_poly_gen(LieGen.X2, p).is_zero()
    # generic derivation: X1 moves a z into an x
    assert act_poly_gen(LieGen.X1, mono(1, 1, 2)) == mono(2, 1, 1, 2)


def test_compact_action_fixtures():
    k = 4
    for l in range(k + 1):
        p = PolyVector({monomial_xy(k, l): CR.of(1)})
        assert act_poly_gen(LieGen.U0, p) == p.scaled(Fraction(k, 2) * I)
        assert act_poly_gen(LieGen.U3, p) == p.scaled((Fraction(k, 2) - l) * I)
        lowered = act_poly_gen(LieGen.U1_MINUS_IU2, p)
        if l == k:
            assert lowered.is_zero()
        else:
            assert lowered == mono(k - l - 1, l + 1, 0, (k - l) * I)
        raised = act_poly_gen(LieGen.U1_PLUS_IU2, p)
        if l == 0:
            assert raised.is_zero()
        else:
            assert raised == mono(k - l + 1, l - 1, 0, l * I)


def test_degree_preserved_and_dimension():
    for k in (2, 5):
        basis = monomial_basis(k)
        assert len(basis) == (k + 1) * (k + 2) // 2
        for gen in L_GENS + P_GENS:
            for m in basis:
                out = act_poly_gen(gen, PolyVector({m: CR.of(1)}))
                for target, _ in out.items():
                    assert target.degree() == k


def _random_poly(k, rng):
    basis = monomial_basis(k)
    picks = rng.choice(len(basis), size=min(3, len(basis)), replace=False)
    return PolyVector(
        [(basis[int(p)], CR.of(int(rng.integers(-4, 5)))) for p in picks]
    )


def test_representation_property():
    rng = np.random.default_rng(3)
    gens = L_GENS + P_GENS
    for k in range(0, 9):
        for _ in range(6):
            a, b = (gens[int(i)] for i in rng.integers(0, len(gens), 2))
            p = _random_poly(k, rng)
            com = bracket(gen_matrix(a), gen_matrix(b))
            lhs = act_poly(com, p)
            rhs = act_poly_gen(a, act_poly_gen(b, p)) - act_poly_gen(b, act_poly_gen(a, p))
            assert lhs == rhs, (k, a, b)


def test_numeric_derivative_cross_check():
    # p((e^{tX})^T v) differentiated at t=0 equals the exact derivation
    rng = np.random.default_rng(4)
    for k in (1, 3, 6):
        for gen in (LieGen.U0, LieGen.U1_PLUS_IU2, LieGen.X3, LieGen.X2):
            p = _random_poly(k, rng)
            x = gen_matrix(gen).to_numpy()
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            t = 1e-5
            plus = eval_poly(p, expm(t * x).T @ v)
            minus = eval_poly(p, expm(-t * x).T @ v)
            fd = (plus - minus) / (2 * t)
            exact = eval_poly(act_poly_gen(gen, p), v)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_one_helper():
    one = mono(0, 0, 0)
    assert eval_poly(one, (2.0, 3.0, 4.0)) == 1.0
    assert act_poly_gen(LieGen.X3, one).is_zero()
