"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Exact criteria compare term collections for literal emptiness; numeric
criteria use the stated tolerances.  Stated runtime budgets are asserted.
"""

import time
from fractions import Fraction

import numpy as np

from conftest import (
    I,
    act_poly_gen,
    act_tensor_seq,
    monomial_basis,
    psi0_tilde_index,
    random_equivariant_cochain,
    random_radical,
    value,
)
from su21coh import lie, oracle
from su21coh.cochains import (
    act_tensor,
    bidegrees,
    build_chi,
    build_psi,
    build_psi0,
    check_equivariance,
    chi3_element,
    differential,
    verify_nonexactness,
)
from su21coh.lie import L_GENS, P_GENS, LieGen, bracket, gen_matrix
from su21coh.polynomials import PolyVector, act_poly
from su21coh.report import all_passed
from su21coh.scalars import ComplexRadical
from su21coh.wigner import act_p_index, chi_index, psi0_index, psi_index
from unitary_table import unitary

CR = ComplexRadical


def _report(num: int, description: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"[criterion {num:2d}] {description}: {status}{tail}")
    assert ok, f"criterion {num} failed: {description} {tail}"


def test_criterion_01_structure_suite():
    t0 = time.perf_counter()
    results = lie.verify_structure()
    elapsed = time.perf_counter() - t0
    table_ok = all_passed([r for r in results if r.name.startswith("table")])
    pair_checks = [r for r in results if "in l_C" in r.name]
    brackets_ok = all_passed(pair_checks) and len(pair_checks) == 16
    _report(
        1,
        "tables reproduced from 3x3 brackets; p-brackets vanish mod compact part",
        table_ok and brackets_ok and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_02_differential_splitting():
    t0 = time.perf_counter()
    ok = True
    for k in range(11):
        # build_psi(k) is psi/sqrt(k+2), in the rescaled basis like the others
        residual = differential(build_chi(k)) - build_psi(k) - build_psi0(k)
        ok = ok and residual.is_zero() and not residual.items()
    elapsed = time.perf_counter() - t0
    _report(2, "d(chi) splits exactly into the two cocycles, k=0..10",
            ok and elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_03_cocycles_closed():
    ok = True
    for k in range(11):
        ok = ok and differential(build_psi(k)).is_zero()
        ok = ok and differential(build_psi0(k)).is_zero()
    _report(3, "d(psi) = 0 and d(psi0) = 0 exactly, k=0..10", ok)


def test_criterion_04_nonexactness_mirror():
    ok = True
    for k in range(11):
        ok = ok and all_passed(verify_nonexactness(k))
    _report(4, "preimage family, 1-dim lowering kernel, nonzero X1-image, k=0..10", ok)


def test_criterion_05_types_and_equivariance():
    ok = True
    for k in range(11):
        psi, psi0, chi = build_psi(k), build_psi0(k), build_chi(k)
        ok = ok and bidegrees(psi) == {(1, 1)} and bidegrees(psi0) == {(0, 2)}
        ok = ok and all(check_equivariance(c) for c in (psi, psi0, chi))
    _report(5, "types (1,1)/(0,2) and exact equivariance of all three, k=0..10", ok)


def test_criterion_06_compact_pair_fixtures():
    # Third identity note: the printed form "-i * chi3" is inconsistent with
    # the bracket [E, F] = 2i U3, the weight of chi3, and the definition
    # chi4 = i E chi3 (all of which are independently machine-checked here);
    # the consistent pair is FE.chi3 = -chi3 and F.chi4 = -i chi3, which is
    # what the equivariance of chi (criterion 5) requires.
    E, F = LieGen.U1_PLUS_IU2, LieGen.U1_MINUS_IU2
    ok = True
    for k in range(11):
        chi3 = chi3_element(k)
        chi4 = value(build_chi(k), (4,))
        ok = ok and act_tensor(F, chi3).is_zero()
        ok = ok and act_tensor_seq((E, E), chi3).is_zero()
        ok = ok and act_tensor_seq((F, E), chi3) == chi3.scaled(-1)
        ok = ok and act_tensor(F, chi4) == chi3.scaled(-I)
    _report(6, "lowering/raising fixtures on the chi seed (consistent form), k=0..10", ok)


def _unitary_image(gen, idx):
    """act_p_index back in the unitary basis, as {target: coefficient}."""
    return {t: unitary(c, idx, t) for t, c in act_p_index(gen, idx)}


def test_criterion_07_noncompact_action_fixtures():
    ok = True
    for k in range(11):
        for l in range(k + 1):
            got = _unitary_image(LieGen.X1, chi_index(k, l))
            ok = ok and got == {psi_index(k, l): CR.sqrt(Fraction(l + 1, k + 2))}
        for l in range(1, k + 2):
            got = _unitary_image(LieGen.X3, chi_index(k, l))
            want = {
                psi0_index(k, l - 1): CR.sqrt(l) * CR.sqrt(k + 1) * Fraction(1, k + 2),
                psi0_tilde_index(k, l - 1): CR.sqrt(k + 2 - l) * Fraction(k + 3, k + 2),
            }
            ok = ok and got == {a: b for a, b in want.items() if not b.is_zero()}
        for l in range(k + 1):
            got = _unitary_image(LieGen.X4, chi_index(k, l))
            want = {
                psi0_index(k, l): CR.sqrt(k + 1 - l) * CR.sqrt(k + 1) * Fraction(-1, k + 2),
                psi0_tilde_index(k, l): CR.sqrt(l + 1) * Fraction(k + 3, k + 2),
            }
            ok = ok and got == {a: b for a, b in want.items() if not b.is_zero()}
    _report(7, "noncompact action identities on the named families, k=0..10", ok)


def test_criterion_08_fd_adjudication():
    t0 = time.perf_counter()
    j_max = Fraction(5, 2)
    plus1_ok = True
    worst = 0.0
    for k in range(4):
        res = oracle.check_action([k], j_max=j_max, samples=20, tol=1e-6, seed=k,
                                  variant="plus1")
        plus1_ok = plus1_ok and all_passed(res)
        worst = max(worst, max(r.max_err for r in res))
    plus2_fails = False
    for k in range(4):
        res = oracle.check_action([k], j_max=j_max, samples=20, tol=1e-6, seed=k,
                                  variant="plus2")
        plus2_fails = plus2_fails or not all_passed(res)
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "fd matches exact operators (rel err <= 1e-6); exactly one variant passes",
        plus1_ok and plus2_fails and elapsed < 300.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_09_oracle_self_consistency():
    hom = oracle.homomorphism_report(seed=0)
    iwa = oracle.iwasawa_report(seed=0)
    orth = oracle.orthogonality_report()
    ok = all_passed(hom) and all_passed(iwa) and all_passed(orth)
    worst = max(r.max_err for r in hom + iwa + orth if r.max_err is not None)
    _report(9, "homomorphism 1e-9, iwasawa 1e-10 x1000, orthogonality 1e-10",
            ok, f"max err {worst:.2e}")


def test_criterion_10_property_suites():
    # (a) d.d = 0 on 50 randomized equivariant 1-cochains per k <= 5
    rng = np.random.default_rng(2024)
    dd_ok = True
    for k in range(6):
        for _ in range(50):
            psi = random_equivariant_cochain(k, rng)
            dd_ok = dd_ok and check_equivariance(psi)
            dd_ok = dd_ok and differential(differential(psi)).is_zero()

    # (b) exact-scalar field laws on 10^4 randomized expressions
    rng = np.random.default_rng(99)
    field_ok = True
    for _ in range(10_000):
        a = random_radical(rng, max_terms=2)
        b = random_radical(rng, max_terms=2)
        c = random_radical(rng, max_terms=2)
        field_ok = field_ok and (a + b) + c == a + (b + c)
        field_ok = field_ok and (a * b) * c == a * (b * c)
        field_ok = field_ok and a * (b + c) == a * b + a * c
        if not a.is_zero():
            field_ok = field_ok and a * a.inverse() == CR.of(1)

    # (c) representation property of the polynomial action for k <= 8
    rng = np.random.default_rng(7)
    rep_ok = True
    gens = L_GENS + P_GENS
    for k in range(9):
        basis = monomial_basis(k)
        for _ in range(5):
            a, b = (gens[int(i)] for i in rng.integers(0, len(gens), 2))
            picks = rng.choice(len(basis), size=min(3, len(basis)), replace=False)
            p = PolyVector([(basis[int(t)], CR.of(int(rng.integers(-4, 5)))) for t in picks])
            com = bracket(gen_matrix(a), gen_matrix(b))
            rep_ok = rep_ok and act_poly(com, p) == (
                act_poly_gen(a, act_poly_gen(b, p)) - act_poly_gen(b, act_poly_gen(a, p))
            )

    _report(10, "d.d = 0 (50 x k<=5), field laws (10^4), representation property (k<=8)",
            dd_ok and field_ok and rep_ok)
