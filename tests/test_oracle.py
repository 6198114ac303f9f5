import cmath
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from su21coh import oracle
from su21coh.cli import main
from su21coh.lie import L_GENS, P_GENS, LieGen
from su21coh.oracle import (
    EulerAngles,
    an_gamma,
    adjudicate_variant,
    eval_sections,
    eval_wigner,
    euler_from_k,
    iwasawa,
    k_from_angles,
    m_matrix,
    membership_residual,
    quadrature_ip,
    random_group_points,
    real_imag_parts,
    wigner_matrix,
)
from su21coh.report import all_passed
from su21coh.wigner import (
    WignerIndex,
    act_l_index,
    act_p_index,
    admissible_indices,
    chi_index,
    psi_index,
    scale_sq,
)


# Reference evaluations kept out of the package: the Jacobi polynomial by its
# explicit sum and by the three-term recurrence, and the printed
# matrix-coefficient formula evaluated literally through it.


def gbinom(n: int, r: int) -> int:
    """Generalized binomial coefficient for integer (possibly negative) n."""
    if r < 0:
        return 0
    num = 1
    for t in range(r):
        num *= n - t
    return num // math.factorial(r)


def jacobi(alpha: int, beta: int, c: int, x: float) -> float:
    """Jacobi polynomial P_c^(alpha,beta)(x) by the explicit finite sum,
    valid for the (possibly negative) integer parameters arising from
    matrix-coefficient indices."""
    if c < 0:
        raise ValueError("degree must be nonnegative")
    total = 0.0
    for s in range(c + 1):
        coeff = gbinom(c + alpha, c - s) * gbinom(c + beta, s)
        if coeff:
            total += coeff * ((x - 1.0) / 2.0) ** s * ((x + 1.0) / 2.0) ** (c - s)
    return total


def jacobi_recurrence(alpha: int, beta: int, c: int, x: float) -> float:
    """Three-term recurrence evaluation, for alpha, beta >= 0."""
    if alpha < 0 or beta < 0:
        raise ValueError("recurrence oracle requires alpha, beta >= 0")
    p_prev = 1.0
    if c == 0:
        return p_prev
    p = (alpha + 1) + (alpha + beta + 2) * (x - 1.0) / 2.0
    for n in range(2, c + 1):
        a1 = 2 * n * (n + alpha + beta) * (2 * n + alpha + beta - 2)
        a2 = (2 * n + alpha + beta - 1) * (alpha * alpha - beta * beta)
        a3 = (2 * n + alpha + beta - 1) * (2 * n + alpha + beta) * (2 * n + alpha + beta - 2)
        a4 = 2 * (n + alpha - 1) * (n + beta - 1) * (2 * n + alpha + beta)
        p, p_prev = ((a2 + a3 * x) * p - a4 * p_prev) / a1, p
    return p


def eval_wigner_literal(idx: WignerIndex, e: EulerAngles) -> complex:
    """The printed formula, evaluated literally through `jacobi` (a
    cross-check of the regrouped evaluation away from theta in {0, pi})."""
    j2, n2, m12, m22 = idx
    jp, jm = (j2 + m12) // 2, (j2 - m12) // 2
    kp, km = (j2 + m22) // 2, (j2 - m22) // 2
    dm, dp = (m12 - m22) // 2, (m12 + m22) // 2
    c_norm = math.sqrt(math.factorial(jp) * math.factorial(jm)) * math.sqrt(
        math.factorial(kp) * math.factorial(km)
    )
    sh, ch = math.sin(e.theta / 2), math.cos(e.theta / 2)
    d_val = (
        sh**dm
        * ch**dp
        / (math.factorial(kp) * math.factorial(km))
        * jacobi(dm, dp, jm, math.cos(e.theta))
    )
    phase = cmath.exp(0.5j * (n2 * e.zeta + m12 * e.psi + m22 * e.phi))
    return c_norm * phase * d_val


def test_gbinom():
    assert gbinom(5, 2) == 10
    assert gbinom(-2, 3) == -4
    assert gbinom(0, 0) == 1
    assert gbinom(3, 5) == 0
    assert gbinom(3, -1) == 0


def test_jacobi_values():
    assert jacobi(3, -2, 0, 0.37) == 1.0
    # Legendre case via the recurrence oracle
    for x in (-0.8, 0.0, 0.5):
        assert abs(jacobi(0, 0, 1, x) - x) < 1e-14
        assert abs(jacobi(0, 0, 1, x) - jacobi_recurrence(0, 0, 1, x)) < 1e-14
    # frozen from the explicit-sum oracle (and scipy agrees)
    assert abs(jacobi(1, 1, 2, 0.0) - (-0.75)) < 1e-14
    assert abs(jacobi_recurrence(1, 1, 2, 0.0) - (-0.75)) < 1e-14


def test_jacobi_matches_scipy_for_nonneg_params():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b, c = (int(t) for t in rng.integers(0, 5, 3))
        x = float(rng.uniform(-1, 1))
        ours = jacobi(a, b, c, x)
        ref = scipy.special.eval_jacobi(c, a, b, x)
        assert abs(ours - ref) <= 1e-10 * max(1.0, abs(ref))


def test_eval_wigner_j0():
    e = EulerAngles(0.9, -1.2, 2.2, 3.3)
    idx = WignerIndex(0, -6, 0, 0)
    assert abs(eval_wigner([idx], e)[0] - cmath.exp(-3j * 0.9)) < 1e-14


def test_eval_wigner_theta0_fixture():
    # diagonal compact element: only m1 = m2 entries survive, with unit profile
    for n2 in (-3, 1):
        e = EulerAngles(0.31, 0.0, 0.0, 0.0)
        val = eval_wigner([WignerIndex(1, n2, 1, 1)], e)[0]
        assert abs(val - cmath.exp(0.5j * n2 * 0.31)) < 1e-14
        off = eval_wigner([WignerIndex(1, n2, -1, 1)], e)[0]
        assert off == 0.0


def test_regrouped_matches_literal_formula():
    rng = np.random.default_rng(1)
    for _ in range(100):
        j2 = int(rng.integers(0, 7))
        m12 = int(rng.integers(-j2, j2 + 1)) if j2 else 0
        m22 = int(rng.integers(-j2, j2 + 1)) if j2 else 0
        m12 -= (m12 - j2) % 2
        m22 -= (m22 - j2) % 2
        n2 = int(rng.integers(-9, 10))
        n2 -= (n2 - j2) % 2
        idx = WignerIndex(j2, n2, m12, m22)
        e = EulerAngles(
            float(rng.uniform(0, 12)), float(rng.uniform(-3, 3)),
            float(rng.uniform(0.15, 2.95)), float(rng.uniform(-3, 9)),
        )
        a, b = eval_wigner([idx], e)[0], eval_wigner_literal(idx, e)
        assert abs(a - b) <= 1e-11 * max(1.0, abs(b))


def test_wigner_matrix_unitary():
    rng = np.random.default_rng(2)
    for j2, n2 in ((1, -3), (2, 0), (5, 1)):
        for _ in range(5):
            e = EulerAngles(
                float(rng.uniform(0, 12)), float(rng.uniform(-3, 3)),
                float(rng.uniform(0, math.pi)), float(rng.uniform(-3, 9)),
            )
            d = wigner_matrix(j2, n2, e)
            assert np.abs(d @ d.conj().T - np.eye(j2 + 1)).max() <= 1e-10


def test_euler_from_k_identity_and_errors():
    e = euler_from_k(np.eye(3))
    assert (e.zeta, e.phi, e.theta, e.psi) == (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="^not in the compact subgroup "):
        euler_from_k(np.diag([2.0, 1.0, 0.5]))
    with pytest.raises(ValueError, match="^not in the compact subgroup "):
        euler_from_k(an_gamma(2.0, 0.0, 0.0))


def test_euler_round_trip_on_matrices():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(300):
        e = EulerAngles(
            float(rng.uniform(0, 4 * math.pi)), float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(0, math.pi)), float(rng.uniform(-math.pi, 3 * math.pi)),
        )
        kap = k_from_angles(e)
        e2 = euler_from_k(kap)
        assert -math.pi <= e2.phi <= math.pi + 1e-12
        assert 0.0 <= e2.theta <= math.pi
        assert -math.pi - 1e-12 <= e2.psi <= 3 * math.pi + 1e-12
        worst = max(worst, float(np.abs(k_from_angles(e2) - kap).max()))
    assert worst <= 1e-10


def test_euler_degenerate_thetas():
    # theta = 0 and theta = pi: phi is zeroed, psi absorbs the phases
    for theta in (0.0, math.pi):
        e = EulerAngles(1.3, 0.7, theta, -2.1)
        kap = k_from_angles(e)
        e2 = euler_from_k(kap)
        assert e2.phi == 0.0
        assert np.abs(k_from_angles(e2) - kap).max() <= 1e-12


def test_m_element_phases_match_index_window():
    # evaluating at a compact-torus element produces exactly the character
    # phase on every admissible index with m1 = m2
    k = 1
    t = 0.83
    e = euler_from_k(m_matrix(t))
    assert e.theta == 0.0
    for idx in admissible_indices(k, Fraction(3, 2)):
        if idx.m12 != idx.m22:
            continue
        val = eval_wigner([idx], e)[0]
        assert abs(val - cmath.exp(-1j * (2 * k + 3) * t)) <= 1e-12


def test_iwasawa_basics():
    fac = iwasawa(np.eye(3))
    assert abs(fac.r - 1.0) < 1e-12 and abs(fac.nu) < 1e-12 and abs(fac.s) < 1e-12
    fac = iwasawa(an_gamma(2.0, 0.0, 0.0))
    assert abs(fac.r - 2.0) < 1e-12
    assert np.abs(fac.kappa - np.eye(3)).max() < 1e-12
    with pytest.raises(ValueError, match="^membership residual "):
        iwasawa(np.diag([1.0, 2.0, 3.0]))


def test_iwasawa_random_round_trip():
    worst = 0.0
    for seed in range(300):
        g = random_group_points(random.Random(seed), 1)[0]
        assert membership_residual(g) <= 1e-12
        fac = iwasawa(g)
        assert fac.r > 0
        recon = fac.kappa @ an_gamma(fac.r, fac.nu, fac.s)
        worst = max(worst, float(np.abs(recon - g).max()))
    assert worst <= 1e-10


def test_random_group_point_deterministic():
    a = random_group_points(random.Random(123), 1)[0]
    b = random_group_points(random.Random(123), 1)[0]
    assert np.array_equal(a, b)
    assert np.abs(a - random_group_points(random.Random(124), 1)[0]).max() > 1e-8


def test_random_group_points_of_a_smaller_count_are_a_prefix():
    # the adjudication's 5 base points are the first 5 of check_action's 20
    full = random_group_points(random.Random("fd:0"), 20)
    assert np.array_equal(random_group_points(random.Random("fd:0"), 5), full[:5])
    assert len({p.tobytes() for p in full}) == 20


def test_stacked_points_match_one_point_at_a_time():
    rng = random.Random("covariance:0")
    coords = [oracle._draw_coords(rng) for _ in range(10)]
    stacked = oracle._exp_points(coords)
    single = np.concatenate([oracle._exp_points([row]) for row in coords])
    assert np.abs(stacked - single).max() <= 1e-15


def test_covariance_points_keep_the_per_trial_draw_order(monkeypatch):
    # the points of one trial, then r0, nu, s0 and t0, from one stream
    rng = random.Random("covariance:3")
    want = []
    for _ in range(10):
        want.append(random_group_points(rng, 1)[0])
        for _ in range(5):  # r0, the two parts of nu, s0 and t0
            rng.random()
    seen = []
    real = oracle.eval_sections
    monkeypatch.setattr(oracle, "eval_sections",
                        lambda k, indices, g: seen.append(g) or real(k, indices, g))
    assert all_passed(oracle.covariance_report(0, seed=3))
    assert np.abs(seen[0] - np.array(want)).max() <= 1e-15


def test_eval_section_on_compact_points():
    k = 0
    idx = next(iter(admissible_indices(k, Fraction(1, 2))))
    e = EulerAngles(0.4, 0.2, 1.0, -0.3)
    kap = k_from_angles(e)
    assert abs(eval_sections(k, [idx], kap)[0] - eval_wigner([idx], euler_from_k(kap))[0]) <= 1e-12
    with pytest.raises(ValueError):
        eval_sections(0, [WignerIndex(0, 0, 0, 0)], np.eye(3))


def test_eval_section_on_a_stack_matches_pointwise():
    k = 1
    g = oracle.random_group_points(random.Random(0), 6)
    for idx in admissible_indices(k, Fraction(3, 2)):
        values = eval_sections(k, [idx], g)[0]
        assert values.shape == (6,)
        for i in range(6):
            assert abs(values[i] - eval_sections(k, [idx], g[i])[0]) <= 1e-14


def test_eval_sections_stacks_indices_and_points():
    k = 1
    g = oracle.random_group_points(random.Random(0), 6)
    indices = list(admissible_indices(k, Fraction(3, 2)))
    values = eval_sections(k, indices, g)
    assert values.shape == (len(indices), 6)
    for row, idx in zip(values, indices):
        for i in range(6):
            assert abs(row[i] - eval_sections(k, [idx], g[i])[0]) <= 1e-14
    # one inadmissible index refuses the whole stack, naming it
    with pytest.raises(ValueError, match=r"not admissible for k=1"):
        eval_sections(k, indices + [WignerIndex(0, 0, 0, 0)], g)


def _traced_peak(f, *args) -> int:
    """tracemalloc peak, in bytes, of the allocations made by f(*args)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_sections_scales_the_stack_in_place():
    # 91 indices at 2,000 points: the r^(-3) scaling allocates no second stack
    k = 0
    indices = list(admissible_indices(k, Fraction(5, 2)))
    assert len(indices) == 91
    g = oracle.random_group_points(random.Random(0), 2000)
    angles, rm3 = oracle._decompose_for_eval(g)
    assert np.array_equal(eval_sections(k, indices, g), rm3 * eval_wigner(indices, angles))
    fresh = oracle._decompose_for_eval(g)[0]  # untabled, like the one eval_sections makes
    wrapped = _traced_peak(eval_wigner, indices, fresh)
    assert _traced_peak(eval_sections, k, indices, g) <= 1.1 * wrapped


def _count_fd_evaluations(monkeypatch, argv):
    """Run the CLI with `eval_wigner` and `_fd_points` wrapped.  Returns the
    base point sets, the stencil point sets, and how often each (point set,
    index) pair was evaluated on any of them, counting every index of a
    stacked call."""
    bases, stencil_sets, calls = [], [], Counter()
    real_points, real_eval = oracle._fd_points, oracle.eval_wigner

    def fd_points(*args):
        base, stencils = real_points(*args)
        bases.append(base[0])
        stencil_sets.extend(angles for _, angles, _ in stencils)
        return base, stencils

    def eval_wigner_counted(indices, e):
        if any(e is p for p in bases + stencil_sets):
            for idx in indices:
                calls[id(e), idx] += 1
        return real_eval(indices, e)

    monkeypatch.setattr(oracle, "_fd_points", fd_points)
    monkeypatch.setattr(oracle, "eval_wigner", eval_wigner_counted)
    assert main(argv) == 0
    return bases, stencil_sets, calls


def test_auto_oracle_evaluates_each_base_target_once(monkeypatch, capsys):
    # the finite-difference sweeps read each target at their base points
    # from the point set's table, also when the adjudication runs a second
    # variant on the same base points
    argv = ["oracle", "--k", "0..1", "--samples", "3", "--thm37-variant", "auto"]
    bases, _, calls = _count_fd_evaluations(monkeypatch, argv)
    assert len(bases) == 2  # the adjudication's points and check_action's
    base_calls = {key: n for key, n in calls.items() if any(key[0] == id(b) for b in bases)}
    assert {key[0] for key in base_calls} == {id(b) for b in bases}
    assert max(base_calls.values()) == 1


def test_auto_oracle_evaluates_each_stencil_index_once(monkeypatch, capsys):
    # the finite differences do not depend on the variant: the adjudication
    # compares each stencil window's with both variants in one sweep
    argv = ["oracle", "--k", "0..1", "--samples", "3", "--thm37-variant", "auto"]
    _, stencil_sets, calls = _count_fd_evaluations(monkeypatch, argv)
    assert len(stencil_sets) == len(P_GENS) + len(L_GENS + P_GENS)
    stencil_calls = {key: n for key, n in calls.items()
                     if any(key[0] == id(s) for s in stencil_sets)}
    assert {key[0] for key in stencil_calls} == {id(s) for s in stencil_sets}
    # k = 0 and 1 with j <= 3/2 on the adjudication's four stencils, with
    # j <= 5/2 on check_action's eight
    assert len(stencil_calls) == 2 * (30 * 4 + 91 * 8)
    assert max(stencil_calls.values()) == 1


def test_section_covariance_suites():
    assert all_passed(oracle.covariance_report(k=0, seed=5))
    assert all_passed(oracle.covariance_report(k=2, seed=6))


def test_covariance_decomposes_each_point_set_once(monkeypatch):
    # the base points and their Borel and compact-torus translates, as stacks
    calls = []
    real = oracle._decompose_for_eval
    monkeypatch.setattr(oracle, "_decompose_for_eval", lambda g: calls.append(g) or real(g))
    assert all_passed(oracle.covariance_report(k=1, seed=2))
    assert [g.shape for g in calls] == [(10, 3, 3)] * 3


def test_covariance_checks_every_index_of_the_window(monkeypatch):
    # one stacked call per point set, counting every index of the stack
    seen, calls = set(), []
    real = oracle.eval_wigner

    def eval_wigner_counted(indices, e):
        calls.append(e)
        seen.update(indices)
        return real(indices, e)

    monkeypatch.setattr(oracle, "eval_wigner", eval_wigner_counted)
    assert all_passed(oracle.covariance_report(k=1, seed=0))
    window = set(admissible_indices(1, Fraction(3, 2)))
    assert len(window) == 30 and seen == window
    assert len(calls) == 3


def test_real_imag_parts_rebuild_each_generator():
    from su21coh.lie import gen_matrix
    from su21coh.oracle import J_DIAG_NP

    for gen in LieGen:
        x = gen_matrix(gen).to_numpy()
        a, b = real_imag_parts(gen)
        rebuilt = a + (1j * b if b is not None else 0)
        assert np.abs(rebuilt - x).max() <= 1e-14
        # both parts satisfy the real-form defining equation
        for part in (a, b):
            if part is None:
                continue
            assert np.abs(part.conj().T @ J_DIAG_NP + J_DIAG_NP @ part).max() <= 1e-14


def fd_derivative(f, gen: LieGen, g: np.ndarray) -> complex:
    """Left-invariant derivative d/dt f(exp(-t x) g) at t = 0 at one point, x
    the generator's matrix, through the stencil the operator sweeps use."""
    steps, weights = oracle._fd_steps(gen)
    return sum(w * f(step @ g) for step, w in zip(steps, weights))


def test_fd_derivative_of_a_constant_vanishes():
    # the weights of each real direction's stencil sum to zero
    g = random_group_points(random.Random(0), 1)[0]
    for gen in LieGen:
        assert abs(fd_derivative(lambda h: 1.0, gen, g)) <= 1e-12


def test_fd_matches_compact_weight():
    # dl(U0) multiplies a section by i*n
    k = 0
    idx = WignerIndex(1, -3, 1, 1)
    g = random_group_points(random.Random(17), 1)[0]
    base = eval_sections(k, [idx], g)[0]
    fd = fd_derivative(lambda p: eval_sections(k, [idx], p)[0], LieGen.U0, g)
    assert abs(fd - 1j * (-1.5) * base) <= 1e-7 * max(1.0, abs(base))


def test_fd_matches_noncompact_prediction():
    k, l = 1, 1
    idx = chi_index(k, l)
    g = random_group_points(random.Random(23), 1)[0]
    fd = fd_derivative(lambda p: eval_sections(k, [idx], p)[0], LieGen.X1, g)
    coeff = math.sqrt((l + 1) / (k + 2))
    predicted = coeff * eval_sections(k, [psi_index(k, l)], g)[0]
    assert abs(fd - predicted) <= 1e-7 * max(1.0, abs(predicted))


def test_fd_annihilation_at_bottom_weight():
    # lowering at m1 = -j: the derivative vanishes identically
    k = 3
    idx = WignerIndex(3, -15, -3, 1)
    g = random_group_points(random.Random(29), 1)[0]
    fd = fd_derivative(lambda p: eval_sections(k, [idx], p)[0], LieGen.U1_MINUS_IU2, g)
    assert abs(fd) <= 1e-8


def test_scale_ratio_is_within_ulps_at_any_j():
    # a(idx)/a(tgt) from one float pair per index, against the root of the
    # exact ratio, up to j = 200, where a(idx)^2 is far beyond the float range
    for j2 in (1, 2, 5, 40, 400):
        for m12, m22 in ((j2, j2), (-j2, j2), (j2 % 2, -j2)):
            idx = WignerIndex(j2, 0, m12, m22)
            for tgt in (WignerIndex(j2 + 1, 0, m12 + 1, m22 - 1),
                        WignerIndex(j2 + 1, 0, m12 - 1, m22 + 1)):
                exact = math.sqrt(scale_sq(idx) / scale_sq(tgt))
                assert abs(oracle._scale_ratio(idx, tgt) - exact) <= 4 * math.ulp(exact)


def fd_sweep_reference(ks, j_max, tol, variant, base, stencils):
    """One variant's rows of `oracle._fd_sweep` as a loop over (k,
    generator, index): one `eval_wigner` call per index on the stencil and
    per image target on the base points, the prediction summed term by term
    with `sum`."""
    base_angles, base_rm3 = base
    results = []
    for k, (gen, angles, weights) in itertools.product(ks, stencils):
        compact = gen in L_GENS
        label = "dl" if compact else f"dp:{variant}"
        for idx in admissible_indices(k, j_max):
            image = act_l_index(gen, idx) if compact else act_p_index(gen, idx, variant)
            pred = base_rm3 * sum(c.to_complex() * oracle._scale_ratio(idx, tgt)
                                  * eval_wigner([tgt], base_angles)[0] for tgt, c in image)
            fd = (weights * eval_wigner([idx], angles)[0]).sum(axis=-1)
            worst = float((np.abs(fd - pred) / np.maximum(1.0, np.abs(pred))).max())
            results.append(oracle._within(f"{label}[k={k},{gen.value},{idx}]", worst, tol,
                                          k=k, gen=gen.value))
    return results


def _fd_rows(res):
    return [(r.name, r.passed, r.max_err, r.tol, r.params) for r in res]


@pytest.mark.parametrize("ks, j_max, samples, variant, gens", [
    (range(4), Fraction(5, 2), 20, "plus1", L_GENS + P_GENS),
    ([0, 1], Fraction(3, 2), 5, "plus2", P_GENS),
    ([0, 2], Fraction(0), 4, "plus1", L_GENS + P_GENS),  # one index per sweep
    ([0, 3], Fraction(3, 2), 1, "plus1", L_GENS + P_GENS),  # one point
])
def test_stacked_fd_sweep_equals_the_per_index_loop(ks, j_max, samples, variant, gens):
    # fresh point sets on each side, so neither reads the other's tables
    stacked = oracle._fd_points(samples, 7, gens)
    looped = oracle._fd_points(samples, 7, gens)
    rows = oracle._fd_sweep(ks, j_max, 1e-6, (variant,), *stacked)[variant]
    assert len(rows) == len(gens) * sum(len(list(admissible_indices(k, j_max))) for k in ks)
    assert _fd_rows(rows) == _fd_rows(fd_sweep_reference(ks, j_max, 1e-6, variant, *looped))
    assert all_passed(rows) == (variant == "plus1")


@pytest.mark.parametrize("stack_size", [1, 7 * 20 * 8, 1 << 20])
def test_fd_sweep_windows_equal_the_per_index_loop(monkeypatch, stack_size):
    # one index a window, seven with a ragged last window, and one window;
    # each window's finite differences serve both variants
    monkeypatch.setattr(oracle, "FD_STACK_SIZE", stack_size)
    stacked = oracle._fd_points(20, 5, P_GENS)
    looped = oracle._fd_points(20, 5, P_GENS)
    rows = oracle._fd_sweep([1], Fraction(5, 2), 1e-6, oracle.VARIANTS, *stacked)
    assert list(rows) == list(oracle.VARIANTS)
    for variant in oracle.VARIANTS:
        assert _fd_rows(rows[variant]) == _fd_rows(
            fd_sweep_reference([1], Fraction(5, 2), 1e-6, variant, *looped))


def test_fd_sweep_over_both_variants_equals_one_variant_at_a_time():
    # fresh point sets per sweep, so no sweep reads another's tables
    both = oracle._fd_sweep(range(3), Fraction(3, 2), 1e-6, oracle.VARIANTS,
                            *oracle._fd_points(4, 3, L_GENS + P_GENS))
    for variant in oracle.VARIANTS:
        alone = oracle._fd_sweep(range(3), Fraction(3, 2), 1e-6, (variant,),
                                 *oracle._fd_points(4, 3, L_GENS + P_GENS))
        assert list(alone) == [variant]
        assert _fd_rows(both[variant]) == _fd_rows(alone[variant])


def test_fd_sweep_keeps_one_failing_row_per_empty_k_and_variant():
    rows = oracle._fd_sweep([0, 1], Fraction(-1), 1e-6, oracle.VARIANTS,
                            *oracle._fd_points(2, 0, P_GENS))
    for res in rows.values():
        assert [(r.name, r.passed, r.params) for r in res] == [
            (f"fd[k={k}] admissible indices with j <= -1", False, {"k": k}) for k in (0, 1)]


def test_auto_oracle_keeps_no_finite_differences(monkeypatch, capsys):
    # each stencil window is compared with every variant as it is evaluated,
    # so no point set's table holds finite differences
    bases, stencil_sets, _ = _count_fd_evaluations(
        monkeypatch, ["oracle", "--k", "0..1", "--samples", "3", "--thm37-variant", "auto"])
    assert len(stencil_sets) == len(P_GENS) + len(L_GENS + P_GENS)
    for angles in bases + stencil_sets:
        assert angles._tables and not [key for key in angles._tables if key[0] == "fd"]


def test_auto_oracle_sweeps_once_per_caller(monkeypatch, capsys):
    # one sweep for the adjudication (every k, both variants), one for
    # check_action (every k, the accepted variant)
    sweeps = []
    real = oracle._fd_sweep
    monkeypatch.setattr(oracle, "_fd_sweep",
                        lambda ks, *a: sweeps.append((list(ks), a[2])) or real(ks, *a))
    assert main(["oracle", "--k", "0..1", "--samples", "3", "--thm37-variant", "auto"]) == 0
    assert sweeps == [([0, 1], oracle.VARIANTS), ([0, 1], ("plus1",))]


def test_fd_sweep_of_empty_images_predicts_zero():
    # at j = 0 raising and lowering annihilate every index: the prediction
    # is exactly 0, so each row's error is the largest finite difference
    base, stencils = oracle._fd_points(3, 2, L_GENS)
    for gen, angles, weights in stencils:
        if gen not in (LieGen.U1_PLUS_IU2, LieGen.U1_MINUS_IU2):
            continue
        (idx,) = admissible_indices(1, 0)
        assert act_l_index(gen, idx) == []
        (row,) = oracle._fd_sweep([1], 0, 1e-6, ("plus1",), base,
                                  [(gen, angles, weights)])["plus1"]
        fd = (weights * eval_wigner([idx], _fresh(angles))[0]).sum(axis=-1)
        assert row.max_err == float(np.abs(fd).max()) and row.passed


def test_operator_sweeps_small():
    def rows(res, gens):
        return [r for r in res if r.params["gen"] in {g.value for g in gens}]

    sizes = {"j_max": Fraction(3, 2), "samples": 4, "tol": 1e-6, "seed": 1}
    res = oracle.check_action([0], **sizes)
    assert all_passed(rows(res, L_GENS))
    res = oracle.check_action([0], **sizes, variant="plus1")
    assert all_passed(rows(res, P_GENS))
    res = oracle.check_action([0], **sizes, variant="plus2")
    assert not all_passed(rows(res, P_GENS))


def test_sweep_over_many_k_matches_one_k_at_a_time():
    def rows(res):
        return [(r.name, r.passed, r.max_err) for r in res]

    sizes = {"j_max": Fraction(3, 2), "samples": 4, "tol": 1e-6, "seed": 1}
    together = oracle.check_action(range(4), **sizes)
    apart = [row for k in range(4) for row in rows(oracle.check_action([k], **sizes))]
    assert rows(together) == apart
    # per k: the compact rows (U0, U1+iU2, U1-iU2, U3), then the noncompact rows
    per_gen = len(list(admissible_indices(0, Fraction(3, 2))))
    gens = [r.params["gen"] for r in together[: 8 * per_gen]]
    assert gens == [g.value for g in L_GENS + P_GENS for _ in range(per_gen)]


def _variant_errors(row) -> dict[str, float]:
    """The per-variant errors printed in an adjudication row's detail."""
    errs = row.detail.split("; ", 1)[1].split(", ")
    return {v: float(e) for v, e in (item.split(": err=") for item in errs)}


def test_adjudication():
    accepted, row = adjudicate_variant([0], 3, 1e-6, 2)
    assert accepted == "plus1"
    assert row.name == "variant adjudication" and row.passed
    errs = _variant_errors(row)
    assert errs["plus1"] <= 1e-6 < errs["plus2"]


def test_adjudication_decomposes_the_points_once(monkeypatch):
    # the base points and the four X1..X4 stencils serve both variants
    calls = []
    real = oracle._decompose_for_eval
    monkeypatch.setattr(oracle, "_decompose_for_eval", lambda g: calls.append(g) or real(g))
    accepted, _ = adjudicate_variant([0, 1], 2, 1e-6, 0)
    assert len(calls) == 1 + len(P_GENS) == 5
    assert accepted == "plus1"


def test_adjudication_is_sized_by_the_oracle(monkeypatch):
    # k <= min(max(ks), 1) and at most 5 points, whatever the sweep asks for
    ks, points = [], []
    real_sweep, real_points = oracle._fd_sweep, oracle._fd_points
    monkeypatch.setattr(oracle, "_fd_sweep",
                        lambda k_range, *a: ks.append(list(k_range)) or real_sweep(k_range, *a))
    monkeypatch.setattr(oracle, "_fd_points",
                        lambda n, *a: points.append(n) or real_points(n, *a))
    accepted, _ = adjudicate_variant(range(4), 20, 1e-6, 0)
    assert accepted == "plus1"
    assert points == [5] and ks == [[0, 1]]


def test_adjudication_of_an_empty_sweep_fails(monkeypatch):
    monkeypatch.setattr(oracle, "ADJUDICATION_J_MAX", Fraction(-1))
    accepted, row = adjudicate_variant([0], 2, 1e-6, 0)
    assert accepted is None and not row.passed
    assert row.detail == "accepted=None; plus1: err=inf, plus2: err=inf"
    assert _variant_errors(row) == {"plus1": math.inf, "plus2": math.inf}


def test_quadrature_normalization_and_diagonal():
    trivial = WignerIndex(0, -6, 0, 0)
    gram = quadrature_ip([trivial])
    assert gram.shape == (1, 1) and abs(gram[0, 0] - 1.0) <= 1e-12
    # squared norm at 2j = 1: computed fixture 1/2, independent of n and of
    # the signs of (m1, m2)
    for n2 in (-3, 3):
        for m12 in (-1, 1):
            for m22 in (-1, 1):
                idx = WignerIndex(1, n2, m12, m22)
                assert abs(quadrature_ip([idx])[0, 0] - 0.5) <= 1e-12


def test_quadrature_orthogonality_spot():
    a = WignerIndex(1, -3, 1, -1)
    b = WignerIndex(1, -3, 1, 1)
    c = WignerIndex(3, -3, 1, -1)  # same (n, m) frequencies, different j
    d = WignerIndex(2, -6, 0, 0)  # half-odd frequency differences vs a
    for other in (b, c, d):
        assert abs(quadrature_ip([a, other])[0, 1]) <= 1e-12


def product_grid(nz: int, nang: int, ng: int) -> tuple[EulerAngles, np.ndarray, float]:
    """The 4-D product grid at these node counts (trapezoid over the full
    4*pi angle periods, Gauss-Legendre in cos(theta)), its weights and its
    total weight."""
    wz, wa = 4 * math.pi / nz, 4 * math.pi / nang
    ag = np.arange(nang) * wa
    x, wx = np.polynomial.legendre.leggauss(ng)
    grid = EulerAngles(zeta=(np.arange(nz) * wz)[:, None, None, None], phi=ag[None, :, None, None],
                       theta=np.arccos(x)[None, None, :, None], psi=ag[None, None, None, :])
    return grid, wz * wa * wa * wx[None, None, :, None], wz * nz * wa * nang * wa * nang * wx.sum()


def quadrature_ip_reference(idx1: WignerIndex, idx2: WignerIndex) -> complex:
    """Per-pair invariant inner product: the integrand W1 conj(W2) evaluated
    through `eval_wigner` on the whole product grid sized for the pair and
    summed, over the total weight."""
    j2, n2 = idx1.j2 + idx2.j2, abs(idx1.n2) + abs(idx2.n2)
    grid, weights, haar = product_grid(n2 + 4, j2 + 4, max(4, j2 // 2 + 2))
    w1, w2 = eval_wigner([idx1, idx2], grid)
    return complex((w1 * np.conj(w2) * weights).sum()) / haar


@pytest.mark.parametrize("k", [0, 1])
def test_gram_matrix_matches_per_pair_quadrature(k):
    window = list(admissible_indices(k, Fraction(3, 2)))
    gram = quadrature_ip(window)
    assert gram.shape == (len(window), len(window))
    ref = np.array([[quadrature_ip_reference(a, b) for b in window] for a in window])
    assert np.abs(gram - ref).max() <= 1e-14
    # a smaller sequence gets a smaller grid, exact for its own pairs
    assert abs(quadrature_ip([window[3], window[-2]])[0, 1] - gram[3, -2]) <= 1e-14
    assert np.abs(quadrature_ip(window[:4]) - ref[:4, :4]).max() <= 1e-14


def test_a_bare_index_is_not_a_sequence_of_indices():
    # a WignerIndex is itself a 4-tuple: no routine may read it as four
    # indices, or return a value for it
    idx = WignerIndex(1, -3, 1, 1)
    with pytest.raises((TypeError, AttributeError)):
        eval_wigner(idx, EulerAngles(0.9, -1.2, 2.2, 3.3))
    with pytest.raises((TypeError, AttributeError)):
        quadrature_ip(idx)


def test_orthogonality_report_catches_a_scaled_norm(monkeypatch):
    real = oracle._theta_terms

    def scaled(j2, m12, m22):
        terms = real(j2, m12, m22)
        if (j2, m12, m22) == (3, -1, -1):
            return [(c * (1 + 1e-6), es, ec) for c, es, ec in terms]
        return terms

    monkeypatch.setattr(oracle, "_theta_terms", scaled)
    orthogonality, norms = oracle.orthogonality_report()
    assert norms.name.startswith("squared norms") and not norms.passed
    assert orthogonality.passed


def test_orthogonality_report_catches_a_shared_profile(monkeypatch):
    # (3, -9, -1, -1) takes the profile of (1, -9, -1, -1): same phases, so
    # their inner product becomes the squared norm 1/2
    real = oracle._theta_terms
    monkeypatch.setattr(oracle, "_theta_terms", lambda j2, m12, m22: real(
        1 if (j2, m12, m22) == (3, -1, -1) else j2, m12, m22))
    orthogonality, _ = oracle.orthogonality_report()
    assert orthogonality.name.startswith("pairwise orthogonality")
    assert not orthogonality.passed and orthogonality.max_err >= 0.4


def test_homomorphism_suite():
    assert all_passed(oracle.homomorphism_report(seed=3))


def _index_window(j2_max):
    """Every structurally valid index with 2j <= j2_max (one n per j)."""
    for j2 in range(j2_max + 1):
        for m12 in range(-j2, j2 + 1, 2):
            for m22 in range(-j2, j2 + 1, 2):
                yield WignerIndex(j2, j2 - 8, m12, m22)


def test_batched_eval_wigner_matches_scalar_and_literal():
    rng = np.random.default_rng(11)
    count = 40
    theta = np.concatenate([[0.0, math.pi], rng.uniform(0.15, 2.95, count - 2)])
    e = EulerAngles(
        rng.uniform(0, 12, count), rng.uniform(-3, 3, count), theta, rng.uniform(-3, 9, count)
    )
    for idx in _index_window(5):
        (batch,) = eval_wigner([idx], e)
        assert batch.shape == (count,)
        for i in range(count):
            point = EulerAngles(
                float(e.zeta[i]), float(e.phi[i]), float(e.theta[i]), float(e.psi[i])
            )
            (one,) = eval_wigner([idx], point)
            assert isinstance(one, complex)
            assert abs(batch[i] - one) <= 1e-14
            j2, _, m12, m22 = idx
            # the literal formula has a pole at theta = 0 when m1 < m2 and at
            # theta = pi when m1 + m2 < 0; elsewhere it must agree
            if (i == 0 and m12 < m22) or (i == 1 and m12 + m22 < 0):
                continue
            assert abs(batch[i] - eval_wigner_literal(idx, point)) <= 1e-14


def eval_wigner_direct(idx: WignerIndex, e: EulerAngles):
    """`eval_wigner` with every piece recomputed from the coordinates on each
    call, in the same floating-point order: the point-set tables must
    reproduce it bit for bit."""
    j2, n2, m12, m22 = idx
    sh, ch = np.sin(e.theta / 2), np.cos(e.theta / 2)
    profile = sum(c * sh**es * ch**ec for c, es, ec in oracle._theta_terms(j2, m12, m22))
    phase = (
        np.exp(0.5j * n2 * e.zeta) * np.exp(0.5j * m12 * e.psi) * np.exp(0.5j * m22 * e.phi)
    )
    return phase * profile


def _fresh(e: EulerAngles) -> EulerAngles:
    """A copy of the point set with no tables."""
    return EulerAngles(*(np.copy(x) for x in (e.zeta, e.phi, e.theta, e.psi)))


def test_tabled_eval_wigner_is_bit_identical_to_direct_evaluation():
    _, stencils = oracle._fd_points(20, 0, [LieGen.X1])
    batch = stencils[0][1]
    assert batch.theta.shape == (20, 8)
    indices = [idx for k in range(4) for idx in admissible_indices(k, Fraction(5, 2))]
    grid = product_grid(34, 10, 5)[0]
    window = list(admissible_indices(0, Fraction(3, 2)))
    point = EulerAngles(0.9, -1.2, 2.2, 3.3)
    for e, idxs in ((batch, indices), (grid, window), (point, indices)):
        for idx in idxs:
            assert np.array_equal(eval_wigner([idx], e)[0], eval_wigner_direct(idx, e)), idx
    # stacked calls, row by row, on fresh point sets and on the tabled ones
    for e, idxs in ((batch, indices), (grid, window), (point, indices)):
        for shared in (_fresh(e), e):
            stack = eval_wigner(idxs, shared)
            assert stack.shape == (len(idxs),) + np.broadcast_shapes(
                *(np.shape(x) for x in (e.zeta, e.phi, e.theta, e.psi)))
            for idx, row in zip(idxs, stack):
                assert np.array_equal(row, eval_wigner_direct(idx, e)), idx


def test_tabled_eval_wigner_does_not_depend_on_evaluation_order():
    rng = np.random.default_rng(5)
    e = EulerAngles(*rng.uniform(0.1, 3.0, size=(4, 30)))
    a, b = WignerIndex(3, -3, 1, -1), WignerIndex(5, -9, 1, -1)  # one (m1, m2), two j
    (ref_a,), (ref_b,) = eval_wigner([a], _fresh(e)), eval_wigner([b], _fresh(e))
    for first, second in ((a, b), (b, a)):
        shared = _fresh(e)
        vals = {first: eval_wigner([first], shared)[0], second: eval_wigner([second], shared)[0]}
        assert np.array_equal(vals[a], ref_a) and np.array_equal(vals[b], ref_b)


def test_orthogonality_report_makes_one_gram_matrix(monkeypatch):
    # one `quadrature_ip` call through the module global: the whole window's
    # Gram matrix, so a span on `oracle.quadrature_ip` times that one matrix
    calls = []
    real = oracle.quadrature_ip
    monkeypatch.setattr(oracle, "quadrature_ip", lambda *a: calls.append(a) or real(*a))
    assert all_passed(oracle.orthogonality_report())
    window = list(admissible_indices(0, Fraction(3, 2)))
    assert calls == [(window,)]


def test_eval_wigner_broadcasts_over_a_product_grid():
    idx = WignerIndex(3, -3, 1, -1)
    zeta, phi = np.array([0.1, 2.0]), np.array([-1.0, 0.4, 2.5])
    (grid,) = eval_wigner([idx], EulerAngles(zeta[:, None], phi[None, :], 0.7, 1.9))
    assert grid.shape == (2, 3)
    for a, z in enumerate(zeta):
        for b, p in enumerate(phi):
            assert abs(grid[a, b] - eval_wigner([idx], EulerAngles(z, p, 0.7, 1.9))[0]) <= 1e-14


def test_expm_matches_scipy():
    rng = np.random.default_rng(12)
    for norm in (1e-3, 0.1, 0.5, 1.0):
        a = rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3))
        a *= norm / np.linalg.norm(a, axis=(1, 2))[:, None, None]
        got = oracle.expm(a)
        assert got.shape == a.shape
        assert np.abs(got - scipy.linalg.expm(a)).max() <= 1e-14
        assert np.abs(oracle.expm(a[0]) - got[0]).max() == 0.0
    # the finite-difference steps +-h X along every real direction
    for gen in LieGen:
        for direction in real_imag_parts(gen):
            if direction is None:
                continue
            for h in (1e-3, -1e-3, 5e-4, -5e-4):
                ref = scipy.linalg.expm(h * direction)
                assert np.abs(oracle.expm(h * direction) - ref).max() <= 1e-14


def test_expm_refuses_norms_above_theta13():
    # no scaling: accurate up to theta_13 in 1-norm, refused above it;
    # compare relatively, as exp grows with the norm
    theta = oracle._THETA_13
    rng = np.random.default_rng(13)
    a = rng.normal(size=(20, 3, 3)) + 1j * rng.normal(size=(20, 3, 3))
    norms = rng.uniform(0.01, theta, 20)
    norms[0] = theta * (1 - 1e-12)  # at the bound, up to rounding of the scaling
    a *= (norms / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]
    ref = scipy.linalg.expm(a)
    err = np.abs(oracle.expm(a) - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert err.max() <= 1e-13
    a[7] *= 1.001 * theta / np.abs(a[7]).sum(axis=0).max()
    with pytest.raises(ValueError, match="^1-norm 5.38 exceeds theta_13 = 5.37192$"):
        oracle.expm(a)


def test_stacked_iwasawa_and_euler_match_pointwise():
    g = oracle.random_group_points(random.Random(0), 40)
    fac = iwasawa(g)
    angles = euler_from_k(fac.kappa)
    for i in range(40):
        one = iwasawa(g[i])
        assert np.abs(fac.kappa[i] - one.kappa).max() <= 1e-14
        assert abs(fac.r[i] - one.r) <= 1e-14 and abs(fac.nu[i] - one.nu) <= 1e-14
        e = euler_from_k(one.kappa)
        assert abs(angles.theta[i] - e.theta) <= 1e-14
        assert abs(angles.zeta[i] - e.zeta) <= 1e-14
    # the degenerate-theta convention holds element-wise inside a stack
    kaps = np.stack([m_matrix(0.4), k_from_angles(EulerAngles(1.3, 0.7, math.pi, -2.1)),
                     k_from_angles(EulerAngles(0.2, 0.5, 1.1, 0.9))])
    e = euler_from_k(kaps)
    assert list(e.phi[:2]) == [0.0, 0.0] and e.phi[2] != 0.0
    assert np.abs(k_from_angles(e) - kaps).max() <= 1e-12


def test_stack_with_one_bad_matrix_raises():
    g = oracle.random_group_points(random.Random(0), 5)
    g[3] = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"^membership residual at point \(3,\) "):
        iwasawa(g)
    kaps = np.stack([k_from_angles(EulerAngles(0.1 * i, 0.2, 0.3, 0.4)) for i in range(5)])
    kaps[2] = an_gamma(2.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"^not in the compact subgroup at point \(2,\) "):
        euler_from_k(kaps)


def test_empty_sweep_fails():
    res = oracle.check_action([0], j_max=Fraction(-1), samples=2, tol=1e-6, seed=0)
    assert len(res) == 1 and not all_passed(res)
    res = oracle.check_action([0, 1], j_max=Fraction(-1), samples=2, tol=1e-6, seed=0)
    assert [r.params["k"] for r in res] == [0, 1] and not any(r.passed for r in res)
