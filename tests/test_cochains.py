import itertools
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    I,
    act_tensor_seq,
    monomial_basis,
    placed,
    random_complex_radical,
    random_equivariant_cochain,
    random_tensor,
    tensor_term,
    value,
)

from su21coh import cochains
from su21coh.cochains import (
    ALL_WEDGES,
    TORUS_GENS,
    Cochain,
    act_tensor,
    basis_wedges,
    bidegrees,
    build_chi,
    build_psi,
    build_psi0,
    check_equivariance,
    chi3_element,
    differential,
    generators_to_dict,
    nullspace,
    psi_w13_element,
    verify_closedness,
    verify_nonexactness,
    wedge_bidegree,
    weight,
)
from su21coh.lie import L_GENS, P_GENS, LieGen, Mat3, gen_matrix, wedge_action
from su21coh.polynomials import Monomial, monomial_xy
from su21coh.report import Tripwire, all_passed
from su21coh.scalars import ComplexRadical, GaussianRational
from su21coh.wigner import (
    DEFAULT_VARIANT,
    VARIANTS,
    act_p_index,
    admissible_indices,
    chi_index,
    module_index,
    psi0_index,
    psi_index,
)
from unitary_table import unitary_coord

CR = ComplexRadical
E, F = LieGen.U1_PLUS_IU2, LieGen.U1_MINUS_IU2


def test_act_tensor_diagonal_weight():
    k, l = 3, 1
    idx = chi_index(k, l)
    t = tensor_term(idx, monomial_xy(k, l))
    out = act_tensor(LieGen.U0, t)
    weight = Fraction(idx.n2, 2) + Fraction(k, 2)
    assert out == t.scaled(weight * I)
    assert act_tensor(LieGen.U0, Cochain()).is_zero()


def test_compact_pair_fixtures():
    # the equivariance-forced identities for the chi seed, all k
    for k in range(0, 6):
        chi3 = chi3_element(k)
        chi4 = value(build_chi(k), (4,))
        assert act_tensor(F, chi3).is_zero()
        assert act_tensor_seq((E, E), chi3).is_zero()
        assert act_tensor_seq((F, E), chi3) == chi3.scaled(-1)
        assert act_tensor(F, chi4) == chi3.scaled(-I)


def test_lowering_raising_identity_not_minus_i():
    # regression pin: FE on the seed is -1 times the seed, not -i times it;
    # -i appears only after absorbing the i from the partner's definition
    chi3 = chi3_element(2)
    assert act_tensor_seq((F, E), chi3) != chi3.scaled(-I)


def _unitary_family(element, family, k, mu_sq=1):
    """The coordinates of a cochain value on W_family(l) (x) x^(k-l) y^l,
    l = 0..k, in the unitary basis."""
    return [
        unitary_coord(element.get(((), family(k, l), monomial_xy(k, l))), family(k, l), mu_sq)
        for l in range(k + 1)
    ]


def test_gamma_coefficients():
    for k in (1, 3, 7):
        gamma = _unitary_family(chi3_element(k), chi_index, k)
        assert gamma[0] == CR.of(1)
        assert gamma[1] == CR.sqrt(k + 1) * Fraction(k, k + 1)
        assert gamma[k] == CR.sqrt(Fraction(1, k + 1))
        for l in range(k):
            recur = gamma[l] * Fraction(k - l, 1) * (CR.sqrt(l + 1) * CR.sqrt(k - l + 1)).inverse()
            assert gamma[l + 1] == recur


def test_beta_coefficients():
    beta = _unitary_family(value(build_psi0(2), (3, 4)), psi0_index, 2)
    assert beta == [CR.of(1), CR.sqrt(2), CR.of(1)]


def test_alpha_is_gamma_times_sqrt():
    for k in (0, 2, 5):
        gamma = _unitary_family(chi3_element(k), chi_index, k)
        alpha = _unitary_family(psi_w13_element(k), psi_index, k, k + 2)
        for l in range(k + 1):
            assert alpha[l] == gamma[l] * CR.sqrt(l + 1)


def test_differential_on_chi():
    for k in (0, 1, 4):
        chi = build_chi(k)
        d = differential(chi)
        assert value(d, (1, 2)).is_zero()
        # psi_w13_element is psi(X1^X3)/sqrt(k+2)
        assert value(d, (1, 3)) == psi_w13_element(k)
    # k = 0 special value: d(chi)(X1^X3) = 1/sqrt(2) * W0 (x) 1
    ((_, idx, mono), coeff), = value(differential(build_chi(0)), (1, 3)).items()
    assert (idx, mono) == (psi_index(0, 0), Monomial(0, 0, 0))
    assert unitary_coord(coeff, idx) == CR.sqrt(Fraction(1, 2))


def test_differential_of_zero():
    z = Cochain()
    assert differential(z).is_zero()


def test_action_and_differential_store_no_zero():
    # act_tensor and differential add every image into one accumulator, in
    # which terms cancel; a cancelled term must not be stored, or "zero"
    # would stop meaning an empty term collection
    for k in range(4):
        chi = build_chi(k)
        for coch in (chi, build_psi(k), build_psi0(k), differential(chi)):
            outs = [differential(coch)] + [act_tensor(g, coch) for g in L_GENS + P_GENS]
            for out in outs:
                assert not any(c.is_zero() for _, c in out.items())
    # U0 is diagonal: on an equivariant cochain each term's function,
    # polynomial and wedge images cancel at that term's own key
    assert len(act_tensor(LieGen.U0, build_psi(2))) == 0


def test_differential_tripwire_reads_the_pullback_table(monkeypatch):
    chi = build_chi(0)
    differential(chi)  # the true tables are empty for X1..X4
    real = cochains._pullback
    # one wedge entry for X1, as if [X1, X1] had the p-part X2
    fake = {(2,): (((1,), GaussianRational(-1)),)}
    monkeypatch.setattr(cochains, "_pullback",
                        lambda gen: fake if gen is LieGen.X1 else real(gen))
    with pytest.raises(Tripwire, match=r"\[X1, X_j\]"):
        differential(chi)


def test_equivariance_of_named_cochains():
    for k in (0, 1, 3):
        for coch in (build_chi(k), build_psi(k), build_psi0(k)):
            assert check_equivariance(coch)


def test_weight_is_the_torus_action_on_one_term():
    # U0 and U3 scale the term at every key by i/2 times its weight, over
    # k <= 4, j <= 2, all 16 wedges and every degree-k monomial
    only_u3, only_u0 = [], []
    for k in range(5):
        for idx, w, mono in itertools.product(admissible_indices(k, 2), ALL_WEDGES,
                                              monomial_basis(k)):
            key = (w, idx, mono)
            term = Cochain({key: 1})
            w0, w3 = (weight(u, key) for u in TORUS_GENS)
            for u, wt in zip(TORUS_GENS, (w0, w3)):
                assert act_tensor(u, term) == term.scaled(GaussianRational(0, wt, 2))
            if not w0 and w3:
                only_u3.append(term)
            elif w0 and not w3:
                only_u0.append(term)
    assert only_u3 and only_u0
    assert not any(check_equivariance(term) for term in only_u3 + only_u0)


@pytest.fixture
def fresh_weight_tables():
    cochains._weight_table.cache_clear()
    yield
    cochains._weight_table.cache_clear()


def test_weight_tripwires(monkeypatch, fresh_weight_tables):
    key = ((1, 3), chi_index(1, 0), monomial_xy(1, 0))  # n2 = -4, x: weight -3
    real_pullback, real_matrix = cochains._pullback, cochains.gen_matrix
    leaves = dict(real_pullback(LieGen.U0))
    leaves[(1,)] += (((2,), GaussianRational(0, 1)),)
    thirds = {w: tuple((w1, c + GaussianRational(0, 1, 3)) for w1, c in pairs)
              for w, pairs in real_pullback(LieGen.U0).items()}
    half = "not i times a half-integer"
    fakes = [
        ("_pullback", lambda gen: leaves, r"U0 moves the wedge \(1,\)$"),  # a row leaves its wedge
        # entries i * (a half-integer + 1/3)
        ("_pullback", lambda gen: thirds, rf"U0 on \(1,\) is i\*\(-7/6\), {half}$"),
        ("gen_matrix", lambda gen: real_matrix(gen) + Mat3({(0, 1): 1}),  # off the diagonal
         r"U0 has an off-diagonal matrix entry$"),
        ("gen_matrix", lambda gen: real_matrix(gen) + Mat3({(0, 0): 1}),  # a real part
         rf"U0\[0,0\] is \(1\) \+ i\*\(1/2\), {half}$"),
        ("gen_matrix", lambda gen: real_matrix(gen) + Mat3({(2, 2): GaussianRational(0, 1, 6)}),
         rf"U0\[2,2\] is i\*\(-5/6\), {half}$"),
    ]
    for name, fake, message in fakes:
        with monkeypatch.context() as m:
            m.setattr(cochains, name, fake)
            cochains._weight_table.cache_clear()
            with pytest.raises(Tripwire, match=message):
                weight(LieGen.U0, key)
    cochains._weight_table.cache_clear()
    assert weight(LieGen.U0, key) == -3


def test_equivariance_never_acts_with_the_torus(monkeypatch):
    seen = set()
    real = cochains.act_tensor

    def spy(gen, psi, *args):
        seen.add(gen)
        return real(gen, psi, *args)

    monkeypatch.setattr(cochains, "act_tensor", spy)
    k = 2
    for coch in (build_chi(k), build_psi(k), build_psi0(k)):
        assert check_equivariance(coch)
    assert not check_equivariance(placed({(1, 3): tensor_term(psi_index(k, 0), monomial_xy(k, 0))}))
    assert seen == {LieGen.U1_PLUS_IU2, LieGen.U1_MINUS_IU2}


def test_truncated_cochain_fails_equivariance():
    # keeping only the leading term of psi(X1^X3) breaks equivariance
    k = 1
    truncated = placed({(1, 3): tensor_term(psi_index(k, 0), monomial_xy(k, 0))})
    assert not check_equivariance(truncated)


def test_determinacy_from_w13():
    # the three remaining mixed-wedge values are forced by equivariance
    for k in (0, 2):
        psi = build_psi(k)
        w13 = value(psi, (1, 3))
        derived_23 = act_tensor(F, w13).scaled(-I)
        derived_14 = act_tensor(E, w13).scaled(I)
        derived_24 = w13 + act_tensor(E, derived_23).scaled(I)
        assert derived_23 == value(psi, (2, 3))
        assert derived_14 == value(psi, (1, 4))
        assert derived_24 == value(psi, (2, 4))
        assert derived_24 == -w13


def test_hodge_types():
    k = 2
    psi, psi0 = build_psi(k), build_psi0(k)
    assert bidegrees(psi) == {(1, 1)}
    assert bidegrees(psi0) == {(0, 2)}
    assert bidegrees(psi + psi0) == {(1, 1), (0, 2)}
    assert bidegrees(Cochain()) == set()
    assert bidegrees(build_chi(k)) == {(0, 1)}
    assert wedge_bidegree((1, 2)) == (2, 0)


def test_bigrading_read_off_the_u0_weight():
    p_plus = {1, 2}  # the holomorphic half <X1, X2>, the reference
    for w in ALL_WEDGES:
        p = sum(1 for i in w if i in p_plus)
        assert wedge_bidegree(w) == (p, len(w) - p)


def test_bigrading_preserved_by_compact_action():
    for u in L_GENS:
        for w in basis_wedges(2):
            for w2 in wedge_action(u, w):
                assert wedge_bidegree(w2) == wedge_bidegree(w)


def test_closedness_suite():
    for k in (0, 1, 5):
        assert all_passed(verify_closedness(k))


def test_mutation_breaks_splitting():
    res = verify_closedness(0, mutate_alpha0=True)
    failed = [r.name for r in res if not r.passed]
    assert any("d(chi)" in name for name in failed)


def test_nonexactness_k0_details():
    res = verify_nonexactness(0)
    assert all_passed(res)
    # candidate set at k=0 is the two-element chi family
    found = {chi_index(0, 0), chi_index(0, 1)}
    assert found == {chi_index(0, l) for l in range(2)}


def test_nonexactness_range():
    for k in range(0, 11):
        assert all_passed(verify_nonexactness(k))


def literal_preimage_probe(k, variant):
    """Reference for non-exactness step (a), with the moves of X3 and X4
    written out by hand: a candidate is one step in j either way, m1 + 1
    under X3 and m1 - 1 under X4, and m2 + 1, with n set by the module.
    Returns the candidates probed and those whose image hits psi0."""
    targets = {idx for _w, idx, _mono in build_psi0(k).support()}
    probed, found = set(), set()
    for t in targets:
        tj, _, tm1, tm2 = t
        for gen, dm1 in ((LieGen.X3, +1), (LieGen.X4, -1)):
            for dj in (-1, +1):
                cand = module_index(k, tj + dj, tm1 + dm1, tm2 + 1)
                if not cand.structurally_valid():
                    continue
                probed.add(cand)
                if t in dict(act_p_index(gen, cand, variant)):
                    found.add(cand)
    return probed, found


@pytest.mark.parametrize("variant", VARIANTS)
def test_preimage_candidates_equal_the_literal_probe(monkeypatch, variant):
    # step (a) reads its moves from P_ROWS; the X3 and X4 calls it makes
    # are the candidates it probes, and those whose image reaches psi0 are
    # the ones it finds
    real, calls = cochains.act_p_index, []

    def spy(gen, idx, v=DEFAULT_VARIANT):
        image = real(gen, idx, v)
        if gen in (LieGen.X3, LieGen.X4):
            calls.append((idx, {t for t, _ in image}))
        return image

    monkeypatch.setattr(cochains, "act_p_index", spy)
    for k in [*range(11), 40]:
        calls.clear()
        results = verify_nonexactness(k, variant)
        assert results[0].name.startswith("preimage candidates") and results[0].passed
        targets = {idx for _w, idx, _mono in build_psi0(k).support()}
        probed = {idx for idx, _ in calls}
        found = {idx for idx, image in calls if image & targets}
        assert (probed, found) == literal_preimage_probe(k, variant)
        assert found == {chi_index(k, l) for l in range(k + 2)}


@pytest.mark.parametrize("k", [40, 80, 160, 320])
def test_theorem_at_large_k(k):
    results = verify_closedness(k) + verify_nonexactness(k)
    assert len(results) == 13
    assert [r.name for r in results if not r.passed] == []


def test_sanity_inversion_for_exact_target():
    # the same obstruction machinery applied to d(chi) finds no contradiction:
    # chi itself solves dX = d(chi), and its X1^X3 value is the nonzero vector
    # produced in step (c)
    k = 2
    d = differential(build_chi(k))
    x1_image = act_tensor(LieGen.X1, chi3_element(k))
    assert value(d, (1, 3)) == x1_image
    assert not x1_image.is_zero()


def test_nullspace_small():
    one = CR.of(1)
    two = CR.of(2)
    rows = [{0: one, 1: two}, {2: one}]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    vec = basis[0]
    assert vec[0] + two * vec[1] == CR() and vec[2] == CR()


def sparse(rows):
    """Dense rows as the {col: entry} rows `nullspace` takes, zeros dropped."""
    return [{c: x for c, x in enumerate(row) if not x.is_zero()} for row in rows]


def dense(rows, ncols):
    """{col: entry} rows as dense rows, for `dense_nullspace`."""
    return [[row.get(c, GaussianRational()) for c in range(ncols)] for row in rows]


def dense_nullspace(rows, ncols):
    """Reference: dense Gauss-Jordan elimination with exact division."""
    work = [list(r) for r in rows]
    pivot_cols: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if not work[i][col].is_zero()), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][col].inverse()
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and not work[i][col].is_zero():
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivot_cols.append(col)
        r += 1
    basis = []
    one = ComplexRadical.of(1)
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [ComplexRadical() for _ in range(ncols)]
        vec[free] = one
        for row_i, pc in enumerate(pivot_cols):
            vec[pc] = -work[row_i][free]
        basis.append(vec)
    return basis


def _random_entry(rng, density):
    """Zero with probability 1 - density; otherwise a random complex radical
    whose real and imaginary terms are each dropped at random."""
    if rng.random() >= density:
        return CR()
    z = random_complex_radical(rng, max_terms=1, bound=20)
    keep_re, keep_im = rng.random() < 0.6, rng.random() < 0.6
    return CR({d: c for d, c in z.items() if (keep_re if d > 0 else keep_im)})


def _random_matrix(rng, nrows, ncols, density=0.6):
    return [[_random_entry(rng, density) for _ in range(ncols)] for _ in range(nrows)]


def _combine(rng, rows):
    """A random combination of rows with nonzero coefficients."""
    out = [CR() for _ in rows[0]]
    for row in rows:
        coeff = _random_entry(rng, 1.0) or CR.of(1)
        out = [a + coeff * b for a, b in zip(out, row)]
    return out


def test_sparse_nullspace_matches_dense_reference():
    rng = np.random.default_rng(2024)
    cases = [([], 0), ([], 3), ([[CR(), CR()]], 2), ([[CR()] * 3] * 2, 3)]
    for _ in range(10):
        nrows, ncols = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        # generic, usually of full rank (and wide whenever ncols > nrows)
        cases.append((_random_matrix(rng, nrows, ncols), ncols))
        base = _random_matrix(rng, nrows, ncols, density=0.8)
        # rank-deficient: append a combination of the rows, a duplicate row
        # and a zero row, then shuffle
        grown = base + [_combine(rng, base), list(base[0]), [CR()] * ncols]
        order = rng.permutation(len(grown))
        cases.append(([grown[int(i)] for i in order], ncols))
    shapes = set()
    for rows, ncols in cases:
        got = nullspace(sparse(rows), ncols)
        assert got == dense_nullspace(rows, ncols)
        shapes.add((ncols - len(got), len(rows), ncols))
        for vec in got:
            for row in rows:
                assert sum((a * x for a, x in zip(row, vec)), CR()).is_zero()
    # the draw covers full-rank, rank-deficient and wide systems
    assert any(0 < rank == min(nrows, ncols) for rank, nrows, ncols in shapes)
    assert any(0 < rank < min(nrows, ncols) for rank, nrows, ncols in shapes)
    assert any(0 < rank < ncols and nrows < ncols for rank, nrows, ncols in shapes)


def _nonzero_entry(rng, field):
    """A random nonzero GaussianRational or ComplexRadical."""
    while True:
        if field is GaussianRational:
            x = GaussianRational(*(int(v) for v in rng.integers(-9, 10, 2)), int(rng.integers(1, 5)))
        else:
            x = random_complex_radical(rng, max_terms=1, bound=20)
        if not x.is_zero():
            return x


def _bidiagonal(rng, field, n, ncols, lower, zero_at):
    """n rows, row i nonzero at column i and at i - 1 (lower) or i + 1
    (upper) where that column exists; the diagonal entry of row zero_at is
    zero when zero_at is not None."""
    rows = [[field() for _ in range(ncols)] for _ in range(n)]
    for i, row in enumerate(rows):
        for c in (i, i - 1 if lower else i + 1):
            if 0 <= c < ncols and not (c == i == zero_at):
                row[c] = _nonzero_entry(rng, field)
    return rows


def test_nullspace_of_banded_systems():
    # the shape step (b)'s lowering matrix has: eliminating only below the
    # pivot keeps it banded, and the basis must still be the reduced one
    rng = np.random.default_rng(24)
    dims = set()
    for field, n, wide, lower in itertools.product(
            (GaussianRational, ComplexRadical), (1, 2, 7, 30), (False, True), (False, True)):
        ncols = n + wide
        for zero_at in (None, n // 2):
            rows = _bidiagonal(rng, field, n, ncols, lower, zero_at)
            got = nullspace(sparse(rows), ncols)
            assert got == dense_nullspace(rows, ncols)
            dims.add(len(got))
    assert dims == {0, 1, 2}


def _lowering_matrix(monkeypatch, k):
    """The sparse rows and column count non-exactness step (b) passes to
    `nullspace`, after checking that the whole argument passes."""
    seen = []
    real = cochains.nullspace

    def spy(rows, ncols):
        seen.append((rows, ncols))
        return real(rows, ncols)

    monkeypatch.setattr(cochains, "nullspace", spy)
    assert all_passed(verify_nonexactness(k))
    (rows, ncols), = seen
    assert ncols == k + 1
    return rows, ncols


@pytest.mark.parametrize("k", [0, 1, 5, 40])
def test_nullspace_of_the_lowering_matrix(monkeypatch, k):
    rows, ncols = _lowering_matrix(monkeypatch, k)
    assert nullspace(rows, ncols) == dense_nullspace(dense(rows, ncols), ncols)


def _rank_deficient_systems(rng, count):
    """Dense random systems with dependent rows: a random combination of
    the rows, a duplicate row and a zero row appended to a random matrix."""
    for _ in range(count):
        nrows, ncols = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        base = _random_matrix(rng, nrows, ncols, density=0.8)
        yield base + [_combine(rng, base), list(base[0]), [CR()] * ncols], ncols


def _assert_order_free(rows, ncols, rng):
    """Shuffled, reversed and duplicated rows give the identical basis."""
    want = nullspace(rows, ncols)
    variants = [rows[::-1], rows + rows, rows[::-1] + rows[: len(rows) // 2]]
    for _ in range(3):
        variants.append([rows[int(i)] for i in rng.permutation(len(rows))])
    for shuffled in variants:
        assert nullspace(shuffled, ncols) == want


def test_nullspace_is_free_of_row_order_and_duplicates():
    rng = np.random.default_rng(25)
    dims = set()
    for rows, ncols in _rank_deficient_systems(rng, 12):
        got = nullspace(sparse(rows), ncols)
        assert got == dense_nullspace(rows, ncols)
        _assert_order_free(sparse(rows), ncols, rng)
        dims.add(len(got))
    assert len(dims) > 1


@pytest.mark.parametrize("k", [0, 1, 5, 40])
def test_lowering_kernel_is_free_of_row_order_and_duplicates(monkeypatch, k):
    rows, ncols = _lowering_matrix(monkeypatch, k)
    _assert_order_free(rows, ncols, np.random.default_rng(k))


def test_nullspace_drops_explicit_zero_entries(monkeypatch):
    # every dense entry kept as an explicit zero, including a row's leftmost
    # one, gives the same basis as the same rows without them
    rng = np.random.default_rng(250)
    cases = [([[CR(), CR.of(1), CR.of(2)], [CR(), CR(), CR.of(3)]], 3)]
    cases += _rank_deficient_systems(rng, 8)
    for rows, ncols in cases:
        assert any(x.is_zero() for x in rows[0] + rows[-1])
        explicit = [dict(enumerate(row)) for row in rows]
        assert nullspace(explicit, ncols) == nullspace(sparse(rows), ncols)
    rows, ncols = _lowering_matrix(monkeypatch, 5)
    padded = [{**{c: GaussianRational() for c in range(ncols)}, **row} for row in rows]
    assert nullspace(padded, ncols) == nullspace(rows, ncols)


def test_dd_zero_on_random_equivariant():
    rng = np.random.default_rng(12)
    for k in (0, 2, 4):
        for _ in range(8):
            psi = random_equivariant_cochain(k, rng)
            assert check_equivariance(psi)
            d = differential(psi)
            assert check_equivariance(d)  # d preserves equivariance
            assert differential(d).is_zero()


def reference_differential(psi, degree, variant):
    """Reference: the wedge-by-wedge differential, (d psi)(X_i0^...^X_iq) =
    sum over t of (-1)^t X_it.psi(the wedge without X_it)."""
    out = Cochain()
    for target in basis_wedges(degree + 1):
        total = Cochain()
        for t, i in enumerate(target):
            moved = act_tensor(P_GENS[i - 1], value(psi, target[:t] + target[t + 1 :]), variant)
            total = total + (moved if t % 2 == 0 else -moved)
        out = out + placed({target: total})
    return out


def reference_equivariance(psi, degree):
    """Reference: u.(psi(w)) == sum over w2 of c psi(w2), u.w = sum c w2,
    one compact generator and one basis wedge at a time."""
    for u in L_GENS:
        for w in basis_wedges(degree):
            rhs = Cochain()
            for w2, c in wedge_action(u, w).items():
                rhs = rhs + value(psi, w2).scaled(c)
            if act_tensor(u, value(psi, w)) != rhs:
                return False
    return True


def reference_action(u, psi, degree):
    """Reference: (u.psi)(w) = u.(psi(w)) - sum over w2 of c psi(w2), u.w =
    sum c w2, one basis wedge at a time."""
    out = Cochain()
    for w in basis_wedges(degree):
        total = act_tensor(u, value(psi, w))
        for w2, c in wedge_action(u, w).items():
            total = total - value(psi, w2).scaled(c)
        out = out + placed({w: total})
    return out


def _random_cochain(k, degree, rng):
    return placed({w: random_tensor(k, rng) for w in basis_wedges(degree) if rng.random() < 0.7})


def test_single_pass_matches_wedge_by_wedge_reference():
    rng = np.random.default_rng(31)
    cases = []
    for k in (0, 1, 2):
        for degree in range(5):
            drawn = [_random_cochain(k, degree, rng) for _ in range(2)]
            cases += [(coch, degree) for coch in drawn]
            for coch, u in itertools.product(drawn, L_GENS + P_GENS):
                assert act_tensor(u, coch) == reference_action(u, coch, degree)
        chi, psi = build_chi(k), build_psi(k)
        equivariant = random_equivariant_cochain(k, rng)
        cases += [(chi, 1), (psi, 2), (build_psi0(k), 2), (equivariant, 1),
                  (differential(equivariant), 2), (Cochain(), 3)]
        # truncations: drop one term of an equivariant cochain
        for coch, degree in ((chi, 1), (psi, 2), (differential(equivariant), 2)):
            (key, coeff), = itertools.islice(coch.items(), 1)
            truncated = coch - Cochain({key: coeff})
            assert not check_equivariance(truncated)
            cases.append((truncated, degree))
    verdicts = []
    for coch, degree in cases:
        for variant in VARIANTS:
            assert differential(coch, variant) == reference_differential(coch, degree, variant)
        verdicts.append(check_equivariance(coch))
        assert verdicts[-1] == reference_equivariance(coch, degree)
    assert True in verdicts and False in verdicts
    assert all(differential(c).is_zero() for c, degree in cases if degree == 4)


def test_cochain_algebra_guards():
    a = build_psi(0)
    b = build_psi0(0)
    assert value(a + b, (3, 4)) == value(b, (3, 4))
    assert (a - a).is_zero()


def test_export_schema():
    # psi is stored as psi/sqrt(k+2) and exported times sqrt(k+2); chi and
    # psi0 are stored unitary, so a dropped or doubled scale fails here
    for k in range(4):
        payload = generators_to_dict(k)
        assert payload["k"] == k and list(payload["generators"]) == ["chi", "psi", "psi0"]
        chi_dict, psi_dict, psi0_dict = payload["generators"].values()
        assert psi_dict["hodge_type"] == [1, 1]
        assert len(psi_dict["entries"]) == 4
        assert psi0_dict["hodge_type"] == [0, 2]
        assert len(psi0_dict["entries"]) == 1
        assert chi_dict["hodge_type"] is None
        assert chi_dict["degree"] == 1
        # terms are sorted by (j2, m1_2, monomial)
        for entry in psi_dict["entries"]:
            keys = [
                (t["index"]["j2"], t["index"]["m1_2"], tuple(t["monomial"]))
                for t in entry["terms"]
            ]
            assert keys == sorted(keys)
        for name, build, mu_sq in (("chi", build_chi, 1), ("psi", build_psi, k + 2),
                                   ("psi0", build_psi0, 1)):
            exported = {
                (tuple(entry["wedge"]), tuple(t["index"].values()), tuple(t["monomial"])):
                    CR.from_dict(t["coeff"])
                for entry in payload["generators"][name]["entries"] for t in entry["terms"]
            }
            want = {(w, tuple(idx), tuple(mono)): unitary_coord(c, idx, mu_sq)
                    for (w, idx, mono), c in build(k).items()}
            assert exported == want, (name, k)
