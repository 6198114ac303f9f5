"""The exact engine in the rescaled basis W'_idx = W_idx / a(idx).

Three kinds of checks:

* the rescaled operator table and cochain coordinates against their unitary
  square-root forms in `unitary_table`, exactly;
* the module relations act(a)act(b) - act(b)act(a) = act([a, b]) for all 28
  pairs of the eight generators on every basis vector with j <= 2, with the
  bracket taken exactly from the 3x3 matrices.  They hold for `plus1`, fail
  for `plus2`, catch a sign flip of each of the eight rows of
  `wigner.P_ROWS`, and catch the four single-row mutants of the X1 and X2
  tables that the cocycle identities cannot see (those rows only act on
  K-types with m2 < j, which no equivariant cochain reaches);
* the theorem re-proved from the bytes of `export-generators`, read back as
  unitary cochains and acted on by the unitary rows of `unitary_table`.
"""

import itertools
import json
import math
from fractions import Fraction

import pytest

from conftest import monomial_basis, tensor_term, value
from su21coh import cochains, wigner
from su21coh.cli import main
from su21coh.cochains import (
    Cochain,
    act_tensor,
    basis_wedges,
    build_chi,
    build_psi,
    build_psi0,
    check_equivariance,
    chi3_element,
    differential,
    verify_closedness,
    verify_nonexactness,
)
from su21coh.lie import (
    L_GENS,
    P_GENS,
    LieGen,
    bracket,
    coords,
    gen_matrix,
    wedge_action,
)
from su21coh.polynomials import Monomial, monomial_xy
from su21coh.report import all_passed
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


def relation_failures(variant="plus1", j_max=2, ks=(0, 1)) -> int:
    """Number of (pair, basis vector) cells where
    act(a)act(b) - act(b)act(a) != act([a, b])."""
    brackets = {
        (a, b): coords(bracket(gen_matrix(a), gen_matrix(b)))
        for a, b in itertools.combinations(GENS, 2)
    }
    assert len(brackets) == 28
    failures = 0
    for k in ks:
        for idx in admissible_indices(k, j_max):
            for mono in monomial_basis(k):
                t = tensor_term(idx, mono)
                once = {g: act_tensor(g, t, variant) for g in GENS}
                for (a, b), dec in brackets.items():
                    lhs = act_tensor(a, once[b], variant) - act_tensor(b, once[a], variant)
                    rhs = Cochain()
                    for g, c in dec.items():
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


def _mutant(gen):
    """act_p_index with the linear factor of the first row of gen's table
    raised by 2."""

    def mutated(g, idx, variant="plus1"):
        out = act_p_index(g, idx, variant)
        if g is not gen:
            return out
        first = [(t, c) for t, c in out if t.j2 < idx.j2]
        assert first == _first_row(gen, idx)
        rest = [(t, c) for t, c in out if t.j2 > idx.j2]
        return _first_row(gen, idx, 2) + rest

    return mutated


def _theorem_passes() -> bool:
    return all(all_passed(verify_closedness(k) + verify_nonexactness(k)) for k in range(4))


# failing cells at j <= 1, k = 0 with the sign of (row 0, row 1) flipped
SIGN_FLIP_FAILURES = {
    LieGen.X1: (34, 23),
    LieGen.X2: (34, 23),
    LieGen.X3: (15, 54),
    LieGen.X4: (15, 54),
}


@pytest.mark.parametrize(
    "change, gen",
    [("sign", gen) for gen in P_GENS] + [("lin", LieGen.X1), ("lin", LieGen.X2)],
    ids=lambda v: v if isinstance(v, str) else v.name,
)
def test_module_relations_catch_the_blind_spot_mutants(change, gen, monkeypatch):
    if change == "lin":
        monkeypatch.setattr(cochains, "act_p_index", _mutant(gen))
        assert relation_failures("plus1") > 0
        return
    # a sign flip is a data edit of P_ROWS; the cocycle identities miss
    # exactly the flips of the j - 1/2 rows of X1 and X2
    rows = wigner.P_ROWS[gen]
    for r, expected in enumerate(SIGN_FLIP_FAILURES[gen]):
        flipped = tuple((-row[0], *row[1:]) if i == r else row for i, row in enumerate(rows))
        monkeypatch.setitem(wigner.P_ROWS, gen, flipped)
        assert relation_failures("plus1", j_max=1, ks=(0,)) == expected > 0
        assert _theorem_passes() == (gen in (LieGen.X1, LieGen.X2) and r == 0)


def _cochain(generator: dict) -> Cochain:
    """One exported generator, as the unitary cochain it writes."""
    return Cochain({
        (tuple(entry["wedge"]),
         WignerIndex(*(t["index"][f] for f in ("j2", "n2", "m1_2", "m2_2"))),
         Monomial(*t["monomial"])): ComplexRadical.from_dict(t["coeff"])
        for entry in generator["entries"] for t in entry["terms"]
    })


def _unitary_theorem(k, chi, psi, psi0, variant="plus1") -> dict[str, bool]:
    """The closedness identities on unitary cochains; the caller has bound
    the engine's index actions to the unitary rows."""
    return {
        "d(chi)": differential(chi, variant)
        == psi.scaled(ComplexRadical.sqrt(Fraction(1, k + 2))) + psi0,
        "d(psi)": differential(psi, variant).is_zero(),
        "d(psi0)": differential(psi0, variant).is_zero(),
        "equivariance": all(check_equivariance(c) for c in (chi, psi, psi0)),
    }


def _unitary_rows(monkeypatch):
    """Bind the engine's index actions to the literal unitary rows."""
    monkeypatch.setattr(cochains, "act_l_index", unitary_table.act_l_index)
    monkeypatch.setattr(cochains, "act_p_index", unitary_table.act_p_index)


def _exported(k, tmp_path) -> tuple[Cochain, Cochain, Cochain]:
    """chi, psi and psi0 read back from the bytes `export-generators` writes."""
    path = tmp_path / f"gen{k}.json"
    assert main(["export-generators", "--k", str(k), "--out", str(path)]) == 0
    gens = json.loads(path.read_text())["generators"]
    return tuple(_cochain(gens[name]) for name in ("chi", "psi", "psi0"))


def test_export_reproves_the_theorem_in_the_unitary_basis(tmp_path, monkeypatch):
    """d(chi) = psi/sqrt(k+2) + psi0, d(psi) = d(psi0) = 0 and equivariance,
    on the exported cochains with the literal unitary rows.

    Shared with the engine: `_act_into` (through `differential` and
    `act_tensor`), `differential`'s wedge and bracket rules, `act_poly` and
    the diagonal `weight`.  Not shared: the rescaled table, `scale_sq` and
    the export's scale, which the bytes carry already applied.  Every export
    is written before the rows are rebound: `build_chi` acts through the same
    globals, and unitary rows on rescaled data would fail every k >= 1."""
    ks = list(range(11)) + [20]
    exports = {k: _exported(k, tmp_path) for k in ks}
    with monkeypatch.context() as m:
        _unitary_rows(m)
        for k in ks:
            checks = _unitary_theorem(k, *exports[k])
            assert all(checks.values()), (k, checks)


def test_export_reproof_fails_its_controls(tmp_path, monkeypatch):
    # each control fails exactly the checks it should, at k = 3
    k = 3
    chi, psi, psi0 = _exported(k, tmp_path)
    (chi_key, chi_c), *chi_rest = chi.items()
    (psi_key, psi_c), *psi_rest = psi.items()
    controls = {  # name: (cochains, variant, the checks that must fail)
        "plus2 rows": ((chi, psi, psi0), "plus2", {"d(chi)", "d(psi)"}),
        "psi at mu_sq = k + 3": (
            (chi, _cochain(cochains.cochain_to_dict(build_psi(k), k + 3)), psi0), "plus1",
            {"d(chi)"}),
        "chi coefficient + 1": ((Cochain({chi_key: chi_c + 1, **dict(chi_rest)}), psi, psi0),
                                "plus1", {"d(chi)", "equivariance"}),
        "psi coefficient negated": ((chi, Cochain({psi_key: -psi_c, **dict(psi_rest)}), psi0),
                                    "plus1", {"d(chi)", "d(psi)", "equivariance"}),
    }
    with monkeypatch.context() as m:
        _unitary_rows(m)
        for name, (cochains_k, variant, failing) in controls.items():
            checks = _unitary_theorem(k, *cochains_k, variant)
            assert {c for c, ok in checks.items() if not ok} == failing, name
