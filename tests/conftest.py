"""Shared random-object builders for the property suites.

Everything is driven by numpy Generators seeded in the tests, so failures
reproduce exactly.
"""

from fractions import Fraction
from functools import lru_cache

from su21coh.cochains import Cochain, act_tensor, nullspace
from su21coh.lie import LieGen, gen_matrix
from su21coh.polynomials import Monomial, PolyVector, act_poly
from su21coh.scalars import ComplexRadical, GaussianRational
from su21coh.wigner import WignerIndex, admissible, admissible_indices, module_index

# Squarefree radicands <= 50 (1 = rational part).
SQUAREFREE_POOL = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 21, 22, 26, 30, 33, 35, 38, 42, 46]

I = ComplexRadical.of(GaussianRational(0, 1))


def random_fraction(rng, bound=10**6) -> Fraction:
    num = int(rng.integers(-bound, bound + 1))
    den = int(rng.integers(1, bound + 1))
    return Fraction(num, den)


def random_radical(rng, max_terms=3, bound=10**6) -> ComplexRadical:
    n_terms = int(rng.integers(0, max_terms + 1))
    picks = rng.choice(len(SQUAREFREE_POOL), size=n_terms, replace=False)
    terms = {}
    for p in picks:
        terms[SQUAREFREE_POOL[int(p)]] = random_fraction(rng, bound)
    return ComplexRadical(terms)


def random_complex_radical(rng, max_terms=2, bound=1000) -> ComplexRadical:
    re = random_radical(rng, max_terms, bound)
    return re + random_radical(rng, max_terms, bound) * I


def psi0_tilde_index(k: int, l: int) -> WignerIndex:
    """Companion of `wigner.psi0_index` with j shifted up by one, met in the
    X3 image of the chi family; l in {0, ..., k+1}."""
    if not 0 <= l <= k + 1:
        raise ValueError(f"l={l} outside [0, {k + 1}]")
    return module_index(k, k + 2, -k + 2 * l, k)


def tensor_term(idx: WignerIndex, mono: Monomial, coeff=1) -> Cochain:
    """One basis vector of the module, as a 0-cochain."""
    return Cochain({((), idx, mono): coeff})


def value(psi: Cochain, w: tuple) -> Cochain:
    """The value of psi on the basis wedge w, as a 0-cochain."""
    return Cochain([(((), idx, mono), c) for (w2, idx, mono), c in psi.items() if w2 == w])


def placed(values: dict) -> Cochain:
    """The cochain taking each wedge w to the 0-cochain values[w]."""
    return Cochain([((w, idx, mono), c) for w, v in values.items()
                    for (_, idx, mono), c in v.items()])


def random_tensor(k: int, rng, j_max=Fraction(5, 2), max_terms=3) -> Cochain:
    """A 0-cochain: a few admissible (index, degree-k monomial) terms with
    small Gaussian integer coefficients."""
    keys = [((), idx, mono) for idx in admissible_indices(k, j_max) for mono in monomial_basis(k)]
    n_terms = int(rng.integers(1, max_terms + 1))
    picks = rng.choice(len(keys), size=min(n_terms, len(keys)), replace=False)
    return Cochain(
        [
            (
                keys[int(p)],
                ComplexRadical.of(int(rng.integers(-5, 6)))
                + int(rng.integers(-5, 6)) * I,
            )
            for p in picks
        ]
    )


def monomial_basis(k: int) -> list[Monomial]:
    """All degree-k monomials, lexicographic in (a, b)."""
    return [Monomial(a, b, k - a - b) for a in range(k + 1) for b in range(k - a + 1)]


def act_poly_gen(gen: LieGen, p: PolyVector) -> PolyVector:
    return act_poly(gen_matrix(gen), p)


def act_tensor_seq(gens, t: Cochain) -> Cochain:
    """Apply generators right-to-left: gens = (a, b) computes a.(b.t)."""
    for gen in reversed(tuple(gens)):
        t = act_tensor(gen, t)
    return t


# ---------------------------------------------------------------------------
# Randomized equivariant 1-cochains (for the d.d = 0 property suite).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _seed_kernel(k: int, side: str, jmax2: int):
    """Exact basis of the space of admissible "seed" vectors for one half of
    an equivariant 1-cochain.

    side="lower": value on X3; weights (-3/2, -1/2), annihilated by the
    lowering operator and by the square of the raising operator.
    side="upper": value on X1; weights (+3/2, +1/2), with the roles of
    raising and lowering exchanged.
    """
    if side == "lower":
        u0w2, u3w2 = -3, -1
        kill = LieGen.U1_MINUS_IU2
        kill_sq = LieGen.U1_PLUS_IU2
    else:
        u0w2, u3w2 = 3, 1
        kill = LieGen.U1_PLUS_IU2
        kill_sq = LieGen.U1_MINUS_IU2

    keys = []
    for mono in monomial_basis(k):
        a, b, c = mono
        n2 = u0w2 - (a + b - 2 * c)
        m12 = u3w2 - (a - b)
        if (n2 + 4 * k + 6) % 3:
            continue
        m22 = (n2 + 4 * k + 6) // 3
        if (m12 - m22) % 2:
            continue
        j2 = max(abs(m12), abs(m22))
        if (j2 - m12) % 2:
            j2 += 1
        while j2 <= jmax2:
            idx = WignerIndex(j2, n2, m12, m22)
            if admissible(idx, k):
                keys.append(((), idx, mono))
            j2 += 2
    if not keys:
        return (), ()

    constraints = []
    for key in keys:
        unit = Cochain({key: ComplexRadical.of(1)})
        constraints.append(
            (
                act_tensor(kill, unit),
                act_tensor_seq((kill_sq, kill_sq), unit),
            )
        )
    rows = []
    for pos in (0, 1):
        by_key: dict = {}
        for col, cons in enumerate(constraints):
            for rk, x in cons[pos].items():
                by_key.setdefault(rk, {})[col] = x
        rows.extend(by_key.values())
    return tuple(keys), tuple(tuple(v) for v in nullspace(rows, len(keys)))


def random_equivariant_cochain(k: int, rng, jmax2: int | None = None) -> Cochain:
    """Draw a random compact-equivariant 1-cochain with exact coefficients.

    Seeds for the values on X3 and X1 are sampled from the exact kernels of
    the weight/annihilation constraints; the values on X4 and X2 are the
    determined raised/lowered partners.
    """
    if jmax2 is None:
        jmax2 = k + 3

    def draw(side):
        keys, kernel = _seed_kernel(k, side, jmax2)
        vec = Cochain()
        for basis_vec in kernel:
            re, im = rng.integers(-3, 4), rng.integers(-3, 4)
            coeff = ComplexRadical.of(int(re)) + int(im) * I
            if coeff.is_zero():
                continue
            vec = vec + Cochain(
                [(key, c * coeff) for key, c in zip(keys, basis_vec)]
            )
        return vec

    v3 = draw("lower")
    w1 = draw("upper")
    v4 = act_tensor(LieGen.U1_PLUS_IU2, v3).scaled(I)
    w2 = act_tensor(LieGen.U1_MINUS_IU2, w1).scaled(-I)
    return placed({(1,): w1, (2,): w2, (3,): v3, (4,): v4})
