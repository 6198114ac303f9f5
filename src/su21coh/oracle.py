"""Floating-point oracle for the exact operator formulas.

Evaluates the matrix-coefficient functions on the compact group through
Euler angles and Jacobi-type sums, extends them to the whole group by
numerical Iwasawa decomposition, and validates the exact raising/lowering
operators by central finite differences: the exact tables of `wigner`,
given in its rescaled basis, are converted back to unitary coefficients as
floats, so every coefficient the exact engine uses is checked here.  It
also checks orthogonality under the normalized invariant measure with one
Gram matrix: each function is a product of one factor per angle, so by
Fubini its product-grid quadrature is a product of one-axis sums.

The numeric routines work on stacks: Euler coordinates may be arrays of any
(broadcastable) shape, and group elements are stacks (..., 3, 3).  A single
point is a one-point stack; a lone (3, 3) matrix gives numpy scalars or
0-d arrays, and float coordinates give `eval_wigner` one value per index.
`eval_wigner` and `quadrature_ip` take one sequence of indices (one index
is a one-element sequence), so a finite-difference sweep evaluates the
stencils of all its generators, one point set, with one call per window,
and the orthogonality check reads one Gram matrix.  `expm` does not scale:
every point and stencil step has 1-norm <= sqrt(3) < theta_13.

Everything here is deliberately independent of the exact engine: the only
shared input is the list of generator matrices, which are read off from the
exact module and converted to machine numbers.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import lie
from .lie import L_GENS, P_GENS, LieGen
from .report import CheckResult, Tripwire, all_passed
from .wigner import (
    DEFAULT_VARIANT,
    VARIANTS,
    WignerIndex,
    act_l_index,
    act_p_index,
    admissible,
    admissible_indices,
    scale_sq,
)

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
# residual bound of the membership and decomposition checks
TOL = 1e-8


# Numeric copies of the exact structural matrices.
J_DIAG_NP = lie.J_DIAG.to_numpy()
GAMMA_NP = lie.GAMMA.to_numpy()
_G_REAL_BASIS = [m.to_numpy() for m in lie.U_REAL_BASIS + lie.Y_BASIS]


@dataclass(frozen=True)
class EulerAngles:
    """Coordinates on U(2): zeta in R, phi in (-pi, pi], theta in [0, pi],
    psi in (-pi, 3pi].  Each field is a float, or an array when the
    coordinates describe a batch of points (the four broadcast together).

    A point set memoizes (see `row`) the pieces `eval_wigner` derives from
    its coordinates, so its coordinates must not be mutated after its first
    evaluation."""

    zeta: float | np.ndarray
    phi: float | np.ndarray
    theta: float | np.ndarray
    psi: float | np.ndarray
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def row(self, key: tuple, make) -> np.ndarray:
        """The piece of W named by key over the point set: make(), computed
        once per point set, when a call first asks for it.  The keys are
        ("zeta", n2), ("psi", m12), ("phi", m22), ("profile", j2, m12, m22),
        ("sin", es) and ("cos", ec)."""
        if key not in self._rows:
            self._rows[key] = make()
        return self._rows[key]


@dataclass(frozen=True)
class IwasawaFactors:
    """g = kappa * (a n)^gamma; for a stack of g every field is stacked."""

    kappa: np.ndarray  # compact factor, block shape diag(U, det(U)^-1)
    r: float | np.ndarray  # split-torus coordinate, > 0
    nu: complex | np.ndarray  # unipotent coordinate
    s: float | np.ndarray  # imaginary part of the corner entry


def _first_bad(bad: np.ndarray) -> tuple[tuple, str]:
    """Index of the first flagged point of a stack, and an error-message
    suffix naming it (empty for a single matrix)."""
    i = tuple(int(x) for x in np.argwhere(bad)[0])
    return i, f" at point {i}" if i else ""


def k_from_angles(e: EulerAngles) -> np.ndarray:
    """The compact-group elements diag(U, det(U)^-1) (..., 3, 3), U the 2x2
    unitary with the given Euler coordinates."""
    zeta, phi, theta, psi = np.broadcast_arrays(e.zeta, e.phi, e.theta, e.psi)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    z = np.exp(-0.5j * zeta)
    out = np.zeros(zeta.shape + (3, 3), dtype=complex)
    u = out[..., :2, :2]
    u[..., 0, 0] = z * np.exp(-0.5j * (phi + psi)) * c
    u[..., 0, 1] = -z * np.exp(0.5j * (phi - psi)) * s
    u[..., 1, 0] = z * np.exp(0.5j * (psi - phi)) * s
    u[..., 1, 1] = z * np.exp(0.5j * (phi + psi)) * c
    out[..., 2, 2] = 1.0 / (u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0])
    return out


def membership_residual(g: np.ndarray):
    """Distance from the defining equations: conj(g)^T J g = J, det g = 1
    (one value per matrix of a stack)."""
    g = np.asarray(g, dtype=complex)
    form = np.swapaxes(g.conj(), -1, -2) @ J_DIAG_NP @ g - J_DIAG_NP
    return np.maximum(np.abs(form).max(axis=(-2, -1)), np.abs(np.linalg.det(g) - 1.0))


# ---------------------------------------------------------------------------
# Matrix-coefficient evaluation.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _theta_terms(j2: int, m12: int, m22: int) -> tuple[tuple[float, int, int], ...]:
    """Expansion of the theta-profile of a matrix coefficient as
    sum_s coef * sin(theta/2)^es * cos(theta/2)^ec.

    This regroups prefactor * sin^(m1-m2) * cos^(m1+m2) * P_(j-m1)(cos theta)
    into a form with nonnegative exponents only, so the poles of the literal
    formula at theta in {0, pi} never materialize.
    """
    jp, jm = (j2 + m12) // 2, (j2 - m12) // 2
    kp, km = (j2 + m22) // 2, (j2 - m22) // 2
    pre = math.exp(
        0.5
        * (
            math.lgamma(jp + 1)
            + math.lgamma(jm + 1)
            - math.lgamma(kp + 1)
            - math.lgamma(km + 1)
        )
    )
    dm, dp = (m12 - m22) // 2, (m12 + m22) // 2
    c = jm  # polynomial degree j - m1
    terms = []
    for s in range(max(0, c - km), min(c, kp) + 1):
        coef = math.comb(km, c - s) * math.comb(kp, s)
        es, ec = 2 * s + dm, 2 * (c - s) + dp
        terms.append((pre * coef * (-1) ** s, es, ec))
    return tuple(terms)


def eval_wigner(indices: Sequence[WignerIndex], e: EulerAngles) -> np.ndarray:
    """Values of the matrix-coefficient functions named by a sequence of
    indices at the given Euler coordinates: one (index, *points) array, each
    row one index's values in the broadcast shape of the coordinates.

    W is the product of one factor per angle (`_factors`), so on a product
    grid (coordinates broadcast along different axes) each exponential is
    taken on its own axis only.  Each factor's rows are read from the point
    set's memo, where every piece is computed once per point set: powers of
    sin and cos of theta/2, the theta profile per (j, m1, m2) and each
    angle's exponential per frequency; the four stacks are then multiplied
    zeta * psi * phi * theta, left to right.  At a lone point (float
    coordinates) every row is a numpy scalar, so the result is one value
    per index.
    """
    points = np.broadcast_shapes(*map(np.shape, (e.zeta, e.phi, e.theta, e.psi)))
    if not indices:
        return np.empty((0,) + points, dtype=complex)
    # Array products may round with FMA, so a complex product depends on its
    # operand order: np.multiply, never *, since numpy may reuse a large
    # temporary operand of * as the output with the operands swapped.
    factors = _factors(indices, e)
    out = np.multiply(next(factors), next(factors))
    out = np.multiply(out, next(factors))
    return np.multiply(out, next(factors))


def _factors(indices: Sequence[WignerIndex], e: EulerAngles):
    """The stacks (index, ...) of the zeta, psi and phi exponentials and of
    the theta profile of the indices, gathered one after another, so a
    caller need hold one gathered stack at a time."""
    for idx in indices:
        if not idx.structurally_valid():
            raise ValueError(f"invalid index {idx}")
    yield np.array([_phase(e, "zeta", idx.n2) for idx in indices])
    yield np.array([_phase(e, "psi", idx.m12) for idx in indices])
    yield np.array([_phase(e, "phi", idx.m22) for idx in indices])
    yield np.array([e.row(("profile", idx.j2, idx.m12, idx.m22),
                          lambda: _profile(e, idx.j2, idx.m12, idx.m22)) for idx in indices])


def _profile(e: EulerAngles, j2: int, m12: int, m22: int):
    """The theta profile sum_s coef * sin(theta/2)^es * cos(theta/2)^ec."""
    return sum(c * e.row(("sin", es), lambda: np.sin(e.theta / 2) ** es)
               * e.row(("cos", ec), lambda: np.cos(e.theta / 2) ** ec)
               for c, es, ec in _theta_terms(j2, m12, m22))


def _phase(e: EulerAngles, angle: str, freq2: int):
    """exp(i/2 * freq2 * angle) over the point set."""
    return e.row((angle, freq2), lambda: np.exp(0.5j * freq2 * getattr(e, angle)))


def wigner_matrix(j2: int, n2: int, e: EulerAngles) -> np.ndarray:
    """Matrix of coefficient values over m1 (rows) and m2 (columns); for
    array coordinates a stack (..., 2j+1, 2j+1)."""
    ms = range(-j2, j2 + 1, 2)
    vals = eval_wigner([WignerIndex(j2, n2, m12, m22) for m12 in ms for m22 in ms], e)
    return np.moveaxis(vals.reshape((len(ms), len(ms)) + vals.shape[1:]), (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# Euler coordinates from a compact element.
# ---------------------------------------------------------------------------


def euler_from_k(kappa: np.ndarray) -> EulerAngles:
    """Invert the Euler parametrization on the compact subgroup, for one
    matrix or a stack; every matrix must pass the block-shape check.

    Convention at the degenerate angles theta in {0, pi}: phi is set to 0 and
    psi absorbs the free phase.
    """
    kappa = np.asarray(kappa, dtype=complex)
    off = np.abs(kappa[..., [0, 1, 2, 2], [2, 2, 0, 1]]).max(axis=-1)
    u = kappa[..., :2, :2]
    unit = np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(2)).max(axis=(-2, -1))
    bad = ~((off <= TOL) & (unit <= TOL) & (np.abs(np.linalg.det(kappa) - 1.0) <= TOL))
    if bad.any():
        i, where = _first_bad(bad)
        raise ValueError(f"not in the compact subgroup{where} (residual {max(off[i], unit[i]):.2e})")
    det_u = u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0]
    zeta = -np.angle(det_u)
    rot = np.exp(0.5j * zeta)
    top, bottom = rot * u[..., 0, 0], rot * u[..., 1, 0]
    c_abs, s_abs = np.abs(top), np.abs(bottom)
    theta = 2.0 * np.arctan2(s_abs, c_abs)
    a, b = np.angle(top), np.angle(bottom)
    phi0, psi0 = -a - b, b - a
    # shift phi into (-pi, pi]; psi must shift by the same multiple of 2*pi
    m = np.floor((math.pi - phi0) / TWO_PI)
    theta_zero, theta_pi = s_abs < 1e-13, c_abs < 1e-13
    degenerate = theta_zero | theta_pi
    phi = np.where(degenerate, 0.0, phi0 + TWO_PI * m)
    psi = np.where(theta_zero, -2.0 * a, np.where(theta_pi, 2.0 * b, psi0 + TWO_PI * m))
    psi = (psi + math.pi) % FOUR_PI - math.pi  # back into the 4*pi period of psi
    return EulerAngles(zeta, phi, theta, psi)


# ---------------------------------------------------------------------------
# Iwasawa decomposition.
# ---------------------------------------------------------------------------


def a_matrix(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape + (3, 3), dtype=complex)
    out[..., 0, 0], out[..., 1, 1], out[..., 2, 2] = r, 1.0, 1.0 / r
    return out


def n_matrix(nu, s) -> np.ndarray:
    """Unipotent factor in the antidiagonal model.  Preservation of the form
    forces the (1,2) entry to be -conj(nu) and the real part of the corner
    to be -|nu|^2/2."""
    nu, s = np.broadcast_arrays(np.asarray(nu, dtype=complex), np.asarray(s, dtype=float))
    out = np.zeros(nu.shape + (3, 3), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = out[..., 2, 2] = 1.0
    out[..., 0, 1] = -np.conj(nu)
    out[..., 0, 2] = -np.abs(nu) ** 2 / 2.0 + 1j * s
    out[..., 1, 2] = nu
    return out


def m_matrix(t) -> np.ndarray:
    """Compact-torus elements diag(e^(it), e^(-2it), e^(it)), fixed by the
    basis-change involution."""
    return np.exp(1j * np.multiply.outer(t, [1.0, -2.0, 1.0]))[..., None] * np.eye(3)


def an_gamma(r, nu, s) -> np.ndarray:
    """The Borel factor transported to the diagonal model."""
    return GAMMA_NP @ (a_matrix(r) @ n_matrix(nu, s)) @ GAMMA_NP


def iwasawa(g: np.ndarray) -> IwasawaFactors:
    """Factor g = kappa * (a n)^gamma with kappa compact, for one matrix or
    a stack; every matrix must pass every check to within TOL.

    Transport to the antidiagonal model (where the Borel is upper
    triangular) and QR-factorize there with numpy; the phases of the
    diagonal of R move into Q, so R has a positive real diagonal.  The
    unitary factor is transported back.  The triangular factor of a group
    element has diagonal (r, 1, 1/r) and a consistent unipotent part;
    anything else is a Tripwire.
    """
    g = np.asarray(g, dtype=complex)
    resid = membership_residual(g)
    bad = ~(resid <= TOL)
    if bad.any():
        i, where = _first_bad(bad)
        raise ValueError(f"membership residual{where} {resid[i]:.2e} > {TOL}")
    q, rr = np.linalg.qr(GAMMA_NP @ g @ GAMMA_NP)
    d = np.diagonal(rr, axis1=-2, axis2=-1)
    phase = d / np.abs(d)
    q, rr = q * phase[..., None, :], rr * phase.conj()[..., :, None]
    r = rr[..., 0, 0].real
    bad = ~((np.abs(rr[..., 1, 1] - 1.0) <= TOL) & (np.abs(rr[..., 2, 2] - 1.0 / r) <= TOL))
    if bad.any():
        i, where = _first_bad(bad)
        diag = np.diagonal(rr, axis1=-2, axis2=-1)[i]
        raise Tripwire(f"triangular diagonal{where} {diag} not (r, 1, 1/r)")
    nu = rr[..., 1, 2]
    xi = rr[..., 0, 2] / r
    bad = ~(
        (np.abs(rr[..., 0, 1] / r + np.conj(nu)) <= TOL)
        & (np.abs(xi.real + np.abs(nu) ** 2 / 2) <= TOL)
    )
    if bad.any():
        raise Tripwire(f"unipotent factor{_first_bad(bad)[1]} fails its consistency relations")
    kappa = GAMMA_NP @ q @ GAMMA_NP
    return IwasawaFactors(kappa=kappa, r=r, nu=nu, s=xi.imag)


def _decompose_for_eval(g: np.ndarray) -> tuple[EulerAngles, np.ndarray]:
    """Euler coordinates of the compact Iwasawa factor of g, and r^(-3)."""
    fac = iwasawa(g)
    return euler_from_k(fac.kappa), fac.r ** (-3)


def eval_sections(k: int, indices, g: np.ndarray) -> np.ndarray:
    """(index, point) array of the sections r^(-3) * W_idx(kappa(g)): the
    compact matrix coefficients extended to the whole group through the
    Iwasawa decomposition, where the Borel factor contributes r^(-3) and the
    unipotent part nothing.  g is decomposed once for all the indices."""
    indices = list(indices)
    for idx in indices:
        if not admissible(idx, k):
            raise ValueError(f"{idx} not admissible for k={k}")
    angles, rm3 = _decompose_for_eval(g)
    values = eval_wigner(indices, angles)
    values *= rm3
    return values


# ---------------------------------------------------------------------------
# Matrix exponential.
# ---------------------------------------------------------------------------

# Coefficients b_0..b_13 of the [13/13] Pade approximant to exp, and the
# 1-norm bound theta_13 up to which it is accurate to double precision
# without scaling (Higham, SIAM J. Matrix Anal. Appl. 26 (2005), Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA_13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of one matrix or a stack (..., n, n) by the
    [13/13] Pade approximant (Higham 2005, Algorithm 2.3, with no scaling):
    ValueError if a matrix exceeds theta_13 in 1-norm.  Callers exponentiate
    points of norm <= 1 and stencil steps, all of 1-norm <= sqrt(3)."""
    a = np.asarray(a)
    shape = a.shape
    a = a.reshape((-1,) + shape[-2:]).astype(np.result_type(a.dtype, float))
    norm = np.abs(a).sum(axis=-2).max(initial=0.0)
    if norm > _THETA_13:
        raise ValueError(f"1-norm {norm:.3g} exceeds theta_13 = {_THETA_13:.6g}")
    b, eye = _PADE13, np.eye(shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    return np.linalg.solve(v - u, v + u).reshape(shape)


# ---------------------------------------------------------------------------
# Finite differences.
# ---------------------------------------------------------------------------


def real_imag_parts(gen: LieGen) -> tuple[np.ndarray, np.ndarray | None]:
    """Split a generator's matrix X = A + i*B with A, B in the real form; B
    is None when X lies in the real form."""
    x = lie.gen_matrix(gen).to_numpy()
    cx = -(J_DIAG_NP @ x.conj().T @ J_DIAG_NP)  # conjugation fixing the real form
    a = (x + cx) / 2
    b = (x - cx) / 2j
    if np.abs(b).max() < 1e-15:
        return a, None
    return a, b


def _fd_steps(gen: LieGen) -> tuple[np.ndarray, np.ndarray]:
    """Left translations (P, 3, 3) and complex weights (P,) of a central
    difference with step h = 1e-3 and one Richardson step along gen's matrix
    x = A + iB: d/dt f(exp(-t x) g) at 0 is about sum_i w_i f(steps_i g),
    the two real directions A and B combined linearly."""
    h = 1e-3
    ts, ws = [], []
    for hh, rw in ((h, -1.0 / 3.0), (h / 2, 4.0 / 3.0)):
        ts += [-hh, hh]
        ws += [rw / (2 * hh), -rw / (2 * hh)]
    parts = [(d, w) for d, w in zip(real_imag_parts(gen), (1.0, 1j)) if d is not None]
    steps = [expm(np.multiply.outer(ts, direction)) for direction, _ in parts]
    return np.concatenate(steps), np.concatenate([w * np.array(ws) for _, w in parts])


def _draw_coords(rng: random.Random) -> list[float]:
    """The 8 real-form coordinates of one random point, uniform in [-1, 1]."""
    return [rng.uniform(-1.0, 1.0) for _ in range(8)]


def _exp_points(coords) -> np.ndarray:
    """Stack of the points exp(z), one per row of 8 real-form coordinates,
    z scaled down to norm <= 1, by one stacked `expm` call."""
    coeffs = np.array(coords, dtype=float).reshape(-1, 8)
    z = sum(c[:, None, None] * b for c, b in zip(coeffs.T, _G_REAL_BASIS))
    nrm = np.sqrt((np.abs(z) ** 2).sum(axis=(-2, -1)))
    return expm(z / np.maximum(nrm, 1.0)[:, None, None])


def random_group_points(rng: random.Random, count: int) -> np.ndarray:
    """Stack of `count` points exp(z), z pseudo-random in the real form with
    norm <= 1.  The 8 coordinates of each z are drawn from rng, point after
    point, so a smaller count gives a prefix of the same points."""
    return _exp_points([_draw_coords(rng) for _ in range(count)])


# ---------------------------------------------------------------------------
# Operator validation sweeps.
# ---------------------------------------------------------------------------


def _within(name: str, err: float, tol: float, **params) -> CheckResult:
    """A check that passes when its error is at most tol."""
    return CheckResult(name=name, passed=err <= tol, max_err=err, tol=tol, params=params)


@lru_cache(maxsize=None)
def _scale(idx: WignerIndex) -> tuple[float, int]:
    """a(idx) = m * 2**e as (m, e), 1/2 < m < 2 within an ulp of the root of
    `wigner.scale_sq`: no factorial overflows a float at large j."""
    sq = scale_sq(idx)
    e = (sq.numerator.bit_length() - sq.denominator.bit_length()) // 2
    return math.sqrt(sq / Fraction(4) ** e), e


def _scale_ratio(idx: WignerIndex, tgt: WignerIndex) -> float:
    """a(idx)/a(tgt), within a few ulps."""
    (m, e), (mt, et) = _scale(idx), _scale(tgt)
    return math.ldexp(m / mt, e - et)


def _fd_sweep(ks, j_max, tol, variants, base, stencil) -> dict[str, list[CheckResult]]:
    """Compare the exact operator prediction under each variant against
    finite differences for every k in ks, every admissible index with
    j <= j_max and every generator of the decomposed stencil.  Per variant,
    one result row per (k, generator, index) with the max relative error
    over the points; a k with no index gives a single failing row.

    Per k, the stencil point set is evaluated with one `eval_wigner` call
    per window of indices, at most FD_STACK_SIZE values, and each
    generator's finite differences are read off its column block; they do
    not depend on the variant, so they serve every variant.  Every image
    target of k is evaluated at the base points with one call.  The
    predictions sum each index's image terms in image order, so every row
    equals that of a per-index loop bit for bit."""
    angles, blocks = stencil
    size = max(1, FD_STACK_SIZE // np.size(angles.theta))
    results = {variant: [] for variant in variants}
    for k in ks:
        indices = list(admissible_indices(k, j_max))
        if not indices:
            for rows in results.values():
                rows.append(CheckResult(
                    name=f"fd[k={k}] admissible indices with j <= {j_max}",
                    passed=False,
                    detail="empty sweep: no index to compare",
                    params={"k": k},
                ))
            continue
        fds = [[] for _ in blocks]
        for start in range(0, len(indices), size):
            values = eval_wigner(indices[start:start + size], angles)
            for fd, (_, cols, weights) in zip(fds, blocks):
                fd.append(np.multiply(weights, values[..., cols]).sum(axis=-1))
        fds = [np.concatenate(fd) for fd in fds]
        terms = {(gen, variant): _image_terms(gen, indices, variant)
                 for gen, _, _ in blocks for variant in variants}
        targets = list(dict.fromkeys(tgt for _, tgts, _ in terms.values() for tgt in tgts))
        at_base = {tgt: i for i, tgt in enumerate(targets)}
        base_values = eval_wigner(targets, base[0])
        names = [str(idx) for idx in indices]
        for variant, rows in results.items():
            for (gen, _, _), fd in zip(blocks, fds):
                label = "dl" if gen in L_GENS else f"dp:{variant}"
                term_rows, tgts, coeffs = terms[gen, variant]
                errs = _fd_errors(fd, base_values[[at_base[t] for t in tgts]],
                                  term_rows, coeffs, base[1])
                rows += [_within(f"{label}[k={k},{gen.value},{name}]", float(err), tol,
                                 k=k, gen=gen.value) for name, err in zip(names, errs)]
    return results


# Values per stacked stencil evaluation in `_fd_sweep` (7 indices at the
# default 20 points and the 56 stencil columns of the eight generators):
# bounds the arrays alive at once whatever j_max and the number of points
# are.  In-process `oracle --seed 0` (first run, median of 7 processes)
# peaks at 37.7 MB RSS in 38.9 ms at this size, against 37.8 MB and
# 40.9 ms at 1 << 12 (3 indices a window), 38.2 MB and 39.7 ms at 1 << 14,
# and 41.6 MB and 40.8 ms at 1 << 16 (2-vCPU x86-64 host, Python 3.11.7,
# numpy 2.4.6).
FD_STACK_SIZE = 1 << 13


def _image_terms(gen, indices, variant) -> tuple[list, list, list]:
    """The image terms of gen on the indices, in image order: the row of
    each term's index, its target and its unitary coefficient, the rescaled
    one times a(idx)/a(tgt)."""
    term_rows, targets, coeffs = [], [], []
    for row, idx in enumerate(indices):
        image = act_l_index(gen, idx) if gen in L_GENS else act_p_index(gen, idx, variant)
        for tgt, c in image:
            term_rows.append(row)
            targets.append(tgt)
            coeffs.append(c.to_complex() * _scale_ratio(idx, tgt))
    return term_rows, targets, coeffs


def _fd_errors(fd, values, term_rows, coeffs, base_rm3) -> np.ndarray:
    """Per index, the max over the points of the relative error of the
    finite differences fd against the exact prediction: the image terms'
    base-point values times their coefficients, summed per index in image
    order, as `sum` would."""
    pred = np.zeros(fd.shape, dtype=complex)
    if term_rows:
        values *= np.array(coeffs)[:, None]
        np.add.at(pred, term_rows, values)
    pred = base_rm3 * pred
    return (np.abs(fd - pred) / np.maximum(1.0, np.abs(pred))).max(axis=-1)


def _fd_points(samples: int, seed: int, gens) -> tuple[tuple, tuple]:
    """The decomposed base points, the first `samples` points of the stream
    seeded "fd:{seed}", and the decomposed stencil around them: every
    generator's stencil steps in gens order, decomposed as one point set of
    shape (samples, total steps), with one (gen, column block, weights *
    r^-3 on the block) entry per generator.  These are the inputs
    `_fd_sweep` shares across k and variants."""
    g = random_group_points(random.Random(f"fd:{seed}"), samples)
    base = _decompose_for_eval(g)
    steps, weights = zip(*map(_fd_steps, gens))
    angles, rm3 = _decompose_for_eval(np.concatenate(steps) @ g[:, None])
    weights = np.multiply(np.concatenate(weights), rm3)
    ends = np.cumsum([len(s) for s in steps])
    cols = [slice(end - len(s), end) for s, end in zip(steps, ends)]
    return base, (angles, [(gen, c, weights[:, c]) for gen, c in zip(gens, cols)])


def check_action(ks, j_max: Fraction, samples: int, tol: float, seed: int,
                 variant: str = DEFAULT_VARIANT) -> list[CheckResult]:
    """Finite-difference validation of the action of every generator (the
    noncompact ones with the chosen coefficient variant), for every k in ks,
    at `samples` seeded random group points; the `oracle` command's parser
    holds the default sizes, tolerance and seed.  The points and the
    stencils of all generators around them are decomposed once, as two
    point sets, and serve every k.
    The step is fixed, so the Richardson error grows about as k^4: at
    k = 100 it fails the default tol even for U0, which acts by a phase."""
    return _fd_sweep(ks, j_max, tol, (variant,),
                     *_fd_points(samples, seed, L_GENS + P_GENS))[variant]


ADJUDICATION_J_MAX = Fraction(3, 2)


def adjudicate_variant(ks, samples: int, tol: float, seed: int) -> tuple[str | None, CheckResult]:
    """Run the noncompact sweep at three fixed sizes, k <= min(max(ks), 1),
    j <= ADJUDICATION_J_MAX = 3/2 and min(samples, 5) seeded points, under
    both coefficient variants in one `_fd_sweep`, so each stencil window's
    finite differences are taken once and compared with both predictions,
    and accept the one variant the finite differences pass; a variant whose
    sweep compares nothing fails, with error inf.  Returns the accepted variant
    (None unless exactly one passes) and the report row."""
    rows = _fd_sweep(range(min(max(ks), 1) + 1), ADJUDICATION_J_MAX, tol, VARIANTS,
                     *_fd_points(min(samples, 5), seed, P_GENS))
    worst = {variant: max((r.max_err for r in res if r.max_err is not None), default=math.inf)
             for variant, res in rows.items()}
    passing = [variant for variant, res in rows.items() if all_passed(res)]
    accepted = passing[0] if len(passing) == 1 else None
    errs = ", ".join(f"{v}: err={e:.2e}" for v, e in worst.items())
    return accepted, CheckResult("variant adjudication", accepted is not None,
                                 detail=f"accepted={accepted}; {errs}")


# ---------------------------------------------------------------------------
# Quadrature on the compact group.
# ---------------------------------------------------------------------------


def quadrature_ip(indices: Sequence[WignerIndex]) -> np.ndarray:
    """Invariant inner products int W_a conj(W_b), total measure 1: the Gram
    matrix of an index sequence.  W is a product of one factor per axis
    (`_factors`), so by Fubini its sum over a product grid is the entrywise
    product of four axis Gram matrices (w F) @ F^H.  One grid is exact for
    every pair: the trapezoid rule over a full 4*pi period is exact for every
    frequency |f| < nodes (2 max|n2| + 4 in zeta, 2 max j2 + 4 in phi and
    psi), so a sum over unequal phases vanishes, and ng = max(4, max j2 + 2)
    Gauss-Legendre nodes in cos(theta) are exact to degree 2 ng - 1, above
    the degree <= max j2 of a profile product of equal phases."""
    indices = list(indices)
    j2, n2 = max(i.j2 for i in indices), max(abs(i.n2) for i in indices)
    nz, nang, (x, wx) = 2 * n2 + 4, 2 * j2 + 4, np.polynomial.legendre.leggauss(max(4, j2 + 2))
    az, aa = np.arange(nz) * (FOUR_PI / nz), np.arange(nang) * (FOUR_PI / nang)
    grid = EulerAngles(zeta=az[:, None, None, None], phi=aa[None, :, None, None],
                       theta=np.arccos(x)[None, None, :, None], psi=aa[None, None, None, :])
    gram = np.ones((len(indices), len(indices)), dtype=complex)
    # per axis, in the order of `_factors`: weights summing to 1, (index, node) factors
    for w, f in zip((1 / nz, 1 / nang, 1 / nang, wx / wx.sum()), _factors(indices, grid)):
        f = f.reshape(len(indices), -1)
        gram *= (w * f) @ f.conj().T
    return gram


def orthogonality_report() -> list[CheckResult]:
    """Pairwise orthogonality, to 1e-10, of all indices admissible for k = 0
    with j <= 3/2, plus constancy of the squared norm along n and under
    (m1, m2) sign flips, read off one Gram matrix."""
    indices = list(admissible_indices(0, Fraction(3, 2)))
    gram = quadrature_ip(indices)
    worst = float(np.abs(gram - np.diag(np.diagonal(gram))).max())
    expected = np.array([1.0 / (a.j2 + 1) for a in indices])  # computed fixture: 1/(2j+1)
    norm_dev = float(np.abs(np.diagonal(gram) - expected).max())
    return [
        _within(f"pairwise orthogonality (j<=j_max, {len(indices)} indices)", worst, 1e-10),
        _within("squared norms equal 1/(2j+1), independent of n and m-signs", norm_dev, 1e-10),
    ]


# ---------------------------------------------------------------------------
# Self-consistency suites.
# ---------------------------------------------------------------------------

# sampling ranges of (zeta, phi, theta, psi)
_ANGLE_RANGES = ((0.0, FOUR_PI), (-math.pi, math.pi), (0.0, math.pi), (-math.pi, 3 * math.pi))


def homomorphism_report(seed: int) -> list[CheckResult]:
    """Multiplicativity and unitarity, to 1e-9, of the coefficient matrices
    at fixed (j, n) for 20 random compact pairs: validates the Euler
    conventions and the theta-profile independently of any derivative
    formula.  The angles come from one stream seeded "homomorphism:{seed}"."""
    rng = random.Random(f"homomorphism:{seed}")
    results = []
    for j2, n2 in ((1, 1), (2, 0), (3, -3), (4, 2)):
        # drawn point by point, e1 then e2 for each pair
        draws = np.array([rng.uniform(lo, hi) for _ in range(2 * 20)
                          for lo, hi in _ANGLE_RANGES]).reshape(20, 2, 4)
        e1, e2 = (EulerAngles(*draws[:, i].T) for i in (0, 1))
        d1 = wigner_matrix(j2, n2, e1)
        d2 = wigner_matrix(j2, n2, e2)
        d12 = wigner_matrix(j2, n2, euler_from_k(k_from_angles(e1) @ k_from_angles(e2)))
        worst_h = float(np.abs(d12 - d1 @ d2).max())
        worst_u = float(np.abs(d1 @ np.swapaxes(d1.conj(), -1, -2) - np.eye(j2 + 1)).max())
        results += [
            _within(f"homomorphism D(k1 k2) = D(k1) D(k2) [2j={j2}, 2n={n2}]", worst_h, 1e-9),
            _within(f"unitarity of D [2j={j2}, 2n={n2}]", worst_u, 1e-9),
        ]
    return results


def iwasawa_report(seed: int) -> list[CheckResult]:
    """Membership (to 1e-12) and reconstruction (to 1e-10) residuals over
    1000 random group points from one stream seeded "iwasawa:{seed}"."""
    g = random_group_points(random.Random(f"iwasawa:{seed}"), 1000)
    worst_member = float(np.max(membership_residual(g)))
    fac = iwasawa(g)
    recon = fac.kappa @ an_gamma(fac.r, fac.nu, fac.s)
    worst_recon = float(np.abs(recon - g).max())
    return [
        _within("membership residual over 1000 random points", worst_member, 1e-12),
        _within("iwasawa reconstruction over 1000 random points", worst_recon, 1e-10),
    ]


def covariance_report(k: int, seed: int) -> list[CheckResult]:
    """Functional-equation checks, to 1e-9, for the extended sections of
    every index of the j <= 3/2 window at 10 random points: right
    translation by a Borel factor scales by r^(-3); right translation by a
    compact-torus element produces the phase pinned by the window.  The
    points and translations come from one stream seeded "covariance:{seed}",
    and the 10 points are exponentiated as one stack.  The `oracle` command
    runs it at the first k of its --k range only."""
    rng = random.Random(f"covariance:{seed}")
    indices = list(admissible_indices(k, Fraction(3, 2)))
    coords, r0, nu, s0, t0 = [], [], [], [], []
    for _ in range(10):  # per trial: the point, then r0, nu, s0 and t0
        coords.append(_draw_coords(rng))
        r0.append(rng.uniform(0.5, 2.0))
        nu.append(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        s0.append(rng.uniform(-1, 1))
        t0.append(rng.uniform(-math.pi, math.pi))
    g, r0, t0 = _exp_points(coords), np.array(r0), np.array(t0)
    base = eval_sections(k, indices, g)
    scale = np.maximum(1.0, np.abs(base))
    translated = eval_sections(k, indices, g @ an_gamma(r0, nu, s0))
    worst_b = float((np.abs(translated - r0 ** (-3) * base) / scale).max())
    expected = np.exp(-1j * (2 * k + 3) * t0) * base
    worst_m = float((np.abs(eval_sections(k, indices, g @ m_matrix(t0)) - expected)
                     / scale).max())
    return [
        _within(f"right Borel covariance [k={k}]", worst_b, 1e-9),
        _within(f"right compact-torus covariance [k={k}]", worst_m, 1e-9),
    ]
