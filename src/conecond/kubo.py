"""Linear-response integrals and the eta -> 0 conductivity extraction.

All response functions are evaluated in the frequency domain: the time
integrals behind them are done analytically per spectral pair, so a k-point
contributes a closed sum over occupied/unoccupied band pairs.  For

    f_jl(eta) = (i/(2pi)^2) int dk int_{-inf}^0 dt e^{eta t}
                Tr(J_j(k) [P_mu(k), e^{iHt} J_l(k) e^{-iHt}])

inserting the eigenbasis and integrating e^{(eta + i Delta) t} gives, per k,

    sum_{q occ, p unocc} (2 Delta Re z - 2 eta Im z) / (eta^2 + Delta^2),
    z = (J_j)_{pq} (J_l)_{qp},   Delta = Lambda_q - Lambda_p < 0,

where the pair sum has already been reduced to a manifestly real form (the
imaginary parts of the two orderings cancel algebraically, so the "imaginary
residue" of the evaluation is identically zero).  The even extension
ftilde_jj and the two-band cone-neighborhood integrals f_sing and zeta are
separate formulas used to cross-validate f_jl and each other.  f_jl,
ftilde_jj and the Schwinger term Tr(d^2H P_mu) share one grid kernel,
_pair_sum_on_grid: it diagonalizes each point once, rotates each current
into only its occupied x unoccupied blocks (the sole elements any formula
reads), and evaluates every requested quantity with its own formula.  The
blocks come from einsums, except for two bands with one occupied, the
common case, where each block is a single element written out on flat
per-point arrays (_two_band_blocks).  Its
B_eps counterpart, _cone_pass, serves f_sing and zeta: per rule, eta and
cone it builds the elliptic-polar nodes and decomposes them once, and each
node contracts only the elements of the cone's band pair its formula needs.

Every batched decomposition of a model's H here (the grid kernel, which
also gives sigma_hall its gap test, and the B_eps band pair) goes through
_eigh: a two-band H (N = 2) is solved in closed form, which is exact up to
rounding (its eigenvalues are the roots d0 -+ r of a quadratic, its
eigenvectors read from the non-cancelling row) and an order of magnitude
cheaper than batched LAPACK on 2 x 2 matrices; N > 2 goes to
np.linalg.eigh.  Only the eigenvector phases differ between the two, and
every quantity read from them is gauge-invariant.

Conductivity extraction uses the pair estimator

    sigma_hat(eta) = (f(2 eta) - f(eta)) / eta,

which cancels the unknown f(0+) exactly; for f = f(0+) + sigma eta + c eta^2
it returns sigma + 3 c eta, so a final Richardson step over the sigma_hat
sequence removes the remaining linear term.  Both members of each pair are
evaluated on the same grid so that quadrature error largely cancels in the
difference.  One spectral pass serves them all: each point of a grid is
diagonalized once, and every eta and direction summed on that grid come
from that eigen-decomposition (only the Lorentzian depends on eta).  One
eta loop, _eta_sweep, serves sigma_kubo, sigma_hall and verify (whose
value-only requests join its fine passes), and it gives each distinct grid
one pass: without cones the grids do not depend on eta, so the whole
sequence is summed on one uniform fine grid and its companion.

k-sums are accumulated with a fixed-shape pairwise (tree) reduction, making
results bit-stable under any chunked evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bloch import HoppingModel, _max_current_norm, _max_frobenius, _require_directions
from .cones import (
    FermiPoint,
    TwoBandIsolationFailed,
    _cone_pair,
    _isolated_pair,
    _require_admissible_eps,
    characterize_cones,
    default_epsilon,
    sigma_closed_form,
)
from .lattice import KGrid, refined_grid, uniform_grid

__all__ = [
    "DegeneratePoint",
    "FdStepTooLarge",
    "GridTooCoarse",
    "TwoBandIsolationFailed",
    "Gapless",
    "NotConverged",
    "KuboEstimate",
    "ConductivityReport",
    "GridPolicy",
    "default_eta_sequence",
    "fjl_eta",
    "ftilde_jj",
    "schwinger",
    "fjj_sing",
    "zeta_jj",
    "sigma_hat_sequence",
    "richardson_extrapolate",
    "sigma_kubo",
    "sigma_hall",
    "closed_form_report",
]

#: grid points with Fermi-level gap below this are rejected as degenerate
_DEGENERACY_FLOOR = 1e-12
#: finite-difference step for eigenvalue second derivatives (zeta integrand)
DEFAULT_FD_STEP = 1e-5
#: zeta_jj refuses a step above this fraction of the B_eps node scale
#: eps / (2 sqrt(lambda_max(Q))); at the bound the central difference moves
#: zeta by 0.1-0.25% on the presets, at 1e-3 of it by ~2e-7
_MAX_FD_STEP_FRACTION = 0.1
#: the B_eps integrals' elliptic-polar rule: angles, Gauss-Legendre order
_NTHETA, _ORDER = 64, 12
#: chunk size for batched eigen-decompositions (memory control: a chunk holds
#: its phase matrix, H, the currents and their band blocks at once); a power of
#: two, so chunked tree sums equal the whole-grid tree sum bit for bit
_CHUNK = 4096
#: convergence of the sigma_hat sequence: 2% relative, with a small absolute
#: floor so that estimates decaying to zero (gapped models) can converge
_CONV_RTOL = 0.02
_CONV_ATOL = 1e-4
#: GridPolicy's refinement schedule (see its docstring)
_OUTER_RADIUS_FACTOR = 0.35
_CORE_RADIUS_SLOPE = 8.0
_SPACING_SLOPE = 8.0
_MAX_LEVELS = 18


class DegeneratePoint(ValueError):
    """A grid point carries a Fermi-level band degeneracy; the occupied/
    unoccupied split is undefined there."""


class GridTooCoarse(ValueError):
    """Grid spacing near a cone cannot resolve the Lorentzian of width eta."""


class Gapless(ValueError):
    """Operation requires a gapped model but cones/near-closures were found."""


class FdStepTooLarge(ValueError):
    """zeta_jj's finite-difference step is not small against the B_eps node
    scale (too large an fd_step, or too small an eps for it)."""


class NotConverged(RuntimeError):
    """The sigma_hat sequence did not converge; the partial report is
    attached as the ``report`` attribute."""

    def __init__(self, message: str, report: "ConductivityReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class KuboEstimate:
    """One evaluated response quantity at one eta.

    ``quantity`` tags which integral this is (f_jl | ftilde_jj | f_sing |
    zeta | schwinger), ``grid`` is a human-readable quadrature descriptor,
    and ``quad_error`` estimates the quadrature error from the difference
    against a coarsened companion evaluation (floored at roundoff scale when
    no companion was supplied).
    """

    value: float
    eta: float
    quantity: str
    grid: str
    quad_error: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("estimate value must be finite")
        if not self.quad_error >= 0:
            raise ValueError("quad_error must be nonnegative")


@dataclass(frozen=True)
class ConductivityReport:
    """Conductivity result with its provenance.

    ``sigma`` maps direction pairs (j, l) to the final estimate;
    ``method`` is "closed_form" or "kubo_extrapolation".  Kubo reports carry
    the per-eta estimator sequence [(eta, sigma_hat, quad_error), ...] and a
    convergence flag per direction pair; closed-form reports carry per-cone
    contributions per direction.  ``diagnostics`` holds scan/grid metadata.
    """

    method: str
    sigma: dict
    converged: dict = field(default_factory=dict)
    per_eta: dict = field(default_factory=dict)
    per_cone: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method == "closed_form":
            for (j, l), v in self.sigma.items():
                if j == l and v < 0:
                    raise ValueError(
                        "closed-form longitudinal conductivity must be "
                        f"nonnegative, got sigma_{j}{j} = {v}"
                    )


def _tree_sum(values: np.ndarray) -> float:
    """Pairwise summation with a fixed reduction tree (bit-stable)."""
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        if a.size % 2:
            a = np.append(a, 0.0)
        a = a[0::2] + a[1::2]
    return float(a[0])


def default_eta_sequence(model: HoppingModel, count: int = 5) -> list:
    """Halving eta sequence tied to the model energy scale:
    {0.2, 0.1, 0.05, ...} x (spectral radius / 10)."""
    scale = model.spectral_radius() / 10.0
    return [0.2 * scale / 2**i for i in range(count)]


@dataclass(frozen=True)
class GridPolicy:
    """Momentum-grid construction for Lorentzian-resolving integrals.

    A uniform ``base`` x ``base`` midpoint grid is refined around the cone
    locations by one ``refined_grid`` call over the shrinking radius schedule
    R_level = max(R_outer / 2^level, R_core), where R_outer is 0.35 times the
    smaller zone-basis norm and R_core = 8 eta / sqrt(lambda*) is the region
    whose gap falls below ~8 eta.  Levels (at most 18) are added until the
    refined spacing satisfies spacing <= eta sqrt(lambda*) / (8 max|dH|),
    i.e. until the half-width-eta Lorentzian is resolved (max|dH| over a
    48 x 48 sample).  The graded shell of intermediate radii avoids a
    resolution cliff at the core boundary.  Only ``base`` is set per run.

    ``grids_for``, the one constructor of Kubo grid pairs, also returns a
    coarsened companion (half the base subdivision, the schedule without its
    last radius; both uniform without cones) whose difference against the
    fine result serves as the quadrature-error estimate.
    """

    base: int = 96

    def _radii_schedule(self, model: HoppingModel, cones, eta: float) -> list:
        if not cones:
            return []
        lat = model.lattice
        lam_sqrt = np.sqrt(min(c.lambda_star for c in cones))
        jmax = _max_current_norm(model, uniform_grid(lat, 48, 48).points)
        r_outer = _OUTER_RADIUS_FACTOR * min(lat.zone_lengths)
        r_core = _CORE_RADIUS_SLOPE * eta / lam_sqrt
        target = eta * lam_sqrt / (_SPACING_SLOPE * jmax)
        spacing = max(lat.zone_lengths) / self.base
        radii = []
        level = 1
        while spacing > target and level <= _MAX_LEVELS:
            radii.append(max(r_outer / 2**level, r_core))
            spacing /= 2.0
            level += 1
        return radii

    @staticmethod
    def _grid(model: HoppingModel, cones, n: int, radii) -> KGrid:
        """The n x n uniform grid, refined around the cones over ``radii``."""
        grid = uniform_grid(model.lattice, n, n)
        if not cones:
            return grid
        return refined_grid(model.lattice, grid, [c.omega for c in cones], radii)

    def grids_for(self, model: HoppingModel, cones, eta: float):
        """(fine, companion) quadrature grids for the given eta."""
        radii = self._radii_schedule(model, cones, eta)
        return (self._grid(model, cones, self.base, radii),
                self._grid(model, cones, max(self.base // 2, 2), radii[:-1]))


# -- frequency-domain grid integrals ----------------------------------------

def _grid_spacing_cart(grid: KGrid) -> np.ndarray:
    """Per-point cartesian cell extent (max over the two cell edges)."""
    z1, z2 = grid.lattice.zone_lengths
    return np.maximum(grid.size[:, 0] * z1, grid.size[:, 1] * z2)


def _eigh(H: np.ndarray):
    """np.linalg.eigh of an (M, N, N) Hermitian stack: ascending eigenvalues
    (M, N) and orthonormal eigenvector columns (M, N, N).

    N = 2 is solved in closed form.  With a, c the real diagonal and b the
    lower off-diagonal element (the triangle LAPACK reads), H = d0 + [[dz, b*],
    [b, -dz]] for d0 = (a + c)/2, dz = (a - c)/2, so the eigenvalues are
    d0 -+ r with r = hypot(dz, |b|).  The eigenvectors are read from the
    row that holds r + |dz| (the branch on the sign of dz), so no entry is a
    difference of nearly equal terms; their norm is sqrt(2 r (r + |dz|)).
    At r = 0 the identity is returned.  Only the eigenvector phases differ
    from LAPACK's, and every quantity read from them is gauge-invariant.
    Other N go to np.linalg.eigh."""
    if H.shape[-1] != 2:
        return np.linalg.eigh(H)
    a, c, b = H[:, 0, 0].real, H[:, 1, 1].real, H[:, 1, 0]
    d0, dz = 0.5 * (a + c), 0.5 * (a - c)
    r = np.hypot(dz, np.abs(b))
    p = r + np.abs(dz)
    up, bc = dz >= 0, b.conj()
    V = np.empty(H.shape, dtype=np.result_type(H.dtype, float))
    V[:, 0, 0] = np.where(up, -bc, p)      # lower eigenvector d0 - r
    V[:, 1, 0] = np.where(up, p, -b)
    V[:, 0, 1] = np.where(up, p, bc)       # upper eigenvector d0 + r
    V[:, 1, 1] = np.where(up, b, p)
    flat = r == 0.0
    # sqrt(2r) sqrt(p) rather than sqrt(2 r p): no underflow for tiny r
    V /= np.where(flat, 1.0, np.sqrt(2.0 * r) * np.sqrt(p))[:, None, None]
    V[flat] = np.eye(2)
    return np.stack((d0 - r, d0 + r), axis=1), V


def _fermi_gaps(w: np.ndarray, mu: float):
    """Occupied-band counts of an (M, N) eigenvalue stack and the Fermi-level
    gaps w[m] - w[m-1] at the points ``idx`` with bands on both sides of mu:
    (counts, idx, gaps).

    The strict per-point count (a level at mu is occupied), not spectra's
    level rule and not clipped: the zone sums follow each point's own
    projector, whose count may vary (a metal), and a point on a crossing has
    no projector to sum, so a tie at mu shows as a gap below the degeneracy
    floor, which the callers refuse (DegeneratePoint) rather than resolve."""
    counts = (w <= mu).sum(axis=1)
    idx = np.nonzero((counts > 0) & (counts < w.shape[1]))[0]
    m = counts[idx]
    return counts, idx, w[idx, m] - w[idx, m - 1]


def _blocks(w: np.ndarray, V: np.ndarray, m: int, J: dict, D2: dict) -> tuple:
    """What the grid kernel's formulas read at points with m occupied bands,
    from their eigenvalues w (M, N), eigenvector columns V (M, N, N), currents
    J {d: (M, N, N)} and Hessians D2 {(j, l): (M, N, N)}: (Delta, B, Ct,
    traces).  Over the m x (N - m) pairs (q occ, p unocc), flattened in
    [q, p] order: Delta = Lambda_q - Lambda_p, per current B_d = (J_d)_{qp}
    from V_occ^H J_d V_unocc and Ct_d = (J_d)_{pq} from V_unocc^H J_d V_occ,
    each as V^H (J V) in two einsum steps; per Hessian the occupied trace
    sum_q v_q^H d^2H v_q."""
    M = len(w)
    Vo, Vu = V[:, :, :m], V[:, :, m:]
    delta = (w[:, :m, None] - w[:, None, m:]).reshape(M, -1)
    B = {d: np.einsum("kaq,kap->kqp", Vo.conj(),
                      np.einsum("kab,kbp->kap", Jd, Vu)).reshape(M, -1)
         for d, Jd in J.items()}
    Ct = {d: np.einsum("kap,kaq->kqp", Vu.conj(),
                       np.einsum("kab,kbq->kaq", Jd, Vo)).reshape(M, -1)
          for d, Jd in J.items()}
    traces = {p: np.einsum("kaq,kab,kbq->k", Vo.conj(), Dp, Vo) for p, Dp in D2.items()}
    return delta, B, Ct, traces


def _two_band_blocks(w: np.ndarray, V: np.ndarray, m: int, J: dict, D2: dict) -> tuple:
    """_blocks for two bands with the lower one occupied (N = 2, m = 1), from
    flat per-point arrays: each element is written out as the two-term sums
    the einsums add, v_o^H (J v_u) and v_u^H (J v_o) with v_o, v_u the two
    columns of V; C is computed on its own, not as the conjugate of B, so the
    kernel's sign check still tests the eigenvectors and the currents."""
    (o0, u0), (o1, u1) = V.transpose(1, 2, 0)
    oc0, oc1, uc0, uc1 = o0.conj(), o1.conj(), u0.conj(), u1.conj()
    B, Ct, traces = {}, {}, {}
    for d, Jd in J.items():
        (j00, j01), (j10, j11) = Jd.transpose(1, 2, 0)
        B[d] = (oc0 * (j00 * u0 + j01 * u1) + oc1 * (j10 * u0 + j11 * u1))[:, None]
        Ct[d] = (uc0 * (j00 * o0 + j01 * o1) + uc1 * (j10 * o0 + j11 * o1))[:, None]
    for p, Dp in D2.items():
        (d00, d01), (d10, d11) = Dp.transpose(1, 2, 0)
        traces[p] = oc0 * d00 * o0 + oc0 * d01 * o1 + oc1 * d10 * o0 + oc1 * d11 * o1
    return (w[:, 0] - w[:, 1])[:, None], B, Ct, traces


def _pair_sum_on_grid(model: HoppingModel, grid: KGrid, requests,
                      gate: bool) -> tuple:
    """Every requested grid integral from one eigen-decomposition per point.

    A request is a (quantity, eta, (j, l)) key:

    - ("f_jl", eta, (j, l)): fjl_eta's pair sum over (q occ, p unocc) of
      (2 Delta Re z - 2 eta Im z) / (eta^2 + Delta^2) with the complex
      product z = (J_j)_{pq} (J_l)_{qp}, Delta = Lambda_q - Lambda_p;
    - ("ftilde_jj", eta, (j, j)): ftilde_jj's sum of
      2 Delta / (eta^2 + Delta^2) |(J_j)_{pq}|^2 over the explicit occupied
      x unoccupied index sets (eta = 0 allowed);
    - ("schwinger", 0.0, (j, l)): Tr(d^2H/dk_j dk_l P_mu).

    Per chunk, H, each needed J_d and d^2H come from one exp of the phase
    matrix and H is diagonalized once, by _eigh (the closed form for two
    bands: eigenvalues d0 -+ hypot(dz, |b|), so exact up to rounding, and an
    order of magnitude faster than LAPACK on 2 x 2 stacks).  The chunk's points
    are grouped by their occupied count m, and per group only the m x (N - m)
    blocks B_d = V_occ^H J_d V_unocc and C_d = V_unocc^H J_d V_occ of each
    current are formed: every formula reads only occupied x unoccupied
    elements, so no full N x N rotation or pair mask is built.  Two bands
    with one occupied (N = 2, m = 1) take _two_band_blocks, which writes each
    block's one element out on flat per-point arrays; every other group
    takes _blocks, V^H (J V) in two einsum steps.  The Schwinger trace sums
    v_q^H d^2H v_q over the occupied columns.  The requests share that data
    but each keeps its own formula.
    Returns ({request: weighted grid sum / (2 pi)^2} in request order, the
    grid's smallest Fermi-level gap or inf).  Every request is checked as if
    evaluated alone, and the first failing one in request order raises:
    GridTooCoarse when ``gate`` is set and, for eta != 0, the points with
    Fermi gap below 4|eta| sit in cells too wide for that eta at the
    request's own current scale; RuntimeError when a longitudinal (j = l)
    f_jl per-point sum loses its nonpositive sign or a Schwinger trace
    acquires an imaginary part.  A Fermi-level degeneracy is the same for
    every request and raises DegeneratePoint.

    Chunk sums are tree-summed and then tree-summed across chunks: since
    _CHUNK is a power of two this is bit-identical to the tree sum of the
    whole per-point array, and no per-point array outlives its chunk.
    """
    npts = len(grid)
    spacing = _grid_spacing_cart(grid)
    requests = list(dict.fromkeys(requests))
    currents = sorted({d for q, _, p in requests if q != "schwinger" for d in p})
    hessians = sorted({p for q, _, p in requests if q == "schwinger"})
    gate_etas = {abs(e) for q, e, _ in requests if q != "schwinger" and e != 0.0}
    partials = {r: [] for r in requests}
    top = dict.fromkeys(requests, 0.0)     # max per-point sum (sign check)
    imag = dict.fromkeys(requests, 0.0)    # max |Im trace| (Schwinger)
    scale = dict.fromkeys(requests, 0.0)   # max |per-point sum|
    jmax = dict.fromkeys(currents, 0.0)
    worst_spacing = dict.fromkeys(gate_etas, 0.0)
    min_gap = np.inf
    for lo in range(0, npts, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, npts))
        ks = grid.points[sl]
        H, *stacks = model._assemble(ks, [()] + [(d,) for d in currents] + hessians)
        J = dict(zip(currents, stacks))
        D2 = dict(zip(hessians, stacks[len(currents):]))
        w, V = _eigh(H)
        counts, idx, gaps = _fermi_gaps(w, model.fermi_energy)
        if idx.size and gaps.min() < _DEGENERACY_FLOOR:
            k_bad = ks[idx[gaps.argmin()]]
            raise DegeneratePoint(
                f"Fermi-level degeneracy (gap {gaps.min():.3e}) at grid "
                f"point k=({k_bad[0]:.6f}, {k_bad[1]:.6f})"
            )
        min_gap = min(min_gap, float(gaps.min(initial=np.inf)))
        if gate:
            for e in gate_etas:
                near = spacing[sl][idx[gaps < 4.0 * e]]
                worst_spacing[e] = float(near.max(initial=worst_spacing[e]))
            for d in currents:
                jmax[d] = max(jmax[d], _max_frobenius(J[d]))
        per_k = {r: np.zeros(len(ks)) for r in requests}
        for m in np.unique(counts[counts > 0]):
            g = np.nonzero(counts == m)[0]
            if g.size == len(ks):          # the whole chunk: views, not copies
                g = slice(None)
            blocks = _two_band_blocks if V.shape[-1] == 2 and m == 1 else _blocks
            # Lambda_q - Lambda_p <= -gap < 0 on the block (empty for m = N),
            # so the Lorentzian denominators never vanish, not even at eta = 0
            delta, B, Ct, traces = blocks(w[g], V[g], m, {d: J[d][g] for d in currents},
                                          {p: D2[p][g] for p in hessians})
            delta2 = delta * delta
            products, me2 = {}, {}
            for r in requests:
                quantity, eta, (j, l) = r
                if quantity == "schwinger":
                    tr = traces[j, l]
                    imag[r] = max(imag[r], float(np.abs(tr.imag).max()))
                    per_k[r][g] = tr.real
                elif quantity == "f_jl":
                    if (j, l) not in products:
                        z = Ct[j] * B[l]            # (J_j)_{pq} (J_l)_{qp}
                        products[j, l] = (2.0 * delta * z.real, z.imag)
                    even, z_imag = products[j, l]
                    num = even - 2.0 * eta * z_imag
                    per_k[r][g] = (num / (eta * eta + delta2)).sum(axis=1)
                else:
                    if j not in me2:
                        me2[j] = np.abs(Ct[j]) ** 2  # |(J_j)_{pq}|^2
                    lorentz = delta / (eta * eta + delta2)
                    per_k[r][g] = 2.0 * (lorentz * me2[j]).sum(axis=1)
        for r in requests:
            if r[0] == "f_jl":
                top[r] = max(top[r], float(per_k[r].max(initial=0.0)))
            scale[r] = max(scale[r], float(np.abs(per_k[r]).max(initial=0.0)))
            partials[r].append(_tree_sum(per_k[r] * grid.weights[sl]))
    out = {}
    for r in requests:
        quantity, eta, (j, l) = r
        e = abs(eta)
        if gate and e in worst_spacing:
            slope = max(jmax[j], jmax[l])
            if worst_spacing[e] * slope > e / 4.0:
                raise GridTooCoarse(
                    f"near-cone spacing {worst_spacing[e]:.3e} x slope {slope:.3e} "
                    f"exceeds eta/4 = {e / 4.0:.3e}; refine the grid"
                )
        if j == l and top[r] > 1e-12 * max(1.0, scale[r]):
            raise RuntimeError(
                "longitudinal integrand lost its definite sign "
                f"(max {top[r]:.3e}); numerical failure"
            )
        if imag[r] > 1e-9 * max(1.0, scale[r]):
            raise RuntimeError(
                f"trace of Hermitian product acquired imaginary part {imag[r]:.3e}"
            )
        out[r] = _tree_sum(partials[r]) / (2.0 * np.pi) ** 2
    return out, min_gap


def _estimate(quantity: str, eta: float, grid: str, value: float,
              coarse: float | None) -> KuboEstimate:
    """A KuboEstimate whose quad_error is the distance to the companion
    evaluation ``coarse`` (None when there is none), floored at roundoff."""
    quad = abs(value - coarse) if coarse is not None else 0.0
    return KuboEstimate(value=value, eta=eta, quantity=quantity, grid=grid,
                        quad_error=max(quad, 1e-14 * (1.0 + abs(value))))


def _estimates(model: HoppingModel, values: dict, grid: KGrid,
               companion: KGrid | None) -> dict:
    """KuboEstimates for the _pair_sum_on_grid ``values`` ({request: value})
    of a pass over ``grid``, with one pass over the ``companion`` for their
    quadrature errors; {request: KuboEstimate}."""
    # the resolution gate protects the primary estimate; the companion grid
    # is deliberately coarser and serves only the error estimate
    coarse = (
        _pair_sum_on_grid(model, companion, list(values), False)[0]
        if companion is not None else {}
    )
    return {
        r: _estimate(r[0], r[1], grid.describe(), value, coarse.get(r))
        for r, value in values.items()
    }


def fjl_eta(model: HoppingModel, eta: float, j: int, l: int, grid: KGrid,
            companion: KGrid | None = None, cones=None) -> KuboEstimate:
    """Current-current response f_jl(eta) on a quadrature grid.

    Frequency-domain evaluation of the damped time integral (see module
    docstring); requires eta > 0.  For j = l the per-point pair sum is
    manifestly nonpositive; that sign is checked on every evaluation.  The
    quadrature error is estimated against the ``companion`` grid when given.

    When ``cones`` is passed (the caller vouches the grid was built to
    resolve those crossings), the near-crossing resolution gate is armed:
    GridTooCoarse is raised if any point whose Fermi gap is below 4 eta
    sits in a cell too wide to resolve the eta-Lorentzian.  Without cone
    information the gate stays off, so method-vs-method comparisons on a
    shared coarse grid remain possible.  DegeneratePoint is raised on a
    Fermi-level band degeneracy regardless.
    """
    if eta <= 0:
        raise ValueError("eta must be positive (use ftilde_jj for eta -> 0)")
    _require_directions(j, l)
    r = ("f_jl", float(eta), (j, l))
    values, _ = _pair_sum_on_grid(model, grid, (r,), cones is not None)
    return _estimates(model, values, grid, companion)[r]


def ftilde_jj(model: HoppingModel, eta: float, j: int, grid: KGrid,
              companion: KGrid | None = None, cones=None) -> KuboEstimate:
    """Even-in-eta extension of the longitudinal response,

        ftilde_jj(eta) = (2/(2pi)^2) int dk sum_{q<=m<p}
                         (Lambda_q - Lambda_p) / (eta^2 + (Lambda_q-Lambda_p)^2)
                         |(J_j)_{pq}|^2.

    Deliberately a formula independent of fjl_eta — the pair sum is
    assembled from abs-squared matrix elements over the explicit
    occupied x unoccupied index sets, never from complex products — so the
    agreement fjl_eta(eta, j, j) = ftilde_jj(eta) is a genuine cross-check;
    the two share only the grid pass of _pair_sum_on_grid (eigensolve and
    occupied x unoccupied current blocks).  eta enters only squared, making
    the function exactly even (bit-identical under eta -> -eta); eta = 0 is
    allowed for gapped models.  The near-crossing resolution gate
    (GridTooCoarse) is armed only when ``cones`` is passed, as in fjl_eta.
    """
    _require_directions(j)
    r = ("ftilde_jj", float(eta), (j, j))
    values, _ = _pair_sum_on_grid(model, grid, (r,), cones is not None)
    return _estimates(model, values, grid, companion)[r]


def schwinger(model: HoppingModel, j: int, l: int, grid: KGrid,
              companion: KGrid | None = None) -> KuboEstimate:
    """Schwinger term s_jl = (1/(2pi)^2) int dk Tr(d^2H/dk_j dk_l P_mu(k)).

    Independent of the current matrix elements: the trace is summed over the
    occupied eigenvectors of the grid pass shared with fjl_eta,
    sum_q <q| d^2H |q>, so s_jl = -f_jl(0+) is a genuine cross-check.  A trace
    that acquires an imaginary part raises RuntimeError.
    """
    _require_directions(j, l)
    r = ("schwinger", 0.0, (j, l))
    values, _ = _pair_sum_on_grid(model, grid, (r,), False)
    return _estimates(model, values, grid, companion)[r]


# -- cone-neighborhood (B_eps) integrals -------------------------------------

def _elliptic_polar_nodes(cone: FermiPoint, eps: float, eta: float,
                          ntheta: int, order: int):
    """Quadrature for int_{B_eps} dk: map k = omega + (eps/2) Q^{-1/2} u with
    u = rho (cos t, sin t), so B_eps is exactly rho < 1.

    Radial panels halve geometrically down to rho_core (the scale where the
    Lorentzian denominator saturates at eta), then one final panel spans
    [0, rho_core]; each panel carries Gauss-Legendre nodes, and the angle is
    a uniform midpoint rule (spectrally accurate for periodic integrands).
    Returns (offsets from omega, weights).
    """
    lam, U = np.linalg.eigh(cone.Q)
    q_inv_sqrt = (U / np.sqrt(lam)[None, :]) @ U.T
    jac = (eps / 2.0) ** 2 / np.sqrt(lam[0] * lam[1])
    rho_core = max(min(1.0, 8.0 * abs(eta) / eps) / 8.0, 1e-4)
    edges = [1.0]
    while edges[-1] / 2.0 > rho_core:
        edges.append(edges[-1] / 2.0)
    edges.append(rho_core)
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    panels = list(zip(edges[1:], edges)) + [(0.0, rho_core)]
    rho = np.concatenate([0.5 * (b - a) * gl_x + 0.5 * (a + b) for a, b in panels])
    wrho = np.concatenate([0.5 * (b - a) * gl_w for a, b in panels])
    theta = 2.0 * np.pi * (np.arange(ntheta) + 0.5) / ntheta
    wtheta = 2.0 * np.pi / ntheta
    R, T = np.meshgrid(rho, theta, indexing="ij")
    u = R[..., None] * np.stack([np.cos(T), np.sin(T)], axis=-1)
    offsets = (eps / 2.0) * u.reshape(-1, 2) @ q_inv_sqrt.T
    weights = (jac * wtheta * (R * wrho[:, None])).ravel()
    return offsets, weights


def _band_pair(model: HoppingModel, ks: np.ndarray, currents, lo: int):
    """The cone's band pair lo (cones._cone_pair) on a batch of momenta, with
    H and the currents J_d, d in ``currents``, from one assembly: (lam_lo,
    lam_hi, v_lo, v_hi, {d: J_d}).  TwoBandIsolationFailed unless every other
    band stays beyond twice the pair's sampled window."""
    H, *J = model._assemble(ks, [()] + [(d,) for d in currents])
    w, V = _eigh(H)
    lam_lo, lam_hi = _isolated_pair(w, (lo, lo + 1), model.fermi_energy, 2.0,
                                    "shrink eps")
    return lam_lo, lam_hi, V[:, :, lo], V[:, :, lo + 1], dict(zip(currents, J))


def _element(u: np.ndarray, J: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u|J|v> per point, for (M, N) vectors and an (M, N, N) stack."""
    return np.einsum("ka,kab,kb->k", u.conj(), J, v)


def _f_sing_nodes(pair, eta: float, j: int) -> np.ndarray:
    """fjj_sing's integrand on the nodes of the _band_pair ``pair``."""
    lam_lo, lam_hi, v_lo, v_hi, J = pair
    me2 = np.abs(_element(v_lo, J[j], v_hi)) ** 2
    d = lam_hi - lam_lo
    return -2.0 * d / (eta * eta + d * d) * me2 / (2.0 * np.pi) ** 2


def _zeta_nodes(model: HoppingModel, ks: np.ndarray, lo: int, pair, eta: float,
                j: int, fd_step: float) -> np.ndarray:
    """zeta_jj's integrand on the nodes ``ks`` of the _band_pair ``pair``;
    the nodes shifted by +-fd_step along k_j get band pairs of their own."""
    mu, step = model.fermi_energy, fd_step * np.eye(2)[j - 1]

    def slopes(p):     # per band, dLambda/dk_j = Re <band| J_j |band>
        return [_element(v, p[4][j], v).real for v in p[2:4]]

    # d/dk_j (Lambda - mu)^2 = 2 (Lambda - mu) dLambda/dk_j at k +- fd_step
    (lo_p, hi_p), (lo_m, hi_m) = (
        [2.0 * (lam - mu) * s for lam, s in zip(p[:2], slopes(p))]
        for p in (_band_pair(model, ks + h, (j,), lo) for h in (step, -step)))
    d2g = (lo_p - lo_m + hi_p - hi_m) / (2.0 * fd_step)
    slope_lo, slope_hi = slopes(pair)
    bracket = 0.5 * d2g - slope_lo**2 - slope_hi**2
    d = pair[1] - pair[0]
    return -d / (eta * eta + d * d) * bracket / (2.0 * np.pi) ** 2


def _cone_pass(model: HoppingModel, cones, requests, eps,
               rules=((_NTHETA, _ORDER),), fd_step: float = DEFAULT_FD_STEP) -> tuple:
    """One {request: sum over cones of its B_eps integral} per elliptic-polar
    rule (ntheta angles, GL order radial panels) in ``rules``, for requests
    ("f_sing" | "zeta", eta, (j, j)).  Checks the arguments (ValueError),
    then gives zeros without cones, then checks eps (default_epsilon when
    None), refuses with FdStepTooLarge a zeta request's fd_step above
    _MAX_FD_STEP_FRACTION of the smallest node scale eps / (2 sqrt(lambda_max
    Q)), and names each cone's band pair, once for every rule.  Per rule,
    distinct eta and cone, the nodes are built and H with every current read
    there is decomposed once; each request keeps its formula."""
    requests = list(dict.fromkeys(requests))
    _require_directions(*(d for _, _, p in requests for d in p))
    if any(j != l for _, _, (j, l) in requests):
        raise ValueError("the B_eps integrals are longitudinal: j must equal l")
    if not all(np.isfinite(eta) for _, eta, _ in requests):
        raise ValueError("eta must be finite")
    for ntheta, order in rules:
        if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in (ntheta, order)):
            raise ValueError(f"ntheta and order must be integers >= 1, got {ntheta}, {order}")
    if not 0 < fd_step < np.inf:
        raise ValueError(f"fd_step must be positive and finite, got {fd_step}")
    if not cones:
        return tuple(dict.fromkeys(requests, 0.0) for _ in rules)
    if eps is None:
        eps = default_epsilon(cones, model.lattice)
    _require_admissible_eps(cones, model.lattice, eps)
    if any(q == "zeta" for q, _, _ in requests):
        scale = min(eps / (2.0 * np.sqrt(np.linalg.eigvalsh(c.Q)[-1])) for c in cones)
        if fd_step > _MAX_FD_STEP_FRACTION * scale:
            raise FdStepTooLarge(
                f"fd_step {fd_step:.3g} exceeds {_MAX_FD_STEP_FRACTION:g} of the B_eps "
                f"node scale eps/(2 sqrt(lambda_max Q)) = {scale:.3g}; use a smaller "
                f"fd_step or a larger eps")
    pairs = [_cone_pair(model, cone.omega)[0] for cone in cones]
    out = []
    for ntheta, order in rules:
        terms = {r: [] for r in requests}
        for eta in dict.fromkeys(e for _, e, _ in requests):
            mine = [r for r in requests if r[1] == eta]
            for cone, lo in zip(cones, pairs):
                offsets, wq = _elliptic_polar_nodes(cone, eps, eta, ntheta, order)
                ks = cone.omega[None, :] + offsets
                pair = _band_pair(model, ks, sorted({j for _, _, (j, _) in mine}), lo)
                for r in mine:
                    quantity, _, (j, _) = r
                    f = (_f_sing_nodes(pair, eta, j) if quantity == "f_sing"
                         else _zeta_nodes(model, ks, lo, pair, eta, j, fd_step))
                    terms[r].append(f * wq)
        out.append({r: _tree_sum(np.concatenate(t)) for r, t in terms.items()})
    return tuple(out)


def _cone_estimate(model: HoppingModel, cones, request, eps, ntheta: int,
                   order: int, fd_step: float = DEFAULT_FD_STEP) -> KuboEstimate:
    """The KuboEstimate of one B_eps request: one _cone_pass with the fine rule
    and, for the quadrature error, half the angles and four fewer GL nodes."""
    quantity, eta, _ = request
    fine, coarse = (v[request] for v in _cone_pass(
        model, cones, (request,), eps,
        ((ntheta, order), (max(8, ntheta // 2), max(4, order - 4))), fd_step))
    if not cones:
        return KuboEstimate(0.0, eta, quantity, "empty domain", 0.0)
    return _estimate(quantity, eta,
                     f"elliptic-polar {ntheta} angles, GL{order} radial panels", fine, coarse)


def fjj_sing(model: HoppingModel, cones, eta: float, j: int,
             eps: float | None = None, ntheta: int = _NTHETA,
             order: int = _ORDER) -> KuboEstimate:
    """Singular (cone-neighborhood) part of the longitudinal response:

        (2/(2pi)^2) sum_l int_{B_eps^(l)} dk
            (Lambda_- - Lambda_+) / (eta^2 + (Lambda_- - Lambda_+)^2)
            |<lower| J_j |upper>|^2,

    restricted exactly to the two bands straddling the Fermi level.  Even in
    eta.  An empty cone list integrates over an empty domain (zero).  Raises
    EpsilonTooLarge / TwoBandIsolationFailed when eps is not admissible.
    Runs on _cone_pass and contracts per node only the element
    <lower|J_j|upper>, never the full rotated current.
    """
    return _cone_estimate(model, cones, ("f_sing", float(eta), (j, j)), eps, ntheta, order)


def zeta_jj(model: HoppingModel, cones, eta: float, j: int,
            eps: float | None = None, ntheta: int = _NTHETA, order: int = _ORDER,
            fd_step: float = DEFAULT_FD_STEP) -> KuboEstimate:
    """Eigenvalue-only counterpart of fjj_sing on the cone neighborhoods:

        (1/(2pi)^2) sum_l int_{B_eps^(l)} dk
            -(Lambda_+ - Lambda_-) / (eta^2 + (Lambda_+ - Lambda_-)^2)
            [ (1/2) d^2/dk_j^2 ((Lambda_+ - mu)^2 + (Lambda_- - mu)^2)
              - (dLambda_+/dk_j)^2 - (dLambda_-/dk_j)^2 ].

    First derivatives use the Hellmann-Feynman identity
    dLambda/dk_j = Re <band| dH/dk_j |band>; the second derivative of the
    squared distance-to-mu is a central finite difference (step ``fd_step``)
    of that identity, and a step above a tenth of the smallest node scale
    eps / (2 sqrt(lambda_max(Q))) is refused with FdStepTooLarge.  Even in
    eta; independent of current matrix elements, which makes it a genuine
    cross-check of fjj_sing: in one _cone_pass the
    two share only the eigensolve at the centre nodes, and per node zeta
    contracts only the two slopes.
    """
    return _cone_estimate(model, cones, ("zeta", float(eta), (j, j)), eps, ntheta, order,
                          fd_step)


# -- eta -> 0 extraction ------------------------------------------------------

def _validate_halving(eta_sequence) -> list:
    seq = [float(e) for e in eta_sequence]
    if len(seq) < 2:
        raise ValueError("need at least two eta values")
    if not all(0 < e < np.inf for e in seq):
        raise ValueError("eta values must be positive and finite")
    for a, b in zip(seq, seq[1:]):
        if abs(a - 2.0 * b) > 1e-9 * a:
            raise ValueError(
                "eta sequence must descend by exact halving "
                f"(got consecutive values {a}, {b})"
            )
    return seq


def sigma_hat_sequence(eta_sequence, f_values) -> list:
    """Pair estimator sigma_hat(eta_i) = (f(eta_{i-1}) - f(eta_i)) / eta_i
    along a halving eta sequence (eta_{i-1} = 2 eta_i).

    Cancels f(0+) exactly; for f(eta) = f(0+) + sigma eta + c eta^2 the
    result is exactly sigma + 3 c eta (algebraic identity), so the returned
    sequence converges linearly in eta and is Richardson-extrapolable.
    """
    seq = _validate_halving(eta_sequence)
    f = [float(v) for v in f_values]
    if len(f) != len(seq):
        raise ValueError("need one f value per eta")
    return [(f[i - 1] - f[i]) / seq[i] for i in range(1, len(seq))]


def richardson_extrapolate(sigma_hats) -> float:
    """Eliminate the O(eta) term of the halving estimator sequence:
    2 sigma_hat(eta_min) - sigma_hat(2 eta_min)."""
    s = [float(v) for v in sigma_hats]
    if len(s) < 2:
        raise ValueError("need at least two estimator values")
    return 2.0 * s[-1] - s[-2]


def _converged(sigma_hats) -> bool:
    if len(sigma_hats) < 2:
        return False
    diff = abs(sigma_hats[-1] - sigma_hats[-2])
    return diff < max(_CONV_RTOL * abs(sigma_hats[-1]), _CONV_ATOL)


def _unconverged(report: ConductivityReport) -> list:
    """[(pair, sigma_hat sequence, why)] for each pair whose convergence
    flag is false; ``why`` gives the last change against its tolerance."""
    out = []
    for p, steps in report.per_eta.items():
        if report.converged[p]:
            continue
        h = [s_hat for _, s_hat, _ in steps]
        why = (f"last change {abs(h[-1] - h[-2]):.3e}, tolerance "
               f"{max(_CONV_RTOL * abs(h[-1]), _CONV_ATOL):.3e}"
               if len(h) >= 2 else "only one estimator value")
        out.append((p, h, why))
    return out


def _direction_pairs(j, l, directions) -> tuple:
    """The requested direction pairs: (j, l) or ``directions``, deduplicated."""
    if directions is None:
        if j is None or l is None:
            raise ValueError("give the direction pair (j, l) or directions=")
        directions = ((j, l),)
    elif j is not None or l is not None:
        raise ValueError("give either the pair (j, l) or directions=, not both")
    pairs = tuple(dict.fromkeys((int(a), int(b)) for a, b in directions))
    if not pairs:
        raise ValueError("directions is empty")
    _require_directions(*(d for p in pairs for d in p))
    return pairs


def _eta_sweep(model: HoppingModel, pairs, eta_sequence, policy: GridPolicy,
               cones, riders) -> tuple:
    """The eta loop of sigma_kubo, sigma_hall and verify: (the report,
    unconverged pairs flagged, not raised; {grid eta: {request: fine-pass
    value}}; the smallest Fermi gap of the gated fine passes).  Steps are
    grouped by grid pair (one per step with cones; without cones grids_for
    ignores eta, so all share one), and each pair gets one gated fine pass,
    the steps' f_jl first and then the riders of their etas, and one
    companion pass.  ``riders`` maps a grid eta to nonempty lists of
    value-only requests; an eta not visited gets its fine grid alone, in
    one pass with the gate off."""
    seq = _validate_halving(eta_sequence)
    steps = list(zip(seq, seq[1:]))
    per_eta = {p: [] for p in pairs}
    sigma_hats = {p: [] for p in pairs}
    f_values = {p: {} for p in pairs}
    grid_sizes, values, min_gap = {}, {}, np.inf
    for group in ([s] for s in steps) if cones else [steps]:
        fine, comp = policy.grids_for(model, cones, group[-1][1])
        own = [("f_jl", e, p) for step in group for e in step for p in pairs]
        ride = [r for _, eta in group for r in riders.get(eta, [])]
        found, gap = _pair_sum_on_grid(model, fine, own + ride, True)
        min_gap = min(min_gap, gap)
        est = _estimates(model, {r: found[r] for r in own}, fine, comp)
        for eta_hi, eta in group:
            values[eta], grid_sizes[eta] = found, len(fine)
            for p in pairs:
                f_hi, f_lo = est["f_jl", eta_hi, p], est["f_jl", eta, p]
                f_values[p][eta] = (f_hi.value, f_lo.value)
                s_hat = (f_hi.value - f_lo.value) / eta
                s_err = (f_hi.quad_error + f_lo.quad_error) / eta
                sigma_hats[p].append(s_hat)
                per_eta[p].append((eta, s_hat, s_err))
    for eta in [e for e in riders if e not in values]:
        fine = policy._grid(model, cones, policy.base,
                            policy._radii_schedule(model, cones, eta))
        values[eta], _ = _pair_sum_on_grid(model, fine, riders[eta], False)

    # with a single estimator value Richardson is not possible; report the
    # plain estimator (the convergence flag is necessarily False then)
    sigma = {p: richardson_extrapolate(h) if len(h) >= 2 else h[-1]
             for p, h in sigma_hats.items()}
    report = ConductivityReport(
        method="kubo_extrapolation",
        sigma=sigma,
        converged={p: _converged(h) for p, h in sigma_hats.items()},
        per_eta={p: tuple(v) for p, v in per_eta.items()},
        diagnostics={
            "eta_sequence": tuple(seq),
            "f_values": f_values,
            "grid_points": grid_sizes,
            "cones": len(cones),
            "cone_residuals": tuple(c.residual for c in cones),
        },
    )
    return report, values, min_gap


def sigma_kubo(model: HoppingModel, j: int | None = None, l: int | None = None,
               eta_sequence=None, grid_policy: GridPolicy | None = None,
               cones=None, directions=None) -> ConductivityReport:
    """Conductivity sigma_jl by eta -> 0 extrapolation of the response.

    ``sigma_kubo(model, j, l)`` evaluates one direction pair and
    ``sigma_kubo(model, directions=((1, 1), (2, 2)))`` several; the report
    is keyed by every pair.  For each consecutive pair of the halving eta
    sequence, f_jl is evaluated at both 2*eta and eta on one shared grid
    built for the smaller eta (so quadrature error cancels in the
    difference), giving the estimator sequence sigma_hat(eta).  Each distinct
    grid and its companion are built once and traversed in one spectral
    pass (one per eta with cones, one for the whole sequence without): every
    point is diagonalized once for every eta and direction.  The report
    carries each pair's sequence, its Richardson extrapolation (the headline
    value), and a convergence flag (last two sigma_hat within 2%, with a
    small absolute floor for values decaying to zero); ``diagnostics`` holds
    the fine-grid sizes and, per pair, the values (f(2 eta), f(eta)) from
    which each sigma_hat was formed, both keyed by the grid's eta.  Cone
    locations are detected automatically when not supplied.  Raises
    NotConverged — with the whole report attached — when any pair's flag is
    false.
    """
    pairs = _direction_pairs(j, l, directions)
    if cones is None:
        cones = characterize_cones(model)
    if eta_sequence is None:
        eta_sequence = default_eta_sequence(model)
    policy = grid_policy if grid_policy is not None else GridPolicy()
    report, _, _ = _eta_sweep(model, pairs, eta_sequence, policy, cones, {})
    failed = [f"sigma_{pj}{pl} hat sequence {h} has not converged ({why})"
              for (pj, pl), h, why in _unconverged(report)]
    if failed:
        raise NotConverged("; ".join(failed), report)
    return report


def sigma_hall(model: HoppingModel, eta_sequence=None,
               grid_policy: GridPolicy | None = None) -> ConductivityReport:
    """Off-diagonal (Hall) estimate sigma_12 for gapped models: sigma_kubo's
    eta sweep for (1, 2) without cones, one fine and one companion pass.

    Refuses gapless models with Gapless: on a degeneracy, when the resolution
    gate fires, and when the minimum Fermi-level gap of the fine pass does
    not exceed 10x the largest eta.  Reports the estimator sequence and its
    Richardson value (one unconverged estimator for two eta), plus the
    distance of 2 pi sigma_12 from its nearest integer as a diagnostic (no
    acceptance value is attached to it here).
    """
    if eta_sequence is None:
        eta_sequence = default_eta_sequence(model)
    seq = _validate_halving(eta_sequence)
    policy = grid_policy if grid_policy is not None else GridPolicy()
    need = "the Hall estimate needs a gapped model"
    try:
        report, _, min_gap = _eta_sweep(model, ((1, 2),), seq, policy, (), {})
    except DegeneratePoint as exc:
        raise Gapless(f"{exc}; {need}") from exc
    except GridTooCoarse as exc:
        # without cones the gate fires only where a Fermi gap is below
        # 4 eta <= 4x the largest eta, so the 10x test below would fail too
        raise Gapless(f"a Fermi-level gap lies below 4 eta <= 4x the largest eta "
                      f"({max(seq):.6g}), so not above 10x it; {need}") from exc
    if min_gap <= 10.0 * max(seq):
        raise Gapless(
            f"minimum Fermi-level gap {min_gap:.6g} does not exceed 10x the "
            f"largest eta ({max(seq):.6g}); {need}"
        )
    turns = 2.0 * np.pi * report.sigma[1, 2]
    return replace(report, diagnostics={"eta_sequence": tuple(seq), "min_gap": min_gap,
                                        "hall_quantum_residue": abs(turns - round(turns))})


def closed_form_report(cones, directions=((1, 1), (2, 2))) -> ConductivityReport:
    """Assemble a ConductivityReport from the closed-form cone formula."""
    sigma = {}
    per_cone = {}
    for (j, l) in directions:
        if j != l:
            raise ValueError(
                "the closed form covers longitudinal directions only (j = l)"
            )
        total, parts = sigma_closed_form(cones, j)
        sigma[(j, l)] = total
        per_cone[j] = tuple(parts)
    return ConductivityReport(
        method="closed_form",
        sigma=sigma,
        per_cone=per_cone,
        diagnostics={
            "cones": len(cones),
            "cone_residuals": tuple(c.residual for c in cones),
            "max_gap_at_omega": max((c.gap_at_omega for c in cones), default=0.0),
        },
    )
