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
separate formulas used to cross-validate f_jl and each other.  f_sing and
zeta share one driver, _cone_integral (the elliptic-polar quadrature, the
band-pair read and the eps checks), and each node contracts only the
elements of the straddling pair its formula needs.  f_jl,
ftilde_jj and the Schwinger term Tr(d^2H P_mu) share one grid kernel,
_pair_sum_on_grid: it diagonalizes each point once, rotates each current
into only its occupied x unoccupied blocks (the sole elements any formula
reads), and evaluates every requested quantity with its own formula.

Every batched decomposition of a model's H here (the grid kernel, the B_eps
band pair, sigma_hall's gap scan) goes through _eigh: a two-band H (N = 2)
is solved in closed form, which is exact up to rounding (its eigenvalues are
the roots d0 -+ r of a quadratic, its eigenvectors read from the
non-cancelling row) and an order of magnitude cheaper than batched LAPACK on
2 x 2 matrices; N > 2 goes to np.linalg.eigh.  Only the eigenvector phases
differ between the two, and every quantity read from them is
gauge-invariant.

Conductivity extraction uses the pair estimator

    sigma_hat(eta) = (f(2 eta) - f(eta)) / eta,

which cancels the unknown f(0+) exactly; for f = f(0+) + sigma eta + c eta^2
it returns sigma + 3 c eta, so a final Richardson step over the sigma_hat
sequence removes the remaining linear term.  Both members of each pair are
evaluated on the same grid so that quadrature error largely cancels in the
difference.  One spectral pass serves them all: each point of a grid is
diagonalized once, and both eta of a pair and every requested direction are
summed from that eigen-decomposition (only the Lorentzian depends on eta).

k-sums are accumulated with a fixed-shape pairwise (tree) reduction, making
results bit-stable under any chunked evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bloch import HoppingModel, _max_current_norm, _max_frobenius
from .cones import (
    FermiPoint,
    TwoBandIsolationFailed,
    _isolated_pair,
    _require_admissible_eps,
    characterize_cones,
    default_epsilon,
    sigma_closed_form,
)
from .lattice import KGrid, refined_grid, uniform_grid

__all__ = [
    "DegeneratePoint",
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

    def grids_for(self, model: HoppingModel, cones, eta: float):
        """(fine, companion) quadrature grids for the given eta."""
        lat = model.lattice
        half = max(self.base // 2, 2)
        fine = uniform_grid(lat, self.base, self.base)
        coarse = uniform_grid(lat, half, half)
        if not cones:
            return fine, coarse
        centers = [c.omega for c in cones]
        radii = self._radii_schedule(model, cones, eta)
        return (refined_grid(lat, fine, centers, radii),
                refined_grid(lat, coarse, centers, radii[:-1]))


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

    The strict per-point count (a level at mu is occupied), unclipped: the
    zone sums follow each point's own projector, whose count may vary (a
    metal), and a tie at mu shows as a gap below the degeneracy floor, which
    the callers refuse rather than resolve."""
    counts = (w <= mu).sum(axis=1)
    idx = np.nonzero((counts > 0) & (counts < w.shape[1]))[0]
    m = counts[idx]
    return counts, idx, w[idx, m] - w[idx, m - 1]


def _pair_sum_on_grid(model: HoppingModel, grid: KGrid, requests,
                      gate: bool) -> dict:
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
    current are formed, as V^H (J V) in two einsum steps: every formula reads
    only occupied x unoccupied elements, so no full N x N rotation or pair
    mask is built.  The Schwinger trace sums v_q^H d^2H v_q over the occupied
    columns.  The requests share that data but each keeps its own formula.
    Returns {request: weighted grid sum / (2 pi)^2} in request order.  Every
    request is checked as if evaluated alone, and the first failing one in
    request order raises: GridTooCoarse when ``gate`` is set and, for
    eta != 0, the points with Fermi gap below 4|eta| sit in cells too wide
    for that eta at the request's own current scale; RuntimeError when a
    longitudinal (j = l) f_jl per-point sum loses its nonpositive sign or a
    Schwinger trace acquires an imaginary part.  A Fermi-level degeneracy is
    the same for every request and raises DegeneratePoint.

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
        if gate:
            for e in gate_etas:
                near = spacing[sl][idx[gaps < 4.0 * e]]
                worst_spacing[e] = float(near.max(initial=worst_spacing[e]))
            for d in currents:
                jmax[d] = max(jmax[d], _max_frobenius(J[d]))
        per_k = {r: np.zeros(len(ks)) for r in requests}
        for m in np.unique(counts[counts > 0]):
            g = np.nonzero(counts == m)[0]
            Vo, Vu = V[g, :, :m], V[g, :, m:]
            # Lambda_q - Lambda_p <= -gap < 0 on the block (empty for m = N),
            # so the Lorentzian denominators never vanish, not even at eta = 0
            delta = w[g, :m, None] - w[g, None, m:]
            delta2 = delta * delta
            B, C, products, me2 = {}, {}, {}, {}
            for d in currents:
                B[d] = np.einsum("kaq,kap->kqp", Vo.conj(),
                                 np.einsum("kab,kbp->kap", J[d][g], Vu))
                C[d] = np.einsum("kap,kaq->kpq", Vu.conj(),
                                 np.einsum("kab,kbq->kaq", J[d][g], Vo))
            for r in requests:
                quantity, eta, (j, l) = r
                if quantity == "schwinger":
                    tr = np.einsum("kaq,kab,kbq->k", Vo.conj(), D2[j, l][g], Vo)
                    imag[r] = max(imag[r], float(np.abs(tr.imag).max()))
                    per_k[r][g] = tr.real
                elif quantity == "f_jl":
                    if (j, l) not in products:
                        z = C[j].transpose(0, 2, 1) * B[l]  # (J_j)_{pq} (J_l)_{qp}
                        products[j, l] = (2.0 * delta * z.real, z.imag)
                    even, z_imag = products[j, l]
                    num = even - 2.0 * eta * z_imag
                    per_k[r][g] = (num / (eta * eta + delta2)).sum(axis=(1, 2))
                else:
                    if j not in me2:
                        # |(J_j)_{pq}|^2, indexed as [q, p] via the transpose
                        me2[j] = (np.abs(C[j]) ** 2).transpose(0, 2, 1)
                    lorentz = delta / (eta * eta + delta2)
                    per_k[r][g] = 2.0 * (lorentz * me2[j]).sum(axis=(1, 2))
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
    return out


def _estimate(quantity: str, eta: float, grid: str, value: float,
              coarse: float | None) -> KuboEstimate:
    """A KuboEstimate whose quad_error is the distance to the companion
    evaluation ``coarse`` (None when there is none), floored at roundoff."""
    quad = abs(value - coarse) if coarse is not None else 0.0
    return KuboEstimate(value=value, eta=eta, quantity=quantity, grid=grid,
                        quad_error=max(quad, 1e-14 * (1.0 + abs(value))))


def _estimates(model: HoppingModel, requests, grid: KGrid,
               companion: KGrid | None, gate: bool) -> dict:
    """KuboEstimates for every _pair_sum_on_grid request from one pass over
    ``grid`` (resolution gate armed when ``gate``) and one over the
    ``companion``; {request: KuboEstimate}."""
    # the resolution gate protects the primary estimate; the companion grid
    # is deliberately coarser and serves only the error estimate
    values = _pair_sum_on_grid(model, grid, requests, gate)
    coarse = (
        _pair_sum_on_grid(model, companion, requests, False)
        if companion is not None else None
    )
    return {
        r: _estimate(r[0], r[1], grid.describe(), value,
                     coarse[r] if coarse is not None else None)
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
    if j not in (1, 2) or l not in (1, 2):
        raise ValueError("direction indices must be 1 or 2")
    r = ("f_jl", float(eta), (j, l))
    return _estimates(model, (r,), grid, companion, cones is not None)[r]


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
    if j not in (1, 2):
        raise ValueError("direction index must be 1 or 2")
    r = ("ftilde_jj", float(eta), (j, j))
    return _estimates(model, (r,), grid, companion, cones is not None)[r]


def schwinger(model: HoppingModel, j: int, l: int, grid: KGrid,
              companion: KGrid | None = None) -> KuboEstimate:
    """Schwinger term s_jl = (1/(2pi)^2) int dk Tr(d^2H/dk_j dk_l P_mu(k)).

    Independent of the current matrix elements: the trace is summed over the
    occupied eigenvectors of the grid pass shared with fjl_eta,
    sum_q <q| d^2H |q>, so s_jl = -f_jl(0+) is a genuine cross-check.  A trace
    that acquires an imaginary part raises RuntimeError.
    """
    if j not in (1, 2) or l not in (1, 2):
        raise ValueError("direction indices must be 1 or 2")
    r = ("schwinger", 0.0, (j, l))
    return _estimates(model, (r,), grid, companion, False)[r]


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
    rho, wrho = [], []
    panels = [(edges[i + 1], edges[i]) for i in range(len(edges) - 1)]
    panels.append((0.0, rho_core))
    for a, b in panels:
        rho.append(0.5 * (b - a) * gl_x + 0.5 * (a + b))
        wrho.append(0.5 * (b - a) * gl_w)
    rho = np.concatenate(rho)
    wrho = np.concatenate(wrho)

    theta = 2.0 * np.pi * (np.arange(ntheta) + 0.5) / ntheta
    wtheta = 2.0 * np.pi / ntheta

    R, T = np.meshgrid(rho, theta, indexing="ij")
    u = R[..., None] * np.stack([np.cos(T), np.sin(T)], axis=-1)
    offsets = (eps / 2.0) * u.reshape(-1, 2) @ q_inv_sqrt.T
    weights = (jac * wtheta * (R * wrho[:, None])).ravel()
    return offsets, weights


def _band_pair(model: HoppingModel, ks: np.ndarray, j: int):
    """The band pair straddling the Fermi level on a batch of momenta, and
    the current J_j assembled with H in one pass: (lam_lo, lam_hi, v_lo,
    v_hi, J), eigenvalues (M,), eigenvectors (M, N) and J (M, N, N).

    The per-point count is clipped into [1, N-1]: the cone-neighborhood
    integrals need a band pair at every node, and near omega both bands sit
    at mu to rounding, so the strict count may leave the spectrum there.
    The isolation check (every other band beyond twice the sampled window,
    else TwoBandIsolationFailed) decides whether it is the right pair."""
    mu = model.fermi_energy
    H, J = model._assemble(ks, ((), (j,)))
    w, V = _eigh(H)
    lo = np.clip((w <= mu).sum(axis=1), 1, w.shape[1] - 1) - 1
    lam_lo, lam_hi = _isolated_pair(w, lo, mu, 2.0, "shrink eps")
    rows = np.arange(w.shape[0])
    return lam_lo, lam_hi, V[rows, :, lo], V[rows, :, lo + 1], J


def _element(u: np.ndarray, J: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u|J|v> per point, for (M, N) vectors and an (M, N, N) stack."""
    return np.einsum("ka,kab,kb->k", u.conj(), J, v)


def _cone_integral(model: HoppingModel, cones, eta: float, j: int, eps,
                   ntheta: int, order: int, quantity: str, integrand) -> KuboEstimate:
    """Shared driver of the B_eps integrals: sum over cones of
    int_{B_eps} integrand(k) dk on the elliptic-polar rule, and again on a
    coarser rule (half the angles, four fewer Gauss-Legendre nodes) for the
    quadrature error.  ``integrand`` maps a batch of momenta to per-node
    values.  Checks, in order: the direction index, the empty cone list
    (zero), then eps (default_epsilon when None; ValueError /
    EpsilonTooLarge when not admissible)."""
    if j not in (1, 2):
        raise ValueError("direction index must be 1 or 2")
    if not cones:
        return KuboEstimate(0.0, float(eta), quantity, "empty domain", 0.0)
    if eps is None:
        eps = default_epsilon(cones, model.lattice)
    _require_admissible_eps(cones, model.lattice, eps)

    def evaluate(nt: int, og: int) -> float:
        terms = []
        for cone in cones:
            offsets, wq = _elliptic_polar_nodes(cone, eps, eta, nt, og)
            terms.append(integrand(cone.omega[None, :] + offsets) * wq)
        return _tree_sum(np.concatenate(terms))

    return _estimate(quantity, float(eta),
                     f"elliptic-polar {ntheta} angles, GL{order} radial panels",
                     evaluate(ntheta, order),
                     evaluate(max(8, ntheta // 2), max(4, order - 4)))


def fjj_sing(model: HoppingModel, cones, eta: float, j: int,
             eps: float | None = None, ntheta: int = 64,
             order: int = 12) -> KuboEstimate:
    """Singular (cone-neighborhood) part of the longitudinal response:

        (2/(2pi)^2) sum_l int_{B_eps^(l)} dk
            (Lambda_- - Lambda_+) / (eta^2 + (Lambda_- - Lambda_+)^2)
            |<lower| J_j |upper>|^2,

    restricted exactly to the two bands straddling the Fermi level.  Even in
    eta.  An empty cone list integrates over an empty domain (zero).  Raises
    EpsilonTooLarge / TwoBandIsolationFailed when eps is not admissible.
    Runs on the shared _cone_integral driver and contracts per node only the
    element <lower|J_j|upper>, never the full rotated current.
    """
    def integrand(ks):
        lam_lo, lam_hi, v_lo, v_hi, J = _band_pair(model, ks, j)
        me2 = np.abs(_element(v_lo, J, v_hi)) ** 2
        d = lam_hi - lam_lo
        return -2.0 * d / (eta * eta + d * d) * me2 / (2.0 * np.pi) ** 2

    return _cone_integral(model, cones, eta, j, eps, ntheta, order, "f_sing",
                          integrand)


def zeta_jj(model: HoppingModel, cones, eta: float, j: int,
            eps: float | None = None, ntheta: int = 64, order: int = 12,
            fd_step: float = DEFAULT_FD_STEP) -> KuboEstimate:
    """Eigenvalue-only counterpart of fjj_sing on the cone neighborhoods:

        (1/(2pi)^2) sum_l int_{B_eps^(l)} dk
            -(Lambda_+ - Lambda_-) / (eta^2 + (Lambda_+ - Lambda_-)^2)
            [ (1/2) d^2/dk_j^2 ((Lambda_+ - mu)^2 + (Lambda_- - mu)^2)
              - (dLambda_+/dk_j)^2 - (dLambda_-/dk_j)^2 ].

    First derivatives use the Hellmann-Feynman identity
    dLambda/dk_j = Re <band| dH/dk_j |band>; the second derivative of the
    squared distance-to-mu is a central finite difference (step ``fd_step``)
    of that identity.  Even in eta; independent of current matrix elements,
    which makes it a genuine cross-check of fjj_sing: the two share only the
    _cone_integral driver, and per node zeta contracts only the two slopes.
    """
    mu = model.fermi_energy

    def pair_and_slopes(ks):
        lam_lo, lam_hi, v_lo, v_hi, J = _band_pair(model, ks, j)
        return lam_lo, lam_hi, _element(v_lo, J, v_lo).real, _element(v_hi, J, v_hi).real

    def integrand(ks):
        step = fd_step * np.eye(2)[j - 1]
        lam_lo, lam_hi, slope_lo, slope_hi = pair_and_slopes(ks)
        lo_p, hi_p, slo_p, shi_p = pair_and_slopes(ks + step)
        lo_m, hi_m, slo_m, shi_m = pair_and_slopes(ks - step)
        # d/dk_j of (Lambda - mu)^2 evaluated at k +- fd_step
        dg_lo_p = 2.0 * (lo_p - mu) * slo_p
        dg_lo_m = 2.0 * (lo_m - mu) * slo_m
        dg_hi_p = 2.0 * (hi_p - mu) * shi_p
        dg_hi_m = 2.0 * (hi_m - mu) * shi_m
        d2g = (dg_lo_p - dg_lo_m + dg_hi_p - dg_hi_m) / (2.0 * fd_step)
        bracket = 0.5 * d2g - slope_lo**2 - slope_hi**2
        d = lam_hi - lam_lo
        return -d / (eta * eta + d * d) * bracket / (2.0 * np.pi) ** 2

    return _cone_integral(model, cones, eta, j, eps, ntheta, order, "zeta",
                          integrand)


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
    if any(a not in (1, 2) or b not in (1, 2) for a, b in pairs):
        raise ValueError("direction indices must be 1 or 2")
    return pairs


def sigma_kubo(model: HoppingModel, j: int | None = None, l: int | None = None,
               eta_sequence=None, grid_policy: GridPolicy | None = None,
               cones=None, directions=None) -> ConductivityReport:
    """Conductivity sigma_jl by eta -> 0 extrapolation of the response.

    ``sigma_kubo(model, j, l)`` evaluates one direction pair and
    ``sigma_kubo(model, directions=((1, 1), (2, 2)))`` several; the report
    is keyed by every pair.  For each consecutive pair of the halving eta
    sequence, f_jl is evaluated at both 2*eta and eta on one shared grid
    built for the smaller eta (so quadrature error cancels in the
    difference), giving the estimator sequence sigma_hat(eta).  That grid and
    its companion are built once per eta and each is traversed in one
    spectral pass: every point is diagonalized once, and both eta of the pair
    and every direction come from that one eigen-decomposition.  The report
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
    seq = _validate_halving(eta_sequence)
    policy = grid_policy if grid_policy is not None else GridPolicy()

    per_eta = {p: [] for p in pairs}
    sigma_hats = {p: [] for p in pairs}
    f_values = {p: {} for p in pairs}
    grid_sizes = {}
    for i in range(1, len(seq)):
        eta_hi, eta = seq[i - 1], seq[i]
        fine, comp = policy.grids_for(model, cones, eta)
        grid_sizes[eta] = len(fine)
        est = _estimates(model, [("f_jl", e, p) for e in (eta_hi, eta) for p in pairs],
                         fine, comp, True)
        for p in pairs:
            f_hi, f_lo = est["f_jl", eta_hi, p], est["f_jl", eta, p]
            f_values[p][eta] = (f_hi.value, f_lo.value)
            s_hat = (f_hi.value - f_lo.value) / eta
            s_err = (f_hi.quad_error + f_lo.quad_error) / eta
            sigma_hats[p].append(s_hat)
            per_eta[p].append((eta, s_hat, s_err))

    # with a single estimator value Richardson is not possible; report the
    # plain estimator (the convergence flag is necessarily False then)
    sigma = {
        p: richardson_extrapolate(h) if len(h) >= 2 else h[-1]
        for p, h in sigma_hats.items()
    }
    converged = {p: _converged(h) for p, h in sigma_hats.items()}
    report = ConductivityReport(
        method="kubo_extrapolation",
        sigma=sigma,
        converged=converged,
        per_eta={p: tuple(v) for p, v in per_eta.items()},
        diagnostics={
            "eta_sequence": tuple(seq),
            "f_values": f_values,
            "grid_points": grid_sizes,
            "cones": len(cones),
            "cone_residuals": tuple(c.residual for c in cones),
        },
    )
    failed = []
    for (pj, pl), h in sigma_hats.items():
        if converged[pj, pl]:
            continue
        detail = (
            f"last change {abs(h[-1] - h[-2]):.3e}"
            if len(h) >= 2
            else "only one estimator value"
        )
        failed.append(f"sigma_{pj}{pl} hat sequence {h} has not converged ({detail})")
    if failed:
        raise NotConverged("; ".join(failed), report)
    return report


def sigma_hall(model: HoppingModel, eta_sequence=None,
               grid_policy: GridPolicy | None = None) -> ConductivityReport:
    """Off-diagonal (Hall) estimate sigma_12 for gapped models.

    Refuses gapless models: requires the minimum Fermi-level gap on the
    coarse scan grid to exceed 10x the largest eta (else Gapless).  Reports
    the estimator sequence and Richardson value, plus the distance of
    2 pi sigma_12 from its nearest integer as a diagnostic (no acceptance
    value is attached to it here).
    """
    if eta_sequence is None:
        eta_sequence = default_eta_sequence(model)
    seq = _validate_halving(eta_sequence)
    policy = grid_policy if grid_policy is not None else GridPolicy()

    fine, comp = policy.grids_for(model, (), seq[-1])
    _, _, gaps = _fermi_gaps(_eigh(model.h_batch(fine.points))[0],
                             model.fermi_energy)
    min_gap = float(gaps.min(initial=np.inf))
    if min_gap <= 10.0 * max(seq):
        raise Gapless(
            f"minimum Fermi-level gap {min_gap:.6g} does not exceed 10x the "
            f"largest eta ({max(seq):.6g}); the Hall estimate needs a gapped model"
        )

    est = _estimates(model, [("f_jl", e, (1, 2)) for e in seq], fine, comp, False)
    f_values = [est["f_jl", e, (1, 2)] for e in seq]
    sigma_hats = sigma_hat_sequence(seq, [f.value for f in f_values])
    value = richardson_extrapolate(sigma_hats)
    per_eta = tuple(
        (seq[i], sigma_hats[i - 1],
         (f_values[i - 1].quad_error + f_values[i].quad_error) / seq[i])
        for i in range(1, len(seq))
    )
    return ConductivityReport(
        method="kubo_extrapolation",
        sigma={(1, 2): value},
        converged={(1, 2): _converged(sigma_hats)},
        per_eta={(1, 2): per_eta},
        diagnostics={
            "eta_sequence": tuple(seq),
            "min_gap": min_gap,
            "hall_quantum_residue": abs(
                2.0 * np.pi * value - round(2.0 * np.pi * value)
            ),
        },
    )


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
