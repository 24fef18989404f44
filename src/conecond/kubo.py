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
_pair_sum_on_grid: it decomposes each point once and evaluates every
requested quantity with its own formula, reading only the elements
between occupied and unoccupied bands.  A two-band H (N = 2, every preset)
is not diagonalized: written H = d0 + d . sigma, its eigenvalues are
d0 -+ |d| (bloch._split) and its band projectors (1 -+ n . sigma) / 2 with
n = d / |d|, so every formula is a dot or cross product of the Pauli rows
of H, the currents and d^2H, which come from one real matmul per chunk
(HoppingModel._pauli_rows, _pauli_blocks).  Other N are diagonalized by
np.linalg.eigh, each current rotated into its occupied x unoccupied
blocks by einsums (_blocks).  Its B_eps counterpart,
_cone_pass, serves f_sing and zeta: per rule, eta and cone it builds the
elliptic-polar nodes and decomposes them once, and each node contracts
only the elements of the cone's band pair its formula needs.

The B_eps band pair (_band_pair) takes the same form for every N: the
pair's Pauli rows in H and the currents (bloch._pair_rows, for two bands
one _pauli_rows call) are split into the pair d0 -+ r, and each current's
three numbers that f_sing and zeta read are |m_j x n|^2 and a_j -+ m_j . n.
So no two-band eigenvector is formed on the Kubo route; for N > 2 the grid
kernel and the pair rows each take one np.linalg.eigh.

Conductivity extraction uses the pair estimator

    sigma_hat(eta) = (f(2 eta) - f(eta)) / eta,

which cancels the unknown f(0+) exactly; for f = f(0+) + sigma eta + c eta^2
it returns sigma + 3 c eta, so a final Richardson step over the sigma_hat
sequence removes the remaining linear term.  Both members of each pair are
evaluated on the same grid so that quadrature error largely cancels in the
difference.  One spectral pass serves them all: each point of a grid is
decomposed once, and every eta and direction summed on that grid come
from that decomposition (only the Lorentzian depends on eta).  One
eta loop, _eta_sweep, serves sigma_kubo, sigma_hall and verify (whose
value-only requests join its fine grids), and it decomposes each cell of
its grids once: the grids of a sweep share their unsplit base cells and
shell rings (without cones each base's grids are one uniform grid), so
each grid is an ordered list of parts (GridPolicy._parts), each part goes
through _pair_sum_on_grid once with the requests of every grid holding it,
and a grid's value is the sum of its parts' sums, checked as a pass over
the whole grid would be (_checked).  The grids come from GridPolicy, sized
in momentum units by the resolution gate of _checked that they must pass,
so scaling every hopping and eta alike, or stretching the lattice, changes
neither the grid sizes nor sigma.  Their finest core follows each cone's
gate ellipse in its metric Q, the graded shell around it a cartesian disk
(see GridPolicy).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bloch import (HoppingModel, NumericalError, _max_current_norm, _max_frobenius,
                    _pair_rows, _require_directions, _split)
from .cones import (
    FermiPoint,
    _cone_pair,
    _isolated_pair,
    _require_admissible_eps,
    characterize_cones,
    default_epsilon,
    sigma_closed_form,
)
from .lattice import KGrid, _cell_grid, _refine_level, refined_grid, uniform_grid

__all__ = [
    "DegeneratePoint",
    "FdStepTooLarge",
    "GridTooCoarse",
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

#: grid points with Fermi-level gap below this times the model's largest
#: hopping entry (HoppingModel._max_hopping) are rejected as degenerate
_DEGENERACY_FLOOR = 1e-12
#: finite-difference step for eigenvalue second derivatives (zeta integrand)
DEFAULT_FD_STEP = 1e-5
#: zeta_jj refuses a step above this fraction of the B_eps node scale
#: eps / (2 sqrt(lambda_max(Q))); at the bound the central difference moves
#: zeta by 0.1-0.25% on the presets, at 1e-3 of it by ~2e-7
_MAX_FD_STEP_FRACTION = 0.1
#: the B_eps integrals' elliptic-polar rules (angles, Gauss-Legendre order):
#: the fine rule gives each value, the coarse one its quadrature error
_FINE_RULE, _COARSE_RULE = (64, 12), (32, 8)
#: chunk size for batched decompositions (memory control: a chunk holds its
#: phase matrix, H, the currents, their band blocks and the requests'
#: per-point values at once)
_CHUNK = 4096
#: convergence of the sigma_hat sequence: 2% relative, with a small absolute
#: floor so that estimates decaying to zero (gapped models) can converge
_CONV_RTOL = 0.02
_CONV_ATOL = 1e-4
#: the resolution gate of _checked: at the points whose Fermi gap is
#: below _GATE_WINDOW |eta|, cell spacing x current slope must stay at most
#: |eta| / _GATE_CELL, so that each cell resolves the width-eta Lorentzian
_GATE_WINDOW = 4.0
_GATE_CELL = 4.0
#: GridPolicy's refinement schedule, sized by that gate (see its docstring).
#: _CORE_MARGIN covers the bands' curvature away from a cone: the gate region
#: of the presets reaches up to 1.09x the conical disk at grid eta <= 0.1
#: (1.29x at eta = 0.2 on the honeycomb).  _SPACING_MARGIN covers the current
#: norm of a 48 x 48 sample against the grid's own, which the gate reads.
_OUTER_RADIUS_FACTOR = 0.35
_CORE_MARGIN = 1.25
_SPACING_MARGIN = 1.5
_MAX_LEVELS = 18


class DegeneratePoint(NumericalError):
    """A grid point carries a Fermi-level band degeneracy; the occupied/
    unoccupied split is undefined there."""


class GridTooCoarse(NumericalError):
    """Grid spacing near a cone cannot resolve the Lorentzian of width eta."""


class Gapless(NumericalError):
    """Operation requires a gapped model but cones/near-closures were found."""


class FdStepTooLarge(NumericalError):
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


def default_eta_sequence(model: HoppingModel, count: int = 5) -> list:
    """Halving eta sequence tied to the model energy scale:
    {0.2, 0.1, 0.05, ...} x (spectral radius / 10)."""
    scale = model.spectral_radius() / 10.0
    return [0.2 * scale / 2**i for i in range(count)]


@dataclass(frozen=True)
class GridPolicy:
    """Momentum-grid construction for Lorentzian-resolving integrals.

    A uniform ``base`` x ``base`` midpoint grid is refined around the cone
    locations over the radii R_level = max(R_outer / 2^level, R_core), with
    R_outer 0.35 times the smaller zone-basis norm.  R_core and the number
    of levels come from the resolution gate the grid must pass
    (GridTooCoarse: at Fermi gaps below 4|eta|, spacing x max|dH| <=
    |eta|/4).  The grid for eta also serves f(2 eta), whose gate inspects
    gaps below 4 (2 eta): sqrt(d^T Q d) < 4 eta near a cone (gap
    2 sqrt(d^T Q d)).  So the core levels, of radius R_core = 1.25 x 4 eta /
    sqrt(lambda*) (lambda* the least eigenvalue of the cones' Q), measure
    cone c in the metric Q_c / lambda* >= 1 and split the ellipse
    sqrt(d^T Q_c d) < 5 eta (1.25 covers the bands' curvature), not the
    disk the softest axis sets (twice the area for Q = diag(4, 1)).  The
    graded shell, which avoids a resolution cliff at the core, stays a
    cartesian disk of momenta taken from the zone: an elliptic shell lost
    accuracy (checkerboard sigma_11 error 1.5e-4 -> 3.2e-4).  Levels (at
    most 18, or GridTooCoarse) are added until the spacing is at most
    eta / (1.5 x 4 max|dH|), the gate's bound with a margin of 1.5 for
    max|dH| over a 48 x 48 sample.  Both lengths are momenta, so scaling
    every hopping and eta alike leaves the grids as they are, and stretching
    the lattice stretches them with it.  Only ``base`` is set per run.

    ``grids_for`` also returns a coarsened companion (half the base
    subdivision, the schedule without its last radius; both uniform without
    cones) whose difference against the fine result serves as the
    quadrature-error estimate.  One ``_layouts`` call gives every grid of
    a sweep its (base, shell radii, core radii), and every grid is built as
    parts (``_parts``), which grids_for joins and the eta sweep sums part by
    part: the shell radii R_outer / 2^level do not depend on eta, so the
    shell of every schedule is a prefix of the longest, and per base
    subdivision one walk down those shell levels yields each level's
    unsplit cells once, for every grid whose shell reaches it, and each
    grid's tail, the walk's frontier where its shell ends refined over its
    core radii.
    """

    base: int = 96

    def _layouts(self, model: HoppingModel, cones, etas) -> list:
        """Per eta of ``etas`` the (fine, companion) layouts (n, shell radii,
        core radii): the fine grid's base subdivision and refinement radii,
        those above R_core the shell and the rest, equal to it, the core, and
        the companion's, half the base and the radii without the last.  The
        max|dH| sample, lambda* and R_outer are taken once per call.  Without
        cones every schedule is empty; an eta needing more levels than
        _MAX_LEVELS raises GridTooCoarse."""
        half = max(self.base // 2, 2)
        if not cones:
            return [((self.base, [], []), (half, [], [])) for _ in etas]
        lat = model.lattice
        jmax = _max_current_norm(model, uniform_grid(lat, 48, 48).points)
        lam_sqrt = np.sqrt(min(c.lambda_star for c in cones))
        r_outer = _OUTER_RADIUS_FACTOR * min(lat.zone_lengths)
        layouts = []
        for eta in etas:
            r_core = _CORE_MARGIN * _GATE_WINDOW * eta / lam_sqrt
            target = eta / (_SPACING_MARGIN * _GATE_CELL * jmax)
            spacing = max(lat.zone_lengths) / self.base
            radii = []
            while spacing > target and len(radii) < _MAX_LEVELS:
                radii.append(max(r_outer / 2 ** (len(radii) + 1), r_core))
                spacing /= 2.0
            if spacing > target:
                raise GridTooCoarse(f"grid spacing {spacing:.3e} after {_MAX_LEVELS} levels "
                                    f"exceeds the target {target:.3e} at eta = {eta:.3e}")
            shell = [r for r in radii if r > r_core]
            layouts.append(((self.base, shell, radii[len(shell):]),
                            (half, shell[:len(radii) - 1], radii[len(shell):-1])))
        return layouts

    @staticmethod
    def _parts(model: HoppingModel, cones, layouts):
        """The grids of ``layouts`` [(n, shell radii, core radii)] (_layouts)
        as parts: yields (part KGrid, the indices of the layouts whose grid
        holds it).  A grid is the n x n uniform grid refined around the cones
        over its shell radii, then over its core radii in each cone's metric
        Q / lambda*, and its cells, weights and order are its parts' in the
        order yielded.  Per base n one walk goes down the longest shell from
        the uniform grid, one _refine_level per radius: a level's unsplit
        cells are one part, held by every grid whose shell reaches that
        level, and where a grid's shell ends its tail, the frontier refined
        over its core radii by refined_grid (the frontier itself without core
        levels), is another, held by every grid with that shell and core.
        Without cones every schedule is empty, so each base yields its
        uniform grid once, held by all its grids.  A part is yielded as soon
        as it is cut, and the walk keeps only its frontier."""
        lat = model.lattice
        lam = min((c.lambda_star for c in cones), default=1.0)
        centers = [c.omega for c in cones]
        factors = [np.linalg.cholesky(c.Q / lam) for c in cones]
        for n in dict.fromkeys(n for n, _, _ in layouts):
            mine = [i for i, (m, _, _) in enumerate(layouts) if m == n]
            grid = uniform_grid(lat, n, n)
            shell = max((layouts[i][1] for i in mine), key=len)
            assert all(layouts[i][1] == shell[:len(layouts[i][1])] for i in mine)
            for depth in range(len(shell) + 1):
                tails = {}
                for i in mine:
                    _, own, core = layouts[i]
                    if len(own) == depth:
                        tails.setdefault(tuple(core), []).append(i)
                for core, held in tails.items():
                    yield (refined_grid(lat, grid, centers, (), core, factors)
                           if core else grid), held
                if depth < len(shell):
                    kept, cells = _refine_level(lat, (grid.frac, grid.size, grid.weights),
                                                centers, shell[depth])
                    yield _cell_grid(lat, n, n, kept), [i for i in mine
                                                        if len(layouts[i][1]) > depth]
                    grid = _cell_grid(lat, n, n, cells)

    def grids_for(self, model: HoppingModel, cones, eta: float):
        """(fine, companion) quadrature grids for the given eta, each the
        cells of its _parts joined in order."""
        layouts = self._layouts(model, cones, [eta])[0]
        cells = [[] for _ in layouts]
        for part, held in self._parts(model, cones, layouts):
            for i in held:
                cells[i].append((part.frac, part.size, part.weights))
        return tuple(_cell_grid(model.lattice, n, n, [np.concatenate(a) for a in zip(*c)])
                     for (n, _, _), c in zip(layouts, cells))


# -- frequency-domain grid integrals ----------------------------------------

def _grid_spacing_cart(grid: KGrid) -> np.ndarray:
    """Per-point cartesian cell extent (max over the two cell edges)."""
    z1, z2 = grid.lattice.zone_lengths
    return np.maximum(grid.size[:, 0] * z1, grid.size[:, 1] * z2)


def _fermi_gaps(w: np.ndarray, mu: float):
    """Occupied-band counts of an (M, N) eigenvalue stack and the Fermi-level
    gaps w[m] - w[m-1] at the points ``idx`` with bands on both sides of mu:
    (counts, idx, gaps).

    The strict per-point count (a level at mu is occupied), not spectra's
    level rule and not clipped: the zone sums follow each point's own
    projector, whose count may vary (a metal), and a point on a crossing has
    no projector to sum, so a tie at mu shows as a gap below the degeneracy
    floor, which the callers refuse (DegeneratePoint) rather than resolve."""
    N = w.shape[1]
    below = w <= mu
    # one add per band column and flat gathers: faster than a sum along
    # rows of N booleans and 2-D fancy indexing
    counts = np.zeros(len(w), np.intp)
    for n in range(N):
        counts += below[:, n]
    idx = np.nonzero((counts > 0) & (counts < N))[0]
    top = idx * N + counts[idx]
    flat = w.ravel()
    return counts, idx, flat[top] - flat[top - 1]


def _blocks(w: np.ndarray, V: np.ndarray, m: int, J: dict, D2: dict,
            pairs, squares) -> tuple:
    """What the grid kernel's formulas read at points with m occupied bands,
    from their eigenvalues w (M, N), eigenvector columns V (M, N, N),
    currents J {d: (M, N, N)} and Hessians D2 {(j, l): (M, N, N)}: (Delta,
    z, me2, traces).  Over the m x (N - m) pairs (q occ, p unocc), flattened
    in [q, p] order: Delta = Lambda_q - Lambda_p; for each (j, l) in
    ``pairs`` z = (Re, Im) of (J_j)_{pq} (J_l)_{qp}, and for each j in
    ``squares`` me2 = |(J_j)_{pq}|^2, with B_l = (J_l)_{qp} from
    V_occ^H J_l V_unocc and C_j = (J_j)_{pq} from V_unocc^H J_j V_occ, each
    as V^H (J V) in two einsum steps; per Hessian the occupied trace
    sum_q v_q^H d^2H v_q."""
    M = len(w)
    Vo, Vu = V[:, :, :m], V[:, :, m:]
    delta = (w[:, :m, None] - w[:, None, m:]).reshape(M, -1)
    B = {d: np.einsum("kaq,kap->kqp", Vo.conj(),
                      np.einsum("kab,kbp->kap", J[d], Vu)).reshape(M, -1)
         for d in {l for _, l in pairs}}
    Ct = {d: np.einsum("kap,kaq->kqp", Vu.conj(),
                       np.einsum("kab,kbq->kaq", J[d], Vo)).reshape(M, -1)
          for d in {j for j, _ in pairs} | set(squares)}
    z = {}
    for j, l in pairs:
        zjl = Ct[j] * B[l]
        z[j, l] = (zjl.real, zjl.imag)
    me2 = {j: np.abs(Ct[j]) ** 2 for j in squares}
    traces = {p: np.einsum("kaq,kab,kbq->k", Vo.conj(), Dp, Vo) for p, Dp in D2.items()}
    return delta, z, me2, traces


def _dot(u: tuple, v: tuple) -> np.ndarray:
    """Per-point dot product of two 3-vectors of flat arrays."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u: tuple, v: tuple) -> tuple:
    """Per-point cross product of two 3-vectors of flat arrays."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _pauli_blocks(w: np.ndarray, split: tuple, J: dict, D2: dict, pairs,
                  squares) -> tuple:
    """_blocks for two bands with the lower one occupied (N = 2, m = 1),
    with no eigenvector and no complex product, one value per point, from
    the Pauli rows of J_j = a_j + m_j . sigma and d^2H = D0 + D . sigma.  With
    H's split (dx, dy, dz, r) (_split), n = d / r is the upper band's unit
    Bloch vector, so the band projectors are (1 -+ n . sigma) / 2, and

        (J_j)_{pq} (J_l)_{qp} = m_j . m_l - (m_j . n)(m_l . n)
                                + i n . (m_j x m_l),
        |(J_j)_{pq}|^2 = |m_j x n|^2,      occupied trace = D0 - n . D.

    Delta = w_0 - w_1 = -2r.  By Lagrange's identity |m_j x n|^2 is the
    real part at l = j; it is written as the cross product so that
    ftilde_jj's formula stays independent of fjl_eta's, and the imaginary
    part at l = j, identically zero, is not formed."""
    n = tuple(x / split[3] for x in split[:3])
    m = {d: Jd[1:] for d, Jd in J.items()}
    along = {d: _dot(v, n) for d, v in m.items()}
    z = {}
    for j, l in pairs:
        re = _dot(m[j], m[l]) - along[j] * along[l]
        z[j, l] = (re, None if j == l else _dot(n, _cross(m[j], m[l])))
    me2 = {}
    for j in squares:
        c = _cross(m[j], n)
        me2[j] = _dot(c, c)
    traces = {p: Dp[0] - _dot(n, Dp[1:]) for p, Dp in D2.items()}
    return w[:, 0] - w[:, 1], z, me2, traces


def _point_values(rows, w: np.ndarray, counts: np.ndarray, basis, J: dict,
                  D2: dict, out=None) -> tuple:
    """Every request of ``rows`` at every point of a chunk: the per-point
    values (R, M) in row order and, per row, the largest |imaginary part| of
    a Schwinger trace (0 for other rows), in ``out`` when given.  From the
    chunk's eigenvalues w (M, N), occupied counts, H's decomposition
    ``basis``, currents J {d: ...} and Hessians D2 {(j, l): ...}: _split's
    (dx, dy, dz, r) and (4, M) Pauli rows, or eigenvectors V and stacks.

    The points are grouped by their occupied count m; a point with m = 0
    adds nothing.  Two bands with m = 1 take _pauli_blocks, and with m = 2
    they have no pair and their occupied trace is 2 D0; every other group
    takes _blocks.  Every formula reads only occupied x unoccupied pairs, so
    no full N x N rotation or pair mask is built, and the requests share the
    blocks but each keeps its own formula."""
    values = np.empty((len(rows), len(w))) if out is None else out
    values.fill(0.0)
    imag = np.zeros(len(rows))
    pairs = sorted({p for q, _, p in rows if q == "f_jl"})
    squares = sorted({j for q, _, (j, _) in rows if q == "ftilde_jj"})
    two_band = isinstance(basis, tuple)
    # the occupied counts present in the chunk, ascending
    for m in np.flatnonzero(np.bincount(counts)[1:]) + 1:
        g = np.nonzero(counts == m)[0]
        if g.size == len(w):           # the whole chunk: views, not copies
            g = slice(None)
        # a point is a column of the Pauli rows, a matrix of the stacks
        at = (slice(None), g) if two_band else g
        Dg = {p: Dp[at] for p, Dp in D2.items()}
        if two_band and m == 2:
            for i, (quantity, _, p) in enumerate(rows):
                if quantity == "schwinger":
                    values[i, g] = 2.0 * Dg[p][0]
            continue
        Jg = {d: Jd[at] for d, Jd in J.items()}
        if two_band:
            found = _pauli_blocks(w[g], tuple(x[g] for x in basis), Jg, Dg, pairs, squares)
        else:
            found = _blocks(w[g], basis[g], m, Jg, Dg, pairs, squares)
        delta, z, me2, traces = found
        # Lambda_q - Lambda_p <= -gap < 0 on the block (empty for m = N),
        # so the Lorentzian denominators never vanish, not even at eta = 0
        delta2, two_delta = delta * delta, 2.0 * delta
        products, denominators = {}, {}
        for i, (quantity, eta, (j, l)) in enumerate(rows):
            if quantity == "schwinger":
                tr = traces[j, l]
                imag[i] = max(imag[i], float(np.abs(tr.imag).max(initial=0.0)))
                values[i, g] = tr.real
                continue
            if eta not in denominators:
                denominators[eta] = eta * eta + delta2
            if quantity == "f_jl":
                if (j, l) not in products:
                    re, im = z[j, l]
                    products[j, l] = (two_delta * re, im)
                even, z_imag = products[j, l]
                # z_imag is None where it vanishes identically (_pauli_blocks)
                num = even if z_imag is None else even - 2.0 * eta * z_imag
                v = num / denominators[eta]
            else:
                v = 2.0 * (delta / denominators[eta] * me2[j])
            values[i, g] = v if v.ndim == 1 else v.sum(axis=1)
    return values, imag


class _Tally(NamedTuple):
    """One request's share of a _pair_sum_on_grid pass: its weighted sum
    (before the 1 / (2 pi)^2) and what its checks read."""

    total: float
    top: float        # max per-point sum (sign check)
    scale: float      # max |per-point sum|
    imag: float       # max |Im trace| (Schwinger)
    spacing: float    # widest cell among points with Fermi gap below 4|eta|
    slope: float      # the larger of max|J_j| and max|J_l| over the pass


class _Points(NamedTuple):
    """What a _pair_sum_on_grid pass finds at its points whatever the
    requests: their count, the smallest Fermi gap (inf without one) and the
    momentum (k1, k2) of its first point with that gap."""

    size: int
    min_gap: float
    at: tuple


def _gated(request) -> bool:
    """Whether the resolution gate reads ``request`` (an eta > 0 response)."""
    quantity, eta, _ = request
    return quantity != "schwinger" and eta != 0.0


def _pair_sum_on_grid(model: HoppingModel, grid: KGrid, requests) -> tuple:
    """Every requested grid integral from one decomposition per point.

    A request is a (quantity, eta, (j, l)) key:

    - ("f_jl", eta, (j, l)): fjl_eta's pair sum over (q occ, p unocc) of
      (2 Delta Re z - 2 eta Im z) / (eta^2 + Delta^2) with the complex
      product z = (J_j)_{pq} (J_l)_{qp}, Delta = Lambda_q - Lambda_p;
    - ("ftilde_jj", eta, (j, j)): ftilde_jj's sum of
      2 Delta / (eta^2 + Delta^2) |(J_j)_{pq}|^2 over the explicit occupied
      x unoccupied index sets (eta = 0 allowed);
    - ("schwinger", 0.0, (j, l)): Tr(d^2H/dk_j dk_l P_mu).

    Per chunk, H, each needed J_d and d^2H come from one set of phase rows
    and H is decomposed once.  For two bands they are real Pauli rows from
    one matmul (HoppingModel._pauli_rows), H is only split (_split: d0 -+ r,
    the eigenvalues the B_eps band pair reads too), and every formula and
    the gate's current norm read the rows (_pauli_blocks): no eigenvector,
    no complex stack.  Other N take the stacks of HoppingModel._assemble,
    np.linalg.eigh and _blocks.
    _point_values evaluates every request at every point into one (R, M)
    array, so the maxima, the weighting and the sum run once per chunk for
    all requests; the rows and the values fill buffers of the pass.

    ``grid`` may be a whole grid or one part of one (GridPolicy._parts), so
    nothing is refused here but a non-finite eta (ValueError, before the
    pass): returns ({request: _Tally} in request order, _Points), and
    _checked sums and checks a grid's passes, gated or not; the gate's
    statistics are always taken.  From the first chunk with a Fermi gap
    below the degeneracy floor (_DEGENERACY_FLOOR x the model's largest
    hopping entry) on, nothing is summed, since every grid holding the pass
    is refused, but every chunk's gaps are still read, so _Points holds the
    smallest gap of the pass.  Each chunk's weighted values are summed per
    row and added to the pass's totals in chunk order, so no per-point array
    outlives its chunk.
    """
    requests = list(dict.fromkeys(requests))
    if not all(np.isfinite(eta) for _, eta, _ in requests):
        raise ValueError("eta must be finite")
    npts = len(grid)
    spacing = _grid_spacing_cart(grid)
    currents = sorted({d for q, _, p in requests if q != "schwinger" for d in p})
    hessians = sorted({p for q, _, p in requests if q == "schwinger"})
    gate_etas = {abs(r[1]) for r in requests if _gated(r)}
    # the f_jl rows first: the sign check reads only their maxima
    rows = sorted(requests, key=lambda r: r[0] != "f_jl")
    n_fjl = sum(q == "f_jl" for q, _, _ in rows)
    top, scale, imag = np.zeros(n_fjl), np.zeros(len(rows)), np.zeros(len(rows))
    totals = np.zeros(len(rows))
    floor = _DEGENERACY_FLOOR * model._max_hopping
    jmax = dict.fromkeys(currents, 0.0)
    worst_spacing = dict.fromkeys(gate_etas, 0.0)
    min_gap, at = np.inf, (np.nan, np.nan)
    keys = [()] + [(d,) for d in currents] + hessians
    two_band = model.norbitals == 2
    size = min(npts, _CHUNK)         # buffers of the pass, filled by every chunk
    pauli_buffer, value_buffer = np.empty(4 * len(keys) * size), np.empty(len(rows) * size)
    for lo in range(0, npts, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, npts))
        ks = grid.points[sl]
        if two_band:
            out = pauli_buffer[:4 * len(keys) * len(ks)].reshape(-1, 4, len(ks))
            H, *stacks = model._pauli_rows(ks, keys, out)
        else:
            H, *stacks = model._assemble(ks, keys)
        w, basis = _split(H) if two_band else np.linalg.eigh(H)
        J = dict(zip(currents, stacks))
        D2 = dict(zip(hessians, stacks[len(currents):]))
        counts, idx, gaps = _fermi_gaps(w, model.fermi_energy)
        if gaps.size and gaps.min() < min_gap:
            i = gaps.argmin()
            min_gap, at = float(gaps[i]), tuple(float(k) for k in ks[idx[i]])
        if min_gap < floor:
            continue
        for e in gate_etas:
            near = spacing[sl][idx[gaps < _GATE_WINDOW * e]]
            worst_spacing[e] = float(near.max(initial=worst_spacing[e]))
        for d, Jd in J.items():      # two bands: ||J||_F^2 = 2 (a^2 + |m|^2)
            jmax[d] = max(jmax[d], float(np.sqrt(2.0 * np.einsum("im,im->m", Jd, Jd).max()))
                          if two_band else _max_frobenius(Jd))
        out = value_buffer[:len(rows) * len(ks)].reshape(len(rows), len(ks))
        values, im = _point_values(rows, w, counts, basis, J, D2, out)
        most, least = values.max(axis=1, initial=0.0), values.min(axis=1, initial=0.0)
        imag = np.maximum(imag, im)
        top = np.maximum(top, most[:n_fjl])
        scale = np.maximum(scale, np.maximum(most, -least))
        values *= grid.weights[sl]
        totals += values.sum(axis=1)
    tallies = {}
    for r in requests:
        i, (_, eta, (j, l)) = rows.index(r), r
        tallies[r] = _Tally(float(totals[i]), float(top[i]) if i < n_fjl else 0.0,
                            float(scale[i]), float(imag[i]),
                            worst_spacing.get(abs(eta), 0.0),
                            max(jmax.get(j, 0.0), jmax.get(l, 0.0)))
    return tallies, _Points(npts, min_gap, at)


def _checked(requests, gate: bool, passes, floor: float) -> tuple:
    """({request: weighted grid sum / (2 pi)^2} in request order, the
    smallest Fermi-level gap or inf) of a grid from the _pair_sum_on_grid
    ``passes`` over its parts, in grid order: each request's sum is the sum
    of its parts' sums, and its checks read the maxima of their
    statistics, so a grid is refused exactly as by one pass over it whole.

    A Fermi-level degeneracy is the same for every request and raises
    DegeneratePoint first, at the smallest Fermi gap of the grid (its first
    point in grid order) when that lies below the degeneracy ``floor`` (the
    passes' own, see _pair_sum_on_grid).  Then
    every request is checked as if evaluated alone, and the first failing
    one in request order raises: GridTooCoarse when ``gate`` is set and, for
    eta != 0, the points with Fermi gap below 4|eta| sit in cells too wide
    for that eta at the request's own current scale; RuntimeError when a
    longitudinal (j = l) f_jl per-point sum loses its nonpositive sign or a
    Schwinger trace acquires an imaginary part."""
    min_gap, at = min(((p.min_gap, p.at) for _, p in passes), key=lambda g: g[0])
    if min_gap < floor:
        raise DegeneratePoint(
            f"Fermi-level degeneracy (gap {min_gap:.3e}) at grid "
            f"point k=({at[0]:.6f}, {at[1]:.6f})"
        )
    out = {}
    for r in dict.fromkeys(requests):
        _, eta, (j, l) = r
        stats = np.array([tallies[r] for tallies, _ in passes])
        top, scale, imag, spacing, slope = stats[:, 1:].max(axis=0)
        e = abs(eta)
        if gate and _gated(r) and spacing * slope > e / _GATE_CELL:
            raise GridTooCoarse(
                f"near-cone spacing {spacing:.3e} x slope {slope:.3e} "
                f"exceeds eta/{_GATE_CELL:g} = {e / _GATE_CELL:.3e}; refine the grid"
            )
        if j == l and top > 1e-12 * max(1.0, scale):
            raise RuntimeError(
                "longitudinal integrand lost its definite sign "
                f"(max {top:.3e}); numerical failure"
            )
        if imag > 1e-9 * max(1.0, scale):
            raise RuntimeError(
                f"trace of Hermitian product acquired imaginary part {imag:.3e}"
            )
        out[r] = float(stats[:, 0].sum()) / (2.0 * np.pi) ** 2
    return out, min_gap


def _grid_values(model: HoppingModel, grid: KGrid, requests, gate: bool) -> tuple:
    """The checked values of one _pair_sum_on_grid pass over the whole
    ``grid``: ({request: value}, min_gap), see _checked."""
    return _checked(requests, gate, [_pair_sum_on_grid(model, grid, requests)],
                    _DEGENERACY_FLOOR * model._max_hopping)


def _grid_sums(model: HoppingModel, cones, grids) -> list:
    """[(checked {request: value}, min_gap, size)] for the ``grids``
    [(n, shell radii, core radii, requests, gate)], each a layout of
    GridPolicy._layouts with what it carries, refused in list order as by one
    whole pass each: one _pair_sum_on_grid pass per part (GridPolicy._parts),
    carrying the requests of every grid that holds it, and each grid's
    passes summed and checked, gated or not, by _checked.  Only the parts'
    tallies are kept, not their points."""
    layouts = [(n, shell, core) for n, shell, core, _, _ in grids]
    asked = [requests for _, _, _, requests, _ in grids]
    passes = [[] for _ in grids]
    for part, held in GridPolicy._parts(model, cones, layouts):
        if len(part):
            found = _pair_sum_on_grid(model, part, [r for i in held for r in asked[i]])
            for i in held:
                passes[i].append(found)
    floor = _DEGENERACY_FLOOR * model._max_hopping
    return [(*_checked(requests, gate, p, floor), sum(points.size for _, points in p))
            for (_, _, _, requests, gate), p in zip(grids, passes)]


def _quad_error(value: float, coarse: float | None) -> float:
    """The distance of ``value`` to its companion evaluation ``coarse`` (None
    when there is none), floored at roundoff."""
    quad = abs(value - coarse) if coarse is not None else 0.0
    return max(quad, 1e-14 * (1.0 + abs(value)))


def _estimate(quantity: str, eta: float, grid: str, value: float,
              coarse: float | None) -> KuboEstimate:
    """A KuboEstimate whose quad_error is _quad_error(value, coarse)."""
    return KuboEstimate(value=value, eta=eta, quantity=quantity, grid=grid,
                        quad_error=_quad_error(value, coarse))


def _grid_estimate(model: HoppingModel, request, grid: KGrid,
                   companion: KGrid | None, gate: bool) -> KuboEstimate:
    """The KuboEstimate of one kernel ``request``: its value checked on
    ``grid`` (gated when ``gate`` is set) and, for the quadrature error, its
    value on the ``companion`` when given."""
    value = _grid_values(model, grid, (request,), gate)[0][request]
    # the resolution gate protects the primary estimate; the companion grid
    # is deliberately coarser and serves only the error estimate
    coarse = (_grid_values(model, companion, (request,), False)[0][request]
              if companion is not None else None)
    return _estimate(request[0], request[1], grid.describe(), value, coarse)


def fjl_eta(model: HoppingModel, eta: float, j: int, l: int, grid: KGrid,
            companion: KGrid | None = None, cones=None) -> KuboEstimate:
    """Current-current response f_jl(eta) on a quadrature grid.

    Frequency-domain evaluation of the damped time integral (see module
    docstring); requires a finite eta > 0.  For j = l the per-point pair sum
    is manifestly nonpositive; that sign is checked on every evaluation.  The
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
    return _grid_estimate(model, ("f_jl", float(eta), (j, l)), grid, companion,
                          cones is not None)


def ftilde_jj(model: HoppingModel, eta: float, j: int, grid: KGrid,
              companion: KGrid | None = None, cones=None) -> KuboEstimate:
    """Even-in-eta extension of the longitudinal response,

        ftilde_jj(eta) = (2/(2pi)^2) int dk sum_{q<=m<p}
                         (Lambda_q - Lambda_p) / (eta^2 + (Lambda_q-Lambda_p)^2)
                         |(J_j)_{pq}|^2.

    Deliberately a formula independent of fjl_eta — the pair sum is
    assembled from abs-squared matrix elements over the explicit
    occupied x unoccupied index sets, never from complex products (for two
    bands |m_j x n|^2 against fjl_eta's m_j . m_j - (m_j . n)^2, see
    _pauli_blocks) — so the agreement fjl_eta(eta, j, j) = ftilde_jj(eta)
    is a cross-check of the two expressions; the two share only the grid
    pass of _pair_sum_on_grid (its decomposition and the currents'
    occupied x unoccupied blocks or Pauli vectors).  eta enters only squared, making
    the function exactly even (bit-identical under eta -> -eta); eta = 0 is
    allowed for gapped models, a non-finite eta is not.  The near-crossing
    resolution gate (GridTooCoarse) is armed only when ``cones`` is passed,
    as in fjl_eta.
    """
    _require_directions(j)
    return _grid_estimate(model, ("ftilde_jj", float(eta), (j, j)), grid, companion,
                          cones is not None)


def schwinger(model: HoppingModel, j: int, l: int, grid: KGrid,
              companion: KGrid | None = None) -> KuboEstimate:
    """Schwinger term s_jl = (1/(2pi)^2) int dk Tr(d^2H/dk_j dk_l P_mu(k)).

    Independent of the current matrix elements: the trace is summed over the
    occupied bands of the grid pass shared with fjl_eta, sum_q <q| d^2H |q>
    (for two bands D0 - n . D with one band occupied and Tr d^2H with two,
    see _pauli_blocks), so s_jl = -f_jl(0+) is a genuine cross-check.  A
    trace that acquires an imaginary part raises RuntimeError.
    """
    _require_directions(j, l)
    return _grid_estimate(model, ("schwinger", 0.0, (j, l)), grid, companion, False)


# -- cone-neighborhood (B_eps) integrals -------------------------------------

@lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple:
    """The Gauss-Legendre nodes and weights of ``order`` on [-1, 1], read
    only, computed once per order."""
    rule = np.polynomial.legendre.leggauss(order)
    for arr in rule:
        arr.setflags(write=False)
    return rule


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
    gl_x, gl_w = _gauss_legendre(order)
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
    """The cone's band pair lo (cones._cone_pair) on a batch of momenta:
    (lam_lo, lam_hi, {d: (|<lo|J_d|hi>|^2, <lo|J_d|lo>, <hi|J_d|hi>)}), per
    point, for d in ``currents``.  With the Pauli rows (bloch._pair_rows)
    of the pair's blocks H = d0 + d . sigma and J_d = a_d + m_d . sigma, the
    pair is _split's d0 -+ r, and with n = d / r the three numbers are
    |m_d x n|^2 and a_d -+ m_d . n, as in _pauli_blocks; two bands form no
    eigenvector.  Where r = 0, the block is a multiple of the identity and
    n is taken as 0: the numbers stay finite, and the node's Lorentzian
    factor, proportional to lam_hi - lam_lo = 0, makes it add nothing.  For
    N > 2, TwoBandIsolationFailed is raised unless every other band stays
    beyond twice the pair's sampled window."""
    (H, *J), w = _pair_rows(model, ks, [()] + [(d,) for d in currents], lo)
    if w is not None:
        _isolated_pair(w, (lo, lo + 1), model.fermi_energy, 2.0, "shrink eps")
    pair, (dx, dy, dz, r) = _split(H)
    safe = np.where(r > 0.0, r, 1.0)
    n = (dx / safe, dy / safe, dz / safe)
    elements = {}
    for d, Jd in zip(currents, J):
        c, along = _cross(Jd[1:], n), _dot(Jd[1:], n)
        elements[d] = (_dot(c, c), Jd[0] - along, Jd[0] + along)
    return pair[:, 0], pair[:, 1], elements


def _f_sing_nodes(pair, eta: float, j: int) -> np.ndarray:
    """fjj_sing's integrand on the nodes of the _band_pair ``pair``."""
    lam_lo, lam_hi, elements = pair
    d = lam_hi - lam_lo
    return -2.0 * d / (eta * eta + d * d) * elements[j][0] / (2.0 * np.pi) ** 2


def _zeta_nodes(model: HoppingModel, ks: np.ndarray, lo: int, pair, eta: float,
                j: int, fd_step: float) -> np.ndarray:
    """zeta_jj's integrand on the nodes ``ks`` of the _band_pair ``pair``;
    the nodes shifted by +-fd_step along k_j get band pairs of their own.
    Per band, the slope dLambda/dk_j is <band| J_j |band> (_band_pair)."""
    mu, step = model.fermi_energy, fd_step * np.eye(2)[j - 1]
    # d/dk_j (Lambda - mu)^2 = 2 (Lambda - mu) dLambda/dk_j at k +- fd_step
    (lo_p, hi_p), (lo_m, hi_m) = (
        [2.0 * (lam - mu) * s for lam, s in zip(p[:2], p[2][j][1:])]
        for p in (_band_pair(model, ks + h, (j,), lo) for h in (step, -step)))
    d2g = (lo_p - lo_m + hi_p - hi_m) / (2.0 * fd_step)
    _, slope_lo, slope_hi = pair[2][j]
    bracket = 0.5 * d2g - slope_lo**2 - slope_hi**2
    d = pair[1] - pair[0]
    return -d / (eta * eta + d * d) * bracket / (2.0 * np.pi) ** 2


def _cone_pass(model: HoppingModel, cones, requests, eps,
               rules=(_FINE_RULE,), fd_step: float = DEFAULT_FD_STEP) -> tuple:
    """One {request: sum over cones of its B_eps integral} per elliptic-polar
    rule in ``rules`` (_FINE_RULE, then _COARSE_RULE if given), for requests
    ("f_sing" | "zeta", eta, (j, j)).  Checks the arguments (ValueError),
    then gives zeros without cones, then checks eps (default_epsilon when
    None), refuses with FdStepTooLarge a zeta request's fd_step above
    _MAX_FD_STEP_FRACTION of the smallest node scale eps / (2 sqrt(lambda_max
    Q)), and names each cone's band pair, once for every rule.  Per rule,
    distinct eta and cone, the nodes are built and H with every current read
    there is decomposed once; each request keeps its formula."""
    requests = list(dict.fromkeys(requests))
    _require_directions(*(d for _, _, p in requests for d in p))
    if not all(np.isfinite(eta) for _, eta, _ in requests):
        raise ValueError("eta must be finite")
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
        out.append({r: float(np.concatenate(t).sum()) for r, t in terms.items()})
    return tuple(out)


def _cone_estimate(model: HoppingModel, cones, request, eps,
                   fd_step: float = DEFAULT_FD_STEP) -> KuboEstimate:
    """The KuboEstimate of one B_eps request: one _cone_pass with the fine rule
    and, for the quadrature error, the coarse rule."""
    quantity, eta, _ = request
    fine, coarse = (v[request] for v in _cone_pass(
        model, cones, (request,), eps, (_FINE_RULE, _COARSE_RULE), fd_step))
    if not cones:
        return KuboEstimate(0.0, eta, quantity, "empty domain", 0.0)
    return _estimate(quantity, eta, "elliptic-polar %d angles, GL%d radial panels"
                     % _FINE_RULE, fine, coarse)


def fjj_sing(model: HoppingModel, cones, eta: float, j: int,
             eps: float | None = None) -> KuboEstimate:
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
    return _cone_estimate(model, cones, ("f_sing", float(eta), (j, j)), eps)


def zeta_jj(model: HoppingModel, cones, eta: float, j: int,
            eps: float | None = None, fd_step: float = DEFAULT_FD_STEP) -> KuboEstimate:
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
    two share only the band pair at the centre nodes (_band_pair, for two
    bands the split of H), and per node zeta reads only the two slopes.
    """
    return _cone_estimate(model, cones, ("zeta", float(eta), (j, j)), eps, fd_step)


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


def _conv_tol(sigma_hat: float) -> float:
    """Largest change to the last estimator ``sigma_hat`` that counts as converged."""
    return max(_CONV_RTOL * abs(sigma_hat), _CONV_ATOL)


def _converged(sigma_hats) -> bool:
    if len(sigma_hats) < 2:
        return False
    return abs(sigma_hats[-1] - sigma_hats[-2]) < _conv_tol(sigma_hats[-1])


def _unconverged(report: ConductivityReport) -> list:
    """[(pair, sigma_hat sequence, why)] for each pair whose convergence
    flag is false; ``why`` gives the last change against its tolerance."""
    out = []
    for p, steps in report.per_eta.items():
        if report.converged[p]:
            continue
        h = [s_hat for _, s_hat, _ in steps]
        why = (f"last change {abs(h[-1] - h[-2]):.3e}, tolerance {_conv_tol(h[-1]):.3e}"
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
    unconverged pairs flagged, not raised; {grid eta: {request: fine-grid
    value}}; the smallest Fermi gap of the gated fine grids).  Each step
    (2 eta, eta) has its grid pair: the fine grid carries the step's f_jl
    and then the riders of eta, gated, and its companion the f_jl.
    ``riders`` maps a grid eta to nonempty lists of value-only requests; an
    eta not visited gets its fine grid alone, with the gate off.  The grids
    are those of grids_for, all laid out by one GridPolicy._layouts call (so
    the current-norm sample is taken once for the sweep), as (n, shell radii,
    core radii, requests, gate), and _grid_sums decomposes each cell once for
    all of them: the grids share their unsplit base cells and shell rings
    (GridPolicy._parts), and each grid adds only its tail, so without cones,
    where every grid of a base is its uniform grid, the sweep takes one
    pass per base.  Each grid is refused, in the order fine, companion per
    step and then the riders' grids, exactly as by a pass over it whole."""
    seq = _validate_halving(eta_sequence)
    steps = list(zip(seq, seq[1:]))
    visited = {eta for _, eta in steps}
    alone = [e for e in riders if e not in visited]
    layouts = policy._layouts(model, cones, [eta for _, eta in steps] + alone)
    grids = []
    for step, (fine, comp) in zip(steps, layouts):
        own = [("f_jl", e, p) for e in step for p in pairs]
        grids += [(*fine, own + riders.get(step[1], []), True), (*comp, own, False)]
    grids += [(*fine, riders[e], False) for e, (fine, _) in zip(alone, layouts[len(steps):])]
    sums = _grid_sums(model, cones, grids)

    per_eta = {p: [] for p in pairs}
    sigma_hats = {p: [] for p in pairs}
    f_values = {p: {} for p in pairs}
    grid_sizes, values, min_gap = {}, {}, np.inf
    for i, (eta_hi, eta) in enumerate(steps):
        (found, gap, size), (coarse, _, _) = sums[2 * i], sums[2 * i + 1]
        min_gap = min(min_gap, gap)
        values[eta], grid_sizes[eta] = found, size
        for p in pairs:
            f_hi, f_lo = found["f_jl", eta_hi, p], found["f_jl", eta, p]
            f_values[p][eta] = (f_hi, f_lo)
            s_hat = (f_hi - f_lo) / eta
            s_err = (_quad_error(f_hi, coarse["f_jl", eta_hi, p])
                     + _quad_error(f_lo, coarse["f_jl", eta, p])) / eta
            sigma_hats[p].append(s_hat)
            per_eta[p].append((eta, s_hat, s_err))
    for eta, (found, _, _) in zip(alone, sums[2 * len(steps):]):
        values[eta] = found

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
    difference), giving the estimator sequence sigma_hat(eta).  The grids
    (a fine grid and its companion per eta, the same uniform pair for every
    eta without cones) are cut into parts that share their common cells,
    and each part is traversed in one spectral pass: every cell is
    decomposed once for every grid, eta and direction that reads it.  The report
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
        raise Gapless(f"a Fermi-level gap lies below {_GATE_WINDOW:g} eta <= "
                      f"{_GATE_WINDOW:g}x the largest eta "
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
