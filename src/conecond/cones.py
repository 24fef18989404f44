"""Fermi-point detection, cone-geometry fitting, and the closed-form
longitudinal conductivity.

A conical crossing at the Fermi level is described by

    Lambda_pm(k) = mu +- |S (k - omega)| + a . (k - omega) + o(|k - omega|),

and only Q = S^T S is identifiable from band data (|S d| depends on S through
Q alone), so cones are stored as (omega, Q, a).  ``fit_cone`` reads Q off the
squared half-gap, fitted on small circles around omega as d.Q d plus a cubic
term in d shared by all circles (the next order of the expansion, e.g. the
trigonal warping of the honeycomb), so the fit residual measures only what
that expansion does not explain.  The closed-form longitudinal conductivity
of a family of such cones is

    sigma_jj = (1/16) sum_l Q_{l,jj} / sqrt(det Q_l),

with each summand manifestly invariant under S -> O S for orthogonal O.

The gap scan locates omega by Gauss-Newton on the crossing pair's 2 x 2
block of H (``minimize``): the block's traceless Pauli vector vanishes at a
crossing, and by Hellmann-Feynman its Jacobian is the Pauli vector of the
pair's block of the currents J_j = dH/dk_j, the first-order k.p expansion
(Luttinger & Kohn, Phys. Rev. 97, 869 (1955)).  The step is exact to first
order at a conical zero, so the iteration converges quadratically there.
Every N reads the block's Pauli rows from bloch._pair_rows: for two bands
the block is H itself, with no eigenvector; for more bands it is written
from one eigh of the stack.

The cone-pair rule names a cone's two bands once, at omega: the adjacent
pair of H(omega)'s eigenvalues nearest mu (_cone_pair, one eigh for every
N).  For two bands the pair is the whole spectrum, so ``fit_cone`` reads
its circles' eigenvalues from the Pauli rows.  For more bands it follows
the pair along its circles by the overlap of the states with the pair's
states at omega, while kubo's B_eps integrals read the pair's indices
through _pair_rows on every node; a third band in the sampled window is
refused as TwoBandIsolationFailed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bloch import (HoppingModel, NumericalError, _binary_exponent, _eigvals,
                    _max_current_norm, _pair_rows, _require_directions, _split, h_at)
from .lattice import (Lattice2D, _images, _midpoints, _min_cart_distance, _reduced_basis,
                      wrap_fractional)
from .spectra import AllBandsOnOneSide, _level_atol

__all__ = [
    "NoConvergence",
    "BandCrossingRegion",
    "NotConical",
    "EpsilonTooLarge",
    "TwoBandIsolationFailed",
    "FermiPoint",
    "FermiPointScan",
    "find_fermi_points",
    "fit_cone",
    "characterize_cones",
    "check_cone_condition",
    "is_quantizing",
    "sigma_closed_form",
    "b_epsilon_membership",
    "neighborhoods_disjoint",
    "fermi_point_separation",
    "default_epsilon",
]

#: default Fermi-point gap tolerance (find_fermi_points: times the spectral radius)
DEFAULT_GAP_TOL = 1e-7
#: two minima closer than this (cartesian, mod dual lattice) are one point
_DEDUP_RADIUS = 1e-6
_MAX_ISOLATED_POINTS = 16
#: the locator stops a seed after a step this small (cartesian, each
#: component), or after this many iterations
_LOCATE_XATOL = 1e-13
_LOCATE_MAXITER = 50
#: quantizing test: relative deviation of Q from a multiple of the identity
_QUANTIZING_RTOL = 1e-9


class NoConvergence(NumericalError, RuntimeError):
    """A Fermi-point search that does not converge.  Nothing raises it today:
    a seed that the Gauss-Newton locator leaves on a gapped minimum is
    reported as a warning of its scan when that gap is within 100x the
    tolerance, and dropped otherwise.  It stays exported, as ROADMAP.md
    (Direction 1) keeps it."""


class BandCrossingRegion(NumericalError):
    """Bands cross the Fermi level on a positive-measure set, not at points."""


class NotConical(NumericalError):
    """Band touching is not conical (fitted quadratic form is degenerate)."""


class EpsilonTooLarge(NumericalError):
    """The cone neighborhoods B_eps overlap; shrink eps."""


class TwoBandIsolationFailed(NumericalError):
    """A third band enters the sampled cone window (fit circles or B_eps);
    shrink the window."""


@dataclass(frozen=True)
class FermiPoint:
    """A conical Fermi-level crossing: location and fitted local geometry.

    ``omega`` is the reduced momentum of the crossing, ``Q`` the symmetric
    positive-definite quadratic form of the half-gap (energy^2 per momentum^2),
    ``tilt`` the linear coefficient of the band-center, ``residual`` the
    relative error at the smallest sampling radius of the squared-half-gap
    fit (quadratic form plus the shared cubic term, see ``fit_cone``), and
    ``gap_at_omega`` the verified gap at the located point (must fall below
    ``gap_tol``).
    Construction enforces positive-definiteness, the gap tolerance, and the
    cone condition sqrt(min eig Q) - |tilt| > 0.
    """

    omega: np.ndarray
    Q: np.ndarray
    tilt: np.ndarray
    residual: float
    gap_at_omega: float
    gap_tol: float = field(default=DEFAULT_GAP_TOL, compare=False)

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float).reshape(2).copy()
        Q = np.asarray(self.Q, dtype=float).reshape(2, 2).copy()
        tilt = np.asarray(self.tilt, dtype=float).reshape(2).copy()
        ok, margin = check_cone_condition(Q, tilt)
        if not self.gap_at_omega < self.gap_tol:
            raise ValueError(
                f"gap {self.gap_at_omega:.3e} at omega exceeds tolerance "
                f"{self.gap_tol:.3e}"
            )
        if not ok:
            raise ValueError(
                f"cone condition violated: sqrt(min eig Q) - |tilt| = {margin:.3e}"
            )
        Q = 0.5 * (Q + Q.T)
        for name, arr in (("omega", omega), ("Q", Q), ("tilt", tilt)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def lambda_star(self) -> float:
        """Smallest eigenvalue of Q."""
        return float(np.linalg.eigvalsh(self.Q)[0])


@dataclass(frozen=True)
class FermiPointScan:
    """Result of a Fermi-point search: reduced locations (sorted by
    fractional coordinates), the refined gap at each, the smallest gap seen
    anywhere (diagnostic, meaningful also when no point was found), the gap
    tolerance the points were accepted against, and human-readable warnings
    for near-threshold minima."""

    locations: tuple
    gaps: tuple
    min_gap: float
    tol: float
    warnings: tuple = ()

    def __len__(self):
        return len(self.locations)


def _occupied_band_index(model: HoppingModel, w_grid: np.ndarray) -> int:
    """Constant occupied count on a grid of ascending eigenvalue rows
    (M, N), or BandCrossingRegion.

    The majority of the strict per-point counts must fit every grid point
    by the level rule of spectra, which lets a point on a band closure count
    its level-touching eigenvalues on either side; a count that fits no such
    reading means a band crosses the Fermi level on a region.  It is one
    majority value, unlike the per-point count of kubo._fermi_gaps, because
    the gap Lambda_m - Lambda_{m-1} that the scan minimizes must be one
    continuous function over the zone.  Since the rows ascend, column c's
    number of levels <= mu is the number of points whose count exceeds c,
    so N column compares give every count's frequency; and the level rule
    fits m at every point unless some w[:, m] < mu - atol or some
    w[:, m - 1] > mu + atol, two column tests (spectra._level_atol; the
    second is "not <=", so a NaN refuses m > 0 as the counts of
    spectra._level_bounds do).
    """
    mu = model.fermi_energy
    M, N = w_grid.shape
    at_least = [M] + [np.count_nonzero(w_grid[:, c] <= mu) for c in range(N)] + [0]
    m = int(np.argmax(np.subtract(at_least[:-1], at_least[1:])))
    atol = _level_atol(w_grid)
    if ((m < N and w_grid[:, m].min() < mu - atol)
            or (m > 0 and not w_grid[:, m - 1].max() <= mu + atol)):
        raise BandCrossingRegion(
            "occupied count varies across the zone; a band crosses the "
            "Fermi level on a region rather than at isolated points"
        )
    if m == 0 or m == N:
        raise AllBandsOnOneSide(
            "Fermi level lies outside the spectrum on the scan grid"
        )
    return m


def _seed_mask(gap: np.ndarray, threshold: float) -> np.ndarray:
    """The scan's seeds on a periodic (n1, n2) gap array: the points below
    ``threshold`` whose gap is at most that of each of their 3 x 3
    neighbours, wrapping around the zone.  The gap is padded once and the
    neighbour minimum taken over nine slices of the padding."""
    n1, n2 = gap.shape
    padded = np.pad(gap, 1, mode="wrap")
    low = gap.copy()
    for di in range(3):
        for dj in range(3):
            np.minimum(low, padded[di:di + n1, dj:dj + n2], out=low)
    return (gap <= low) & (gap < threshold)


class _Located(NamedTuple):
    """What ``minimize`` returns: per seed the located momentum (S, 2) and
    the pair gap there (S,), and the gap evaluations spent on all seeds."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int


def _gauss_newton_step(model: HoppingModel, m: int, ks: np.ndarray) -> tuple:
    """(gap, step) at each momentum of ks (S, 2): the pair gap
    Lambda_m - Lambda_{m-1} and the Gauss-Newton step toward its zero.

    The pair's 2 x 2 block of H has the traceless Pauli vector d, which
    vanishes at a crossing, and by Hellmann-Feynman its Jacobian M (3 x 2)
    holds the Pauli vectors of the pair's blocks of the currents J_j; all
    are read from the pair's Pauli rows (_pair_rows), the step is -M^+ d,
    M^+ the pseudo-inverse, and the gap is 2 |d| (_split).  For two bands
    the block is H in the orbital basis, not the eigenbasis, and no
    eigenvector is formed: a change of basis rotates every Pauli vector by
    one R in SO(3), which cancels, (R M)^+ R d = M^+ d."""
    (H, J1, J2), _ = _pair_rows(model, ks, ((), (1,), (2,)), m - 1)
    r = _split(H)[1][-1]
    M = np.stack([J1[1:].T, J2[1:].T], axis=-1)                # (S, 3, j)
    return 2.0 * r, -np.einsum("sji,is->sj", np.linalg.pinv(M), H[1:])


def minimize(model: HoppingModel, m: int, seeds) -> _Located:
    """Gauss-Newton descent of the pair gap Lambda_m - Lambda_{m-1} from
    every seed (S, 2) at once (_gauss_newton_step): each iteration
    evaluates the trial points of the seeds still moving in one batch.  A
    seed takes its trial point when the gap there does not rise, and the
    step computed at it; otherwise its step is halved.  A seed stops after
    trying a step of at most _LOCATE_XATOL in every cartesian component, or
    after _LOCATE_MAXITER iterations.  The convergence is quadratic at a
    conical zero, where the residual vanishes, and at best linear at a
    gapped minimum.  Every N steps by the pair's Pauli rows, and two-band
    models take no eigendecomposition here (see _gauss_newton_step).  The
    name is the one the benchmark trace wraps to count ``nfev``."""
    k = np.array(seeds, dtype=float).reshape(-1, 2)
    gap, step = _gauss_newton_step(model, m, k)
    nfev = len(k)
    moving = np.arange(len(k))
    for _ in range(_LOCATE_MAXITER):
        if not moving.size:
            break
        trial = k[moving] + step[moving]
        g, s = _gauss_newton_step(model, m, trial)
        nfev += len(moving)
        ok = g <= gap[moving]
        last = np.abs(step[moving]).max(axis=1) <= _LOCATE_XATOL
        took = moving[ok]
        k[took], gap[took], step[took] = trial[ok], g[ok], s[ok]
        step[moving[~ok]] *= 0.5
        moving = moving[~last]
    return _Located(x=k, fun=gap, nfev=nfev)


def find_fermi_points(
    model: HoppingModel,
    coarse: int = 96,
    tol: float | None = None,
) -> FermiPointScan:
    """Locate conical band crossings at the Fermi level.

    Scans the gap across the Fermi level on a ``coarse`` x ``coarse``
    midpoint grid in one pass over its tensor structure: the grid's phase
    rows from per-axis tables (HoppingModel._grid_phases), one _eigvals
    call, the occupied count from two eigenvalue columns
    (_occupied_band_index) and the 3 x 3 minima from slices (_seed_mask).
    It then refines every local minimum below a slope-based seed
    threshold, all seeds in one batch, by the Gauss-Newton locator
    ``minimize`` on the gap between the bands m - 1 and m, m the scan's
    occupied count, until each seed's step falls to 1e-13.  Minima with
    final gap below ``tol`` (default: 1e-7 relative to the spectral radius)
    are accepted, deduplicated modulo the dual lattice, and returned sorted
    by fractional coordinates.

    Minima that plateau in (tol, 100*tol] produce warnings.  When nothing
    converges the scan is returned empty with the smallest gap seen as a
    diagnostic.
    Raises BandCrossingRegion when the gap is below tolerance on a
    positive-measure portion of the grid.
    """
    lat = model.lattice
    rho = model.spectral_radius()
    if tol is None:
        tol = DEFAULT_GAP_TOL * rho
    n = int(coarse)
    w = _eigvals(model, model._grid_phases(n, n))
    m = _occupied_band_index(model, w)
    gap = (w[:, m] - w[:, m - 1]).reshape(n, n)
    del w                                   # not held while the grid is built

    if np.count_nonzero(gap < tol) > max(4, 1e-3 * gap.size):
        raise BandCrossingRegion(
            f"gap below tolerance at {np.count_nonzero(gap < tol)} of "
            f"{gap.size} grid points"
        )

    # seed threshold: within one cell of a conical zero the gap is at most
    # about (local slope) * (cell diagonal); the slope is bounded by the
    # current-operator norms.  Only the seeds and the current sample of the
    # uniform_grid are placed, bit for bit its points: point i sits at the
    # zone coordinates (mid[i // n], mid[i % n]), and one index is placed as
    # two equal rows (as _phases places one momentum), since BLAS rounds a
    # one-row product differently
    mid = _midpoints(n)

    def grid_points(i):
        rows = np.repeat(i, 2) if i.size == 1 else i
        return (np.column_stack([mid[rows // n], mid[rows % n]]) @ lat.zone.T)[:i.size]

    jnorm = _max_current_norm(model, grid_points(np.arange(0, n * n, max(1, n * n // 512))))
    spacing = max(lat.zone_lengths) / n
    seeds = grid_points(np.flatnonzero(_seed_mask(gap, 3.0 * jnorm * spacing)))

    res = minimize(model, m, seeds)
    min_gap = min([float(gap.min()), *res.fun.tolist()])

    warnings = []
    accepted = []
    for g, k in sorted(zip(res.fun.tolist(), res.x), key=lambda c: c[0]):
        if g < tol:
            seen = [k2 for _, k2 in accepted]
            if (_min_cart_distance(lat, lat.to_zone(k)[None, :], seen, _DEDUP_RADIUS)[0]
                    > _DEDUP_RADIUS):
                accepted.append((g, k))
        elif g <= 100.0 * tol:
            warnings.append(
                f"near-threshold gap minimum {g:.3e} at k=({k[0]:.6f}, {k[1]:.6f}) "
                f"not accepted (tolerance {tol:.3e})"
            )

    if len(accepted) > _MAX_ISOLATED_POINTS:
        # a curve of Fermi-level zeros yields a refined minimum in every
        # seeded cell along it, far more than any set of isolated crossings
        raise BandCrossingRegion(
            f"{len(accepted)} distinct gap zeros found; the Fermi level is "
            "crossed on a region rather than at isolated points"
        )

    reduced = []
    for g, k in accepted:
        frac = wrap_fractional(lat.to_fractional(k))
        reduced.append((frac, g, lat.from_fractional(frac)))
    reduced.sort(key=lambda t: (t[0][0], t[0][1]))
    locations = tuple(k for _, _, k in reduced)
    gaps = tuple(g for _, g, _ in reduced)
    return FermiPointScan(locations=locations, gaps=gaps, min_gap=min_gap, tol=tol,
                          warnings=tuple(warnings))


def _cone_pair(model: HoppingModel, omega) -> tuple:
    """The cone-pair rule, from one decomposition of H(omega): (lo, gap,
    states) for the adjacent pair (w[lo], w[lo + 1]) of its eigenvalues whose
    farther member is nearest mu, with the pair's gap w[lo + 1] - w[lo] at
    omega and its two eigenvectors, the (N, 2) columns lo and lo + 1."""
    w, V = np.linalg.eigh(h_at(model, omega))
    d = np.abs(w - model.fermi_energy)
    lo = int(np.argmin(np.maximum(d[:-1], d[1:])))
    return lo, float(w[lo + 1] - w[lo]), V[:, lo:lo + 2]


def _overlap_pair(V: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Per point of an (M, N, N) eigenvector stack V, the ascending indices
    (M, 2) of the two eigenvectors with the largest weight in ``states``
    (N, 2), the cone pair's eigenvectors at omega (_cone_pair): the cone's
    bands followed along a circle by their states, so a band that crosses
    them is not named.  For N > 2 only: two bands are the pair."""
    weight = (np.abs(states.conj().T @ V) ** 2).sum(axis=1)
    return np.sort(np.argsort(weight, axis=1)[:, -2:], axis=1)


def _isolated_pair(w: np.ndarray, bands, mu: float, factor: float, remedy: str):
    """Eigenvalues (lam_lo, lam_hi) of the cone's band pair on an (M, N)
    eigenvalue stack: the bands ``bands``, an ascending index pair per point
    (M, 2) or one (2,) for every point.  The pair's largest distance from mu
    is the sampled cone window; unless every other band stays more than
    ``factor`` times that far from mu, TwoBandIsolationFailed is raised,
    naming ``remedy``.  For N > 2 only: with two bands there is no other
    band."""
    bands = np.broadcast_to(bands, (len(w), 2))
    lam_lo, lam_hi = np.take_along_axis(w, bands, axis=1).T
    others = np.ones(w.shape, dtype=bool)
    np.put_along_axis(others, bands, False, axis=1)
    third = float(np.abs(w[others] - mu).min(initial=np.inf))
    window = max(float(np.abs(lam_lo - mu).max()), float(np.abs(lam_hi - mu).max()))
    if third <= factor * window:
        raise TwoBandIsolationFailed(
            f"third band comes within {third:.3e} of the Fermi level, not more "
            f"than {factor:g}x the sampled cone window {window:.3e}; {remedy}"
        )
    return lam_lo, lam_hi


def fit_cone(
    model: HoppingModel,
    omega,
    radii=None,
    directions: int = 16,
):
    """Fit the local cone geometry (Q, tilt, residual) at a Fermi point.

    Samples the cone's band pair on circles k = omega + r(cos t, sin t) over
    ``directions`` equispaced angles and each radius, all circles in one
    decomposition.  For two bands the pair is the whole spectrum, read by
    _eigvals from the Pauli rows with no eigenvector.  For N > 2, one eigh
    of all circles gives, at each sample, the two bands whose states
    overlap most with the pair's states at omega (_cone_pair), not the two
    with its indices, so a band that crosses the cone's bands inside the
    circle is the one that is refused, radius by radius.
    The squared half-gap of all circles is fitted in one linear
    least-squares problem to

        d.Q_r d + c30 x^3 + c21 x^2 y + c12 x y^2 + c03 y^3,   d = (x, y),

    with a quadratic form (Q11, Q12, Q22) per radius and one set of cubic
    coefficients shared by every radius.  The cubic term is the next order of
    the cone's own expansion (on the honeycomb it is the trigonal warping,
    |gap|^2 = v^2 r^2 + 2 v w r^3 cos 3t + O(r^4)); sharing it across radii
    keeps it from absorbing a misfit that grows like r rather than r^3, such
    as the linear term of a displaced ``omega``.  For an even ``directions``
    the direction set is inversion-symmetric, so the odd cubic columns are
    orthogonal to the even quadratic ones and Q_r equals the quadratic-only
    fit.  The Q_r are then extrapolated linearly in r to r -> 0 from the two
    smallest radii, cancelling the leading contamination from the O(r^4)
    remainder.  The tilt is fitted per radius from the band-center
    (Lambda+ + Lambda-)/2 - mu and extrapolated the same way.

    Returns ``(Q, tilt, residual)`` where ``residual`` is the relative
    least-squares residual of the squared-half-gap fit on the smallest
    circle: what neither the quadratic form nor the shared cubic explains.
    Raises NotConical when the extrapolated Q is not positive-definite
    (quadratic or flat touching) or the smallest radius cannot resolve the
    cone (below 1e4 ulp of |omega|, or its circle's smallest pair gap within
    100x the gap at omega, capped at DEFAULT_GAP_TOL), TwoBandIsolationFailed
    (N > 2) when another band comes within 10x the sampled window of the
    Fermi level (the radii are too large), and ValueError when
    ``directions < 8`` (the residual then has no degrees of freedom, or the
    angular harmonics 0-3 alias onto each other) or when a radius is not
    positive and finite or the two smallest are equal.
    """
    lat = model.lattice
    omega = np.asarray(omega, dtype=float).reshape(2)
    if directions < 8:
        raise ValueError(
            f"need at least 8 sampling directions, got {directions}: fewer "
            "leave the fit residual no degrees of freedom"
        )
    if radii is None:
        bmin = min(lat.zone_lengths)
        radii = [2e-2 * bmin, 1e-2 * bmin, 5e-3 * bmin]
    radii = sorted(float(r) for r in radii)
    if len(radii) < 2:
        raise ValueError("need at least two radii for the r -> 0 extrapolation")
    if not all(0.0 < r < np.inf for r in radii) or radii[0] == radii[1]:
        raise ValueError("radii must be positive and finite, the two smallest "
                         f"distinct (they set the r -> 0 extrapolation), got {radii}")
    # half-offset angles around pi/4: no direction is axis-aligned, and the
    # set maps to itself under the coordinate swap k1 <-> k2 (theta ->
    # pi/2 - theta) and, for even n, under inversion, so fitted cones inherit
    # those symmetries of the model exactly rather than only approximately
    theta = np.pi / 4.0 + 2.0 * np.pi * (np.arange(directions) + 0.5) / directions
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])

    mu = model.fermi_energy
    _, gap0, states = _cone_pair(model, omega)
    nr = len(radii)
    offsets = np.concatenate([r * dirs for r in radii])
    blocks = [slice(i * directions, (i + 1) * directions) for i in range(nr)]
    # the pair on every circle from one decomposition, sliced per radius: for
    # two bands it is the whole spectrum (_eigvals); other N follow it by its
    # states and check its isolation radius by radius
    if model.norbitals == 2:
        w = _eigvals(model, model._phases(omega + offsets))
        pairs = [w[rows].T for rows in blocks]
    else:
        w, V = np.linalg.eigh(model.h_batch(omega + offsets))
        pairs = [_isolated_pair(w[rows], _overlap_pair(V[rows], states), mu, 10.0,
                                f"fit radius {r:.3e} is too large")
                 for r, rows in zip(radii, blocks)]

    # one block of rows per radius: its own quadratic-form columns, then the
    # cubic columns shared by all radii
    design = np.zeros((nr * directions, 3 * nr + 4))
    target = np.empty(nr * directions)
    tilts = []
    for i, (rows, (lam_lo, lam_hi)) in enumerate(zip(blocks, pairs)):
        d = offsets[rows]
        x, y = d[:, 0], d[:, 1]
        design[rows, 3 * i: 3 * i + 3] = np.column_stack([x * x, 2.0 * x * y, y * y])
        design[rows, 3 * nr:] = np.column_stack([x**3, x * x * y, x * y * y, y**3])
        target[rows] = (0.5 * (lam_hi - lam_lo)) ** 2
        tilt_target = 0.5 * (lam_hi + lam_lo) - mu
        tilt_coef, *_ = np.linalg.lstsq(d, tilt_target, rcond=None)
        tilts.append(tilt_coef)

    # the smallest circle must stand clear of the rounding of k at omega and of
    # the gap there (a located crossing's error; capped for points off a crossing)
    gap_r, floor = 2.0 * np.sqrt(target[:directions].min()), 100.0 * min(gap0, DEFAULT_GAP_TOL)
    if radii[0] < 1e4 * np.spacing(np.hypot(*omega)) or not gap_r > floor:
        raise NotConical(f"fit radius {radii[0]:.3e} does not resolve the cone: its circle's "
                         f"pair gap falls to {gap_r:.3e}, against {gap0:.3e} at omega")
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    misfit = design[:directions] @ coef - target[:directions]
    # norms of rows scaled by one power of two (exact): squares stay finite
    e = -_binary_exponent(target[:directions])
    resid1 = float(np.linalg.norm(np.ldexp(misfit, e))
                   / np.linalg.norm(np.ldexp(target[:directions], e)))
    (r1, r2), (c1, c2), (t1, t2) = radii[:2], coef[:6].reshape(2, 3), tilts[:2]
    coef0 = (c1 * r2 - c2 * r1) / (r2 - r1)
    tilt0 = (t1 * r2 - t2 * r1) / (r2 - r1)
    Q = np.array([[coef0[0], coef0[1]], [coef0[1], coef0[2]]])
    ev = np.linalg.eigvalsh(Q)
    # not >: a form that overflowed to inf or nan is refused too
    if not ev[0] > 1e-10 * abs(ev[1]):
        raise NotConical(
            f"extrapolated quadratic form is not finite and positive-definite "
            f"(eigenvalues {ev[0]:.3e}, {ev[1]:.3e}); band touching is not conical"
        )
    return Q, tilt0, resid1


def characterize_cones(model: HoppingModel, coarse: int = 96, radii=None) -> list:
    """Find Fermi points and fit each cone; returns a list of FermiPoint."""
    scan = find_fermi_points(model, coarse=coarse)
    points = []
    for k, g in zip(scan.locations, scan.gaps):
        Q, tilt, resid = fit_cone(model, k, radii=radii)
        points.append(FermiPoint(omega=k, Q=Q, tilt=tilt, residual=resid,
                                 gap_at_omega=g, gap_tol=scan.tol))
    return points


def check_cone_condition(Q, a) -> tuple:
    """(condition holds, margin) with margin = sqrt(min eig Q) - |a|."""
    Q = np.asarray(Q, dtype=float).reshape(2, 2)
    if np.abs(Q - Q.T).max() > 1e-12 * max(1.0, np.abs(Q).max()):
        raise ValueError("Q must be symmetric")
    ev = np.linalg.eigvalsh(Q)
    if ev[0] <= 0:
        raise ValueError("Q must be positive-definite")
    margin = float(np.sqrt(ev[0]) - np.linalg.norm(np.asarray(a, dtype=float)))
    return margin > 0, margin


def is_quantizing(Q) -> bool:
    """True iff Q is (numerically) a positive multiple of the identity,
    i.e. the cone contributes exactly 1/16 to each longitudinal direction."""
    Q = np.asarray(Q, dtype=float).reshape(2, 2)
    tr = Q[0, 0] + Q[1, 1]
    return (
        abs(Q[0, 0] - Q[1, 1]) <= _QUANTIZING_RTOL * tr
        and abs(Q[0, 1]) <= _QUANTIZING_RTOL * tr
    )


def sigma_closed_form(cones, j: int):
    """Closed-form longitudinal conductivity sigma_jj of a family of
    FermiPoints, whose Q are positive-definite by construction.

    Returns ``(sigma_jj, per_cone)`` with per-cone contributions
    Q_jj / (16 sqrt(det Q)), formed on Q scaled by a power of two (exact,
    and invisible to the ratio) so that det Q stays finite at any scale.
    """
    _require_directions(j)
    per_cone = []
    for c in cones:
        Q = np.ldexp(c.Q, -_binary_exponent(c.Q))
        per_cone.append(float(Q[j - 1, j - 1] / (16.0 * np.sqrt(np.linalg.det(Q)))))
    return float(sum(per_cone)), per_cone


def neighborhoods_disjoint(cones, lat: Lattice2D, eps: float) -> bool:
    """Sufficient disjointness check for the B_eps neighborhoods: each
    B_eps^(l) lies in a cartesian ball of radius eps/(2 sqrt(min eig Q_l)),
    so the neighborhoods are verifiably pairwise disjoint (including each
    against its own periodic images) when those balls are.  The balls are
    compared over every ordered pair of cones and the images that can come
    within two radii (Lattice2D.images), each cone's zero self-image left
    out."""
    radii = np.array([eps / (2.0 * np.sqrt(c.lambda_star)) for c in cones])
    z = lat.to_zone(np.array([c.omega for c in cones]).reshape(-1, 2))
    a, b = np.indices((len(cones),) * 2).reshape(2, -1)
    for dk in lat.images(z[b] - z[a], 2.0 * radii.max()):
        dist = np.hypot(dk[:, 0], dk[:, 1])
        if not np.all((dist > radii[a] + radii[b]) | ((a == b) & (dist == 0.0))):
            return False
    return True


def _require_admissible_eps(cones, lat: Lattice2D, eps: float) -> None:
    """Refuse a cone-neighborhood size: ValueError unless eps is positive
    and finite, EpsilonTooLarge when the B_eps neighborhoods are not
    verifiably pairwise disjoint (see neighborhoods_disjoint)."""
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not neighborhoods_disjoint(cones, lat, eps):
        raise EpsilonTooLarge(
            f"B_eps neighborhoods overlap at eps = {eps:.6g}; shrink eps"
        )


def b_epsilon_membership(cones, k, eps: float, lat: Lattice2D):
    """Index of the cone whose neighborhood B_eps contains k, or None.

    Membership is 2 sqrt(d . Q_l d) < eps with d = k - omega_l reduced
    modulo the dual lattice.  Raises EpsilonTooLarge when the neighborhoods
    are not verifiably pairwise disjoint (including each one against its own
    periodic images).
    """
    _require_admissible_eps(cones, lat, eps)
    omegas = np.array([c.omega for c in cones]).reshape(-1, 2)
    Q = np.array([c.Q for c in cones]).reshape(-1, 2, 2)
    z = lat.to_zone(np.asarray(k, dtype=float).reshape(2) - omegas)
    q = np.min([np.einsum("li,lij,lj->l", d, Q, d) for d in lat.images(z, np.inf)],
               axis=0)
    hit = np.flatnonzero(2.0 * np.sqrt(q) < eps)
    return int(hit[0]) if hit.size else None


def fermi_point_separation(cones, lat: Lattice2D) -> float:
    """Smallest cone-metric distance between distinct Fermi points (and
    between each point and its own periodic images): the scale d_F that
    bounds admissible eps from above.  Each cone's metric |S d|, S^T S = Q,
    has its own image search, over the reduced basis of (S z1, S z2) for
    the zone basis z: for a strongly anisotropic Q the nearest image need
    not be among the cartesian zone basis's 3 x 3."""
    if not cones:
        raise ValueError("need at least one cone")
    omegas = np.array([c.omega for c in cones]).reshape(-1, 2)
    best = np.inf
    for l, cone in enumerate(cones):
        S = np.linalg.cholesky(cone.Q).T
        basis, _ = _reduced_basis(*(S @ lat.zone).T)
        d = np.linalg.solve(basis, S @ (omegas - cone.omega).T).T
        dist = np.array([np.hypot(dk[:, 0], dk[:, 1])
                         for dk in _images(basis, d, np.inf)])
        dist[dist[:, l] == 0.0, l] = np.inf    # the cone itself, not an image
        best = min(best, float(dist.min()))
    return best


def default_epsilon(cones, lat: Lattice2D) -> float:
    """Default cone-neighborhood size: 0.3 of the Fermi-point separation."""
    return 0.3 * fermi_point_separation(cones, lat)
