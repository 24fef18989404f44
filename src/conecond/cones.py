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

The cone-pair rule names a cone's two bands once, at omega: the adjacent
pair of H(omega)'s eigenvalues nearest mu.  ``fit_cone`` follows that pair
along its circles by the overlap of the states with the pair's states at
omega, and kubo's B_eps integrals keep the pair's indices on every node;
a third band in the sampled window is refused as TwoBandIsolationFailed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bloch import HoppingModel, _max_current_norm, _require_directions, h_at
from .lattice import (Lattice2D, _images, _min_cart_distance, _reduced_basis,
                      uniform_grid, wrap_fractional)
from .spectra import AllBandsOnOneSide, _level_bounds

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

#: default gap tolerance accepted at a Fermi point (absolute, energy units)
DEFAULT_GAP_TOL = 1e-7
#: two minima closer than this (cartesian, mod dual lattice) are one point
_DEDUP_RADIUS = 1e-6
_MAX_ISOLATED_POINTS = 16
#: quantizing test: relative deviation of Q from a multiple of the identity
_QUANTIZING_RTOL = 1e-9


class NoConvergence(RuntimeError):
    """Gap minimization plateaued above tolerance (gapped or near-critical)."""


class BandCrossingRegion(ValueError):
    """Bands cross the Fermi level on a positive-measure set, not at points."""


class NotConical(ValueError):
    """Band touching is not conical (fitted quadratic form is degenerate)."""


class EpsilonTooLarge(ValueError):
    """The cone neighborhoods B_eps overlap; shrink eps."""


class TwoBandIsolationFailed(ValueError):
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

    def __iter__(self):
        return iter(self.locations)

    def __getitem__(self, i):
        return self.locations[i]


def _occupied_band_index(model: HoppingModel, w_grid: np.ndarray) -> int:
    """Constant occupied count on a grid, or BandCrossingRegion.

    The majority of the strict per-point counts must fit every grid point
    by the level rule of spectra, which lets a point on a band closure count
    its level-touching eigenvalues on either side; a count that fits no such
    reading means a band crosses the Fermi level on a region.  It is one
    majority value, unlike the per-point count of kubo._fermi_gaps, because
    the gap Lambda_m - Lambda_{m-1} that the scan minimizes must be one
    continuous function over the zone.
    """
    mu = model.fermi_energy
    m = int(np.bincount(np.count_nonzero(w_grid <= mu, axis=1)).argmax())
    below, upto = _level_bounds(w_grid, mu)
    if np.any((below > m) | (upto < m)):
        raise BandCrossingRegion(
            "occupied count varies across the zone; a band crosses the "
            "Fermi level on a region rather than at isolated points"
        )
    if m == 0 or m == w_grid.shape[1]:
        raise AllBandsOnOneSide(
            "Fermi level lies outside the spectrum on the scan grid"
        )
    return m


class _MaxFev(Exception):
    """The evaluation budget of ``minimize`` is spent."""


@dataclass(frozen=True)
class _SimplexResult:
    x: np.ndarray
    fun: float
    nfev: int


def minimize(fun, initial_simplex, xatol, fatol, maxiter, maxfev) -> _SimplexResult:
    """Nelder-Mead simplex minimization (Nelder & Mead, Comput. J. 7, 308
    (1965)) from the (N + 1, N) ``initial_simplex``: reflection 1,
    expansion 2, contraction 1/2, shrink 1/2.

    It takes scipy.optimize.minimize(method="Nelder-Mead")'s unbounded,
    non-adaptive steps in scipy's order and expression order (scipy 1.17),
    so the same ``initial_simplex``, ``xatol``, ``fatol``, ``maxiter`` and
    ``maxfev`` give the same evaluated points and the same ``x``, ``fun``
    and ``nfev``, bit for bit; scipy is the oracle of tests/test_cones.py
    and a test dependency only.  The name stays ``minimize`` because the
    benchmark trace wraps ``cones.minimize`` and counts its ``nfev``.
    """
    sim = np.array(initial_simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFev
        nfev += 1
        return fun(np.copy(x))

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _MaxFev:
        pass
    # sorted twice, as scipy does: argsort is not stable, so a second pass
    # may reorder tied vertices
    sim, fsim = ordered(*ordered(sim, fsim))
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                # contract toward xr when it beats the worst vertex, else
                # inside; when that fails too, shrink toward the best vertex
                inside = not fxr < fsim[-1]
                xc = 0.5 * xbar + 0.5 * sim[-1] if inside else 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                if (fxc < fsim[-1]) if inside else (fxc <= fxr):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _MaxFev:
            pass
        sim, fsim = ordered(sim, fsim)
    return _SimplexResult(x=sim[0], fun=np.min(fsim), nfev=nfev)


def find_fermi_points(
    model: HoppingModel,
    coarse: int = 96,
    tol: float | None = None,
    strict: bool = False,
) -> FermiPointScan:
    """Locate conical band crossings at the Fermi level.

    Scans the gap across the Fermi level on a ``coarse`` x ``coarse``
    midpoint grid, then refines every local minimum below a slope-based seed
    threshold by derivative-free simplex minimization (the gap is non-smooth
    at a conical zero, so no derivatives are used) until the simplex step
    falls below 1e-13.  The simplex is the module's own ``minimize``, which
    repeats scipy's Nelder-Mead iterates bit for bit (scipy is its test
    oracle) without importing scipy at start-up; it keeps scipy's name
    because the benchmark trace counts its evaluations under it.  Minima
    with final gap below ``tol`` (default: 1e-7 relative to the spectral
    radius) are accepted, deduplicated modulo the dual lattice, and returned
    sorted by fractional coordinates.

    Minima that plateau in (tol, 100*tol] produce warnings.  When nothing
    converges the scan is returned empty with the smallest gap seen as a
    diagnostic; with ``strict=True`` that case raises NoConvergence instead.
    Raises BandCrossingRegion when the gap is below tolerance on a
    positive-measure portion of the grid.
    """
    lat = model.lattice
    rho = model.spectral_radius()
    if tol is None:
        tol = DEFAULT_GAP_TOL * max(1.0, rho)
    n = int(coarse)
    ks = uniform_grid(lat, n, n).points
    w = np.linalg.eigvalsh(model.h_batch(ks))
    m = _occupied_band_index(model, w)
    gap = (w[:, m] - w[:, m - 1]).reshape(n, n)

    if np.count_nonzero(gap < tol) > max(4, 1e-3 * gap.size):
        raise BandCrossingRegion(
            f"gap below tolerance at {np.count_nonzero(gap < tol)} of "
            f"{gap.size} grid points"
        )

    # seed threshold: within one cell of a conical zero the gap is at most
    # about (local slope) * (cell diagonal); the slope is bounded by the
    # current-operator norms
    jnorm = _max_current_norm(model, ks[:: max(1, ks.shape[0] // 512)])
    spacing = max(lat.zone_lengths) / n
    seed_threshold = 3.0 * jnorm * spacing

    neighbors_min = gap.copy()
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            neighbors_min = np.minimum(neighbors_min, np.roll(gap, (di, dj), (0, 1)))
    is_min = (gap <= neighbors_min) & (gap < seed_threshold)
    seeds = ks.reshape(n, n, 2)[is_min]

    def gap_fn(k):
        ww = np.linalg.eigvalsh(h_at(model, k))
        return ww[m] - ww[m - 1]

    candidates = []
    min_gap = float(gap.min())
    for k0 in seeds:
        simplex = np.array([k0, k0 + [spacing, 0.0], k0 + [0.0, spacing]])
        res = minimize(gap_fn, simplex, xatol=1e-13, fatol=1e-12 * max(1.0, rho),
                       maxiter=4000, maxfev=8000)
        candidates.append((float(res.fun), np.asarray(res.x, dtype=float)))
        min_gap = min(min_gap, float(res.fun))

    warnings = []
    accepted = []
    for g, k in sorted(candidates, key=lambda c: c[0]):
        if g < tol:
            seen = [k2 for _, k2 in accepted]
            if _min_cart_distance(lat, lat.to_zone(k)[None, :], seen)[0] > _DEDUP_RADIUS:
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

    if not accepted and strict:
        raise NoConvergence(
            f"no gap minimum reached tolerance {tol:.3e}; smallest gap seen "
            f"was {min_gap:.6e}"
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
    """The cone-pair rule: (lo, w[lo + 1] - w[lo]) for the adjacent pair
    (w[lo], w[lo + 1]) of H(omega)'s eigenvalues whose farther member is
    nearest mu, and that pair's gap at omega."""
    w = np.linalg.eigvalsh(h_at(model, omega))
    d = np.abs(w - model.fermi_energy)
    lo = int(np.argmin(np.maximum(d[:-1], d[1:])))
    return lo, float(w[lo + 1] - w[lo])


def _overlap_pair(H: np.ndarray, cone_space: np.ndarray) -> np.ndarray:
    """Per point of an (M, N, N) stack H, the ascending indices (M, 2) of the
    two eigenvectors with the largest weight in ``cone_space`` (N, 2), the
    cone pair's eigenvectors at omega: the cone's bands followed along a
    circle by their states, so a band that crosses them is not named."""
    weight = (np.abs(cone_space.conj().T @ np.linalg.eigh(H)[1]) ** 2).sum(axis=1)
    return np.sort(np.argsort(weight, axis=1)[:, -2:], axis=1)


def _isolated_pair(w: np.ndarray, bands, mu: float, factor: float, remedy: str):
    """Eigenvalues (lam_lo, lam_hi) of the cone's band pair on an (M, N)
    eigenvalue stack: the bands ``bands``, an ascending index pair per point
    (M, 2) or one (2,) for every point.  The pair's largest distance from mu
    is the sampled cone window; unless every other band stays more than
    ``factor`` times that far from mu, TwoBandIsolationFailed is raised,
    naming ``remedy``."""
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
    ``directions`` equispaced angles and each radius.  At each sample the
    pair is the two bands whose states overlap most with the pair's states
    at omega (_cone_pair), not the two with its indices, so a band that
    crosses the cone's bands inside the circle is the one that is refused.
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
    when another band comes within 10x the sampled window of the Fermi level
    (the radii are too large), and ValueError when ``directions < 8`` (the
    residual then has no degrees of freedom, or the angular harmonics 0-3
    alias onto each other) or when a radius is not positive and finite or
    the two smallest are equal.
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
    lo, gap0 = _cone_pair(model, omega)
    cone_space = np.linalg.eigh(h_at(model, omega))[1][:, lo:lo + 2]

    # one block of rows per radius: its own quadratic-form columns, then the
    # cubic columns shared by all radii
    nr = len(radii)
    design = np.zeros((nr * directions, 3 * nr + 4))
    target = np.empty(nr * directions)
    tilts = []
    for i, r in enumerate(radii):
        d = r * dirs
        H = model.h_batch(omega + d)
        lam_lo, lam_hi = _isolated_pair(np.linalg.eigvalsh(H), _overlap_pair(H, cone_space),
                                        mu, 10.0, f"fit radius {r:.3e} is too large")
        x, y = d[:, 0], d[:, 1]
        rows = slice(i * directions, (i + 1) * directions)
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
    resid1 = float(np.linalg.norm(misfit) / np.linalg.norm(target[:directions]))
    (r1, r2), (c1, c2), (t1, t2) = radii[:2], coef[:6].reshape(2, 3), tilts[:2]
    coef0 = (c1 * r2 - c2 * r1) / (r2 - r1)
    tilt0 = (t1 * r2 - t2 * r1) / (r2 - r1)
    Q = np.array([[coef0[0], coef0[1]], [coef0[1], coef0[2]]])
    ev = np.linalg.eigvalsh(Q)
    if ev[0] <= 1e-10 * abs(ev[1]):
        raise NotConical(
            f"extrapolated quadratic form is not positive-definite "
            f"(eigenvalues {ev[0]:.3e}, {ev[1]:.3e}); band touching is not conical"
        )
    return Q, tilt0, resid1


def characterize_cones(
    model: HoppingModel,
    coarse: int = 96,
    tol: float | None = None,
    radii=None,
    directions: int = 16,
) -> list:
    """Find Fermi points and fit each cone; returns a list of FermiPoint."""
    scan = find_fermi_points(model, coarse=coarse, tol=tol)
    points = []
    for k, g in zip(scan.locations, scan.gaps):
        Q, tilt, resid = fit_cone(model, k, radii=radii, directions=directions)
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
    """Closed-form longitudinal conductivity sigma_jj of a cone family.

    Returns ``(sigma_jj, per_cone)`` with per-cone contributions
    Q_jj / (16 sqrt(det Q)).
    """
    _require_directions(j)
    per_cone = []
    for cone in cones:
        Q = cone.Q if isinstance(cone, FermiPoint) else np.asarray(cone, dtype=float)
        det = np.linalg.det(Q)
        if det <= 0 or np.linalg.eigvalsh(Q)[0] <= 0:
            raise ValueError("each cone's Q must be positive-definite")
        per_cone.append(float(Q[j - 1, j - 1] / (16.0 * np.sqrt(det))))
    return float(sum(per_cone)), per_cone


def neighborhoods_disjoint(cones, lat: Lattice2D, eps: float) -> bool:
    """Sufficient disjointness check for the B_eps neighborhoods: each
    B_eps^(l) lies in a cartesian ball of radius eps/(2 sqrt(min eig Q_l)),
    so the neighborhoods are verifiably pairwise disjoint (including each
    against its own periodic images) when those balls are.  The balls are
    compared over every ordered pair of cones and the 3 x 3 nearest images
    (Lattice2D.images), each cone's zero self-image left out."""
    radii = np.array([eps / (2.0 * np.sqrt(np.linalg.eigvalsh(c.Q)[0])) for c in cones])
    z = lat.to_zone(np.array([c.omega for c in cones]).reshape(-1, 2))
    a, b = np.indices((len(cones),) * 2).reshape(2, -1)
    for d in lat.images(z[b] - z[a]):
        itself = (a == b) & ~d.any(axis=1)
        if not np.all((np.hypot(d[:, 0], d[:, 1]) > radii[a] + radii[b]) | itself):
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
    q = np.min([np.einsum("li,lij,lj->l", d, Q, d) for d in lat.images(z)], axis=0)
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
        dist = np.array([np.hypot(v[:, 0], v[:, 1]) for v in _images(basis, d)])
        dist[dist[:, l] == 0.0, l] = np.inf    # the cone itself, not an image
        best = min(best, float(dist.min()))
    return best


def default_epsilon(cones, lat: Lattice2D) -> float:
    """Default cone-neighborhood size: 0.3 of the Fermi-point separation."""
    return 0.3 * fermi_point_separation(cones, lat)
