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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .bloch import HoppingModel, _max_current_norm, h_at
from .lattice import Lattice2D, _min_cart_distance, uniform_grid, wrap_fractional
from .spectra import AllBandsOnOneSide

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
    anywhere (diagnostic, meaningful also when no point was found), and
    human-readable warnings for near-threshold minima."""

    locations: tuple
    gaps: tuple
    min_gap: float
    warnings: tuple = ()

    def __len__(self):
        return len(self.locations)

    def __iter__(self):
        return iter(self.locations)

    def __getitem__(self, i):
        return self.locations[i]


def _occupied_band_index(model: HoppingModel, w_grid: np.ndarray) -> int:
    """Constant occupied count on a grid, or BandCrossingRegion.

    A grid point may land exactly on a band-closure point, where the
    level-touching eigenvalues make the strict count deviate at that single
    point.  Such deviations are tolerated as long as every eigenvalue on the
    "wrong side" sits at the Fermi level to within numerical precision;
    genuinely detached counts mean a band crosses the Fermi level on a
    region, which is reported as BandCrossingRegion.  The count is one
    majority value, unlike the per-point count of the Kubo kernel
    (kubo._fermi_gaps), because the gap Lambda_m - Lambda_{m-1} that the
    scan minimizes must be one continuous function over the zone.
    """
    mu = model.fermi_energy
    counts = np.count_nonzero(w_grid <= mu, axis=1)
    m = int(np.bincount(counts).argmax())
    atol = 1e-12 * (1.0 + float(np.abs(w_grid).max()))
    for idx in np.nonzero(counts != m)[0]:
        c = int(counts[idx])
        straddlers = w_grid[idx, min(c, m): max(c, m)]
        if np.abs(straddlers - mu).max() > atol:
            raise BandCrossingRegion(
                "occupied count varies across the zone; a band crosses the "
                "Fermi level on a region rather than at isolated points"
            )
    if m == 0 or m == w_grid.shape[1]:
        raise AllBandsOnOneSide(
            "Fermi level lies outside the spectrum on the scan grid"
        )
    return m


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
    falls below 1e-12.  Minima with final gap below ``tol`` (default: 1e-7
    relative to the spectral radius) are accepted, deduplicated modulo the
    dual lattice, and returned sorted by fractional coordinates.

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
            if di == 0 and dj == 0:
                continue
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
        res = minimize(
            gap_fn,
            k0,
            method="Nelder-Mead",
            options=dict(
                initial_simplex=simplex,
                xatol=1e-13,
                fatol=1e-12 * max(1.0, rho),
                maxiter=4000,
                maxfev=8000,
            ),
        )
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
    return FermiPointScan(
        locations=locations, gaps=gaps, min_gap=min_gap, warnings=tuple(warnings)
    )


def _isolated_pair(w: np.ndarray, lo, mu: float, factor: float, remedy: str):
    """Eigenvalues (w[lo], w[lo + 1]) of the band pair straddling mu, per row
    of an (M, N) eigenvalue stack (``lo`` a scalar or one index per row).

    The pair's largest distance from mu is the sampled cone window; unless
    every other band stays more than ``factor`` times that far from mu,
    TwoBandIsolationFailed is raised, naming ``remedy``."""
    rows = np.arange(w.shape[0])
    lam_lo, lam_hi = w[rows, lo], w[rows, lo + 1]
    others = np.abs(w - mu)
    others[rows, lo] = others[rows, lo + 1] = np.inf
    third = float(others.min())
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

    Samples the two Fermi-level bands on circles k = omega + r(cos t, sin t)
    over ``directions`` equispaced angles and each radius.  The squared
    half-gap of all circles is fitted in one linear least-squares problem to

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
    (quadratic or flat touching), TwoBandIsolationFailed when another band
    comes within 10x the sampled window of the Fermi level (the radii are too
    large), and ValueError when ``directions < 8`` (the residual then has no
    degrees of freedom, or the angular harmonics 0-3 alias onto each other).
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
    if radii[0] <= 0:
        raise ValueError("radii must be positive")
    # half-offset angles around pi/4: no direction is axis-aligned, and the
    # set maps to itself under the coordinate swap k1 <-> k2 (theta ->
    # pi/2 - theta) and, for even n, under inversion, so fitted cones inherit
    # those symmetries of the model exactly rather than only approximately
    theta = np.pi / 4.0 + 2.0 * np.pi * (np.arange(directions) + 0.5) / directions
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])

    # the straddling band pair: at omega itself both bands sit numerically at
    # the Fermi level, so take the occupied count from an off-center probe
    mu = model.fermi_energy
    w_probe = np.linalg.eigvalsh(h_at(model, omega + radii[0] * dirs[0]))
    m = int(np.clip(np.count_nonzero(w_probe <= mu), 1, w_probe.size - 1))

    # one block of rows per radius: its own quadratic-form columns, then the
    # cubic columns shared by all radii
    nr = len(radii)
    design = np.zeros((nr * directions, 3 * nr + 4))
    target = np.empty(nr * directions)
    tilts = []
    for i, r in enumerate(radii):
        d = r * dirs
        w = np.linalg.eigvalsh(model.h_batch(omega + d))
        lam_lo, lam_hi = _isolated_pair(w, m - 1, mu, 10.0,
                                        f"fit radius {r:.3e} is too large")
        x, y = d[:, 0], d[:, 1]
        rows = slice(i * directions, (i + 1) * directions)
        design[rows, 3 * i: 3 * i + 3] = np.column_stack([x * x, 2.0 * x * y, y * y])
        design[rows, 3 * nr:] = np.column_stack([x**3, x * x * y, x * y * y, y**3])
        target[rows] = (0.5 * (lam_hi - lam_lo)) ** 2
        tilt_target = 0.5 * (lam_hi + lam_lo) - mu
        tilt_coef, *_ = np.linalg.lstsq(d, tilt_target, rcond=None)
        tilts.append(tilt_coef)

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
    rho = model.spectral_radius()
    gap_tol = DEFAULT_GAP_TOL * max(1.0, rho) if tol is None else tol
    points = []
    for k, g in zip(scan.locations, scan.gaps):
        Q, tilt, resid = fit_cone(model, k, radii=radii, directions=directions)
        points.append(
            FermiPoint(
                omega=k,
                Q=Q,
                tilt=tilt,
                residual=resid,
                gap_at_omega=g,
                gap_tol=gap_tol,
            )
        )
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
    if j not in (1, 2):
        raise ValueError("direction index j must be 1 or 2")
    per_cone = []
    for cone in cones:
        Q = cone.Q if isinstance(cone, FermiPoint) else np.asarray(cone, dtype=float)
        det = np.linalg.det(Q)
        if det <= 0 or np.linalg.eigvalsh(Q)[0] <= 0:
            raise ValueError("each cone's Q must be positive-definite")
        per_cone.append(float(Q[j - 1, j - 1] / (16.0 * np.sqrt(det))))
    return float(sum(per_cone)), per_cone


def _cone_images(cones, lat: Lattice2D):
    """(a, b, d) over every ordered pair of cones: d holds the 3 x 3 nearest
    images of omega_b - omega_a (Lattice2D.images), with each cone's zero
    self-image left out, and a, b the cone indices of each row."""
    n = len(cones)
    a, b = np.indices((n, n)).reshape(2, -1)
    z = lat.to_zone(np.array([c.omega for c in cones]).reshape(n, 2))
    images = list(lat.images(z[b] - z[a]))
    a, b, d = np.tile(a, len(images)), np.tile(b, len(images)), np.concatenate(images)
    keep = (a != b) | d.any(axis=1)
    return a[keep], b[keep], d[keep]


def neighborhoods_disjoint(cones, lat: Lattice2D, eps: float) -> bool:
    """Sufficient disjointness check for the B_eps neighborhoods: each
    B_eps^(l) lies in a cartesian ball of radius eps/(2 sqrt(min eig Q_l)),
    so the neighborhoods are verifiably pairwise disjoint (including each
    against its own periodic images) when those balls are."""
    radii = np.array([eps / (2.0 * np.sqrt(np.linalg.eigvalsh(c.Q)[0])) for c in cones])
    a, b, d = _cone_images(cones, lat)
    return bool(np.all(np.hypot(d[:, 0], d[:, 1]) > radii[a] + radii[b]))


def _require_admissible_eps(cones, lat: Lattice2D, eps: float) -> None:
    """Refuse a cone-neighborhood size: ValueError when eps <= 0,
    EpsilonTooLarge when the B_eps neighborhoods are not verifiably pairwise
    disjoint (see neighborhoods_disjoint)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
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
    bounds admissible eps from above."""
    if not cones:
        raise ValueError("need at least one cone")
    a, b, d = _cone_images(cones, lat)
    Q = np.array([c.Q for c in cones])
    q = np.minimum(np.einsum("pi,pij,pj->p", d, Q[a], d),
                   np.einsum("pi,pij,pj->p", d, Q[b], d))
    return float(np.sqrt(q.min()))


def default_epsilon(cones, lat: Lattice2D) -> float:
    """Default cone-neighborhood size: 0.3 of the Fermi-point separation."""
    return 0.3 * fermi_point_separation(cones, lat)
