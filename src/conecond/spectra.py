"""Dense Hermitian eigendecomposition, Fermi projectors, gaps, and the
contour-integral projector derivative.

Everything here is small-N dense linear algebra.  The Riesz-formula routines
integrate the resolvent over a rectangular contour; each edge is traversed
with a corner-graded composite trapezoid rule (node density ~ sin^6 along the
edge), which restores spectral accuracy in the presence of the corner kinks
and clusters nodes near the points where the resolvent varies fastest.

The level rule: an occupied count m fits an eigenvalue row w when
#(w < mu - atol) <= m <= #(w <= mu + atol), atol = 1e-12 (1 + max|w|), so a
level at mu to rounding counts on either side.  ``gap_at`` clips the strict
``occupied_count`` into that interval; the cone scan checks its majority count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import HoppingModel, NumericalError, dh_at, h_at

__all__ = [
    "NotHermitian",
    "AllBandsOnOneSide",
    "EigenvalueOnContour",
    "SingularResolvent",
    "GapTooSmall",
    "BandSpectrum",
    "eigh",
    "spectrum_at",
    "occupied_count",
    "gap_at",
    "fermi_projector_spectral",
    "fermi_projector_riesz",
    "projector_derivative",
]

#: relative tolerances for eigendecomposition self-checks
_RESIDUAL_RTOL = 1e-10
_HERMITICITY_RTOL = 1e-10
#: resolvent solves with condition number beyond this are rejected
_COND_LIMIT = 1e12
#: minimum distance of any eigenvalue from the Riesz contour
_CONTOUR_CLEARANCE = 1e-8


class NotHermitian(ValueError):
    """Input matrix deviates from its adjoint beyond tolerance."""


class AllBandsOnOneSide(NumericalError):
    """The Fermi level lies outside the spectrum at this momentum."""


class EigenvalueOnContour(ValueError):
    """An eigenvalue lies on (or too close to) the integration contour."""


class SingularResolvent(ValueError):
    """A resolvent solve along the contour is numerically singular."""


class GapTooSmall(ValueError):
    """Spectral gap across the Fermi level is below the required threshold."""


@dataclass(frozen=True)
class BandSpectrum:
    """Sorted eigen-pairs of a Bloch Hamiltonian at one momentum.

    ``eigenvalues`` is ascending, ``eigenvectors[:, i]`` is the unit
    eigenvector for ``eigenvalues[i]`` (orthonormal columns, each with its
    largest-magnitude entry made real and positive).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float).reshape(-1).copy()
        V = np.asarray(self.eigenvectors, dtype=complex).copy()
        if np.any(np.diff(w) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        if V.shape != (w.size, w.size):
            raise ValueError("eigenvector matrix shape must be N x N")
        w.setflags(write=False)
        V.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", V)


def _canonical_phases(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    idx = np.argmax(np.abs(V), axis=0)
    lead = V[idx, np.arange(V.shape[1])]
    return V * np.exp(-1j * np.angle(lead))[None, :]


def eigh(H: np.ndarray) -> BandSpectrum:
    """Eigendecompose a Hermitian matrix into a validated BandSpectrum.

    Raises NotHermitian when ``H`` deviates from its adjoint by more than
    1e-10 in operator norm (relative).  The result is checked against the
    input: per-vector residual and the Gram matrix must be at the 1e-10
    level, else a RuntimeError flags the decomposition as unreliable.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("expected a square matrix")
    scale = np.linalg.norm(H, ord=2)
    if np.linalg.norm(H - H.conj().T, ord=2) > _HERMITICITY_RTOL * scale:
        raise NotHermitian(
            f"matrix is not Hermitian to relative tolerance {_HERMITICITY_RTOL}"
        )
    w, V = np.linalg.eigh(H)
    V = _canonical_phases(V)
    resid = np.linalg.norm(H @ V - V * w[None, :], axis=0).max()
    gram = np.abs(V.conj().T @ V - np.eye(w.size)).max()
    if resid > _RESIDUAL_RTOL * max(scale, 1e-300) or gram > _RESIDUAL_RTOL:
        raise RuntimeError(
            f"eigendecomposition failed self-check (residual {resid:.3e}, "
            f"Gram defect {gram:.3e})"
        )
    return BandSpectrum(eigenvalues=w, eigenvectors=V)


def spectrum_at(model: HoppingModel, k) -> BandSpectrum:
    """Validated band spectrum of the Bloch Hamiltonian at momentum k."""
    return eigh(h_at(model, k))


def occupied_count(spectrum, mu: float) -> int:
    """Number of eigenvalues at or below the Fermi level."""
    if isinstance(spectrum, BandSpectrum):
        spectrum = spectrum.eigenvalues
    return int(np.count_nonzero(np.asarray(spectrum, dtype=float) <= mu))


def _level_atol(w: np.ndarray) -> float:
    """The level rule's tolerance 1e-12 (1 + max|w|) on eigenvalues w."""
    return 1e-12 * (1.0 + float(np.abs(w).max()))


def _level_bounds(w: np.ndarray, mu: float):
    """The level rule's interval (below, upto) per row of eigenvalues w."""
    atol = _level_atol(w)
    return (np.count_nonzero(w < mu - atol, axis=-1),
            np.count_nonzero(w <= mu + atol, axis=-1))


def _fermi_index(w: np.ndarray, mu: float, k) -> int:
    """m of the gap w[m] - w[m-1] at k: the strict count clipped into
    [max(below, 1), min(upto, N - 1)], else AllBandsOnOneSide."""
    below, upto = _level_bounds(w, mu)
    lo, hi = max(int(below), 1), min(int(upto), w.size - 1)
    if lo > hi:
        raise AllBandsOnOneSide(
            f"Fermi level {mu} lies outside the spectrum at k={k} "
            f"(range [{w[0]:.6g}, {w[-1]:.6g}])"
        )
    return int(np.clip(occupied_count(w, mu), lo, hi))


def gap_at(model: HoppingModel, k) -> float:
    """Spectral gap across the Fermi level, Lambda_{m+1}(k) - Lambda_m(k).

    The occupied count m follows the level rule, so at a band-closure point
    the gap is numerically zero whichever side of mu the touching levels
    land.  Raises AllBandsOnOneSide when the Fermi level genuinely lies
    outside the local spectrum.
    """
    w = spectrum_at(model, k).eigenvalues
    m = _fermi_index(w, model.fermi_energy, k)
    return float(w[m] - w[m - 1])


def fermi_projector_spectral(spectrum: BandSpectrum, mu: float) -> np.ndarray:
    """Orthogonal projector onto the eigenspaces with eigenvalue <= mu."""
    m = occupied_count(spectrum, mu)
    V = spectrum.eigenvectors[:, :m]
    return V @ V.conj().T


# -- Riesz contour machinery --------------------------------------------------

def _graded_edge(z0: complex, z1: complex, nodes: int):
    """Quadrature nodes/weights along the segment z0 -> z1.

    Composite trapezoid in a graded parameter: the arclength parameter is
    s(u) with s'(u) proportional to sin^6(pi u), so nodes cluster at both
    endpoints (7th-order spacing) and the integrand's endpoint derivatives
    are suppressed to restore fast trapezoid convergence.
    """
    u = np.linspace(0.0, 1.0, nodes)
    tw = np.full(nodes, u[1] - u[0])
    tw[0] *= 0.5
    tw[-1] *= 0.5
    two_pi_u = 2.0 * np.pi * u
    s = (
        10.0 * u
        - (15.0 / (2.0 * np.pi)) * np.sin(two_pi_u)
        + (3.0 / (2.0 * np.pi)) * np.sin(2.0 * two_pi_u)
        - (1.0 / (6.0 * np.pi)) * np.sin(3.0 * two_pi_u)
    ) / 10.0
    ds = (16.0 / 5.0) * np.sin(np.pi * u) ** 6
    zs = z0 + (z1 - z0) * s
    ws = (z1 - z0) * ds * tw
    return zs, ws


def _contour(corners, nodes: int):
    """Nodes and weights (zs, ws) of the closed polygon through ``corners``,
    each edge a graded edge of ``nodes`` nodes."""
    edges = zip(corners, corners[1:] + corners[:1])
    zs, ws = zip(*(_graded_edge(z0, z1, nodes) for z0, z1 in edges))
    return np.concatenate(zs), np.concatenate(ws)


def _resolvent_stack(H: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """(z - H)^{-1} for each z; rejects ill-conditioned solves."""
    N = H.shape[0]
    A = zs[:, None, None] * np.eye(N) - H[None, :, :]
    conds = np.linalg.cond(A)
    if np.any(conds > _COND_LIMIT):
        raise SingularResolvent(
            f"resolvent condition number {conds.max():.3e} exceeds "
            f"{_COND_LIMIT:.0e} on the contour"
        )
    return np.linalg.solve(A, np.broadcast_to(np.eye(N), A.shape))


def _default_rectangle(w: np.ndarray, mu: float):
    """Rectangle [min eigenvalue - 1, mu] x [-a, a], a = max(1, |H|)."""
    a = max(1.0, float(np.abs(w).max()))
    return float(w[0] - 1.0), float(mu), a


def _check_contour_clearance(w: np.ndarray, mu: float, rect) -> None:
    x_lo, x_hi, a = rect
    inside = (w > x_lo) & (w < x_hi)
    # real eigenvalues: distance to the rectangle boundary
    dist = np.where(
        inside,
        np.minimum(np.minimum(w - x_lo, x_hi - w), a),
        np.maximum(x_lo - w, w - x_hi),
    )
    if np.any(dist < _CONTOUR_CLEARANCE):
        raise EigenvalueOnContour(
            f"eigenvalue within {dist.min():.3e} of the contour "
            f"(clearance {_CONTOUR_CLEARANCE:.0e} required)"
        )
    if not np.array_equal(inside, w <= mu):
        raise ValueError(
            "contour must enclose exactly the eigenvalues at or below the "
            f"Fermi level (rectangle [{x_lo:.6g}, {x_hi:.6g}])"
        )


def fermi_projector_riesz(
    model: HoppingModel,
    k,
    mu: float | None = None,
    rect=None,
    nodes: int = 256,
) -> np.ndarray:
    """Fermi projector via the Riesz formula (1/2pi i) ∮ (z - H)^{-1} dz.

    The contour is the counterclockwise rectangle ``rect = (x_lo, x_hi, a)``
    in the complex plane, [x_lo, x_hi] x [-a, a]; by default x_lo is one unit
    below the lowest eigenvalue, x_hi is the Fermi level, and the half-height
    is max(1, spectral radius).  ``nodes`` counts quadrature nodes per edge
    (>= 8).  Raises EigenvalueOnContour / SingularResolvent on unsafe
    geometry and ValueError if the rectangle does not enclose exactly the
    occupied eigenvalues.
    """
    if nodes < 8:
        raise ValueError("need at least 8 nodes per edge")
    k = np.asarray(k, dtype=float).reshape(2)
    if mu is None:
        mu = model.fermi_energy
    H = h_at(model, k)
    w = np.linalg.eigvalsh(H)
    if rect is None:
        rect = _default_rectangle(w, mu)
    _check_contour_clearance(w, mu, rect)
    x_lo, x_hi, a = rect
    zs, ws = _contour([x_lo - 1j * a, x_hi - 1j * a, x_hi + 1j * a, x_lo + 1j * a], nodes)
    R = _resolvent_stack(H, zs)
    return np.tensordot(ws, R, axes=(0, 0)) / (2j * np.pi)


def projector_derivative(model: HoppingModel, k, j: int, nodes: int = 128) -> np.ndarray:
    """k-derivative of the Fermi projector via the contour formula

        dP/dk_j = (1/2pi i) ∮ (z-H)^{-1} (dH/dk_j) (z-H)^{-1} dz.

    Requires the gap across the Fermi level at k, as gap_at counts it, to
    exceed 1e-8 (else GapTooSmall).  The right contour edge runs through the
    middle of the gap and is split at the real axis so that nodes cluster
    toward the nearest eigenvalues; this keeps the quadrature accurate even
    for gaps near the threshold.
    """
    k = np.asarray(k, dtype=float).reshape(2)
    H = h_at(model, k)
    w = np.linalg.eigvalsh(H)
    m = _fermi_index(w, model.fermi_energy, k)
    gap = w[m] - w[m - 1]
    if gap <= 1e-8:
        raise GapTooSmall(
            f"gap {gap:.3e} at k={k} is at or below 1e-8; the projector "
            "derivative is not reliably defined here"
        )
    x_hi = 0.5 * (w[m - 1] + w[m])   # middle of the gap
    x_lo, _, a = _default_rectangle(w, x_hi)
    zs, ws = _contour([x_lo - 1j * a, x_hi - 1j * a, x_hi + 0j, x_hi + 1j * a,
                       x_lo + 1j * a], nodes)
    R = _resolvent_stack(H, zs)
    J = dh_at(model, k, j)
    integrand = R @ J[None, :, :] @ R
    return np.tensordot(ws, integrand, axes=(0, 0)) / (2j * np.pi)
