"""Bravais lattice geometry: direct/dual bases, fundamental cells, k grids.

Conventions
-----------
The dual basis solves a_i . b_j = 2*pi*delta_ij.  Momenta are reduced to the
fundamental dual cell by bringing their dual-basis ("fractional") coordinates
into the half-open square [-1/2, 1/2)^2, which makes the reduction
single-valued.  Grids are midpoint rules: points sit at sub-cell centers, so
high-symmetry momenta (where integrands may be singular) are never sampled
exactly by a uniform grid.

Grids and minimum-image searches use the zone basis ``Lattice2D.zone``, a
Lagrange-Gauss reduced basis of the dual lattice, so they do not depend on
which basis a model file uses (a reduced (b1, b2) is its own zone basis);
reported coordinates (``to_fractional``, ``reduce_to_cell``) use (b1, b2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DegenerateBasis",
    "Lattice2D",
    "KGrid",
    "make_lattice",
    "reduce_to_cell",
    "uniform_grid",
    "refined_grid",
]

#: relative determinant threshold below which a basis is rejected
_DEGENERACY_RTOL = 1e-12
#: zone-basis shifts to the 3 x 3 neighbouring dual cells, origin included:
#: in a reduced basis the nearest image of a wrapped displacement is among them
_IMAGE_SHIFTS = np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
#: a zone-basis reduction step must shorten a vector by more than this share
_REDUCTION_RTOL = 1e-12


def _reduced_basis(u, v):
    """Lagrange-Gauss reduced basis of the lattice spanned by (u, v), as
    columns, and its norms.  The longer vector is reduced by the shorter
    while that strictly shortens it, never swapping the two, so a reduced
    (u, v) is kept bit for bit and ties (|u +- v| = |u|) stop the loop."""
    r = [np.array(u, dtype=float), np.array(v, dtype=float)]
    while True:
        norms = [np.linalg.norm(w) for w in r]
        s = int(norms[1] < norms[0])
        step = r[1 - s] - np.round((r[1 - s] @ r[s]) / (r[s] @ r[s])) * r[s]
        if not np.linalg.norm(step) < (1.0 - _REDUCTION_RTOL) * norms[1 - s]:
            break
        r[1 - s] = step
    return np.column_stack(r), tuple(map(float, norms))


def _images(basis: np.ndarray, d):
    """The 3 x 3 images of displacements d (M, 2) given in the coordinates of
    a reduced ``basis`` (columns), one (M, 2) array per shift: d is wrapped
    into [-1/2, 1/2)^2, shifted, then mapped through ``basis``.  The basis
    is reduced, so the nearest image is among them."""
    w = wrap_fractional(d)
    for shift in _IMAGE_SHIFTS:
        yield (w + shift) @ basis.T


class DegenerateBasis(ValueError):
    """Raised when the supplied direct basis is (numerically) linearly dependent."""


@dataclass(frozen=True)
class Lattice2D:
    """A 2D Bravais lattice: direct basis (a1, a2) and dual basis (b1, b2),
    with the zone basis (columns of ``zone``) and its norms ``zone_lengths``."""

    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    # derived state
    zone: np.ndarray = field(init=False, repr=False, compare=False)
    zone_lengths: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(2).copy()
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        zone, norms = _reduced_basis(self.b1, self.b2)
        zone.setflags(write=False)
        object.__setattr__(self, "zone", zone)
        object.__setattr__(self, "zone_lengths", norms)

    @property
    def direct_matrix(self) -> np.ndarray:
        """Columns are a1, a2."""
        return np.column_stack([self.a1, self.a2])

    @property
    def dual_matrix(self) -> np.ndarray:
        """Columns are b1, b2."""
        return np.column_stack([self.b1, self.b2])

    @property
    def bz_area(self) -> float:
        """|det[b1 b2]|, the area of the fundamental dual cell."""
        return abs(float(np.linalg.det(self.dual_matrix)))

    def to_fractional(self, k) -> np.ndarray:
        """Dual-basis coordinates of cartesian momenta k (shape (2,) or (M,2))."""
        k = np.asarray(k, dtype=float)
        return np.linalg.solve(self.dual_matrix, np.atleast_2d(k).T).T.reshape(k.shape)

    def from_fractional(self, frac) -> np.ndarray:
        """Cartesian momenta from dual-basis coordinates."""
        frac = np.asarray(frac, dtype=float)
        return (np.atleast_2d(frac) @ self.dual_matrix.T).reshape(frac.shape)

    def to_zone(self, k) -> np.ndarray:
        """Zone-basis coordinates of cartesian momenta k (shape (2,) or (M,2))."""
        k = np.asarray(k, dtype=float)
        return np.linalg.solve(self.zone, np.atleast_2d(k).T).T.reshape(k.shape)

    def images(self, d):
        """Cartesian 3 x 3 images of zone-coordinate displacements d (M, 2),
        _images over the zone basis; every cartesian minimum-image search
        goes through here."""
        return _images(self.zone, d)


@dataclass(frozen=True)
class KGrid:
    """Quadrature grid over the fundamental dual cell.

    `points` are cartesian momenta at sub-cell centers; `weights` are the
    corresponding cell areas, summing to the cell area |det[b1 b2]|.  `frac`
    and `size` hold each point's zone-basis coordinates and cell side lengths
    in zone-basis units (``Lattice2D.zone``, not the user's b1, b2; used by
    local refinement and by spacing-sensitive integrators); they are
    implementation detail, not part of the quadrature contract.
    """

    lattice: Lattice2D
    n1: int
    n2: int
    points: np.ndarray
    weights: np.ndarray
    frac: np.ndarray = field(repr=False)
    size: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("points", "weights", "frac", "size"):
            v = np.asarray(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def __len__(self) -> int:
        return self.points.shape[0]

    def describe(self) -> str:
        base = f"{self.n1}x{self.n2} midpoint"
        if len(self) != self.n1 * self.n2:
            base += f", refined to {len(self)} cells"
        return base


def make_lattice(a1, a2) -> Lattice2D:
    """Build a lattice from a direct basis, solving for the 2*pi-dual basis.

    Raises
    ------
    DegenerateBasis
        If |det[a1 a2]| < 1e-12 * |a1||a2|, or a basis vector is not finite.
    """
    a1 = np.asarray(a1, dtype=float).reshape(2)
    a2 = np.asarray(a2, dtype=float).reshape(2)
    if not (np.isfinite(a1).all() and np.isfinite(a2).all()):
        raise DegenerateBasis(f"direct basis is not finite: a1={a1}, a2={a2}")
    A = np.column_stack([a1, a2])
    det = float(np.linalg.det(A))
    if abs(det) <= _DEGENERACY_RTOL * np.linalg.norm(a1) * np.linalg.norm(a2):
        raise DegenerateBasis(
            f"direct basis is degenerate: |det|={abs(det):.3e} for "
            f"|a1|={np.linalg.norm(a1):.3e}, |a2|={np.linalg.norm(a2):.3e}"
        )
    # columns of B solve A^T B = 2*pi*I, i.e. B = 2*pi*(A^{-1})^T
    B = 2.0 * np.pi * np.linalg.inv(A).T
    return Lattice2D(a1=a1, a2=a2, b1=B[:, 0], b2=B[:, 1])


def wrap_fractional(frac) -> np.ndarray:
    """Wrap dual-basis coordinates into [-1/2, 1/2) (half-open), elementwise."""
    frac = np.asarray(frac, dtype=float)
    return frac - np.floor(frac + 0.5)


def reduce_to_cell(lattice: Lattice2D, k) -> np.ndarray:
    """Reduce k modulo the dual lattice into the fundamental cell.

    Returns k' = k - m1*b1 - m2*b2 with integer m such that the dual-basis
    coordinates of k' lie in [-1/2, 1/2).
    """
    return lattice.from_fractional(wrap_fractional(lattice.to_fractional(k)))


def uniform_grid(lattice: Lattice2D, n1: int, n2: int) -> KGrid:
    """Midpoint-rule grid: n1 x n2 sub-cell centers of the zone basis, equal weights."""
    if n1 < 1 or n2 < 1:
        raise ValueError("subdivision counts must be >= 1")
    f1 = (np.arange(n1) + 0.5) / n1 - 0.5
    f2 = (np.arange(n2) + 0.5) / n2 - 0.5
    F1, F2 = np.meshgrid(f1, f2, indexing="ij")
    frac = np.column_stack([F1.ravel(), F2.ravel()])
    size = np.tile(np.array([1.0 / n1, 1.0 / n2]), (n1 * n2, 1))
    weights = np.full(n1 * n2, lattice.bz_area / (n1 * n2))
    return KGrid(lattice=lattice, n1=n1, n2=n2, points=frac @ lattice.zone.T,
                 weights=weights, frac=frac, size=size)


def _min_cart_distance(lattice: Lattice2D, frac: np.ndarray, centers) -> np.ndarray:
    """Cartesian distance from each zone-coordinate point (M, 2) to the
    nearest of the cartesian `centers`, modulo the dual lattice."""
    dmin = np.full(frac.shape[0], np.inf)
    for c in centers:
        cf = wrap_fractional(lattice.to_zone(np.asarray(c, dtype=float)))
        for dk in lattice.images(frac - cf):
            dmin = np.minimum(dmin, np.hypot(dk[:, 0], dk[:, 1]))
    return dmin


def refined_grid(lattice: Lattice2D, base: KGrid, centers, radii) -> KGrid:
    """Quad-tree refinement of `base` near `centers`, one level per radius.

    At level i every cell whose center lies within radii[i] (cartesian,
    modulo the dual lattice) of any of `centers` is split 2x2, dividing its
    weight by 4, so the total measure is conserved.  The radii must be
    positive, finite and non-increasing: a cell left unsplit at radii[i]
    stays unsplit at radii[i+1] <= radii[i], so each level measures only the
    children of the previous split.  Empty radii return `base` unrefined.
    """
    radii = [float(r) for r in radii]
    if not all(0.0 < r < np.inf for r in radii):
        raise ValueError(f"refinement radii must be positive and finite, got {radii}")
    if any(b > a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"refinement radii must not increase, got {radii}")
    offsets = np.array([[-0.25, -0.25], [-0.25, 0.25], [0.25, -0.25], [0.25, 0.25]])
    frac, size, weights = base.frac, base.size, base.weights
    settled = []
    for r in radii:
        hit = _min_cart_distance(lattice, frac, centers) < r
        settled.append((frac[~hit], size[~hit], weights[~hit]))
        f_in, s_in, w_in = frac[hit], size[hit], weights[hit]
        frac = (f_in[:, None, :] + offsets[None, :, :] * s_in[:, None, :]).reshape(-1, 2)
        size = np.repeat(s_in / 2.0, 4, axis=0)
        weights = np.repeat(w_in / 4.0, 4)
    settled.append((frac, size, weights))
    frac, size, weights = (np.concatenate(parts) for parts in zip(*settled))
    return KGrid(lattice=lattice, n1=base.n1, n2=base.n2,
                 points=frac @ lattice.zone.T, weights=weights, frac=frac, size=size)
