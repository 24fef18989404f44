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
    "wrap_fractional",
]

#: relative determinant threshold below which a basis is rejected
_DEGENERACY_RTOL = 1e-12
#: zone-basis shifts to the 3 x 3 neighbouring dual cells, the origin (the
#: wrapped image) first: in a reduced basis the nearest image of a wrapped
#: displacement is among them
_IMAGE_SHIFTS = np.array([[0, 0]] + [[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)
                                     if i or j], dtype=float)
#: below this share of the shorter reduced basis vector only the wrapped image
#: can come within a radius: every other one lies at least sqrt(3)/4 (0.433)
#: of it away, and the margin covers the reduction's 1e-12 tolerance
_ONE_IMAGE_SHARE = 0.4
#: a zone-basis reduction step must shorten a vector by more than this share
_REDUCTION_RTOL = 1e-12
#: the centres of a split cell's four children, in units of its side lengths
_CHILD_OFFSETS = np.array([[-0.25, -0.25], [-0.25, 0.25], [0.25, -0.25], [0.25, 0.25]])


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


def _images(basis: np.ndarray, d, radius: float):
    """The images of displacements d (M, 2), given in the coordinates of a
    reduced ``basis`` (columns), that can come within cartesian ``radius`` of
    the origin, each an (M, 2) cartesian array: d is wrapped into
    [-1/2, 1/2)^2 and each image is (w + s) @ basis.T for a shift s of the
    3 x 3 neighbouring cells.  The basis is reduced, so with b_min its
    shorter vector, |basis u|^2 >= |b_min|^2 (u1^2 - |u1 u2| + u2^2)
    >= 3/4 |b_min|^2 max(u1^2, u2^2), and every shifted image (max |u_i|
    >= 1/2) lies at least sqrt(3)/4 |b_min| away: a radius below
    _ONE_IMAGE_SHARE |b_min| gets the wrapped image alone, any other radius
    all nine, among which is the nearest image."""
    w = wrap_fractional(d)
    one = radius < _ONE_IMAGE_SHARE * np.linalg.norm(basis, axis=0).min()
    for s in _IMAGE_SHIFTS[:1] if one else _IMAGE_SHIFTS:
        yield (w + s) @ basis.T


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

    def images(self, d, radius: float):
        """The cartesian images of zone-coordinate displacements d (M, 2)
        that can come within ``radius``, each an (M, 2) array: _images over
        the zone basis, so below 0.4 min(zone_lengths) the wrapped image
        alone (every other one lies at least sqrt(3)/4 min(zone_lengths)
        away), else the 3 x 3; they serve any metric never shorter than the
        cartesian one too.  Every minimum-image search goes through here."""
        return _images(self.zone, d, radius)


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


def _midpoints(n: int) -> np.ndarray:
    """The n sub-cell centers (i + 1/2)/n - 1/2 along one zone-basis axis."""
    return (np.arange(n) + 0.5) / n - 0.5


def _grid_points(lattice: Lattice2D, n: int, idx) -> np.ndarray:
    """The points of uniform_grid(lattice, n, n) at the flat indices ``idx``,
    bit for bit and in their order, without the grid: point i sits at the
    zone coordinates (_midpoints(n)[i // n], _midpoints(n)[i % n]).  One
    index is placed as two equal rows, since BLAS rounds a one-row product
    differently from a many-row one."""
    mid, rows = _midpoints(n), np.repeat(idx, 2) if idx.size == 1 else idx
    return (np.column_stack([mid[rows // n], mid[rows % n]]) @ lattice.zone.T)[:idx.size]


def uniform_grid(lattice: Lattice2D, n1: int, n2: int) -> KGrid:
    """Midpoint-rule grid: n1 x n2 sub-cell centers of the zone basis, equal
    weights; point i * n2 + j sits at zone coordinates (_midpoints(n1)[i],
    _midpoints(n2)[j])."""
    if n1 < 1 or n2 < 1:
        raise ValueError("subdivision counts must be >= 1")
    F1, F2 = np.meshgrid(_midpoints(n1), _midpoints(n2), indexing="ij")
    frac = np.column_stack([F1.ravel(), F2.ravel()])
    size = np.tile(np.array([1.0 / n1, 1.0 / n2]), (n1 * n2, 1))
    weights = np.full(n1 * n2, lattice.bz_area / (n1 * n2))
    return _cell_grid(lattice, n1, n2, (frac, size, weights))


def _min_cart_distance(lattice: Lattice2D, frac: np.ndarray, centers,
                       radius: float, factors=None) -> np.ndarray:
    """Distance from each zone-coordinate point (M, 2) to the nearest of the
    cartesian `centers`, modulo the dual lattice: |L_c^T d| to centre c for
    its 2 x 2 factor L_c in `factors`, cartesian when None.  With every
    L_c L_c^T >= 1 no metric distance is below the cartesian one, so the
    images searched are those that can come within cartesian `radius`
    (Lattice2D.images).  The result is the distance itself wherever that is
    below `radius` (in a metric, for a radius below 3 sqrt(3)/4
    min(zone_lengths), the least length of an image beyond the 3 x 3), and
    at least `radius` elsewhere, so a comparison with `radius` is exact."""
    dmin = np.full(frac.shape[0], np.inf)
    for c, L in zip(centers, [np.eye(2)] * len(centers) if factors is None else factors):
        cf = wrap_fractional(lattice.to_zone(np.asarray(c, dtype=float)))
        for dk in lattice.images(frac - cf, radius):
            dk = dk @ L
            dmin = np.minimum(dmin, np.hypot(dk[:, 0], dk[:, 1]))
    return dmin


def _cell_grid(lattice: Lattice2D, n1: int, n2: int, cells) -> KGrid:
    """The KGrid of ``cells`` (frac, size, weights) cut from the n1 x n2 base."""
    frac, size, weights = cells
    return KGrid(lattice=lattice, n1=n1, n2=n2, points=frac @ lattice.zone.T,
                 weights=weights, frac=frac, size=size)


def _refine_level(lattice: Lattice2D, cells, centers, radius: float, factors=None):
    """One level of refined_grid on ``cells`` (frac, size, weights): (the
    cells whose center lies at least ``radius`` from every centre, the four
    children of each other cell, each a quarter of its weight), both in the
    order of ``cells``.  Distances as in _min_cart_distance.  Selecting by
    index and building the children on flat (4 x split, 2) arrays takes a
    quarter of the time boolean masks and (split, 4, 2) broadcasts take."""
    frac, size, weights = cells
    hit = _min_cart_distance(lattice, frac, centers, radius, factors) < radius
    split, keep = np.flatnonzero(hit), np.flatnonzero(~hit)
    s4 = np.repeat(size.take(split, axis=0), 4, axis=0)
    children = (np.repeat(frac.take(split, axis=0), 4, axis=0)
                + np.tile(_CHILD_OFFSETS, (split.size, 1)) * s4,
                s4 / 2.0, np.repeat(weights.take(split) / 4.0, 4))
    return (frac.take(keep, axis=0), size.take(keep, axis=0), weights.take(keep)), children


def refined_grid(lattice: Lattice2D, base: KGrid, centers, radii, core_radii=(),
                 factors=None) -> KGrid:
    """Quad-tree refinement of `base` near `centers`, one level per radius.

    At level i every cell whose center lies within radii[i] (cartesian,
    modulo the dual lattice) of any of `centers` is split 2x2, dividing its
    weight by 4, so the total measure is conserved.  The levels of
    `core_radii` follow, measuring centre c as |L_c^T d| for its 2 x 2
    factor L_c in `factors` (cartesian without): each splits the ellipses
    d^T L_c L_c^T d < radius^2.  Every L_c L_c^T must be >= 1.  All radii
    must be positive, finite and non-increasing: a cell left unsplit at one
    level stays unsplit at the next, whose radius is no larger and whose
    distance no smaller, so each level measures only the children of the
    previous split.  Empty radii return `base` unrefined.  A level whose
    radius is below 0.4 min(zone_lengths) tests each cell against the
    wrapped image of each center alone (see Lattice2D.images).  The grid
    lists the cells each level leaves unsplit, level by level, and then the
    last level's children; each level is one _refine_level.
    """
    levels = [(float(r), None) for r in radii] + [(float(r), factors) for r in core_radii]
    radii = [r for r, _ in levels]
    if not all(0.0 < r < np.inf for r in radii):
        raise ValueError(f"refinement radii must be positive and finite, got {radii}")
    if any(b > a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"refinement radii must not increase, got {radii}")
    cells, settled = (base.frac, base.size, base.weights), []
    for r, level_factors in levels:
        kept, cells = _refine_level(lattice, cells, centers, r, level_factors)
        settled.append(kept)
    settled.append(cells)
    return _cell_grid(lattice, base.n1, base.n2, [np.concatenate(p) for p in zip(*settled)])
