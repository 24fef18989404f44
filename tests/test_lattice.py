"""Lattice geometry, momentum reduction, and quadrature grids."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conecond as cc

basis_floats = st.floats(min_value=-3.0, max_value=3.0,
                         allow_nan=False, allow_infinity=False)


def nondegenerate_basis(draw_vals):
    a1 = np.array(draw_vals[:2])
    a2 = np.array(draw_vals[2:])
    return a1, a2, abs(a1[0] * a2[1] - a1[1] * a2[0])


@given(st.lists(basis_floats, min_size=4, max_size=4))
@example([0.0, 1e-06, 1.0, 3.0])  # |det| = 1e-6, |B| ~ 2e7: error 9.3e-10
def test_dual_basis_identity(vals):
    a1, a2, det = nondegenerate_basis(vals)
    if det < 1e-6:
        return
    lat = cc.make_lattice(a1, a2)
    A = lat.direct_matrix
    B = lat.dual_matrix
    # each entry of A^T B is a two-term float64 dot product of a column of A
    # with a column of the computed inverse, so its rounding error is a small
    # multiple of eps |A| |B|, not an absolute amount: near-degenerate bases
    # have |B| ~ 1/|det|
    bound = 8.0 * np.finfo(float).eps * np.linalg.norm(A) * np.linalg.norm(B)
    assert np.abs(A.T @ B - 2.0 * np.pi * np.eye(2)).max() <= bound


def test_degenerate_basis_rejected():
    with pytest.raises(cc.DegenerateBasis):
        cc.make_lattice(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    with pytest.raises(cc.DegenerateBasis):
        cc.make_lattice(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(cc.DegenerateBasis, match="not finite"):
            cc.make_lattice(np.array([bad, 0.0]), np.array([0.0, 1.0]))


@given(st.tuples(st.floats(-50, 50, allow_nan=False),
                 st.floats(-50, 50, allow_nan=False)))
def test_wrap_fractional_range_and_idempotence(frac):
    w = cc.wrap_fractional(np.array(frac))
    assert np.all(w >= -0.5) and np.all(w < 0.5)
    assert np.array_equal(cc.wrap_fractional(w), w)


@given(st.tuples(st.floats(-0.49, 0.49), st.floats(-0.49, 0.49)),
       st.integers(-4, 4), st.integers(-4, 4))
def test_wrap_fractional_integer_shift_invariance(frac, m1, m2):
    base = np.array(frac)
    shifted = base + np.array([m1, m2], dtype=float)
    assert np.allclose(cc.wrap_fractional(shifted), base, atol=1e-12)


def test_reduce_to_cell_differs_by_dual_vector(square_lattice):
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = rng.uniform(-20, 20, size=2)
        kr = cc.reduce_to_cell(square_lattice, k)
        frac = square_lattice.to_fractional(kr)
        assert np.all(frac >= -0.5) and np.all(frac < 0.5)
        m = square_lattice.to_fractional(k - kr)
        assert np.allclose(m, np.round(m), atol=1e-9)


def test_uniform_grid_counts_weights_midpoints(square_lattice):
    g = cc.uniform_grid(square_lattice, 8, 6)
    assert len(g) == 48
    assert g.points.shape == (48, 2)
    assert np.isclose(g.weights.sum(), square_lattice.bz_area, rtol=1e-12)
    # midpoint rule: fractional coordinates are (i + 1/2)/n - 1/2
    expect = (np.arange(8) + 0.5) / 8 - 0.5
    assert np.allclose(np.unique(np.round(g.frac[:, 0], 12)), expect)
    # no sample sits at the zone center for even subdivisions
    assert np.abs(g.frac).min() > 1e-3


def test_uniform_grid_rejects_bad_subdivision(square_lattice):
    with pytest.raises(ValueError):
        cc.uniform_grid(square_lattice, 0, 4)


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_refined_grid_weight_conservation(square_lattice, levels):
    base = cc.uniform_grid(square_lattice, 12, 12)
    centers = [np.array([0.0, 0.0]), square_lattice.from_fractional([0.4, 0.4])]
    g = cc.refined_grid(square_lattice, base, centers, 0.8, levels)
    assert len(g) > len(base)
    assert np.isclose(g.weights.sum(), square_lattice.bz_area, rtol=1e-12)


def test_refined_grid_splits_only_near_centers(square_lattice):
    base = cc.uniform_grid(square_lattice, 16, 16)
    center = square_lattice.from_fractional([0.25, 0.25])
    g = cc.refined_grid(square_lattice, base, [center], 0.5, 1)
    small = g.size[:, 0] < 1.0 / 16 - 1e-12
    # every subdivided cell lies within the radius (plus its own diagonal)
    d = np.linalg.norm(g.points[small] - center, axis=1)
    cell_diag = np.linalg.norm(square_lattice.from_fractional([1 / 16, 1 / 16]))
    assert d.max() <= 0.5 + cell_diag
    # and cells far away were left alone
    far = np.linalg.norm(g.points - center, axis=1) > 0.5 + 2 * cell_diag
    assert np.all(g.size[far, 0] >= 1.0 / 16 - 1e-12)


def test_refined_grid_measures_across_dual_images(square_lattice):
    # a center at the cell corner refines around all four wrapped images
    base = cc.uniform_grid(square_lattice, 16, 16)
    corner = square_lattice.from_fractional([-0.5, -0.5])
    g = cc.refined_grid(square_lattice, base, [corner], 0.4, 1)
    refined = g.frac[g.size[:, 0] < 1.0 / 16 - 1e-12]
    # refined cells appear in all four corners of the fundamental cell
    for sx, sy in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
        assert np.any((np.sign(refined[:, 0]) == sx)
                      & (np.sign(refined[:, 1]) == sy))


def test_grid_describe_strings(square_lattice):
    g = cc.uniform_grid(square_lattice, 8, 8)
    assert g.describe() == "8x8 midpoint"
    r = cc.refined_grid(square_lattice, g, [np.zeros(2)], 0.6, 1)
    assert r.describe().startswith("8x8 midpoint, refined to")


def test_hexagonal_bz_area(haldane_critical):
    lat = haldane_critical.lattice
    # |det B| = (2 pi)^2 / |det A|
    assert np.isclose(lat.bz_area, (2 * np.pi) ** 2 / abs(np.linalg.det(lat.direct_matrix)))
