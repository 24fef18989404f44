"""Lattice geometry, momentum reduction, and quadrature grids."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conecond as cc

from conftest import dual_images

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
    g = cc.refined_grid(square_lattice, base, centers, [0.8] * levels)
    assert len(g) > len(base)
    assert np.isclose(g.weights.sum(), square_lattice.bz_area, rtol=1e-12)


def test_refined_grid_splits_only_near_centers(square_lattice):
    base = cc.uniform_grid(square_lattice, 16, 16)
    center = square_lattice.from_fractional([0.25, 0.25])
    g = cc.refined_grid(square_lattice, base, [center], [0.5] * 1)
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
    g = cc.refined_grid(square_lattice, base, [corner], [0.4] * 1)
    refined = g.frac[g.size[:, 0] < 1.0 / 16 - 1e-12]
    # refined cells appear in all four corners of the fundamental cell
    for sx, sy in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
        assert np.any((np.sign(refined[:, 0]) == sx)
                      & (np.sign(refined[:, 1]) == sy))


def test_grid_describe_strings(square_lattice):
    g = cc.uniform_grid(square_lattice, 8, 8)
    assert g.describe() == "8x8 midpoint"
    r = cc.refined_grid(square_lattice, g, [np.zeros(2)], [0.6] * 1)
    assert r.describe().startswith("8x8 midpoint, refined to")


@pytest.mark.parametrize("case", ["honeycomb", "qwz_aniso", "skewed"])
def test_refined_grid_schedule_equals_chained_levels(case, request):
    # one call over a shrinking schedule measures only the previous level's
    # children; it must give the grid of one single-level call per radius
    if case == "skewed":
        lat = cc.make_lattice([1.0, 0.2], [0.3, 1.1])
        centers = [lat.from_fractional([-0.5, -0.5]), lat.from_fractional([0.1, -0.3])]
        radii = [1.2, 0.6, 0.3, 0.2, 0.2]
    else:
        model = request.getfixturevalue(
            {"honeycomb": "haldane_critical", "qwz_aniso": "qwz_aniso"}[case])
        cones = request.getfixturevalue(
            {"honeycomb": "haldane_cones", "qwz_aniso": "qwz_aniso_cones"}[case])
        lat = model.lattice
        centers = [c.omega for c in cones]
        _, shell, core = cc.GridPolicy(base=24)._layouts(model, cones, [0.05])[0][0]
        radii = shell + core
    # the schedules end on a repeated core radius
    assert len(radii) >= 4 and radii[-1] == radii[-2]
    base = cc.uniform_grid(lat, 24, 24)
    one = cc.refined_grid(lat, base, centers, radii)
    chained = base
    for r in radii:
        chained = cc.refined_grid(lat, chained, centers, [r])
    assert len(one) > len(base)
    for name in ("points", "weights", "frac", "size"):
        assert np.array_equal(getattr(one, name), getattr(chained, name)), name


def _matmul_min_distance(lattice, frac, centers, factors=None):
    """refined_grid's hit distance over all 3 x 3 images, each wrapped,
    shifted image mapped through the zone basis as an (M, 2) matmul, then
    through its centre's factor L_c when ``factors`` is given: the reference
    for Lattice2D.images, which searches only the images that can come
    within the radius."""
    dmin = np.full(frac.shape[0], np.inf)
    for i, c in enumerate(centers):
        cf = cc.lattice.wrap_fractional(lattice.to_zone(np.asarray(c, dtype=float)))
        w = cc.lattice.wrap_fractional(frac - cf)
        for shift in cc.lattice._IMAGE_SHIFTS:
            dk = (w + shift) @ lattice.zone.T
            if factors is not None:
                dk = dk @ factors[i]
            dmin = np.minimum(dmin, np.hypot(dk[:, 0], dk[:, 1]))
    return dmin


def _reference_refined_grid(lattice, base, centers, radii, core_radii=(), factors=None):
    """refined_grid's quad-tree loop with the matmul hit test, cartesian over
    ``radii``, then in the metrics of ``factors`` over ``core_radii``."""
    offsets = np.array([[-0.25, -0.25], [-0.25, 0.25], [0.25, -0.25], [0.25, 0.25]])
    frac, size, weights = base.frac, base.size, base.weights
    settled = []
    for r, f in [(r, None) for r in radii] + [(r, factors) for r in core_radii]:
        hit = _matmul_min_distance(lattice, frac, centers, f) < r
        settled.append((frac[~hit], size[~hit], weights[~hit]))
        f_in, s_in, w_in = frac[hit], size[hit], weights[hit]
        frac = (f_in[:, None, :] + offsets[None, :, :] * s_in[:, None, :]).reshape(-1, 2)
        size = np.repeat(s_in / 2.0, 4, axis=0)
        weights = np.repeat(w_in / 4.0, 4)
    settled.append((frac, size, weights))
    frac, size, weights = (np.concatenate(parts) for parts in zip(*settled))
    return frac @ lattice.zone.T, weights, frac, size


unit_floats = st.floats(-1.0, 1.0, allow_nan=False)
skewed_a1 = st.tuples(st.floats(0.5, 2.0), st.floats(-1.0, 1.0))
skewed_a2 = st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 2.0))


def _sheared_lattice(a1, a2, shear):
    """A skewed basis sheared into an unreduced one, or None when it is too
    close to degenerate."""
    a1, a2 = np.array(a1), np.array(a2)
    a2 = a2 + shear * a1
    if abs(a1[0] * a2[1] - a1[1] * a2[0]) < 0.2:
        return None
    return cc.make_lattice(a1, a2)


@settings(max_examples=60, deadline=None)
@given(
    a1=skewed_a1,
    a2=skewed_a2,
    shear=st.integers(-3, 3),
    n=st.tuples(st.integers(2, 12), st.integers(2, 12)),
    centers=st.lists(st.tuples(unit_floats, unit_floats), min_size=1, max_size=3),
    shares=st.lists(st.floats(0.01, 0.6), min_size=1, max_size=4),
)
# a cell centre on the refinement circle, where the column-array distance
# once differed from the matmul's by an ulp (18 cells against 15)
@example(a1=(0.5, 0.6484375), a2=(0.3125, 2.0), shear=0, n=(3, 3),
         centers=[(0.0, 0.3359375)], shares=[0.3359375])
def test_refined_grid_matches_matmul_hit_test(a1, a2, shear, n, centers, shares):
    # skewed bases, sheared into unreduced ones; centres anywhere in the
    # neighbouring cells; a non-increasing radius schedule
    lat = _sheared_lattice(a1, a2, shear)
    if lat is None:
        return
    base = cc.uniform_grid(lat, *n)
    points = [lat.from_fractional(c) for c in centers]
    radii = sorted((s * min(lat.zone_lengths) for s in shares), reverse=True)
    # with an unbounded radius every image is searched, and the distances
    # agree with the reference's; the hit tests then agree bit for bit
    dist = cc.lattice._min_cart_distance(lat, base.frac, points, np.inf)
    ref = _matmul_min_distance(lat, base.frac, points)
    assert np.allclose(dist, ref, rtol=1e-13, atol=1e-14 * max(lat.zone_lengths))
    got = cc.refined_grid(lat, base, points, radii)
    for name, want in zip(("points", "weights", "frac", "size"),
                          _reference_refined_grid(lat, base, points, radii)):
        assert np.array_equal(getattr(got, name), want), name


@settings(max_examples=200, deadline=None)
@given(a1=skewed_a1, a2=skewed_a2, shear=st.integers(-3, 3),
       w=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
def test_shifted_images_lie_beyond_the_one_image_cut(a1, a2, shear, w):
    # the bound behind the one-image hit test: in the reduced zone basis
    # every image of a wrapped displacement but the wrapped one is at least
    # sqrt(3)/4 min(zone_lengths) long, above the cut of 0.4 min(zone_lengths)
    lat = _sheared_lattice(a1, a2, shear)
    if lat is None:
        return
    bound = np.sqrt(3.0) / 4.0 * min(lat.zone_lengths) * (1.0 - 1e-12)
    for s in cc.lattice._IMAGE_SHIFTS[1:]:
        assert np.any(s != 0.0)
        assert np.linalg.norm(lat.zone @ (np.array(w) + s)) >= bound


def _preset_case(case, request):
    """(model, cones) of a preset test case, from the session fixtures."""
    model = request.getfixturevalue(
        {"honeycomb": "haldane_critical"}.get(case, case))
    cones = request.getfixturevalue(
        {"honeycomb": "haldane_cones"}.get(case, case + "_cones"))
    return model, cones


def _policy_levels(model, cones, eta=0.0125):
    """GridPolicy()'s schedule for eta as refined_grid arguments: the shell
    radii, the core radii (those equal to R_core) and each cone's factor
    L_c, L_c L_c^T = Q_c / lambda* with lambda* the cones' smallest
    eigenvalue."""
    _, shell, core = cc.GridPolicy()._layouts(model, cones, [eta])[0][0]
    lam = min(np.linalg.eigvalsh(c.Q)[0] for c in cones)
    return shell, core, [np.linalg.cholesky(c.Q / lam) for c in cones]


@pytest.mark.parametrize("case", ["honeycomb", "qwz_aniso", "haldane_one_cone"])
@pytest.mark.parametrize("schedule", ["0.41", "0.39", "policy"])
def test_refined_grid_matches_reference_around_the_cut(case, schedule, request):
    # one radius on each side of the one-image cut (0.4 min(zone_lengths)),
    # and GridPolicy's grid, whose core levels measure in the cone metrics;
    # the hit test must not move a single cell
    model, cones = _preset_case(case, request)
    lat = model.lattice
    centers = [c.omega for c in cones]
    if schedule == "policy":
        policy = cc.GridPolicy()
        levels = _policy_levels(model, cones)
        assert levels[0] and levels[1]
        base = cc.uniform_grid(lat, policy.base, policy.base)
        got = policy.grids_for(model, cones, 0.0125)[0]
    else:
        levels = ([float(schedule) * min(lat.zone_lengths)],)
        base = cc.uniform_grid(lat, 48, 48)
        got = cc.refined_grid(lat, base, centers, *levels)
    assert len(got) > len(base)
    for name, want in zip(("points", "weights", "frac", "size"),
                          _reference_refined_grid(lat, base, centers, *levels)):
        assert np.array_equal(getattr(got, name), want), name


@pytest.mark.parametrize("case", ["honeycomb", "qwz_aniso", "haldane_one_cone"])
def test_refined_grid_identity_metric_gives_disk_grid(case, request):
    # identity factors on the core levels give the all-disk grid bit for
    # bit; so do the isotropic cones' own metrics (Q / lambda* = 1 to
    # rounding), while the checkerboard's (Q = diag(4, 1)) cut the core
    model, cones = _preset_case(case, request)
    lat = model.lattice
    centers = [c.omega for c in cones]
    shell, core, factors = _policy_levels(model, cones)
    base = cc.uniform_grid(lat, 96, 96)
    disk = cc.refined_grid(lat, base, centers, shell + core)
    identity = cc.refined_grid(lat, base, centers, shell, core, [np.eye(2)] * len(centers))
    metric = cc.refined_grid(lat, base, centers, shell, core, factors)
    for name in ("points", "weights", "frac", "size"):
        assert np.array_equal(getattr(identity, name), getattr(disk, name)), name
        if case != "qwz_aniso":
            assert np.array_equal(getattr(metric, name), getattr(disk, name)), name
    if case == "qwz_aniso":
        assert len(metric) < 0.75 * len(disk)


def _metric(theta, l1, l2):
    """The symmetric 2 x 2 matrix with eigenvalues l1, l2 whose first
    eigenvector makes the angle theta with the first axis."""
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return rot @ np.diag([l1, l2]) @ rot.T


@settings(max_examples=60, deadline=None)
@given(
    a1=skewed_a1,
    a2=skewed_a2,
    shear=st.integers(-3, 3),
    n=st.tuples(st.integers(2, 12), st.integers(2, 12)),
    cones=st.lists(st.tuples(unit_floats, unit_floats, st.floats(0.0, np.pi),
                             st.floats(1.0, 9.0), st.floats(1.0, 9.0)),
                   min_size=1, max_size=3),
    shares=st.lists(st.floats(0.01, 0.6), min_size=1, max_size=4),
    ncore=st.integers(0, 4),
)
@example(a1=(1.25, -0.625), a2=(-0.9375, 0.65625), shear=-1, n=(2, 2),
         cones=[(1.0, 0.0, 0.0, 1.0, 1.0)], shares=[0.5], ncore=0)
def test_refined_grid_with_cone_metrics_matches_reference(a1, a2, shear, n, cones,
                                                          shares, ncore):
    # random cone metrics L L^T (smallest eigenvalue >= 1) on the trailing
    # levels of a non-increasing schedule, on skewed and sheared lattices:
    # the one-image hit test must give the brute-force 3 x 3 image search's
    # grid bit for bit, and the distance must be the metric's
    lat = _sheared_lattice(a1, a2, shear)
    if lat is None:
        return
    base = cc.uniform_grid(lat, *n)
    points = [lat.from_fractional(c[:2]) for c in cones]
    metrics = [_metric(*c[2:]) for c in cones]
    factors = [np.linalg.cholesky(q) for q in metrics]
    radii = sorted((s * min(lat.zone_lengths) for s in shares), reverse=True)
    k = max(len(radii) - ncore, 0)
    dist = cc.lattice._min_cart_distance(lat, base.frac, points, np.inf, factors)
    # each centre moved into the zone cell, so the brute-force table reaches
    # its nearest images even on a nearly degenerate user basis
    near = [lat.zone @ cc.lattice.wrap_fractional(lat.to_zone(p)) for p in points]
    quad = np.min([np.einsum("mi,ij,mj->m", d, q, d)
                   for p, q in zip(near, metrics)
                   for d in dual_images(lat)[:, None, :] + base.points[None] - p], axis=0)
    # every image beyond the 3 x 3 lies at least 3 sqrt(3)/4 min(zone_lengths)
    # away, so below that the nine hold the nearest image in any metric
    cap = 1.25 * min(lat.zone_lengths)
    assert np.allclose(np.minimum(dist, cap), np.minimum(np.sqrt(quad), cap),
                       rtol=1e-12, atol=1e-13 * max(lat.zone_lengths))
    got = cc.refined_grid(lat, base, points, radii[:k], radii[k:], factors)
    for name, want in zip(("points", "weights", "frac", "size"),
                          _reference_refined_grid(lat, base, points, radii[:k],
                                                  radii[k:], factors)):
        assert np.array_equal(getattr(got, name), want), name


def test_refined_grid_empty_schedule_returns_base(square_lattice):
    base = cc.uniform_grid(square_lattice, 8, 8)
    g = cc.refined_grid(square_lattice, base, [np.zeros(2)], [])
    for name in ("points", "weights", "frac", "size"):
        assert np.array_equal(getattr(g, name), getattr(base, name))


@pytest.mark.parametrize("radii", [[0.0], [-0.3], [np.nan], [np.inf],
                                   [0.5, np.nan], [0.2, 0.5], [0.5, 0.2, 0.3]])
def test_refined_grid_rejects_bad_schedule(square_lattice, radii):
    base = cc.uniform_grid(square_lattice, 8, 8)
    with pytest.raises(ValueError, match="refinement radii"):
        cc.refined_grid(square_lattice, base, [np.zeros(2)], radii)


def test_hexagonal_bz_area(haldane_critical):
    lat = haldane_critical.lattice
    # |det B| = (2 pi)^2 / |det A|
    assert np.isclose(lat.bz_area, (2 * np.pi) ** 2 / abs(np.linalg.det(lat.direct_matrix)))


# -- zone basis -------------------------------------------------------------------

@pytest.mark.parametrize("lat", [
    cc.preset_qwz(-2.0).lattice,
    cc.preset_haldane(1.0, 0.1, 0.0, 0.0).lattice,
    cc.make_lattice([1.0, 0.2], [0.3, 1.1]),   # the lattice of three_orbital_model
], ids=["square", "honeycomb", "skewed"])
def test_reduced_basis_keeps_reduced_dual_basis(lat):
    # the honeycomb and skewed bases are ties (|b1 + b2| = |b1|): no step
    assert np.array_equal(lat.zone, lat.dual_matrix)
    assert lat.zone_lengths == (np.linalg.norm(lat.b1), np.linalg.norm(lat.b2))
    g = cc.uniform_grid(lat, 6, 5)
    assert np.array_equal(g.points, lat.from_fractional(g.frac))


def test_refined_grid_splits_cells_within_radius_on_thin_basis(thin_lattice):
    lat = thin_lattice
    rng = np.random.default_rng(5)
    centers = list(rng.uniform(-15.0, 15.0, size=(2, 2)))
    base = cc.uniform_grid(lat, 20, 20)
    r = 4.0
    d = (base.points[:, None, None, :] - np.asarray(centers)[None, :, None, :]
         - dual_images(lat)[None, None, :, :])
    dist = np.linalg.norm(d, axis=-1).min(axis=(1, 2))
    assert np.abs(dist - r).min() > 1e-9
    hit = dist < r
    assert 0 < hit.sum() < len(base)
    g = cc.refined_grid(lat, base, centers, [r])
    # settled cells come first, in base order, then the 4 children of each hit
    assert len(g) == len(base) + 3 * hit.sum()
    assert np.array_equal(g.points[: np.count_nonzero(~hit)], base.points[~hit])
    assert np.isclose(g.weights.sum(), lat.bz_area, rtol=1e-12)
