"""Fermi-point detection, cone fitting, and the closed-form conductivity."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

import conecond as cc
import conecond.cones as cones
from conecond.cones import _occupied_band_index, minimize

from conftest import dual_images


def synthetic_cone(Q, omega=None, tilt=(0.0, 0.0), lat=None):
    if omega is None:
        omega = np.zeros(2)
    return cc.FermiPoint(
        omega=np.asarray(omega, dtype=float),
        Q=np.asarray(Q, dtype=float),
        tilt=np.asarray(tilt, dtype=float),
        residual=0.0,
        gap_at_omega=0.0,
    )


# -- finder ---------------------------------------------------------------------

def test_finder_single_point_at_zone_center(qwz_topological):
    scan = cc.find_fermi_points(qwz_topological, coarse=96)
    assert len(scan) == 1
    assert np.linalg.norm(scan.locations[0]) < 1e-7
    assert scan.gaps[0] < 1e-7


def test_finder_two_opposite_points_haldane(haldane_critical):
    model = haldane_critical
    scan = cc.find_fermi_points(model, coarse=96)
    assert len(scan) == 2
    k1, k2 = scan.locations
    # the two crossings are momentum-inverses of each other (mod dual lattice)
    f = cc.wrap_fractional(model.lattice.to_fractional(k1 + k2))
    assert np.linalg.norm(model.lattice.from_fractional(f)) < 1e-6
    # and sit at the zone corners +-(−1/3, 1/3)
    fr = np.sort(np.round(model.lattice.to_fractional(k1), 6))
    assert np.allclose(np.abs(fr), [1.0 / 3.0, 1.0 / 3.0], atol=1e-6)


def test_finder_empty_for_gapped_model(haldane_gapped):
    scan = cc.find_fermi_points(haldane_gapped, coarse=96)
    assert len(scan) == 0
    assert scan.min_gap > 0.4  # diagnostic: how far from closing


def test_finder_coarse_grid_invariance(qwz_topological, haldane_critical):
    # different coarse grids (including an odd one whose midpoints hit the
    # crossing exactly) must converge to the same refined locations
    for model, expected in ((qwz_topological, 1), (haldane_critical, 2)):
        a = cc.find_fermi_points(model, coarse=96)
        b = cc.find_fermi_points(model, coarse=81)
        assert len(a) == len(b) == expected
        for ka, kb in zip(a.locations, b.locations):
            d = cc.wrap_fractional(model.lattice.to_fractional(ka - kb))
            assert np.linalg.norm(model.lattice.from_fractional(d)) < 1e-7


def test_finder_band_crossing_region():
    # dispersion only along k1 gives whole lines of Fermi-level touchings,
    # which the pointwise cone machinery must refuse
    model = cc.model_from_dict({
        "lattice": {"a1": [1.0, 0.0], "a2": [0.0, 1.0]},
        "orbitals": [[0.0, 0.0], [0.0, 0.0]],
        "fermi_energy": 0.0,
        "hoppings": [
            {"cell": [1, 0],
             "matrix": [[[0.5, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [-0.5, 0.0]]]},
        ],
    })
    with pytest.raises(cc.BandCrossingRegion):
        cc.find_fermi_points(model, coarse=96, tol=1e-3)


def test_scan_count_matches_straddler_reference():
    # the level-rule interval check agrees with the per-row loop it replaced:
    # a row whose strict count differs from the majority is tolerated only
    # when every eigenvalue between the two counts sits at mu to rounding
    mu = 0.3
    model = SimpleNamespace(fermi_energy=mu)
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = np.sort(rng.choice([-1.0, 0.1, 0.5, 1.0, mu - 1e-15, mu, mu + 1e-15],
                               size=(6, 3)), axis=1)
        counts = np.count_nonzero(w <= mu, axis=1)
        m = int(np.bincount(counts).argmax())
        atol = 1e-12 * (1.0 + np.abs(w).max())
        fits = all(np.abs(w[i, min(c, m):max(c, m)] - mu).max(initial=0.0) <= atol
                   for i, c in enumerate(counts))
        if not fits:
            with pytest.raises(cc.BandCrossingRegion):
                _occupied_band_index(model, w)
        elif m in (0, 3):
            with pytest.raises(cc.AllBandsOnOneSide):
                _occupied_band_index(model, w)
        else:
            assert _occupied_band_index(model, w) == m


# -- the simplex against scipy's --------------------------------------------------

def assert_matches_scipy(fun, simplex, **limits):
    """Run the package's Nelder-Mead and scipy's on ``fun`` from one simplex:
    the same points evaluated in the same order, and the same x, fun and
    nfev, bit for bit."""
    def logged(log):
        return lambda x: (log.append(x.tobytes()), fun(x))[1]

    ours, theirs = [], []
    res = minimize(logged(ours), simplex, **limits)
    ref = scipy_minimize(logged(theirs), simplex[0], method="Nelder-Mead",
                         options=dict(initial_simplex=simplex, **limits))
    assert ours == theirs
    assert res.x.tobytes() == ref.x.tobytes()
    assert res.fun == ref.fun and res.nfev == ref.nfev == len(ours)
    return res


@pytest.mark.parametrize("model", [
    pytest.param(cc.preset_haldane(1.0, 0.1, 0.0, 0.0), id="honeycomb"),
    pytest.param(cc.preset_haldane(1.0, 0.1, np.pi / 2, 0.3 * np.sqrt(3.0)),
                 id="haldane-critical"),
    pytest.param(cc.preset_qwz(-2.0, 2.0, 1.0), id="qwz-aniso"),
])
def test_minimize_matches_scipy_on_fermi_point_seeds(monkeypatch, model):
    # every gap function and seed simplex that find_fermi_points refines
    runs = []

    def checked(fun, simplex, **limits):
        runs.append(assert_matches_scipy(fun, simplex, **limits))
        return runs[-1]

    monkeypatch.setattr(cones, "minimize", checked)
    scan = cc.find_fermi_points(model)
    assert runs and len(scan) >= 1


def rosenbrock(x):
    return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2


def cusp(x, c=(0.0, 0.0)):
    # from the simplex c + (0, 0), (1, 0), (0, 1) the reflection c + (1, -1)
    # and the inside contraction c + (1/4, 1/2) are both worse than the worst
    # vertex, so the first step is a shrink
    u, v = x[0] - c[0], x[1] - c[1]
    return abs(u) + 2.0 * abs(v) + 8.0 * abs(u * v)


ROSEN_START = np.array([[-1.2, 1.0], [-1.1, 1.0], [-1.2, 1.1]])
CUSP_START = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
LIMITS = dict(xatol=1e-10, fatol=1e-12, maxiter=4000, maxfev=8000)


@pytest.mark.parametrize("fun, simplex, limits, converged", [
    pytest.param(rosenbrock, ROSEN_START, LIMITS, True, id="rosenbrock"),
    # off the origin, so that the shrinks round
    pytest.param(lambda x: cusp(x, (0.1, 0.2)), CUSP_START + [0.1, 0.2],
                 dict(LIMITS, xatol=1e-8), True, id="shrink"),
    # the stop paths: the budget check before an evaluation, inside an
    # iteration and among the first vertices, and the iteration count
    pytest.param(rosenbrock, ROSEN_START, dict(LIMITS, maxfev=7), False, id="maxfev=7"),
    pytest.param(rosenbrock, ROSEN_START, dict(LIMITS, maxfev=2), False, id="maxfev=2"),
    pytest.param(rosenbrock, ROSEN_START, dict(LIMITS, maxiter=3), False, id="maxiter=3"),
])
def test_minimize_matches_scipy(fun, simplex, limits, converged):
    res = assert_matches_scipy(fun, simplex, **limits)
    assert (res.fun < 1e-12) == converged
    budget = limits["maxfev"]
    assert (res.nfev == budget) if budget < LIMITS["maxfev"] else (res.nfev < budget)


def test_minimize_shrinks_toward_best_vertex():
    points = []
    minimize(lambda x: (points.append(tuple(x)), cusp(x))[1], CUSP_START,
             xatol=1e-8, fatol=1e-8, maxiter=2, maxfev=100)
    # three vertices, the reflection, the inside contraction, then the shrink
    assert points == [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, -1.0), (0.25, 0.5),
                      (0.5, 0.0), (0.0, 0.5)]


# -- cone fit -------------------------------------------------------------------

def test_fit_cone_identity_qwz(qwz_topological):
    Q, tilt, resid = cc.fit_cone(qwz_topological, np.zeros(2))
    assert np.abs(Q - np.eye(2)).max() < 1e-3
    assert np.abs(tilt).max() < 1e-3
    assert resid < 1e-3


def test_fit_cone_anisotropic_qwz(qwz_aniso_cones):
    Q = qwz_aniso_cones[0].Q
    ref = np.diag([4.0, 1.0])
    assert np.abs(Q - ref).max() < 1e-3 * np.abs(ref).max()
    assert np.abs(qwz_aniso_cones[0].tilt).max() < 1e-3


def test_fit_cone_haldane_isotropic(haldane_cones):
    # the honeycomb cone steepness is (3 t1 / 2)^2 = 2.25 in both directions
    ref = 2.25 * np.eye(2)
    for cone in haldane_cones:
        assert np.abs(cone.Q - ref).max() < 1e-3 * 2.25


def test_fit_residual_gate_qwz(qwz_cones, qwz_aniso_cones):
    for cone in (*qwz_cones, *qwz_aniso_cones):
        assert cone.residual < 1e-3


def test_fit_residual_gate_haldane(haldane_cones):
    """The honeycomb dispersion has a cubic trigonal-warping term around its
    cones, |gap|^2 = v^2 r^2 + 2 v w r^3 cos 3t + O(r^4).  The fit carries
    that term through cubic coefficients shared by all radii, so the
    residual at the smallest default radius counts only what the cone
    expansion does not explain (measured ~9e-6; a quadratic-only fit left
    ~7e-3 of warping in it)."""
    for cone in haldane_cones:
        assert cone.residual < 1e-3


def test_fit_residual_gate_bites_at_displaced_omega(haldane_critical,
                                                   haldane_cones):
    # off the crossing the squared half-gap gains a term linear in r; a cubic
    # shared by all radii cannot absorb it (one refitted per radius could,
    # since on a single circle the cubic columns span cos t and sin t)
    lat = haldane_critical.lattice
    bmin = min(np.linalg.norm(lat.b1), np.linalg.norm(lat.b2))
    for cone in haldane_cones:
        for ang in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            shift = 1e-3 * bmin * np.array([np.cos(ang), np.sin(ang)])
            _, _, resid = cc.fit_cone(haldane_critical, cone.omega + shift)
            assert resid > 1e-3


def test_fit_cone_rejects_too_few_directions(haldane_critical, haldane_cones):
    omega = haldane_cones[0].omega
    for n in (2, 3, 4, 7):
        with pytest.raises(ValueError, match="directions"):
            cc.fit_cone(haldane_critical, omega, directions=n)
    Q, _, resid = cc.fit_cone(haldane_critical, omega, directions=8)
    assert np.abs(Q - 2.25 * np.eye(2)).max() < 1e-3 * 2.25
    assert resid < 1e-3


@pytest.mark.parametrize("radii", [
    [np.nan, 0.01], [0.01, np.inf], [0.01, 0.01], [0.01, 0.01, 0.02], [0.0, 0.01],
], ids=["nan", "inf", "equal", "equal-smallest", "zero"])
def test_fit_cone_rejects_bad_radii(haldane_critical, haldane_cones, radii):
    # a non-finite radius once ended in LinAlgError (SVD did not converge),
    # and equal smallest radii divided by zero in the r -> 0 extrapolation
    omega = haldane_cones[0].omega
    with pytest.raises(ValueError, match="radii must be positive and finite"):
        cc.fit_cone(haldane_critical, omega, radii=radii)
    with pytest.raises(ValueError, match="radii must be positive and finite"):
        cc.characterize_cones(haldane_critical, coarse=32, radii=radii)


@pytest.mark.parametrize("radii", [[1e-16, 2e-16], [1e-13, 2e-13]], ids=["1e-16", "1e-13"])
def test_fit_cone_refuses_unresolving_radii(haldane_critical, haldane_cones, qwz_aniso,
                                            qwz_aniso_cones, radii):
    # circles inside omega's own error once gave Q ~ 4.1e5 (1e-16) and Q off
    # by 18 % (1e-13) on the honeycomb, whose true Q is 2.25 I
    for model, cones in ((haldane_critical, haldane_cones), (qwz_aniso, qwz_aniso_cones)):
        for cone in cones:
            with pytest.raises(cc.NotConical, match="does not resolve the cone"):
                cc.fit_cone(model, cone.omega, radii=radii)
    with pytest.raises(cc.NotConical):
        cc.characterize_cones(haldane_critical, coarse=32, radii=radii)
    # circles ~300x clear of the gap at omega resolve it
    Q, _, _ = cc.fit_cone(haldane_critical, haldane_cones[0].omega, radii=[1e-11, 2e-11])
    assert np.abs(Q - 2.25 * np.eye(2)).max() < 1e-3


def test_fit_cone_third_band_window_guard(haldane_critical):
    # adding a decoupled flat orbital near the Fermi level breaks the
    # two-band isolation precondition at the default radii
    m3 = cc.model_from_dict({
        "lattice": {"a1": [1.5, np.sqrt(3) / 2], "a2": [1.5, -np.sqrt(3) / 2]},
        "orbitals": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]],
        "fermi_energy": 0.0,
        "hoppings": [
            {"cell": [0, 0],
             "matrix": [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.0, 0.0], [0.02, 0.0]]]},
            {"cell": [-1, 0],
             "matrix": [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]},
            {"cell": [0, -1],
             "matrix": [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]},
        ],
    })
    K = m3.lattice.from_fractional([-1.0 / 3.0, 1.0 / 3.0])
    with pytest.raises(ValueError):
        cc.fit_cone(m3, K)
    # with radii shrunk so the sampling window clears the third band, it fits
    rmin = min(np.linalg.norm(m3.lattice.b1), np.linalg.norm(m3.lattice.b2))
    Q, _, _ = cc.fit_cone(m3, K, radii=[2e-4 * rmin, 1e-4 * rmin, 5e-5 * rmin])
    assert np.abs(Q - 2.25 * np.eye(2)).max() < 0.05


def test_fit_cone_rejects_quadratic_touching():
    # bands meet quadratically (Lambda_{+-} ~ +-|k|^2 / 2): no cone
    model = cc.model_from_dict({
        "lattice": {"a1": [1.0, 0.0], "a2": [0.0, 1.0]},
        "orbitals": [[0.0, 0.0], [0.0, 0.0]],
        "fermi_energy": 0.0,
        "hoppings": [
            {"cell": [0, 0],
             "matrix": [[[-2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]},
            {"cell": [1, 0],
             "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]},
            {"cell": [0, 1],
             "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]},
        ],
    })
    with pytest.raises(cc.NotConical):
        cc.fit_cone(model, np.zeros(2))


def test_fermi_point_validation():
    with pytest.raises(ValueError):
        synthetic_cone([[1.0, 0.3], [0.2, 1.0]])     # not symmetric
    with pytest.raises(ValueError):
        synthetic_cone([[1.0, 0.0], [0.0, -1.0]])    # not positive definite
    with pytest.raises(ValueError):
        synthetic_cone(np.eye(2), tilt=(2.0, 0.0))   # cone condition violated


# -- cone condition and quantization ---------------------------------------------

def test_check_cone_condition_examples():
    ok, margin = cc.check_cone_condition(np.eye(2), np.zeros(2))
    assert ok and np.isclose(margin, 1.0)
    ok, margin = cc.check_cone_condition(np.eye(2), np.array([2.0, 0.0]))
    assert not ok and np.isclose(margin, -1.0)
    ok, margin = cc.check_cone_condition(np.diag([4.0, 1.0]),
                                         np.array([0.0, 0.5]))
    assert ok and np.isclose(margin, 0.5)


def test_is_quantizing_examples():
    assert cc.is_quantizing(np.eye(2))
    assert cc.is_quantizing(3.0 * np.eye(2))
    assert not cc.is_quantizing(np.diag([4.0, 1.0]))
    assert not cc.is_quantizing(np.array([[2.0, 1.0], [1.0, 2.0]]))


def test_sigma_closed_form_examples(haldane_cones):
    total, per = cc.sigma_closed_form([synthetic_cone(np.eye(2))], 1)
    assert np.isclose(total, 1.0 / 16.0, atol=1e-12)
    total, _ = cc.sigma_closed_form(haldane_cones, 1)
    assert np.isclose(total, 0.125, atol=1e-3)
    aniso = [synthetic_cone(np.diag([4.0, 1.0]))]
    t11, _ = cc.sigma_closed_form(aniso, 1)
    t22, _ = cc.sigma_closed_form(aniso, 2)
    assert np.isclose(t11, 0.125, atol=1e-12)
    assert np.isclose(t22, 0.03125, atol=1e-12)


def test_quantizing_iff_cone_contributes_sixteenth():
    cases = [np.eye(2), 3.0 * np.eye(2), np.diag([4.0, 1.0]),
             np.array([[2.0, 1.0], [1.0, 2.0]])]
    for Q in cases:
        per_dir = [cc.sigma_closed_form([synthetic_cone(Q)], j)[0]
                   for j in (1, 2)]
        hits = all(abs(v - 1.0 / 16.0) < 1e-6 for v in per_dir)
        assert hits == cc.is_quantizing(Q)


# -- invariances -----------------------------------------------------------------

def test_axis_swap_symmetry():
    # swapping the two hopping amplitudes mirrors the model through k1 <-> k2:
    # sigma_11 of one equals sigma_22 of the other
    ma = cc.preset_qwz(-2.0, 2.0, 1.0)
    mb = cc.preset_qwz(-2.0, 1.0, 2.0)
    s11a = cc.sigma_closed_form(cc.characterize_cones(ma), 1)[0]
    s22b = cc.sigma_closed_form(cc.characterize_cones(mb), 2)[0]
    assert abs(s11a - s22b) < 1e-6


def test_rotated_lattice_transforms_cone():
    # the same hopping data on a rotated basis gives Q' = R Q R^T and an
    # unchanged conductivity trace
    ang = 0.51
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    base = cc.preset_qwz(-2.0, 2.0, 1.0)
    rotated = cc.HoppingModel(
        lattice=cc.make_lattice(R @ base.lattice.a1, R @ base.lattice.a2),
        norbitals=base.norbitals,
        positions=base.positions @ R.T,
        terms=base.terms,
        fermi_energy=base.fermi_energy,
    )
    c0 = cc.characterize_cones(base)[0]
    c1 = cc.characterize_cones(rotated)[0]
    assert np.abs(c1.Q - R @ c0.Q @ R.T).max() < 2e-3
    tr0 = sum(cc.sigma_closed_form([c0], j)[0] for j in (1, 2))
    tr1 = sum(cc.sigma_closed_form([c1], j)[0] for j in (1, 2))
    assert abs(tr0 - tr1) < 1e-4


# -- neighborhoods ----------------------------------------------------------------

def test_b_epsilon_membership_examples(haldane_critical, haldane_cones):
    lat = haldane_critical.lattice
    eps = cc.default_epsilon(haldane_cones, lat)
    assert cc.b_epsilon_membership(haldane_cones, haldane_cones[0].omega,
                                   eps, lat) == 0
    assert cc.b_epsilon_membership(haldane_cones, haldane_cones[1].omega,
                                   eps, lat) == 1
    # for Q = I the membership radius in k is eps/2: a point at distance eps
    # lies outside
    iso = [synthetic_cone(np.eye(2))]
    sq = cc.make_lattice([1.0, 0.0], [0.0, 1.0])
    assert cc.b_epsilon_membership(iso, np.array([0.3, 0.0]), 0.3, sq) is None
    assert cc.b_epsilon_membership(iso, np.array([0.1, 0.0]), 0.3, sq) == 0


def test_b_epsilon_membership_counts_match_brute_force(haldane_critical,
                                                       haldane_cones):
    lat = haldane_critical.lattice
    eps = cc.default_epsilon(haldane_cones, lat)
    grid = cc.uniform_grid(lat, 48, 48)
    fast = sum(
        cc.b_epsilon_membership(haldane_cones, k, eps, lat) is not None
        for k in grid.points
    )
    # independent straight-loop evaluation of 2 sqrt(d.Q d) < eps over
    # explicit dual-lattice images
    slow = 0
    B = lat.dual_matrix
    for k in grid.points:
        hit = False
        for cone in haldane_cones:
            for s1 in (-2, -1, 0, 1, 2):
                for s2 in (-2, -1, 0, 1, 2):
                    d = k - cone.omega + B @ np.array([s1, s2], dtype=float)
                    if 2.0 * np.sqrt(d @ cone.Q @ d) < eps:
                        hit = True
        slow += hit
    assert fast == slow
    assert fast > 0


def test_epsilon_too_large_rejected(haldane_critical, haldane_cones):
    lat = haldane_critical.lattice
    sep = cc.fermi_point_separation(haldane_cones, lat)
    with pytest.raises(cc.EpsilonTooLarge):
        cc.b_epsilon_membership(haldane_cones, np.zeros(2), 2.0 * sep, lat)


def test_neighborhood_separation_scales(haldane_critical, haldane_cones):
    lat = haldane_critical.lattice
    sep = cc.fermi_point_separation(haldane_cones, lat)
    eps = cc.default_epsilon(haldane_cones, lat)
    assert np.isclose(eps, 0.3 * sep)
    assert cc.neighborhoods_disjoint(haldane_cones, lat, eps)
    assert not cc.neighborhoods_disjoint(haldane_cones, lat, 4.0 * sep)


@pytest.mark.parametrize("ratio", [9.0, 25.0, 100.0])
@pytest.mark.parametrize("angle", [30.0, 60.0])
def test_separation_matches_brute_force_for_anisotropic_metric(square_lattice, ratio, angle):
    # in the metric of Q = R diag(ratio, 1) R^T the nearest image of a cone
    # need not be among the 3 x 3 images of the cartesian zone basis
    c, s = np.cos(np.radians(angle)), np.sin(np.radians(angle))
    R = np.array([[c, -s], [s, c]])
    cone = synthetic_cone(R @ np.diag([ratio, 1.0]) @ R.T)
    G = dual_images(square_lattice, reach=8)
    G = G[np.any(G != 0.0, axis=1)]
    brute = np.sqrt(np.einsum("si,ij,sj->s", G, cone.Q, G).min())
    assert np.isclose(cc.fermi_point_separation([cone], square_lattice), brute, rtol=1e-12)
    eps = cc.default_epsilon([cone], square_lattice)
    assert cc.neighborhoods_disjoint([cone], square_lattice, eps)


def test_cone_image_searches_match_brute_force_on_thin_basis(thin_lattice):
    lat = thin_lattice
    cones = [synthetic_cone([[1.0, 0.2], [0.2, 0.6]], omega=[3.0, -2.0]),
             synthetic_cone([[0.5, -0.1], [-0.1, 1.2]], omega=[-4.0, 5.5])]
    G = dual_images(lat)
    zero = np.all(G == 0.0, axis=1)

    def q(d, cone):
        return np.einsum("si,ij,sj->s", d, cone.Q, d)

    # separation: cone metric of both ends, each point's zero self-image left out
    sep = np.inf
    for ca in cones:
        for cb in cones:
            d = cb.omega - ca.omega + G
            d = d[~zero] if ca is cb else d
            sep = min(sep, np.sqrt(q(d, ca).min()), np.sqrt(q(d, cb).min()))
    assert np.isclose(cc.fermi_point_separation(cones, lat), sep, rtol=1e-12)

    radii = [1.0 / (2.0 * np.sqrt(np.linalg.eigvalsh(c.Q)[0])) for c in cones]
    # disjointness: the eps at which the two nearest balls touch
    touch = np.inf
    for a, ca in enumerate(cones):
        for b, cb in enumerate(cones):
            dist = np.linalg.norm(cb.omega - ca.omega + G, axis=1)
            dist = dist[~zero] if a == b else dist
            touch = min(touch, dist.min() / (radii[a] + radii[b]))
    for eps in np.linspace(0.5, 1.5, 10) * touch:
        assert cc.neighborhoods_disjoint(cones, lat, eps) == (eps < touch)

    eps = 0.9 * touch
    rng = np.random.default_rng(11)
    ks = rng.uniform(-12.0, 12.0, size=(300, 2))
    hits = 0
    for k in ks:
        inside = [2.0 * np.sqrt(q(k - c.omega + G, c).min()) < eps for c in cones]
        expect = inside.index(True) if any(inside) else None
        assert cc.b_epsilon_membership(cones, k, eps, lat) == expect
        hits += expect is not None
    assert hits > 20
