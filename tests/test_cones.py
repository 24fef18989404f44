"""Fermi-point detection, cone fitting, and the closed-form conductivity."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings

import conecond as cc
import conecond.cones as cones
from conecond.cones import _occupied_band_index, _seed_mask
from conecond.spectra import _level_bounds

from conftest import dual_images, one_cone_model, one_cone_seeds


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


@pytest.mark.slow
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


def band_index_reference(model, w):
    """_occupied_band_index as one count per row: the majority of the
    strict counts, checked against every row's level-rule interval."""
    mu = model.fermi_energy
    m = int(np.bincount(np.count_nonzero(w <= mu, axis=1)).argmax())
    below, upto = _level_bounds(w, mu)
    if np.any((below > m) | (upto < m)):
        raise cc.BandCrossingRegion("reference")
    if m == 0 or m == w.shape[1]:
        raise cc.AllBandsOnOneSide("reference")
    return m


def band_index_outcome(index, model, w):
    try:
        return index(model, w)
    except (cc.BandCrossingRegion, cc.AllBandsOnOneSide) as exc:
        return type(exc)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_column_band_index_matches_count_reference(N):
    # ascending rows drawn around one count, with levels exactly at mu and
    # at mu +- atol and one float past them (atol = 1e-12 (1 + 3), set by
    # the first row's +-3), some rows of another count, and now and then
    # a NaN level
    mu = 0.3
    atol = 1e-12 * (1.0 + 3.0)
    low = [-3.0, -1.0, np.nextafter(mu - atol, -np.inf), mu - atol, mu]
    high = [mu, mu + atol, np.nextafter(mu + atol, np.inf), 1.0, 3.0]
    model = SimpleNamespace(fermi_energy=mu)
    rng = np.random.default_rng(N)
    seen = set()
    for trial in range(400):
        m0 = int(rng.integers(0, N + 1))
        stray = rng.choice([0.0, 0.05, 0.3])
        w = np.empty((40, N))
        for row in w:
            k = m0 if rng.random() >= stray else int(rng.integers(0, N + 1))
            row[:] = np.sort(np.concatenate([rng.choice(low, k), rng.choice(high, N - k)]))
        w[0] = [-3.0] * m0 + [3.0] * (N - m0)
        if trial % 25 == 24:
            w[rng.integers(1, 40), -1] = np.nan
        ref = band_index_outcome(band_index_reference, model, w)
        assert band_index_outcome(_occupied_band_index, model, w) == ref
        seen.add(ref if isinstance(ref, type) else int)
    assert seen == {int, cc.BandCrossingRegion, cc.AllBandsOnOneSide}


def seed_mask_reference(gap, threshold):
    """The scan's seed mask from nine np.roll copies of the gap."""
    low = gap.copy()
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            low = np.minimum(low, np.roll(gap, (di, dj), (0, 1)))
    return (gap <= low) & (gap < threshold)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (8, 8), (96, 96), (3, 8)])
def test_seed_mask_matches_roll_reference(shape):
    # gaps of four values (many ties between neighbours) and continuous
    # ones, now and then with a NaN, at thresholds that keep all, some or
    # none of the minima
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for trial in range(20):
        gap = (rng.integers(0, 4, size=shape).astype(float) if trial % 2
               else rng.random(shape))
        if trial % 5 == 4:
            gap[tuple(rng.integers(0, s) for s in shape)] = np.nan
        for threshold in (np.inf, 2.0, 0.5, 0.0):
            assert np.array_equal(_seed_mask(gap, threshold),
                                  seed_mask_reference(gap, threshold))


@pytest.mark.parametrize("fixture", ["haldane_critical", "haldane_one_cone", "qwz_topological",
                                     "qwz_aniso", "hex_flat_band_model"])
def test_scan_takes_the_grid_phase_rows(monkeypatch, fixture, request):
    # the 96^2 scan and the 16^2 energy scale read the outer-product rows
    # (HoppingModel._grid_phases): _phases sees only the current-norm
    # sample and the locator's batches
    model = request.getfixturevalue(fixture)
    sizes, phases = [], cc.HoppingModel._phases

    def recorded(self, ks):
        sizes.append(len(ks))
        return phases(self, ks)

    monkeypatch.setattr(cc.HoppingModel, "_phases", recorded)
    assert len(cc.find_fermi_points(model)) >= 1
    assert sizes and max(sizes) < 96 ** 2
    sizes.clear()
    model.spectral_radius()
    assert sizes == []


@pytest.mark.parametrize("fixture", ["haldane_critical", "haldane_one_cone", "qwz_topological",
                                     "qwz_aniso", "qwz_u0", "skewed_one_cone"])
def test_scan_places_its_seeds_without_the_grid(monkeypatch, fixture, request):
    # the scan reads its seeds and current sample by flat index from the
    # midpoints and builds no uniform_grid; both are that grid's points bit
    # for bit, in its order (the one-cone Haldane model has a single seed)
    model = (one_cone_model(0)[0] if fixture == "skewed_one_cone"
             else request.getfixturevalue(fixture))
    grid = cc.uniform_grid(model.lattice, 96, 96).points

    def refused(*args, **kwargs):
        raise AssertionError("the scan built a uniform_grid")

    for module in (cc.lattice, cones):
        monkeypatch.setattr(module, "uniform_grid", refused, raising=False)
    seen = {}

    def recorded(name, arg):
        fn = getattr(cones, name)

        def wrapper(*args):
            result = fn(*args)
            seen[name] = result if arg is None else args[arg]
            return result

        monkeypatch.setattr(cones, name, wrapper)

    recorded("_seed_mask", None)            # the mask it returns
    recorded("_max_current_norm", 1)        # the momenta it samples
    recorded("minimize", 2)                 # the seeds
    assert len(cc.find_fermi_points(model)) >= 1
    assert np.array_equal(seen["_max_current_norm"], grid[::96 ** 2 // 512])
    assert np.array_equal(seen["minimize"], grid.reshape(96, 96, 2)[seen["_seed_mask"]])


# -- locator ---------------------------------------------------------------------

K_CORNER = 4.0 * np.pi / (3.0 * np.sqrt(3.0))   # the honeycomb's K, K' at (0, +-K_CORNER)


def locate_counted(monkeypatch, model):
    """find_fermi_points(model) and the (seeds, nfev) of its one locator call."""
    runs, locate = [], cones.minimize

    def counted(model, m, seeds):
        res = locate(model, m, seeds)
        runs.append((len(seeds), res.nfev))
        return res

    monkeypatch.setattr(cones, "minimize", counted)
    scan = cc.find_fermi_points(model)
    (seeds, nfev), = runs
    return scan, seeds, nfev


@pytest.mark.parametrize("model, omegas", [
    pytest.param(cc.preset_qwz(-2.0), [(0.0, 0.0)], id="qwz-gamma"),
    pytest.param(cc.preset_qwz(-2.0, 2.0, 1.0), [(0.0, 0.0)], id="qwz-aniso"),
    pytest.param(cc.preset_qwz(0.0), [(np.pi, 0.0), (0.0, np.pi)], id="qwz-u0"),
    pytest.param(cc.preset_haldane(1.0, 0.1, 0.0, 0.0), [(0.0, -K_CORNER), (0.0, K_CORNER)],
                 id="honeycomb"),
    pytest.param(cc.preset_haldane(1.0, 0.1, np.pi / 2.0, 0.3 * np.sqrt(3.0)),
                 [(0.0, K_CORNER)], id="haldane-critical"),
])
def test_locator_reaches_analytic_cones(monkeypatch, model, omegas):
    # Gauss-Newton converges quadratically at a conical zero: the located
    # point is the analytic one to rounding, within a few gap evaluations
    scan, seeds, nfev = locate_counted(monkeypatch, model)
    assert len(scan) == len(omegas)
    lat = model.lattice
    for want in omegas:
        dist = [np.linalg.norm(lat.from_fractional(cc.wrap_fractional(
            lat.to_fractional(k - np.array(want))))) for k in scan.locations]
        assert min(dist) < 1e-12
    assert max(scan.gaps) <= 1e-13 * max(1.0, model.spectral_radius())
    assert nfev <= 12 * seeds


def test_locator_backtracks_from_far_seeds():
    # seeds anywhere in the zone, far outside the cone's linear region: the
    # step halving keeps each seed's gap from rising, and on QWZ(-2) every
    # seed still reaches the one cone, at Gamma
    model, seeds = cc.preset_qwz(-2.0), FAR_SEEDS
    start, _ = cones._gauss_newton_step(model, 1, seeds)
    res = cones.minimize(model, 1, seeds)
    assert np.all(res.fun <= start) and np.all(res.fun < 1e-12)
    assert np.abs(cc.wrap_fractional(model.lattice.to_fractional(res.x))).max() < 1e-12


def eigenbasis_step_reference(model, m, ks):
    """The Gauss-Newton step in the pair's eigenbasis P: eigh of the
    assembled H, the Pauli vectors of the traceless parts of P^H J_j P as
    the Jacobian M, and -M^+ d with d = (0, 0, -gap/2)."""
    H, J1, J2 = model._assemble(ks, ((), (1,), (2,)))
    w, V = np.linalg.eigh(H)
    P = V[:, :, m - 1:m + 1]
    Ph = P.conj().swapaxes(1, 2)
    A = np.stack([Ph @ J @ P for J in (J1, J2)], axis=-1)
    M = np.stack([A[:, 0, 1].real, -A[:, 0, 1].imag,
                  0.5 * (A[:, 0, 0] - A[:, 1, 1]).real], axis=1)
    gap = w[:, m] - w[:, m - 1]
    return gap, 0.5 * gap[:, None] * np.linalg.pinv(M)[:, :, 2]


#: the seeds of test_locator_backtracks_from_far_seeds
FAR_SEEDS = np.random.default_rng(0).uniform(-np.pi, np.pi, (64, 2))

#: the presets and one_cone_model seeds 0-7, two bands each
TWO_BAND_CASES = [
    pytest.param(cc.preset_haldane(1.0, 0.1, 0.0, 0.0), id="honeycomb"),
    pytest.param(cc.preset_haldane(1.0, 0.1, np.pi / 2.0, 0.3 * np.sqrt(3.0)),
                 id="haldane-one-cone"),
    pytest.param(cc.preset_qwz(-2.0), id="qwz"),
    pytest.param(cc.preset_qwz(-2.0, 2.0, 1.0), id="qwz-aniso"),
    pytest.param(cc.preset_qwz(0.0), id="qwz-u0"),
    *[pytest.param(one_cone_model(seed)[0], id=f"one-cone-{seed}") for seed in range(8)],
]


@pytest.mark.parametrize("model", TWO_BAND_CASES)
def test_two_band_step_matches_the_eigenbasis_step(model):
    # the Pauli-row step -M^+ d is the eigenbasis one, since the frame
    # rotation cancels: on momenta across the zone, near each cone and at
    # the far seeds
    rng = np.random.default_rng(1)
    ks = np.vstack([model.lattice.from_fractional(rng.uniform(-0.5, 0.5, (64, 2))),
                    *[c.omega + 1e-3 * rng.normal(size=(8, 2))
                      for c in cc.characterize_cones(model)], FAR_SEEDS])
    gap, step = cones._gauss_newton_step(model, 1, ks)
    want_gap, want_step = eigenbasis_step_reference(model, 1, ks)
    assert np.abs(gap - want_gap).max() <= 1e-14 * model.spectral_radius()
    err = np.linalg.norm(step - want_step, axis=1)
    assert np.all(err <= 1e-12 * np.linalg.norm(want_step, axis=1))


def test_locator_reports_near_threshold_minimum(monkeypatch):
    # a gapped minimum of 1e-6 within 100x the tolerance: the locator stalls
    # there, within its budget, and the scan warns instead of accepting it
    scan, seeds, nfev = locate_counted(monkeypatch, cc.preset_qwz(-1.9999995))
    assert len(scan) == 0 and nfev <= 12 * seeds
    warning, = scan.warnings
    assert warning.startswith("near-threshold gap minimum 1.000e-06")


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


def test_fit_cone_rejects_single_radius(haldane_critical, haldane_cones):
    # one circle leaves nothing to extrapolate r -> 0 from
    with pytest.raises(ValueError, match=r"need at least two radii for the r -> 0 "
                                         r"extrapolation"):
        cc.fit_cone(haldane_critical, haldane_cones[0].omega, radii=[0.01])


@pytest.mark.parametrize("radii", [[1e-16, 2e-16], [1e-13, 2e-13]], ids=["1e-16", "1e-13"])
def test_fit_cone_refuses_unresolving_radii(haldane_critical, haldane_cones, qwz_aniso,
                                            qwz_aniso_cones, radii):
    # circles inside omega's own error once gave Q ~ 4.1e5 (1e-16) and Q off
    # by 18 % (1e-13) on the honeycomb, whose true Q is 2.25 I.  The
    # checkerboard's cone is located ~1e-31 from Gamma, where these radii
    # resolve it, so its leg samples a point ~3e-14 off the crossing, where a
    # Nelder-Mead simplex stopped
    displaced = np.array([2.9009237681023934e-14, 1.535573400902581e-14])
    for model, omegas in ((haldane_critical, [c.omega for c in haldane_cones]),
                          (qwz_aniso, [displaced])):
        for omega in omegas:
            with pytest.raises(cc.NotConical, match="does not resolve the cone"):
                cc.fit_cone(model, omega, radii=radii)
    Q, _, _ = cc.fit_cone(qwz_aniso, qwz_aniso_cones[0].omega, radii=radii)
    assert np.abs(Q - np.diag([4.0, 1.0])).max() < 1e-12
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


def with_far_band(model, level):
    """``model`` with one more orbital, decoupled, at the energy ``level``."""
    terms = {cell: np.pad(T, (0, 1)) for cell, T in model.terms.items()}
    terms[0, 0][-1, -1] = level
    return cc.HoppingModel(lattice=model.lattice, norbitals=model.norbitals + 1,
                           positions=np.vstack([model.positions, np.zeros(2)]),
                           terms=terms, fermi_energy=model.fermi_energy)


def lapack_shapes(monkeypatch):
    """The shapes of the Hamiltonian stacks (complex, not the real Q) that
    np.linalg.eigh and eigvalsh get while the test runs."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _solver=getattr(np.linalg, name), **kwargs):
            if np.iscomplexobj(a):
                shapes.append(np.shape(a))
            return _solver(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def test_fit_cone_decomposes_each_momentum_set_once(monkeypatch, haldane_critical,
                                                    haldane_cones):
    # two bands: H(omega) goes to LAPACK once, for _cone_pair, and all
    # circles go through one _eigvals; other N decompose all circles in one
    # eigh (the QWZ(-2, 2, 1) cone with a band at -5)
    shapes = lapack_shapes(monkeypatch)
    columns, eigvals = [], cones._eigvals

    def counted(model, phase):
        columns.append(phase.shape[1])
        return eigvals(model, phase)

    monkeypatch.setattr(cones, "_eigvals", counted)
    cc.fit_cone(haldane_critical, haldane_cones[0].omega, radii=[0.04, 0.02, 0.01],
                directions=16)
    assert shapes == [(2, 2)] and columns == [48]
    shapes.clear()
    three = with_far_band(cc.preset_qwz(-2.0, 2.0, 1.0), -5.0)
    cc.fit_cone(three, np.zeros(2), radii=[0.04, 0.02, 0.01], directions=16)
    assert shapes == [(3, 3), (48, 3, 3)] and columns == [48]


def circle_pairs_reference(model, omega, radii, directions):
    """The cone pair's eigenvalues (lam_lo, lam_hi) on fit_cone's circles,
    one block of rows per ascending radius: per circle eigh of its H, the
    pair followed by the overlap of its states with the pair's states at
    omega (_overlap_pair) and its isolation checked (_isolated_pair)."""
    theta = np.pi / 4.0 + 2.0 * np.pi * (np.arange(directions) + 0.5) / directions
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    _, _, states = cones._cone_pair(model, omega)
    pairs = []
    for r in sorted(radii):
        w, V = np.linalg.eigh(model.h_batch(omega + r * dirs))
        pairs.append(np.column_stack(cones._isolated_pair(
            w, cones._overlap_pair(V, states), model.fermi_energy, 10.0, "reference")))
    return np.vstack(pairs)


@pytest.mark.parametrize("model", TWO_BAND_CASES)
def test_two_band_fit_matches_the_eigh_overlap_fit(monkeypatch, model):
    # the two-band fit reads its circles' pair as the whole spectrum, from
    # one _eigvals: the eigh/overlap pair on the same circles, and the fit
    # of the same model with a decoupled band far below, which takes the
    # eigh/overlap route
    rho = model.spectral_radius()
    spectra, eigvals = [], cones._eigvals

    def recorded(model, phase):
        spectra.append(eigvals(model, phase))
        return spectra[-1]

    for cone in cc.characterize_cones(model):
        spectra.clear()
        monkeypatch.setattr(cones, "_eigvals", recorded)
        Q, tilt, resid = cc.fit_cone(model, cone.omega)
        monkeypatch.undo()
        bmin = min(model.lattice.zone_lengths)
        want = circle_pairs_reference(model, cone.omega,
                                      [2e-2 * bmin, 1e-2 * bmin, 5e-3 * bmin], 16)
        (got,) = spectra
        assert np.abs(got - want).max() <= 1e-14 * rho
        Q3, tilt3, resid3 = cc.fit_cone(with_far_band(model, model.fermi_energy - 10.0 * rho),
                                        cone.omega)
        scale = np.abs(Q3).max()
        assert np.abs(Q - Q3).max() <= 1e-9 * scale
        assert np.abs(tilt - tilt3).max() <= 1e-9 * np.sqrt(scale)
        assert resid == pytest.approx(resid3, rel=1e-9)


def test_cone_pair_states_are_the_pairs_eigenvectors(haldane_critical, haldane_cones):
    # a decoupled band far below the cone makes the pair columns 1 and 2
    three = with_far_band(cc.preset_qwz(-2.0, 2.0, 1.0), -5.0)
    cases = [(haldane_critical, haldane_cones[0].omega, 0),
             (haldane_critical, np.array([0.3, -0.2]), 0),
             (three, np.zeros(2), 1), (three, np.array([0.4, 0.1]), 1)]
    for model, k, want in cases:
        lo, gap, states = cones._cone_pair(model, k)
        H = cc.h_at(model, k)
        w = np.linalg.eigvalsh(H)
        assert lo == want and gap == w[lo + 1] - w[lo]
        assert states.shape == (model.norbitals, 2)
        assert np.abs(states.conj().T @ states - np.eye(2)).max() < 1e-14
        assert np.abs(H @ states - states * w[lo:lo + 2]).max() < 1e-13


def test_fermi_point_validation():
    with pytest.raises(ValueError):
        synthetic_cone([[1.0, 0.3], [0.2, 1.0]])     # not symmetric
    with pytest.raises(ValueError):
        synthetic_cone([[1.0, 0.0], [0.0, -1.0]])    # not positive definite
    with pytest.raises(ValueError):
        synthetic_cone(np.eye(2), tilt=(2.0, 0.0))   # cone condition violated


@pytest.mark.parametrize("gap", [1e-6, 2e-6], ids=["at-tolerance", "above-tolerance"])
def test_fermi_point_refuses_gap_at_or_above_tolerance(gap):
    # the verified gap at omega must fall strictly below gap_tol
    with pytest.raises(ValueError, match=rf"gap {gap:.3e} at omega exceeds "
                                         r"tolerance 1\.000e-06"):
        cc.FermiPoint(omega=np.zeros(2), Q=np.eye(2), tilt=np.zeros(2), residual=0.0,
                      gap_at_omega=gap, gap_tol=1e-6)


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

@pytest.mark.parametrize("k", [-330, -70, 70, 330])
@pytest.mark.parametrize("case", ["haldane_critical", "haldane_one_cone", "qwz_aniso"])
def test_closed_form_invariant_under_energy_rescaling(case, k, request):
    # sigma reads Q only through Q_jj / sqrt(det Q), so H -> 2^k H moves
    # nothing: the scan's gap tolerance is relative to the spectral radius,
    # and the fit residual and det Q are formed on values scaled by a power
    # of two, so neither overflows nor underflows
    model = request.getfixturevalue(case)
    unscaled = request.getfixturevalue(
        {"haldane_critical": "haldane_cones"}.get(case, case + "_cones"))
    scaled = dataclasses.replace(
        model, terms={cell: T * 2.0**k for cell, T in model.terms.items()},
        fermi_energy=model.fermi_energy * 2.0**k)
    found = cc.characterize_cones(scaled)
    assert len(found) == len(unscaled)
    for j in (1, 2):
        assert cc.sigma_closed_form(found, j)[0] == pytest.approx(
            cc.sigma_closed_form(unscaled, j)[0], rel=0, abs=1e-12), j


@settings(max_examples=25, deadline=None)
@example(seed=0)
@given(seed=one_cone_seeds)
def test_finder_locates_the_one_cone_of_a_random_model(seed):
    # a random traceless two-band model has H = d . sigma with a real d, whose
    # zeros in 2D are generically only the one its on-site term puts at k*
    model, k_star = one_cone_model(seed)
    scan = cc.find_fermi_points(model)
    assert len(scan) == 1
    lat = model.lattice
    d = lat.to_fractional(scan.locations[0]) - lat.to_fractional(k_star)
    assert np.abs(d - np.round(d)).max() < 1e-10


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


@pytest.mark.slow
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


def test_fermi_point_separation_refuses_no_cones(square_lattice):
    with pytest.raises(ValueError, match="need at least one cone"):
        cc.fermi_point_separation([], square_lattice)


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
