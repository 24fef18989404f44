"""Tests for the linear-response integrals and the eta -> 0 extraction.

The headline oracle re-derives f_jl(eta) by brute-force numerical time
integration (composite Simpson of the damped oscillatory integrand) and
checks it against the analytic frequency-domain evaluation on the same
momentum grid, so only the time-vs-frequency transform is under test.
Further anchors: a hand-derived closed form for the square-lattice
Schwinger term, exact vanishing on a hopping-free model, and algebraic
identities of the estimator sequence.
"""

import dataclasses
import hashlib
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import conecond as cc
from conecond import bloch, kubo
from conecond.kubo import _cone_pass, _fermi_gaps, _grid_values
from conftest import one_cone_model, random_momenta, tilted_qwz, with_far_band


def _pair_data(model, grid, j, l):
    """Flattened (Re z, Im z, Delta, weight) over all (k, occupied q,
    unoccupied p) with z = (J_j)_{pq} (J_l)_{qp} and Delta = L_q - L_p."""
    mu = model.fermi_energy
    w, V = np.linalg.eigh(model.h_batch(grid.points))
    N = model.norbitals
    counts = (w <= mu).sum(axis=1)
    Jj = model.dh_batch(grid.points, j)
    Jl = Jj if l == j else model.dh_batch(grid.points, l)
    Vh = V.conj().transpose(0, 2, 1)
    Aj = Vh @ Jj @ V
    Al = Aj if l == j else Vh @ Jl @ V
    occ = np.arange(N)[None, :] < counts[:, None]
    pair = occ[:, :, None] & ~occ[:, None, :]
    delta = w[:, :, None] - w[:, None, :]
    z = Aj.transpose(0, 2, 1) * Al
    wk = np.broadcast_to(grid.weights[:, None, None], pair.shape)
    return z.real[pair], z.imag[pair], delta[pair], wk[pair]


def time_domain_response(model, grid, eta, j, l, t_cut=25.0, nt=40001):
    """Brute-force time-domain evaluation of the damped response integral.

    Per spectral pair the damped time integral is
        2 * int_0^inf e^{-eta t} (Re z sin(Delta t) - Im z cos(Delta t)) dt,
    which is integrated here by composite Simpson quadrature on
    [0, t_cut/eta] (the tail beyond is exponentially negligible), entirely
    independent of the analytic frequency-domain form used in production.
    """
    rez, imz, delta, wk = _pair_data(model, grid, j, l)
    t = np.linspace(0.0, t_cut / eta, nt)
    G = np.empty(nt)
    a = wk * rez
    b = wk * imz
    for lo in range(0, nt, 2048):
        tt = t[lo:lo + 2048]
        phase = delta[:, None] * tt[None, :]
        G[lo:lo + 2048] = 2.0 * (a @ np.sin(phase) - b @ np.cos(phase))
    return simpson(np.exp(-eta * t) * G, x=t) / (2.0 * np.pi) ** 2


# -- time-domain quadrature oracle -------------------------------------------------

@pytest.mark.slow
def test_frequency_domain_matches_time_quadrature_longitudinal(qwz_u0):
    grid = cc.uniform_grid(qwz_u0.lattice, 48, 48)
    oracle = time_domain_response(qwz_u0, grid, 0.1, 1, 1)
    est = cc.fjl_eta(qwz_u0, 0.1, 1, 1, grid)
    assert est.quantity == "f_jl"
    assert abs(est.value - oracle) < 1e-6 * abs(oracle)


@pytest.mark.slow
def test_frequency_domain_matches_time_quadrature_mixed(qwz_gapped):
    # the gapped Chern model has a nonzero mixed response, exercising the
    # imaginary part of the matrix-element product
    grid = cc.uniform_grid(qwz_gapped.lattice, 48, 48)
    oracle = time_domain_response(qwz_gapped, grid, 0.1, 1, 2)
    est = cc.fjl_eta(qwz_gapped, 0.1, 1, 2, grid)
    assert abs(oracle) > 1e-3
    assert abs(est.value - oracle) < 1e-6 * abs(oracle)


# -- exact anchors ------------------------------------------------------------------

def test_hopping_free_model_all_responses_vanish(onsite_model):
    grid = cc.uniform_grid(onsite_model.lattice, 16, 16)
    assert cc.fjl_eta(onsite_model, 0.3, 1, 1, grid).value == 0.0
    assert cc.fjl_eta(onsite_model, 0.3, 1, 2, grid).value == 0.0
    assert cc.ftilde_jj(onsite_model, 0.2, 1, grid).value == 0.0
    assert cc.ftilde_jj(onsite_model, 0.0, 2, grid).value == 0.0
    assert cc.schwinger(onsite_model, 1, 1, grid).value == 0.0
    assert cc.schwinger(onsite_model, 1, 2, grid).value == 0.0


def test_schwinger_square_lattice_half_filling_analytic(square_model):
    # For Lambda = 2(cos k1 + cos k2) at mu = 0 the occupied region is
    # cos k1 + cos k2 <= 0; integrating -2 cos k1 over it in closed form
    # (the k2-extent at fixed k1 in [0, pi] is 2 k1) gives
    #   s_11 = -8/(2 pi)^2 * int_0^pi k cos k dk = 4 / pi^2.
    exact = 4.0 / np.pi**2
    s256 = cc.schwinger(square_model, 1, 1,
                        cc.uniform_grid(square_model.lattice, 256, 256))
    assert s256.quantity == "schwinger"
    assert abs(s256.value - exact) < 5e-5
    s128 = cc.schwinger(square_model, 1, 1,
                        cc.uniform_grid(square_model.lattice, 128, 128))
    assert abs(s128.value - exact) < 1e-4


def test_ftilde_at_zero_equals_minus_schwinger_gapped(qwz_gapped):
    # for a gapped model both zone integrands are analytic, the midpoint
    # rule converges exponentially, and the two integrals agree essentially
    # to roundoff already at this subdivision
    grid = cc.uniform_grid(qwz_gapped.lattice, 96, 96)
    ft0 = cc.ftilde_jj(qwz_gapped, 0.0, 1, grid).value
    s = cc.schwinger(qwz_gapped, 1, 1, grid).value
    assert abs(ft0 + s) < 1e-9 * max(1.0, abs(s))


def test_ftilde_at_zero_plus_schwinger_gapless_residual(qwz_u0):
    """Documents measured behavior: with the gap closed at two zone-boundary
    points the eta = 0 integrand behaves like 1/|k - omega| there, so the
    midpoint rule converges only linearly: the identity residual
    |ftilde(0) + s| measures 2.0e-3 on the 128^2 grid (halving to 1.0e-3 on
    256^2) and misses the 1e-4 target this check records; the gapped
    companion above meets it with nine orders of margin."""
    grid = cc.uniform_grid(qwz_u0.lattice, 128, 128)
    ft0 = cc.ftilde_jj(qwz_u0, 0.0, 1, grid).value
    s = cc.schwinger(qwz_u0, 1, 1, grid).value
    assert abs(ft0 + s) < 1e-4


def test_ftilde_exactly_even_in_eta(haldane_critical, qwz_gapped):
    for model in (haldane_critical, qwz_gapped):
        grid = cc.uniform_grid(model.lattice, 32, 32)
        plus = cc.ftilde_jj(model, 0.07, 1, grid).value
        minus = cc.ftilde_jj(model, -0.07, 1, grid).value
        assert plus == minus  # bit-identical: eta enters only squared


def test_fjl_diagonal_matches_ftilde(haldane_critical, qwz_gapped):
    # two independently coded assemblies of the same integral
    for model, eta in [(haldane_critical, 0.2), (qwz_gapped, 0.1)]:
        grid = cc.uniform_grid(model.lattice, 48, 48)
        for j in (1, 2):
            a = cc.fjl_eta(model, eta, j, j, grid).value
            b = cc.ftilde_jj(model, eta, j, grid).value
            assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("eta", [0.3, 0.05])
@pytest.mark.parametrize("j", [1, 2])
def test_longitudinal_response_nonpositive(
    haldane_critical, qwz_topological, qwz_gapped, qwz_u0, eta, j
):
    for model in (haldane_critical, qwz_topological, qwz_gapped, qwz_u0):
        grid = cc.uniform_grid(model.lattice, 24, 24)
        assert cc.fjl_eta(model, eta, j, j, grid).value <= 0.0


# -- estimator algebra --------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    c0=st.floats(-10, 10),
    sigma=st.floats(-10, 10),
    c2=st.floats(-10, 10),
    eta0=st.floats(0.01, 1.0),
    n=st.integers(3, 7),
)
def test_pair_estimator_exact_on_quadratic_response(c0, sigma, c2, eta0, n):
    # for f(eta) = c0 + sigma eta + c2 eta^2 the pair estimator equals
    # sigma + 3 c2 eta identically, and the final Richardson step recovers
    # sigma itself; both are algebraic identities, checked here to roundoff
    seq = [eta0 / 2.0**i for i in range(n)]
    f = [c0 + sigma * e + c2 * e * e for e in seq]
    hats = cc.sigma_hat_sequence(seq, f)
    tol = 1e-8 * (1.0 + abs(c0) + abs(sigma) + abs(c2))
    for eta, s_hat in zip(seq[1:], hats):
        assert abs(s_hat - (sigma + 3.0 * c2 * eta)) < tol
    assert abs(cc.richardson_extrapolate(hats) - sigma) < tol


def test_eta_sequence_validation():
    with pytest.raises(ValueError):
        cc.sigma_hat_sequence([0.2, 0.15], [0.0, 0.0])  # not halving
    with pytest.raises(ValueError):
        cc.sigma_hat_sequence([0.2, 0.1], [0.0])  # length mismatch
    with pytest.raises(ValueError):
        cc.sigma_hat_sequence([-0.2, -0.1], [0.0, 0.0])  # nonpositive
    with pytest.raises(ValueError):
        cc.sigma_hat_sequence([0.2], [0.0])  # need at least two
    with pytest.raises(ValueError):
        cc.richardson_extrapolate([0.125])


def test_default_eta_sequence_halves_exactly(qwz_gapped):
    seq = cc.default_eta_sequence(qwz_gapped, count=6)
    assert len(seq) == 6
    assert np.isclose(seq[0], 0.2 * qwz_gapped.spectral_radius() / 10.0)
    for a, b in zip(seq, seq[1:]):
        assert a == 2.0 * b  # exact in floating point


# -- quadrature-error estimate ------------------------------------------------------

def test_quad_error_bounds_next_refinement(qwz_gapped):
    lat = qwz_gapped.lattice
    est = cc.fjl_eta(
        qwz_gapped, 0.2, 1, 1,
        cc.uniform_grid(lat, 48, 48), companion=cc.uniform_grid(lat, 24, 24),
    )
    v96 = cc.fjl_eta(qwz_gapped, 0.2, 1, 1, cc.uniform_grid(lat, 96, 96)).value
    assert abs(v96 - est.value) < est.quad_error


def test_quad_error_floor_without_companion(qwz_gapped):
    est = cc.fjl_eta(qwz_gapped, 0.2, 1, 1,
                     cc.uniform_grid(qwz_gapped.lattice, 24, 24))
    assert est.quad_error > 0.0  # roundoff-scale floor


# -- guards -------------------------------------------------------------------------

def test_grid_too_coarse_when_cones_vouched(qwz_topological, qwz_cones):
    # eta = 0.05 Lorentzian vs 64^2 spacing near the zone-center cone: the
    # resolution gate must reject when cone locations are supplied ...
    grid = cc.uniform_grid(qwz_topological.lattice, 64, 64)
    with pytest.raises(cc.GridTooCoarse):
        cc.fjl_eta(qwz_topological, 0.05, 1, 1, grid, cones=qwz_cones)
    with pytest.raises(cc.GridTooCoarse):
        cc.ftilde_jj(qwz_topological, 0.05, 1, grid, cones=qwz_cones)
    # ... and stay silent without them, so method comparisons on a shared
    # coarse grid remain possible
    est = cc.fjl_eta(qwz_topological, 0.05, 1, 1, grid)
    assert np.isfinite(est.value) and est.value < 0.0


def test_degenerate_point_rejected():
    # an odd grid samples the zone center exactly, where this model's gap
    # is 2e-13 -- below the degeneracy floor
    model = cc.preset_qwz(-2.0 + 1e-13)
    grid = cc.uniform_grid(model.lattice, 33, 33)
    with pytest.raises(cc.DegeneratePoint):
        cc.fjl_eta(model, 0.1, 1, 1, grid)
    with pytest.raises(cc.DegeneratePoint):
        cc.schwinger(model, 1, 1, grid)


def test_fjl_argument_validation(qwz_gapped):
    grid = cc.uniform_grid(qwz_gapped.lattice, 8, 8)
    with pytest.raises(ValueError):
        cc.fjl_eta(qwz_gapped, 0.0, 1, 1, grid)
    with pytest.raises(ValueError):
        cc.fjl_eta(qwz_gapped, -0.1, 1, 1, grid)
    with pytest.raises(ValueError):
        cc.fjl_eta(qwz_gapped, 0.1, 3, 1, grid)
    with pytest.raises(ValueError):
        cc.ftilde_jj(qwz_gapped, 0.1, 0, grid)
    with pytest.raises(ValueError):
        cc.schwinger(qwz_gapped, 1, 5, grid)


def test_estimate_and_report_validation():
    with pytest.raises(ValueError):
        cc.KuboEstimate(value=float("nan"), eta=0.1, quantity="f_jl",
                        grid="g", quad_error=0.0)
    with pytest.raises(ValueError):
        cc.KuboEstimate(value=0.0, eta=0.1, quantity="f_jl",
                        grid="g", quad_error=-1.0)
    with pytest.raises(ValueError):
        cc.ConductivityReport(method="closed_form", sigma={(1, 1): -0.01})


def test_closed_form_report_refuses_off_diagonal(qwz_cones):
    with pytest.raises(ValueError, match=r"the closed form covers longitudinal "
                                         r"directions only \(j = l\)"):
        cc.closed_form_report(qwz_cones, ((1, 2),))


# -- cone-neighborhood integrals ----------------------------------------------------

def test_empty_cone_list_gives_zero():
    est = cc.fjj_sing(cc.preset_qwz(1.0), [], 0.1, 1)
    assert est.value == 0.0 and est.quantity == "f_sing"
    est = cc.zeta_jj(cc.preset_qwz(1.0), [], 0.1, 2)
    assert est.value == 0.0 and est.quantity == "zeta"


def test_epsilon_too_large_rejected(haldane_critical, haldane_cones):
    sep = cc.fermi_point_separation(haldane_cones, haldane_critical.lattice)
    with pytest.raises(cc.EpsilonTooLarge):
        cc.fjj_sing(haldane_critical, haldane_cones, 0.05, 1, eps=2.0 * sep)
    with pytest.raises(cc.EpsilonTooLarge):
        cc.zeta_jj(haldane_critical, haldane_cones, 0.05, 1, eps=2.0 * sep)
    with pytest.raises(ValueError):
        cc.fjj_sing(haldane_critical, haldane_cones, 0.05, 1, eps=-0.1)


def test_two_band_isolation_guard(hex_flat_band_model):
    # a flat band 0.02 above the Fermi level enters any neighborhood whose
    # sampled energy window reaches it; shrinking eps below that window
    # restores a finite (negative) singular part
    model = hex_flat_band_model
    K = model.lattice.from_fractional([-1.0 / 3.0, 1.0 / 3.0])
    cone = cc.FermiPoint(omega=K, Q=2.25 * np.eye(2), tilt=np.zeros(2),
                         residual=0.0, gap_at_omega=0.0)
    with pytest.raises(cc.TwoBandIsolationFailed):
        cc.fjj_sing(model, [cone], 0.05, 1, eps=0.5)
    with pytest.raises(cc.TwoBandIsolationFailed):
        cc.zeta_jj(model, [cone], 0.05, 1, eps=0.5)
    est = cc.fjj_sing(model, [cone], 0.05, 1, eps=0.004)
    assert np.isfinite(est.value) and est.value < 0.0


def _dense_cone_reference(model, cones, eta, j, eps, ntheta=64, order=12,
                          fd_step=cc.kubo.DEFAULT_FD_STEP):
    """fjj_sing and zeta_jj as {quantity: (value, quad_error)}, read densely:
    the clipped straddling pair of a full eigh, the current rotated in full
    as Vh @ J @ V, and the pair's elements picked from the N x N result."""
    mu = model.fermi_energy
    step = fd_step * np.eye(2)[j - 1]

    def pair(ks):
        w, V = np.linalg.eigh(model.h_batch(ks))
        c = np.clip((w <= mu).sum(axis=1), 1, w.shape[1] - 1)
        A = V.conj().transpose(0, 2, 1) @ model.dh_batch(ks, j) @ V
        i = np.arange(len(ks))
        return (w[i, c - 1], w[i, c], A[i, c - 1, c],
                A[i, c - 1, c - 1].real, A[i, c, c].real)

    def integrands(ks):
        lo, hi, me, s_lo, s_hi = pair(ks)
        lo_p, hi_p, _, slo_p, shi_p = pair(ks + step)
        lo_m, hi_m, _, slo_m, shi_m = pair(ks - step)
        d2g = (2.0 * (lo_p - mu) * slo_p - 2.0 * (lo_m - mu) * slo_m
               + 2.0 * (hi_p - mu) * shi_p - 2.0 * (hi_m - mu) * shi_m) / (2.0 * fd_step)
        lorentz = -(hi - lo) / (eta * eta + (hi - lo) ** 2) / (2.0 * np.pi) ** 2
        return 2.0 * lorentz * np.abs(me) ** 2, lorentz * (0.5 * d2g - s_lo**2 - s_hi**2)

    def rule(nt, og):
        total = np.zeros(2)
        for cone in cones:
            offsets, wq = kubo._elliptic_polar_nodes(cone, eps, eta, nt, og)
            total += [np.sum(f * wq) for f in integrands(cone.omega + offsets)]
        return total

    fine, coarse = rule(ntheta, order), rule(ntheta // 2, order - 4)
    quad = np.maximum(np.abs(fine - coarse), 1e-14 * (1.0 + np.abs(fine)))
    return {"f_sing": (fine[0], quad[0]), "zeta": (fine[1], quad[1])}


def test_gauss_legendre_rule_is_computed_once_per_order(monkeypatch):
    # the B_eps nodes take each order's rule from one leggauss call, read only
    calls, leggauss = [], np.polynomial.legendre.leggauss

    def counted(order):
        calls.append(order)
        return leggauss(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    kubo._gauss_legendre.cache_clear()
    try:
        for order in (12, 8, 12, 8):
            x, w = kubo._gauss_legendre(order)
            assert np.array_equal(x, leggauss(order)[0])
            assert np.array_equal(w, leggauss(order)[1])
            assert not (x.flags.writeable or w.flags.writeable)
    finally:
        kubo._gauss_legendre.cache_clear()
    assert calls == [12, 8]


def _assert_cone_integrals_match_dense(model, cones, eps):
    """fjj_sing and zeta_jj against _dense_cone_reference, value and
    quad_error, at two etas and both directions."""
    for eta in (0.05, 0.0125):
        for j in (1, 2):
            ref = _dense_cone_reference(model, cones, eta, j, eps)
            for fn, rtol in ((cc.fjj_sing, 1e-14), (cc.zeta_jj, 1e-11)):
                est = fn(model, cones, eta, j, eps=eps)
                value, quad = ref[est.quantity]
                assert abs(est.value - value) <= rtol * abs(value), (est.quantity, eta, j)
                assert abs(est.quad_error - quad) <= 1e-12, (est.quantity, eta, j)


@pytest.mark.parametrize("name", ["haldane_one_cone", "qwz_aniso", "tilted_qwz",
                                  "hex_flat_band_model", "qwz_aniso_band_below"])
def test_cone_integrals_match_dense_rotation(name, request):
    # fjj_sing and zeta_jj contract only the straddling pair's elements; a
    # dense read of the same elements from the fully rotated current agrees
    if name == "haldane_one_cone":
        model = cc.preset_haldane(1.0, 0.1, np.pi / 2.0, 3.0 * np.sqrt(3.0) * 0.1)
        cones = cc.characterize_cones(model)
    elif name == "qwz_aniso":
        model = request.getfixturevalue(name)
        cones = request.getfixturevalue("qwz_aniso_cones")
    elif name == "tilted_qwz":
        # the one case whose currents have an identity part a_j != 0 at the
        # nodes (it is 0 on the others), which the band slopes a_j -+ m_j . n
        # read and |<lo|J_j|hi>|^2 must not
        model = tilted_qwz(0.4, u=-2.0)
        cones = cc.characterize_cones(model)
        assert np.abs(cones[0].tilt - (0.4, 0.0)).max() < 1e-3
    elif name == "qwz_aniso_band_below":
        # N = 3, the cone pair (1, 2) of qwz_aniso above a decoupled band
        model = with_far_band(request.getfixturevalue("qwz_aniso"), -5.0)
        cones = request.getfixturevalue("qwz_aniso_cones")
    else:
        # N = 3, with eps small enough that the pair stays isolated
        model = request.getfixturevalue(name)
        cones = [cc.FermiPoint(omega=model.lattice.from_fractional([-1.0 / 3.0, 1.0 / 3.0]),
                               Q=2.25 * np.eye(2), tilt=np.zeros(2), residual=0.0,
                               gap_at_omega=0.0)]
    eps = 0.004 if name == "hex_flat_band_model" else cc.default_epsilon(cones, model.lattice)
    assert len(cones) == 1
    _assert_cone_integrals_match_dense(model, cones, eps)


def test_cone_node_on_the_crossing(monkeypatch):
    # QWZ(-2) has its cone at Gamma, where H = 0 exactly: there r = 0 and
    # n = d / r is undefined.  With one node of every rule put there, the
    # B_eps pass warns of nothing and agrees with the dense reference, whose
    # full eigh is defined there, on the same nodes; the pair at the node
    # has equal eigenvalues and finite elements, from no eigenvector
    model = cc.preset_qwz(-2.0)
    cone, = cc.characterize_cones(model)
    cones = [dataclasses.replace(cone, omega=np.zeros(2))]
    nodes = kubo._elliptic_polar_nodes

    def one_on_the_crossing(*args):
        offsets, weights = nodes(*args)
        offsets[0] = 0.0
        return offsets, weights

    def refuse(*args):
        raise AssertionError("not on the two-band path")

    assert not model._pauli_rows(np.zeros((1, 2)), [()]).any()
    monkeypatch.setattr(kubo, "_elliptic_polar_nodes", one_on_the_crossing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_cone_integrals_match_dense(model, cones, cc.default_epsilon(cones, model.lattice))
        monkeypatch.setattr(cc.HoppingModel, "_assemble", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        lam_lo, lam_hi, elements = kubo._band_pair(model, np.zeros((1, 2)), (1, 2), 0)
    assert lam_lo == lam_hi == 0.0
    assert all(np.isfinite(x).all() and x[0] == 0.0 for x in elements.values())


@pytest.mark.parametrize("name", ["haldane_critical", "qwz_aniso", "hex_flat_band_model"])
def test_cone_pass_matches_separate_calls(name, request):
    # one pass over mixed requests shares the nodes and the centre
    # eigensolve of each (eta, cone) and changes no float: every value equals
    # the fine-rule value of its own public call bit for bit
    model = request.getfixturevalue(name)
    if name == "hex_flat_band_model":
        cones = [cc.FermiPoint(omega=model.lattice.from_fractional([-1.0 / 3.0, 1.0 / 3.0]),
                               Q=2.25 * np.eye(2), tilt=np.zeros(2), residual=0.0,
                               gap_at_omega=0.0)]
        eps = 0.004
    else:
        cones = request.getfixturevalue(
            {"haldane_critical": "haldane_cones", "qwz_aniso": "qwz_aniso_cones"}[name])
        eps = cc.default_epsilon(cones, model.lattice)
    requests = [(q, eta, (j, j)) for eta in (0.05, 0.0125)
                for q, j in (("f_sing", 1), ("f_sing", 2), ("zeta", 1))]
    mixed, = _cone_pass(model, cones, requests, eps)
    assert list(mixed) == requests
    public = {"f_sing": cc.fjj_sing, "zeta": cc.zeta_jj}
    for r in requests:
        quantity, eta, (j, _) = r
        assert mixed[r] == public[quantity](model, cones, eta, j, eps=eps).value, r


def test_zeta_refuses_fd_step_beyond_node_scale(haldane_critical, haldane_cones):
    # a step of 10 spans the whole B_eps, and zeta once came out +0.0727
    # there against -0.0772 at the default step
    model, cones = haldane_critical, haldane_cones
    eps = cc.default_epsilon(cones, model.lattice)
    scale = min(eps / (2.0 * np.sqrt(np.linalg.eigvalsh(c.Q)[-1])) for c in cones)
    bound = cc.kubo._MAX_FD_STEP_FRACTION * scale
    for step in (10.0, 1.01 * bound):
        with pytest.raises(cc.FdStepTooLarge, match="exceeds 0.1 of the B_eps node scale"):
            cc.zeta_jj(model, cones, 0.05, 1, fd_step=step)
    default = cc.zeta_jj(model, cones, 0.05, 1).value
    assert abs(cc.zeta_jj(model, cones, 0.05, 1, fd_step=bound).value - default) \
        <= 3e-3 * abs(default)
    # fjj_sing reads no finite difference, so it takes an eps of any size
    assert np.isfinite(cc.fjj_sing(model, cones, 0.05, 1, eps=1e-4).value)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda m, c: cc.fjj_sing(m, c, 0.05, 1, eps=np.nan),
                 "eps must be positive and finite", id="eps=nan"),
    pytest.param(lambda m, c: cc.zeta_jj(m, c, 0.05, 1, eps=np.inf),
                 "eps must be positive and finite", id="eps=inf"),
    pytest.param(lambda m, c: cc.b_epsilon_membership(c, c[0].omega, np.nan, m.lattice),
                 "eps must be positive and finite", id="membership-eps=nan"),
    pytest.param(lambda m, c: cc.zeta_jj(m, c, np.inf, 1), "eta must be finite",
                 id="eta=inf"),
    pytest.param(lambda m, c: cc.fjj_sing(m, c, np.nan, 2), "eta must be finite",
                 id="eta=nan"),
    pytest.param(lambda m, c: cc.zeta_jj(m, c, 0.05, 1, fd_step=0.0),
                 "fd_step must be positive and finite", id="fd_step=0"),
    pytest.param(lambda m, c: cc.zeta_jj(m, c, 0.05, 1, fd_step=np.nan),
                 "fd_step must be positive and finite", id="fd_step=nan"),
])
def test_cone_integral_arguments_refused(haldane_critical, haldane_cones, call, message):
    # each once ended in EpsilonTooLarge, a ZeroDivisionError, a
    # RuntimeWarning or a silent 0.0
    with pytest.raises(ValueError, match=message) as exc:
        call(haldane_critical, haldane_cones)
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("call", [
    pytest.param(lambda m, g: cc.fjl_eta(m, np.inf, 1, 1, g), id="fjl-inf"),
    pytest.param(lambda m, g: cc.fjl_eta(m, np.nan, 1, 2, g), id="fjl-nan"),
    pytest.param(lambda m, g: cc.ftilde_jj(m, np.inf, 1, g), id="ftilde-inf"),
    pytest.param(lambda m, g: cc.ftilde_jj(m, -np.inf, 2, g), id="ftilde-minus-inf"),
    pytest.param(lambda m, g: cc.ftilde_jj(m, np.nan, 1, g), id="ftilde-nan"),
])
def test_grid_kernel_refuses_non_finite_eta(qwz_gapped, call):
    # fjl_eta at eta = inf once ended in a RuntimeWarning (inf / inf) and
    # ftilde_jj returned 0.0
    grid = cc.uniform_grid(qwz_gapped.lattice, 8, 8)
    with pytest.raises(ValueError, match="eta must be finite") as exc:
        call(qwz_gapped, grid)
    assert type(exc.value) is ValueError


def test_regular_part_flat_in_eta(haldane_critical, haldane_cones):
    # subtracting the cone-neighborhood integral removes the singular eta
    # dependence: the remainder moves by O(eta^2) when eta halves
    policy = cc.GridPolicy()
    regular = {}
    for eta in (0.05, 0.025):
        fine, comp = policy.grids_for(haldane_critical, haldane_cones, eta)
        ft = cc.ftilde_jj(haldane_critical, eta, 1, fine, comp,
                          cones=haldane_cones)
        fs = cc.fjj_sing(haldane_critical, haldane_cones, eta, 1)
        regular[eta] = ft.value - fs.value
        scale = abs(ft.value)
    assert abs(regular[0.05] - regular[0.025]) < 2e-3 * scale


# -- sigma extraction ---------------------------------------------------------------

def test_sigma_kubo_not_converged_carries_report(qwz_gapped):
    with pytest.raises(cc.NotConverged) as exc:
        cc.sigma_kubo(qwz_gapped, 1, 1, eta_sequence=[0.2, 0.1],
                      grid_policy=cc.GridPolicy(base=32), cones=[])
    report = exc.value.report
    assert report.method == "kubo_extrapolation"
    assert report.converged[(1, 1)] is False
    assert len(report.per_eta[(1, 1)]) == 1
    assert np.isfinite(report.sigma[(1, 1)])


# -- one spectral pass for every (eta, pair) request ---------------------------------

def _f_pass(model, grid, etas, pairs, gate):
    """f_jl for every (eta, pair) from one kernel pass, keyed (eta, pair)."""
    values, _ = _grid_values(
        model, grid, [("f_jl", eta, p) for eta in etas for p in pairs], gate)
    return {(eta, p): v for (_, eta, p), v in values.items()}


def test_pair_sum_pass_matches_separate_fjl_calls(haldane_critical, haldane_cones):
    # a grid refined for eta = 0.1 resolves 0.1 but not 0.06, and at 0.06 the
    # gate trips for the pairs with the steeper current J_1 only: each
    # request must give exactly what its own fjl_eta call gives
    model, cones = haldane_critical, haldane_cones
    grid, _ = cc.GridPolicy(base=24).grids_for(model, cones, 0.1)
    pairs = ((1, 1), (2, 2), (1, 2))

    def single(eta, j, l):
        try:
            return cc.fjl_eta(model, eta, j, l, grid, cones=cones).value
        except cc.GridTooCoarse as exc:
            return exc

    separate = {(eta, p): single(eta, *p) for eta in (0.1, 0.06) for p in pairs}
    assert [type(v).__name__ for v in separate.values()] == (
        ["float"] * 3 + ["GridTooCoarse", "float", "GridTooCoarse"])

    def check_pass(etas, pass_pairs):
        requests = [(eta, p) for eta in etas for p in pass_pairs]
        failing = [r for r in requests if isinstance(separate[r], Exception)]
        if failing:
            # the first failing request raises, with its own message
            with pytest.raises(cc.GridTooCoarse) as exc:
                _f_pass(model, grid, etas, pass_pairs, True)
            assert str(exc.value) == str(separate[failing[0]])
        else:
            values = _f_pass(model, grid, etas, pass_pairs, True)
            assert list(values) == requests
            for r in requests:
                assert values[r] == separate[r]  # bit-identical

    check_pass((0.1,), pairs)
    check_pass((0.1, 0.06), ((2, 2),))
    for p in ((1, 1), (1, 2)):
        check_pass((0.06,), ((2, 2), p))
    check_pass((0.1, 0.06), pairs)


def test_pair_sum_pass_degenerate_point_as_separate_calls():
    model = cc.preset_qwz(-2.0 + 1e-13)
    grid = cc.uniform_grid(model.lattice, 33, 33)
    with pytest.raises(cc.DegeneratePoint) as multi:
        _f_pass(model, grid, (0.2, 0.1), ((1, 1), (2, 2), (1, 2)), False)
    for eta in (0.2, 0.1):
        for j, l in ((1, 1), (2, 2), (1, 2)):
            with pytest.raises(cc.DegeneratePoint) as single:
                cc.fjl_eta(model, eta, j, l, grid)
            assert str(single.value) == str(multi.value)


def _pauli(S):
    """The Pauli rows (s0, sx, sy, sz) = ((S_00 + S_11)/2, Re S_10, Im S_10,
    (S_00 - S_11)/2) of each S = s0 + s . sigma of an (M, 2, 2) Hermitian
    stack, read from the real diagonal and the lower element."""
    a, c, b = S[:, 0, 0].real, S[:, 1, 1].real, S[:, 1, 0]
    return 0.5 * (a + c), b.real, b.imag, 0.5 * (a - c)


def _kernel_eigenvalues(H):
    """The eigenvalues (M, N) the grid kernel reads for the stack H: _split's
    d0 -+ r of its Pauli rows for two bands, LAPACK's for more."""
    return kubo._split(_pauli(H))[0] if H.shape[-1] == 2 else np.linalg.eigh(H)[0]


def test_degenerate_point_is_the_smallest_gap_of_the_grid():
    # two Fermi gaps below the floor (1e-12 x the largest hopping entry |u|,
    # so ~2e-12) in a grid of two 4096-point chunks, the smaller (Gamma, gap
    # 2e-13) in the later chunk after k = (3e-13, 0): the refusal names the
    # smaller gap and its momentum whether the grid is summed in one pass or
    # cut into two passes checked together
    model = cc.preset_qwz(-2.0 + 1e-13)
    floor = kubo._DEGENERACY_FLOOR * model._max_hopping
    grid = cc.uniform_grid(model.lattice, 72, 72)
    points = grid.points.copy()
    points[100], points[4500] = (3e-13, 0.0), (0.0, 0.0)
    grid = dataclasses.replace(grid, points=points)
    _, idx, gaps = _fermi_gaps(_kernel_eigenvalues(model.h_batch(points)), model.fermi_energy)
    low = idx[gaps < floor]
    assert list(low) == [100, 4500] and gaps[4500] < gaps[100]
    want = (f"Fermi-level degeneracy (gap {gaps[4500]:.3e}) at grid point "
            "k=(0.000000, 0.000000)")
    assert f"(gap {gaps[100]:.3e})" not in want
    with pytest.raises(cc.DegeneratePoint) as whole:
        cc.fjl_eta(model, 0.1, 1, 1, grid)
    assert str(whole.value) == want
    requests = [("f_jl", 0.1, (1, 1))]
    halves = [dataclasses.replace(grid, **{a: getattr(grid, a)[cut] for a in
                                           ("points", "weights", "frac", "size")})
              for cut in (slice(None, 3000), slice(3000, None))]
    with pytest.raises(cc.DegeneratePoint) as parts:
        kubo._checked(requests, False,
                      [kubo._pair_sum_on_grid(model, half, requests) for half in halves])
    assert str(parts.value) == want


def reference_fermi_gaps(w, mu):
    """The occupied counts and Fermi gaps as a row sum and a 2-D gather."""
    counts = (w <= mu).sum(axis=1)
    idx = np.nonzero((counts > 0) & (counts < w.shape[1]))[0]
    m = counts[idx]
    return counts, idx, w[idx, m] - w[idx, m - 1]


@pytest.mark.parametrize("name", ["haldane_one_cone", "qwz_aniso", "three_band_metal"])
def test_fermi_gaps_match_row_sum_and_gather(name, request):
    # eigenvalues exactly at mu (set by hand) count as occupied; N = 2 and 3
    model = request.getfixturevalue(name)
    points = random_momenta(model.lattice, 500, seed=13)
    w = np.linalg.eigvalsh(model.h_batch(points))
    mu = model.fermi_energy
    w[:40, 0] = mu
    w[40:80, -1] = mu
    w[80:100] = mu
    for got, want in zip(_fermi_gaps(w, mu), reference_fermi_gaps(w, mu)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_grid_pass_matches_separate_calls(haldane_critical, haldane_cones, qwz_gapped):
    # one pass serves f_jl, ftilde_jj and the Schwinger term, each value bit
    # for bit what its own public call gives; the grid resolves eta = 0.1 but
    # not 0.06 along J_1, so a failing request in a mixed pass raises its
    # own GridTooCoarse
    model, cones = haldane_critical, haldane_cones
    grid, _ = cc.GridPolicy(base=24).grids_for(model, cones, 0.1)
    pairs = ((1, 1), (2, 2), (1, 2))
    requests = ([("f_jl", 0.1, p) for p in pairs]
                + [("ftilde_jj", 0.1, (j, j)) for j in (1, 2)]
                + [("schwinger", 0.0, p) for p in pairs])

    def separate(m, g, request, gated):
        quantity, eta, (j, l) = request
        gate = {"cones": cones} if gated else {}
        if quantity == "f_jl":
            return cc.fjl_eta(m, eta, j, l, g, **gate).value
        if quantity == "ftilde_jj":
            return cc.ftilde_jj(m, eta, j, g, **gate).value
        return cc.schwinger(m, j, l, g).value

    values, _ = _grid_values(model, grid, requests, True)
    assert list(values) == requests
    for r in requests:
        assert values[r] == separate(model, grid, r, True)  # bit-identical

    with pytest.raises(cc.GridTooCoarse) as single:
        cc.ftilde_jj(model, 0.06, 1, grid, cones=cones)
    assert separate(model, grid, ("ftilde_jj", 0.06, (2, 2)), True) < 0.0
    with pytest.raises(cc.GridTooCoarse) as mixed:
        _grid_values(model, grid, requests + [
            ("ftilde_jj", 0.06, (2, 2)), ("ftilde_jj", 0.06, (1, 1))], True)
    assert str(mixed.value) == str(single.value)

    # ftilde at eta = 0, allowed on a gapped model, in a pass with the others
    flat = cc.uniform_grid(qwz_gapped.lattice, 24, 24)
    gapped = [("ftilde_jj", 0.0, (1, 1)), ("f_jl", 0.1, (1, 1)),
              ("schwinger", 0.0, (1, 1)), ("ftilde_jj", 0.0, (2, 2))]
    values, _ = _grid_values(qwz_gapped, flat, gapped, False)
    for r in gapped:
        assert values[r] == separate(qwz_gapped, flat, r, False)


def _dense_reference(model, grid, request):
    """One kernel request evaluated densely: each current rotated in full as
    Vh @ J @ V, the pair sum masked to (q occ, p unocc) on N x N arrays, and
    the Schwinger trace taken against the projector (V * occ) @ Vh.  Returns
    (value, scale) with scale the grid sum of the terms' absolute values."""
    quantity, eta, (j, l) = request
    ks = grid.points
    w, V = np.linalg.eigh(model.h_batch(ks))
    Vh = V.conj().transpose(0, 2, 1)
    counts = (w <= model.fermi_energy).sum(axis=1)
    occ = np.arange(model.norbitals)[None, :] < counts[:, None]
    pair = occ[:, :, None] & ~occ[:, None, :]          # (k, q, p)
    delta = w[:, :, None] - w[:, None, :]              # Lambda_q - Lambda_p
    denom = eta * eta + delta * delta
    lorentz = np.divide(1.0, denom, out=np.zeros_like(delta), where=pair)
    if quantity == "schwinger":
        P = (V * occ[:, None, :]) @ Vh
        terms = np.einsum("kab,kba->k", model.d2h_batch(ks, j, l), P).real
    else:
        Aj = Vh @ model.dh_batch(ks, j) @ V
        if quantity == "f_jl":
            z = Aj.transpose(0, 2, 1) * (Vh @ model.dh_batch(ks, l) @ V)
            terms = (2.0 * delta * z.real - 2.0 * eta * z.imag) * lorentz
        else:
            terms = 2.0 * delta * lorentz * (np.abs(Aj) ** 2).transpose(0, 2, 1)
        terms = terms.sum(axis=(1, 2))
    terms = terms * grid.weights / (2.0 * np.pi) ** 2
    return terms.sum(), np.abs(terms).sum()


@pytest.mark.parametrize("name", [
    "haldane_critical", "qwz_aniso", "hex_flat_band_model", "three_band_metal",
    "qwz_gapped", "three_band_gapped"])
def test_block_kernel_matches_dense_rotation(name, request):
    # the kernel rotates only the occupied x unoccupied blocks, per group of
    # points sharing an occupied count; the dense N x N evaluation must agree
    # to 1e-12 of the integral of |terms| (f_12 cancels to ~1e-17 on the
    # symmetric models, where a bare relative error means nothing)
    model = request.getfixturevalue(name)
    n = 72 if name == "three_band_metal" else 24   # 72^2 spans two chunks
    grid = cc.uniform_grid(model.lattice, n, n)
    pairs = ((1, 1), (2, 2), (1, 2))
    requests = ([("f_jl", eta, p) for eta in (0.1, 0.025) for p in pairs]
                + [("ftilde_jj", 0.1, (j, j)) for j in (1, 2)]
                + [("schwinger", 0.0, p) for p in pairs])
    if name in ("qwz_gapped", "three_band_gapped"):
        requests += [("ftilde_jj", 0.0, (j, j)) for j in (1, 2)]
    if name == "three_band_metal":
        w = np.linalg.eigvalsh(model.h_batch(grid.points))
        assert set((w <= model.fermi_energy).sum(axis=1)) == {1, 2}
    values, min_gap = _grid_values(model, grid, requests, False)
    for r in requests:
        ref, scale = _dense_reference(model, grid, r)
        assert abs(values[r] - ref) <= 1e-12 * scale, r
    # the pass's smallest Fermi gap is the whole grid's, bit for bit
    _, _, gaps = _fermi_gaps(_kernel_eigenvalues(model.h_batch(grid.points)),
                             model.fermi_energy)
    assert min_gap == gaps.min()


def _stack(rows):
    """The (M, 2, 2) stack s0 + s . sigma of Pauli rows (s0, sx, sy, sz)."""
    return _hermitian_2x2(rows[0], rows[3], rows[1] + 1j * rows[2])


def _traceless_eigenvectors(split):
    """LAPACK's eigenvectors of the traceless parts [[dz, conj b], [b, -dz]],
    b = dx + i dy, of a two-band split (kubo._split): H's own, since d0 only
    shifts the eigenvalues, without the rounding a large d0 would put into
    them near a degeneracy."""
    dx, dy, dz, _ = split
    return np.linalg.eigh(_hermitian_2x2(0.0, dz, dx + 1j * dy))[1]


def _eigenvector_blocks(w, split, J, D2, pairs, squares):
    """_pauli_blocks' result the eigenvector way: _blocks on the
    eigenvectors of H (_traceless_eigenvectors) and on the stacks of the
    currents' and Hessians' Pauli rows."""
    V = _traceless_eigenvectors(split)
    return kubo._blocks(w, V, 1, {d: _stack(x) for d, x in J.items()},
                        {p: _stack(x) for p, x in D2.items()}, pairs, squares)


@pytest.mark.parametrize("name, requests", [
    ("haldane_critical", [("f_jl", 0.1, (1, 1)), ("f_jl", 0.025, (2, 2))]),
    ("qwz_gapped", [("f_jl", 0.1, (1, 2)), ("f_jl", 0.05, (2, 1))]),
    ("qwz_gapped", [("ftilde_jj", 0.0, (1, 1)), ("ftilde_jj", 0.1, (2, 2))]),
    ("haldane_critical", [("ftilde_jj", 0.1, (1, 1)), ("ftilde_jj", 0.025, (2, 2))]),
    ("tilted_qwz", [("schwinger", 0.0, (1, 1)), ("schwinger", 0.0, (2, 2)),
                    ("f_jl", 0.1, (1, 1))]),
], ids=["f_jj", "f_12_gapped", "ftilde_gapped", "ftilde", "schwinger_all_counts"])
def test_two_band_block_matches_einsum_path(name, requests, request, monkeypatch):
    # two bands with one occupied take the Pauli block, which forms no
    # eigenvector and no complex product; on the same Pauli rows (one
    # 4096-point chunk) every request kind must agree with the einsum blocks
    # of _blocks on LAPACK's eigenvectors to 1e-13
    model = tilted_qwz(3.0) if name == "tilted_qwz" else request.getfixturevalue(name)
    grid = cc.uniform_grid(model.lattice, 64, 64)
    if name == "tilted_qwz":
        w = np.linalg.eigvalsh(model.h_batch(grid.points))
        assert set((w <= model.fermi_energy).sum(axis=1)) == {0, 1, 2}
    pauli_calls = []

    def recording(*args):
        pauli_calls.append(len(args[0]))
        return pauli(*args)

    pauli = kubo._pauli_blocks
    monkeypatch.setattr(kubo, "_pauli_blocks", recording)
    flat, _ = _grid_values(model, grid, requests, False)
    assert pauli_calls
    monkeypatch.setattr(kubo, "_pauli_blocks", _eigenvector_blocks)
    ref, _ = _grid_values(model, grid, requests, False)
    for r in requests:
        assert ref[r] != 0.0 and abs(flat[r] - ref[r]) <= 1e-13 * abs(ref[r]), r


def _random_two_band_model(seed):
    """A seeded random two-band model on a skewed lattice with off-centre
    orbitals: every hopping has an identity part, so the currents carry a
    tilt a_j != 0, and its Pauli parts make the cones anisotropic; mu is the
    median level of a sample, so the bands overlap it (m = 0, 1 and 2)."""
    rng = np.random.default_rng(seed)
    terms = {}
    for cell in ((1, 0), (0, 1), (1, 1), (2, -1)):
        T = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        terms[cell], terms[-cell[0], -cell[1]] = T, T.conj().T
    T = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    terms[0, 0] = T + T.conj().T
    lattice = cc.make_lattice([1.0, 0.0], [rng.uniform(0.2, 0.8), rng.uniform(0.6, 1.4)])
    model = cc.HoppingModel(lattice=lattice, norbitals=2, positions=rng.uniform(0, 1, (2, 2)),
                            terms=terms, fermi_energy=0.0)
    w = np.linalg.eigvalsh(model.h_batch(random_momenta(lattice, 200, seed=seed)))
    return dataclasses.replace(model, fermi_energy=float(np.median(w)))


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_pauli_values_match_eigenvector_route_per_point(seed):
    # per point, the Pauli formulas against _blocks on LAPACK's eigenvectors:
    # f_jl with j != l in both orders, ftilde_jj (eta = 0 too) and the
    # Schwinger traces, at points with 0, 1 and 2 occupied bands, at
    # near-degenerate points (gap 2e-11 to 2e-4 around mu) and at points
    # with H a multiple of the identity (r = 0) above and at or below mu
    model = _random_two_band_model(seed)
    mu = model.fermi_energy
    ks = random_momenta(model.lattice, 400, seed=seed)
    H, J1, J2, D11, D12, D22 = model._assemble(ks, [(), (1,), (2,), (1, 1), (1, 2), (2, 2)])
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(6, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    H[:6] = _hermitian_2x2(mu, 10.0 ** np.arange(-11, -3, 1.5)[:6] * u[:, 2],
                           10.0 ** np.arange(-11, -3, 1.5)[:6] * (u[:, 0] + 1j * u[:, 1]))
    H[6:9] = _hermitian_2x2([mu + 0.5, mu, mu - 0.5], 0.0, 0.0)
    J, D2 = {1: J1, 2: J2}, {(1, 1): D11, (1, 2): D12, (2, 1): D12, (2, 2): D22}
    rows = ([("f_jl", eta, p) for eta in (0.1, 0.003) for p in ((1, 2), (2, 1), (1, 1), (2, 2))]
            + [("ftilde_jj", eta, (j, j)) for eta in (0.0, 0.05) for j in (1, 2)]
            + [("schwinger", 0.0, p) for p in D2])
    w, split = kubo._split(_pauli(H))
    V = _traceless_eigenvectors(split)
    counts = _fermi_gaps(w, mu)[0]
    assert set(counts[:6]) == {1} and list(counts[6:9]) == [0, 2, 2]
    assert set(counts[9:]) == {0, 1, 2}
    # the kernel's input: the Pauli rows of the same stacks
    pauli_rows = {x: np.array(_pauli(S)) for x, S in {**J, **D2}.items()}
    pauli, imag = kubo._point_values(rows, w, counts, split,
                                     {d: pauli_rows[d] for d in J},
                                     {p: pauli_rows[p] for p in D2})
    ref, _ = kubo._point_values(rows, w, counts, V, J, D2)
    assert np.isfinite(pauli).all() and not imag.any()
    # per point, a bound on each formula's terms: |J_j| |J_l| (2|Delta| +
    # 2 eta) / (eta^2 + Delta^2), 2 |Delta| |J_j|^2 / (eta^2 + Delta^2), |d^2H|
    delta = np.where(counts == 1, w[:, 0] - w[:, 1], 0.0)
    norm = {d: np.linalg.norm(S, axis=(1, 2)) for d, S in {**J, **D2}.items()}
    for i, (quantity, eta, (j, l)) in enumerate(rows):
        if quantity == "schwinger":
            bound = norm[j, l]
        else:
            bound = (norm[j] * norm[l] * (2.0 * np.abs(delta) + 2.0 * eta)
                     / np.where(counts == 1, eta * eta + delta * delta, 1.0))
        assert np.all(np.abs(pauli[i] - ref[i]) <= 1e-14 * bound), rows[i]
    assert np.all(pauli[:, counts == 0] == 0.0)


_KEYS = [(), (1,), (2,), (1, 1), (1, 2), (2, 2)]


@pytest.mark.parametrize("size", [1, 255, 4096])
@pytest.mark.parametrize("name", ["haldane_critical", "qwz_aniso", "random"])
def test_pauli_rows_match_pauli_of_stacks(name, size, request):
    # the two-band kernel's one matmul per chunk against the Pauli rows of
    # _assemble's stacks, for every derivative key, to a few ulps of the
    # key's table scale (the sum of its |coefficients|, which bounds every
    # entry since |cos|, |sin| <= 1); the random model has off-centre
    # orbitals, a skewed lattice and a tilt
    model = (_random_two_band_model(1) if name == "random"
             else request.getfixturevalue(name))
    ks = random_momenta(model.lattice, size, seed=size)
    rows = model._pauli_rows(ks, _KEYS)
    assert rows.shape == (len(_KEYS), 4, size)
    for key, got, S in zip(_KEYS, rows, model._assemble(ks, _KEYS)):
        ulp = np.finfo(float).eps * np.abs(model._tables[key]).sum()
        assert np.all(np.abs(got - np.array(_pauli(S))) <= 4.0 * ulp), key
    # ``out`` receives the same rows
    out = np.empty((len(_KEYS), 4, size))
    got = model._pauli_rows(ks, _KEYS, out)
    assert np.array_equal(got, rows) and (size == 1 or np.shares_memory(got, out))


def _piece(grid, lo, hi):
    """The points lo:hi of ``grid`` as a grid part of their own."""
    return dataclasses.replace(grid, **{f: getattr(grid, f)[lo:hi]
                                        for f in ("points", "weights", "frac", "size")})


# every request kind, f_jl in both orders and ftilde_jj at eta = 0 too
_KINDS = ([("f_jl", eta, p) for eta in (0.1, 0.025) for p in ((1, 1), (1, 2), (2, 1))]
          + [("ftilde_jj", eta, (j, j)) for eta in (0.0, 0.1) for j in (1, 2)]
          + [("schwinger", 0.0, p) for p in ((1, 1), (1, 2), (2, 2))])


def test_two_band_kernel_reads_pauli_rows_only(monkeypatch, three_band_metal):
    # a two-band pass makes one _pauli_rows call per chunk, for H, the
    # currents and the Hessians, and takes the gate's current norm from the
    # rows: it assembles no stack and calls no _max_frobenius, and its norm
    # is the stacks' Frobenius norm up to rounding; N > 2 makes no Pauli rows
    model = tilted_qwz(3.0)
    grid = _piece(cc.uniform_grid(model.lattice, 91, 91), 0, 2 * 4096 + 17)
    pauli_rows, calls = cc.HoppingModel._pauli_rows, []

    def counting(self, ks, derivatives, out=None):
        calls.append(len(ks))
        return pauli_rows(self, ks, derivatives, out)

    def refuse(*args):
        raise AssertionError("not on this path")

    with monkeypatch.context() as patch:
        patch.setattr(cc.HoppingModel, "_pauli_rows", counting)
        patch.setattr(cc.HoppingModel, "_assemble", refuse)
        patch.setattr(kubo, "_max_frobenius", refuse)
        tallies, _ = kubo._pair_sum_on_grid(model, grid, _KINDS)
    assert calls == [4096, 4096, 17]
    norm = max(bloch._max_frobenius(J) for J in model._assemble(grid.points, ((1,), (2,))))
    assert abs(tallies[_KINDS[1]].slope - norm) <= 1e-14 * norm
    monkeypatch.setattr(cc.HoppingModel, "_pauli_rows", refuse)
    grid = cc.uniform_grid(three_band_metal.lattice, 24, 24)
    kubo._pair_sum_on_grid(three_band_metal, grid, _KINDS)


def test_reused_buffers_keep_chunks_apart():
    # every chunk of a pass fills the same Pauli-row and value buffers, the
    # shorter last one their leading elements; on the tilted QWZ (occupied
    # count 1 or 2 in the first chunk, 0 or 1 in the second, 1 in the last
    # 17 points) a pass must give every tally, bit for bit, what passes
    # over its chunk-aligned pieces give: their sums added left to right and
    # the extremes of their statistics
    model = tilted_qwz(3.0)
    grid = cc.uniform_grid(model.lattice, 91, 91)
    bounds = [(0, 4096), (4096, 8192), (8192, 8209)]
    counts = _fermi_gaps(_kernel_eigenvalues(model.h_batch(grid.points[:8209])), 0.0)[0]
    assert [set(counts[lo:hi]) for lo, hi in bounds] == [{1, 2}, {0, 1}, {1}]
    whole, points = kubo._pair_sum_on_grid(model, _piece(grid, 0, 8209), _KINDS)
    pieces = [kubo._pair_sum_on_grid(model, _piece(grid, lo, hi), _KINDS) for lo, hi in bounds]
    for r in _KINDS:
        parts = [tallies[r] for tallies, _ in pieces]
        assert whole[r].total == sum(t.total for t in parts), r
        for stat in ("top", "scale", "imag", "spacing", "slope"):
            assert getattr(whole[r], stat) == max(getattr(t, stat) for t in parts), (r, stat)
    assert points.min_gap == min(p.min_gap for _, p in pieces)


def _exact_two_band_eigenvalues(H):
    """d0 -+ sqrt(dz^2 + |b|^2) in 50-digit decimal arithmetic from the exact
    float entries, rounded once to float."""
    out = []
    with localcontext() as ctx:
        ctx.prec = 50
        for h in H:
            a, c = Decimal(h[0, 0].real), Decimal(h[1, 1].real)
            br, bi = Decimal(h[1, 0].real), Decimal(h[1, 0].imag)
            d0, dz = (a + c) / 2, (a - c) / 2
            r = (dz * dz + br * br + bi * bi).sqrt()
            out.append((float(d0 - r), float(d0 + r)))
    return np.array(out)


def _hermitian_2x2(d0, dz, b):
    """Stack of d0 + [[dz, conj b], [b, -dz]] (entries exact in float)."""
    d0, dz, b = np.broadcast_arrays(*(np.asarray(x) for x in (d0, dz, b)))
    H = np.empty(d0.shape + (2, 2), dtype=complex)
    H[:, 0, 0], H[:, 1, 1] = d0 + dz, d0 - dz
    H[:, 1, 0], H[:, 0, 1] = b, np.conj(b)
    return H


def test_closed_form_eigenvalues_match_lapack():
    # the two-band eigenvalues d0 -+ r of kubo._split, which the grid kernel
    # and the B_eps pass read, against exact arithmetic and against LAPACK
    rng = np.random.default_rng(7)
    stacks = []
    for s in [*10.0 ** np.arange(-8, 9, 2), 1e-100, 1e100]:
        A = s * (rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2)))
        stacks.append(0.5 * (A + A.conj().transpose(0, 2, 1)))
    stacks += [
        _hermitian_2x2([0.3, -2.0], [1.5, 1e-9], 0.0),         # b = 0, dz > 0
        _hermitian_2x2([0.3, -2.0], [-1.5, -1e-9], 0.0),       # b = 0, dz < 0
        _hermitian_2x2([0.3, 0.0], 0.0, [0.7 - 0.2j, 1e-9j]),  # dz = 0
        _hermitian_2x2([0.0, 1.0, -1e8, 1e-8], 0.0, 0.0),      # exact degeneracy
    ]
    # gap 2 r near 1e-13 on top of an O(1) diagonal, in every direction
    u = rng.standard_normal((200, 3))
    u *= 0.5e-13 / np.linalg.norm(u, axis=1)[:, None]
    stacks.append(_hermitian_2x2(rng.uniform(-1, 1, 200), u[:, 0], u[:, 1] + 1j * u[:, 2]))

    for H in stacks:
        w = kubo._split(_pauli(H))[0]
        w0 = np.linalg.eigh(H)[0]
        norm = np.linalg.norm(H, 2, axis=(1, 2))[:, None]
        assert np.all(w[:, 0] <= w[:, 1])
        # LAPACK's own eigenvalues stray by up to ~1.3e-15 ||H|| from exact,
        # so the 1e-15 bound is against the exact values
        assert np.all(np.abs(w - _exact_two_band_eigenvalues(H)) <= 1e-15 * norm)
        assert np.all(np.abs(w - w0) <= 3e-15 * norm)


def _kubo_report(*args, **kwargs):
    try:
        return cc.sigma_kubo(*args, **kwargs)
    except cc.NotConverged as exc:
        return exc.report


def test_sigma_kubo_directions_equal_one_pair_calls(qwz_aniso, qwz_aniso_cones):
    # on this coarse policy sigma_11 converges and sigma_22 does not; each
    # pair of the joint report must equal its own one-pair report exactly
    kw = dict(eta_sequence=[0.4, 0.2, 0.1], grid_policy=cc.GridPolicy(base=16),
              cones=qwz_aniso_cones)
    both = _kubo_report(qwz_aniso, directions=((1, 1), (2, 2)), **kw)
    assert list(both.sigma) == [(1, 1), (2, 2)]
    assert both.converged == {(1, 1): True, (2, 2): False}
    for p in ((1, 1), (2, 2)):
        one = _kubo_report(qwz_aniso, *p, **kw)
        assert both.sigma[p] == one.sigma[p]
        assert both.converged[p] is one.converged[p]
        assert both.per_eta[p] == one.per_eta[p]
        assert both.diagnostics["f_values"][p] == one.diagnostics["f_values"][p]
        assert both.diagnostics["grid_points"] == one.diagnostics["grid_points"]


def test_sigma_kubo_not_converged_carries_every_pair(qwz_gapped):
    pairs = ((1, 1), (2, 2), (1, 2))
    with pytest.raises(cc.NotConverged) as exc:
        cc.sigma_kubo(qwz_gapped, directions=pairs, eta_sequence=[0.2, 0.1],
                      grid_policy=cc.GridPolicy(base=32), cones=[])
    report = exc.value.report
    for table in (report.sigma, report.converged, report.per_eta,
                  report.diagnostics["f_values"]):
        assert tuple(table) == pairs
    assert not any(report.converged.values())
    for p in pairs:
        assert f"sigma_{p[0]}{p[1]}" in str(exc.value)


def test_sigma_kubo_direction_arguments(qwz_gapped):
    kw = dict(eta_sequence=[0.2, 0.1], grid_policy=cc.GridPolicy(base=8), cones=[])
    for args, extra in (((), {}), ((1, 1), {"directions": ((1, 1),)}),
                        ((), {"directions": ()}), ((), {"directions": ((1, 3),)})):
        with pytest.raises(ValueError):
            cc.sigma_kubo(qwz_gapped, *args, **extra, **kw)


def test_sigma_kubo_rejects_non_halving_sequence(qwz_gapped):
    with pytest.raises(ValueError):
        cc.sigma_kubo(qwz_gapped, 1, 1, eta_sequence=[0.2, 0.11],
                      grid_policy=cc.GridPolicy(base=32), cones=[])


def test_sigma_kubo_gapped_converges_to_zero(qwz_gapped, monkeypatch):
    # the gapped response has no linear-in-eta term, so the estimator
    # sequence itself halves towards zero and the extrapolation vanishes;
    # without cones every eta step shares one uniform grid pair, summed in
    # one fine and one companion pass
    import conecond.kubo as kubo

    kernel, passes = kubo._pair_sum_on_grid, []

    def one_pass(model, grid, requests):
        passes.append(len(grid))
        return kernel(model, grid, requests)

    monkeypatch.setattr(kubo, "_pair_sum_on_grid", one_pass)
    report = cc.sigma_kubo(
        qwz_gapped, 1, 1,
        eta_sequence=cc.default_eta_sequence(qwz_gapped, 9),
        grid_policy=cc.GridPolicy(base=48), cones=[],
    )
    assert report.converged[(1, 1)] is True
    assert abs(report.sigma[(1, 1)]) < 1e-6
    diag = report.diagnostics
    assert diag["cones"] == 0 and len(diag["eta_sequence"]) == 9
    assert passes == [48 * 48, 24 * 24]


def test_sigma_kubo_default_eta_sequence(qwz_gapped):
    report = _kubo_report(qwz_gapped, 1, 1, grid_policy=cc.GridPolicy(base=24))
    assert report.diagnostics["eta_sequence"] == tuple(cc.default_eta_sequence(qwz_gapped))


#: the eta sequence of the kubo_cones benchmark workload
BENCH_ETAS = [0.2, 0.1, 0.05, 0.025, 0.0125]


def _skewed_qwz():
    """preset_qwz(-2) on the lattice a1 = (1, 0), a2 = (0.6, 1): the cone at
    the zone centre has Q = a1 a1^T + a2 a2^T = [[1.36, 0.6], [0.6, 1]],
    det Q = 1, so sigma = (1.36 / 16, 1 / 16)."""
    return dataclasses.replace(cc.preset_qwz(-2.0),
                               lattice=cc.make_lattice([1.0, 0.0], [0.6, 1.0]))


# model -> (sigma_11, sigma_22) from the closed form sum_l Q_jj / (16 sqrt det Q)
PAST_THE_PRESETS = {
    "tilted": (lambda: tilted_qwz(0.9, u=-2.0), (1 / 16, 1 / 16)),
    "two_cones": (lambda: cc.preset_qwz(0.0, 1.0, 3.0), (1 / 24, 3 / 8)),
    "skewed": (_skewed_qwz, (0.085, 1 / 16)),
    "haldane_critical_line": (
        lambda: cc.preset_haldane(1.0, 0.1, np.pi / 2.0, 3.0 * np.sqrt(3.0) * 0.1),
        (1 / 16, 1 / 16)),
}


@pytest.mark.parametrize("name", [
    "tilted", "two_cones", pytest.param("skewed", marks=pytest.mark.slow),
    "haldane_critical_line"])
def test_sigma_kubo_past_the_presets(name):
    # GridPolicy sizes its finest core by the region the resolution gate
    # inspects, plus a margin; on a tilted cone, two anisotropic cones, a
    # skewed lattice and the critical Haldane line, over the benchmark's
    # etas, the gate must not fire even on a 16 x 16 base, and the default
    # base must still reach the closed form
    build, want = PAST_THE_PRESETS[name]
    model = build()
    cones = cc.characterize_cones(model)
    kw = dict(directions=((1, 1), (2, 2)), eta_sequence=BENCH_ETAS, cones=cones)
    coarse = _kubo_report(model, grid_policy=cc.GridPolicy(base=16), **kw)
    assert set(coarse.diagnostics["grid_points"]) == set(BENCH_ETAS[1:])
    report = cc.sigma_kubo(model, **kw)
    for p, target in zip(((1, 1), (2, 2)), want):
        assert abs(report.sigma[p] - target) <= 0.02 * target, p


@pytest.mark.parametrize("seed", range(8))
def test_random_one_cone_model_gets_a_typed_outcome(seed):
    # on a random one-cone model (conftest.one_cone_model) the default Kubo
    # route answers within 3% of the closed form, refuses its grid as
    # GridTooCoarse, or raises NotConverged with a report whose sigma is
    # finite and within 3%: never a wrong answer or an untyped error
    model, _ = one_cone_model(seed)
    cones = cc.characterize_cones(model)
    try:
        report = cc.sigma_kubo(model, directions=BOTH, cones=cones)
    except cc.GridTooCoarse:
        return
    except cc.NotConverged as exc:
        report = exc.report
    for j, p in enumerate(BOTH, start=1):
        closed = cc.sigma_closed_form(cones, j)[0]
        assert np.isfinite(report.sigma[p]), p
        assert abs(report.sigma[p] - closed) <= 0.03 * closed, p


@pytest.mark.parametrize("build", [
    lambda: cc.preset_qwz(-2.0, 2.0, 1.0), PAST_THE_PRESETS["two_cones"][0], _skewed_qwz,
], ids=["checkerboard", "two_cones", "skewed"])
def test_core_ellipse_covers_the_gate_region(build):
    # the fine grid for eta also serves f(2 eta), whose resolution gate
    # inspects the points with Fermi gap below 4 (2 eta); GridPolicy refines
    # each anisotropic cone's gate ellipse, not the disk around it, and every
    # such point must still sit in a cell of the finest size
    model = build()
    cones = cc.characterize_cones(model)
    for base in (96, 16):
        for eta in BENCH_ETAS[1:]:
            fine, _ = cc.GridPolicy(base=base).grids_for(model, cones, eta)
            _, idx, gaps = _fermi_gaps(np.linalg.eigvalsh(model.h_batch(fine.points)),
                                       model.fermi_energy)
            near = idx[gaps < 2.0 * kubo._GATE_WINDOW * eta]
            assert near.size, (base, eta)
            assert np.array_equal(fine.size[near].max(axis=0), fine.size.min(axis=0)), \
                (base, eta)


#: both longitudinal directions
BOTH = ((1, 1), (2, 2))


@pytest.fixture(scope="module")
def honeycomb_report(haldane_critical, haldane_cones):
    return cc.sigma_kubo(haldane_critical, directions=BOTH, eta_sequence=BENCH_ETAS,
                         cones=haldane_cones)


@pytest.fixture(scope="module")
def qwz_aniso_report(qwz_aniso, qwz_aniso_cones):
    return cc.sigma_kubo(qwz_aniso, directions=BOTH, eta_sequence=BENCH_ETAS,
                         cones=qwz_aniso_cones)


def test_kubo_cones_point_budget(honeycomb_report, qwz_aniso_report):
    # the two models of the kubo_cones benchmark at its etas take ~365k
    # fine-grid points together; the budget keeps a later change from
    # growing the grids unseen
    total = sum(sum(report.diagnostics["grid_points"].values())
                for report in (honeycomb_report, qwz_aniso_report))
    assert total <= 400_000


#: the sweeps compared with whole-grid passes: model fixture -> the sha256 of
#: the points, weights, frac and size of every GridPolicy().grids_for grid at
#: BENCH_ETAS[1:], fine then companion, as the grids were before the sweep
#: cut them into parts
SWEEP_GRIDS = {
    "haldane_critical":
        "2d5edc2446c067a5162fd75b9b1cc84b7c8bed2cc9532c6d63cb3c8f5b52fbdf",
    "qwz_aniso":
        "cf6e072855ce23293d3052b7a6e3185bf9b6c4a7c0029765ee996bdd2271a8df",
    "haldane_one_cone":
        "336c747f3193fa38fada4ce484a39170bc9f36becb860c559a0f88ca9f6391f0",
    "skewed_qwz":
        "d011102170d5fab470b727c4fb706a1bce59c8159781cb83f2d2bee22b425e46",
}

#: value-only requests as verify rides them on the sweep, one eta unvisited
SWEEP_RIDERS = {
    0.0125: [r for p in BOTH + ((1, 2),) for r in (("schwinger", 0.0, p), ("f_jl", 0.025, p))],
    0.05: [("ftilde_jj", 0.05, (j, j)) for j in (1, 2)],
    0.03: [("ftilde_jj", 0.03, (1, 1)), ("f_jl", 0.03, (1, 2))],
}


def _whole_grid_sweep(model, cones):
    """_eta_sweep over BENCH_ETAS with SWEEP_RIDERS, from each grid of
    GridPolicy().grids_for passed whole through the kernel: (sigma, per_eta,
    f_values, grid_points, on_grid, the sha256 of the grids)."""
    policy, digest = cc.GridPolicy(), hashlib.sha256()
    hats, per_eta, f_values = ({p: [] for p in BOTH}, {p: [] for p in BOTH},
                               {p: {} for p in BOTH})
    sizes, on_grid = {}, {}
    for eta_hi, eta in zip(BENCH_ETAS, BENCH_ETAS[1:]):
        fine, comp = policy.grids_for(model, cones, eta)
        for g in (fine, comp):
            for a in (g.points, g.weights, g.frac, g.size):
                digest.update(a.tobytes())
        own = [("f_jl", e, p) for e in (eta_hi, eta) for p in BOTH]
        on_grid[eta], _ = _grid_values(model, fine, own + SWEEP_RIDERS.get(eta, []), True)
        coarse, _ = _grid_values(model, comp, own, False)
        sizes[eta] = len(fine)
        for p in BOTH:
            f_hi, f_lo = on_grid[eta]["f_jl", eta_hi, p], on_grid[eta]["f_jl", eta, p]
            err = sum(kubo._quad_error(on_grid[eta][r], coarse[r])
                      for r in (("f_jl", eta_hi, p), ("f_jl", eta, p)))
            f_values[p][eta] = (f_hi, f_lo)
            hats[p].append((f_hi - f_lo) / eta)
            per_eta[p].append((eta, hats[p][-1], err / eta))
    for eta in set(SWEEP_RIDERS) - set(BENCH_ETAS):
        fine, _ = policy.grids_for(model, cones, eta)
        on_grid[eta], _ = _grid_values(model, fine, SWEEP_RIDERS[eta], False)
    sigma = {p: 2.0 * h[-1] - h[-2] for p, h in hats.items()}
    return sigma, per_eta, f_values, sizes, on_grid, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SWEEP_GRIDS))
def test_sweep_matches_whole_grid_passes(name, request):
    # the sweep decomposes each cell of its grids once, shell levels shared
    # between grids, and sums each grid as the sum of its parts' sums: every
    # value must be what passing each grid of grids_for whole through the
    # kernel gives, up to the order of summation (and part points one
    # rounding off the whole grid's), and those grids are bit for bit the
    # ones the sweep was built to share.  A quad_error is the difference of
    # two f values and agrees to 1e-12 of them; a value that cancels to
    # roundoff (f_12 on the symmetric models) to 1e-12 of its grid's values
    model = _skewed_qwz() if name == "skewed_qwz" else request.getfixturevalue(name)
    cones = cc.characterize_cones(model)
    sigma, per_eta, f_values, sizes, on_grid, digest = _whole_grid_sweep(model, cones)
    assert digest == SWEEP_GRIDS[name]
    report, values, _ = kubo._eta_sweep(model, BOTH, BENCH_ETAS, cc.GridPolicy(), cones,
                                        SWEEP_RIDERS)
    # the sweep's report, and sigma_kubo's of the two kubo_cones models
    fixture = {"haldane_critical": "honeycomb_report", "qwz_aniso": "qwz_aniso_report"}
    reports = [report] + ([request.getfixturevalue(fixture[name])] if name in fixture else [])
    for rep in reports:
        assert rep.diagnostics["grid_points"] == sizes
        for p in BOTH:
            assert rep.sigma[p] == pytest.approx(sigma[p], rel=1e-12, abs=0)
            for (eta, s_hat, err), want in zip(rep.per_eta[p], per_eta[p], strict=True):
                f_hi, f_lo = f_values[p][eta]
                assert (eta, s_hat) == (want[0], pytest.approx(want[1], rel=1e-12, abs=0))
                scale = (abs(f_hi) + abs(f_lo)) / eta
                assert err == pytest.approx(want[2], rel=0, abs=1e-12 * scale)
                assert rep.diagnostics["f_values"][p][eta] == pytest.approx(
                    (f_hi, f_lo), rel=1e-12, abs=0)
    assert set(values) == set(on_grid)
    for eta, want in on_grid.items():
        scale = max(abs(v) for v in want.values())
        assert list(values[eta]) == list(want)
        for r, v in want.items():
            assert values[eta][r] == pytest.approx(v, rel=1e-12, abs=1e-12 * scale), (eta, r)


@pytest.mark.parametrize("e", [1e-12, 1e-300])
@pytest.mark.parametrize("preset", [lambda: cc.preset_haldane(1.0, 0.1, 0.0, 0.0),
                                    lambda: cc.preset_qwz(-2.0)], ids=["honeycomb", "qwz"])
def test_eta_beyond_the_level_cap_is_refused(preset, e):
    # 18 refinement levels cannot bring the spacing down to the target of
    # such an eta: the grid is refused, not summed to a converged sigma = 0
    with pytest.raises(cc.GridTooCoarse) as exc:
        cc.sigma_kubo(preset(), directions=((1, 1),), eta_sequence=[4 * e, 2 * e, e])
    assert "after 18 levels exceeds the target" in str(exc.value)


@pytest.mark.parametrize("e", [1e3, 1e300])
@pytest.mark.parametrize("preset", [lambda: cc.preset_haldane(1.0, 0.1, 0.0, 0.0),
                                    lambda: cc.preset_qwz(-2.0)], ids=["honeycomb", "qwz"])
def test_eta_above_the_spectral_radius_is_refused(preset, e):
    # a Lorentzian wider than the band structure makes sigma_hat ~ 1e-9, a
    # change below the absolute convergence floor: refused, not reported as
    # a converged sigma ~ 0 (rho = 3.58 on the honeycomb, 3.97 on QWZ)
    with pytest.raises(ValueError, match="is not below the model's spectral radius"):
        cc.sigma_kubo(preset(), directions=((1, 1),), eta_sequence=[4 * e, 2 * e, e])


def test_eta_sequence_must_start_below_the_spectral_radius(qwz_gapped):
    # the bound is strict: a largest eta of rho is refused, the next float
    # below it accepted, and sigma_hall reads the same rule
    rho = qwz_gapped.spectral_radius()
    below = np.nextafter(rho, 0.0)
    assert kubo._sweep_etas(qwz_gapped, [below, below / 2]) == [below, below / 2]
    with pytest.raises(ValueError, match=f"largest eta {rho:.6g} is not below"):
        kubo._sweep_etas(qwz_gapped, [rho, rho / 2])
    with pytest.raises(ValueError, match="spectral radius"):
        cc.sigma_hall(qwz_gapped, eta_sequence=[2 * rho, rho])


def _pass(requests, top=0.0, imag=0.0):
    """One hand-made _pair_sum_on_grid result: every request's tally with
    the per-point maximum ``top`` and Schwinger imaginary part ``imag``."""
    tally = kubo._Tally(total=1.0, top=top, scale=1.0, imag=imag, spacing=0.0, slope=0.0)
    return {r: tally for r in requests}, kubo._Points(1, np.inf, (np.nan, np.nan), 0.0)


def test_checked_refuses_a_lost_sign_on_longitudinal_f_jl_rows_only():
    # the pass keeps every row's maximum; only an f_jl row with j = l must
    # stay nonpositive, so a positive maximum of a Schwinger trace, an
    # ftilde_jj row or a transverse f_jl row is not refused
    allowed = [("schwinger", 0.0, (1, 1)), ("ftilde_jj", 0.1, (2, 2)), ("f_jl", 0.1, (1, 2))]
    values, _ = kubo._checked(allowed, False, [_pass(allowed, top=1.0)])
    assert list(values) == allowed
    assert all(v == 1.0 / (2.0 * np.pi) ** 2 for v in values.values())
    longitudinal = [("f_jl", 0.1, (2, 2))]
    kubo._checked(longitudinal, False, [_pass(longitudinal, top=1e-12)])
    with pytest.raises(RuntimeError, match=r"lost its definite sign \(max 2\.000e-12\)"):
        kubo._checked(longitudinal, False, [_pass(longitudinal), _pass(longitudinal, top=2e-12)])


def test_pass_keeps_every_rows_maximum_in_request_order():
    # on the honeycomb the Schwinger traces and the transverse f_jl take
    # positive per-point values, the longitudinal rows none; the tallies
    # come in request order, Schwinger rows first, and _checked accepts them
    model = cc.preset_haldane(1.0, 0.1, 0.0, 0.0)
    requests = [("schwinger", 0.0, (1, 1)), ("f_jl", 0.1, (1, 2)), ("f_jl", 0.1, (1, 1)),
                ("ftilde_jj", 0.1, (1, 1))]
    tallies, points = kubo._pair_sum_on_grid(model, cc.uniform_grid(model.lattice, 24, 24),
                                             requests)
    assert list(tallies) == requests
    assert [tallies[r].top > 0.0 for r in requests] == [True, True, False, False]
    assert points.floor == kubo._DEGENERACY_FLOOR * model._max_hopping
    assert list(kubo._checked(requests, False, [(tallies, points)])[0]) == requests


def test_checked_refuses_an_imaginary_schwinger_trace():
    requests = [("schwinger", 0.0, (1, 2))]
    kubo._checked(requests, False, [_pass(requests, imag=1e-9)])
    with pytest.raises(RuntimeError, match="acquired imaginary part 2.000e-09"):
        kubo._checked(requests, False, [_pass(requests, imag=2e-9)])


def test_sweep_gate_reads_the_whole_grid():
    # the honeycomb with one A -> B bond at 1.5 has two cones close to
    # merging, too steep for the default base at eta = 0.1: the gate must
    # refuse the grid with its own worst spacing and slope, which lie in
    # different parts of it (the tail alone reads slope 3.531e+00)
    model = cc.preset_haldane(1.0, 0.0, 0.0, 0.0)
    terms = dict(model.terms)
    terms[0, 0] = terms[0, 0].copy()
    terms[0, 0][0, 1] = terms[0, 0][1, 0] = 1.5
    model = dataclasses.replace(model, terms=terms)
    with pytest.raises(cc.GridTooCoarse) as exc:
        cc.sigma_kubo(model, directions=BOTH, eta_sequence=BENCH_ETAS)
    assert str(exc.value) == ("near-cone spacing 2.182e-02 x slope 3.535e+00 exceeds "
                              "eta/4 = 5.000e-02; refine the grid")


def test_kubo_cones_sweeps_decompose_each_cell_once(haldane_critical, haldane_cones,
                                                     qwz_aniso, qwz_aniso_cones, monkeypatch):
    # the two kubo_cones sweeps pass 418,320 points through the kernel when
    # each grid is passed whole, 319,284 with the fine shells shared alone;
    # sharing every shell level and tail leaves at most 300,000, and no part
    # reaches the kernel twice
    kernel, parts = kubo._pair_sum_on_grid, []

    def one_pass(model, grid, requests):
        parts.append((len(grid), grid.points.tobytes()))
        return kernel(model, grid, requests)

    monkeypatch.setattr(kubo, "_pair_sum_on_grid", one_pass)
    for model, cones in ((haldane_critical, haldane_cones), (qwz_aniso, qwz_aniso_cones)):
        cc.sigma_kubo(model, directions=BOTH, eta_sequence=BENCH_ETAS, cones=cones)
    assert len({points for _, points in parts}) == len(parts)
    assert sum(n for n, _ in parts) <= 300_000


def test_sweep_parts_are_the_grids(qwz_aniso, qwz_aniso_cones):
    # GridPolicy._parts cuts each grid of a sweep into the cells, weights
    # and order of one refined_grid call over the grid's schedule (the shell
    # radii cartesian, the core radii in each cone's metric Q / lambda*),
    # bit for bit
    model, cones, policy = qwz_aniso, qwz_aniso_cones, cc.GridPolicy(base=24)
    lat = model.lattice
    lam = min(c.lambda_star for c in cones)
    factors = [np.linalg.cholesky(c.Q / lam) for c in cones]
    layouts = [lay for pair in policy._layouts(model, cones, [0.1, 0.05, 0.0125])
               for lay in pair]
    held = [[] for _ in layouts]
    for part, members in policy._parts(model, cones, layouts):
        for i in members:
            held[i].append(part)
    for (n, shell, core), parts in zip(layouts, held):
        grid = cc.refined_grid(lat, cc.uniform_grid(lat, n, n), [c.omega for c in cones],
                               shell, core, factors)
        for name in ("frac", "size", "weights"):
            assert np.array_equal(np.concatenate([getattr(p, name) for p in parts]),
                                  getattr(grid, name)), name
        assert np.allclose(np.concatenate([p.points for p in parts]), grid.points,
                           rtol=0, atol=1e-15)


def _assert_same_grids_and_sigma(report, reference, eta_scale=1.0):
    # grid_points holds the size of GridPolicy().grids_for's fine grid per grid eta
    assert report.diagnostics["grid_points"] == {
        eta_scale * eta: n for eta, n in reference.diagnostics["grid_points"].items()}
    for p in BOTH:
        assert report.sigma[p] == pytest.approx(reference.sigma[p], rel=1e-12, abs=0), p


@pytest.mark.parametrize("s", [2.0**-60, 2.0**-30, 2.0**-24, 0.25, 2.0, 2.0**30])
def test_kubo_invariant_under_energy_rescaling(honeycomb_report, s):
    # sigma depends only on the number and shape of the cones: the honeycomb
    # with every hopping and every eta scaled by s gets the same grids, since
    # GridPolicy sizes them in momentum units from the gate they must pass,
    # and the same sigma; the cone scan's gap tolerance and the kernel's
    # degeneracy floor are relative to the model's energy scale, so 2^-60
    # finds the cones and passes the kernel too
    model = cc.preset_haldane(s, 0.1 * s, 0.0, 0.0)
    report = cc.sigma_kubo(model, directions=BOTH, eta_sequence=[s * e for e in BENCH_ETAS])
    _assert_same_grids_and_sigma(report, honeycomb_report, eta_scale=s)


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_kubo_invariant_under_lattice_stretch(qwz_aniso, qwz_aniso_report, c):
    # stretching a1, a2 and the orbital positions by c shrinks the zone and
    # every cone radius by c alike, and scales the currents by c: the grids
    # keep their sizes and sigma = Q_jj / (16 sqrt det Q) does not move
    lat = qwz_aniso.lattice
    model = dataclasses.replace(qwz_aniso, lattice=cc.make_lattice(c * lat.a1, c * lat.a2),
                                positions=c * qwz_aniso.positions)
    report = cc.sigma_kubo(model, directions=BOTH, eta_sequence=BENCH_ETAS)
    _assert_same_grids_and_sigma(report, qwz_aniso_report)


def test_chunk_size_moves_only_rounding(monkeypatch, haldane_critical, haldane_cones):
    # the chunk size is memory control only: with 1000-point chunks, which
    # cut every grid of the sweep elsewhere, the honeycomb's base-16 sweep
    # keeps its grid sizes and its sigma to 1e-12
    kw = dict(directions=BOTH, eta_sequence=BENCH_ETAS, cones=haldane_cones,
              grid_policy=cc.GridPolicy(base=16))
    reference = _kubo_report(haldane_critical, **kw)
    monkeypatch.setattr(kubo, "_CHUNK", 1000)
    _assert_same_grids_and_sigma(_kubo_report(haldane_critical, **kw), reference)


def test_sigma_hall_gapped_chern_model(qwz_gapped):
    report = cc.sigma_hall(qwz_gapped)
    sigma = report.sigma[(1, 2)]
    assert report.converged[(1, 2)] is True
    assert abs(abs(2.0 * np.pi * sigma) - 1.0) < 1e-3
    assert report.diagnostics["hall_quantum_residue"] < 1e-3
    assert report.diagnostics["min_gap"] > 1.9


def test_sigma_hall_time_reversal_symmetric_vanishes():
    # honeycomb with only real hopping and a staggered mass is
    # time-reversal symmetric, so the antisymmetric response cancels
    # pairwise between k and -k on the inversion-symmetric grid
    model = cc.preset_haldane(1.0, 0.0, 0.0, 0.2)
    report = cc.sigma_hall(model, eta_sequence=[0.04, 0.02, 0.01])
    assert abs(report.sigma[(1, 2)]) < 1e-9


def test_sigma_hall_decomposes_each_grid_once(monkeypatch):
    # the gap test reads the fine grid's spectral pass: without cones every
    # step's grid pair is the same uniform pair, so for two, five (the
    # default) or seven etas the fine grid and the companion each take one
    # kernel pass and are decomposed (two bands: Pauli-split) once
    import conecond.kubo as kubo

    split, kernel, points, passes = kubo._split, kubo._pair_sum_on_grid, [], []

    def counting_split(rows):
        points.append(len(rows[0]))            # one Pauli row's points
        return split(rows)

    def one_pass(model, grid, requests):
        passes.append(len(grid))
        return kernel(model, grid, requests)

    monkeypatch.setattr(kubo, "_split", counting_split)
    monkeypatch.setattr(kubo, "_pair_sum_on_grid", one_pass)
    model = cc.preset_qwz(1.0)
    for count in (2, 5, 7):
        points.clear()
        passes.clear()
        cc.sigma_hall(model, eta_sequence=cc.default_eta_sequence(model, count),
                      grid_policy=cc.GridPolicy(base=16))
        assert passes == [16 * 16, 8 * 8], count
        assert sum(points) == 16 * 16 + 8 * 8, count


def test_sigma_hall_two_etas_report_unconverged(qwz_gapped):
    # one estimator value: no Richardson step, the plain estimate, unconverged
    report = cc.sigma_hall(qwz_gapped, eta_sequence=[0.2, 0.1],
                           grid_policy=cc.GridPolicy(base=16))
    ((eta, s_hat, _),) = report.per_eta[(1, 2)]
    assert eta == 0.1 and report.sigma[(1, 2)] == s_hat
    assert report.converged[(1, 2)] is False
    assert report.diagnostics["min_gap"] > 1.9


def test_sigma_hall_gapless_routes():
    # u = 0 closes the gap between grid points: the resolution gate fires
    # first, and its refusal names the gap rule
    with pytest.raises(cc.Gapless, match="below 4 eta") as caught:
        cc.sigma_hall(cc.preset_qwz(0.0))
    assert isinstance(caught.value.__cause__, cc.GridTooCoarse)
    assert "refine" not in str(caught.value)
    # gapped, but the gap 0.405 is not above 10x the largest eta 0.0599
    with pytest.raises(cc.Gapless, match=r"minimum Fermi-level gap 0\.405") as caught:
        cc.sigma_hall(cc.preset_haldane(1.0, 0.0, 0.0, 0.2))
    assert caught.value.__cause__ is None


def test_sigma_hall_degeneracy_on_a_grid_point():
    # H = cos k1 s3 is degenerate on the lines k1 = +-pi/2, where the base-2
    # grid's midpoints sit: the degeneracy refusal comes before the gate
    s3 = np.diag([1.0, -1.0])
    model = cc.HoppingModel(lattice=cc.make_lattice([1.0, 0.0], [0.0, 1.0]), norbitals=2,
                            positions=np.zeros((2, 2)),
                            terms={(1, 0): 0.5 * s3, (-1, 0): 0.5 * s3}, fermi_energy=0.0)
    with pytest.raises(cc.Gapless, match=r"Fermi-level degeneracy .* at grid point .*; "
                                         r"the Hall estimate needs a gapped model") as caught:
        cc.sigma_hall(model, grid_policy=cc.GridPolicy(base=2))
    assert isinstance(caught.value.__cause__, cc.DegeneratePoint)


def test_sigma_hall_refuses_gapless(qwz_u0):
    with pytest.raises(cc.Gapless):
        cc.sigma_hall(qwz_u0)


def test_sigma_hall_gapless_model_report():
    """Documents measured behavior: the u = 0 square-lattice model closes
    its gap at two zone-boundary points (coarse-scan minimum gap ~0.098,
    far below ten times the default largest eta), so a Hall report for it
    is refused as Gapless rather than produced; the gapped companion test
    above gets the quantized report this check asks for."""
    report = cc.sigma_hall(cc.preset_qwz(0.0))
    assert np.isfinite(report.sigma[(1, 2)])


def test_relabelled_basis_gives_square_basis_results():
    # QWZ(-2) on the square lattice written with a2 = (3, 1): cell (0, 1) is
    # renamed (-3, 1); the zone basis, hence every grid, must not change
    square = cc.preset_qwz(-2.0)
    skew = cc.HoppingModel(
        lattice=cc.make_lattice([1.0, 0.0], [3.0, 1.0]), norbitals=2,
        positions=square.positions, fermi_energy=square.fermi_energy,
        terms={(m1 - 3 * m2, m2): T for (m1, m2), T in square.terms.items()})
    (sq_cones, sk_cones) = (cc.characterize_cones(m) for m in (square, skew))
    assert len(sk_cones) == len(sq_cones) == 1
    for j in (1, 2):
        assert np.isclose(cc.sigma_closed_form(sk_cones, j)[0],
                          cc.sigma_closed_form(sq_cones, j)[0], rtol=0, atol=1e-12)
    assert np.isclose(cc.default_epsilon(sk_cones, skew.lattice),
                      cc.default_epsilon(sq_cones, square.lattice), rtol=1e-12)
    seq = [0.2, 0.1, 0.05, 0.025]
    sq_rep = _kubo_report(square, 1, 1, eta_sequence=seq, cones=sq_cones)
    sk_rep = _kubo_report(skew, 1, 1, eta_sequence=seq, cones=sk_cones)
    assert sk_rep.diagnostics["grid_points"] == sq_rep.diagnostics["grid_points"]
    assert np.isclose(sk_rep.sigma[(1, 1)], sq_rep.sigma[(1, 1)], rtol=1e-10, atol=0)
