"""Tests for the linear-response integrals and the eta -> 0 extraction.

The headline oracle re-derives f_jl(eta) by brute-force numerical time
integration (composite Simpson of the damped oscillatory integrand) and
checks it against the analytic frequency-domain evaluation on the same
momentum grid, so only the time-vs-frequency transform is under test.
Further anchors: a hand-derived closed form for the square-lattice
Schwinger term, exact vanishing on a hopping-free model, and algebraic
identities of the estimator sequence.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import conecond as cc
from conecond.kubo import (_cone_pass, _eigh, _elliptic_polar_nodes, _fermi_gaps,
                           _pair_sum_on_grid)


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

def test_frequency_domain_matches_time_quadrature_longitudinal(qwz_u0):
    grid = cc.uniform_grid(qwz_u0.lattice, 48, 48)
    oracle = time_domain_response(qwz_u0, grid, 0.1, 1, 1)
    est = cc.fjl_eta(qwz_u0, 0.1, 1, 1, grid)
    assert est.quantity == "f_jl"
    assert abs(est.value - oracle) < 1e-6 * abs(oracle)


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
            offsets, wq = _elliptic_polar_nodes(cone, eps, eta, nt, og)
            total += [np.sum(f * wq) for f in integrands(cone.omega + offsets)]
        return total

    fine, coarse = rule(ntheta, order), rule(ntheta // 2, order - 4)
    quad = np.maximum(np.abs(fine - coarse), 1e-14 * (1.0 + np.abs(fine)))
    return {"f_sing": (fine[0], quad[0]), "zeta": (fine[1], quad[1])}


@pytest.mark.parametrize("name", ["haldane_one_cone", "qwz_aniso", "hex_flat_band_model"])
def test_cone_integrals_match_dense_rotation(name, request):
    # fjj_sing and zeta_jj contract only the straddling pair's elements; a
    # dense read of the same elements from the fully rotated current agrees
    if name == "haldane_one_cone":
        model = cc.preset_haldane(1.0, 0.1, np.pi / 2.0, 3.0 * np.sqrt(3.0) * 0.1)
        cones = cc.characterize_cones(model)
    elif name == "qwz_aniso":
        model = request.getfixturevalue(name)
        cones = request.getfixturevalue("qwz_aniso_cones")
    else:
        # N = 3, with eps small enough that the pair stays isolated
        model = request.getfixturevalue(name)
        cones = [cc.FermiPoint(omega=model.lattice.from_fractional([-1.0 / 3.0, 1.0 / 3.0]),
                               Q=2.25 * np.eye(2), tilt=np.zeros(2), residual=0.0,
                               gap_at_omega=0.0)]
    eps = 0.004 if name == "hex_flat_band_model" else cc.default_epsilon(cones, model.lattice)
    assert len(cones) == 1
    for eta in (0.05, 0.0125):
        for j in (1, 2):
            ref = _dense_cone_reference(model, cones, eta, j, eps)
            for fn, rtol in ((cc.fjj_sing, 1e-14), (cc.zeta_jj, 1e-11)):
                est = fn(model, cones, eta, j, eps=eps)
                value, quad = ref[est.quantity]
                assert abs(est.value - value) <= rtol * abs(value), (est.quantity, eta, j)
                assert abs(est.quad_error - quad) <= 1e-12, (est.quantity, eta, j)


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
    pytest.param(lambda m, c: cc.fjj_sing(m, c, 0.05, 1, ntheta=0), "ntheta and order",
                 id="ntheta=0"),
    pytest.param(lambda m, c: cc.zeta_jj(m, c, 0.05, 1, order=0), "ntheta and order",
                 id="order=0"),
    pytest.param(lambda m, c: cc.fjj_sing(m, c, 0.05, 1, ntheta=2.5), "ntheta and order",
                 id="ntheta=2.5"),
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
    values, _ = _pair_sum_on_grid(
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

    values, _ = _pair_sum_on_grid(model, grid, requests, True)
    assert list(values) == requests
    for r in requests:
        assert values[r] == separate(model, grid, r, True)  # bit-identical

    with pytest.raises(cc.GridTooCoarse) as single:
        cc.ftilde_jj(model, 0.06, 1, grid, cones=cones)
    assert separate(model, grid, ("ftilde_jj", 0.06, (2, 2)), True) < 0.0
    with pytest.raises(cc.GridTooCoarse) as mixed:
        _pair_sum_on_grid(model, grid, requests + [
            ("ftilde_jj", 0.06, (2, 2)), ("ftilde_jj", 0.06, (1, 1))], True)
    assert str(mixed.value) == str(single.value)

    # ftilde at eta = 0, allowed on a gapped model, in a pass with the others
    flat = cc.uniform_grid(qwz_gapped.lattice, 24, 24)
    gapped = [("ftilde_jj", 0.0, (1, 1)), ("f_jl", 0.1, (1, 1)),
              ("schwinger", 0.0, (1, 1)), ("ftilde_jj", 0.0, (2, 2))]
    values, _ = _pair_sum_on_grid(qwz_gapped, flat, gapped, False)
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
    values, min_gap = _pair_sum_on_grid(model, grid, requests, False)
    for r in requests:
        ref, scale = _dense_reference(model, grid, r)
        assert abs(values[r] - ref) <= 1e-12 * scale, r
    # the pass's smallest Fermi gap is the whole grid's, bit for bit
    _, _, gaps = _fermi_gaps(_eigh(model.h_batch(grid.points))[0], model.fermi_energy)
    assert min_gap == gaps.min()


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


def test_closed_form_eigh_matches_lapack():
    rng = np.random.default_rng(7)
    stacks = []
    for s in 10.0 ** np.arange(-8, 9, 2):
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
        w, V = _eigh(H)
        w0 = np.linalg.eigh(H)[0]
        norm = np.linalg.norm(H, 2, axis=(1, 2))[:, None]
        assert np.all(np.isfinite(V)) and np.all(w[:, 0] <= w[:, 1])
        # LAPACK's own eigenvalues stray by up to ~1.3e-15 ||H|| from exact,
        # so the 1e-15 bound is against the exact values
        assert np.all(np.abs(w - _exact_two_band_eigenvalues(H)) <= 1e-15 * norm)
        assert np.all(np.abs(w - w0) <= 3e-15 * norm)
        residual = np.linalg.norm(H @ V - V * w[:, None, :], 2, axis=(1, 2))
        gram = np.linalg.norm(V.conj().transpose(0, 2, 1) @ V - np.eye(2), 2, axis=(1, 2))
        assert np.all(residual <= 1e-14 * norm[:, 0]) and np.all(gram <= 1e-14)

    _, V = _eigh(_hermitian_2x2([0.0, 1.0, -1e8, 1e-8], 0.0, 0.0))
    assert np.array_equal(V, np.broadcast_to(np.eye(2), V.shape))
    H3 = rng.standard_normal((50, 3, 3)) + 1j * rng.standard_normal((50, 3, 3))
    H3 = H3 + H3.conj().transpose(0, 2, 1)
    for got, ref in zip(_eigh(H3), np.linalg.eigh(H3)):
        assert np.array_equal(got, ref)


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

    def one_pass(model, grid, requests, gate):
        passes.append(len(grid))
        return kernel(model, grid, requests, gate)

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
    # the gap test reads the fine grid's spectral pass: the fine grid and the
    # companion are each decomposed once
    import conecond.kubo as kubo

    eigh, points = kubo._eigh, []

    def counting_eigh(a):
        points.append(len(a))
        return eigh(a)

    monkeypatch.setattr(kubo, "_eigh", counting_eigh)
    cc.sigma_hall(cc.preset_qwz(1.0), grid_policy=cc.GridPolicy(base=16))
    assert sum(points) == 16 * 16 + 8 * 8


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
