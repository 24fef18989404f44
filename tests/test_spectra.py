"""Eigen-solves, Fermi projectors (spectral and contour), and derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conecond as cc
from conftest import random_momenta

s1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
s2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
s3 = np.diag([1.0 + 0.0j, -1.0])


def onsite_matrix_model(T, mu=0.0):
    """Constant-in-k model H(k) = T on the square lattice."""
    N = T.shape[0]
    return cc.HoppingModel(
        lattice=cc.make_lattice([1.0, 0.0], [0.0, 1.0]),
        norbitals=N,
        positions=np.zeros((N, 2)),
        terms={(0, 0): np.asarray(T, dtype=complex)},
        fermi_energy=mu,
    )


# -- eigh ----------------------------------------------------------------------

def test_eigh_pauli3():
    spec = cc.eigh(s3)
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
    # eigenvector phases are canonical: largest-magnitude entry real positive
    assert np.allclose(spec.eigenvectors[:, 0], [0.0, 1.0])
    assert np.allclose(spec.eigenvectors[:, 1], [1.0, 0.0])


def test_eigh_pauli_vector():
    spec = cc.eigh(3.0 * s1 + 4.0 * s2)
    assert np.allclose(spec.eigenvalues, [-5.0, 5.0], atol=1e-12)


def test_eigh_reconstruction_random_6x6():
    rng = np.random.default_rng(17)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    H = (A + A.conj().T) / 2
    spec = cc.eigh(H)
    V, w = spec.eigenvectors, spec.eigenvalues
    assert np.all(np.diff(w) >= 0)
    assert np.abs(V @ np.diag(w) @ V.conj().T - H).max() < 1e-10
    assert np.abs(V.conj().T @ V - np.eye(6)).max() < 1e-10


def test_eigh_phase_canonicalization():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = (A + A.conj().T) / 2
    V = cc.eigh(H).eigenvectors
    for col in V.T:
        top = col[np.abs(col).argmax()]
        assert top.real > 0 and abs(top.imag) < 1e-12 * abs(top)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(cc.NotHermitian):
        cc.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_eigh_unitary_conjugation_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = (A + A.conj().T) / 2
    U = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    w0 = cc.eigh(H).eigenvalues
    w1 = cc.eigh(U @ H @ U.conj().T).eigenvalues
    assert np.abs(w1 - w0).max() < 1e-10 * max(1.0, np.abs(w0).max())


def test_band_spectrum_requires_sorted_eigenvalues():
    with pytest.raises(ValueError):
        cc.BandSpectrum(eigenvalues=np.array([1.0, -1.0]),
                        eigenvectors=np.eye(2, dtype=complex))


# -- occupation and gaps ---------------------------------------------------------

def test_occupied_count_examples():
    spec = cc.eigh(s3)  # eigenvalues (-1, 1)
    assert cc.occupied_count(spec, 0.0) == 1
    assert cc.occupied_count(spec, 2.0) == 2
    assert cc.occupied_count(spec, -2.0) == 0
    assert cc.occupied_count(spec, -1.0) == 1  # boundary counts as occupied


def test_occupied_count_haldane_critical(haldane_critical):
    for k in random_momenta(haldane_critical.lattice, 100, seed=3):
        spec = cc.spectrum_at(haldane_critical, k)
        assert cc.occupied_count(spec, haldane_critical.fermi_energy) == 1


def test_gap_at_band_touching_point():
    # both bands meet the Fermi level at the zone center: the gap closes
    model = cc.preset_qwz(-2.0)
    assert cc.gap_at(model, np.zeros(2)) < 1e-12


@pytest.mark.parametrize("offset", [1e-15, -1e-15])
def test_gap_at_closure_counts_level_on_either_side(offset):
    # the crossing shifted to 0.3: both levels sit there to rounding, and a
    # Fermi level just above or just below them sees the same closed gap
    qwz = cc.preset_qwz(-2.0)
    terms = dict(qwz.terms)
    terms[(0, 0)] = terms[(0, 0)] + 0.3 * np.eye(2)
    model = cc.HoppingModel(lattice=qwz.lattice, norbitals=2, positions=np.zeros((2, 2)),
                            terms=terms, fermi_energy=0.3 + offset)
    assert cc.gap_at(model, np.zeros(2)) < 1e-12


def test_gap_at_trivial_center():
    model = cc.preset_qwz(0.0)
    assert np.isclose(cc.gap_at(model, np.zeros(2)), 4.0, atol=1e-12)


def test_gap_at_haldane_corner(haldane_critical):
    K = haldane_critical.lattice.from_fractional([-1.0 / 3.0, 1.0 / 3.0])
    assert cc.gap_at(haldane_critical, K) < 1e-8


def test_gap_at_rejects_one_sided_spectrum():
    low = onsite_matrix_model(np.diag([-2.0 + 0j, -1.0]), mu=0.0)
    with pytest.raises(cc.AllBandsOnOneSide):
        cc.gap_at(low, np.zeros(2))
    high = onsite_matrix_model(np.diag([1.0 + 0j, 2.0]), mu=0.0)
    with pytest.raises(cc.AllBandsOnOneSide):
        cc.gap_at(high, np.zeros(2))


# -- spectral projector ----------------------------------------------------------

@pytest.mark.parametrize("fixture", ["qwz_gapped", "haldane_gapped"])
def test_spectral_projector_algebra(fixture, request):
    model = request.getfixturevalue(fixture)
    mu = model.fermi_energy
    for k in random_momenta(model.lattice, 25, seed=7):
        spec = cc.spectrum_at(model, k)
        P = cc.fermi_projector_spectral(spec, mu)
        H = cc.h_at(model, k)
        m = cc.occupied_count(spec, mu)
        assert np.abs(P @ P - P).max() < 1e-10
        assert np.abs(P - P.conj().T).max() < 1e-10
        assert abs(np.trace(P).real - m) < 1e-10
        assert np.abs(H @ P - P @ H).max() < 1e-10 * max(1.0, np.abs(H).max())


def test_spectral_projector_full_filling(qwz_gapped):
    spec = cc.spectrum_at(qwz_gapped, np.array([0.3, 0.1]))
    P = cc.fermi_projector_spectral(spec, 100.0)
    assert np.allclose(P, np.eye(2), atol=1e-12)


# -- Riesz contour projector ------------------------------------------------------

def test_riesz_pauli3_reference_rectangle():
    model = onsite_matrix_model(s3, mu=0.0)
    P = cc.fermi_projector_riesz(model, np.zeros(2), rect=(-2.0, 0.0, 1.0),
                                 nodes=256)
    assert np.abs(P - np.diag([0.0, 1.0])).max() < 1e-8


def test_riesz_matches_spectral_on_gapped_models(qwz_gapped, haldane_gapped):
    for model in (qwz_gapped, haldane_gapped):
        mu = model.fermi_energy
        for k in random_momenta(model.lattice, 5, seed=13):
            P_r = cc.fermi_projector_riesz(model, k, nodes=512)
            P_s = cc.fermi_projector_spectral(cc.spectrum_at(model, k), mu)
            assert np.abs(P_r - P_s).max() < 1e-8


def test_riesz_error_decreases_under_node_doubling(haldane_gapped):
    model = haldane_gapped
    k = model.lattice.from_fractional([0.21, -0.34])
    P_s = cc.fermi_projector_spectral(
        cc.spectrum_at(model, k), model.fermi_energy)
    errs = [
        np.abs(cc.fermi_projector_riesz(model, k, nodes=n) - P_s).max()
        for n in (128, 256, 512)
    ]
    assert errs[0] >= errs[1] >= errs[2] or errs[0] < 1e-12


def test_riesz_requires_minimum_nodes(qwz_gapped):
    with pytest.raises(ValueError):
        cc.fermi_projector_riesz(qwz_gapped, np.zeros(2), nodes=4)


def test_riesz_eigenvalue_on_contour():
    model = onsite_matrix_model(s3, mu=0.0)
    with pytest.raises(cc.EigenvalueOnContour):
        # the right edge passes through the eigenvalue at +1
        cc.fermi_projector_riesz(model, np.zeros(2), rect=(-2.0, 1.0, 1.0))


def test_riesz_wrong_enclosure_rejected():
    model = onsite_matrix_model(s3, mu=0.0)
    with pytest.raises(ValueError):
        # encloses both eigenvalues, not just the occupied one
        cc.fermi_projector_riesz(model, np.zeros(2), rect=(-2.0, 1.5, 1.0))


def test_riesz_singular_resolvent():
    model = onsite_matrix_model(np.diag([0.0 + 0j, 1.0e12]), mu=0.5)
    with pytest.raises(cc.SingularResolvent):
        # the eigenvalue clearance (1e-4) passes the on-contour check, but
        # with the second eigenvalue 12 orders of magnitude away the
        # resolvent condition number at the near nodes exceeds the bound
        cc.fermi_projector_riesz(model, np.zeros(2), rect=(-1.0, 1e-4, 1e-4))


# -- projector derivative ----------------------------------------------------------

def test_projector_derivative_matches_finite_differences(qwz_u0):
    model = qwz_u0
    k = np.array([0.3, 0.4])
    mu = model.fermi_energy
    h = 1e-5
    for j, e in ((1, np.array([h, 0.0])), (2, np.array([0.0, h]))):
        dP = cc.projector_derivative(model, k, j)
        Pp = cc.fermi_projector_spectral(cc.spectrum_at(model, k + e), mu)
        Pm = cc.fermi_projector_spectral(cc.spectrum_at(model, k - e), mu)
        assert np.abs(dP - (Pp - Pm) / (2 * h)).max() < 1e-6


def test_projector_derivative_block_structure(qwz_gapped):
    model = qwz_gapped
    for k in random_momenta(model.lattice, 5, seed=19):
        P = cc.fermi_projector_spectral(
            cc.spectrum_at(model, k), model.fermi_energy)
        for j in (1, 2):
            dP = cc.projector_derivative(model, k, j)
            Q = np.eye(2) - P
            assert np.abs(P @ dP @ P).max() < 1e-9
            assert np.abs(Q @ dP @ Q).max() < 1e-9
            assert abs(np.trace(dP)) < 1e-9
            assert np.abs(dP - dP.conj().T).max() < 1e-9


def test_projector_derivative_vanishes_for_flat_model(onsite_model):
    dP = cc.projector_derivative(onsite_model, np.array([0.2, 0.7]), 1)
    assert np.abs(dP).max() < 1e-12


def test_projector_derivative_gap_too_small(haldane_critical):
    K = haldane_critical.lattice.from_fractional([-1.0 / 3.0, 1.0 / 3.0])
    with pytest.raises(cc.GapTooSmall):
        cc.projector_derivative(haldane_critical, K, 1)


def test_projector_derivative_cone_ray_bound(haldane_critical, haldane_cones):
    # approaching a conical crossing along a generic ray, ||dP/dk_j|| grows
    # like 1/r: r * ||dP|| stays within a bounded window
    omega = haldane_cones[0].omega
    direction = np.array([np.cos(0.9), np.sin(0.9)])
    for j in (1, 2):
        vals = []
        for r in (1e-1, 1e-2, 1e-3):
            dP = cc.projector_derivative(haldane_critical, omega + r * direction, j)
            vals.append(r * np.linalg.norm(dP, 2))
        assert max(vals) / min(vals) <= 3.0
