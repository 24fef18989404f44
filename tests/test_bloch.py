"""Bloch Hamiltonian assembly, derivatives, covariance, and model loading."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conecond as cc
from conftest import random_momenta, square_model_dict


def brute_force_h(model, k):
    """Independent straight-loop evaluation of
    H(k)_{ab} = sum_cells exp(i k.(cell_cart + r_b - r_a)) T(cell)_{ab}."""
    N = model.norbitals
    H = np.zeros((N, N), dtype=complex)
    A = model.lattice.direct_matrix
    for (m1, m2), T in model.terms.items():
        cell_cart = A @ np.array([m1, m2], dtype=float)
        for a in range(N):
            for b in range(N):
                disp = cell_cart + model.positions[b] - model.positions[a]
                H[a, b] += np.exp(1j * (k[0] * disp[0] + k[1] * disp[1])) * T[a, b]
    return H


def test_haldane_hamiltonian_at_zone_corner(haldane_critical):
    # at the corner K the nearest-neighbour sum cancels and the
    # next-nearest-neighbour sum gives 2 t2 * 3 cos(2 pi / 3) = -0.3 on both
    # orbitals: H(K) = -0.3 I, exactly the Fermi level of the critical model
    m = haldane_critical
    K = m.lattice.from_fractional([-1.0 / 3.0, 1.0 / 3.0])
    H = cc.h_at(m, K)
    assert np.allclose(H, -0.3 * np.eye(2), atol=1e-12)
    assert np.isclose(m.fermi_energy, -0.3)


@pytest.mark.parametrize("fixture", ["haldane_critical", "qwz_aniso"])
def test_h_matches_brute_force(fixture, request):
    model = request.getfixturevalue(fixture)
    for k in random_momenta(model.lattice, 25, seed=11):
        assert np.allclose(cc.h_at(model, k), brute_force_h(model, k), atol=1e-12)


def test_h_batch_matches_single_points(qwz_aniso):
    ks = random_momenta(qwz_aniso.lattice, 17, seed=5)
    batch = qwz_aniso.h_batch(ks)
    for i, k in enumerate(ks):
        assert np.array_equal(batch[i], cc.h_at(qwz_aniso, k))


def three_orbital_model():
    """Seeded random 3-orbital model on a skewed lattice with off-centre
    orbitals; several cells add into every matrix entry."""
    rng = np.random.default_rng(17)
    hoppings = []
    for cell in ([0, 0], [1, 0], [0, 1], [1, -1], [2, 1]):
        T = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        if cell == [0, 0]:
            T = T + T.conj().T
        hoppings.append({"cell": cell, "matrix": [[[T[a, b].real, T[a, b].imag]
                                                   for b in range(3)] for a in range(3)]})
    return cc.model_from_dict({
        "lattice": {"a1": [1.0, 0.2], "a2": [0.3, 1.1]},
        "orbitals": [[0.0, 0.0], [0.4, 0.1], [0.2, 0.7]],
        "fermi_energy": 0.1,
        "hoppings": hoppings,
    })


def per_term_derivatives(model, k, j, l):
    """H, dH/dk_j and d^2H/dk_j dk_l by a straight loop over the terms."""
    N = model.norbitals
    out = np.zeros((3, N, N), dtype=complex)
    A = model.lattice.direct_matrix
    for (m1, m2), T in model.terms.items():
        cell_cart = A @ np.array([m1, m2], dtype=float)
        for a in range(N):
            for b in range(N):
                d = cell_cart + model.positions[b] - model.positions[a]
                term = np.exp(1j * (k @ d)) * T[a, b]
                out[0, a, b] += term
                out[1, a, b] += 1j * d[j - 1] * term
                out[2, a, b] += -d[j - 1] * d[l - 1] * term
    return out


@pytest.mark.parametrize("fixture", ["haldane_critical", "three_orbital"])
def test_batched_assembly_matches_per_term_loop(fixture, request):
    # the honeycomb's next-nearest-neighbour terms and every entry of the
    # 3-orbital model collect several terms into one matrix entry
    model = (three_orbital_model() if fixture == "three_orbital"
             else request.getfixturevalue(fixture))
    ks = random_momenta(model.lattice, 40, seed=3)
    for j in (1, 2):
        for l in (1, 2):
            batch = (model.h_batch(ks), model.dh_batch(ks, j),
                     model.d2h_batch(ks, j, l))
            for i, k in enumerate(ks):
                ref = per_term_derivatives(model, k, j, l)
                for got, want in zip(batch, ref):
                    scale = max(1.0, np.abs(want).max())
                    assert np.abs(got[i] - want).max() <= 1e-14 * scale


@pytest.mark.parametrize("fixture", ["haldane_critical", "three_orbital"])
def test_batched_assembly_sums_in_term_order(fixture, request):
    # every matrix element adds its entries in term order, exactly as an
    # np.add.at scatter of the same phases does (bit for bit)
    model = (three_orbital_model() if fixture == "three_orbital"
             else request.getfixturevalue(fixture))
    N = model.norbitals
    flat = model._slots[0::2] // 2
    for ks in (random_momenta(model.lattice, 300, seed=5), np.zeros((1, 2))):
        phases = np.exp(1j * (ks @ model._disp.T)) * model._vals
        ref = np.zeros((len(ks), N, N), dtype=complex)
        np.add.at(ref, (slice(None), flat // N, flat % N), phases)
        assert np.array_equal(model.h_batch(ks), ref)


@pytest.mark.parametrize("fixture", ["haldane_critical", "three_orbital"])
def test_shared_phase_stacks_match_single_calls(fixture, request):
    # H, both currents and a second derivative from one exp of the phase
    # matrix are each bit-identical to their own assembly call
    model = (three_orbital_model() if fixture == "three_orbital"
             else request.getfixturevalue(fixture))
    ks = random_momenta(model.lattice, 300, seed=6)
    H, J1, J2, D12 = model._assemble(ks, [(), (1,), (2,), (1, 2)])
    assert np.array_equal(H, model.h_batch(ks))
    assert np.array_equal(J1, model.dh_batch(ks, 1))
    assert np.array_equal(J2, model.dh_batch(ks, 2))
    assert np.array_equal(D12, model.d2h_batch(ks, 1, 2))


def test_qwz_hamiltonian_at_high_symmetry_points():
    m = cc.preset_qwz(-2.0)
    s3 = np.diag([1.0, -1.0])
    G = np.zeros(2)
    assert np.allclose(cc.h_at(m, G), (-2.0 + 2.0) * s3, atol=1e-14)
    X = m.lattice.from_fractional([0.5, 0.0])  # k = (pi, 0)
    assert np.allclose(cc.h_at(m, X), -2.0 * s3, atol=1e-12)


@pytest.mark.parametrize("fixture", ["haldane_critical", "haldane_gapped",
                                     "qwz_aniso", "square_model"])
def test_hermiticity_at_random_momenta(fixture, request):
    model = request.getfixturevalue(fixture)
    H = model.h_batch(random_momenta(model.lattice, 100, seed=2))
    defect = np.abs(H - H.conj().transpose(0, 2, 1)).max()
    assert defect < 1e-12 * max(1.0, np.abs(H).max())


@pytest.mark.parametrize("fixture", ["haldane_critical", "qwz_aniso",
                                     "square_model"])
def test_first_derivative_against_finite_differences(fixture, request):
    model = request.getfixturevalue(fixture)
    h = 1e-5
    scale = max(1.0, np.abs(model.h_batch(
        random_momenta(model.lattice, 4, seed=1))).max())
    for k in random_momenta(model.lattice, 100, seed=23):
        for j, e in ((1, np.array([h, 0.0])), (2, np.array([0.0, h]))):
            fd = (cc.h_at(model, k + e) - cc.h_at(model, k - e)) / (2 * h)
            assert np.abs(fd - cc.dh_at(model, k, j)).max() < 1e-6 * scale


def test_second_derivative_against_finite_differences(qwz_aniso):
    model = qwz_aniso
    h = 1e-5
    for k in random_momenta(model.lattice, 30, seed=29):
        for j, e in ((1, np.array([h, 0.0])), (2, np.array([0.0, h]))):
            for l in (1, 2):
                fd = (cc.dh_at(model, k + e, l) - cc.dh_at(model, k - e, l)) / (2 * h)
                assert np.abs(fd - cc.d2h_at(model, k, j, l)).max() < 1e-6


def test_second_derivative_exactly_symmetric(haldane_critical):
    for k in random_momenta(haldane_critical.lattice, 20, seed=31):
        a = cc.d2h_at(haldane_critical, k, 1, 2)
        b = cc.d2h_at(haldane_critical, k, 2, 1)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("fixture", ["haldane_critical", "qwz_aniso"])
def test_dual_covariance(fixture, request):
    model = request.getfixturevalue(fixture)
    for k in random_momenta(model.lattice, 10, seed=37):
        for (m1, m2) in ((1, 0), (0, 1), (1, 1), (2, -1)):
            assert cc.covariance_defect(model, k, m1, m2) < 1e-10


def test_spectrum_dual_periodicity(haldane_critical):
    model = haldane_critical
    lat = model.lattice
    for k in random_momenta(lat, 20, seed=41):
        w0 = np.linalg.eigvalsh(cc.h_at(model, k))
        for G in (lat.b1, lat.b2, lat.b1 + lat.b2):
            w1 = np.linalg.eigvalsh(cc.h_at(model, k + G))
            assert np.abs(w1 - w0).max() < 1e-10 * max(1.0, np.abs(w0).max())


def test_spectral_radius_bounds_spectrum(haldane_critical):
    model = haldane_critical
    rho = model.spectral_radius()
    w = np.linalg.eigvalsh(model.h_batch(random_momenta(model.lattice, 400, seed=43)))
    assert np.abs(w).max() <= rho * 1.05 + 1e-9
    assert rho > 1.0  # honeycomb bandwidth is a few hopping units


def test_gap_scan_distinguishes_phases(haldane_critical, haldane_gapped):
    def min_gap(model, n=200):
        fr = (np.arange(n) + 0.5) / n - 0.5
        F1, F2 = np.meshgrid(fr, fr, indexing="ij")
        ks = np.column_stack([F1.ravel(), F2.ravel()]) @ model.lattice.dual_matrix.T
        w = np.linalg.eigvalsh(model.h_batch(ks))
        mu = model.fermi_energy
        m = (w <= mu).sum(axis=1)
        ok = (m > 0) & (m < w.shape[1])
        return (w[ok, 1] - w[ok, 0]).min()

    assert min_gap(haldane_critical) < 5e-2   # closes at the zone corners
    assert min_gap(haldane_gapped) > 0.4      # stays open everywhere


# -- construction and serialization -------------------------------------------

def test_pairing_violation_rejected():
    # a lone T(1,0) with no matching T(-1,0) = T(1,0)^dagger partner given
    # both directions present but inconsistent
    data = square_model_dict()
    data["hoppings"] = [
        {"cell": [1, 0], "matrix": [[[1.0, 0.0]]]},
        {"cell": [-1, 0], "matrix": [[[2.0, 0.0]]]},
    ]
    with pytest.raises(cc.HoppingConflict):
        cc.model_from_dict(data)


def test_non_hermitian_onsite_rejected():
    data = square_model_dict()
    data["orbitals"] = [[0.0, 0.0], [0.5, 0.0]]
    data["hoppings"] = [
        {"cell": [0, 0],
         "matrix": [[[0.0, 0.0], [1.0, 0.0]],
                    [[0.0, 0.0], [0.0, 0.0]]]},
    ]
    with pytest.raises(cc.HoppingConflict):
        cc.model_from_dict(data)


def test_hermitian_partner_autocompletion():
    # only T(1,0) supplied; the loader must add T(-1,0) = T(1,0)^dagger
    data = square_model_dict()
    data["orbitals"] = [[0.0, 0.0], [0.25, 0.25]]
    data["hoppings"] = [
        {"cell": [1, 0],
         "matrix": [[[0.3, 0.1], [0.2, -0.4]],
                    [[0.0, 0.5], [-0.3, 0.0]]]},
    ]
    model = cc.model_from_dict(data)
    assert (-1, 0) in model.terms
    T = model.terms[(1, 0)]
    assert np.array_equal(model.terms[(-1, 0)], T.conj().T)
    k = np.array([0.3, -1.1])
    H = cc.h_at(model, k)
    assert np.abs(H - H.conj().T).max() < 1e-14


def test_duplicate_cells_accumulate():
    data = square_model_dict()
    data["hoppings"] = [
        {"cell": [1, 0], "matrix": [[[0.25, 0.0]]]},
        {"cell": [1, 0], "matrix": [[[0.75, 0.0]]]},
        {"cell": [0, 1], "matrix": [[[1.0, 0.0]]]},
    ]
    model = cc.model_from_dict(data)
    ref = cc.model_from_dict(square_model_dict())
    k = np.array([0.7, 0.2])
    assert np.allclose(cc.h_at(model, k), cc.h_at(ref, k), atol=1e-14)


def test_json_round_trip(model_file):
    path = model_file(square_model_dict(t=0.7, mu=-0.2))
    model = cc.load_model(path)
    assert model.norbitals == 1
    assert model.fermi_energy == -0.2
    k = np.array([0.4, 0.9])
    expected = 2 * 0.7 * (np.cos(k[0]) + np.cos(k[1]))
    assert np.isclose(cc.h_at(model, k)[0, 0].real, expected, atol=1e-12)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("lattice"),
    lambda d: d.pop("orbitals"),
    lambda d: d.pop("hoppings"),
    lambda d: d["hoppings"][0].pop("cell"),
    lambda d: d["hoppings"][0].update(matrix=[[[1.0, 0.0], [0.0, 0.0]]]),
    lambda d: d.update(orbitals=[[0.0]]),
    lambda d: d["hoppings"][0].update(cell=[1.5, 0]),
    lambda d: d["lattice"].update(a2=[2.0, 0.0]),        # degenerate basis
])
def test_malformed_model_rejected(mutate):
    data = square_model_dict()
    mutate(data)
    with pytest.raises(cc.ModelFormatError):
        cc.model_from_dict(data)


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(fermi_energy=float("nan")),
    lambda d: d.update(fermi_energy=float("inf")),
    lambda d: d["hoppings"][0].update(matrix=[[[float("nan"), 0.0]]]),
    lambda d: d["hoppings"][1].update(matrix=[[[1.0, float("-inf")]]]),
    lambda d: d.update(orbitals=[[0.0, float("inf")]]),
    lambda d: d.update(orbitals=[[float("nan"), 0.0]]),
    lambda d: d["lattice"].update(a1=[float("inf"), 0.0]),
    lambda d: d["lattice"].update(a2=[0.0, float("nan")]),
])
def test_non_finite_model_input_rejected(mutate):
    data = square_model_dict()
    mutate(data)
    with pytest.raises(cc.ModelFormatError, match="finite"):
        cc.model_from_dict(data)


def _one_orbital_model(position=(0.0, 0.0), mu=0.0):
    return cc.HoppingModel(lattice=cc.make_lattice([1.0, 0.0], [0.0, 1.0]), norbitals=1,
                           positions=[position], terms={(0, 0): [[1.0]]}, fermi_energy=mu)


@pytest.mark.parametrize("build", [
    lambda: cc.preset_qwz(np.nan),
    lambda: cc.preset_haldane(1.0, 0.1, 0.0, np.nan),
    lambda: _one_orbital_model(position=(np.nan, 0.0)),
    lambda: _one_orbital_model(mu=np.inf),
], ids=["qwz-u=nan", "haldane-M=nan", "position=nan", "mu=inf"])
def test_non_finite_model_refused_at_construction(build):
    # the presets once built and failed later, as AllBandsOnOneSide (qwz)
    # and BandCrossingRegion (haldane)
    with pytest.raises(cc.ModelFormatError, match="finite"):
        build()


def test_conflicting_model_file_rejected(model_file):
    # the loader fills in missing partners but leaves the pairing rule to
    # HoppingModel, which refuses inconsistent ones
    data = square_model_dict()
    data["hoppings"].append({"cell": [-1, 0], "matrix": [[[0.5, 0.0]]]})
    with pytest.raises(cc.HoppingConflict, match="dagger"):
        cc.load_model(model_file(data))


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(cc.ModelFormatError):
        cc.load_model(path)


def test_haldane_rejects_zero_hopping():
    with pytest.raises(ValueError):
        cc.preset_haldane(0.0, 0.1, 0.0, 0.0)


complex_entries = st.floats(min_value=-2.0, max_value=2.0,
                            allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.lists(complex_entries, min_size=8, max_size=8),
       st.tuples(st.floats(-3, 3, allow_nan=False),
                 st.floats(-3, 3, allow_nan=False)))
def test_random_models_are_hermitian_and_consistent(vals, kpt):
    # random 2-orbital model on the square lattice, partner auto-completed
    T = np.array([[vals[0] + 1j * vals[1], vals[2] + 1j * vals[3]],
                  [vals[4] + 1j * vals[5], vals[6] + 1j * vals[7]]])
    data = {
        "lattice": {"a1": [1.0, 0.0], "a2": [0.0, 1.0]},
        "orbitals": [[0.0, 0.0], [0.3, 0.6]],
        "fermi_energy": 0.0,
        "hoppings": [
            {"cell": [1, 0],
             "matrix": [[[T[a, b].real, T[a, b].imag] for b in range(2)]
                        for a in range(2)]},
        ],
    }
    model = cc.model_from_dict(data)
    k = np.array(kpt)
    H = cc.h_at(model, k)
    assert np.abs(H - H.conj().T).max() < 1e-13
    assert np.allclose(H, brute_force_h(model, k), atol=1e-12)
    h = 1e-5
    fd = (cc.h_at(model, k + [h, 0]) - cc.h_at(model, k - [h, 0])) / (2 * h)
    assert np.abs(fd - cc.dh_at(model, k, 1)).max() < 1e-6
