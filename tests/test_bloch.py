"""Bloch Hamiltonian assembly, derivatives, covariance, and model loading."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conecond as cc
from conecond import bloch
from conecond.bloch import PAIRING_ATOL, _eigvals
from conecond.cli import _band_path
from conecond.lattice import uniform_grid
from conftest import (hex_flat_band_dict, one_cone_model, one_cone_seeds, random_momenta,
                      square_model_dict, three_band_dict, tilted_qwz, with_far_band)

# one momentum (BLAS's one-row path), an odd batch and a full Kubo chunk
ASSEMBLY_BATCHES = (1, 255, 4096)


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


def test_h_batch_matches_single_points(qwz_aniso, haldane_critical, haldane_one_cone):
    # one momentum is assembled as two equal rows, not by BLAS's one-row
    # path, so its matrices equal its row of a batch bit for bit
    for model in (qwz_aniso, haldane_critical, haldane_one_cone):
        ks = random_momenta(model.lattice, 300, seed=5)
        batch = model._assemble(ks, [(), (1,), (2,), (1, 2)])
        for i, k in enumerate(ks):
            assert np.array_equal(batch[0][i], cc.h_at(model, k))
            assert np.array_equal(batch[1][i], cc.dh_at(model, k, 1))
            assert np.array_equal(batch[2][i], cc.dh_at(model, k, 2))
            assert np.array_equal(batch[3][i], cc.d2h_at(model, k, 1, 2))


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


def skewed_generic_model():
    """Seeded random 2-orbital model on a skewed, unreduced lattice with
    generic orbital positions (each displacement gamma + (r_b - r_a) still
    has its exact mirror); the on-site diagonal adds the zero
    displacement."""
    rng = np.random.default_rng(23)
    hoppings = []
    for cell in ([0, 0], [1, 0], [0, 1], [1, 1], [-2, 1]):
        T = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if cell == [0, 0]:
            T = T + T.conj().T
        hoppings.append({"cell": cell, "matrix": [[[T[a, b].real, T[a, b].imag]
                                                   for b in range(2)] for a in range(2)]})
    return cc.model_from_dict({
        "lattice": {"a1": [0.9, 0.35], "a2": [2.45, 1.6]},
        "orbitals": [[0.137, 0.291], [0.713, -0.058]],
        "fermi_energy": 0.0,
        "hoppings": hoppings,
    })


BUILT_MODELS = {"three_orbital": three_orbital_model, "skewed_generic": skewed_generic_model}


def with_unpaired_row(model):
    """``model`` plus one hopping entry far below the pairing tolerance whose
    partner entry is zero: its displacement row has no mirror, so it takes
    its own phase argument."""
    T, N = np.zeros((model.norbitals,) * 2, dtype=complex), model.norbitals
    T[0, N - 1] = 1e-3 * PAIRING_ATOL
    terms = {**model.terms, (3, -1): T, (-3, 1): np.zeros_like(T)}
    return dataclasses.replace(model, terms=terms)


def per_term_derivatives(model, ks, j, l):
    """H, dH/dk_j and d^2H/dk_j dk_l at the momenta ks (M, 2) by a straight
    loop over the terms and their entries; shape (3, M, N, N).  Each
    displacement is gamma + (r_b - r_a), rounded as the model rounds it, and
    each phase argument the dot product k . d of one momentum, as ``k @ d``
    takes it."""
    N = model.norbitals
    out = np.zeros((3, len(ks), N, N), dtype=complex)
    A = model.lattice.direct_matrix
    for (m1, m2), T in model.terms.items():
        cell_cart = A @ np.array([m1, m2], dtype=float)
        for a in range(N):
            for b in range(N):
                d = cell_cart + (model.positions[b] - model.positions[a])
                term = np.exp(1j * np.vecdot(ks, d)) * T[a, b]
                out[0, :, a, b] += term
                out[1, :, a, b] += 1j * d[j - 1] * term
                out[2, :, a, b] += -d[j - 1] * d[l - 1] * term
    return out


@pytest.mark.parametrize("fixture", ["haldane_critical", "three_orbital", "skewed_generic"])
def test_batched_assembly_matches_per_term_loop(fixture, request):
    # the honeycomb's next-nearest-neighbour terms and every entry of the
    # 3-orbital model collect several terms into one matrix entry; the
    # skewed model gets a displacement row without an exact mirror, which
    # takes its own argument, next to mirrored rows and the zero row
    model = (BUILT_MODELS[fixture]() if fixture in BUILT_MODELS
             else request.getfixturevalue(fixture))
    if fixture == "skewed_generic":
        model = with_unpaired_row(model)
        n_pair = model._npair
        assert model._nexp > n_pair > 0 and len(model._disp) == model._nexp + n_pair + 1
    for n in ASSEMBLY_BATCHES:
        ks = random_momenta(model.lattice, n, seed=3)
        for j in (1, 2):
            for l in (1, 2):
                batch = (model.h_batch(ks), model.dh_batch(ks, j),
                         model.d2h_batch(ks, j, l))
                for got, want in zip(batch, per_term_derivatives(model, ks, j, l)):
                    scale = np.maximum(1.0, np.abs(want).max(axis=(1, 2)))
                    assert (np.abs(got - want).max(axis=(1, 2)) <= 1e-14 * scale).all()


@pytest.mark.parametrize("n", ASSEMBLY_BATCHES)
def test_model_without_terms_assembles_zero_stacks(n):
    model = cc.HoppingModel(lattice=cc.make_lattice([1.0, 0.2], [0.3, 1.1]), norbitals=3,
                            positions=np.zeros((3, 2)), terms={}, fermi_energy=0.0)
    ks = random_momenta(model.lattice, n, seed=4)
    for stack in model._assemble(ks, [(), (1,), (2,), (1, 2)]):
        assert stack.shape == (n, 3, 3) and stack.flags.c_contiguous
        assert not stack.any()


@pytest.mark.parametrize("fixture", ["haldane_critical", "three_orbital", "skewed_generic"])
def test_shared_phase_stacks_match_single_calls(fixture, request):
    # H, both currents and a second derivative from one phase matrix are
    # each bit-identical to their own assembly call
    model = (BUILT_MODELS[fixture]() if fixture in BUILT_MODELS
             else request.getfixturevalue(fixture))
    for n in ASSEMBLY_BATCHES:
        ks = random_momenta(model.lattice, n, seed=6)
        stacks = model._assemble(ks, [(), (1,), (2,), (1, 2)])
        singles = (model.h_batch(ks), model.dh_batch(ks, 1), model.dh_batch(ks, 2),
                   model.d2h_batch(ks, 1, 2))
        for got, want in zip(stacks, singles):
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def test_qwz_hamiltonian_at_high_symmetry_points():
    m = cc.preset_qwz(-2.0)
    s3 = np.diag([1.0, -1.0])
    G = np.zeros(2)
    assert np.allclose(cc.h_at(m, G), (-2.0 + 2.0) * s3, atol=1e-14)
    X = m.lattice.from_fractional([0.5, 0.0])  # k = (pi, 0)
    assert np.allclose(cc.h_at(m, X), -2.0 * s3, atol=1e-12)


@pytest.mark.parametrize("fixture", ["haldane_critical", "haldane_gapped", "haldane_one_cone",
                                     "qwz_aniso", "qwz_gapped", "square_model",
                                     "three_orbital", "skewed_generic"])
def test_stacks_exactly_hermitian(fixture, request):
    # the coefficients of the entries (a, b) and (b, a) are exact conjugates
    # when every displacement row has its exact mirror, which gamma + (r_b -
    # r_a) gives for generic orbital positions too, so each stack equals its
    # conjugate transpose bit for bit and has a real diagonal
    model = (BUILT_MODELS[fixture]() if fixture in BUILT_MODELS
             else request.getfixturevalue(fixture))
    assert model._nexp == model._npair
    for n in ASSEMBLY_BATCHES:
        ks = random_momenta(model.lattice, n, seed=8)
        for stack in model._assemble(ks, [(), (1,), (2,), (1, 2)]):
            assert np.array_equal(stack, stack.conj().swapaxes(1, 2))
            assert not np.diagonal(stack, axis1=1, axis2=2).imag.any()


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


@pytest.mark.parametrize("call", [
    pytest.param(lambda m, ks: m.dh_batch(ks, 0), id="dh-0"),
    pytest.param(lambda m, ks: m.dh_batch(ks, 3), id="dh-3"),
    pytest.param(lambda m, ks: m.d2h_batch(ks, 0, -1), id="d2h-0-minus1"),
    pytest.param(lambda m, ks: m.d2h_batch(ks, 1, 3), id="d2h-1-3"),
    pytest.param(lambda m, ks: m._assemble(ks, [(), (1,), (2, 0)]), id="assemble"),
    pytest.param(lambda m, ks: cc.dh_at(m, ks[0], 0), id="dh_at-0"),
    pytest.param(lambda m, ks: cc.d2h_at(m, ks[0], 2, 0), id="d2h_at-2-0"),
])
def test_derivative_direction_refused(haldane_critical, call):
    # index 0 once read the last coordinate through index -1, so dh_batch(ks, 0)
    # returned dH/dk_2 without an error, and index 3 raised a bare IndexError
    for n in ASSEMBLY_BATCHES:
        ks = random_momenta(haldane_critical.lattice, n, seed=5)
        with pytest.raises(ValueError, match="direction indices must be 1 or 2"):
            call(haldane_critical, ks)


@pytest.mark.parametrize("fixture", ["haldane_critical", "qwz_aniso"])
def test_dual_covariance(fixture, request):
    model = request.getfixturevalue(fixture)
    ks = random_momenta(model.lattice, 10, seed=37)
    for (m1, m2) in ((1, 0), (0, 1), (1, 1), (2, -1)):
        for k in ks:
            assert cc.covariance_defect(model, k, m1, m2) < 1e-10
        # the stack form gives the largest defect, the same with H(k) given
        stacked = cc.covariance_defect(model, ks, m1, m2)
        assert stacked < 1e-10
        assert cc.covariance_defect(model, ks, m1, m2, model.h_batch(ks)) == stacked


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


# -- the eigenvalue solver ------------------------------------------------------

@pytest.mark.parametrize("name", ["haldane_critical", "haldane_one_cone", "qwz_topological",
                                  "qwz_aniso", "tilted_qwz",
                                  *(f"one_cone_{seed}" for seed in range(8))])
def test_two_band_eigenvalues_match_lapack(name, request):
    # the closed form d0 -+ |d| of the Pauli rows against LAPACK on the
    # assembled stacks, to a few ulp of the largest |eigenvalue| (at most
    # 4.5 measured, which covers both assembly routes and LAPACK's rounding)
    if name == "tilted_qwz":
        model = tilted_qwz(0.4, u=-2.0)
    elif name.startswith("one_cone_"):
        model = one_cone_model(int(name.rsplit("_", 1)[1]))[0]
    else:
        model = request.getfixturevalue(name)
    ks = random_momenta(model.lattice, 1000, seed=3)
    w, ref = _eigvals(model, model._phases(ks)), np.linalg.eigvalsh(model.h_batch(ks))
    assert w.shape == ref.shape and np.all(w[:, 0] <= w[:, 1])
    assert np.abs(w - ref).max() <= 8.0 * np.finfo(float).eps * np.abs(ref).max()


@pytest.mark.parametrize("k", [-1000, -300, -60, 60, 300, 1000])
def test_two_band_eigenvalues_across_the_float_range(k):
    # the honeycomb with every hopping scaled by 2^k: the eigenvalues scale
    # with it, with no overflow or underflow of d . d; at 2^+-1000 the
    # unscaled sum of squares would overflow (or flush to zero)
    base = cc.preset_haldane(1.0, 0.1, 0.0, 0.0)
    model = cc.preset_haldane(2.0**k, 0.1 * 2.0**k, 0.0, 0.0)
    ks = random_momenta(model.lattice, 500, seed=5)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        w = _eigvals(model, model._phases(ks))
    ref = _eigvals(base, base._phases(ks))
    assert np.isfinite(w).all()
    assert np.abs(np.ldexp(w, -k) - ref).max() <= 4.0 * np.finfo(float).eps * np.abs(ref).max()


@pytest.mark.parametrize("fixture", ["three_band_metal", "hex_flat_band_model"])
def test_more_bands_take_lapack_eigenvalues(fixture, request):
    model = request.getfixturevalue(fixture)
    ks = random_momenta(model.lattice, 300, seed=7)
    w = _eigvals(model, model._phases(ks))
    assert np.array_equal(w, np.linalg.eigvalsh(model.h_batch(ks)))


@pytest.mark.parametrize("name", ["haldane_critical", "haldane_one_cone", "qwz_topological",
                                  "qwz_aniso", "skewed_generic", "three_orbital"])
def test_grid_eigenvalues_match_the_uniform_grid(name, request):
    # the separable product of a uniform grid against _eigvals of the phase
    # rows of its points: the same point order, every eigenvalue within 8
    # ulp of the largest |eigenvalue|; the scan's 96^2 and the energy
    # scale's 16^2, odd and unequal counts, the skewed model with an
    # unpaired row, the 3-orbital one on a skewed lattice
    if name == "skewed_generic":
        model = with_unpaired_row(skewed_generic_model())
    elif name in BUILT_MODELS:
        model = BUILT_MODELS[name]()
    else:
        model = request.getfixturevalue(name)
    for n1, n2 in ((96, 96), (16, 16), (7, 5), (1, 4), (33, 16)):
        ks = uniform_grid(model.lattice, n1, n2).points
        w, ref = bloch._grid_eigvals(model, n1, n2), _eigvals(model, model._phases(ks))
        assert w.shape == ref.shape
        assert np.abs(w - ref).max() <= 8.0 * np.finfo(float).eps * np.abs(ref).max()


def test_two_band_scan_and_energy_scale_skip_lapack(monkeypatch, haldane_critical):
    # the gap scan, the energy scale and the band path of a two-band model
    # read the closed form, so none of them calls LAPACK's eigvalsh
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert len(cc.find_fermi_points(haldane_critical)) == 2
    assert haldane_critical.spectral_radius() > 1.0
    _, _, energies = _band_path(haldane_critical, [np.zeros(2), np.array([0.5, 0.0])], 16)
    assert energies.shape == (17, 2) and np.isfinite(energies).all()


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


@pytest.mark.parametrize("build", [
    lambda: cc.preset_haldane(1e308, 0.0, 0.0, 0.0),
    lambda: cc.preset_haldane(1.0, 5e307, np.pi / 2, 0.0),
    lambda: cc.model_from_dict(square_model_dict(t=1e308)),
    lambda: cc.model_from_dict(square_model_dict(t=-1e308, mu=1.0)),
], ids=["haldane-t1", "haldane-t2", "square", "square-negative"])
def test_overflowing_model_refused_at_construction(build):
    # every entry is finite, but a column sum of a coefficient table is
    # not, so H(k) or a derivative could overflow; refused without a warning
    # (QWZ's largest entries each fill one column, so it builds up to 1.7e308)
    with pytest.raises(cc.ModelFormatError, match="too large"):
        build()


@pytest.mark.parametrize("t", [1e307, 2.0**1000])
def test_largest_models_below_the_overflow_bound_build(t):
    # the square lattice's H = 2 t (cos k1 + cos k2) stays finite at 1e307
    # and 2^1000; the honeycomb's |H| <= 3 t1 stays finite at t1 = 1e307
    model = cc.model_from_dict(square_model_dict(t=t))
    assert np.isfinite(model.h_batch(random_momenta(model.lattice, 50, seed=1))).all()
    honeycomb = cc.preset_haldane(1e307, 0.0, 0.0, 0.0)
    assert np.isfinite(honeycomb.h_batch(random_momenta(honeycomb.lattice, 50, seed=1))).all()


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
def test_current_norm_scales_across_the_float_range(k):
    # the slope bound, the Frobenius norm of the currents on the zone
    # sample, scales with the hoppings: at 2^-600 the unscaled squares
    # flushed to zero, so the scan's seed threshold was zero and no cone
    # was found
    base = cc.preset_haldane(1.0, 0.1, 0.0, 0.0)
    model = cc.preset_haldane(2.0**k, 0.1 * 2.0**k, 0.0, 0.0)
    with np.errstate(over="raise", under="ignore"):
        norm = bloch._slope_bound(model)
    assert np.ldexp(norm, -k) == bloch._slope_bound(base)


@pytest.mark.parametrize("k", [-600, -900, -1000])
def test_tiny_hopping_scale_gets_a_typed_refusal(k):
    # the scan finds the honeycomb's cones at 2^k, and the fit's squared
    # half-gaps underflow: NotConical, not an empty list of cones
    with pytest.raises(cc.NotConical, match="does not resolve the cone"):
        cc.characterize_cones(cc.preset_haldane(2.0**k, 0.0, 0.0, 0.0))


def test_more_than_two_derivatives_refused(haldane_critical):
    ks = random_momenta(haldane_critical.lattice, 3, seed=2)
    with pytest.raises(ValueError, match=r"at most two derivatives, got \(1, 2, 1\)"):
        haldane_critical._assemble(ks, [(), (1, 2, 1)])


def test_conflicting_model_file_rejected(model_file):
    # the loader fills in missing partners but leaves the pairing rule to
    # HoppingModel, which refuses inconsistent ones
    data = square_model_dict()
    data["hoppings"].append({"cell": [-1, 0], "matrix": [[[0.5, 0.0]]]})
    with pytest.raises(cc.HoppingConflict, match="dagger"):
        cc.load_model(model_file(data))


def test_unpaired_term_refused_at_construction():
    # model_from_dict fills in a missing partner; a model built directly
    # is refused instead
    with pytest.raises(cc.HoppingConflict,
                       match=r"term at \(1,0\) has no partner at \(-1,0\)"):
        cc.HoppingModel(lattice=cc.make_lattice([1.0, 0.0], [0.0, 1.0]), norbitals=1,
                        positions=[(0.0, 0.0)], terms={(1, 0): [[1.0]]}, fermi_energy=0.0)


def reference_tables(lattice, N, positions, terms, fermi_energy):
    """The derived state of HoppingModel built term by term, as it was
    before its one vectorized pass: (disp, tables, pauli tables, n_exp,
    n_pair, max_hopping), or the first refusal, raised."""
    pos = np.asarray(positions, dtype=float).reshape(N, 2)
    terms = {(int(c[0]), int(c[1])): np.asarray(T, dtype=complex).reshape(N, N)
             for c, T in terms.items()}
    if not (np.isfinite(pos).all() and np.isfinite(fermi_energy)
            and all(np.isfinite(T).all() for T in terms.values())):
        raise cc.ModelFormatError("orbital positions, hopping entries and the "
                                  "Fermi energy must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        max_hopping = max([0.0] + [float(np.abs(T).max()) for T in terms.values()])
        for (m1, m2), T in terms.items():
            partner = terms.get((-m1, -m2))
            if partner is None:
                raise cc.HoppingConflict(f"term at ({m1},{m2}) has no partner at ({-m1},{-m2})")
            deviation = np.abs(partner - T.conj().T).max()
            if deviation > PAIRING_ATOL * max(1.0, max_hopping):
                raise cc.HoppingConflict(f"T({-m1},{-m2}) != T({m1},{m2})^dagger "
                                         f"(max deviation {deviation:.3e})")
        disp, flat, vals = [np.zeros((0, 2))], [np.zeros(0, np.intp)], [np.zeros(0, complex)]
        for (m1, m2), T in terms.items():
            a, b = np.nonzero(T)
            disp.append(m1 * lattice.a1 + m2 * lattice.a2 + (pos[b] - pos[a]))
            flat.append(a * N + b)
            vals.append(T[a, b])
        rows, distinct = np.unique(np.concatenate(disp), axis=0, return_inverse=True)
        keys = [tuple(r) for r in rows.tolist()]
        index = {r: u for u, r in enumerate(keys)}
        partner = [index.get(tuple(-x for x in r), -1) for r in keys]
        paired = [u for u, v in enumerate(partner) if v > u]
        single = [u for u, v in enumerate(partner) if v < 0]
        zero = [u for u, v in enumerate(partner) if v == u]
        table = np.zeros((len(keys), N * N), dtype=complex)
        np.add.at(table, (distinct.ravel(), np.concatenate(flat)), np.concatenate(vals))
        order = paired + single + [partner[u] for u in paired] + zero
        table, disp = table[order], rows[order]
        n_exp, n_pair = len(paired) + len(single), len(paired)
        own, neg = table[:n_exp], np.zeros((n_exp, N * N), dtype=complex)
        neg[:n_pair] = table[n_exp:n_exp + n_pair]
        C, S = own + neg, 1j * (own - neg)
        zero_row = np.zeros((1, N * N), dtype=complex)
        tables = {(): np.vstack([C, S, table[-1:] if zero else zero_row])}
        for j in (1, 2):
            dj = disp[:n_exp, j - 1, None]
            tables[(j,)] = np.vstack([dj * S, -dj * C, zero_row])
            for l in range(j, 3):
                w = -dj * disp[:n_exp, l - 1, None]
                tables[(j, l)] = tables[(l, j)] = np.vstack([w * C, w * S, zero_row])
        tables = {key: K.view(float) for key, K in tables.items()}
        if not all(np.isfinite(np.abs(K).sum(axis=0)).all() for K in tables.values()):
            raise cc.ModelFormatError("hopping entries too large: H(k) or its derivatives "
                                      "would overflow")
    if 0.0 < max_hopping < np.finfo(float).tiny:
        raise cc.ModelFormatError(f"hopping entries too small: the largest, "
                                  f"{max_hopping:.3e}, is subnormal, so H(k) would lose digits")
    pauli = ({key: bloch._TO_PAULI @ K[:, [0, 4, 5, 6]].T for key, K in tables.items()}
             if N == 2 else {})
    return disp, tables, pauli, n_exp, n_pair, max_hopping


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def assert_tables_as_built_term_by_term(model):
    disp, tables, pauli, n_exp, n_pair, max_hopping = reference_tables(
        model.lattice, model.norbitals, model.positions, model.terms, model.fermi_energy)
    assert same_bits(model._disp, disp)
    assert (model._nexp, model._npair, model._max_hopping) == (n_exp, n_pair, max_hopping)
    assert set(model._tables) == set(tables) and set(model._pauli_tables) == set(pauli)
    for key in tables:
        assert same_bits(model._tables[key], tables[key]), key
    for key in pauli:
        assert same_bits(model._pauli_tables[key], pauli[key]), key


@pytest.mark.parametrize("build", [
    lambda: cc.preset_haldane(1.0, 0.1, 0.3, 0.2),
    lambda: cc.preset_haldane(1e100, 0.1, 0.0, 0.0),
    lambda: cc.preset_qwz(-2.0, 2.0, 1.0),
    lambda: cc.preset_qwz(0.0),
    three_orbital_model,
    lambda: with_unpaired_row(skewed_generic_model()),
    lambda: with_far_band(cc.preset_haldane(1.0, 0.1, 0.0, 0.0), 4.0),
    lambda: cc.model_from_dict(three_band_dict(2.2)),
    lambda: cc.model_from_dict(square_model_dict()),
    lambda: cc.HoppingModel(lattice=cc.make_lattice([1.0, 0.0], [0.0, 1.0]), norbitals=2,
                            positions=np.zeros((2, 2)), terms={}, fermi_energy=0.0),
], ids=["haldane", "haldane-1e100", "qwz-aniso", "qwz-u0", "three-orbital",
        "skewed-unpaired", "honeycomb-band-above", "three-band", "square", "no-terms"])
def test_model_tables_match_the_term_by_term_build(build):
    # the one vectorized pass of HoppingModel gives the displacement rows,
    # every coefficient table and every Pauli table bit for bit as built
    # term by term (reference_tables), presets, N = 1, 2, 3 and a model
    # without terms alike
    assert_tables_as_built_term_by_term(build())


def test_model_file_tables_match_the_term_by_term_build(model_file):
    assert_tables_as_built_term_by_term(cc.load_model(model_file(hex_flat_band_dict())))


@settings(max_examples=25, deadline=None)
@given(seed=one_cone_seeds)
def test_random_model_tables_match_the_term_by_term_build(seed):
    assert_tables_as_built_term_by_term(one_cone_model(seed)[0])


def _square(terms, positions=((0.0, 0.0),), mu=0.0):
    return dict(lattice=cc.make_lattice([1.0, 0.0], [0.0, 1.0]), N=len(positions),
                positions=np.array(positions), terms=terms, fermi_energy=mu)


@pytest.mark.parametrize("args", [
    _square({(1, 0): [[1.0]]}),
    _square({(1, 0): [[1.0]], (-1, 0): [[2.0]]}),
    _square({(1, 0): [[1.0]], (-1, 0): [[np.nan]]}),
    _square({(2, 0): [[1.0]], (1, 0): [[1.0]], (-1, 0): [[3.0]]}),
    _square({(1, 0): [[1.0]], (-1, 0): [[1.0]]}, mu=np.inf),
    _square({(0, 0): [[1e308]], (1, 0): [[1e308]], (-1, 0): [[1e308]]}),
    _square({(1, 0): [[1e-310]], (-1, 0): [[1e-310]]}),
    _square({(1, 0): [[1e308]], (-1, 0): [[1e308]], (2, 0): [[1.0]]}),
    _square({(0, 0): [[0.0, 1.0], [0.0, 0.0]]}, positions=((0.0, 0.0), (0.5, 0.0))),
], ids=["no-partner", "conflict", "nan-entry", "first-term-unpaired", "mu-inf", "overflow",
        "subnormal", "overflow-and-unpaired", "non-hermitian-onsite"])
def test_model_refusals_match_the_term_by_term_build(args):
    # every refusal of the vectorized construction, and the first of two,
    # with the type and the message of the term-by-term one
    with pytest.raises(ValueError) as want:
        reference_tables(args["lattice"], args["N"], args["positions"], args["terms"],
                         args["fermi_energy"])
    with pytest.raises(type(want.value)) as got:
        cc.HoppingModel(lattice=args["lattice"], norbitals=args["N"],
                        positions=args["positions"], terms=args["terms"],
                        fermi_energy=args["fermi_energy"])
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


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
@example(vals=[0.0] * 7 + [1.1125369292536007e-308], kpt=(0.0, 0.0))
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
    if 0.0 < np.abs(T).max() < np.finfo(float).tiny:
        # a subnormal largest hopping is refused at construction
        with pytest.raises(bloch.ModelFormatError, match="subnormal"):
            cc.model_from_dict(data)
        return
    model = cc.model_from_dict(data)
    k = np.array(kpt)
    H = cc.h_at(model, k)
    assert np.abs(H - H.conj().T).max() < 1e-13
    assert np.allclose(H, brute_force_h(model, k), atol=1e-12)
    h = 1e-5
    fd = (cc.h_at(model, k + [h, 0]) - cc.h_at(model, k - [h, 0])) / (2 * h)
    assert np.abs(fd - cc.dh_at(model, k, 1)).max() < 1e-6
