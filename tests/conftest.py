"""Shared fixtures: preset models, reference lattices, and cached cone scans.

Expensive objects (cone characterizations, conductivity reports) are
session-scoped so the acceptance tests and unit tests share one computation.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import strategies as st

import conecond as cc


@pytest.fixture(scope="session")
def haldane_critical():
    # honeycomb model tuned onto its band-touching line; two conical
    # crossings at the zone corners, both quantizing
    return cc.preset_haldane(1.0, 0.1, 0.0, 0.0)


@pytest.fixture(scope="session")
def haldane_gapped():
    return cc.preset_haldane(1.0, 0.1, np.pi / 2.0, 0.0)


@pytest.fixture(scope="session")
def haldane_one_cone():
    # Haldane model on its critical line M = 3 sqrt(3) t2 sin(phi): one
    # conical crossing at a zone corner
    return cc.preset_haldane(1.0, 0.1, np.pi / 2.0, 3.0 * np.sqrt(3.0) * 0.1)


@pytest.fixture(scope="session")
def qwz_topological():
    # one isotropic conical crossing at the zone center
    return cc.preset_qwz(-2.0)


@pytest.fixture(scope="session")
def qwz_aniso():
    # one anisotropic crossing, Q = diag(4, 1)
    return cc.preset_qwz(-2.0, 2.0, 1.0)


@pytest.fixture(scope="session")
def qwz_gapped():
    return cc.preset_qwz(1.0)


@pytest.fixture(scope="session")
def qwz_u0():
    return cc.preset_qwz(0.0)


@pytest.fixture(scope="session")
def haldane_cones(haldane_critical):
    return cc.characterize_cones(haldane_critical)


@pytest.fixture(scope="session")
def qwz_cones(qwz_topological):
    return cc.characterize_cones(qwz_topological)


@pytest.fixture(scope="session")
def haldane_one_cone_cones(haldane_one_cone):
    return cc.characterize_cones(haldane_one_cone)


@pytest.fixture(scope="session")
def qwz_aniso_cones(qwz_aniso):
    return cc.characterize_cones(qwz_aniso)


@pytest.fixture(scope="session")
def square_lattice():
    return cc.make_lattice(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def square_model_dict(t=1.0, mu=0.0):
    """One-orbital square lattice with nearest-neighbour hopping t:
    Lambda(k) = 2 t (cos k1 + cos k2)."""
    return {
        "lattice": {"a1": [1.0, 0.0], "a2": [0.0, 1.0]},
        "orbitals": [[0.0, 0.0]],
        "fermi_energy": mu,
        "hoppings": [
            {"cell": [1, 0], "matrix": [[[t, 0.0]]]},
            {"cell": [0, 1], "matrix": [[[t, 0.0]]]},
        ],
    }


@pytest.fixture(scope="session")
def square_model():
    return cc.model_from_dict(square_model_dict())


@pytest.fixture(scope="session")
def onsite_model():
    # two decoupled flat bands at -1 and +1, Fermi level between them;
    # all current operators vanish identically
    return cc.model_from_dict(
        {
            "lattice": {"a1": [1.0, 0.0], "a2": [0.0, 1.0]},
            "orbitals": [[0.0, 0.0], [0.5, 0.5]],
            "fermi_energy": 0.0,
            "hoppings": [
                {"cell": [0, 0],
                 "matrix": [[[-1.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [1.0, 0.0]]]},
            ],
        }
    )


def hex_flat_band_dict():
    """Honeycomb nearest-neighbour model plus a decoupled flat band sitting
    0.02 above the Fermi level — the flat band spoils two-band isolation in
    any sampling window wider than that."""
    return {
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
    }


@pytest.fixture(scope="session")
def hex_flat_band_model():
    return cc.model_from_dict(hex_flat_band_dict())


def three_band_dict(mu):
    """Three orbitals on the square lattice, onsite -4, 0 and 4, with
    nearest-neighbour hoppings (some complex) that hybridize them.  The bands
    span about [-5.7, -2.5], [-2.0, 2.0] and [2.4, 5.6]: mu = 0.3 cuts the
    dispersive middle band, so the occupied count is 1 or 2 across the zone,
    and mu = 2.2 lies in the upper gap (count 2 everywhere)."""
    def c(re, im=0.0):
        return [re, im]

    z = c(0.0)
    return {
        "lattice": {"a1": [1.0, 0.0], "a2": [0.0, 1.0]},
        "orbitals": [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]],
        "fermi_energy": mu,
        "hoppings": [
            {"cell": [0, 0], "matrix": [[c(-4.0), z, z], [z, z, z], [z, z, c(4.0)]]},
            {"cell": [1, 0], "matrix": [[c(0.4), c(0.0, 0.3), z],
                                        [c(0.2), c(0.5), c(0.25)],
                                        [c(0.0, 0.1), z, c(0.4)]]},
            {"cell": [0, 1], "matrix": [[c(0.4), c(0.2), z],
                                        [z, c(0.5), c(0.0, 0.3)],
                                        [z, c(-0.15), c(0.4)]]},
        ],
    }


@pytest.fixture(scope="session")
def three_band_metal():
    return cc.model_from_dict(three_band_dict(0.3))


@pytest.fixture(scope="session")
def three_band_gapped():
    return cc.model_from_dict(three_band_dict(2.2))


@pytest.fixture()
def model_file(tmp_path):
    """Write a model dict to a temp JSON file and return its path."""

    def write(payload, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def random_momenta(lattice, count, seed=0):
    rng = np.random.default_rng(seed)
    frac = rng.uniform(-0.5, 0.5, size=(count, 2))
    return frac @ lattice.dual_matrix.T


@pytest.fixture(scope="session")
def thin_lattice():
    """A thin basis of a lattice whose zone basis is 2 pi {(1, 1.5), (-2, 2)};
    the user's own b1 = 2 pi (1, -13.5) is 7.5 times longer than the shorter
    zone vector, so its 3 x 3 images miss nearest images."""
    lat = cc.make_lattice([1.0, 0.0], [2.7, 0.2])
    assert np.allclose(lat.zone.T / (2 * np.pi), [[1.0, 1.5], [-2.0, 2.0]])
    # the zone basis spans the same dual lattice (unimodular change of basis)
    U = np.linalg.solve(lat.dual_matrix, lat.zone)
    assert np.allclose(U, np.round(U), atol=1e-9)
    assert abs(round(np.linalg.det(np.round(U)))) == 1
    return lat


def dual_images(lattice, reach=6):
    """Brute-force image table: all (2 reach + 1)^2 integer combinations of
    the zone basis vectors, cartesian, shape (K, 2)."""
    m = np.arange(-reach, reach + 1)
    M1, M2 = np.meshgrid(m, m, indexing="ij")
    return np.column_stack([M1.ravel(), M2.ravel()]) @ lattice.zone.T


def tilted_qwz(tau, u=1.0):
    """preset_qwz(u) plus tau sin(k1) times the identity: at u = 1, tau = 3
    the occupied count at mu = 0 is 0, 1 or 2 across the zone."""
    model = cc.preset_qwz(u)
    tilt, terms = 0.5j * tau * np.eye(2), dict(model.terms)
    terms[1, 0], terms[-1, 0] = terms[1, 0] - tilt, terms[-1, 0] + tilt
    return dataclasses.replace(model, terms=terms)


#: Hypothesis strategy of the seeds of one_cone_model
one_cone_seeds = st.integers(0, 2**32 - 1)


def one_cone_model(seed):
    """(model, k*) of a random two-band model with exactly one Fermi point,
    at k*, drawn from np.random.default_rng(seed): traceless hoppings
    c . sigma with complex Gaussian c on the cells (1, 0), (0, 1), (1, 1) and
    (1, -1), their partners filled in by model_from_dict, on a1 = (1, 0),
    a2 = (U(-1/2, 1/2), U(0.7, 1.4)), and the on-site term -H(k*) at a random
    k*, mu = 0.  H(k) = d(k) . sigma with a real d: R^2 -> R^3, whose zeros
    are generically only the one the on-site term puts at k*."""
    rng = np.random.default_rng(seed)
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

    def entry(T):
        return [[[z.real, z.imag] for z in row] for row in T]

    hoppings = [{"cell": cell,
                 "matrix": entry(np.tensordot(rng.normal(size=3) + 1j * rng.normal(size=3),
                                              sigma, 1))}
                for cell in ([1, 0], [0, 1], [1, 1], [1, -1])]
    data = {"lattice": {"a1": [1.0, 0.0],
                        "a2": [rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.4)]},
            "orbitals": [[0.0, 0.0], [0.0, 0.0]], "fermi_energy": 0.0,
            "hoppings": hoppings}
    model = cc.model_from_dict(data)
    k_star = model.lattice.from_fractional(rng.uniform(-0.5, 0.5, size=2))
    H = model.h_batch(k_star[None, :])[0]
    data["hoppings"] = hoppings + [{"cell": [0, 0], "matrix": entry(-0.5 * (H + H.conj().T))}]
    return cc.model_from_dict(data), k_star
