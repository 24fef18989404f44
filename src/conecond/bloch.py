"""Tight-binding models and the Bloch Hamiltonian H(k) with its k-derivatives.

A model is a finite set of hopping matrices T(gamma) on integer cell
displacements gamma = m1*a1 + m2*a2.  The Bloch matrix uses true-displacement
phases,

    H(k)_{ab} = sum_gamma exp(i k . (gamma + r_b - r_a)) T(gamma)_{ab},

so that J_j = dH/dk_j is the physical current operator (intra-cell dipole
contributions included) and the covariance

    H(k + G) = D H(k) D^dagger,   D = diag(exp(-i G . r_a)),

holds exactly for every dual-lattice vector G.  Hermiticity of H(k) for all
real k is equivalent to the pairing T(-gamma) = T(gamma)^dagger, which is
enforced at construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .lattice import DegenerateBasis, Lattice2D, make_lattice, uniform_grid

__all__ = [
    "HoppingConflict",
    "ModelFormatError",
    "HoppingModel",
    "h_at",
    "dh_at",
    "d2h_at",
    "covariance_defect",
    "preset_haldane",
    "preset_qwz",
    "model_from_dict",
    "load_model",
]

#: max-entry tolerance for the Hermiticity pairing T(-g) = T(g)^dagger
PAIRING_ATOL = 1e-12


class HoppingConflict(ValueError):
    """Both T(gamma) and T(-gamma) were specified but are not Hermitian partners."""


class ModelFormatError(ValueError):
    """Model file/dict does not match the documented schema."""


@dataclass(frozen=True)
class HoppingModel:
    """Finite-range tight-binding model on a 2D Bravais lattice.

    Parameters
    ----------
    lattice : Lattice2D
    norbitals : int
        Number of orbitals N per unit cell.
    positions : ndarray, shape (N, 2)
        Orbital positions r_a inside the direct unit cell (cartesian).
    terms : dict[(int, int), ndarray]
        Map from integer cell displacement (m1, m2) to the N x N complex
        hopping matrix T(m1*a1 + m2*a2).  Must satisfy the Hermiticity
        pairing T(-gamma) = T(gamma)^dagger entrywise to 1e-12.
    fermi_energy : float
        Fermi level mu; stored with the model because every downstream
        quantity (projectors, gaps, response) is defined relative to it.

    Construction is the one place the input rules are checked, for every
    constructor (presets and model files included): a non-finite position,
    hopping entry or mu raises ModelFormatError, then a term without its
    partner or with an inconsistent one raises HoppingConflict.
    """

    lattice: Lattice2D
    norbitals: int
    positions: np.ndarray
    terms: dict
    fermi_energy: float
    # flattened per-entry arrays for vectorized evaluation (derived state)
    _disp: np.ndarray = field(init=False, repr=False, compare=False)
    _vals: np.ndarray = field(init=False, repr=False, compare=False)
    # per entry, the (re, im) slots of its (row, col) in a flat float view
    # of one N x N matrix
    _slots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        N = int(self.norbitals)
        pos = np.asarray(self.positions, dtype=float).reshape(N, 2).copy()
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        terms = {}
        for cell, T in self.terms.items():
            m1, m2 = int(cell[0]), int(cell[1])
            T = np.asarray(T, dtype=complex).reshape(N, N).copy()
            T.setflags(write=False)
            terms[(m1, m2)] = T
        object.__setattr__(self, "terms", terms)
        if not (np.isfinite(pos).all() and np.isfinite(self.fermi_energy)
                and all(np.isfinite(T).all() for T in terms.values())):
            raise ModelFormatError("orbital positions, hopping entries and the "
                                   "Fermi energy must be finite")
        scale = max([1.0] + [np.abs(T).max() for T in terms.values()])
        for (m1, m2), T in terms.items():
            partner = terms.get((-m1, -m2))
            if partner is None:
                raise HoppingConflict(f"term at ({m1},{m2}) has no partner at ({-m1},{-m2})")
            deviation = np.abs(partner - T.conj().T).max()
            if deviation > PAIRING_ATOL * scale:
                raise HoppingConflict(f"T({-m1},{-m2}) != T({m1},{m2})^dagger "
                                      f"(max deviation {deviation:.3e})")
        # flatten nonzero entries: displacement gamma + r_col - r_row per entry;
        # the empty first pieces keep the shapes valid for a model without terms
        disp, flat, vals = [np.zeros((0, 2))], [np.zeros(0, np.intp)], [np.zeros(0, complex)]
        for (m1, m2), T in terms.items():
            a, b = np.nonzero(T)
            disp.append(m1 * self.lattice.a1 + m2 * self.lattice.a2 + pos[b] - pos[a])
            flat.append(a * N + b)
            vals.append(T[a, b])
        flat = np.concatenate(flat)
        for name, arr in (
            ("_disp", np.concatenate(disp)),
            ("_vals", np.concatenate(vals)),
            ("_slots", np.column_stack([2 * flat, 2 * flat + 1]).ravel()),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # -- vectorized evaluation over a batch of momenta ----------------------

    def _weights(self, derivs: tuple) -> np.ndarray:
        """Per-entry T-entry times the factor that the k-derivative named by
        ``derivs`` brings down from the phase: () for H, (j,) for dH/dk_j,
        (j, l) for d^2H/dk_j dk_l."""
        if not derivs:
            return self._vals
        d = self._disp[:, derivs[0] - 1]
        if len(derivs) == 1:
            return self._vals * (1j * d)
        return self._vals * (-d * self._disp[:, derivs[1] - 1])

    def _assemble(self, ks: np.ndarray, derivatives) -> list:
        """One (M, N, N) stack per entry of ``derivatives`` (see _weights),
        all from one exp of the (M x n_entries) phase matrix; each stack is
        bit-identical to its own h_batch/dh_batch/d2h_batch call."""
        ks = np.asarray(ks, dtype=float).reshape(-1, 2)
        phase = 1j * (ks @ self._disp.T)
        np.exp(phase, out=phase)
        M, size = ks.shape[0], 2 * self.norbitals**2
        # np.bincount adds each bin's weights in input order, so every matrix
        # element sums its entries in term order, as np.add.at would
        bins = (np.arange(M)[:, None] * size + self._slots).ravel()
        shape = (M, self.norbitals, self.norbitals)
        stacks = []
        for n, derivs in enumerate(derivatives, 1):
            # the last stack reuses the phase matrix, so a single stack needs
            # no second (M x n_entries) array
            terms = np.multiply(phase, self._weights(derivs),
                                out=phase if n == len(derivatives) else None)
            out = np.bincount(bins, terms.view(float).ravel(), minlength=M * size)
            stacks.append(out.view(complex).reshape(shape))
        return stacks

    def h_batch(self, ks: np.ndarray) -> np.ndarray:
        """H(k) for a batch of momenta; shape (M, N, N)."""
        return self._assemble(ks, ((),))[0]

    def dh_batch(self, ks: np.ndarray, j: int) -> np.ndarray:
        """dH/dk_j for a batch of momenta; j in {1, 2}."""
        return self._assemble(ks, ((j,),))[0]

    def d2h_batch(self, ks: np.ndarray, j: int, l: int) -> np.ndarray:
        """d^2H/dk_j dk_l for a batch of momenta."""
        return self._assemble(ks, ((j, l),))[0]

    def spectral_radius(self, nsample: int = 16) -> float:
        """max |eigenvalue| over a coarse momentum sample (energy scale)."""
        ks = uniform_grid(self.lattice, nsample, nsample).points
        w = np.linalg.eigvalsh(self.h_batch(ks))
        return float(np.abs(w).max())


def _max_frobenius(stack: np.ndarray) -> float:
    """Largest Frobenius norm in an (M, N, N) stack; for a current stack an
    upper bound on the operator norm, hence on the band slopes."""
    return float(np.sqrt((np.abs(stack) ** 2).sum(axis=(1, 2)).max()))


def _max_current_norm(model: HoppingModel, ks: np.ndarray) -> float:
    """Largest Frobenius norm of dH/dk_1 and dH/dk_2 over the momenta ks."""
    return max(_max_frobenius(J) for J in model._assemble(ks, ((1,), (2,))))


def _require_directions(*idx) -> None:
    """ValueError unless every direction index is 1 or 2."""
    if any(i not in (1, 2) for i in idx):
        raise ValueError(f"direction indices must be 1 or 2, got {idx}")


def h_at(model: HoppingModel, k) -> np.ndarray:
    """Bloch Hamiltonian H(k), an N x N Hermitian matrix."""
    return model.h_batch(np.asarray(k, dtype=float).reshape(1, 2))[0]


def dh_at(model: HoppingModel, k, j: int) -> np.ndarray:
    """Current operator J_j(k) = dH/dk_j (Hermitian)."""
    _require_directions(j)
    return model.dh_batch(np.asarray(k, dtype=float).reshape(1, 2), j)[0]


def d2h_at(model: HoppingModel, k, j: int, l: int) -> np.ndarray:
    """Second derivative d^2H/dk_j dk_l (Hermitian, symmetric in j,l)."""
    _require_directions(j, l)
    return model.d2h_batch(np.asarray(k, dtype=float).reshape(1, 2), j, l)[0]


def covariance_defect(model: HoppingModel, k, m1: int, m2: int) -> float:
    """Operator-norm defect of H(k+G) = D H(k) D^dagger for G = m1 b1 + m2 b2."""
    k = np.asarray(k, dtype=float).reshape(2)
    G = m1 * model.lattice.b1 + m2 * model.lattice.b2
    D = np.exp(-1j * (model.positions @ G))
    lhs = h_at(model, k + G)
    rhs = D[:, None] * h_at(model, k) * D.conj()[None, :]
    return float(np.linalg.norm(lhs - rhs, ord=2))


# -- presets ----------------------------------------------------------------

def preset_haldane(t1: float, t2: float, phi: float, M: float) -> HoppingModel:
    """Honeycomb model: NN hopping t1, complex NNN hopping t2*exp(+-i*phi),
    staggered on-site +-M; Fermi level mu = -3*t2*cos(phi).

    The gap closes on the curve M = +-3*sqrt(3)*t2*sin(phi); at phi=0, M=0
    the two K points carry isotropic cones of slope 3*t1/2.
    """
    if t1 == 0:
        raise ValueError("t1 must be nonzero")
    lat = make_lattice([1.5, np.sqrt(3.0) / 2.0], [1.5, -np.sqrt(3.0) / 2.0])
    positions = np.array([[0.0, 0.0], [1.0, 0.0]])
    terms: dict = {}

    def add(cell, a, b, val):
        T = terms.setdefault(cell, np.zeros((2, 2), dtype=complex))
        T[a, b] += val

    # nearest-neighbor A->B bonds and their Hermitian partners
    for cell in [(0, 0), (-1, 0), (0, -1)]:
        add(cell, 0, 1, t1)
        add((-cell[0], -cell[1]), 1, 0, t1)
    # staggered on-site term
    add((0, 0), 0, 0, M)
    add((0, 0), 1, 1, -M)
    # next-nearest-neighbor loops: oriented triple on the A sublattice gets
    # phase +phi, the B sublattice the opposite orientation
    for cell in [(1, 0), (0, -1), (-1, 1)]:
        add(cell, 0, 0, t2 * np.exp(1j * phi))
        add((-cell[0], -cell[1]), 0, 0, t2 * np.exp(-1j * phi))
        add(cell, 1, 1, t2 * np.exp(-1j * phi))
        add((-cell[0], -cell[1]), 1, 1, t2 * np.exp(1j * phi))
    return HoppingModel(
        lattice=lat,
        norbitals=2,
        positions=positions,
        terms=terms,
        fermi_energy=-3.0 * t2 * np.cos(phi),
    )


def preset_qwz(u: float, v1: float = 1.0, v2: float = 1.0) -> HoppingModel:
    """Square-lattice two-band model
    H(k) = v1 sin(k1) s1 + v2 sin(k2) s2 + (u + cos k1 + cos k2) s3, mu = 0.

    At u = -2 the gap closes at the zone center with an anisotropic cone of
    quadratic form diag(v1^2, v2^2).
    """
    lat = make_lattice([1.0, 0.0], [0.0, 1.0])
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    terms = {
        (0, 0): u * s3,
        (1, 0): 0.5 * s3 - 0.5j * v1 * s1,
        (-1, 0): 0.5 * s3 + 0.5j * v1 * s1,
        (0, 1): 0.5 * s3 - 0.5j * v2 * s2,
        (0, -1): 0.5 * s3 + 0.5j * v2 * s2,
    }
    return HoppingModel(
        lattice=lat,
        norbitals=2,
        positions=np.zeros((2, 2)),
        terms=terms,
        fermi_energy=0.0,
    )


# -- model file schema --------------------------------------------------------
#
# JSON object:
#   { "lattice": {"a1": [x, y], "a2": [x, y]},
#     "orbitals": [[x, y], ...],
#     "fermi_energy": number,
#     "hoppings": [ {"cell": [m1, m2], "matrix": [[[re, im], ...], ...]}, ... ] }
#
# Matrices are row-major N x N with [re, im] pairs.  If a displacement's
# Hermitian partner is absent it is auto-completed as T(-g) = T(g)^dagger;
# if both are present and inconsistent the load fails.

def _parse_matrix(raw, N: int) -> np.ndarray:
    M = np.asarray(raw, dtype=float)
    if M.shape != (N, N, 2):
        raise ModelFormatError(
            f"hopping matrix must be {N}x{N} of [re, im] pairs, got shape {M.shape}"
        )
    if not np.isfinite(M).all():
        raise ModelFormatError("hopping matrix entries must be finite")
    return M[..., 0] + 1j * M[..., 1]


def model_from_dict(data: dict) -> HoppingModel:
    """Build a model from the documented JSON schema (dict form)."""
    try:
        lat = make_lattice(data["lattice"]["a1"], data["lattice"]["a2"])
        orbitals = np.asarray(data["orbitals"], dtype=float)
        mu = float(data["fermi_energy"])
        raw_hoppings = list(data["hoppings"])
    except DegenerateBasis as exc:
        raise ModelFormatError(f"lattice: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"missing or malformed model field: {exc}") from exc
    if orbitals.ndim != 2 or orbitals.shape[1] != 2:
        raise ModelFormatError("orbitals must be a list of [x, y] positions")
    N = orbitals.shape[0]
    terms: dict = {}
    for entry in raw_hoppings:
        try:
            raw_cell = entry["cell"]
            if any(c != int(c) for c in raw_cell[:2]):
                raise ModelFormatError(
                    f"cell indices must be integers, got {raw_cell!r}"
                )
            cell = (int(raw_cell[0]), int(raw_cell[1]))
            T = _parse_matrix(entry["matrix"], N)
        except ModelFormatError:
            raise
        except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"malformed hopping entry: {exc}") from exc
        terms[cell] = terms.get(cell, 0) + T
    # a missing partner is filled in; HoppingModel refuses inconsistent ones
    for (m1, m2), T in list(terms.items()):
        terms.setdefault((-m1, -m2), T.conj().T)
    return HoppingModel(
        lattice=lat,
        norbitals=N,
        positions=orbitals,
        terms=terms,
        fermi_energy=mu,
    )


def load_model(path) -> HoppingModel:
    """Load a model from a JSON file (schema above)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"invalid JSON: {exc}") from exc
    return model_from_dict(data)
