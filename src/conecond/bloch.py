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

H(k) and its k-derivatives are evaluated as one Fourier sum over the
distinct displacements d_u = gamma + (r_b - r_a), in real arithmetic: since
d_u and -d_u come in pairs, a cosine and a sine coefficient table per pair,
built once per model, contracted with the phase rows cos(k . d_u) and
sin(k . d_u) of a batch of momenta (HoppingModel._assemble; for two bands
also the Pauli rows of H = s0 + s . sigma, HoppingModel._pauli_rows).  The
rows of a uniform grid are built from per-axis tables instead
(HoppingModel._grid_phases).  The package's one H(k) eigenvalue solver is
_eigvals, which reads either kind of phase rows (two bands: _split).  The
Pauli rows of one band pair's 2 x 2 block, in H and its derivatives, come
from _pair_rows for every N: _pauli_rows for two bands, one eigh for more.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .lattice import DegenerateBasis, Lattice2D, _midpoints, make_lattice

__all__ = [
    "HoppingConflict",
    "ModelFormatError",
    "NumericalError",
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
#: the Pauli rows (s0, sx, sy, sz) = ((S00 + S11)/2, Re S10, Im S10,
#: (S00 - S11)/2) of a Hermitian 2 x 2 S from (Re S00, Re S10, Im S10, Re S11)
_TO_PAULI = np.array([[0.5, 0, 0, 0.5], [0, 1, 0, 0], [0, 0, 1, 0], [0.5, 0, 0, -0.5]])


class HoppingConflict(ValueError):
    """Both T(gamma) and T(-gamma) were specified but are not Hermitian partners."""


class ModelFormatError(ValueError):
    """Model file/dict does not match the documented schema."""


class NumericalError(ValueError):
    """The input is well formed, but this computation cannot give a number
    that can be trusted for it (a degenerate point, an unresolvable grid, a
    crossing that is not conical, ...).  The CLI exits 4 on every subclass."""


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
    # derived state: the distinct displacements gamma + (r_b - r_a), as rows:
    # first the _nexp rows that take a phase argument, then the negations of
    # the first _npair of them, then the zero row, if any; per derivative key
    # ((), (j,) or (j, l)) the float view of its (2 _nexp + 1) x N^2 complex
    # coefficient table, whose rows multiply the phase rows cos(k . d_u),
    # sin(k . d_u) and 1 (see _phases)
    _disp: np.ndarray = field(init=False, repr=False, compare=False)
    _tables: dict = field(init=False, repr=False, compare=False)
    # two bands only: per key the rows of _pauli_rows' table (see there)
    _pauli_tables: dict = field(init=False, repr=False, compare=False)
    # the largest |entry| of the hopping matrices (0 without hoppings), the
    # energy scale of the Kubo kernel's degeneracy floor
    _max_hopping: float = field(init=False, repr=False, compare=False)
    _nexp: int = field(init=False, repr=False, compare=False)
    _npair: int = field(init=False, repr=False, compare=False)

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
        max_hopping = max([0.0] + [float(np.abs(T).max()) for T in terms.values()])
        scale = max(1.0, max_hopping)
        for (m1, m2), T in terms.items():
            partner = terms.get((-m1, -m2))
            if partner is None:
                raise HoppingConflict(f"term at ({m1},{m2}) has no partner at ({-m1},{-m2})")
            deviation = np.abs(partner - T.conj().T).max()
            if deviation > PAIRING_ATOL * scale:
                raise HoppingConflict(f"T({-m1},{-m2}) != T({m1},{m2})^dagger "
                                      f"(max deviation {deviation:.3e})")
        # per nonzero entry (a, b) of each T(gamma) its displacement
        # gamma + (r_b - r_a), the exact negation of its partner's
        # -gamma + (r_a - r_b); the empty first pieces keep the shapes valid
        # for a model without terms
        disp, flat, vals = [np.zeros((0, 2))], [np.zeros(0, np.intp)], [np.zeros(0, complex)]
        for (m1, m2), T in terms.items():
            a, b = np.nonzero(T)
            disp.append(m1 * self.lattice.a1 + m2 * self.lattice.a2 + (pos[b] - pos[a]))
            flat.append(a * N + b)
            vals.append(T[a, b])
        rows, distinct = np.unique(np.concatenate(disp), axis=0, return_inverse=True)
        # one phase argument per +- pair: the rows whose exact negation is a
        # later row (_npair of them), the other nonzero rows (_nexp in all),
        # then those negations in the same order, and the zero row
        keys = [tuple(r) for r in rows.tolist()]
        index = {r: u for u, r in enumerate(keys)}
        partner = [index.get(tuple(-x for x in r), -1) for r in keys]
        paired = [u for u, v in enumerate(partner) if v > u]
        single = [u for u, v in enumerate(partner) if v < 0]
        zero = [u for u, v in enumerate(partner) if v == u]
        order = paired + single + [partner[u] for u in paired] + zero
        table = np.zeros((len(keys), N * N), dtype=complex)
        np.add.at(table, (distinct.ravel(), np.concatenate(flat)), np.concatenate(vals))
        table, disp = table[order], rows[order]
        n_exp, n_pair = len(paired) + len(single), len(paired)
        # per argument the cos and sin coefficients C = T_u + T_-u and
        # S = i (T_u - T_-u), or C = T_u and S = i T_u without a partner;
        # the last row multiplies the constant 1
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
        pauli = ({key: _TO_PAULI @ K[:, [0, 4, 5, 6]].T for key, K in tables.items()}
                 if N == 2 else {})
        for arr in (disp, *tables.values(), *pauli.values()):
            arr.setflags(write=False)
        object.__setattr__(self, "_disp", disp)
        object.__setattr__(self, "_tables", tables)
        object.__setattr__(self, "_pauli_tables", pauli)
        object.__setattr__(self, "_max_hopping", max_hopping)
        object.__setattr__(self, "_nexp", n_exp)
        object.__setattr__(self, "_npair", n_pair)

    # -- vectorized evaluation over a batch of momenta ----------------------

    def _assemble(self, ks: np.ndarray, derivatives) -> list:
        """One C-contiguous (M, N, N) stack per entry of ``derivatives``: ()
        for H, (j,) for dH/dk_j, (j, l) for d^2H/dk_j dk_l; ValueError unless
        each of j, l is 1 or 2.

        The Fourier sum over distinct displacements d_u in real arithmetic:
        each stack is one real matmul of the transposed phase rows (_phases)
        with the float view of the stack's coefficient table, built once per
        model (H: [C; S; Z], dH/dk_j: [d_j S; -d_j C; 0], d^2H/dk_j dk_l:
        -d_j d_l [C; S; 0], with C and S as in __post_init__ and Z the
        zero-displacement row), which gives the real and imaginary parts of
        every entry.  Every stack is one matmul of the same phase rows, so
        it is bit-identical to its own h_batch/dh_batch/d2h_batch call.
        When every hopping's partner is its exact adjoint and every row has
        its exact mirror (the presets), the coefficients of the entries
        (a, b) and (b, a) are exact conjugates, so every stack is exactly
        Hermitian.  One momentum is assembled as two equal rows, keeping the
        first: BLAS rounds a one-row product differently from a many-row
        one, so a single momentum would not match its row of a batch.  It
        then matches its row of any batch on the presets; on larger tables
        BLAS also picks its kernel by the product's size, so a row can
        differ between a small batch and a large one (a random 3-orbital
        model with 63 phase columns: batches of up to 700 momenta against
        1000 or more)."""
        tables = [self._tables.get(tuple(derivs)) for derivs in derivatives]
        for derivs, K in zip(derivatives, tables):
            if K is None:
                _require_directions(*derivs)
                raise ValueError(f"at most two derivatives, got {derivs}")
        ks = np.asarray(ks, dtype=float).reshape(-1, 2)
        phase = self._phases(ks).T
        shape = (len(phase), self.norbitals, self.norbitals)
        return [(phase @ K).view(complex).reshape(shape)[:len(ks)] for K in tables]

    def _pauli_rows(self, ks: np.ndarray, derivatives, out=None) -> np.ndarray:
        """For two bands, one (S, 4, M) real array: per derivative key (as in
        _assemble) the rows (s0, sx, sy, sz) of S = s0 + s . sigma, those of
        the _assemble stacks (_TO_PAULI) up to rounding.  One matmul
        of the phase rows with the keys' tables stacked, each _TO_PAULI of the
        float columns Re S00, Re S10, Im S10, Re S11; C-contiguous ``out``
        gets it if M > 1."""
        tables = np.vstack([self._pauli_tables[tuple(derivs)] for derivs in derivatives])
        ks = np.asarray(ks, dtype=float).reshape(-1, 2)
        phase = self._phases(ks)
        if out is None or len(ks) == 1:
            out = np.empty((len(tables) // 4, 4, phase.shape[1]))
        np.matmul(tables, phase, out=out.reshape(len(tables), -1))
        return out[:, :, :len(ks)]

    def _phases(self, ks: np.ndarray) -> np.ndarray:
        """The real (2 n_exp + 1, M) phase rows [cos theta; sin theta; 1] of
        momenta ks (M, 2), theta = k . d_u per +- pair of displacements (and
        per unpaired row); one momentum gets two equal columns (_assemble)."""
        if len(ks) == 1:
            ks = np.repeat(ks, 2, axis=0)
        n_exp = self._nexp
        phase = np.empty((2 * n_exp + 1, len(ks)))
        theta = phase[n_exp:-1]                # k . d_u, then its sine in place
        np.matmul(self._disp[:n_exp], ks.T, out=theta)
        np.cos(theta, out=phase[:n_exp])
        np.sin(theta, out=theta)
        phase[-1] = 1.0
        return phase

    def _grid_phases(self, n1: int, n2: int) -> np.ndarray:
        """The phase rows of _phases(uniform_grid(self.lattice, n1, n2).points),
        in its point order and to a few ulp, from per-axis tables: with the
        zone coordinates (f1, f2) of a point, theta = f1 (z1 . d_u) + f2
        (z2 . d_u) is a sum a + b whose cos and sin are ca cb - sa sb and
        sa cb + ca sb, so each axis needs only n cosines and sines per
        displacement.  Each row is written in place as an n1 x n2 outer
        product, so only one n1 x n2 buffer is formed besides the rows."""
        n_exp = self._nexp
        proj = self._disp[:n_exp] @ self.lattice.zone             # (z1 . d_u, z2 . d_u)
        a = proj[:, :1] * _midpoints(n1)
        b = proj[:, 1:] * _midpoints(n2)
        ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
        phase = np.empty((2 * n_exp + 1, n1 * n2))
        rows = phase[:-1].reshape(2, n_exp, n1, n2)
        tmp = np.empty((n1, n2))
        for u in range(n_exp):
            cos, sin = rows[:, u]
            np.multiply.outer(ca[u], cb[u], out=cos)
            cos -= np.multiply.outer(sa[u], sb[u], out=tmp)
            np.multiply.outer(sa[u], cb[u], out=sin)
            sin += np.multiply.outer(ca[u], sb[u], out=tmp)
        phase[-1] = 1.0
        return phase

    def h_batch(self, ks: np.ndarray) -> np.ndarray:
        """H(k) for a batch of momenta; shape (M, N, N)."""
        return self._assemble(ks, ((),))[0]

    def dh_batch(self, ks: np.ndarray, j: int) -> np.ndarray:
        """dH/dk_j for a batch of momenta; j in {1, 2}."""
        return self._assemble(ks, ((j,),))[0]

    def d2h_batch(self, ks: np.ndarray, j: int, l: int) -> np.ndarray:
        """d^2H/dk_j dk_l for a batch of momenta."""
        return self._assemble(ks, ((j, l),))[0]

    def spectral_radius(self) -> float:
        """max |eigenvalue| over the coarse 16 x 16 uniform_grid (energy
        scale), read through its outer-product phase rows (_grid_phases)."""
        w = _eigvals(self, self._grid_phases(16, 16))
        return float(np.abs(w).max())


def _max_frobenius(stack: np.ndarray) -> float:
    """Largest Frobenius norm in an (M, N, N) stack; for a current stack an
    upper bound on the operator norm, hence on the band slopes: one einsum
    over each matrix's real and imaginary parts as one row of floats."""
    x = np.ascontiguousarray(stack).view(float).reshape(len(stack), -1)
    return float(np.sqrt(np.einsum("ki,ki->k", x, x).max()))


def _max_current_norm(model: HoppingModel, ks: np.ndarray) -> float:
    """Largest Frobenius norm of dH/dk_1 and dH/dk_2 over the momenta ks."""
    return max(_max_frobenius(J) for J in model._assemble(ks, ((1,), (2,))))


def _split(rows) -> tuple:
    """The eigenvalues of two-band matrices H = d0 + d . sigma from their
    Pauli rows (d0, dx, dy, dz) (HoppingModel._pauli_rows): the ascending
    d0 -+ r (M, 2), r = |d|, and (dx, dy, dz, r).  r is sqrt(d . d) of d
    scaled by the power of two of the stack's largest |component|, which is
    exact: r is finite whenever |d| is, and bit for bit the unscaled
    formula's while every |d| lies within 1e+-150 of 1 and of the largest."""
    d0, dx, dy, dz = rows
    e = np.frexp(np.abs(rows[1:]).max(initial=0.0))[1]
    r = np.ldexp(np.sqrt(sum(np.ldexp(x, -e) ** 2 for x in (dx, dy, dz))), e)
    return np.stack((d0 - r, d0 + r), axis=1), (dx, dy, dz, r)


def _pair_rows(model: HoppingModel, ks: np.ndarray, derivatives, lo: int) -> tuple:
    """(rows, w): per derivative key (as in _assemble, H's () first) the
    Pauli rows (s0, sx, sy, sz) of the band pair (lo, lo + 1)'s 2 x 2 block,
    an (S, 4, M) array, and H's ascending eigenvalues (M, N), or None.  Two
    bands are the pair: _pauli_rows, with no eigenvector.  Other N take one
    assembly and one eigh: H's block is diag(w_lo, w_hi), exactly, and a
    derivative D's is b = P^H D P, P the pair's eigenvectors, read as
    (Re(b00 + b11)/2, Re b01, -Im b01, Re(b00 - b11)/2)."""
    if model.norbitals == 2:
        return model._pauli_rows(ks, derivatives), None
    H, *D = model._assemble(ks, derivatives)
    w, V = np.linalg.eigh(H)
    P = V[:, :, lo:lo + 2]
    Ph = P.conj().swapaxes(1, 2)
    b = np.zeros((len(derivatives), len(w), 2, 2), dtype=complex)
    b[0, :, 0, 0], b[0, :, 1, 1] = w[:, lo], w[:, lo + 1]
    for block, J in zip(b[1:], D):
        block[:] = Ph @ J @ P
    b00, b01, b11 = b[..., 0, 0].real, b[..., 0, 1], b[..., 1, 1].real
    return np.stack([0.5 * (b00 + b11), b01.real, -b01.imag, 0.5 * (b00 - b11)], axis=1), w


def _eigvals(model: HoppingModel, phase: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (M, N) of H at the M columns of the phase rows
    ``phase`` (HoppingModel._phases or _grid_phases): for two bands _split
    of their product with the Pauli table, as in _pauli_rows, else
    np.linalg.eigvalsh of H's stack, formed as in _assemble.  Phase rows
    passed as a temporary are freed once the product is formed, so they
    and the solver's buffers are never held at once."""
    N = model.norbitals
    if N == 2:
        rows = model._pauli_tables[()] @ phase
        del phase
        return _split(rows)[0]
    H = (phase.T @ model._tables[()]).view(complex).reshape(-1, N, N)
    del phase
    return np.linalg.eigvalsh(H)


def _require_directions(*idx) -> None:
    """ValueError unless every direction index is 1 or 2."""
    if any(i not in (1, 2) for i in idx):
        raise ValueError(f"direction indices must be 1 or 2, got {idx}")


def h_at(model: HoppingModel, k) -> np.ndarray:
    """Bloch Hamiltonian H(k), an N x N Hermitian matrix, assembled as a
    batch of two equal rows, not by BLAS's one-row path, so on the presets
    it matches k's row of any ``h_batch`` bit for bit (see _assemble for
    larger models)."""
    return model.h_batch(np.asarray(k, dtype=float).reshape(1, 2))[0]


def dh_at(model: HoppingModel, k, j: int) -> np.ndarray:
    """Current operator J_j(k) = dH/dk_j (Hermitian)."""
    return model.dh_batch(np.asarray(k, dtype=float).reshape(1, 2), j)[0]


def d2h_at(model: HoppingModel, k, j: int, l: int) -> np.ndarray:
    """Second derivative d^2H/dk_j dk_l (Hermitian, symmetric in j,l)."""
    return model.d2h_batch(np.asarray(k, dtype=float).reshape(1, 2), j, l)[0]


def covariance_defect(model: HoppingModel, k, m1: int, m2: int, hk=None) -> float:
    """Largest operator-norm defect of H(k+G) = D H(k) D^dagger over the
    momenta k (one point or an (M, 2) stack) for G = m1 b1 + m2 b2; ``hk``,
    when given, is the (M, N, N) stack H(k), which then is not assembled."""
    ks = np.asarray(k, dtype=float).reshape(-1, 2)
    G = m1 * model.lattice.b1 + m2 * model.lattice.b2
    D = np.exp(-1j * (model.positions @ G))
    lhs = model.h_batch(ks + G)
    rhs = D[:, None] * (model.h_batch(ks) if hk is None else hk) * D.conj()[None, :]
    return float(np.linalg.norm(lhs - rhs, ord=2, axis=(1, 2)).max())


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
