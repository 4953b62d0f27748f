"""Exact unitary propagation and trajectory evaluation.

Two interchangeable routes produce the same diagnostics:

* dense: eigendecompose the full Hamiltonian and carry full joint state
  vectors. The reference route, and the only one for generic models.
* subspace: for a qubit coupled to a magnetization-conserving chain
  prepared with at most one flipped spin, the dynamics stays inside the
  0- and 1-excitation sectors. Both evolving states, their marginals and
  their correlation operators then live on a fixed carrier of 2*n_total
  computational basis states, so every per-step quantity reduces to
  small-matrix algebra. The compression is exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsRow, pair_step_series, sigma_series, mutual_information_rate
from .linalg import PureState, hermitian_eig
from .model import Model, ProductState, product_pair, total_sz_diagonal

__all__ = [
    "TimeGrid",
    "Propagator",
    "SubspaceOperator",
    "TrajectoryRecord",
    "make_propagator",
    "evolve_state",
    "run_trajectory",
    "one_hot_basis",
    "carrier_indices",
]

SUPPORT_ATOL = 1e-10


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of [0, t_max] with n_steps intervals.

    n_steps = 0 degenerates to the single sample t = 0.
    """

    t_max: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative, got {self.n_steps}")
        if self.n_steps > 0 and self.t_max <= 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.n_steps == 0 and self.t_max < 0.0:
            raise ValueError(f"t_max must be nonnegative, got {self.t_max}")

    @property
    def times(self) -> np.ndarray:
        if self.n_steps == 0:
            return np.zeros(1)
        return np.linspace(0.0, self.t_max, self.n_steps + 1)

    @property
    def dt(self) -> float:
        return self.t_max / self.n_steps if self.n_steps else 0.0


@dataclass(frozen=True)
class Propagator:
    """Spectral form of exp(-i H t) on the full space or on sector blocks.

    eigenvectors holds orthonormal columns embedded in the full space;
    for a sector-restricted propagator they span only the factorized
    sectors, and states outside that span are rejected on application.
    sector_factors keeps the per-sector data (indices, eigenvalues,
    eigenvectors in sector coordinates) for consumers that work in
    restricted coordinates.
    """

    dimension: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sector_factors: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] | None = None

    def apply(self, psi: np.ndarray, t: float) -> np.ndarray:
        psi = np.asarray(psi, dtype=np.complex128)
        if psi.shape != (self.dimension,):
            raise ValueError(f"state shape {psi.shape} does not match dimension {self.dimension}")
        amp = self.eigenvectors.conj().T @ psi
        covered = self.eigenvectors @ amp
        resid = float(np.linalg.norm(psi - covered))
        if resid > SUPPORT_ATOL * max(1.0, float(np.linalg.norm(psi))):
            raise ValueError(
                f"state has weight {resid:.3e} outside the factorized sectors"
            )
        return self.eigenvectors @ (np.exp(-1j * self.eigenvalues * t) * amp)


@dataclass(frozen=True)
class SubspaceOperator:
    """Operator carried on an orthonormal set of full-space basis vectors.

    dense form = basis @ coefficients @ basis^dagger. Trace norms and
    ranks can be read off the small coefficient matrix directly.
    """

    basis: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        basis = np.asarray(self.basis, dtype=np.complex128)
        coeff = np.asarray(self.coefficients, dtype=np.complex128)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coefficients", coeff)
        if basis.ndim != 2 or coeff.shape != (basis.shape[1], basis.shape[1]):
            raise ValueError("coefficients must be square over the basis columns")
        gram = basis.conj().T @ basis
        err = float(np.max(np.abs(gram - np.eye(basis.shape[1]))))
        if err > 1e-10:
            raise ValueError(f"basis columns not orthonormal, Gram residual {err:.3e}")

    @property
    def rank_support(self) -> int:
        return self.basis.shape[1]

    def to_dense(self) -> np.ndarray:
        return self.basis @ self.coefficients @ self.basis.conj().T

    def trace_norm(self) -> float:
        return float(np.linalg.svd(self.coefficients, compute_uv=False).sum())


def one_hot_basis(dimension: int, indices: np.ndarray) -> np.ndarray:
    """Standard basis vectors at `indices`, as orthonormal columns."""
    b = np.zeros((dimension, len(indices)), dtype=np.complex128)
    b[np.asarray(indices), np.arange(len(indices))] = 1.0
    return b


def carrier_indices(n_total: int) -> np.ndarray:
    """Full-space indices of the subspace carrier |s>_S (x) |e_k>_E.

    s runs over the qubit states, e_0 is the environment vacuum and e_k
    flips chain site k. Ordered s-major so the carrier is a product
    basis of shape (2, n_total). The first n_total + 1 entries are the
    0- and 1-excitation sector, which is closed under the dynamics; the
    rest support the product terms rho_S (x) rho_E.
    """
    big_n = n_total - 1
    env = [0] + [1 << (big_n - k) for k in range(1, big_n + 1)]
    return np.array([(s << big_n) + e for s in (0, 1) for e in env], dtype=np.int64)


def _initial_vectors(pair: tuple[ProductState, ProductState]) -> tuple[np.ndarray, np.ndarray]:
    """Joint state vectors of a pair of product states."""
    (vs1, ve1), (vs2, ve2) = pair
    return np.kron(vs1, ve1), np.kron(vs2, ve2)


def _touched_sectors(model: Model, vectors) -> list[int]:
    touched = []
    for k, idx in enumerate(model.sector_basis):
        weight = max(float(np.linalg.norm(v[idx])) for v in vectors)
        if weight > 1e-12:
            touched.append(k)
    return touched


def make_propagator(model: Model, dense: bool = False) -> Propagator:
    """Factorize the Hamiltonian once, for repeated time evolution.

    With sector metadata present (and dense=False) only the sectors
    populated by the initial pair are factorized; otherwise the full
    matrix is.
    """
    d = model.dimension
    if dense or model.sector_basis is None:
        w, v = hermitian_eig(model.hamiltonian)
        return Propagator(dimension=d, eigenvalues=w, eigenvectors=v)
    v1, v2 = _initial_vectors(model.initial_pair)
    factors = []
    vals = []
    cols = []
    for k in _touched_sectors(model, (v1, v2)):
        idx = np.asarray(model.sector_basis[k])
        w, vec = hermitian_eig(model.hamiltonian[np.ix_(idx, idx)])
        factors.append((idx, w, vec))
        vals.append(w)
        embedded = np.zeros((d, idx.size), dtype=np.complex128)
        embedded[idx, :] = vec
        cols.append(embedded)
    return Propagator(
        dimension=d,
        eigenvalues=np.concatenate(vals),
        eigenvectors=np.concatenate(cols, axis=1),
        sector_factors=tuple(factors),
    )


def evolve_state(propagator: Propagator, state, t: float):
    """Apply exp(-i H t) to a state vector or PureState."""
    if isinstance(state, PureState):
        return PureState(propagator.apply(state.amplitudes, t), state.dims)
    return propagator.apply(np.asarray(state, dtype=np.complex128), t)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Time series of every diagnostic for one evolving state pair.

    The output columns mirror DiagnosticsRow; the remaining fields keep
    bookkeeping used by structural checks (purity and magnetization
    drift, partial-trace residuals of the correlation operators, both
    branches of the first bound term) plus the evolved state vectors in
    carrier coordinates. carrier holds the full-space indices of those
    coordinates on the subspace path and is None on the dense path.
    """

    times: np.ndarray
    d_system: np.ndarray
    sigma: np.ndarray
    bound_total: np.ndarray
    bound_term1: np.ndarray
    bound_term2: np.ndarray
    d_env: np.ndarray
    e_indist: np.ndarray
    x_corr: np.ndarray
    chi1_norm: np.ndarray
    chi2_norm: np.ndarray
    svn_system_1: np.ndarray
    svn_system_2: np.ndarray
    mutual_info_1: np.ndarray
    mutual_info_2: np.ndarray
    didt_1: np.ndarray
    path_used: str
    purity_1: np.ndarray
    purity_2: np.ndarray
    magnetization_1: np.ndarray
    magnetization_2: np.ndarray
    term1_branch1: np.ndarray
    term1_branch2: np.ndarray
    chi1_ptrace_sys: np.ndarray
    chi1_ptrace_env: np.ndarray
    chi2_ptrace_sys: np.ndarray
    chi2_ptrace_env: np.ndarray
    states_1: np.ndarray
    states_2: np.ndarray
    carrier: np.ndarray | None = field(default=None)

    @property
    def n_times(self) -> int:
        return self.times.size

    def row(self, i: int) -> DiagnosticsRow:
        return DiagnosticsRow(
            t=float(self.times[i]),
            d_system=float(self.d_system[i]),
            sigma=float(self.sigma[i]),
            bound_total=float(self.bound_total[i]),
            bound_term1=float(self.bound_term1[i]),
            bound_term2=float(self.bound_term2[i]),
            d_env=float(self.d_env[i]),
            e_indist=float(self.e_indist[i]),
            x_corr=float(self.x_corr[i]),
            chi1_norm=float(self.chi1_norm[i]),
            chi2_norm=float(self.chi2_norm[i]),
            svn_system_1=float(self.svn_system_1[i]),
            svn_system_2=float(self.svn_system_2[i]),
            mutual_info_1=float(self.mutual_info_1[i]),
            mutual_info_2=float(self.mutual_info_2[i]),
            didt_1=float(self.didt_1[i]),
        )

    def rows(self):
        for i in range(self.n_times):
            yield self.row(i)


def _subspace_applicable(model: Model, v1: np.ndarray, v2: np.ndarray) -> bool:
    if model.sector_basis is None or model.bipartition.d_system != 2:
        return False
    n_total = int(np.log2(model.dimension) + 0.5)
    if 2**n_total != model.dimension or n_total < 2:
        return False
    low = np.concatenate([model.sector_basis[0], model.sector_basis[1]])
    for v in (v1, v2):
        outside = np.linalg.norm(v) ** 2 - np.linalg.norm(v[low]) ** 2
        if outside > 1e-12:
            return False
    return True


def _spectral_series(w: np.ndarray, vec: np.ndarray, c0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States at all sample times, stacked as rows."""
    amp = vec.conj().T @ c0
    phases = np.exp(-1j * np.outer(w, times))
    return (vec @ (phases * amp[:, None])).T


def _finish(times, dt, cols, path_used, states_1, states_2, carrier) -> TrajectoryRecord:
    n = times.size
    if n >= 3:
        sigma = sigma_series(cols["d_system"], dt)
        didt = mutual_information_rate(cols["mutual_info_1"], dt)
    elif n == 2:
        slope_d = (cols["d_system"][1] - cols["d_system"][0]) / dt
        slope_i = (cols["mutual_info_1"][1] - cols["mutual_info_1"][0]) / dt
        sigma = np.full(2, slope_d)
        didt = np.full(2, slope_i)
    else:
        sigma = np.zeros(1)
        didt = np.zeros(1)
    return TrajectoryRecord(
        times=times,
        sigma=sigma,
        didt_1=didt,
        path_used=path_used,
        states_1=states_1,
        states_2=states_2,
        carrier=carrier,
        **{k: cols[k] for k in cols},
    )


def run_trajectory(
    model: Model,
    grid: TimeGrid,
    path: str = "auto",
    pair: tuple[ProductState, ProductState] | None = None,
) -> TrajectoryRecord:
    """Evolve an initial pair under the model over `grid` and record diagnostics.

    pair holds two (system vector, environment vector) product states and
    defaults to the model's initial_pair; passing it evolves another pair
    under the same, already validated, Hamiltonian.

    path is one of 'dense', 'subspace' or 'auto'. Auto prefers the
    subspace route whenever the model carries sector metadata and the
    initial pair sits inside the lowest two excitation sectors of a
    qubit-plus-chain register; it falls back to dense otherwise.
    """
    if path not in ("auto", "dense", "subspace"):
        raise ValueError(f"unknown path {path!r}")
    pair = model.initial_pair if pair is None else product_pair(pair, model.bipartition)
    v1, v2 = _initial_vectors(pair)
    eligible = _subspace_applicable(model, v1, v2)
    if path == "subspace" and not eligible:
        raise ValueError("subspace path needs sector metadata and a low-excitation initial pair")
    use_subspace = eligible if path == "auto" else (path == "subspace")
    times = grid.times
    if use_subspace:
        n_total = int(np.log2(model.dimension) + 0.5)
        carrier = carrier_indices(n_total)
        m = carrier.size
        g = model.hamiltonian[np.ix_(carrier, carrier)]
        # the 0- and 1-excitation sector occupies the first n_total + 1 slots
        n_evo = n_total + 1
        w, vec = hermitian_eig(g[:n_evo, :n_evo])
        states = []
        for v in (v1, v2):
            c0 = v[carrier[:n_evo]]
            small = np.zeros((times.size, m), dtype=np.complex128)
            small[:, :n_evo] = _spectral_series(w, vec, c0, times)
            states.append(small)
        sz = (n_total - 2.0 * np.array([bin(int(i)).count("1") for i in carrier]))
        cols = pair_step_series(g, 2, n_total, states[0], states[1], sz_diagonal=sz)
        return _finish(times, grid.dt, cols, "subspace", states[0], states[1], carrier)

    prop = make_propagator(model, dense=True)
    s1 = _spectral_series(prop.eigenvalues, prop.eigenvectors, v1, times)
    s2 = _spectral_series(prop.eigenvalues, prop.eigenvectors, v2, times)
    sz = total_sz_diagonal(int(np.log2(model.dimension) + 0.5)) if model.sector_basis is not None else None
    bp = model.bipartition
    cols = pair_step_series(model.hamiltonian, bp.d_system, bp.d_environment, s1, s2, sz_diagonal=sz)
    return _finish(times, grid.dt, cols, "dense", s1, s2, None)
