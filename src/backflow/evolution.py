"""Exact unitary propagation and trajectory evaluation.

Two interchangeable routes produce the same diagnostics:

* dense: eigendecompose the full Hamiltonian and carry full joint state
  vectors. The reference route, and the only one for generic models.
* subspace: for a qubit coupled to a magnetization-conserving chain
  prepared with at most one flipped spin, the dynamics stays inside the
  0- and 1-excitation sectors. Both evolving states, their marginals and
  their correlation operators then live on a fixed carrier of 2*n_total
  computational basis states, so every per-step quantity reduces to
  small-matrix algebra on the chain's carrier block of H, which is
  written from the chain parameters. The compression is exact, not
  approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import pair_step_series
from .linalg import hermitian_eig
from .model import ChainModel, Model, ProductState, carrier_indices, product_pair, total_sz_diagonal

__all__ = [
    "TimeGrid",
    "Propagator",
    "TrajectoryRecord",
    "make_propagator",
    "run_trajectory",
]


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


@dataclass(frozen=True)
class Propagator:
    """Spectral form of exp(-i H t): eigenvalues and orthonormal eigenvector columns."""

    dimension: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, psi: np.ndarray, t: float) -> np.ndarray:
        psi = np.asarray(psi, dtype=np.complex128)
        if psi.shape != (self.dimension,):
            raise ValueError(f"state shape {psi.shape} does not match dimension {self.dimension}")
        amp = self.eigenvectors.conj().T @ psi
        return self.eigenvectors @ (np.exp(-1j * self.eigenvalues * t) * amp)


def make_propagator(model: Model | ChainModel) -> Propagator:
    """Factorize the full Hamiltonian once, for repeated time evolution."""
    w, v = hermitian_eig(model.hamiltonian)
    return Propagator(dimension=model.dimension, eigenvalues=w, eigenvectors=v)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Time series of every diagnostic for one evolving state pair.

    output.TRAJECTORY_CSV names the fields written as CSV columns; the
    remaining fields keep bookkeeping used by structural checks (purity
    and magnetization drift, partial-trace residuals of the correlation
    operators, both branches of the first bound term) plus the evolved
    state vectors in carrier coordinates. carrier holds the full-space
    indices of those coordinates on the subspace path and is None on the
    dense path.
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


def _carrier_coordinates(model: ChainModel, pair: tuple[ProductState, ProductState]):
    """Both states in carrier coordinates, or None if either leaves the 0- and 1-excitation sectors.

    The coordinates of (vs, ve) are vs (x) ve read at the environment
    carrier; the two sectors are exactly their first n_total + 1 slots.
    """
    n_total = model.params.n_total
    env = carrier_indices(n_total)[:n_total]
    coords = []
    for vs, ve in pair:
        c = np.kron(vs, ve[env])
        outside = (np.linalg.norm(vs) * np.linalg.norm(ve)) ** 2 - np.linalg.norm(c[: n_total + 1]) ** 2
        if outside > 1e-12:
            return None
        coords.append(c)
    return coords


def _spectral_series(w: np.ndarray, vec: np.ndarray, c0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States at all sample times, stacked as rows."""
    amp = vec.conj().T @ c0
    phases = np.exp(-1j * np.outer(w, times))
    return (vec @ (phases * amp[:, None])).T


def run_trajectory(
    model: Model | ChainModel,
    grid: TimeGrid,
    path: str = "auto",
    pair: tuple[ProductState, ProductState] | None = None,
) -> TrajectoryRecord:
    """Evolve an initial pair under the model over `grid` and record diagnostics.

    pair holds two (system vector, environment vector) product states and
    defaults to the model's initial_pair; passing it evolves another pair
    under the same, already validated, Hamiltonian.

    path is one of 'dense', 'subspace' or 'auto'. Auto prefers the
    subspace route whenever the model is a ChainModel and the pair sits
    inside its lowest two excitation sectors; it falls back to dense
    otherwise. The subspace route reads only the chain's carrier block,
    so the 2^n_total Hamiltonian is built by the dense route alone.
    """
    if path not in ("auto", "dense", "subspace"):
        raise ValueError(f"unknown path {path!r}")
    pair = model.initial_pair if pair is None else product_pair(pair, model.bipartition)
    chain = isinstance(model, ChainModel)
    coords = _carrier_coordinates(model, pair) if chain and path != "dense" else None
    if path == "subspace" and coords is None:
        raise ValueError("subspace path needs a chain model and a low-excitation initial pair")
    times = grid.times
    if coords is not None:
        n_total = model.params.n_total
        carrier = carrier_indices(n_total)
        g = model.carrier.hamiltonian
        # the 0- and 1-excitation sector occupies the first n_total + 1 slots
        n_evo = n_total + 1
        w, vec = hermitian_eig(g[:n_evo, :n_evo])
        states = []
        for c in coords:
            small = np.zeros((times.size, carrier.size), dtype=np.complex128)
            small[:, :n_evo] = _spectral_series(w, vec, c[:n_evo], times)
            states.append(small)
        sz = (n_total - 2.0 * np.array([bin(int(i)).count("1") for i in carrier]))
        cols = pair_step_series(g, 2, n_total, states[0], states[1], sz_diagonal=sz)
        return TrajectoryRecord(
            times, path_used="subspace", states_1=states[0], states_2=states[1], carrier=carrier, **cols
        )

    v1, v2 = (np.kron(vs, ve) for vs, ve in pair)
    prop = make_propagator(model)
    s1 = _spectral_series(prop.eigenvalues, prop.eigenvectors, v1, times)
    s2 = _spectral_series(prop.eigenvalues, prop.eigenvectors, v2, times)
    sz = total_sz_diagonal(model.params.n_total) if chain else None
    bp = model.bipartition
    cols = pair_step_series(model.hamiltonian, bp.d_system, bp.d_environment, s1, s2, sz_diagonal=sz)
    return TrajectoryRecord(times, path_used="dense", states_1=s1, states_2=s2, **cols)
