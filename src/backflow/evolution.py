"""Exact unitary propagation and trajectory evaluation.

Every trajectory takes one route: factorize a Hermitian matrix once,
evolve both states of the pair under it (evolve), and hand the two state
stacks to the diagnostics kernel (pair_step_series). The routes differ
only in the basis the states are written in:

* dense: the full computational basis of the model, with the full
  Hamiltonian. The reference route, and the only one for generic models.
* subspace: for a qubit coupled to a magnetization-conserving chain
  prepared with at most one flipped spin, the dynamics stays inside the
  0- and 1-excitation sectors. Both evolving states, their marginals and
  their correlation operators then live on a fixed carrier of 2*n_total
  computational basis states, and the Hamiltonian is the chain's carrier
  block, written from the chain parameters. Only the closed sectors at
  the head of the carrier are factorized and evolved; the rest of the
  carrier stays zero. The compression is exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import pair_step_series
from .linalg import hermitian_eig
from .model import ChainModel, Model, ProductState, carrier_indices, product_pair, total_sz_diagonal

__all__ = [
    "TimeGrid",
    "TrajectoryRecord",
    "evolve",
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


def evolve(h: np.ndarray, vectors, times: np.ndarray) -> list[np.ndarray]:
    """exp(-i h t) v at every sample time, one (times.size, h.shape[0]) stack per vector v.

    h is factorized once for all vectors. Vectors shorter than h, all of
    one length m, evolve under the leading m x m block of h and are
    zero-padded to h.shape[0]. ValueError is raised when that block is
    not closed under h, or the vectors differ in length or outgrow h.
    """
    d, m = h.shape[0], len(vectors[0])
    if m > d or any(np.shape(v) != (m,) for v in vectors):
        raise ValueError(f"state shapes do not all match (m,) with m <= dimension {d}")
    if m < d and np.any(h[:m, m:]):
        raise ValueError(f"the leading {m} x {m} block of h is not closed under h")
    w, vec = hermitian_eig(h[:m, :m])
    phases = np.exp(-1j * np.outer(w, times))
    stacks = []
    for v in vectors:
        series = (vec @ (phases * (vec.conj().T @ v)[:, None])).T
        if m < d:
            padded = np.zeros((series.shape[0], d), dtype=np.complex128)
            padded[:, :m] = series
            series = padded
        stacks.append(series)
    return stacks


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
    coords = model.carrier_coordinates(pair) if chain and path != "dense" else None
    if path == "subspace" and coords is None:
        raise ValueError("subspace path needs a chain model and a low-excitation initial pair")
    if coords is not None:
        target, vectors, basis = model.carrier, coords, carrier_indices(model.params.n_total)
    else:
        target, vectors, basis = model, [np.kron(vs, ve) for vs, ve in pair], None
    h, bp, times = target.hamiltonian, target.bipartition, grid.times
    s1, s2 = evolve(h, vectors, times)
    sz = total_sz_diagonal(model.params.n_total, basis) if chain else None
    cols = pair_step_series(h, bp.d_system, bp.d_environment, s1, s2, sz_diagonal=sz)
    return TrajectoryRecord(
        times,
        path_used="dense" if basis is None else "subspace",
        states_1=s1,
        states_2=s2,
        carrier=basis,
        **cols,
    )
