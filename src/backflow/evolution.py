"""Exact unitary propagation and trajectory evaluation.

Every trajectory takes one route: factorize a Hermitian matrix once,
evolve both states of the pair under it (evolve), and hand the two state
stacks to the diagnostics kernel (pair_step_series). Both run on the
block of basis states that H joins to the pair's support by nonzero
entries, which is closed under H, so the restriction is exact. The
routes differ only in the basis the states are written in:

* dense: the model's own basis and Hamiltonian. The reference route,
  and the only one for generic models.
* subspace: a ChainModel is the chain on its carrier of 2*n_total
  states, the vacuum and single flips of the environment against either
  qubit state. A pair inside the carrier's head, the 0- and
  1-excitation sectors, stays there, so both evolving states, their
  marginals and their correlation operators live on the carrier. A
  chain pair that leaves the head runs dense, on ChainModel.dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import pair_step_series
from .linalg import CHECK_TILE, hermitian_eig
from .model import ChainModel, Model, ProductState, product_pair

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


def _reached(h: np.ndarray, vectors) -> np.ndarray:
    """Mask of the basis states that nonzero entries of h join to the vectors' support.

    h is read CHECK_TILE rows at a time, so no d x d temporary is formed.
    """
    reached = frontier = np.any(np.array(vectors) != 0, axis=0)
    while frontier.any() and not reached.all():
        rows = np.flatnonzero(frontier)
        joined = np.zeros_like(reached)
        for a in range(0, rows.size, CHECK_TILE):
            joined |= np.any(h[rows[a : a + CHECK_TILE]] != 0, axis=0)
        frontier = joined & ~reached
        reached = reached | frontier
    return reached


def evolve(h: np.ndarray, vectors, times: np.ndarray) -> list[np.ndarray]:
    """exp(-i h t) v at every sample time, one (times.size, h.shape[0]) stack per vector v.

    Only the block of basis states that h joins to the vectors' support
    is factorized, once for all vectors; the block is closed under h, so
    every other coordinate stays exactly 0. ValueError is raised when a
    vector does not match h.
    """
    d = h.shape[0]
    if any(np.shape(v) != (d,) for v in vectors):
        raise ValueError(f"state shapes do not all match the dimension {d} of h")
    return _propagate(h, vectors, times, _reached(h, vectors))


def _propagate(h: np.ndarray, vectors, times: np.ndarray, reached: np.ndarray) -> list[np.ndarray]:
    """evolve on the block `reached`, a mask closed under h that holds the vectors' support."""
    block = slice(None) if reached.all() else np.flatnonzero(reached)
    w, vec = hermitian_eig(h[block][:, block])
    phases = np.exp(-1j * np.outer(w, times))
    stacks = []
    for v in vectors:
        series = np.zeros((times.size, h.shape[0]), dtype=np.complex128)
        series[:, block] = (vec @ (phases * (vec.conj().T @ v[block])[:, None])).T
        stacks.append(series)
    return stacks


@dataclass(frozen=True)
class TrajectoryRecord:
    """Time series of every diagnostic for one evolving state pair.

    output.TRAJECTORY_CSV names the fields written as CSV columns; the
    remaining fields keep bookkeeping used by structural checks (purity
    and magnetization drift, partial-trace residuals of the correlation
    operators, both branches of the first bound term). A record holds no
    states, so it reads the same whichever basis the run took; evolve
    gives the states themselves.
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

    path is one of 'dense', 'subspace' or 'auto'. Auto takes the subspace
    route whenever the model is a ChainModel and the pair has no amplitude
    outside the head of its carrier, the lowest two excitation sectors, and
    falls back to dense otherwise. A chain's dense route evolves
    ChainModel.dense, so the 2^n_total Hamiltonian is built by that route
    alone.
    """
    if path not in ("auto", "dense", "subspace"):
        raise ValueError(f"unknown path {path!r}")
    pair = model.initial_pair if pair is None else product_pair(pair, model.bipartition)
    vectors = [np.kron(vs, ve) for vs, ve in pair]
    chain = isinstance(model, ChainModel)
    n = model.params.n_total if chain else 0
    # the carrier's head, its first n + 1 slots, is closed: a pair with no amplitude past
    # it stays there
    closed = chain and not any(v[n + 1 :].any() for v in vectors)
    subspace = closed and path != "dense"
    if path == "subspace" and not subspace:
        raise ValueError("subspace path needs a chain model and a low-excitation initial pair")
    if chain and not subspace:
        vectors = [np.kron(vs, ve) for vs, ve in model.dense_pair(pair)]
        model = model.dense
    h, bp, sz, times = model.hamiltonian, model.bipartition, model.sz_diagonal, grid.times
    ds, de = bp.d_system, bp.d_environment
    # the reached block lies inside C^ds (x) env and the kernel reads H only between
    # environment states the pair occupies, so slicing to env is exact for both; the
    # block is closed under H, so on the slice it is reached[keep], found once
    reached = _reached(h, vectors)
    env = np.flatnonzero(reached.reshape(ds, de).any(axis=0))
    if env.size < de:
        keep = (np.arange(ds)[:, None] * de + env).ravel()
        h, vectors, de = h[np.ix_(keep, keep)], [v[keep] for v in vectors], env.size
        sz = None if sz is None else sz[keep]
        reached = reached[keep]
    s1, s2 = _propagate(h, vectors, times, reached)
    cols = pair_step_series(h, ds, de, s1, s2, sz_diagonal=sz)
    return TrajectoryRecord(times, path_used="subspace" if subspace else "dense", **cols)
