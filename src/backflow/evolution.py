"""Exact unitary propagation and trajectory evaluation.

Every trajectory factorizes one Hermitian block once, forms both states
of the pair from it, and hands the two state stacks to the diagnostics
kernel (pair_step_series). The routes differ in the block and the basis:

* dense: the model's own basis and Hamiltonian. The block is the set of
  basis states that H joins to the pair's support by nonzero entries,
  which is closed under H, so evolving on it is exact (evolve), and the
  kernel sees the system against the environment states the block
  holds. The reference route, and the only one for generic models.
* subspace: a ChainModel pair whose environment factors are both the
  vacuum up to a phase. Its states are the qubit against three
  environment states at any chain length, formed from the amplitudes of
  one excitation leaving the qubit; the single-excitation block behind
  them is factorized once per model. Every other chain pair runs dense,
  on ChainModel.dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import CHUNK_ELEMENTS, pair_step_series
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
    route whenever the model is a ChainModel and both environment factors
    of the pair are the vacuum up to a phase, and runs dense otherwise.
    That route evolves the qubit against three environment states
    (_vacuum_pair_states), whatever the chain's length. Every other chain
    pair runs on ChainModel.dense, so the 2^n_total Hamiltonian is built
    by the dense route alone.
    """
    if path not in ("auto", "dense", "subspace"):
        raise ValueError(f"unknown path {path!r}")
    pair = model.initial_pair if pair is None else product_pair(pair, model.bipartition)
    chain = isinstance(model, ChainModel)
    # carrier slot 0 of an environment factor is the vacuum
    vacuum = chain and not any(ve[1:].any() for _, ve in pair)
    if path == "subspace" and not vacuum:
        raise ValueError("subspace path needs a chain model and a low-excitation initial pair")
    times = grid.times
    if vacuum and path != "dense":
        h, s1, s2 = _vacuum_pair_states(model, pair, times)
        # slot (s, k) flips s + [k > 0] spins
        sz = model.params.n_total - 2.0 * np.array([0, 1, 1, 1, 2, 2])
        cols = pair_step_series(h, 2, 3, s1, s2, sz_diagonal=sz)
        return TrajectoryRecord(times, path_used="subspace", **cols)
    if chain:
        pair, model = model.dense_pair(pair), model.dense
    vectors = [np.kron(vs, ve) for vs, ve in pair]
    h, bp, sz = model.hamiltonian, model.bipartition, model.sz_diagonal
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
    return TrajectoryRecord(times, path_used="dense", **cols)


def _vacuum_pair_states(chain: ChainModel, pair, times: np.ndarray):
    """H_6 and both state stacks of a chain pair against the vacuum, on 6 coordinates.

    The environment basis is (v, e_1, r_hat): the vacuum, chain site 1
    flipped, and the direction of the rest of the single flips. A state
    (alpha |0> + beta |1>) (x) |v> evolves as e^{-i E_0 t} times
        alpha |0, v> + beta (f |1, v> + g_1 |0, e_1> + r |0, r_hat>),
    with E_0 the vacuum's energy, dropped as a global phase, and f, g_1
    and r from _excitation_amplitudes. The phase of an environment factor
    is folded into alpha and beta the same way.
    r_hat moves with t but is the same for both states of the pair, so at
    each time the two states, their marginals and their correlation
    operators are those of the full space, written in three environment
    directions. H_6 = H_S (x) 1 + H_I: the kernel reads H only through
    Tr_E of commutators with states, where 1 (x) H_E drops out, and H_I
    joins (1, v) and (0, e_1) alone. H_S is the qubit's field splitting,
    read off the carrier's (0, v) and (1, v) slots.
    """
    n, h = chain.params.n_total, chain.hamiltonian
    f, g1, r = _excitation_amplitudes(chain, times)
    states = []
    for vs, ve in pair:
        alpha, beta = vs * ve[0]
        psi = np.zeros((times.size, 6), dtype=np.complex128)
        psi[:, 0] = alpha
        psi[:, 1] = beta * g1
        psi[:, 2] = beta * r
        psi[:, 3] = beta * f
        states.append(psi)
    split = 0.5 * (h[0, 0] - h[n, n]).real
    h6 = np.diag(np.repeat([split, -split], 3)).astype(np.complex128)
    h6[3, 1], h6[1, 3] = h[n, 1], h[1, n]
    return h6, states[0], states[1]


def _excitation_amplitudes(chain: ChainModel, times: np.ndarray):
    """f, g_1 and r of e^{i E_0 t} U(t)|1, v> at every sample time, E_0 the vacuum's energy.

    U(t)|1, v> stays in the single-excitation sector, the carrier's slots
    1..n_total: (0, k) for chain sites k = 1..n_total - 1, then (1, v).
    That n_total-square block, less E_0 on its diagonal so that the phases
    stay small at any n_total, is factorized once per model through
    hermitian_eig; its factors are kept on the model next to
    ChainModel.dense. f is the amplitude on (1, v), g_1 the one on (0, 1)
    and r the norm of the ones on sites 2 and up, never 1 - |f|^2 - |g_1|^2,
    which cancels. The amplitudes are formed a chunk of times at a time,
    at most CHUNK_ELEMENTS of them at once.
    """
    n, h = chain.params.n_total, chain.hamiltonian
    cache = vars(chain)
    if "single_excitation" not in cache:
        block = h[1 : n + 1, 1 : n + 1].copy()
        block.flat[:: n + 1] -= h[0, 0]
        cache["single_excitation"] = hermitian_eig(block)
        del block  # freed before the chunks
    w, vec = cache["single_excitation"]
    # amp[t, k] = <k| U(t) |1, v> = sum_l vec[k, l] e^{-i w_l t} conj(vec[n - 1, l])
    start = vec[-1].conj()
    f, g1 = np.empty(times.size, dtype=np.complex128), np.empty(times.size, dtype=np.complex128)
    r = np.empty(times.size)
    chunk = max(1, CHUNK_ELEMENTS // n)
    for a in range(0, times.size, chunk):
        amp = np.exp(-1j * np.outer(times[a : a + chunk], w))
        amp *= start
        amp = amp @ vec.T
        f[a : a + chunk], g1[a : a + chunk] = amp[:, -1], amp[:, 0]
        rest = amp[:, 1:-1]
        r[a : a + chunk] = np.sqrt(
            np.einsum("tk,tk->t", rest.real, rest.real) + np.einsum("tk,tk->t", rest.imag, rest.imag)
        )
    return f, g1, r
