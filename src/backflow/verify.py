"""Randomized and structural self-checks.

Two suites: a bound suite that stress-tests the sigma bound on random
dense models, and a structural suite that replays chain trajectories
and checks the conserved quantities, the vanishing partial traces of
the correlation operators, agreement between the two routes to the
first bound term, the diagnostics kernel against the full-matrix
oracles, and dense/subspace agreement on every column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    bound_term1_branch,
    bound_term1_from_couplings,
    correlation_distance,
    correlation_operator,
    didt_from_generator,
    distinguishability_bound,
    mutual_information,
    sigma_from_generator,
    trace_distance,
)
from .evolution import TimeGrid, evolve, run_trajectory
from .linalg import Bipartition, haar_random_state, partial_trace, trace_norm
from .model import ChainModel, ChainParams, Model, build_chain_model
from .output import TRAJECTORY_CSV

__all__ = [
    "CheckResult",
    "random_generic_model",
    "bound_suite",
    "structural_suite",
]

# sigma - bound_total above this fails a bound check; measured margins stay below 1e-13
BOUND_TOLERANCE = 1e-12
# the largest deviation every structural check accepts; measured values stay below 3e-13
STRUCTURAL_ATOL = 1e-12

# bound suite: sample times in [0.25, BOUND_T_MAX] and the environment dimensions, cycled
BOUND_N_TIMES = 20
BOUND_T_MAX = 5.0
BOUND_D_ENVS = (2, 3, 4, 8)

# structural suite: the dense and the subspace chain, the dense grid and the field
STRUCTURAL_N_DENSE = 6
STRUCTURAL_N_SUBSPACE = 10
STRUCTURAL_STEPS = 300
STRUCTURAL_B_FIELD = 0.01

# record fields compared between the dense and subspace paths
TRAJECTORY_COLUMNS = tuple(name for _, name in TRAJECTORY_CSV)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def random_generic_model(rng: np.random.Generator, d_environment: int) -> Model:
    """Dense Hermitian qubit-environment model with Haar-random product initial states.

    Hamiltonian entries have unit variance; the two initial states draw
    independent system and environment factors.
    """
    d = 2 * d_environment
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2.0
    pair = tuple((haar_random_state(2, rng), haar_random_state(d_environment, rng)) for _ in range(2))
    return Model(hamiltonian=h, bipartition=Bipartition(2, d_environment), initial_pair=pair)


def bound_suite(n_models: int = 50, seed: int = 7) -> tuple[list[CheckResult], float, list[dict]]:
    """sigma <= bound on random models.

    Returns the check list, the worst margin max(sigma - bound_total)
    over every model and sampled time (at or below BOUND_TOLERANCE
    passes), and one bookkeeping row per model. Each model's times go to
    the oracles as one stack.
    """
    rng = np.random.default_rng(seed)
    times = np.linspace(0.25, BOUND_T_MAX, BOUND_N_TIMES)
    worst = -np.inf
    worst_where = ""
    rows = []
    for i in range(n_models):
        d_env = BOUND_D_ENVS[i % len(BOUND_D_ENVS)]
        model = random_generic_model(rng, d_env)
        states = evolve(model.hamiltonian, [np.kron(vs, ve) for vs, ve in model.initial_pair], times)
        rho = [_projectors(s) for s in states]
        margins = sigma_from_generator(model, *rho) - distinguishability_bound(model, *rho).total
        k = int(np.argmax(margins))
        model_worst = float(margins[k])
        if model_worst > worst:
            worst = model_worst
            worst_where = f"model {i} (d_env={d_env}) at t={times[k]:.3g}"
        rows.append({"model": i, "d_env": d_env, "max_sigma_minus_bound": model_worst})
    passed = worst <= BOUND_TOLERANCE
    check = CheckResult(
        "bound-on-random-models",
        passed,
        f"max(sigma - bound) = {worst:.3e} at {worst_where} over {n_models} models",
    )
    return [check], float(worst), rows


def _projectors(states: np.ndarray) -> np.ndarray:
    """|psi><psi| for each row of an (n, d) state stack, as np.outer forms it."""
    return states[:, :, None] * states.conj()[:, None, :]


def _trajectory_checks(tag: str, record) -> list[CheckResult]:
    checks = []
    purity_drift = max(
        float(np.max(np.abs(record.purity_1 - 1.0))),
        float(np.max(np.abs(record.purity_2 - 1.0))),
    )
    checks.append(
        CheckResult(f"{tag}: purity", purity_drift <= STRUCTURAL_ATOL, f"max drift {purity_drift:.3e}")
    )
    mags = np.concatenate([record.magnetization_1, record.magnetization_2])
    mag_drift = float(np.max(np.abs(mags - mags[0])))
    checks.append(
        CheckResult(f"{tag}: magnetization", mag_drift <= STRUCTURAL_ATOL, f"max drift {mag_drift:.3e}")
    )
    chi_resid = max(
        float(np.max(record.chi1_ptrace_sys)),
        float(np.max(record.chi1_ptrace_env)),
        float(np.max(record.chi2_ptrace_sys)),
        float(np.max(record.chi2_ptrace_env)),
    )
    checks.append(
        CheckResult(
            f"{tag}: chi partial traces", chi_resid <= STRUCTURAL_ATOL, f"max residual {chi_resid:.3e}"
        )
    )
    return checks


def _sample_states(model: Model, record) -> tuple[np.ndarray, list[np.ndarray]]:
    """Five evenly spaced sample indices of record, first and last included, and its states there.

    model is a chain's dense model. The states are its own pair evolved
    there, whichever route took the record, so a carrier record is checked
    against the dense route. The checks of one record share them.
    """
    idx = np.linspace(0, record.times.size - 1, 5).astype(int)
    vectors = [np.kron(vs, ve) for vs, ve in model.initial_pair]
    return idx, evolve(model.hamiltonian, vectors, record.times[idx])


def _gamma_route_check(tag: str, chain: ChainModel, record, samples) -> CheckResult:
    """Both routes to the first bound term agree along the trajectory.

    The direct route reads the chain's dense H, the other its coupling
    terms. rho_S = P P^dagger and rho_E = P^T P^* come from each joint
    vector reshaped to its d_S x d_E coefficient matrix P; no d x d
    matrix is formed. Each route takes both branches of a sample in one
    call. The samples go one at a time, so at most one d_E x d_E
    Delta_E is held.
    """
    model, terms = chain.dense, chain.coupling_terms()
    bp = model.bipartition
    worst = 0.0
    idx, states = samples
    for k, i in enumerate(idx):
        p = [s[k].reshape(bp.d_system, bp.d_environment) for s in states]
        delta_env = p[0].T @ p[0].conj() - p[1].T @ p[1].conj()
        rho_s = np.stack([pj @ pj.conj().T for pj in p])
        branches = np.array([record.term1_branch1[i], record.term1_branch2[i]])
        via_couplings = bound_term1_from_couplings(terms, rho_s, delta_env)
        direct = bound_term1_branch(model, rho_s, delta_env)
        worst = max(worst, float(np.max(np.abs(np.stack([via_couplings, direct]) - branches))))
    return CheckResult(f"{tag}: coupling route", worst <= STRUCTURAL_ATOL, f"max mismatch {worst:.3e}")


def _kernel_oracle_check(tag: str, model: Model, record, samples) -> CheckResult:
    """Kernel columns against the full-matrix oracles along the trajectory.

    Both paths share the diagnostics kernel, so this is the comparison
    with an independent implementation. The five samples go to the
    oracles as one stack.
    """
    bp = model.bipartition
    idx, states = samples
    rho_se = [_projectors(s) for s in states]
    chi = [correlation_operator(r, bp) for r in rho_se]
    bound = distinguishability_bound(model, *rho_se)
    expected = {
        "d_system": trace_distance(*(partial_trace(r, bp, "system") for r in rho_se)),
        "d_env": trace_distance(*(partial_trace(r, bp, "environment") for r in rho_se)),
        "x_corr": correlation_distance(*chi),
        "chi1_norm": trace_norm(chi[0]),
        "chi2_norm": trace_norm(chi[1]),
        "bound_term2": bound.term2,
        "bound_total": bound.total,
        "mutual_info_1": mutual_information(rho_se[0], bp),
        "mutual_info_2": mutual_information(rho_se[1], bp),
        "sigma": sigma_from_generator(model, *rho_se),
        "didt_1": didt_from_generator(model, rho_se[0]),
    }
    # gaps[k, c] of sample k and column c; the first maximum, sample by sample, names the column
    gaps = np.abs(np.stack([getattr(record, col)[idx] - value for col, value in expected.items()], axis=1))
    k, c = np.unravel_index(np.argmax(gaps), gaps.shape)
    worst, worst_col = float(gaps[k, c]), list(expected)[c]
    return CheckResult(
        f"{tag}: kernel oracles", worst <= STRUCTURAL_ATOL, f"max gap {worst:.3e} ({worst_col})"
    )


def structural_suite() -> list[CheckResult]:
    """Conservation, chi-trace, dual-route, kernel-oracle and cross-path checks on chains."""
    checks: list[CheckResult] = []

    n_dense = STRUCTURAL_N_DENSE
    dense_model = build_chain_model(ChainParams(n_total=n_dense, b_field=STRUCTURAL_B_FIELD))
    grid = TimeGrid(t_max=float(n_dense - 1), n_steps=STRUCTURAL_STEPS)
    dense_rec = run_trajectory(dense_model, grid, path="dense")
    sub_rec = run_trajectory(dense_model, grid, path="subspace")
    checks += _trajectory_checks(f"dense n={n_dense}", dense_rec)
    samples = _sample_states(dense_model.dense, dense_rec)
    checks.append(_gamma_route_check(f"dense n={n_dense}", dense_model, dense_rec, samples))
    checks.append(_kernel_oracle_check(f"dense n={n_dense}", dense_model.dense, dense_rec, samples))

    worst_col = ""
    worst = 0.0
    for col in TRAJECTORY_COLUMNS:
        gap = float(np.max(np.abs(getattr(dense_rec, col) - getattr(sub_rec, col))))
        if gap > worst:
            worst, worst_col = gap, col
    checks.append(
        CheckResult(
            f"paths agree n={n_dense}",
            worst <= STRUCTURAL_ATOL,
            f"max column gap {worst:.3e} ({worst_col})",
        )
    )

    n_sub = STRUCTURAL_N_SUBSPACE
    sub_model = build_chain_model(ChainParams(n_total=n_sub, b_field=STRUCTURAL_B_FIELD))
    sub_grid = TimeGrid(t_max=float(n_sub - 1), n_steps=2000)
    big_rec = run_trajectory(sub_model, sub_grid, path="subspace")
    checks += _trajectory_checks(f"subspace n={n_sub}", big_rec)
    samples = _sample_states(sub_model.dense, big_rec)
    checks.append(_gamma_route_check(f"subspace n={n_sub}", sub_model, big_rec, samples))

    sigma_margin = float(np.max(big_rec.sigma - big_rec.bound_total))
    checks.append(
        CheckResult(
            f"subspace n={n_sub}: bound",
            sigma_margin <= BOUND_TOLERANCE,
            f"max(sigma - bound) = {sigma_margin:.3e}",
        )
    )
    return checks
