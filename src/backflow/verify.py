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
    distinguishability_bound,
    mutual_information,
    trace_distance,
)
from .evolution import TimeGrid, make_propagator, run_trajectory
from .linalg import Bipartition, DensityMatrix, haar_random_state, partial_trace, trace_norm
from .model import ChainParams, Model, build_chain_model

__all__ = [
    "CheckResult",
    "random_generic_model",
    "bound_suite",
    "structural_suite",
    "run_all_checks",
]

BOUND_TOLERANCE = 1e-6
SIGMA_DELTA = 1e-5

TRAJECTORY_COLUMNS = (
    "d_system",
    "bound_total",
    "bound_term1",
    "bound_term2",
    "d_env",
    "e_indist",
    "x_corr",
    "chi1_norm",
    "chi2_norm",
    "svn_system_1",
    "svn_system_2",
    "mutual_info_1",
    "mutual_info_2",
    "sigma",
    "didt_1",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def random_generic_model(rng: np.random.Generator, d_environment: int, d_system: int = 2) -> Model:
    """Dense Hermitian model with Haar-random product initial states.

    Hamiltonian entries have unit variance; the two initial states draw
    independent system and environment factors.
    """
    d = d_system * d_environment
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2.0
    dims = (d_system, d_environment)
    pair = []
    for _ in range(2):
        vs = haar_random_state(d_system, rng)
        ve = haar_random_state(d_environment, rng)
        pair.append(DensityMatrix.from_state_vector(np.kron(vs, ve), dims))
    return Model(
        hamiltonian=h,
        bipartition=Bipartition(d_system, d_environment),
        initial_pair=(pair[0], pair[1]),
    )


def _sigma_and_bound_at(model: Model, prop, t: float, delta: float = SIGMA_DELTA):
    """Local-difference sigma and the bound at one time."""
    from .evolution import evolve_state
    from .linalg import state_vector_from_density

    bp = model.bipartition
    v = [state_vector_from_density(r) for r in model.initial_pair]
    reduced = {}
    for dt in (-delta, 0.0, +delta):
        rho = []
        for vj in v:
            psi = prop.apply(vj, t + dt)
            rho.append(psi.reshape(bp.d_system, bp.d_environment))
        reduced[dt] = [p @ p.conj().T for p in rho]
    d_minus = trace_distance(reduced[-delta][0], reduced[-delta][1])
    d_plus = trace_distance(reduced[+delta][0], reduced[+delta][1])
    sigma = (d_plus - d_minus) / (2.0 * delta)
    psi1 = prop.apply(v[0], t)
    psi2 = prop.apply(v[1], t)
    r1 = DensityMatrix.from_state_vector(psi1, (bp.d_system, bp.d_environment))
    r2 = DensityMatrix.from_state_vector(psi2, (bp.d_system, bp.d_environment))
    bound = distinguishability_bound(model, r1, r2)
    return sigma, bound


def bound_suite(
    n_models: int = 50,
    seed: int = 7,
    n_times: int = 20,
    t_max: float = 5.0,
    d_env_choices: tuple[int, ...] = (2, 3, 4, 8),
) -> tuple[list[CheckResult], float, list[dict]]:
    """sigma <= bound on random models.

    Returns the check list, the worst margin max(sigma - bound_total)
    over every model and sampled time (at or below BOUND_TOLERANCE
    passes), and one bookkeeping row per model.
    """
    rng = np.random.default_rng(seed)
    times = np.linspace(0.25, t_max, n_times)
    worst = -np.inf
    worst_where = ""
    rows = []
    for i in range(n_models):
        d_env = int(d_env_choices[i % len(d_env_choices)])
        model = random_generic_model(rng, d_env)
        prop = make_propagator(model, dense=True)
        model_worst = -np.inf
        for t in times:
            sigma, bound = _sigma_and_bound_at(model, prop, float(t))
            margin = sigma - bound.total
            model_worst = max(model_worst, margin)
            if margin > worst:
                worst = margin
                worst_where = f"model {i} (d_env={d_env}) at t={t:.3g}"
        rows.append({"model": i, "d_env": d_env, "max_sigma_minus_bound": float(model_worst)})
    passed = worst <= BOUND_TOLERANCE
    check = CheckResult(
        "bound-on-random-models",
        passed,
        f"max(sigma - bound) = {worst:.3e} at {worst_where} over {n_models} models",
    )
    return [check], float(worst), rows


def _trajectory_checks(tag: str, model: Model, record) -> list[CheckResult]:
    checks = []
    purity_drift = max(
        float(np.max(np.abs(record.purity_1 - 1.0))),
        float(np.max(np.abs(record.purity_2 - 1.0))),
    )
    checks.append(
        CheckResult(f"{tag}: purity", purity_drift <= 1e-10, f"max drift {purity_drift:.3e}")
    )
    mags = np.concatenate([record.magnetization_1, record.magnetization_2])
    mag_drift = float(np.max(np.abs(mags - mags[0])))
    checks.append(
        CheckResult(f"{tag}: magnetization", mag_drift <= 1e-10, f"max drift {mag_drift:.3e}")
    )
    chi_resid = max(
        float(np.max(record.chi1_ptrace_sys)),
        float(np.max(record.chi1_ptrace_env)),
        float(np.max(record.chi2_ptrace_sys)),
        float(np.max(record.chi2_ptrace_env)),
    )
    checks.append(
        CheckResult(
            f"{tag}: chi partial traces", chi_resid <= 1e-12, f"max residual {chi_resid:.3e}"
        )
    )
    return checks


def _sample_indices(record) -> np.ndarray:
    """Five evenly spaced sample indices, first and last included."""
    return np.linspace(0, record.n_times - 1, 5).astype(int)


def _gamma_route_check(tag: str, model: Model, record) -> CheckResult:
    """Both routes to the first bound term agree along the trajectory."""
    bp = model.bipartition
    worst = 0.0
    for i in _sample_indices(record):
        rho_se = _joint_density(model, record, int(i))
        delta_env = partial_trace(rho_se[0], bp, "environment") - partial_trace(
            rho_se[1], bp, "environment"
        )
        for j, branch in ((0, record.term1_branch1), (1, record.term1_branch2)):
            rho_s = partial_trace(rho_se[j], bp, "system")
            via_couplings = bound_term1_from_couplings(model, rho_s, delta_env)
            direct = bound_term1_branch(model, rho_s, delta_env)
            worst = max(worst, abs(via_couplings - float(branch[i])), abs(direct - float(branch[i])))
    return CheckResult(f"{tag}: coupling route", worst <= 1e-10, f"max mismatch {worst:.3e}")


def _kernel_oracle_check(tag: str, model: Model, record) -> CheckResult:
    """Kernel columns against the full-matrix oracles along the trajectory.

    Both paths share the diagnostics kernel, so this is the comparison
    with an independent implementation.
    """
    bp = model.bipartition
    worst, worst_col = 0.0, ""
    for i in _sample_indices(record):
        rho_se = _joint_density(model, record, int(i))
        chi = [correlation_operator(r, bp) for r in rho_se]
        bound = distinguishability_bound(model, *rho_se)
        expected = {
            "x_corr": correlation_distance(*chi),
            "chi1_norm": trace_norm(chi[0]),
            "chi2_norm": trace_norm(chi[1]),
            "bound_term2": bound.term2,
            "bound_total": bound.total,
            "mutual_info_1": mutual_information(rho_se[0], bp),
            "mutual_info_2": mutual_information(rho_se[1], bp),
        }
        for col, value in expected.items():
            gap = abs(float(getattr(record, col)[i]) - value)
            if gap > worst:
                worst, worst_col = gap, col
    return CheckResult(
        f"{tag}: kernel oracles", worst <= 1e-10, f"max gap {worst:.3e} ({worst_col})"
    )


def _joint_density(model: Model, record, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-space joint density matrices at sample i, from carrier states."""
    d = model.dimension
    out = []
    for states in (record.states_1, record.states_2):
        c = states[i]
        if record.carrier is not None:
            v = np.zeros(d, dtype=np.complex128)
            v[record.carrier] = c
        else:
            v = c
        out.append(np.outer(v, v.conj()))
    return out[0], out[1]


def structural_suite(
    n_total_dense: int = 6,
    n_total_subspace: int = 10,
    n_steps: int = 300,
    b_field: float = 0.01,
) -> list[CheckResult]:
    """Conservation, chi-trace, dual-route, kernel-oracle and cross-path checks on chains."""
    checks: list[CheckResult] = []

    dense_params = ChainParams(n_total=n_total_dense, b_field=b_field)
    dense_model = build_chain_model(dense_params)
    grid = TimeGrid(t_max=float(n_total_dense - 1), n_steps=n_steps)
    dense_rec = run_trajectory(dense_model, grid, path="dense")
    sub_rec = run_trajectory(dense_model, grid, path="subspace")
    checks += _trajectory_checks(f"dense n={n_total_dense}", dense_model, dense_rec)
    checks.append(_gamma_route_check(f"dense n={n_total_dense}", dense_model, dense_rec))
    checks.append(_kernel_oracle_check(f"dense n={n_total_dense}", dense_model, dense_rec))

    worst_col = ""
    worst = 0.0
    for col in TRAJECTORY_COLUMNS:
        gap = float(np.max(np.abs(getattr(dense_rec, col) - getattr(sub_rec, col))))
        if gap > worst:
            worst, worst_col = gap, col
    checks.append(
        CheckResult(
            f"paths agree n={n_total_dense}",
            worst <= 1e-9,
            f"max column gap {worst:.3e} ({worst_col})",
        )
    )

    sub_params = ChainParams(n_total=n_total_subspace, b_field=b_field)
    sub_model = build_chain_model(sub_params)
    # the bound comparison below needs the fine default grid; a coarser
    # one leaks finite-difference error into sigma past the tolerance
    sub_grid = TimeGrid(t_max=float(n_total_subspace - 1), n_steps=2000)
    big_rec = run_trajectory(sub_model, sub_grid, path="subspace")
    checks += _trajectory_checks(f"subspace n={n_total_subspace}", sub_model, big_rec)
    checks.append(_gamma_route_check(f"subspace n={n_total_subspace}", sub_model, big_rec))

    sigma_margin = float(np.max(big_rec.sigma - big_rec.bound_total))
    checks.append(
        CheckResult(
            f"subspace n={n_total_subspace}: bound",
            sigma_margin <= BOUND_TOLERANCE,
            f"max(sigma - bound) = {sigma_margin:.3e}",
        )
    )
    return checks


def run_all_checks(n_models: int = 50, seed: int = 7) -> tuple[list[CheckResult], float]:
    """Full verification: bound suite plus structural suite."""
    checks, worst, _ = bound_suite(n_models=n_models, seed=seed)
    checks += structural_suite()
    return checks, worst
