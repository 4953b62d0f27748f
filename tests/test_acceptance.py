"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and records a single
PASS/FAIL line; the lines are echoed in the terminal summary. Criteria
run at their stated tolerances against frozen regression values, so a
failure here means the package no longer reproduces its reference
behaviour (or never did; see the notes next to the affected test).
"""

import time

import numpy as np
import pytest

from backflow import (
    Bipartition,
    ChainParams,
    PairFamily,
    TimeGrid,
    blp_integral,
    build_chain_model,
    down_up_crossings,
    blp_measure,
    evolve,
    hermitian_eig,
    interval_contributions,
    partial_trace,
    run_trajectory,
    trace_norm,
)
from backflow.verify import (
    BOUND_TOLERANCE,
    TRAJECTORY_COLUMNS,
    bound_suite,
    structural_suite,
)

# regression value frozen from the reference chain (n_total=10, j0=j=1,
# b=0.01, t in [0,9], 2000 steps) with sigma taken from the generator:
# the smallest gap bound_total - sigma over the first backflow interval.
# Finite-difference sigma on 10x and 100x finer grids, sampled on this
# grid, gives 2.32107e-03 and 2.3222932e-03, converging at O(dt^2).
FROZEN_FIRST_INTERVAL_GAP = 2.322305549801e-03
# frozen from the same run: environment indistinguishability at the
# positive-going zero crossings of sigma stays below this
FROZEN_E_AT_CROSSINGS = 0.05

MARKOVIAN_WINDOW_T_END = 2.25


@pytest.fixture(scope="module")
def report(request):
    def _report(num, name, ok, detail=""):
        line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        request.config._acceptance_lines.append(line)
        print(line)
        return ok

    return _report


@pytest.fixture(scope="module")
def reference_run():
    """The reference chain trajectory plus its wall-clock time."""
    model = build_chain_model(ChainParams(n_total=10))
    t0 = time.perf_counter()
    record = run_trajectory(model, TimeGrid(t_max=9.0, n_steps=2000), path="subspace")
    elapsed = time.perf_counter() - t0
    return model, record, elapsed


def test_01_bound_on_random_models(report):
    t0 = time.perf_counter()
    checks, worst, rows = bound_suite(n_models=50, seed=7)
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in checks) and len(rows) == 50 and elapsed < 30.0
    report(1, "bound on 50 random models", ok,
           f"worst margin {worst:.3e}, {elapsed:.1f} s")
    assert ok, f"{[c.line() for c in checks]}, elapsed {elapsed:.1f} s"


def test_02_chain_backflow_and_bound_tightness(report, reference_run):
    _, rec, elapsed = reference_run
    intervals = [(a, b) for a, b, _ in interval_contributions(rec.d_system, rec.times)]
    has_backflow = len(intervals) >= 1
    holds = bool(np.all(rec.sigma <= rec.bound_total + BOUND_TOLERANCE))
    lo, hi = intervals[0]
    mask = (rec.times >= lo) & (rec.times <= hi)
    gap = float(np.min(rec.bound_total[mask] - rec.sigma[mask]))
    tight = abs(gap - FROZEN_FIRST_INTERVAL_GAP) <= 1e-6 * FROZEN_FIRST_INTERVAL_GAP
    fast = elapsed < 30.0
    ok = has_backflow and holds and tight and fast
    report(2, "chain bound holds and stays tight", ok,
           f"{len(intervals)} backflow intervals, first gap {gap:.6e}, {elapsed:.1f} s")
    assert ok, (
        f"intervals={len(intervals)}, bound holds={holds}, "
        f"first-interval gap={gap!r} vs frozen {FROZEN_FIRST_INTERVAL_GAP!r}, "
        f"elapsed {elapsed:.1f} s"
    )


def _local_minima_times(series, times):
    s = np.asarray(series, dtype=np.float64)
    idx = [i for i in range(1, s.size - 1) if s[i] <= s[i - 1] and s[i] <= s[i + 1]]
    return times[idx]


def test_03_correlation_dips_at_backflow_onsets(report, reference_run):
    _, rec, _ = reference_run
    crossings = down_up_crossings(rec.sigma, rec.times)
    assert crossings, "reference run lost its backflow onsets"
    worst_dist = 0.0
    for series in (rec.e_indist, rec.x_corr, rec.chi1_norm, rec.chi2_norm):
        minima = _local_minima_times(series, rec.times)
        for c in crossings:
            worst_dist = max(worst_dist, float(np.min(np.abs(minima - c))))
    e_at = np.interp(crossings, rec.times, rec.e_indist)
    ok = worst_dist <= 0.1 and float(e_at.max()) < FROZEN_E_AT_CROSSINGS
    report(3, "correlations dip at backflow onsets", ok,
           f"{len(crossings)} onsets, worst dip offset {worst_dist:.4f}, "
           f"max E {float(e_at.max()):.4f}")
    assert ok, f"worst minima offset {worst_dist}, E at crossings max {e_at.max()}"


def test_04_entropy_identities(report, reference_run):
    _, rec, _ = reference_run
    mi_vs_entropy = float(np.max(np.abs(rec.mutual_info_1 - 2.0 * rec.svn_system_1)))
    entropy_pair = float(np.max(np.abs(rec.svn_system_1 - rec.svn_system_2)))
    mi_start = float(abs(rec.mutual_info_1[0]))
    ok = mi_vs_entropy <= 1e-9 and entropy_pair <= 1e-10 and mi_start <= 1e-10
    report(4, "pure-pair entropy identities", ok,
           f"|I - 2S| {mi_vs_entropy:.2e}, |S1 - S2| {entropy_pair:.2e}, "
           f"I(0) {mi_start:.2e}")
    assert ok, (mi_vs_entropy, entropy_pair, mi_start)


def test_05_markovian_window_at_half_field(report):
    # Known failure. With the interaction and intra-chain couplings equal
    # the distance follows a Bessel envelope whose revivals sit at
    # t = 0.48, 0.88, 1.27, ... for every field strength, so backflow
    # starts well inside any window that contains the first revival.
    # Kept at the stated tolerances rather than widened to pass; see the
    # README's test notes for the field scan and the regime that does
    # relax monotonically (weaker system coupling, j0 <= j/2).
    model = build_chain_model(ChainParams(n_total=10, b_field=0.5))
    rec = run_trajectory(model, TimeGrid(t_max=9.0, n_steps=2000), path="subspace")
    window = rec.times <= MARKOVIAN_WINDOW_T_END + 1e-12
    w_sigma = float(rec.sigma[window].max())
    w_measure = blp_integral(rec.d_system[window])
    ok = w_sigma <= 1e-6 and w_measure <= 1e-6
    report(5, "markovian window at b=j/2", ok,
           f"window max sigma {w_sigma:.3e}, window measure {w_measure:.3e}")
    assert ok, (
        f"window [0, {MARKOVIAN_WINDOW_T_END}]: max sigma {w_sigma:.4f}, "
        f"measure {w_measure:.4f}; backflow persists at this point for every "
        f"field strength when the two couplings are equal"
    )


def test_06_generator_first_order_convergence(report):
    # the finite-time increment of either bound ingredient converges to
    # its commutator generator linearly in the step
    model = build_chain_model(ChainParams(n_total=5)).dense
    h, bp = model.hamiltonian, model.bipartition
    vals, vecs = hermitian_eig(h)
    v0 = [np.kron(vs, ve) for vs, ve in model.initial_pair]
    deltas = np.array([1e-2, 1e-3, 1e-4])
    rng = np.random.default_rng(7)
    slopes = []
    times = rng.uniform(0.3, 4.0, 5)
    states = evolve(h, v0, times)
    for i in range(times.size):
        psi = [s[i] for s in states]
        rho = [np.outer(p, p.conj()) for p in psi]
        rho_s = [partial_trace(r, bp, keep="system") for r in rho]
        rho_e = [partial_trace(r, bp, keep="environment") for r in rho]
        chi = [rho[j] - np.kron(rho_s[j], rho_e[j]) for j in range(2)]
        for x in (np.kron(rho_s[0], rho_e[0] - rho_e[1]), chi[0] - chi[1]):
            generator = partial_trace(-1j * (h @ x - x @ h), bp, keep="system")
            disc = []
            for d in deltas:
                u = (vecs * np.exp(-1j * vals * d)) @ vecs.conj().T
                finite = partial_trace(u @ x @ u.conj().T - x, bp, keep="system") / d
                disc.append(trace_norm(finite - generator))
            slopes.append(float(np.polyfit(np.log(deltas), np.log(disc), 1)[0]))
    slopes = np.array(slopes)
    ok = bool(np.all(np.abs(slopes - 1.0) <= 0.2))
    report(6, "generator converges first order", ok,
           f"slopes in [{slopes.min():.3f}, {slopes.max():.3f}]")
    assert ok, f"log-log slopes {slopes}"


def _trace_norm_oracle(a):
    w = np.linalg.eigvalsh(a.conj().T @ a)
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def _partial_trace_oracle(x, ds, de, keep):
    if keep == "system":
        out = np.zeros((ds, ds), dtype=np.complex128)
        for i in range(ds):
            for j in range(ds):
                for k in range(de):
                    out[i, j] += x[i * de + k, j * de + k]
    else:
        out = np.zeros((de, de), dtype=np.complex128)
        for k in range(de):
            for l in range(de):
                for i in range(ds):
                    out[k, l] += x[i * de + k, i * de + l]
    return out


def _taylor_unitary(h, t, halvings=6, terms=30):
    a = -1j * (t / 2**halvings) * h
    u = np.eye(h.shape[0], dtype=np.complex128)
    term = np.eye(h.shape[0], dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ a / k
        u = u + term
    for _ in range(halvings):
        u = u @ u
    return u


def test_07_path_and_kernel_oracles(report):
    model = build_chain_model(ChainParams(n_total=7))
    grid = TimeGrid(t_max=6.0, n_steps=300)
    dense = run_trajectory(model, grid, path="dense")
    subspace = run_trajectory(model, grid, path="subspace")
    worst_col = 0.0
    for name in TRAJECTORY_COLUMNS:
        diff = float(np.max(np.abs(getattr(dense, name) - getattr(subspace, name))))
        worst_col = max(worst_col, diff)
    paths_ok = worst_col <= 1e-9

    rng = np.random.default_rng(7)
    tn_err = 0.0
    for d in (2, 3, 4, 8):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        tn_err = max(tn_err, abs(trace_norm(a) - _trace_norm_oracle(a)))
    pt_err = 0.0
    for ds, de in ((2, 3), (4, 2)):
        x = rng.normal(size=(ds * de,) * 2) + 1j * rng.normal(size=(ds * de,) * 2)
        bp = Bipartition(ds, de)
        for keep in ("system", "environment"):
            pt_err = max(pt_err, float(np.max(np.abs(
                partial_trace(x, bp, keep=keep) - _partial_trace_oracle(x, ds, de, keep)
            ))))
    small = build_chain_model(ChainParams(n_total=3)).dense
    small_vals, small_vecs = hermitian_eig(small.hamiltonian)
    u_spectral = (small_vecs * np.exp(-1j * small_vals * 0.7)) @ small_vecs.conj().T
    prop_err = float(np.max(np.abs(u_spectral - _taylor_unitary(small.hamiltonian, 0.7))))
    oracles_ok = tn_err <= 1e-10 and pt_err <= 1e-12 and prop_err <= 1e-10

    ok = paths_ok and oracles_ok
    report(7, "paths agree and kernels match oracles", ok,
           f"worst column diff {worst_col:.2e}, oracle errs "
           f"{tn_err:.2e}/{pt_err:.2e}/{prop_err:.2e}")
    assert ok, (worst_col, tn_err, pt_err, prop_err)


def test_08_structural_invariants(report):
    checks = structural_suite()
    names = " | ".join(c.name for c in checks)
    required = ("purity", "magnetization", "chi partial traces", "coupling route", "bound")
    covered = all(any(frag in c.name for c in checks) for frag in required)
    ok = all(c.passed for c in checks) and covered
    report(8, "structural invariants", ok,
           f"{sum(c.passed for c in checks)}/{len(checks)} checks")
    assert ok, "\n".join(c.line() for c in checks) + f"\nnames: {names}"


def test_09_equatorial_symmetry(report):
    rep = blp_measure(ChainParams(n_total=10), TimeGrid(9.0, 2000), PairFamily("equatorial:12"))
    values = np.array([v for _, v in rep.per_pair_values])
    spread = float(values.max() - values.min())
    ok = values.size == 12 and spread <= 1e-9 and rep.n_measure > 0
    report(9, "equatorial pairs are equivalent", ok,
           f"spread {spread:.2e} over {values.size} pairs")
    assert ok, f"values {values}"


def test_10_runtime_budgets(report, reference_run):
    _, _, subspace_elapsed = reference_run
    model = build_chain_model(ChainParams(n_total=7))
    t0 = time.perf_counter()
    run_trajectory(model, TimeGrid(t_max=6.0, n_steps=500), path="dense")
    dense_elapsed = time.perf_counter() - t0
    ok = subspace_elapsed < 30.0 and dense_elapsed < 60.0
    report(10, "runtime budgets", ok,
           f"reference {subspace_elapsed:.1f} s, dense n7 {dense_elapsed:.1f} s")
    assert ok, (subspace_elapsed, dense_elapsed)
