import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from backflow.diagnostics import (
    bound_term1_branch,
    bound_term1_from_couplings,
    correlation_distance,
    correlation_operator,
    didt_from_generator,
    distinguishability_bound,
    env_indistinguishability,
    mutual_information,
    pair_step_series,
    sigma_from_generator,
    trace_distance,
)
from backflow.linalg import (
    Bipartition,
    haar_random_state,
    partial_trace,
    purity,
    trace_norm,
    von_neumann_entropy,
)
from backflow.model import ChainParams, build_chain_model, total_sz_diagonal


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_trace_distance_values():
    z0 = np.diag([1.0, 0.0]).astype(complex)
    z1 = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(z0, z1) - 1.0) < 1e-14
    assert trace_distance(z0, z0) == 0.0
    # diagonal qubit states: distance is the population gap
    rng = np.random.default_rng(0)
    for _ in range(10):
        p, q = rng.uniform(size=2)
        d = trace_distance(np.diag([p, 1 - p]), np.diag([q, 1 - q]))
        assert abs(d - abs(p - q)) < 1e-12


def test_trace_distance_contractivity():
    # discarding a subsystem never increases distinguishability
    rng = np.random.default_rng(1)
    for d_sys, d_env in ((2, 3), (3, 4)):
        bp = Bipartition(d_sys, d_env)
        for _ in range(8):
            r1 = random_density(rng, d_sys * d_env)
            r2 = random_density(rng, d_sys * d_env)
            full = trace_distance(r1, r2)
            red = trace_distance(
                partial_trace(r1, bp, "system"), partial_trace(r2, bp, "system")
            )
            assert red <= full + 1e-12


def test_correlation_operator_bell():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    bp = Bipartition(2, 2)
    chi = correlation_operator(rho, bp)
    assert np.max(np.abs(partial_trace(chi, bp, "system"))) < 1e-14
    assert np.max(np.abs(partial_trace(chi, bp, "environment"))) < 1e-14
    # projector minus I/4: eigenvalues 3/4 and three times -1/4
    assert abs(trace_norm(chi) - 1.5) < 1e-12


def test_correlation_operator_traceless_everywhere():
    rng = np.random.default_rng(2)
    bp = Bipartition(3, 4)
    for _ in range(6):
        rho = random_density(rng, 12)
        chi = correlation_operator(rho, bp)
        assert np.max(np.abs(partial_trace(chi, bp, "system"))) < 1e-12
        assert np.max(np.abs(partial_trace(chi, bp, "environment"))) < 1e-12


def test_env_indistinguishability_bounds():
    rng = np.random.default_rng(3)
    for _ in range(6):
        r1 = random_density(rng, 4)
        r2 = random_density(rng, 4)
        e = env_indistinguishability(r1, r2)
        assert -1e-12 <= e <= 1.0 + 1e-12
    assert abs(env_indistinguishability(np.eye(4) / 4, np.eye(4) / 4) - 1.0) < 1e-14


def test_mutual_information_bell_and_product():
    bp = Bipartition(2, 2)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert abs(mutual_information(np.outer(bell, bell.conj()), bp) - 2.0) < 1e-12
    prod = np.kron(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])).astype(complex)
    assert abs(mutual_information(prod, bp)) < 1e-12


def test_mutual_information_pure_state_doubling():
    # for a pure joint state the total correlation is twice the local entropy
    rng = np.random.default_rng(4)
    for d_sys, d_env in ((2, 5), (3, 3)):
        bp = Bipartition(d_sys, d_env)
        for _ in range(5):
            psi = haar_random_state(d_sys * d_env, rng)
            rho = np.outer(psi, psi.conj())
            mi = mutual_information(rho, bp)
            s = von_neumann_entropy(partial_trace(rho, bp, "system"))
            assert abs(mi - 2 * s) < 1e-10


def bound_oracle(h, bp, rho1_se, rho2_se):
    """The two bound terms assembled from scratch, full-space algebra."""
    def pt(m, keep):
        return partial_trace(m, bp, keep)

    rho_s = [pt(rho1_se, "system"), pt(rho2_se, "system")]
    rho_e = [pt(rho1_se, "environment"), pt(rho2_se, "environment")]
    delta_env = rho_e[0] - rho_e[1]
    branches = []
    for k in (0, 1):
        x = np.kron(rho_s[k], delta_env)
        branches.append(trace_norm(pt(h @ x - x @ h, "system")))
    chi1 = rho1_se - np.kron(rho_s[0], rho_e[0])
    chi2 = rho2_se - np.kron(rho_s[1], rho_e[1])
    dchi = chi1 - chi2
    term2 = trace_norm(pt(h @ dchi - dchi @ h, "system"))
    return min(branches), term2


def test_distinguishability_bound_matches_oracle():
    rng = np.random.default_rng(5)
    for d_sys, d_env in ((2, 2), (2, 4), (3, 3)):
        bp = Bipartition(d_sys, d_env)
        d = d_sys * d_env
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (a + a.conj().T) / 2

        class Bare:
            hamiltonian = h
            bipartition = bp
            interaction_terms = None

        for _ in range(5):
            r1 = random_density(rng, d)
            r2 = random_density(rng, d)
            got = distinguishability_bound(Bare, r1, r2)
            t1, t2 = bound_oracle(h, bp, r1, r2)
            assert abs(got.term1 - t1) < 1e-10
            assert abs(got.term2 - t2) < 1e-10
            assert abs(got.total - 0.5 * (t1 + t2)) < 1e-10


def test_coupling_route_equals_direct():
    # the interaction-term route drops environment-local parts; equal results
    model = build_chain_model(ChainParams(n_total=3, j_sys=0.8, b_field=0.2))
    rng = np.random.default_rng(6)
    for _ in range(8):
        rho_s = random_density(rng, 2)
        e1 = random_density(rng, 4)
        e2 = random_density(rng, 4)
        delta = e1 - e2
        direct = bound_term1_branch(model, rho_s, delta)
        via = bound_term1_from_couplings(model, rho_s, delta)
        assert abs(direct - via) < 1e-10


def test_coupling_route_needs_terms():
    bp = Bipartition(2, 2)

    class Bare:
        hamiltonian = np.eye(4, dtype=complex)
        bipartition = bp
        interaction_terms = None

    with pytest.raises(ValueError):
        bound_term1_from_couplings(Bare, np.eye(2) / 2, np.zeros((2, 2)))


def assert_kernel_matches_oracles(h, bp, s1, s2, sz_diagonal=None, **kw):
    """Every kernel column at every time against the full-matrix functions; returns the kernel's columns."""
    model = SimpleNamespace(hamiltonian=h, bipartition=bp)
    out = pair_step_series(h, bp.d_system, bp.d_environment, s1, s2, sz_diagonal=sz_diagonal, **kw)
    for i in range(s1.shape[0]):
        psi = (s1[i], s2[i])
        rho = [np.outer(v, v.conj()) for v in psi]
        rs = [partial_trace(r, bp, "system") for r in rho]
        re = [partial_trace(r, bp, "environment") for r in rho]
        chi = [correlation_operator(r, bp) for r in rho]
        bound = distinguishability_bound(model, rho[0], rho[1])
        expected = {
            "d_system": trace_distance(rs[0], rs[1]),
            "d_env": trace_distance(re[0], re[1]),
            "e_indist": env_indistinguishability(re[0], re[1]),
            "x_corr": correlation_distance(chi[0], chi[1]),
            "bound_term1": bound.term1,
            "bound_term2": bound.term2,
            "bound_total": bound.total,
            "sigma": sigma_from_generator(model, rho[0], rho[1]),
            "didt_1": didt_from_generator(model, rho[0]),
        }
        for j in (1, 2):
            expected[f"chi{j}_norm"] = trace_norm(chi[j - 1])
            expected[f"term1_branch{j}"] = bound_term1_branch(model, rs[j - 1], re[0] - re[1])
            expected[f"svn_system_{j}"] = von_neumann_entropy(rs[j - 1])
            expected[f"mutual_info_{j}"] = mutual_information(rho[j - 1], bp)
            expected[f"purity_{j}"] = purity(rho[j - 1])
            expected[f"chi{j}_ptrace_sys"] = 0.0
            expected[f"chi{j}_ptrace_env"] = 0.0
            if sz_diagonal is not None:
                expected[f"magnetization_{j}"] = float(np.vdot(psi[j - 1], sz_diagonal * psi[j - 1]).real)
        for key, value in expected.items():
            assert abs(out[key][i] - value) < 1e-12, (key, i, out[key][i], value)
    if sz_diagonal is None:
        assert np.all(np.isnan(out["magnetization_1"]))
        assert np.all(np.isnan(out["magnetization_2"]))
    return out


def random_hamiltonian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def haar_stack(rng, d, n_times=4):
    return np.array([haar_random_state(d, rng) for _ in range(n_times)])


def test_pair_step_series_matches_scalar_reference():
    # batched kernel against one-time scalar evaluations, full space
    model = build_chain_model(ChainParams(n_total=3, b_field=0.1))
    h = model.hamiltonian
    n_times = 9
    w, v = np.linalg.eigh(h)
    psi1 = np.kron(np.array([1, 1]) / np.sqrt(2), [1, 0, 0, 0]).astype(complex)
    psi2 = np.kron(np.array([1, -1]) / np.sqrt(2), [1, 0, 0, 0]).astype(complex)
    times = np.linspace(0.0, 3.0, n_times)
    phases = np.exp(-1j * np.outer(times, w))
    s1 = (v @ (phases * (v.conj().T @ psi1)).T).T
    s2 = (v @ (phases * (v.conj().T @ psi2)).T).T
    assert_kernel_matches_oracles(h, model.bipartition, s1, s2, chunk_elements=64)


def test_pair_step_series_matches_oracles_on_edge_shapes():
    rng = np.random.default_rng(9)
    # a qutrit on a qubit environment (k = d_E < 2 d_S), a trivial system, and
    # qubits on environments with k = d_E < 4, the last three on the closed forms
    for ds, de in ((3, 2), (1, 5), (2, 1), (2, 2), (2, 3)):
        d = ds * de
        assert_kernel_matches_oracles(
            random_hamiltonian(rng, d), Bipartition(ds, de), haar_stack(rng, d), haar_stack(rng, d)
        )

    model = build_chain_model(ChainParams(n_total=4))
    sz = total_sz_diagonal(4)

    def env_rank(psi1, psi2):
        # rank of [P_1^T, P_2^T], the span W the kernel compresses onto
        return np.linalg.matrix_rank(np.concatenate([v.reshape(2, 8).T for v in (psi1, psi2)], axis=1))

    # the canonical pair at t = 0 shares its environment factor
    v1, v2 = (np.kron(vs, ve) for vs, ve in model.initial_pair)
    assert env_rank(v1, v2) == 1
    assert_kernel_matches_oracles(model.hamiltonian, model.bipartition, v1[None], v2[None], sz)
    # Haar-random entangled states: k = 2 d_S
    s1, s2 = haar_stack(rng, 16), haar_stack(rng, 16)
    assert env_rank(s1[0], s2[0]) == 4
    assert_kernel_matches_oracles(model.hamiltonian, model.bipartition, s1, s2, sz)


def entangled_stack(rng, de, weight, n_times=3):
    """sqrt(1 - weight)|a>|b> + sqrt(weight)|a'>|b'> with random orthonormal pairs, one per time."""
    out = []
    for _ in range(n_times):
        sys_basis = np.linalg.qr(random_hamiltonian(rng, 2))[0]
        env_basis = np.linalg.qr(random_hamiltonian(rng, de))[0]
        out.append(
            np.sqrt(1.0 - weight) * np.kron(sys_basis[:, 0], env_basis[:, 0])
            + np.sqrt(weight) * np.kron(sys_basis[:, 1], env_basis[:, 1])
        )
    return np.array(out)


def test_qubit_route_on_product_identical_and_maximally_entangled_pairs():
    rng = np.random.default_rng(14)
    bp = Bipartition(2, 4)
    h = random_hamiltonian(rng, 8)
    # product states, as at t = 0: rank-one coefficients, det rho_S = 0
    product = entangled_stack(rng, 4, 0.0)
    out = assert_kernel_matches_oracles(h, bp, product, entangled_stack(rng, 4, 0.0))
    assert np.all(out["chi1_norm"] < 1e-15) and np.all(out["chi2_norm"] < 1e-15)
    # an identical pair: Delta = 0, so D = 0 and sigma = 0
    same = haar_stack(rng, 8)
    out = assert_kernel_matches_oracles(h, bp, same, same.copy())
    assert np.all(np.abs(out["sigma"]) < 1e-14) and np.all(out["d_system"] < 1e-14)
    # maximally entangled states: rho_S^1 = I/2 is degenerate in didt_1
    bell = entangled_stack(rng, 4, 0.5)
    out = assert_kernel_matches_oracles(h, bp, bell, haar_stack(rng, 8, n_times=3))
    assert np.allclose(out["svn_system_1"], 1.0, atol=1e-14)
    assert np.allclose(out["chi1_norm"], 1.5, atol=1e-14)
    # the same Bell state twice: rho_S^1 = I/2 and Delta = 0 with no round-off at all
    bell = np.zeros((1, 8), dtype=complex)
    bell[0, [0, 5]] = 1.0 / np.sqrt(2.0)
    out = assert_kernel_matches_oracles(h, bp, bell, bell.copy())
    assert out["sigma"][0] == 0.0 and out["didt_1"][0] == 0.0


def test_qubit_route_keeps_chi_norm_near_a_product_state():
    # Schmidt weight 1e-20: det rho_S = 1e-20 (1 - 1e-20) and ||chi||_1 = 2 sqrt(det) + 2 det,
    # which p_0 p_1 from round-off eigenvalues would put off by up to ~1e-8
    rng = np.random.default_rng(15)
    weight = 1e-20
    s1, s2 = entangled_stack(rng, 4, weight), entangled_stack(rng, 4, weight)
    out = assert_kernel_matches_oracles(random_hamiltonian(rng, 8), Bipartition(2, 4), s1, s2)
    exact = 2.0 * np.sqrt(weight * (1.0 - weight)) + 2.0 * weight * (1.0 - weight)
    for key in ("chi1_norm", "chi2_norm"):
        assert np.max(np.abs(out[key] - exact)) < 1e-13, key


def test_pair_step_series_memory_stays_below_one_dense_matrix():
    # dense n = 11 chain, d = 2048: one d x d complex matrix is 64 MiB
    model = build_chain_model(ChainParams(n_total=11))
    h = model.hamiltonian
    d = h.shape[0]
    rng = np.random.default_rng(10)
    s1 = np.array([haar_random_state(d, rng) for _ in range(8)])
    s2 = np.array([haar_random_state(d, rng) for _ in range(8)])
    sz = total_sz_diagonal(11)
    tracemalloc.start()
    try:
        pair_step_series(h, 2, d // 2, s1, s2, sz_diagonal=sz)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d * d * np.dtype(np.complex128).itemsize, peak


def test_pair_step_series_chunk_bounds_every_per_time_array(chain10_model, chain10_record):
    # the default figure run in carrier coordinates: 2001 times, with every array of a
    # chunk together under the default chunk_elements complex entries
    carrier = chain10_record.carrier
    h = chain10_model.hamiltonian[np.ix_(carrier, carrier)]
    tracemalloc.start()
    try:
        pair_step_series(h, 2, 10, chain10_record.states_1, chain10_record.states_2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000 * np.dtype(np.complex128).itemsize, peak


def test_pair_step_series_chunking_invariant():
    model = build_chain_model(ChainParams(n_total=3))
    h = model.hamiltonian
    rng = np.random.default_rng(8)
    s1 = np.array([haar_random_state(8, rng) for _ in range(7)])
    s2 = np.array([haar_random_state(8, rng) for _ in range(7)])
    a = pair_step_series(h, 2, 4, s1, s2, chunk_elements=10**9)
    b = pair_step_series(h, 2, 4, s1, s2, chunk_elements=64)
    for key in a:
        ga, gb = a[key], b[key]
        if np.all(np.isnan(ga)) and np.all(np.isnan(gb)):
            continue
        assert np.max(np.abs(ga - gb)) < 1e-12, key
