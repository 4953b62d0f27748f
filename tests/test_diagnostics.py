import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from backflow import diagnostics
from backflow.diagnostics import (
    bound_term1_branch,
    bound_term1_from_couplings,
    correlation_distance,
    correlation_operator,
    didt_from_generator,
    distinguishability_bound,
    mutual_information,
    pair_step_series,
    sigma_from_generator,
    trace_distance,
)
from backflow.evolution import evolve
from backflow.linalg import (
    Bipartition,
    haar_random_state,
    partial_trace,
    purity,
    trace_norm,
    von_neumann_entropy,
)
from backflow.model import ChainParams, build_chain_model, total_sz_diagonal
from backflow.verify import random_generic_model


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


def test_trace_distance_takes_stacks():
    # one pair gives a numpy scalar; a stack gives one distance per pair, the pair's own
    rng = np.random.default_rng(2)
    r1 = np.array([random_density(rng, 3) for _ in range(4)])
    r2 = np.array([random_density(rng, 3) for _ in range(4)])
    single = trace_distance(r1[0], r2[0])
    assert isinstance(single, np.float64) and np.ndim(single) == 0
    stacked = trace_distance(r1, r2)
    assert stacked.shape == (4,)
    assert np.array_equal(stacked, [trace_distance(a, b) for a, b in zip(r1, r2)])


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

        for _ in range(5):
            r1 = random_density(rng, d)
            r2 = random_density(rng, d)
            got = distinguishability_bound(Bare, r1, r2)
            t1, t2 = bound_oracle(h, bp, r1, r2)
            assert abs(got.term1 - t1) < 1e-10
            assert abs(got.term2 - t2) < 1e-10
            assert abs(got.total - 0.5 * (t1 + t2)) < 1e-10


def test_stacked_oracles_equal_their_loops():
    # one call on a (n, d, d) stack gives, bit for bit, the n single-matrix calls
    rng = np.random.default_rng(19)
    chain = build_chain_model(ChainParams(n_total=6, b_field=0.01))
    models = [random_generic_model(rng, d_env) for d_env in (2, 3, 4, 8)] + [chain.dense]
    times = np.linspace(0.25, 5.0, 4)
    for model in models:
        bp = model.bipartition
        states = evolve(model.hamiltonian, [np.kron(vs, ve) for vs, ve in model.initial_pair], times)
        rho = [s[:, :, None] * s.conj()[:, None, :] for s in states]
        for k, s in enumerate(states):
            assert np.array_equal(rho[k][2], np.outer(s[2], s[2].conj()))
        chi = [correlation_operator(r, bp) for r in rho]
        oracles = [
            (lambda r1, r2: np.stack(distinguishability_bound(model, r1, r2), axis=-1), rho),
            (lambda r1, r2: sigma_from_generator(model, r1, r2), rho),
            (lambda r: didt_from_generator(model, r), rho[:1]),
            (lambda r: mutual_information(r, bp), rho[:1]),
            (von_neumann_entropy, rho[:1]),
            (lambda r: correlation_operator(r, bp), rho[1:]),
            (correlation_distance, chi),
            (trace_norm, chi[:1]),
            (lambda r: partial_trace(r, bp, "system"), rho[:1]),
            (lambda r: partial_trace(r, bp, "environment"), rho[:1]),
        ]
        for oracle, args in oracles:
            looped = np.stack([oracle(*(a[k] for a in args)) for k in range(times.size)])
            assert np.array_equal(oracle(*args), looped)

        # the first bound term: both branches of each time, and every time at once
        p = [s.reshape(-1, bp.d_system, bp.d_environment) for s in states]
        rho_s = np.stack([q @ q.conj().transpose(0, 2, 1) for q in p], axis=1)
        delta_env = p[0].transpose(0, 2, 1) @ p[0].conj() - p[1].transpose(0, 2, 1) @ p[1].conj()
        routes = [lambda r, dl: bound_term1_branch(model, r, dl)]
        if model is chain.dense:
            terms = chain.coupling_terms()
            routes.append(lambda r, dl: bound_term1_from_couplings(terms, r, dl))
        for route in routes:
            looped = np.array([[route(rho_s[k, j], delta_env[k]) for j in (0, 1)] for k in range(times.size)])
            assert np.array_equal(np.stack([route(rho_s[k], delta_env[k]) for k in range(times.size)]), looped)
            assert np.array_equal(route(rho_s, delta_env[:, None]), looped)

    for shape in ((2, 3), (4, 2, 3)):
        with pytest.raises(ValueError):
            trace_norm(np.ones(shape))
    with pytest.raises(ValueError):
        partial_trace(np.ones((3, 6, 6)), Bipartition(2, 4))


def test_coupling_route_equals_direct():
    # the coupling-term route drops environment-local parts; equal results
    chain = build_chain_model(ChainParams(n_total=3, j_sys=0.8, b_field=0.2))
    model, terms = chain.dense, chain.coupling_terms()
    rng = np.random.default_rng(6)
    for _ in range(8):
        rho_s = random_density(rng, 2)
        e1 = random_density(rng, 4)
        e2 = random_density(rng, 4)
        delta = e1 - e2
        direct = bound_term1_branch(model, rho_s, delta)
        via = bound_term1_from_couplings(terms, rho_s, delta)
        assert abs(direct - via) < 1e-10


def test_term1_branch_contracts_hamiltonian_blocks():
    # Tr_E [H, rho (x) Delta] = [G, rho] with G_su = Tr(H_su Delta), against the commutator itself
    rng = np.random.default_rng(13)
    for d_sys, d_env in ((2, 3), (3, 2), (2, 8)):
        bp = Bipartition(d_sys, d_env)
        d = d_sys * d_env
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (a + a.conj().T) / 2
        model = SimpleNamespace(hamiltonian=h, bipartition=bp)
        for _ in range(5):
            rho_s = random_density(rng, d_sys)
            delta = random_density(rng, d_env) - random_density(rng, d_env)
            joint = np.kron(rho_s, delta)
            want = trace_norm(partial_trace(h @ joint - joint @ h, bp, "system"))
            assert abs(bound_term1_branch(model, rho_s, delta) - want) <= 1e-12


def assert_kernel_matches_oracles(h, bp, s1, s2, sz_diagonal=None):
    """Every kernel column at every time against the full-matrix functions; returns the kernel's columns."""
    model = SimpleNamespace(hamiltonian=h, bipartition=bp)
    out = pair_step_series(h, bp.d_system, bp.d_environment, s1, s2, sz_diagonal=sz_diagonal)
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
            "e_indist": 1.0 - trace_distance(re[0], re[1]),
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


def test_pair_step_series_matches_scalar_reference(monkeypatch):
    # batched kernel against one-time scalar evaluations, full space
    model = build_chain_model(ChainParams(n_total=3, b_field=0.1)).dense
    h = model.hamiltonian
    n_times = 9
    w, v = np.linalg.eigh(h)
    psi1 = np.kron(np.array([1, 1]) / np.sqrt(2), [1, 0, 0, 0]).astype(complex)
    psi2 = np.kron(np.array([1, -1]) / np.sqrt(2), [1, 0, 0, 0]).astype(complex)
    times = np.linspace(0.0, 3.0, n_times)
    phases = np.exp(-1j * np.outer(times, w))
    s1 = (v @ (phases * (v.conj().T @ psi1)).T).T
    s2 = (v @ (phases * (v.conj().T @ psi2)).T).T
    monkeypatch.setattr(diagnostics, "CHUNK_ELEMENTS", 64)
    assert_kernel_matches_oracles(h, model.bipartition, s1, s2)


def test_pair_step_series_refuses_mismatched_shapes():
    rng = np.random.default_rng(4)
    s1, s2 = haar_stack(rng, 6, 3), haar_stack(rng, 6, 3)
    with pytest.raises(ValueError) as err:
        pair_step_series(np.eye(4), 2, 3, s1, s2)
    assert str(err.value) == "hamiltonian shape (4, 4) does not match dimensions (2, 3)"
    with pytest.raises(ValueError) as err:
        pair_step_series(np.eye(6), 2, 3, s1, s2[:2])
    assert str(err.value) == "state stacks must share shape (n_times, d_system*d_environment)"


def test_pair_step_series_matches_oracles_on_edge_shapes():
    rng = np.random.default_rng(9)
    # a qutrit on a qubit environment (k = d_E < 2 d_S), a trivial system, and
    # qubits on environments with k = d_E < 4, the last three on the closed forms
    for ds, de in ((3, 2), (1, 5), (2, 1), (2, 2), (2, 3)):
        d = ds * de
        assert_kernel_matches_oracles(
            random_hamiltonian(rng, d), Bipartition(ds, de), haar_stack(rng, d), haar_stack(rng, d)
        )

    model = build_chain_model(ChainParams(n_total=4)).dense
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


def test_qubit_closed_forms_on_degenerate_inputs():
    rng = np.random.default_rng(18)
    bp = Bipartition(2, 4)
    env = np.eye(4)
    # H = I (x) H_E: G_j = Tr(H_E rho_E^j) I, so G_1 - G_2 is proportional to I
    h = np.kron(np.eye(2), random_hamiltonian(rng, 4))
    out = assert_kernel_matches_oracles(h, bp, haar_stack(rng, 8), haar_stack(rng, 8))
    assert np.all(out["term1_branch1"] == 0.0) and np.all(out["term1_branch2"] == 0.0)
    assert np.all(out["bound_term1"] == 0.0)
    # two maximally entangled states: rho_S^j = I / 2, so Delta = 0 exactly while dDelta/dt is not
    h = random_hamiltonian(rng, 8)
    s = 1.0 / np.sqrt(2.0)
    psi1 = (s * (np.kron([1, 0], env[0]) + np.kron([0, 1], env[1])))[None].astype(complex)
    psi2 = (s * (np.kron([1, 0], env[1]) + np.kron([0, 1], env[0])))[None].astype(complex)
    diff = np.outer(psi1[0], psi1[0].conj()) - np.outer(psi2[0], psi2[0].conj())
    assert np.max(np.abs(partial_trace(h @ diff - diff @ h, bp, "system"))) > 0.1
    out = assert_kernel_matches_oracles(h, bp, psi1, psi2)
    assert out["d_system"][0] == 0.0 and out["sigma"][0] == 0.0
    assert np.allclose([out["svn_system_1"][0], out["svn_system_2"][0]], 1.0, atol=1e-15)
    # diagonal H, and states whose system rows occupy disjoint environment states: G_j and
    # rho_S^j are diagonal, so both commutators vanish
    h = np.diag(rng.normal(size=8)).astype(complex)
    amps = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    psi1 = (amps[0, 0] * np.kron([1, 0], env[0]) + amps[0, 1] * np.kron([0, 1], env[1]))[None]
    psi2 = (amps[1, 0] * np.kron([1, 0], env[2]) + amps[1, 1] * np.kron([0, 1], env[3]))[None]
    out = assert_kernel_matches_oracles(h, bp, psi1, psi2)
    assert out["term1_branch1"][0] == 0.0 and out["term1_branch2"][0] == 0.0
    # purely imaginary 01 entries: H = sigma_y (x) B + I (x) H_E with real B and H_E, and
    # states (|0>|u> + i|1>|u'>) / sqrt(2) with real u, u', so G_j and rho_S^j have imaginary 01 entries
    sigma_y = np.array([[0, -1j], [1j, 0]])
    b, h_env = (np.real(random_hamiltonian(rng, 4)) for _ in range(2))
    h = np.kron(sigma_y, b) + np.kron(np.eye(2), h_env)
    stacks = []
    for _ in range(2):
        u = rng.normal(size=(3, 2, 4))
        u /= np.linalg.norm(u, axis=2, keepdims=True)
        stacks.append(s * (np.kron([1, 0], u[:, 0]) + 1j * np.kron([0, 1], u[:, 1])))
    rho = partial_trace(np.outer(stacks[0][0], stacks[0][0].conj()), bp, "system")
    assert abs(rho[0, 1].real) < 1e-15 < abs(rho[0, 1].imag)
    assert_kernel_matches_oracles(h, bp, *stacks)


@pytest.mark.parametrize("de", [1, 3, 10])
def test_qubit_chunk_makes_three_lapack_calls(monkeypatch, de):
    # each chunk: one QR and the eigenvalues of Delta_E and of chi_1 - chi_2; every
    # other 2 x 2 quantity is a closed form, with no eigh, svd or stacked commutator
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("qr", "eigvalsh", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(diagnostics, "_commutator", counted("_commutator", diagnostics._commutator))
    # one time per chunk
    monkeypatch.setattr(diagnostics, "CHUNK_ELEMENTS", 1)
    rng = np.random.default_rng(19)
    d, n_times = 2 * de, 5
    pair_step_series(random_hamiltonian(rng, d), 2, de, haar_stack(rng, d, n_times), haar_stack(rng, d, n_times))
    assert calls.pop("qr") == n_times
    assert calls.pop("eigvalsh") <= 2 * n_times
    assert calls == {}


def test_pair_step_series_matches_oracles_on_unoccupied_environment_states(monkeypatch):
    # a full H couples every basis state, but the states vanish on some environment states
    # at every time; which ones each state occupies changes from step to step, and each
    # state occupies one that the other never does
    monkeypatch.setattr(diagnostics, "CHUNK_ELEMENTS", 64)
    rng = np.random.default_rng(16)
    cases = (
        (2, 6, [[0], [0, 2], [2, 3], [0, 3]], [[0], [5], [0, 2, 5], [2]]),
        # two occupied environment states: k = 2 < 2 d_S
        (3, 5, [[1], [1], [1]], [[4], [1, 4], [4]]),
    )
    for ds, de, support_1, support_2 in cases:
        d = ds * de
        h = random_hamiltonian(rng, d)
        sz = rng.normal(size=d)
        stacks = []
        for supports in (support_1, support_2):
            states = haar_stack(rng, d, n_times=len(supports)).reshape(-1, ds, de)
            for state, occupied in zip(states, supports):
                state[:, np.setdiff1d(np.arange(de), occupied)] = 0.0
                state /= np.linalg.norm(state)
            stacks.append(states.reshape(-1, d))
        assert_kernel_matches_oracles(h, Bipartition(ds, de), *stacks, sz)


def test_pair_step_series_memory_stays_below_one_dense_matrix():
    # dense n = 11 chain, d = 2048: one d x d complex matrix is 64 MiB
    model = build_chain_model(ChainParams(n_total=11)).dense
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
    # chunk together under the default CHUNK_ELEMENTS complex entries
    h = chain10_model.hamiltonian
    vectors = [np.kron(vs, ve) for vs, ve in chain10_model.initial_pair]
    s1, s2 = evolve(h, vectors, chain10_record.times)
    tracemalloc.start()
    try:
        pair_step_series(h, 2, 10, s1, s2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000 * np.dtype(np.complex128).itemsize, peak
    # the kernel holds no copy of Z, its largest array, nor of H
    assert peak < 5 * 2**20, peak


def record_eigvalsh_shapes(monkeypatch) -> list:
    """Wrap np.linalg.eigvalsh to record the shape of every stack it receives; returns the record."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return eigvalsh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return shapes


def test_pair_step_series_chunking_invariant(monkeypatch):
    model = build_chain_model(ChainParams(n_total=3)).dense
    h = model.hamiltonian
    rng = np.random.default_rng(8)
    haar = [np.array([haar_random_state(8, rng) for _ in range(7)]) for _ in range(2)]
    # the chain's own pair shares the environment factor at t = 0, where W is one direction
    chain = evolve(h, [np.kron(vs, ve) for vs, ve in model.initial_pair], np.linspace(0.0, 3.0, 7))
    for (s1, s2), chunk_elements in ((haar, 64), (chain, 1)):
        monkeypatch.setattr(diagnostics, "CHUNK_ELEMENTS", 10**9)
        a = pair_step_series(h, 2, 4, s1, s2)
        monkeypatch.setattr(diagnostics, "CHUNK_ELEMENTS", chunk_elements)
        shapes = record_eigvalsh_shapes(monkeypatch)
        b = pair_step_series(h, 2, 4, s1, s2)
        monkeypatch.undo()
        if chunk_elements == 1:
            # one time per chunk: the t = 0 chunk runs at k = 1, every later one at k = 2
            assert shapes[:2] == [(1, 1, 1), (1, 2, 2)]
            assert set(shapes[2:]) == {(1, 2, 2), (1, 4, 4)}
        for key in a:
            ga, gb = a[key], b[key]
            if np.all(np.isnan(ga)) and np.all(np.isnan(gb)):
                continue
            assert np.max(np.abs(ga - gb)) < 1e-12, key


def test_chain_chunks_diagonalize_only_the_occupied_directions(monkeypatch, chain10_model, chain10_record):
    # the XX chain conserves excitations, so a pair sharing its vacuum occupies two environment
    # directions: k = 2, and the qubit chunk's stacks are Delta_E at 2 x 2 and chi_1 - chi_2 at 4 x 4
    h = chain10_model.hamiltonian
    chain = evolve(h, [np.kron(vs, ve) for vs, ve in chain10_model.initial_pair], chain10_record.times)
    shapes = record_eigvalsh_shapes(monkeypatch)
    pair_step_series(h, 2, 10, *chain)
    assert {shape[1:] for shape in shapes} == {(2, 2), (4, 4)}
    # a Haar-random pair fills W: k = 2 d_S = 4
    rng = np.random.default_rng(21)
    del shapes[:]
    pair_step_series(random_hamiltonian(rng, 20), 2, 10, haar_stack(rng, 20), haar_stack(rng, 20))
    assert {shape[1:] for shape in shapes} == {(4, 4), (8, 8)}


@pytest.mark.parametrize("weight, k", [(1e-10, 3), (0.0, 2)])
def test_kernel_keeps_every_occupied_direction(monkeypatch, weight, k):
    # the pair spans e_0 and e_1, and the second state puts weight on e_2 too: without that
    # direction of amplitude 1e-5, d_system would move by about 4e-11, past the 1e-12 compared
    rng = np.random.default_rng(22)
    env = np.linalg.qr(random_hamiltonian(rng, 4))[0].T
    states = []
    for extra in (0.0, weight):
        coeffs = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        coeffs /= np.linalg.norm(coeffs, axis=(1, 2), keepdims=True)
        psi = np.einsum("tab,be->tae", coeffs, env[:2]).reshape(3, 8)
        states.append(np.sqrt(1.0 - extra) * psi + np.sqrt(extra) * np.kron([0.6, 0.8j], env[2]))
    shapes = record_eigvalsh_shapes(monkeypatch)
    assert_kernel_matches_oracles(random_hamiltonian(rng, 8), Bipartition(2, 4), *states)
    assert shapes[:2] == [(3, k, k), (3, 2 * k, 2 * k)]
