import tracemalloc

import numpy as np
import pytest

from backflow.linalg import (
    Bipartition,
    haar_random_state,
    hermitian_eig,
    kron,
    partial_trace,
    purity,
    trace_norm,
    von_neumann_entropy,
)


def trace_norm_oracle(a):
    """Tr sqrt(A†A) via the eigenvalues of A†A, no singular values."""
    w = np.linalg.eigvalsh(a.conj().T @ a)
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def partial_trace_oracle(m, d_sys, d_env, keep):
    """Index-by-index partial trace, quadratic loops only."""
    m = m.reshape(d_sys, d_env, d_sys, d_env)
    if keep == "system":
        out = np.zeros((d_sys, d_sys), dtype=complex)
        for a in range(d_sys):
            for c in range(d_sys):
                for b in range(d_env):
                    out[a, c] += m[a, b, c, b]
    else:
        out = np.zeros((d_env, d_env), dtype=complex)
        for b in range(d_env):
            for e in range(d_env):
                for a in range(d_sys):
                    out[b, e] += m[a, b, a, e]
    return out


def random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_density(rng, d):
    a = random_complex(rng, d)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_trace_norm_matches_oracle():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4, 8):
        for _ in range(10):
            a = random_complex(rng, d)
            assert abs(trace_norm(a) - trace_norm_oracle(a)) < 1e-10


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_complex(rng, 5)
        q, _ = np.linalg.qr(random_complex(rng, 5))
        assert abs(trace_norm(q @ a) - trace_norm(a)) < 1e-10
        assert abs(trace_norm(a @ q) - trace_norm(a)) < 1e-10


def test_trace_norm_known_values():
    assert abs(trace_norm(np.eye(4)) - 4.0) < 1e-14
    assert abs(trace_norm(np.diag([3.0, -4.0])) - 7.0) < 1e-14
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_rejects_nonsquare():
    with pytest.raises(ValueError):
        trace_norm(np.ones((2, 3)))


def test_partial_trace_matches_oracle():
    rng = np.random.default_rng(2)
    for d_sys, d_env in ((2, 2), (2, 5), (3, 4), (4, 2)):
        bp = Bipartition(d_sys, d_env)
        for _ in range(6):
            m = random_complex(rng, d_sys * d_env)
            for keep in ("system", "environment"):
                got = partial_trace(m, bp, keep)
                want = partial_trace_oracle(m, d_sys, d_env, keep)
                assert np.max(np.abs(got - want)) < 1e-12


def test_partial_trace_of_product():
    rng = np.random.default_rng(3)
    for _ in range(8):
        a = random_density(rng, 3)
        b = random_density(rng, 4)
        bp = Bipartition(3, 4)
        joint = kron(a, b)
        assert np.max(np.abs(partial_trace(joint, bp, "system") - a)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, bp, "environment") - b)) < 1e-12


def test_partial_traces_share_trace():
    rng = np.random.default_rng(4)
    bp = Bipartition(3, 3)
    m = random_complex(rng, 9)
    ts = np.trace(partial_trace(m, bp, "system"))
    te = np.trace(partial_trace(m, bp, "environment"))
    assert abs(ts - te) < 1e-12
    assert abs(ts - np.trace(m)) < 1e-12


def test_hermitian_eig_reconstructs():
    rng = np.random.default_rng(5)
    for d in (2, 5, 9):
        a = random_complex(rng, d)
        h = (a + a.conj().T) / 2
        w, v = hermitian_eig(h)
        assert np.all(np.diff(w) >= -1e-14)
        assert np.max(np.abs((v * w) @ v.conj().T - h)) < 1e-11
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-12


def test_hermitian_eig_rejects_asymmetry():
    h = np.eye(3, dtype=complex)
    h[0, 1] = 1e-3
    with pytest.raises(ValueError):
        hermitian_eig(h)


def test_hermitian_eig_allocates_no_dense_temporary():
    # the eigenvector matrix is the only d x d array it may allocate
    d = 384
    a = random_complex(np.random.default_rng(7), d)
    h = (a + a.conj().T) / 2
    tracemalloc.start()
    try:
        hermitian_eig(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * d * d * np.dtype(np.complex128).itemsize, peak


def test_kron_matches_numpy():
    rng = np.random.default_rng(6)
    a = random_complex(rng, 3)
    b = random_complex(rng, 4)
    assert np.array_equal(kron(a, b), np.kron(a, b))
    with pytest.raises(ValueError):
        kron(a, np.ones(4))


def test_entropy_values():
    bp = Bipartition(2, 2)
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert von_neumann_entropy(pure) == 0.0
    mixed = np.eye(4, dtype=complex) / 4
    assert abs(von_neumann_entropy(mixed) - 2.0) < 1e-12
    # reduced Bell state carries exactly one bit
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho_s = partial_trace(np.outer(bell, bell.conj()), bp, "system")
    assert abs(von_neumann_entropy(rho_s) - 1.0) < 1e-12


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(8)
    for _ in range(6):
        rho = random_density(rng, 5)
        q, _ = np.linalg.qr(random_complex(rng, 5))
        assert abs(von_neumann_entropy(q @ rho @ q.conj().T) - von_neumann_entropy(rho)) < 1e-10


def test_purity_range():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho = random_density(rng, 6)
        p = purity(rho)
        assert 1 / 6 - 1e-12 <= p <= 1 + 1e-12


def test_haar_random_state_normalized():
    rng = np.random.default_rng(12)
    for d in (2, 3, 16):
        for _ in range(5):
            psi = haar_random_state(d, rng)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_bipartition_joint_dimension():
    bp = Bipartition(2, 8)
    assert bp.d_joint == 16
    with pytest.raises(ValueError):
        Bipartition(0, 4)
