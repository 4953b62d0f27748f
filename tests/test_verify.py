import dataclasses

import numpy as np

from backflow import verify
from backflow.linalg import purity
from backflow.verify import (
    bound_suite,
    random_generic_model,
    structural_suite,
)


def test_random_generic_model_shape():
    rng = np.random.default_rng(0)
    for d_env in (2, 3, 8):
        model = random_generic_model(rng, d_env)
        assert model.bipartition.d_system == 2
        assert model.bipartition.d_environment == d_env
        h = model.hamiltonian
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        for vs, ve in model.initial_pair:
            psi = np.kron(vs, ve)
            assert abs(purity(np.outer(psi, psi.conj())) - 1.0) < 1e-10
        assert model.sz_diagonal is None


def test_random_generic_model_seeded():
    a = random_generic_model(np.random.default_rng(3), 4)
    b = random_generic_model(np.random.default_rng(3), 4)
    assert np.array_equal(a.hamiltonian, b.hamiltonian)
    c = random_generic_model(np.random.default_rng(4), 4)
    assert not np.array_equal(a.hamiltonian, c.hamiltonian)


def test_bound_suite_small():
    checks, worst, rows = bound_suite(n_models=6, seed=7)
    assert all(c.passed for c in checks)
    assert worst < 0.0
    # the summary JSON takes these as they are: a numpy bool does not serialize
    assert all(type(c.passed) is bool for c in checks)
    assert type(worst) is float
    assert all(type(r["max_sigma_minus_bound"]) is float for r in rows)
    assert len(rows) == 6
    assert {r["d_env"] for r in rows} <= {2, 3, 4, 8}
    for r in rows:
        assert r["max_sigma_minus_bound"] <= 1e-6


def test_structural_suite_passes():
    checks = structural_suite()
    assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]
    assert all(type(c.passed) is bool for c in checks)
    names = " ".join(c.name for c in checks)
    assert "purity" in names and "magnetization" in names
    assert "paths agree" in names
    assert "kernel oracles" in names


def test_check_line_format():
    checks, _, _ = bound_suite(n_models=2, seed=1)
    line = checks[0].line()
    assert line.startswith("PASS") or line.startswith("FAIL")
    assert ":" in line


def test_kernel_oracle_check_compares_both_distances(chain6_records):
    # the paper's D(t) and D_env against trace_distance of the stacked reduced states
    model, dense, _ = chain6_records
    samples = verify._sample_states(model.dense, dense)
    assert verify._kernel_oracle_check("n=6", model.dense, dense, samples).passed
    for col in ("d_system", "d_env"):
        shifted = dataclasses.replace(dense, **{col: getattr(dense, col) + 1e-10})
        check = verify._kernel_oracle_check("n=6", model.dense, shifted, samples)
        assert not check.passed
        assert check.detail == f"max gap 1.000e-10 ({col})"
