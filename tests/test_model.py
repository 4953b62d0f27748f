import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from backflow.cli import main
from backflow.evolution import evolve
from backflow.linalg import Bipartition, trace_norm
from backflow.model import (
    PAULI,
    ChainParams,
    Model,
    ModelFileError,
    build_chain_model,
    carrier_indices,
    chain_build_peak_bytes,
    equatorial_states,
    load_generic_model,
    pauli_on_site,
    plus_minus_pair,
    product_pair,
    total_sz_diagonal,
)


def test_pauli_on_site_placement():
    got = pauli_on_site("z", 1, 3)
    want = np.kron(np.eye(2), np.kron(PAULI["z"], np.eye(2)))
    assert np.array_equal(got, want)
    got = pauli_on_site("x", 0, 2)
    assert np.array_equal(got, np.kron(PAULI["x"], np.eye(2)))


def test_pauli_on_site_and_product_pair_refusals():
    with pytest.raises(ValueError) as err:
        pauli_on_site("w", 0, 2)
    assert str(err.value) == "axis must be one of 'x', 'y', 'z', got 'w'"
    with pytest.raises(ValueError) as err:
        pauli_on_site("x", 2, 2)
    assert str(err.value) == "site 2 out of range for 2 spins"
    state = plus_minus_pair(2)[0]
    with pytest.raises(ValueError) as err:
        product_pair((state, state, state), Bipartition(2, 2))
    assert str(err.value) == "initial_pair must hold exactly two states"


def test_total_sz_diagonal_values():
    assert np.array_equal(total_sz_diagonal(1), [1, -1])
    assert np.array_equal(total_sz_diagonal(3), [3, 1, 1, -1, 1, -1, -1, -3])


def test_excitation_sectors_sizes():
    values, sizes = np.unique(total_sz_diagonal(4), return_counts=True)
    assert list(values) == [-4, -2, 0, 2, 4]
    assert list(sizes) == [1, 4, 6, 4, 1]
    assert np.flatnonzero(total_sz_diagonal(4) == 4).tolist() == [0]


def test_two_spin_hamiltonian_by_hand():
    # basis |00>,|01>,|10>,|11>; flip-flop couples |01> and |10>
    j0, b = 0.7, 0.3
    model = build_chain_model(ChainParams(n_total=2, j_sys=j0, j_env=1.0, b_field=b)).dense
    h = model.hamiltonian
    want = np.zeros((4, 4), dtype=complex)
    want[1, 2] = want[2, 1] = -4 * j0
    want += -2 * b * np.kron(np.eye(2), PAULI["z"])
    assert np.max(np.abs(h - want)) < 1e-14


def test_chain_hamiltonian_is_real_symmetric():
    h = build_chain_model(ChainParams(n_total=5)).dense.hamiltonian
    assert np.max(np.abs(h.imag)) == 0.0
    assert np.max(np.abs(h - h.T)) == 0.0


def test_magnetization_commutes():
    for n in (3, 5):
        model = build_chain_model(ChainParams(n_total=n, b_field=0.17)).dense
        sz = np.diag(total_sz_diagonal(n).astype(float))
        comm = model.hamiltonian @ sz - sz @ model.hamiltonian
        assert np.max(np.abs(comm)) < 1e-12


def test_field_on_system_flag():
    base = build_chain_model(ChainParams(n_total=3, b_field=0.25)).dense
    full = build_chain_model(ChainParams(n_total=3, b_field=0.25, field_on_system=True)).dense
    diff = full.hamiltonian - base.hamiltonian
    assert np.max(np.abs(diff - (-2 * 0.25) * pauli_on_site("z", 0, 3))) < 1e-14


def _environment_local_residual(h, terms, d_env):
    """max |entry| of H minus the kron sum of terms, minus I_S (x) its (0, 0) environment block.

    0 exactly when the terms hold every system-environment part of H. H
    is read one d_env x d_env block at a time, as the blocks of a kron
    product are.
    """
    d_sys = h.shape[0] // d_env
    blocks = h.reshape(d_sys, d_env, d_sys, d_env)

    def rest(s, t):
        return blocks[s, :, t, :] - sum(a[s, t] * b for a, b in terms)

    local = rest(0, 0)
    return max(
        float(np.max(np.abs(rest(s, t) - local if s == t else rest(s, t))))
        for s in range(d_sys)
        for t in range(d_sys)
    )


def test_interaction_terms_reproduce_coupling():
    # sum_k (system op) x (environment op) plus a pure-environment rest, with the field on
    # the qubit its own sz term
    for field_on_system in (False, True):
        params = ChainParams(n_total=4, j_sys=0.6, b_field=0.3, field_on_system=field_on_system)
        chain = build_chain_model(params)
        terms = chain.coupling_terms()
        assert len(terms) == (3 if field_on_system else 2)
        for a, b in terms:
            assert a.shape == (2, 2) and b.shape == (8, 8)
        h, d_env = chain.dense.hamiltonian, chain.dense.bipartition.d_environment
        assert _environment_local_residual(h, terms, d_env) < 1e-12
        # leaving any term out leaves a coupling behind
        for k in range(len(terms)):
            assert _environment_local_residual(h, terms[:k] + terms[k + 1 :], d_env) > 0.1


def test_model_rejects_nonhermitian():
    pair = plus_minus_pair(2)
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = 1.0
    with pytest.raises(ValueError) as err:
        Model(h, Bipartition(2, 2), pair)
    assert type(err.value) is ValueError
    assert str(err.value) == "hamiltonian not Hermitian, max asymmetry 1.000e+00"


def test_model_rejects_sector_leak():
    # d = 512 spans two row blocks of the sector check; rows 257 and 300 sit in the second.
    # Conservation is exact: a leak of one unit in the last place is refused too
    chain = build_chain_model(ChainParams(n_total=9)).dense
    d = chain.bipartition.d_joint
    for i, j, size in ((0, d - 1, 1e-3), (300, 257, 5e-14), (300, 257, 5e-324)):
        h = chain.hamiltonian.copy()
        h[i, j] += size
        h[j, i] += size
        with pytest.raises(ValueError, match=f"off-sector entry {size:.3e}"):
            Model(h, chain.bipartition, chain.initial_pair, sz_diagonal=chain.sz_diagonal)
    with pytest.raises(ValueError, match="sz_diagonal shape"):
        Model(chain.hamiltonian, chain.bipartition, chain.initial_pair, sz_diagonal=np.zeros(d - 1))


def test_carrier_rejects_a_leak_between_its_sectors():
    # slot 0 (the vacuum, sz = n) against slot n + 1 (qubit and site 1 flipped, sz = n - 4)
    chain = build_chain_model(ChainParams(n_total=5))
    for i, j in ((0, 6), (1, 7), (5, 9)):
        h = chain.hamiltonian.copy()
        h[i, j] = h[j, i] = 1e-15
        with pytest.raises(ValueError, match="off-sector entry 1.000e-15"):
            dataclasses.replace(chain, hamiltonian=h)
    # an entry inside one sector is no leak
    h = chain.hamiltonian.copy()
    h[2, 5] = h[5, 2] = 0.1
    assert dataclasses.replace(chain, hamiltonian=h).sz_diagonal is not None


def test_model_rejects_wrong_pair_dims():
    pair = plus_minus_pair(3)  # 2 x 3 carrier coordinates
    with pytest.raises(ValueError) as err:
        Model(np.zeros((4, 4)), Bipartition(2, 2), pair)
    assert type(err.value) is ValueError
    assert str(err.value) == "initial state 1: environment factor shape (3,) does not match (2,)"


def test_model_rejects_wrong_hamiltonian_and_interaction_shapes():
    pair = plus_minus_pair(2)
    with pytest.raises(ValueError) as err:
        Model(np.zeros((6, 6)), Bipartition(2, 2), pair)
    assert type(err.value) is ValueError
    assert str(err.value) == "hamiltonian shape (6, 6) does not match bipartition dimension 4"


def test_chain_params_validation():
    with pytest.raises(ValueError):
        ChainParams(n_total=1)
    with pytest.raises(ValueError):
        ChainParams(n_total=4, j_env=0.0)


def _density(state):
    """Joint density matrix of a (system vector, environment vector) state."""
    psi = np.kron(*state)
    return np.outer(psi, psi.conj())


def test_equatorial_pair_states():
    rho1, rho2 = build_chain_model(ChainParams(n_total=3)).dense.initial_pair
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    vac = np.zeros(4, dtype=complex)
    vac[0] = 1.0
    want = np.kron(plus, vac)
    assert np.max(np.abs(_density(rho1) - np.outer(want, want.conj()))) < 1e-14
    # antipodal pair: distance 1 regardless of phi
    env = plus_minus_pair(2)[0][1]
    for phi in (0.0, 0.4, np.pi / 2):
        r1, r2 = ((vs, env) for vs in equatorial_states(phi))
        assert abs(trace_norm(_density(r1) - _density(r2)) / 2 - 1.0) < 1e-12


def test_plus_minus_is_phi_zero():
    a = build_chain_model(ChainParams(n_total=3)).dense.initial_pair
    vac = np.zeros(4, dtype=complex)
    vac[0] = 1.0
    b = [(vs, vac) for vs in equatorial_states(0.0)]
    for (xs, xe), (ys, ye) in zip(a, b):
        assert np.array_equal(xs, ys)
        assert np.array_equal(xe, ye)


def test_model_rejects_bad_factors():
    h = np.zeros((4, 4))
    (vs, ve), second = plus_minus_pair(2)
    Model(h, Bipartition(2, 2), ((vs, ve), second))
    for bad in (
        (vs, np.ones(3) / np.sqrt(3)),  # environment factor of the wrong shape
        (vs[:, None], ve),  # system factor not a vector
        (1.01 * vs, ve),  # system factor off unit norm
        (vs, ve * (1 + 1e-9)),  # environment factor off unit norm
        np.kron(vs, ve),  # a joint vector, not factors
    ):
        with pytest.raises(ValueError):
            Model(h, Bipartition(2, 2), (bad, second))


def _write_model(tmp_path, doc, name="m.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _cplx(m):
    m = np.asarray(m)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _vec(v):
    return [[float(z.real), float(z.imag)] for z in np.asarray(v)]


def _valid_doc():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) / 2
    return {
        "dims": {"system": 2, "environment": 3},
        "hamiltonian": _cplx(h),
        "initial_states": [
            {"system_state": _vec([1, 0]), "environment_state": _vec([0, 1, 0])},
            {"system_state": _vec([0, 1]), "environment_state": _vec([0, 1, 0])},
        ],
    }


def test_load_generic_model_roundtrip(tmp_path):
    doc = _valid_doc()
    model = load_generic_model(_write_model(tmp_path, doc))
    assert model.bipartition == Bipartition(2, 3)
    assert model.bipartition.d_joint == 6
    want = np.array([row for row in doc["hamiltonian"]])
    got = model.hamiltonian
    assert got.shape == (6, 6)
    rho1, rho2 = model.initial_pair
    e1 = np.zeros(6)
    e1[1] = 1.0  # |0> x |1>
    assert np.max(np.abs(_density(rho1) - np.outer(e1, e1))) < 1e-12


def test_load_accepts_product_joint_state(tmp_path):
    doc = _valid_doc()
    joint = np.kron([1 / np.sqrt(2), 1 / np.sqrt(2)], [0, 0, 1])
    doc["initial_states"][0] = {"joint_state": _vec(joint)}
    model = load_generic_model(_write_model(tmp_path, doc))
    rho1 = model.initial_pair[0]
    assert np.max(np.abs(_density(rho1) - np.outer(joint, joint.conj()))) < 1e-10


def test_load_rejects_entangled_joint_state(tmp_path):
    doc = _valid_doc()
    doc["dims"] = {"system": 2, "environment": 2}
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    doc["hamiltonian"] = _cplx((a + a.conj().T) / 2)
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    doc["initial_states"] = [
        {"joint_state": _vec(bell)},
        {"system_state": _vec([1, 0]), "environment_state": _vec([1, 0])},
    ]
    path = _write_model(tmp_path, doc)
    with pytest.raises(ModelFileError) as err:
        load_generic_model(path)
    assert type(err.value) is ModelFileError
    assert str(err.value) == (
        f"{path}: initial_states[0] carries system-environment correlations "
        "(second Schmidt coefficient 7.071e-01); only product initial states are allowed"
    )


def test_load_rejects_nonhermitian(tmp_path):
    doc = _valid_doc()
    doc["hamiltonian"][0][1] = [doc["hamiltonian"][0][1][0] + 1e-3, doc["hamiltonian"][0][1][1]]
    path = _write_model(tmp_path, doc)
    with pytest.raises(ModelFileError) as err:
        load_generic_model(path)
    assert type(err.value) is ModelFileError
    assert str(err.value) == f"{path}: hamiltonian not Hermitian, max asymmetry 1.000e-03"


def test_load_rejects_dimension_mismatch(tmp_path):
    doc = _valid_doc()
    doc["dims"] = {"system": 2, "environment": 4}
    path = _write_model(tmp_path, doc)
    with pytest.raises(ModelFileError) as err:
        load_generic_model(path)
    assert type(err.value) is ModelFileError
    assert str(err.value) == f"{path}: hamiltonian shape (6, 6) does not match bipartition dimension 8"


def test_load_rejects_wrong_state_count(tmp_path):
    doc = _valid_doc()
    doc["initial_states"] = doc["initial_states"][:1]
    with pytest.raises(ModelFileError):
        load_generic_model(_write_model(tmp_path, doc))


def test_load_rejects_unnormalized_state(tmp_path):
    doc = _valid_doc()
    doc["initial_states"][0]["system_state"] = _vec([1.1, 0])
    with pytest.raises(ModelFileError):
        load_generic_model(_write_model(tmp_path, doc))


def test_load_rejects_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ModelFileError) as err:
        load_generic_model(str(p))
    assert "broken.json" in str(err.value)


def test_load_refuses_unknown_keys(tmp_path, capsys):
    # a key the loader does not read is refused, not skipped: an older file that
    # carries interaction terms fails loudly instead of being half-read
    doc = _valid_doc()
    doc["interaction_terms"] = [{"system": _cplx(PAULI["x"]), "environment": _cplx(np.eye(3))}]
    path = _write_model(tmp_path, doc)
    with pytest.raises(ModelFileError) as err:
        load_generic_model(path)
    assert type(err.value) is ModelFileError
    assert str(err.value) == f"{path}: unknown key 'interaction_terms'"
    doc["comment"] = "x"
    path = _write_model(tmp_path, doc)
    with pytest.raises(ModelFileError, match="unknown key 'comment', 'interaction_terms'$"):
        load_generic_model(path)
    # run exits 2 and writes nothing
    out, summary = tmp_path / "never.csv", tmp_path / "never.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "custom", "model_file": path}))
    assert main(["run", "--config", str(cfg), "--out", str(out), "--summary", str(summary)]) == 2
    assert "unknown key 'comment', 'interaction_terms'" in capsys.readouterr().err
    assert not out.exists() and not summary.exists()


def _drop(key):
    def edit(doc):
        del doc[key]
    return edit


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return edit


def _row(edit, message, name):
    # each id is written out, so tightening a row's message keeps its test's name
    return pytest.param(edit, message, id=name)


@pytest.mark.parametrize(
    "edit,message",
    [
        _row(lambda doc: [doc], "top level must be an object",
             "<lambda>-ModelFileError-top level must be an object"),
        _row(_drop("dims"), "missing required key 'dims'", "edit-ModelFileError-missing required key 'dims'"),
        _row(_drop("hamiltonian"), "missing required key 'hamiltonian'",
             "edit-ModelFileError-missing required key 'hamiltonian'"),
        _row(_drop("initial_states"), "missing required key 'initial_states'",
             "edit-ModelFileError-missing required key 'initial_states'"),
        _row(_set("dims", [2, 3]), "dims must carry", "edit-ModelFileError-dims must carry"),
        _row(_set("dims", "system", "two"), "dims entries must be integers",
             "edit-ModelFileError-dims entries must be integers0"),
        _row(_set("dims", "environment", None), "dims entries must be integers",
             "edit-ModelFileError-dims entries must be integers1"),
        _row(_set("dims", "system", 0), "dims must be positive", "edit-ModelFileError-dims must be positive"),
        _row(_set("initial_states", 0, [[1.0, 0.0], [0.0, 0.0]]), "must be an object",
             "edit-ModelFileError-must be an object"),
        _row(_set("initial_states", 0, {"system_state": _vec([1, 0])}), "needs either",
             "edit-ModelFileError-needs either"),
        _row(_set("initial_states", 1, {"joint_state": _vec([1, 0, 0, 0])}),
             "initial_states[1] joint_state has dimension 4, expected 6",
             "edit-ModelFileError-initial_states[1] joint_state has dimension 4, expected 6"),
        _row(_set("hamiltonian", [[[1.0, 0.0, 0.0]]]), "[re, im] pairs", "edit-ModelFileError-[re, im] pairs0"),
        _row(_set("hamiltonian", "h"), "[re, im] pairs", "edit-ModelFileError-[re, im] pairs1"),
        _row(_set("initial_states", 0, "system_state", [[1.0, 0.0], [0.0]]), "[re, im] pairs",
             "edit-ModelFileError-[re, im] pairs2"),
        _row(_set("initial_states", 0, "environment_state", [["a", "b"]] * 3), "[re, im] pairs",
             "edit-ModelFileError-[re, im] pairs3"),
        # the checks Model makes, re-raised with the file's path as a ModelFileError
        _row(_set("dims", "environment", 4), "hamiltonian shape (6, 6) does not match bipartition dimension 8",
             "edit-ModelFileError-hamiltonian shape (6, 6) does not match bipartition dimension 8"),
        _row(_set("hamiltonian", 0, 1, [5.0, 0.0]), "hamiltonian not Hermitian, max asymmetry 4.475e+00",
             "edit-ModelFileError-hamiltonian not Hermitian, max asymmetry 4.475e+00"),
        _row(_set("initial_states", 0, "environment_state", _vec([1, 0])),
             "initial state 1: environment factor shape (2,) does not match (3,)",
             "edit-ModelFileError-initial state 1: environment factor shape (2,) does not match (3,)"),
        # a dimension that is not a JSON integer is refused, not truncated by int()
        _row(_set("dims", {"system": 2.9, "environment": 4.5}), "got (2.9, 4.5)",
             "edit-ModelFileError-got (2.9, 4.5)"),
        _row(_set("dims", "system", True), "got (True, 3)", "edit-ModelFileError-got (True, 3)"),
        # a key the loader does not read is refused at every level, so nothing is half-read
        _row(_set("dims", "bath", 9), "dims has unknown key 'bath'", "edit-ModelFileError-dims has unknown key 'bath'"),
        _row(_set("dims", {"system": 2, "environment": 3, "bath": 9, "aux": 1}), "dims has unknown key 'aux', 'bath'",
             "edit-ModelFileError-dims has unknown key 'aux', 'bath'"),
        _row(_set("initial_states", 0, "weight", 0.3), "initial_states[0] has unknown key 'weight'",
             "edit-ModelFileError-initial_states[0] has unknown key 'weight'"),
        _row(_set("initial_states", 1, "joint_state", _vec(np.kron([0, 1], [0, 1, 0]))),
             "initial_states[1] gives joint_state together with 'environment_state', 'system_state'",
             "edit-ModelFileError-initial_states[1] gives joint_state together with 'environment_state', "
             "'system_state'"),
    ],
)
def test_load_rejects_malformed_documents(tmp_path, edit, message):
    doc = _valid_doc()
    doc = edit(doc) or doc
    path = _write_model(tmp_path, doc)
    with pytest.raises(ModelFileError) as err:
        load_generic_model(path)
    assert type(err.value) is ModelFileError
    assert str(err.value).startswith(f"{path}: ")
    assert message in str(err.value)


def test_chain_dense_sz_diagonal_covers_space():
    model = build_chain_model(ChainParams(n_total=4)).dense
    assert np.array_equal(model.sz_diagonal, total_sz_diagonal(4))


def _kron_chain_hamiltonian(params):
    """The chain Hamiltonian assembled term by term from dense kron products."""
    n = params.n_total
    d = 2**n
    h = np.zeros((d, d), dtype=np.complex128)
    for site in range(n - 1):
        j = params.j_sys if site == 0 else params.j_env
        for axis in ("x", "y"):
            bond = np.kron(PAULI[axis], PAULI[axis])
            left, right = np.eye(2**site), np.eye(2 ** (n - site - 2))
            h -= 2.0 * j * np.kron(np.kron(left, bond), right)
    for site in range(1, n):
        h -= 2.0 * params.b_field * pauli_on_site("z", site, n)
    if params.field_on_system:
        h -= 2.0 * params.b_field * pauli_on_site("z", 0, n)
    return h


def test_chain_builder_matches_kron_reference():
    rng = np.random.default_rng(12)
    for n in range(2, 11):
        for field_on_system in (False, True):
            j_sys, j_env, b_field = rng.uniform(-2.0, 2.0, 3)
            params = ChainParams(n, j_env, j_sys, b_field, field_on_system)
            model = build_chain_model(params)
            dense = model.dense
            gap = np.max(np.abs(dense.hamiltonian - _kron_chain_hamiltonian(params)))
            assert gap <= 1e-15, (n, field_on_system, gap)
            # the chain's coupling decomposition and magnetization still hold on this H
            residual = _environment_local_residual(dense.hamiltonian, model.coupling_terms(), 2 ** (n - 1))
            assert residual <= 1e-12, (n, field_on_system, residual)
            dense._check_sectors(dense.hamiltonian)
            # the subspace path's carrier block is the dense block, bit for bit
            carrier = carrier_indices(n)
            assert np.array_equal(model.hamiltonian, dense.hamiltonian[np.ix_(carrier, carrier)])
            # and so are its magnetization and its embedding of the initial pair
            assert np.array_equal(model.sz_diagonal, total_sz_diagonal(n)[carrier])
            vectors = [np.kron(vs, ve) for vs, ve in model.initial_pair]
            dense_vectors = [np.kron(vs, ve) for vs, ve in dense.initial_pair]
            for c, f in zip(vectors, dense_vectors):
                assert np.array_equal(f[carrier], c)
                assert not np.any(np.delete(f, carrier))
            # which then evolves alike on the carrier and in the 2^n space
            times = np.linspace(0.0, 2.0, 3)
            on_carrier = evolve(model.hamiltonian, vectors, times)
            in_full = evolve(dense.hamiltonian, dense_vectors, times)
            for c, f in zip(on_carrier, in_full):
                assert np.max(np.abs(f[:, carrier] - c)) <= 1e-12
                assert not np.any(np.delete(f, carrier, axis=1))


def test_chain_build_memory_stays_below_two_dense_matrices():
    # n = 11, d = 2048: one d x d complex matrix is 64 MiB
    d = 2**11
    budget = 2 * d * d * np.dtype(np.complex128).itemsize
    assert chain_build_peak_bytes(11) == budget
    tracemalloc.start()
    try:
        # the dense Model is built and validated lazily; read it so its build is measured
        build_chain_model(ChainParams(n_total=11)).dense
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget, peak
