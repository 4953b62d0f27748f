import numpy as np
import pytest
from scipy.linalg import expm

from backflow.evolution import TimeGrid, carrier_indices, make_propagator, run_trajectory
from backflow.linalg import partial_trace
from backflow.model import ChainParams, Model, build_chain_model, equatorial_pair, plus_minus_pair
from backflow.output import TRAJECTORY_CSV

COLUMNS = tuple(name for _, name in TRAJECTORY_CSV)


def test_time_grid():
    g = TimeGrid(t_max=2.0, n_steps=4)
    assert np.array_equal(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    single = TimeGrid(t_max=0.0, n_steps=0)
    assert np.array_equal(single.times, [0.0])
    with pytest.raises(ValueError):
        TimeGrid(t_max=-1.0, n_steps=10)
    with pytest.raises(ValueError):
        TimeGrid(t_max=1.0, n_steps=-1)


def test_propagator_identity_at_zero():
    model = build_chain_model(ChainParams(n_total=4))
    prop = make_propagator(model)
    rng = np.random.default_rng(0)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    assert np.max(np.abs(prop.apply(v, 0.0) - v)) < 1e-12


def test_propagator_matches_taylor_series():
    model = build_chain_model(ChainParams(n_total=4, b_field=0.23))
    h = model.hamiltonian
    prop = make_propagator(model)
    rng = np.random.default_rng(1)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    t = 0.3
    # plain power series, no eigensolver involved
    term = v.copy()
    acc = v.copy()
    for k in range(1, 40):
        term = (-1j * t / k) * (h @ term)
        acc = acc + term
    got = prop.apply(v, t)
    assert np.max(np.abs(got - acc)) < 1e-10
    # and an independent library route
    assert np.max(np.abs(got - expm(-1j * t * h) @ v)) < 1e-10


def test_carrier_indices_structure():
    idx = carrier_indices(4)
    # s-major: vacuum then single chain flips, for each qubit value
    assert list(idx) == [0, 4, 2, 1, 8, 12, 10, 9]
    weights = [bin(i).count("1") for i in idx]
    assert weights[:5] == [0, 1, 1, 1, 1]  # the closed evolution sector


def test_single_sample_grid():
    model = build_chain_model(ChainParams(n_total=3))
    rec = run_trajectory(model, TimeGrid(t_max=0.0, n_steps=0))
    assert rec.n_times == 1
    assert abs(rec.d_system[0] - 1.0) < 1e-12
    assert abs(rec.chi1_norm[0]) < 1e-12
    assert abs(rec.mutual_info_1[0]) < 1e-12
    assert rec.sigma[0] == 0.0


def test_dense_and_subspace_paths_agree(chain6_records):
    model, dense, subspace = chain6_records
    assert dense.path_used == "dense"
    assert subspace.path_used == "subspace"
    for col in COLUMNS:
        gap = np.max(np.abs(getattr(dense, col) - getattr(subspace, col)))
        assert gap < 1e-9, f"{col}: {gap:.3e}"


def test_default_chain_bound_holds(chain10_record):
    margin = float(np.max(chain10_record.sigma - chain10_record.bound_total))
    assert margin <= 1e-8


def test_conservation_laws(chain10_record):
    rec = chain10_record
    assert np.max(np.abs(rec.purity_1 - 1.0)) < 1e-10
    assert np.max(np.abs(rec.purity_2 - 1.0)) < 1e-10
    for mags in (rec.magnetization_1, rec.magnetization_2):
        assert np.max(np.abs(mags - mags[0])) < 1e-10


def test_reduced_ranks_stay_low(chain6_records):
    # pure joint state over a qubit cut: Schmidt rank <= 2, so the
    # environment state has rank <= 2 and chi rank <= 5
    model, dense, _ = chain6_records
    bp = model.bipartition
    idx = np.linspace(0, dense.n_times - 1, 5).astype(int)
    for i in idx:
        v = dense.states_1[i]
        rho = np.outer(v, v.conj())
        rho_e = partial_trace(rho, bp, "environment")
        rho_s = partial_trace(rho, bp, "system")
        chi = rho - np.kron(rho_s, rho_e)
        assert np.sum(np.linalg.eigvalsh(rho_e) > 1e-10) <= 2
        assert np.sum(np.abs(np.linalg.eigvalsh(chi)) > 1e-10) <= 5


def test_auto_path_selection():
    chain = build_chain_model(ChainParams(n_total=4))
    rec = run_trajectory(chain, TimeGrid(t_max=1.0, n_steps=10), path="auto")
    assert rec.path_used == "subspace"
    # two-excitation initial support disqualifies the fast route
    flipped_env = np.zeros(8, dtype=complex)
    flipped_env[4] = 1.0  # chain site 1 flipped
    sys_pair = equatorial_pair(0.0, 1)  # single-qubit pair, dims (2, 1)
    pair = tuple((vs, flipped_env) for vs, _ in sys_pair)
    model2 = Model(
        chain.hamiltonian,
        chain.bipartition,
        pair,
        interaction_terms=chain.interaction_terms,
        sector_basis=chain.sector_basis,
    )
    rec2 = run_trajectory(model2, TimeGrid(t_max=1.0, n_steps=10), path="auto")
    assert rec2.path_used == "dense"
    with pytest.raises(ValueError):
        run_trajectory(model2, TimeGrid(t_max=1.0, n_steps=10), path="subspace")


def _plus_minus_closed_form(n_total, times):
    """D(t) = |f(t)| and sigma = Re(conj(f) f') / |f| for j0 = j = 1 in a uniform field.

    f(t) = (2/(n+1)) sum_k sin^2(k pi/(n+1)) exp(8i cos(k pi/(n+1)) t), n = n_total,
    is the amplitude of the qubit excitation staying on the qubit.
    """
    x = np.arange(1, n_total + 1) * np.pi / (n_total + 1)
    weights = 2.0 / (n_total + 1) * np.sin(x) ** 2
    phases = np.exp(8j * np.outer(times, np.cos(x)))
    f = phases @ weights
    f_dot = phases @ (8j * np.cos(x) * weights)
    return np.abs(f), np.real(f.conj() * f_dot) / np.abs(f)


@pytest.mark.parametrize(
    "n_total, b_field, field_on_system, t_max, n_steps, path",
    [
        (10, 0.0, False, 40.0, 4000, "subspace"),
        (12, 0.0, False, 40.0, 4000, "subspace"),
        (10, 0.3, True, 40.0, 4000, "subspace"),
        (10, 0.0, False, 0.1, 1, "subspace"),
        (6, 0.0, False, 40.0, 4000, "dense"),
    ],
    ids=["n10", "n12", "n10-field-on-system", "n10-one-step", "n6-dense"],
)
def test_plus_minus_pair_matches_closed_form(n_total, b_field, field_on_system, t_max, n_steps, path):
    # through the revivals: the trace distance dips close to zero and recovers
    params = ChainParams(n_total=n_total, b_field=b_field, field_on_system=field_on_system)
    rec = run_trajectory(build_chain_model(params), TimeGrid(t_max, n_steps), path=path)
    d, sigma = _plus_minus_closed_form(n_total, rec.times)
    assert np.max(np.abs(rec.d_system - d)) <= 1e-12
    # sigma has a kink wherever D touches zero
    away = d > 1e-6
    assert np.max(np.abs(rec.sigma - sigma)[away]) <= 1e-12


@pytest.mark.parametrize(
    "n_total, n_steps, path",
    [(10, 50, "auto"), (10, 200, "auto"), (10, 2000, "auto"), (10, 20000, "auto"), (8, 200, "dense")],
)
def test_bound_holds_on_every_grid(n_total, n_steps, path):
    model = build_chain_model(ChainParams(n_total=n_total))
    rec = run_trajectory(model, TimeGrid(t_max=n_total - 1.0, n_steps=n_steps), path=path)
    assert np.max(rec.sigma - rec.bound_total) <= 1e-13
