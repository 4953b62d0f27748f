import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from backflow import evolution
from backflow.evolution import TimeGrid, evolve, run_trajectory
from backflow.linalg import partial_trace
from backflow.model import (
    ChainParams,
    Model,
    build_chain_model,
    carrier_indices,
    equatorial_states,
    total_sz_diagonal,
)
from backflow.output import TRAJECTORY_CSV
from backflow.verify import BOUND_TOLERANCE, random_generic_model

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
    with pytest.raises(ValueError) as err:
        TimeGrid(t_max=-1.0, n_steps=0)
    assert str(err.value) == "t_max must be nonnegative, got -1.0"


def test_propagator_identity_at_zero():
    model = build_chain_model(ChainParams(n_total=4)).dense
    rng = np.random.default_rng(0)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    (states,) = evolve(model.hamiltonian, [v], np.zeros(1))
    assert np.max(np.abs(states[0] - v)) < 1e-12


def test_propagator_matches_taylor_series():
    model = build_chain_model(ChainParams(n_total=4, b_field=0.23))
    h = model.dense.hamiltonian
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
    got = evolve(h, [v], np.array([t]))[0][0]
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
    assert rec.times.size == 1
    assert abs(rec.d_system[0] - 1.0) < 1e-12
    assert abs(rec.chi1_norm[0]) < 1e-12
    assert abs(rec.mutual_info_1[0]) < 1e-12
    assert rec.sigma[0] == 0.0


def test_dense_and_subspace_paths_agree(chain6_records):
    model, dense, subspace = chain6_records
    assert dense.path_used == "dense"
    assert subspace.path_used == "subspace"
    # the default grid on a field-driven n = 10 chain, whose dense H is 1024-square
    chain = build_chain_model(ChainParams(n_total=10, b_field=0.3, field_on_system=True))
    grid = TimeGrid(t_max=9.0, n_steps=2000)
    runs = {"n=6": (dense, subspace), "n=10": [run_trajectory(chain, grid, path=p) for p in ("dense", "subspace")]}
    for label, (a, b) in runs.items():
        for col in COLUMNS:
            gap = np.max(np.abs(getattr(a, col) - getattr(b, col)))
            assert gap < 1e-12, f"{label}, {col}: {gap:.3e}"


def test_default_chain_bound_holds(chain10_record):
    margin = float(np.max(chain10_record.sigma - chain10_record.bound_total))
    assert margin <= BOUND_TOLERANCE


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
    full = model.dense
    bp = full.bipartition
    idx = np.linspace(0, dense.times.size - 1, 5).astype(int)
    (vs, ve), _ = full.initial_pair
    states, = evolve(full.hamiltonian, [np.kron(vs, ve)], dense.times[idx])
    for v in states:
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
    flipped_env = np.zeros(4, dtype=complex)
    flipped_env[1] = 1.0  # carrier slot 1: chain site 1 flipped
    pair = tuple((vs, flipped_env) for vs in equatorial_states(0.0))
    model2 = dataclasses.replace(chain, initial_pair=pair)
    rec2 = run_trajectory(model2, TimeGrid(t_max=1.0, n_steps=10), path="auto")
    assert rec2.path_used == "dense"
    with pytest.raises(ValueError):
        run_trajectory(model2, TimeGrid(t_max=1.0, n_steps=10), path="subspace")
    with pytest.raises(ValueError) as err:
        run_trajectory(model2, TimeGrid(t_max=1.0, n_steps=10), path="sideways")
    assert str(err.value) == "unknown path 'sideways'"
    # the route follows the pair of the run, not the pair the chain was built with
    rec3 = run_trajectory(model2, TimeGrid(t_max=1.0, n_steps=10), pair=chain.initial_pair)
    assert rec3.path_used == "subspace"
    assert np.array_equal(rec3.d_system, rec.d_system)
    # any amplitude past the head sends the pair dense, however small: an environment
    # amplitude of 1e-7 on flip 3 (a weight near 1e-14) is not rounded away
    chain8 = build_chain_model(ChainParams(n_total=8, b_field=0.3))
    env = np.zeros(8, dtype=complex)
    env[0], env[3] = 1.0, 1e-7
    pair = tuple((vs, env / np.linalg.norm(env)) for vs in equatorial_states(0.0))
    grid = TimeGrid(t_max=5.0, n_steps=400)
    auto = run_trajectory(chain8, grid, pair=pair)
    dense = run_trajectory(chain8, grid, path="dense", pair=pair)
    assert auto.path_used == "dense"
    for name in COLUMNS:
        assert np.array_equal(getattr(auto, name), getattr(dense, name), equal_nan=True), name
    with pytest.raises(ValueError):
        run_trajectory(chain8, grid, path="subspace", pair=pair)


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
        (16, 0.0, False, 40.0, 4000, "subspace"),
        (20, 0.0, False, 40.0, 4000, "subspace"),
        (10, 0.3, True, 40.0, 4000, "subspace"),
        (16, 0.3, True, 40.0, 4000, "subspace"),
        (20, 0.3, True, 40.0, 4000, "subspace"),
        (64, 0.0, False, 40.0, 4000, "subspace"),
        (100, 0.0, False, 40.0, 4000, "subspace"),
        (64, 0.3, True, 40.0, 4000, "subspace"),
        (100, 0.3, True, 40.0, 4000, "subspace"),
        (10, 0.0, False, 0.1, 1, "subspace"),
        (6, 0.0, False, 40.0, 4000, "dense"),
    ],
    ids=[
        "n10", "n12", "n16", "n20", "n10-field-on-system", "n16-field-on-system",
        "n20-field-on-system", "n64", "n100", "n64-field-on-system", "n100-field-on-system",
        "n10-one-step", "n6-dense",
    ],
)
def test_plus_minus_pair_matches_closed_form(n_total, b_field, field_on_system, t_max, n_steps, path):
    # through the revivals: the trace distance dips close to zero and recovers
    params = ChainParams(n_total=n_total, b_field=b_field, field_on_system=field_on_system)
    rec = run_trajectory(build_chain_model(params), TimeGrid(t_max, n_steps), path=path)
    d, sigma = _plus_minus_closed_form(n_total, rec.times)
    assert np.max(np.abs(rec.d_system - d)) <= 1e-12
    # the environment holds what the system lost: its states differ by the escaped amplitude
    assert np.max(np.abs(rec.d_env - np.sqrt(1.0 - d**2))) <= 1e-12
    # sigma has a kink wherever D touches zero
    away = d > 1e-6
    assert np.max(np.abs(rec.sigma - sigma)[away]) <= 1e-12


@pytest.mark.parametrize("b_field, field_on_system", [(0.0, False), (0.3, True)])
def test_plus_minus_pair_follows_the_bessel_envelope(b_field, field_on_system):
    # before the first reflection (t < n/4 at group velocity 8) the chain is semi-infinite:
    # |f(t)| = |J1(8t) / (4t)|
    special = pytest.importorskip("scipy.special")
    params = ChainParams(n_total=100, b_field=b_field, field_on_system=field_on_system)
    rec = run_trajectory(build_chain_model(params), TimeGrid(9.0, 2000))
    t = rec.times[1:]
    assert np.max(np.abs(rec.d_system[1:] - np.abs(special.j1(8.0 * t) / (4.0 * t)))) <= 1e-12


@pytest.mark.parametrize(
    "n_total, n_steps, path",
    [(10, 50, "auto"), (10, 200, "auto"), (10, 2000, "auto"), (10, 20000, "auto"), (8, 200, "dense")],
)
def test_bound_holds_on_every_grid(n_total, n_steps, path):
    model = build_chain_model(ChainParams(n_total=n_total))
    rec = run_trajectory(model, TimeGrid(t_max=n_total - 1.0, n_steps=n_steps), path=path)
    assert np.max(rec.sigma - rec.bound_total) <= 1e-13


@pytest.mark.parametrize("n_total", [12, 20, 64])
def test_subspace_run_never_builds_the_dense_hamiltonian(n_total):
    # one dense H is 16 * 4^n bytes, 256 MiB at n = 12; the whole run stays below a quarter of that
    model = build_chain_model(ChainParams(n_total=n_total))
    tracemalloc.start()
    try:
        rec = run_trajectory(model, TimeGrid(float(n_total - 1), 2000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.path_used == "subspace"
    assert peak <= 64 * 2**20, peak
    assert "dense" not in vars(model)


def _sector_blocked_h(rng, sz):
    """A random Hermitian h that conserves sz exactly."""
    d = sz.size
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2
    h[sz[:, None] != sz[None, :]] = 0.0
    return h


def test_evolve_leaves_unreached_coordinates_exactly_zero(monkeypatch):
    # rows read two at a time, so the search over h takes several row blocks
    monkeypatch.setattr(evolution, "CHECK_TILE", 2)
    dims = []
    original = evolution.hermitian_eig
    monkeypatch.setattr(evolution, "hermitian_eig", lambda m: dims.append(m.shape[0]) or original(m))
    times = np.linspace(0.0, 3.0, 7)
    rng = np.random.default_rng(4)
    # three interleaved sectors, each joined in one step; the vectors start in two of them
    sz = np.array([1.0, -1.0, 3.0, 1.0, 3.0, -1.0, 1.0, 3.0, -1.0])
    h = _sector_blocked_h(rng, sz)
    vectors = []
    for support in (sz == 1.0, sz == -1.0):
        v = np.where(support, rng.normal(size=sz.size) + 1j * rng.normal(size=sz.size), 0.0)
        vectors.append(v / np.linalg.norm(v))
    # a pair against the vacuum of a dense n = 6 chain: the search walks the chain site
    # by site to the n + 1 states of the 0- and 1-excitation sectors
    chain = build_chain_model(ChainParams(n_total=6, j_sys=0.6, b_field=0.3)).dense
    chain_vectors = [np.kron(vs, ve) for vs, ve in chain.initial_pair]
    cases = ((h, vectors, sz != 3.0), (chain.hamiltonian, chain_vectors, total_sz_diagonal(6) >= 4.0))
    for g, vs, reached in cases:
        for s, v in zip(evolve(g, vs, times), vs):
            assert s.shape == (times.size, reached.size)
            assert np.all(s[:, ~reached] == 0.0)
            expected = np.array([expm(-1j * t * g) @ v for t in times])
            assert np.max(np.abs(s - expected)) <= 1e-12
    assert dims == [6, 7]


def test_evolve_refuses_a_vector_that_fits_no_closed_block():
    rng = np.random.default_rng(5)
    sz = np.array([1.0, 1.0, -1.0, -1.0, -1.0])
    h = _sector_blocked_h(rng, sz)
    times = np.linspace(0.0, 1.0, 3)
    v = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.all(evolve(h, [v], times)[0][:, 2:] == 0.0)
    with pytest.raises(ValueError, match="do not all match"):
        evolve(h, [np.ones(6)], times)
    with pytest.raises(ValueError, match="do not all match"):
        evolve(h, [np.ones(5), np.ones(4)], times)


def test_hand_built_model_with_sz_diagonal_records_magnetization(monkeypatch):
    # a qubit on a 3-spin XX chain, written as a plain Model: H conserves total sz
    chain = build_chain_model(ChainParams(n_total=3, j_sys=0.7, b_field=0.2)).dense
    vacuum = np.zeros(4)
    vacuum[0] = 1.0
    pair = tuple((vs, vacuum) for vs in equatorial_states(0.4))
    plain = Model(chain.hamiltonian, chain.bipartition, pair)
    declared = Model(chain.hamiltonian, chain.bipartition, pair, sz_diagonal=total_sz_diagonal(3))
    dims = []
    original = evolution.hermitian_eig
    monkeypatch.setattr(evolution, "hermitian_eig", lambda m: dims.append(m.shape[0]) or original(m))
    grid = TimeGrid(t_max=2.0, n_steps=40)
    rec, ref = run_trajectory(declared, grid), run_trajectory(plain, grid)
    # both factorize the sz = 3 and sz = 1 sectors, the block H reaches from the pair
    assert dims == [4, 4]
    assert rec.path_used == "dense"
    assert np.all(np.isnan(ref.magnetization_1))
    # half the weight on |0>|vacuum> (sz = 3), half on |1>|vacuum> (sz = 1)
    for mags in (rec.magnetization_1, rec.magnetization_2):
        assert np.all(np.isfinite(mags))
        assert np.max(np.abs(mags - 2.0)) <= 1e-12
    for col in COLUMNS:
        assert np.max(np.abs(getattr(rec, col) - getattr(ref, col))) <= 1e-12, col


@pytest.mark.parametrize("path", ["dense", "subspace"])
def test_one_factorization_and_one_kernel_call_per_trajectory(path, monkeypatch):
    # and one search for the block: the dense route slices H to it, and the slice is
    # not searched again
    calls = {"_reached": 0, "hermitian_eig": 0, "pair_step_series": 0}
    for name in calls:
        original = getattr(evolution, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(evolution, name, counted)
    model = build_chain_model(ChainParams(n_total=5))
    rec = run_trajectory(model, TimeGrid(t_max=2.0, n_steps=40), path=path)
    assert rec.path_used == path
    assert calls == {"_reached": 1, "hermitian_eig": 1, "pair_step_series": 1}


def test_dense_chain_run_reduces_to_the_block_h_reaches(monkeypatch):
    # the kernel sees the qubit against the vacuum and the single flips, 2 n columns,
    # and the factorization the n + 1 states of the 0- and 1-excitation sectors
    n = 7
    chain = build_chain_model(ChainParams(n_total=n, j_sys=0.6, b_field=0.3))
    plain = Model(chain.dense.hamiltonian, chain.dense.bipartition, chain.dense.initial_pair)
    seen = []
    sizes = {"hermitian_eig": lambda args: args[0].shape[0], "pair_step_series": lambda args: args[3].shape[1]}
    for name, size in sizes.items():
        original = getattr(evolution, name)

        def spy(*args, _name=name, _size=size, _original=original, **kwargs):
            seen.append((_name, _size(args)))
            return _original(*args, **kwargs)

        monkeypatch.setattr(evolution, name, spy)
    grid = TimeGrid(t_max=6.0, n_steps=300)
    rec = run_trajectory(chain, grid, path="dense")
    # a chain H given as a plain Model, with no sz_diagonal, is reduced the same way
    ref = run_trajectory(plain, grid)
    assert seen == [("hermitian_eig", n + 1), ("pair_step_series", 2 * n)] * 2
    assert rec.path_used == ref.path_used == "dense"
    assert np.all(np.isnan(ref.magnetization_1))
    for col in COLUMNS:
        assert np.max(np.abs(getattr(rec, col) - getattr(ref, col))) <= 1e-12, col


def test_dense_run_memory_stays_on_the_reached_block():
    # n = 12: states over all 4096 coordinates would take 2 x 2001 x 4096 x 16 bytes, 250 MiB
    model = build_chain_model(ChainParams(n_total=12))
    model.dense  # built and validated before the measurement: its H alone is 256 MiB
    tracemalloc.start()
    try:
        rec = run_trajectory(model, TimeGrid(11.0, 2000), path="dense")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.path_used == "dense"
    assert peak < 16 * 2**20, peak


def test_a_pair_that_reaches_the_whole_space_runs_on_h_itself(monkeypatch):
    # random H and factors: every basis state is reached, so nothing is sliced or copied
    model = random_generic_model(np.random.default_rng(2), 3)
    given = []
    original = evolution.pair_step_series
    monkeypatch.setattr(evolution, "pair_step_series", lambda h, *a, **k: given.append(h) or original(h, *a, **k))
    run_trajectory(model, TimeGrid(t_max=1.0, n_steps=10))
    assert len(given) == 1 and given[0] is model.hamiltonian
