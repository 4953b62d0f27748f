import dataclasses
import tracemalloc

import numpy as np
import pytest

from backflow.evolution import TimeGrid, run_trajectory
from backflow.linalg import Bipartition, haar_random_state
from backflow.measure import (
    PairFamily,
    blp_integral,
    blp_measure,
    down_up_crossings,
    interval_contributions,
)
from backflow.model import ChainParams, Model, build_chain_model


def test_increasing_intervals_by_hand():
    d = np.array([1.0, 0.8, 0.9, 0.95, 0.7, 0.75, 0.7])
    t = np.arange(7.0)
    contrib = interval_contributions(d, t)
    assert [(a, b) for a, b, _ in contrib] == [(1.0, 3.0), (4.0, 5.0)]
    assert len(contrib) == 2
    assert abs(contrib[0][2] - 0.15) < 1e-15
    assert abs(contrib[1][2] - 0.05) < 1e-15


def test_threshold_suppresses_noise():
    d = np.array([0.5, 0.5 + 1e-13, 0.5])
    t = np.arange(3.0)
    assert interval_contributions(d, t) == []
    assert blp_integral(d) == 0.0


def test_blp_integral_telescopes():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = rng.uniform(size=50)
        t = np.arange(50.0)
        total = sum(c for _, _, c in interval_contributions(d, t))
        assert abs(total - blp_integral(d)) < 1e-12


def test_monotone_series_measures_zero():
    d = np.linspace(1.0, 0.2, 40)
    assert blp_integral(d) == 0.0
    assert interval_contributions(d, np.arange(40.0)) == []


def test_down_up_crossings_interpolation():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    sigma = np.array([-1.0, 1.0, -1.0, -0.5])
    got = down_up_crossings(sigma, t)
    assert len(got) == 1
    assert abs(got[0] - 0.5) < 1e-12
    # an up-down flank is not counted
    assert down_up_crossings(np.array([1.0, -1.0]), t[:2]) == []


def test_blp_measure_chain_report():
    report = blp_measure(ChainParams(n_total=4), TimeGrid(t_max=3.0, n_steps=200))
    assert report.best_pair == "paper"
    assert report.n_measure > 0.0
    assert report.best_record is not None
    assert report.best_record.path_used == "subspace"
    total = sum(c for _, _, c in report.intervals)
    assert abs(total - report.n_measure) < 1e-12


def test_blp_measure_accepts_model():
    model = build_chain_model(ChainParams(n_total=4))
    grid = TimeGrid(t_max=3.0, n_steps=200)
    a = blp_measure(model, grid)
    b = blp_measure(ChainParams(n_total=4), grid)
    assert a.n_measure == b.n_measure


def test_equatorial_values_coincide():
    # z-rotation symmetry: every antipodal equatorial pair is equivalent
    grid = TimeGrid(t_max=3.0, n_steps=300)
    scan = blp_measure(ChainParams(n_total=5), grid, PairFamily("equatorial:6"))
    values = [v for _, v in scan.per_pair_values]
    assert len(values) == 6
    assert max(values) - min(values) < 1e-9
    paper = blp_measure(ChainParams(n_total=5), grid, PairFamily())
    assert abs(values[0] - paper.n_measure) < 1e-12


def test_pair_swap_invariance():
    # the trace distance is symmetric in its two arguments
    chain = build_chain_model(ChainParams(n_total=4))
    swapped = dataclasses.replace(chain, initial_pair=(chain.initial_pair[1], chain.initial_pair[0]))
    grid = TimeGrid(t_max=3.0, n_steps=150)
    a = run_trajectory(chain, grid)
    b = run_trajectory(swapped, grid)
    assert np.max(np.abs(a.d_system - b.d_system)) < 1e-12
    assert np.max(np.abs(a.bound_total - b.bound_total)) < 1e-12
    # the same swap handed to the chain model as a pair
    c = run_trajectory(chain, grid, pair=swapped.initial_pair)
    assert np.array_equal(c.d_system, b.d_system)
    assert np.array_equal(c.bound_total, b.bound_total)
    with pytest.raises(ValueError):
        run_trajectory(chain, grid, pair=(chain.initial_pair[0], (np.ones(2), np.ones(8))))


def test_measure_validates_hamiltonian_once(monkeypatch):
    calls = []
    check = Model.__post_init__

    def counted(self):
        calls.append(self.hamiltonian.shape)
        return check(self)

    monkeypatch.setattr(Model, "__post_init__", counted)
    report = blp_measure(ChainParams(n_total=6), TimeGrid(5.0, 50), PairFamily("equatorial:4"))
    assert len(report.per_pair_values) == 4
    assert len(calls) == 1


def test_random_pairs_reproducible():
    grid = TimeGrid(t_max=2.0, n_steps=100)
    a = blp_measure(ChainParams(n_total=4), grid, PairFamily("random:3", seed=5))
    b = blp_measure(ChainParams(n_total=4), grid, PairFamily("random:3", seed=5))
    assert a.per_pair_values == b.per_pair_values
    c = blp_measure(ChainParams(n_total=4), grid, PairFamily("random:3", seed=6))
    assert a.per_pair_values != c.per_pair_values
    # Haar pairs never beat the antipodal optimum by construction
    paper = blp_measure(ChainParams(n_total=4), grid, PairFamily())
    assert max(v for _, v in a.per_pair_values) <= paper.n_measure + 1e-9


def test_qubit_pair_families_refuse_other_systems():
    # a dense qutrit-qubit model with Haar-random product initial states
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    pair = tuple((haar_random_state(3, rng), haar_random_state(2, rng)) for _ in range(2))
    qutrit = Model((a + a.conj().T) / 2.0, Bipartition(3, 2), pair)
    grid = TimeGrid(t_max=1.0, n_steps=10)
    assert blp_measure(qutrit, grid, PairFamily("file")).best_pair == "file"
    assert len(blp_measure(qutrit, grid, PairFamily("random:2")).per_pair_values) == 2
    for spec in ("paper", "equatorial:2"):
        with pytest.raises(ValueError, match="need a qubit system"):
            blp_measure(qutrit, grid, PairFamily(spec))


def test_measure_grid_refinement(chain10_model, chain10_record):
    # kinks where the distance touches zero make this first order in dt
    n_coarse = blp_integral(chain10_record.d_system)
    fine = run_trajectory(chain10_model, TimeGrid(9.0, 4000), path="subspace")
    assert abs(n_coarse - blp_integral(fine.d_system)) < 2e-2


def test_measure_matches_rate_integral(chain10_record):
    # independent route: trapezoidal integral of the positive rate part
    rec = chain10_record
    dt = rec.times[1] - rec.times[0]
    trap = float(np.trapezoid(np.clip(rec.sigma, 0.0, None), dx=dt))
    n = blp_integral(rec.d_system)
    assert abs(n - trap) < 2e-2


def test_intervals_cover_crossings(chain10_record):
    # each down-up sigma crossing starts a distance-increase interval
    rec = chain10_record
    crossings = down_up_crossings(rec.sigma, rec.times)
    intervals = [(a, b) for a, b, _ in interval_contributions(rec.d_system, rec.times)]
    dt = rec.times[1] - rec.times[0]
    for c in crossings:
        assert any(a - 2 * dt <= c <= b for a, b in intervals)


def test_measure_peak_memory_stays_near_one_run(chain10_model):
    # a measure keeps the best and the latest record while the next pair runs;
    # a record holds diagnostic columns, not the evolved states
    grid = TimeGrid(9.0, 4000)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_run = peak(lambda: run_trajectory(chain10_model, grid))
    measure = peak(lambda: blp_measure(chain10_model, grid, PairFamily("equatorial:3")))
    assert measure < 1.4 * one_run, (measure, one_run)
