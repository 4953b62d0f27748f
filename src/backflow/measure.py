"""Non-Markovianity measure: accumulated trace-distance backflow.

The measure of a run is the sum of all strict increases of the system
trace distance over the sampled grid, which telescopes to the integral
of the positive part of sigma. Maximizing over a PairFamily of input
pairs, named as --pair names them, gives the reported value; for the
chain every antipodal equatorial pair is equivalent by symmetry, so the
canonical |+>/|-> pair is the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evolution import TimeGrid, TrajectoryRecord, run_trajectory
from .linalg import haar_random_state
from .model import ChainParams, Model, build_chain_model, equatorial_states

__all__ = [
    "PairFamily",
    "MeasureReport",
    "interval_contributions",
    "blp_integral",
    "blp_measure",
    "down_up_crossings",
]

# increases below this are treated as grid noise, not backflow
INCREASE_THRESHOLD = 1e-12


@dataclass(frozen=True)
class PairFamily:
    """A family of input pairs, named by its --pair wire name.

    spec is paper (the canonical |+>/|-> pair), equatorial:K (K equally
    spaced antipodal equatorial pairs, phi in [0, pi)), random:N (N
    Haar-random pure system-state pairs drawn from seed) or file (the
    model's own initial pair). A count is whatever int() reads.
    """

    spec: str = "paper"
    seed: int = 0

    def __post_init__(self) -> None:
        kind, _, arg = self.spec.partition(":")
        if kind in ("equatorial", "random") and arg:
            try:
                count = int(arg)
            except ValueError:
                count = 0  # refused with the counts below 1
            if count < 1:
                raise ValueError(f"bad {kind} pair count {arg!r}")
        elif self.spec not in ("paper", "file"):
            raise ValueError(f"pair must be paper, equatorial:K, random:N or file, got {self.spec!r}")

    @property
    def needs_qubit(self) -> bool:
        """Whether the pairs are qubit states: paper and equatorial pairs are."""
        return self.spec.partition(":")[0] in ("paper", "equatorial")


@dataclass(frozen=True)
class MeasureReport:
    """Measure of the best input pair plus the per-pair breakdown."""

    n_measure: float
    intervals: tuple[tuple[float, float, float], ...]
    best_pair: str
    per_pair_values: tuple[tuple[str, float], ...]
    best_record: TrajectoryRecord = field(repr=False, compare=False)


def interval_contributions(
    d_values: np.ndarray, times: np.ndarray
) -> list[tuple[float, float, float]]:
    """(start, end, gain) of each maximal interval over which the distance strictly increases."""
    d = np.asarray(d_values, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    # a closing False ends a run that reaches the last sample
    rising = np.append(np.diff(d) > INCREASE_THRESHOLD, False)
    out = []
    start = None
    for i, up in enumerate(rising):
        if up and start is None:
            start = i
        elif not up and start is not None:
            out.append((float(times[start]), float(times[i]), float(d[i] - d[start])))
            start = None
    return out


def down_up_crossings(sigma: np.ndarray, times: np.ndarray) -> list[float]:
    """Times where sigma crosses zero from below, linearly interpolated."""
    s = np.asarray(sigma, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    out = []
    for i in range(s.size - 1):
        if s[i] <= 0.0 < s[i + 1]:
            frac = -s[i] / (s[i + 1] - s[i])
            out.append(float(t[i] + frac * (t[i + 1] - t[i])))
    return out


def blp_integral(d_values: np.ndarray) -> float:
    """Sum of strict increases of the distance series.

    Telescoping makes this the discrete integral of the positive part of
    the derivative; refining the grid changes it only through genuinely
    new resolved oscillations.
    """
    d = np.asarray(d_values, dtype=np.float64)
    steps = np.diff(d)
    return float(steps[steps > INCREASE_THRESHOLD].sum())


def _pair_candidates(family: PairFamily, model: Model):
    """(label, pair) for each pair of the family.

    file yields the model's own initial pair. Every other candidate is a
    system pair against the environment factor of the model's first
    initial state.
    """
    kind, _, arg = family.spec.partition(":")
    if kind == "file":
        yield "file", model.initial_pair
        return
    ds = model.bipartition.d_system
    if family.needs_qubit and ds != 2:
        raise ValueError("equatorial input pairs need a qubit system")
    env = model.initial_pair[0][1]
    count = int(arg) if arg else 1
    if kind == "random":
        rng = np.random.default_rng(family.seed)
        for k in range(count):
            yield f"random:{k}", tuple((haar_random_state(ds, rng), env) for _ in range(2))
        return
    for k in range(count):
        phi = np.pi * k / count
        plus, minus = equatorial_states(phi)
        yield "paper" if kind == "paper" else f"equatorial:phi={phi:.12g}", ((plus, env), (minus, env))


def blp_measure(
    model_or_params: Model | ChainParams,
    grid: TimeGrid,
    pair_family: PairFamily = PairFamily(),
    path: str = "auto",
) -> MeasureReport:
    """Maximize accumulated backflow over a family of input pairs.

    Accepts either chain parameters (the chain is built once) or a
    prebuilt model. Every candidate pair runs under the same Hamiltonian,
    validated once (for a chain, the carrier block when it is built, and
    ChainModel.dense the first time a pair runs dense), and keeps the
    model's environment preparation. A chain's pairs against the vacuum
    share one factorization, of the single-excitation block, made by the
    first of them.
    """
    if isinstance(model_or_params, ChainParams):
        model = build_chain_model(model_or_params)
    else:
        model = model_or_params

    best = None
    per_pair = []
    for label, pair in _pair_candidates(pair_family, model):
        record = run_trajectory(model, grid, path=path, pair=pair)
        value = blp_integral(record.d_system)
        per_pair.append((label, value))
        if best is None or value > best[1]:
            best = (label, value, record)
    label, value, record = best
    return MeasureReport(
        n_measure=value,
        intervals=tuple(interval_contributions(record.d_system, record.times)),
        best_pair=label,
        per_pair_values=tuple(per_pair),
        best_record=record,
    )
