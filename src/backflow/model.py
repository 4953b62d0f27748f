"""Spin-chain and generic system-environment models.

The chain couples a single qubit (site 0) to the first site of an XX
chain in a transverse field. Total magnetization is conserved, so the
Hamiltonian is block diagonal over fixed-excitation sectors. The chain
model lives on its 2n-state carrier, which holds the 0- and
1-excitation sectors; the full 2^n space exists only in its dense model,
built when a run first asks for it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import CHECK_TILE, HERMITIAN_ATOL, NORM_ATOL, Bipartition, max_asymmetry

__all__ = [
    "PAULI",
    "ChainParams",
    "Model",
    "ModelFileError",
    "pauli_on_site",
    "product_pair",
    "ChainModel",
    "build_chain_model",
    "carrier_indices",
    "chain_build_peak_bytes",
    "chain_run_peak_bytes",
    "run_peak_bytes",
    "plus_minus_pair",
    "equatorial_states",
    "load_generic_model",
    "total_sz_diagonal",
]

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}

class ModelFileError(ValueError):
    """A generic-model file could not be accepted."""


def pauli_on_site(axis: str, site: int, n_total: int) -> np.ndarray:
    """Single-site Pauli operator embedded in an n_total-spin register.

    Site 0 is the leftmost tensor factor.
    """
    if axis not in PAULI:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    if not 0 <= site < n_total:
        raise ValueError(f"site {site} out of range for {n_total} spins")
    left = np.eye(2**site, dtype=np.complex128)
    right = np.eye(2 ** (n_total - site - 1), dtype=np.complex128)
    return np.kron(np.kron(left, PAULI[axis]), right)


def total_sz_diagonal(n_total: int) -> np.ndarray:
    """Diagonal of sum_n sigma_n^z on all 2^n_total computational basis states."""
    idx = np.arange(2**n_total)
    return n_total - 2.0 * sum((idx >> bit) & 1 for bit in range(n_total))


@dataclass(frozen=True)
class ChainParams:
    """Parameters of the qubit-plus-XX-chain model.

    n_total counts every spin including the system qubit. j_env and
    j_sys are the intra-environment and system-environment exchange
    amplitudes, b_field the transverse field on the environment sites.
    field_on_system additionally applies the field to the qubit itself.
    """

    n_total: int = 10
    j_env: float = 1.0
    j_sys: float = 1.0
    b_field: float = 0.01
    field_on_system: bool = False

    def __post_init__(self) -> None:
        if self.n_total < 2:
            raise ValueError(f"need at least one environment spin, got n_total={self.n_total}")
        if self.j_env == 0.0:
            raise ValueError("j_env must be nonzero; ratios are taken against it")


ProductState = tuple[np.ndarray, np.ndarray]


def product_pair(pair, bipartition: Bipartition) -> tuple[ProductState, ProductState]:
    """Check two product states given as (system vector, environment vector).

    Returns the factors as contiguous complex128 arrays. Raises ValueError
    unless there are exactly two states whose factors have shapes
    (d_system,) and (d_environment,) and unit norm within NORM_ATOL.
    """
    if len(pair) != 2:
        raise ValueError("initial_pair must hold exactly two states")
    shapes = ((bipartition.d_system,), (bipartition.d_environment,))
    out = []
    for i, state in enumerate(pair):
        try:
            vs, ve = state
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"initial state {i + 1} must be a (system vector, environment vector) pair"
            ) from exc
        factors = (
            np.ascontiguousarray(np.asarray(vs, dtype=np.complex128)),
            np.ascontiguousarray(np.asarray(ve, dtype=np.complex128)),
        )
        for name, v, shape in zip(("system", "environment"), factors, shapes):
            if v.shape != shape:
                raise ValueError(
                    f"initial state {i + 1}: {name} factor shape {v.shape} does not match {shape}"
                )
            norm = float(np.linalg.norm(v))
            if abs(norm - 1.0) > NORM_ATOL:
                raise ValueError(
                    f"initial state {i + 1}: {name} factor norm {norm:.17g} differs from 1"
                )
        out.append(factors)
    return out[0], out[1]


@dataclass(frozen=True)
class Model:
    """Joint Hamiltonian, bipartition and a pair of initial product states.

    Each initial state is held as its factors (system vector, environment
    vector), so the pair is uncorrelated by construction. sz_diagonal,
    when present, is the magnetization of each basis state; the
    Hamiltonian must conserve it exactly, as Model checks. A run reads it
    only for the magnetization columns of its record; without it they are
    NaN. Nothing else about H is declared: every diagnostic reads H
    itself. Every check it fails raises ValueError.
    """

    hamiltonian: np.ndarray
    bipartition: Bipartition
    initial_pair: tuple[ProductState, ProductState]
    sz_diagonal: np.ndarray | None = None

    def __post_init__(self) -> None:
        h = np.ascontiguousarray(np.asarray(self.hamiltonian, dtype=np.complex128))
        object.__setattr__(self, "hamiltonian", h)
        d = self.bipartition.d_joint
        if h.shape != (d, d):
            raise ValueError(f"hamiltonian shape {h.shape} does not match bipartition dimension {d}")
        object.__setattr__(self, "initial_pair", product_pair(self.initial_pair, self.bipartition))
        asym = max_asymmetry(h)
        if asym > HERMITIAN_ATOL:
            raise ValueError(f"hamiltonian not Hermitian, max asymmetry {asym:.3e}")
        if self.sz_diagonal is not None:
            sz = np.asarray(self.sz_diagonal, dtype=np.float64)
            if sz.shape != (d,):
                raise ValueError(f"sz_diagonal shape {sz.shape} does not match dimension {d}")
            object.__setattr__(self, "sz_diagonal", sz)
            self._check_sectors(h)

    def _check_sectors(self, h: np.ndarray) -> None:
        """H conserves sz_diagonal exactly: every entry between two sz sectors is 0."""
        sz = self.sz_diagonal
        leak = 0.0
        # row blocks keep the gathered off-sector entries to CHECK_TILE x d
        for i in range(0, h.shape[0], CHECK_TILE):
            off = sz[i : i + CHECK_TILE, None] != sz[None, :]
            if off.any():
                leak = max(leak, float(np.max(np.abs(h[i : i + CHECK_TILE][off]))))
        if leak > 0.0:
            raise ValueError(f"hamiltonian leaks between sectors, max off-sector entry {leak:.3e}")


def equatorial_states(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The antipodal equatorial qubit states (|0> +- e^{i phi} |1>)/sqrt(2)."""
    phase = np.exp(1j * phi)
    plus = np.array([1.0, phase], dtype=np.complex128) / np.sqrt(2.0)
    minus = np.array([1.0, -phase], dtype=np.complex128) / np.sqrt(2.0)
    return plus, minus


def plus_minus_pair(n_total: int) -> tuple[ProductState, ProductState]:
    """|+> and |-> against the chain's vacuum, as (system, environment) factors.

    The environment factor is in carrier coordinates (see ChainModel):
    n_total slots, the vacuum first. The system factors are
    equatorial_states(0). The pair is orthogonal, so the joint trace
    distance starts at 1.
    """
    env = np.zeros(n_total, dtype=np.complex128)
    env[0] = 1.0
    plus, minus = equatorial_states(0.0)
    return (plus, env), (minus, env)


def chain_build_peak_bytes(n_total: int) -> int:
    """Upper bound on the memory the dense chain Model needs for n_total spins.

    Two dense 2^n_total-square complex128 matrices: the Hamiltonian,
    plus headroom for the index arrays it is written from and the tiles
    of the Model checks, which form no dense temporary.
    """
    return 2 * np.dtype(np.complex128).itemsize * 4**n_total


def run_peak_bytes(n_steps: int, dim: int, block: int) -> int:
    """Lower bound on the memory of the per-time arrays of one run.

    Per sample time: the float64 time, two complex128 states of dim
    coordinates, and the complex128 phases of the factorized block of H.
    """
    return (n_steps + 1) * (8 + 16 * (2 * dim + block))


def chain_run_peak_bytes(n_total: int, n_steps: int) -> int:
    """Lower bound on the memory of a chain run against the vacuum with n_steps intervals.

    The chain is built as the 2 n_total-square complex128 carrier block
    of H, kept through the run. The run adds the complex128 eigenvectors
    of the n_total-square single-excitation block and, per sample time,
    the run_peak_bytes of states on 6 coordinates (the qubit against
    three environment states, with no phases: the amplitudes are formed
    in chunks) and the record's 25 float64 columns. A pair off the vacuum
    runs on the dense H, which chain_build_peak_bytes sizes.
    """
    itemsize = np.dtype(np.complex128).itemsize
    blocks = itemsize * ((2 * n_total) ** 2 + n_total**2)
    return blocks + run_peak_bytes(n_steps, 6, 0) + (n_steps + 1) * 25 * 8


def carrier_indices(n_total: int) -> np.ndarray:
    """Full-space indices of the carrier slots (s, k), in slot order.

    Slot (s, k) is |s>_S (x) |e_k>_E: s is the qubit state, e_0 the
    environment vacuum and e_k flips chain site k. The order is s-major,
    so the carrier is a product basis of shape (2, n_total).
    """
    big_n = n_total - 1
    env = [0] + [1 << (big_n - k) for k in range(1, big_n + 1)]
    return np.array([(s << big_n) + e for s in (0, 1) for e in env], dtype=np.int64)


def _carrier_slots(n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """The labels (s, k) of the 2 n_total carrier slots, in slot order."""
    return np.repeat([0, 1], n_total), np.tile(np.arange(n_total), 2)


def _field_diagonal(params: ChainParams, flipped) -> np.ndarray:
    """The field terms -2 b_field sz_site, summed site by site in one fixed order.

    flipped(site) is 1 on the basis states that flip site and 0 on the
    others. Both Hamiltonian writers sum through here, so the carrier
    block and the dense H hold bit-identical diagonals.
    """
    n = params.n_total
    diag = 0.0
    for site in list(range(1, n)) + ([0] if params.field_on_system else []):
        sz = 1.0 - 2.0 * flipped(site)
        diag = diag - 2.0 * params.b_field * sz
    return diag


def _chain_hamiltonian(params: ChainParams) -> np.ndarray:
    """The chain Hamiltonian on all 2^n_total computational basis states.

    H = -2 j_sys (sx_0 sx_1 + sy_0 sy_1)
        -2 j_env sum_{n=1..N-1} (sx_n sx_{n+1} + sy_n sy_{n+1})
        -2 b_field sum_{n=1..N} sz_n            (sites 1..N, plus site 0
                                                 when field_on_system)
    with N = n_total - 1 environment spins.

    H is written entry by entry from the bits of the basis index (site s
    is bit n_total - 1 - s): since sx sx + sy sy = 2 (s+ s- + s- s+),
    each bond connects a basis state whose two bond bits differ to the
    state with both flipped, with amplitude -4 J. The field terms are
    the diagonal (_field_diagonal).
    """
    n = params.n_total
    idx = np.arange(2**n)
    h = np.zeros((idx.size, idx.size), dtype=np.complex128)
    for site in range(n - 1):
        j = params.j_sys if site == 0 else params.j_env
        mask = 3 << (n - 2 - site)
        bond_bits = idx & mask
        movers = idx[(bond_bits != 0) & (bond_bits != mask)]
        h[movers, movers ^ mask] = -4.0 * j
    h[idx, idx] = _field_diagonal(params, lambda site: (idx >> (n - 1 - site)) & 1)
    return h


def _carrier_hamiltonian(params: ChainParams) -> np.ndarray:
    """The 2 n_total-square block of the chain Hamiltonian on the carrier slots.

    Written from the slot labels (s, k) by the bond rules of
    _chain_hamiltonian: the system bond joins (1, 0) and (0, 1), bond
    (m, m+1) of the chain joins (s, m) and (s, m+1), and a partner
    outside the carrier is dropped. Every entry is the one the dense H
    holds at the same pair of basis states, bit for bit.
    """
    n = params.n_total
    s, k = _carrier_slots(n)
    h = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    h[n, 1] = h[1, n] = -4.0 * params.j_sys
    m = np.arange(1, n - 1)
    for row in (m, n + m):
        h[row, row + 1] = h[row + 1, row] = -4.0 * params.j_env
    slots = np.arange(2 * n)
    h[slots, slots] = _field_diagonal(params, lambda site: s if site == 0 else k == site)
    return h


@dataclass(frozen=True)
class ChainModel(Model):
    """The qubit-plus-XX-chain model on its carrier of 2 n_total states.

    The carrier slot (s, k) is |s>_S (x) |e_k>_E, with e_0 the
    environment vacuum and e_k chain site k flipped (carrier_indices).
    hamiltonian is the carrier block of H, bipartition is (2, n_total),
    the initial pair's environment factors are carrier coordinates and
    sz_diagonal is the magnetization of each slot. Slots 1..n_total hold
    the single-excitation sector whole: a pair against the vacuum runs on
    that block, whose factors a run keeps on the model the first time it
    factorizes it. Every other pair runs on `dense`, the only place the
    2^n_total space exists.
    """

    params: ChainParams = field(kw_only=True)

    @functools.cached_property
    def dense(self) -> Model:
        """The full Hamiltonian and its magnetization, built and validated once.

        Its initial pair is the chain's, embedded by dense_pair.
        """
        n = self.params.n_total
        return Model(
            hamiltonian=_chain_hamiltonian(self.params),
            bipartition=Bipartition(2, 2 ** (n - 1)),
            initial_pair=self.dense_pair(self.initial_pair),
            sz_diagonal=total_sz_diagonal(n),
        )

    def coupling_terms(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(system, environment) factors whose kron sum is the dense H minus an environment-only rest.

        On the 2^(n_total - 1) environment: sx and sy against -2 j_sys
        times the same Pauli on chain site 1, and under field_on_system sz
        against -2 b_field I. Only verify's coupling-route check reads them.
        """
        p = self.params
        n_env = p.n_total - 1
        terms = [(PAULI[a].copy(), -2.0 * p.j_sys * pauli_on_site(a, 0, n_env)) for a in ("x", "y")]
        if p.field_on_system:
            terms.append((PAULI["z"].copy(), -2.0 * p.b_field * np.eye(2**n_env, dtype=np.complex128)))
        return tuple(terms)

    def dense_pair(self, pair) -> tuple[ProductState, ProductState]:
        """pair, whose environment factors are carrier coordinates, in the 2^n_total space.

        Each environment factor is embedded through carrier_indices; the
        system factors are kept.
        """
        n = self.params.n_total
        env = carrier_indices(n)[:n]
        out = []
        for vs, ve in pair:
            full = np.zeros(2 ** (n - 1), dtype=np.complex128)
            full[env] = ve
            out.append((vs, full))
        return out[0], out[1]


def build_chain_model(params: ChainParams) -> ChainModel:
    """The chain of `params` on its carrier, with the plus_minus_pair.

    Only the 2 n_total-square carrier block is built and validated here;
    the 2^n_total Model is built when a run first reads ChainModel.dense.
    """
    n = params.n_total
    s, k = _carrier_slots(n)
    return ChainModel(
        hamiltonian=_carrier_hamiltonian(params),
        bipartition=Bipartition(2, n),
        initial_pair=plus_minus_pair(n),
        # slot (s, k) flips s + [k > 0] spins
        sz_diagonal=n - 2.0 * (s + (k > 0)),
        params=params,
    )


def _complex_array(node, where: str, path: str) -> np.ndarray:
    """Decode nested [re, im] pairs into a complex array."""
    try:
        arr = np.asarray(node, dtype=np.float64)
    except (TypeError, ValueError):  # a string, or rows of unequal length
        arr = np.empty(0)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ModelFileError(f"{path}: {where} must consist of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _product_from_joint(joint: np.ndarray, ds: int, de: int, path: str, where: str):
    """Split a joint pure state into factors, rejecting correlated input."""
    psi = joint.reshape(ds, de)
    u, s, vh = np.linalg.svd(psi)
    if s.size > 1 and s[1] > 1e-8 * max(s[0], 1.0):
        raise ModelFileError(
            f"{path}: {where} carries system-environment correlations "
            f"(second Schmidt coefficient {s[1]:.3e}); only product initial states are allowed"
        )
    return u[:, 0] * s[0], vh[0, :].conj()


def _normalized(v: np.ndarray, path: str, where: str) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-6:
        raise ModelFileError(f"{path}: {where} has norm {norm:.6g}, expected 1")
    return v / norm


def _unknown_keys(node: dict, known) -> str:
    """The keys of node outside known, sorted and quoted; empty when there are none."""
    return ", ".join(repr(k) for k in sorted(set(node) - set(known)))


def load_generic_model(path: str | Path) -> Model:
    """Read a system-environment model from a JSON file.

    Expected layout::

        {
          "dims": {"system": 2, "environment": 3},
          "hamiltonian": [[[re, im], ...], ...],
          "initial_states": [
            {"system_state": [[re, im], ...], "environment_state": [...]},
            {"joint_state": [[re, im], ...]}
          ]
        }

    Any other key is refused, and so is a state entry that gives both
    forms, so a file is never half-read. A joint_state entry must be a
    product state; correlated input is rejected because every downstream
    bound assumes uncorrelated initial conditions.
    """
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"{path}: cannot parse model file ({exc})") from exc

    if not isinstance(doc, dict):
        raise ModelFileError(f"{path}: top level must be an object")
    keys = ("dims", "hamiltonian", "initial_states")
    for key in keys:
        if key not in doc:
            raise ModelFileError(f"{path}: missing required key '{key}'")
    unknown = _unknown_keys(doc, keys)
    if unknown:
        raise ModelFileError(f"{path}: unknown key {unknown}")
    dims = doc["dims"]
    if not isinstance(dims, dict) or "system" not in dims or "environment" not in dims:
        raise ModelFileError(f"{path}: dims must carry 'system' and 'environment'")
    unknown = _unknown_keys(dims, ("system", "environment"))
    if unknown:
        raise ModelFileError(f"{path}: dims has unknown key {unknown}")
    ds, de = dims["system"], dims["environment"]
    if any(isinstance(n, bool) or not isinstance(n, int) for n in (ds, de)):
        raise ModelFileError(f"{path}: dims entries must be integers, got ({ds!r}, {de!r})")
    if ds < 1 or de < 1:
        raise ModelFileError(f"{path}: dims must be positive, got ({ds}, {de})")
    d = ds * de

    h = _complex_array(doc["hamiltonian"], "hamiltonian", path)

    entries = doc["initial_states"]
    if not isinstance(entries, list) or len(entries) != 2:
        raise ModelFileError(f"{path}: initial_states must list exactly two states")
    pair = []
    for i, entry in enumerate(entries):
        where = f"initial_states[{i}]"
        if not isinstance(entry, dict):
            raise ModelFileError(f"{path}: {where} must be an object")
        unknown = _unknown_keys(entry, ("joint_state", "system_state", "environment_state"))
        if unknown:
            raise ModelFileError(f"{path}: {where} has unknown key {unknown}")
        if "joint_state" in entry:
            if len(entry) > 1:
                others = _unknown_keys(entry, ("joint_state",))
                raise ModelFileError(f"{path}: {where} gives joint_state together with {others}")
            joint = _complex_array(entry["joint_state"], where, path).ravel()
            if joint.size != d:
                raise ModelFileError(f"{path}: {where} joint_state has dimension {joint.size}, expected {d}")
            joint = _normalized(joint, path, where)
            vs, ve = _product_from_joint(joint, ds, de, path, where)
        elif "system_state" in entry and "environment_state" in entry:
            vs = _complex_array(entry["system_state"], where, path).ravel()
            ve = _complex_array(entry["environment_state"], where, path).ravel()
            vs = _normalized(vs, path, f"{where}.system_state")
            ve = _normalized(ve, path, f"{where}.environment_state")
        else:
            raise ModelFileError(
                f"{path}: {where} needs either joint_state or both "
                f"system_state and environment_state"
            )
        pair.append((vs, ve))

    try:
        return Model(
            hamiltonian=h,
            bipartition=Bipartition(ds, de),
            initial_pair=(pair[0], pair[1]),
        )
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc
