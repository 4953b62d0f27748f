"""Spin-chain and generic system-environment models.

The chain couples a single qubit (site 0) to the first site of an XX
chain in a transverse field. Total magnetization is conserved, so the
Hamiltonian is block diagonal over fixed-excitation sectors; the sector
index sets are attached to the model for the fast evolution path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import CHECK_TILE, HERMITIAN_ATOL, NORM_ATOL, Bipartition, kron, max_asymmetry

__all__ = [
    "PAULI",
    "ChainParams",
    "Model",
    "ModelFileError",
    "NonHermitianHamiltonianError",
    "DimensionMismatchError",
    "CorrelatedInitialStateError",
    "pauli_on_site",
    "product_pair",
    "build_chain_model",
    "chain_build_peak_bytes",
    "plus_minus_pair",
    "equatorial_states",
    "equatorial_pair",
    "load_generic_model",
    "total_sz_diagonal",
    "excitation_sectors",
]

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}
_ID2 = np.eye(2, dtype=np.complex128)

INTERACTION_RESIDUAL_ATOL = 1e-12
SECTOR_ATOL = 1e-14


class ModelFileError(ValueError):
    """A generic-model file could not be accepted."""


class NonHermitianHamiltonianError(ModelFileError):
    pass


class DimensionMismatchError(ModelFileError):
    pass


class CorrelatedInitialStateError(ModelFileError):
    pass


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
    return kron(kron(left, PAULI[axis]), right)


def total_sz_diagonal(n_total: int) -> np.ndarray:
    """Diagonal of sum_n sigma_n^z in the computational basis."""
    idx = np.arange(2**n_total)
    bits = (idx[:, None] >> np.arange(n_total)[::-1]) & 1
    return (n_total - 2 * bits.sum(axis=1)).astype(np.float64)


def excitation_sectors(n_total: int) -> tuple[np.ndarray, ...]:
    """Computational-basis index sets with fixed number of flipped spins."""
    idx = np.arange(2**n_total)
    bits = (idx[:, None] >> np.arange(n_total)[::-1]) & 1
    weight = bits.sum(axis=1)
    return tuple(np.flatnonzero(weight == k) for k in range(n_total + 1))


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
    vector), so the pair is uncorrelated by construction.
    interaction_terms, when present, lists (system operator, environment
    operator) factors whose kron-sum plus a purely environment-local
    remainder reproduces the Hamiltonian. sector_basis, when present,
    lists index sets over which the Hamiltonian is block diagonal.
    """

    hamiltonian: np.ndarray
    bipartition: Bipartition
    initial_pair: tuple[ProductState, ProductState]
    interaction_terms: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None
    sector_basis: tuple[np.ndarray, ...] | None = None

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
        if self.interaction_terms is not None:
            self._check_interaction_terms(h)
        if self.sector_basis is not None:
            self._check_sectors(h)

    def _check_interaction_terms(self, h: np.ndarray) -> None:
        ds, de = self.bipartition.d_system, self.bipartition.d_environment
        terms = []
        for a, b in self.interaction_terms:
            a = np.asarray(a, dtype=np.complex128)
            b = np.asarray(b, dtype=np.complex128)
            if a.shape != (ds, ds) or b.shape != (de, de):
                raise ValueError(
                    f"interaction factor shapes {a.shape}, {b.shape} do not match bipartition ({ds}, {de})"
                )
            terms.append((a, b))
        blocks = h.reshape(ds, de, ds, de)

        def residual(s: int, t: int) -> np.ndarray:
            # block (s, t) of h minus that of every kron(a, b), one de x de block at a time
            r = blocks[s, :, t, :].copy()
            for a, b in terms:
                r -= a[s, t] * b
            return r

        # whatever is left must act on the environment alone: I_S (x) M
        target = residual(0, 0)
        for s in range(ds):
            for t in range(ds):
                block = residual(s, t) - target if s == t else residual(s, t)
                if float(np.max(np.abs(block))) > INTERACTION_RESIDUAL_ATOL:
                    raise ValueError(
                        "hamiltonian minus interaction terms is not environment-local"
                    )

    def _check_sectors(self, h: np.ndarray) -> None:
        d = h.shape[0]
        label = np.full(d, -1, dtype=np.int64)
        for k, idx in enumerate(self.sector_basis):
            label[np.asarray(idx)] = k
        if np.any(label < 0):
            raise ValueError("sector_basis does not cover the joint space")
        leak = 0.0
        # row blocks keep the gathered off-sector entries to CHECK_TILE x d
        for i in range(0, d, CHECK_TILE):
            off = label[i : i + CHECK_TILE, None] != label[None, :]
            if off.any():
                leak = max(leak, float(np.max(np.abs(h[i : i + CHECK_TILE][off]))))
        if leak > SECTOR_ATOL:
            raise ValueError(f"hamiltonian leaks between sectors, max off-sector entry {leak:.3e}")

    @property
    def dimension(self) -> int:
        return self.bipartition.d_joint


def equatorial_states(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The antipodal equatorial qubit states (|0> +- e^{i phi} |1>)/sqrt(2)."""
    phase = np.exp(1j * phi)
    plus = np.array([1.0, phase], dtype=np.complex128) / np.sqrt(2.0)
    minus = np.array([1.0, -phase], dtype=np.complex128) / np.sqrt(2.0)
    return plus, minus


def equatorial_pair(phi: float, n_total: int) -> tuple[ProductState, ProductState]:
    """Antipodal equatorial qubit pair against an all-|0> environment.

    Each state is returned as its (system, environment) factors; the
    system factors are equatorial_states(phi). The pair is orthogonal,
    so the joint trace distance starts at 1.
    """
    env = np.zeros(2 ** (n_total - 1), dtype=np.complex128)
    env[0] = 1.0
    plus, minus = equatorial_states(phi)
    return (plus, env), (minus, env)


def plus_minus_pair(n_total: int) -> tuple[ProductState, ProductState]:
    """|+> and |-> against an all-|0> environment (phi = 0 equatorial pair)."""
    return equatorial_pair(0.0, n_total)


def chain_build_peak_bytes(n_total: int) -> int:
    """Upper bound on the memory build_chain_model needs for n_total spins.

    Four dense 2^n_total-square complex128 matrices: the Hamiltonian
    plus the temporaries of the Model checks run on it.
    """
    return 4 * np.dtype(np.complex128).itemsize * 4**n_total


def build_chain_model(
    params: ChainParams,
    initial_pair: tuple[ProductState, ProductState] | None = None,
) -> Model:
    """Assemble the chain Hamiltonian with sector metadata.

    H = -2 j_sys (sx_0 sx_1 + sy_0 sy_1)
        -2 j_env sum_{n=1..N-1} (sx_n sx_{n+1} + sy_n sy_{n+1})
        -2 b_field sum_{n=1..N} sz_n            (sites 1..N, plus site 0
                                                 when field_on_system)
    with N = n_total - 1 environment spins.

    H is written entry by entry from the bits of the basis index (site s
    is bit n_total - 1 - s), O(n_total 2^n_total) writes: since
    sx sx + sy sy = 2 (s+ s- + s- s+), each bond connects a basis state
    whose two bond bits differ to the state with both flipped, with
    amplitude -4 J. The field terms are the diagonal, summed site by
    site in the order above.
    """
    n = params.n_total
    big_n = n - 1
    d = 2**n
    idx = np.arange(d)
    h = np.zeros((d, d), dtype=np.complex128)
    for site in range(big_n):
        j = params.j_sys if site == 0 else params.j_env
        mask = 3 << (n - 2 - site)
        bond_bits = idx & mask
        movers = idx[(bond_bits != 0) & (bond_bits != mask)]
        h[movers, movers ^ mask] = -4.0 * j
    diag = np.zeros(d)
    field_sites = list(range(1, n)) + ([0] if params.field_on_system else [])
    for site in field_sites:
        sz = 1.0 - 2.0 * ((idx >> (n - 1 - site)) & 1)
        diag -= 2.0 * params.b_field * sz
    h[idx, idx] = diag

    d_env = 2**big_n
    terms: list[tuple[np.ndarray, np.ndarray]] = []
    for axis in ("x", "y"):
        env_op = -2.0 * params.j_sys * pauli_on_site(axis, 0, big_n)
        terms.append((PAULI[axis].copy(), env_op))
    if params.field_on_system:
        terms.append((PAULI["z"].copy(), -2.0 * params.b_field * np.eye(d_env, dtype=np.complex128)))

    if initial_pair is None:
        initial_pair = plus_minus_pair(n)
    return Model(
        hamiltonian=h,
        bipartition=Bipartition(2, d_env),
        initial_pair=initial_pair,
        interaction_terms=tuple(terms),
        sector_basis=excitation_sectors(n),
    )


def _complex_array(node, where: str, path: str) -> np.ndarray:
    """Decode nested [re, im] pairs into a complex array."""
    arr = np.asarray(node, dtype=np.float64)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ModelFileError(f"{path}: {where} must consist of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _product_from_joint(joint: np.ndarray, ds: int, de: int, path: str, where: str):
    """Split a joint pure state into factors, rejecting correlated input."""
    psi = joint.reshape(ds, de)
    u, s, vh = np.linalg.svd(psi)
    if s.size > 1 and s[1] > 1e-8 * max(s[0], 1.0):
        raise CorrelatedInitialStateError(
            f"{path}: {where} carries system-environment correlations "
            f"(second Schmidt coefficient {s[1]:.3e}); only product initial states are allowed"
        )
    return u[:, 0] * s[0], vh[0, :].conj()


def _normalized(v: np.ndarray, path: str, where: str) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-6:
        raise ModelFileError(f"{path}: {where} has norm {norm:.6g}, expected 1")
    return v / norm


def load_generic_model(path: str | Path) -> Model:
    """Read a system-environment model from a JSON file.

    Expected layout::

        {
          "dims": {"system": 2, "environment": 3},
          "hamiltonian": [[[re, im], ...], ...],
          "initial_states": [
            {"system_state": [[re, im], ...], "environment_state": [...]},
            {"joint_state": [[re, im], ...]}
          ],
          "interaction_terms": [{"system": [[...]], "environment": [[...]]}]
        }

    interaction_terms is optional. A joint_state entry must be a product
    state; correlated input is rejected because every downstream bound
    assumes uncorrelated initial conditions.
    """
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"{path}: cannot parse model file ({exc})") from exc

    if not isinstance(doc, dict):
        raise ModelFileError(f"{path}: top level must be an object")
    for key in ("dims", "hamiltonian", "initial_states"):
        if key not in doc:
            raise ModelFileError(f"{path}: missing required key '{key}'")
    dims = doc["dims"]
    if not isinstance(dims, dict) or "system" not in dims or "environment" not in dims:
        raise ModelFileError(f"{path}: dims must carry 'system' and 'environment'")
    try:
        ds, de = int(dims["system"]), int(dims["environment"])
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: dims entries must be integers") from exc
    if ds < 1 or de < 1:
        raise ModelFileError(f"{path}: dims must be positive, got ({ds}, {de})")
    d = ds * de

    h = _complex_array(doc["hamiltonian"], "hamiltonian", path)
    if h.shape != (d, d):
        raise DimensionMismatchError(
            f"{path}: hamiltonian shape {h.shape} does not match dims product {d}"
        )
    asym = max_asymmetry(h)
    if asym > HERMITIAN_ATOL:
        raise NonHermitianHamiltonianError(
            f"{path}: hamiltonian not Hermitian, max asymmetry {asym:.3e}"
        )

    entries = doc["initial_states"]
    if not isinstance(entries, list) or len(entries) != 2:
        raise ModelFileError(f"{path}: initial_states must list exactly two states")
    pair = []
    for i, entry in enumerate(entries):
        where = f"initial_states[{i}]"
        if not isinstance(entry, dict):
            raise ModelFileError(f"{path}: {where} must be an object")
        if "joint_state" in entry:
            joint = _complex_array(entry["joint_state"], where, path).ravel()
            if joint.size != d:
                raise DimensionMismatchError(
                    f"{path}: {where} joint_state has dimension {joint.size}, expected {d}"
                )
            joint = _normalized(joint, path, where)
            vs, ve = _product_from_joint(joint, ds, de, path, where)
        elif "system_state" in entry and "environment_state" in entry:
            vs = _complex_array(entry["system_state"], where, path).ravel()
            ve = _complex_array(entry["environment_state"], where, path).ravel()
            if vs.size != ds or ve.size != de:
                raise DimensionMismatchError(
                    f"{path}: {where} factor dimensions ({vs.size}, {ve.size}) "
                    f"do not match dims ({ds}, {de})"
                )
            vs = _normalized(vs, path, f"{where}.system_state")
            ve = _normalized(ve, path, f"{where}.environment_state")
        else:
            raise ModelFileError(
                f"{path}: {where} needs either joint_state or both "
                f"system_state and environment_state"
            )
        pair.append((vs, ve))

    terms = None
    if "interaction_terms" in doc:
        raw = doc["interaction_terms"]
        if not isinstance(raw, list):
            raise ModelFileError(f"{path}: interaction_terms must be a list")
        parsed = []
        for i, item in enumerate(raw):
            where = f"interaction_terms[{i}]"
            if not isinstance(item, dict) or "system" not in item or "environment" not in item:
                raise ModelFileError(f"{path}: {where} needs 'system' and 'environment'")
            a = _complex_array(item["system"], where, path)
            b = _complex_array(item["environment"], where, path)
            if a.shape != (ds, ds) or b.shape != (de, de):
                raise DimensionMismatchError(
                    f"{path}: {where} factor shapes {a.shape}, {b.shape} "
                    f"do not match dims ({ds}, {de})"
                )
            parsed.append((a, b))
        terms = tuple(parsed)

    try:
        return Model(
            hamiltonian=h,
            bipartition=Bipartition(ds, de),
            initial_pair=(pair[0], pair[1]),
            interaction_terms=terms,
        )
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc
