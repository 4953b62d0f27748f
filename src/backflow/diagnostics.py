"""Distinguishability diagnostics for pairs of evolving joint states.

The central objects are the trace distance between the reduced system
states, its time derivative sigma, and an upper bound on sigma built
from two commutator terms: one driven by the difference of environment
marginals, one by the difference of system-environment correlation
operators. Positive sigma signals information flowing back to the
system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    Bipartition,
    ENTROPY_CUTOFF,
    _matrix_of,
    partial_trace,
    trace_norm,
    von_neumann_entropy,
)

__all__ = [
    "BoundTerms",
    "DiagnosticsRow",
    "trace_distance",
    "guess_probability",
    "sigma_series",
    "correlation_operator",
    "distinguishability_bound",
    "bound_term1_branch",
    "bound_term1_from_couplings",
    "env_indistinguishability",
    "correlation_distance",
    "mutual_information",
    "mutual_information_rate",
    "pair_step_series",
]


def trace_distance(r1, r2) -> float:
    """Half the trace norm of the difference of two density operators."""
    diff = _matrix_of(r1) - _matrix_of(r2)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def guess_probability(d: float) -> float:
    """Best single-shot discrimination probability for trace distance d."""
    if not 0.0 <= d <= 1.0 + 1e-12:
        raise ValueError(f"trace distance must lie in [0, 1], got {d}")
    return (1.0 + min(d, 1.0)) / 2.0


def _derivative_series(values: np.ndarray, dt: float) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 3:
        raise ValueError("need at least three samples to differentiate")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    # central differences inside, second-order one-sided at the ends so the
    # endpoint samples carry the same O(dt^2) error as the interior
    return np.gradient(values, dt, edge_order=2)


def sigma_series(d_values: np.ndarray, dt: float) -> np.ndarray:
    """Finite-difference time derivative of a trace-distance series."""
    return _derivative_series(d_values, dt)


def mutual_information_rate(i_values: np.ndarray, dt: float) -> np.ndarray:
    """Finite-difference time derivative of a mutual-information series."""
    return _derivative_series(i_values, dt)


def correlation_operator(rho_se, bipartition: Bipartition) -> np.ndarray:
    """chi = rho_SE - rho_S (x) rho_E, the correlation part of a joint state."""
    m = _matrix_of(rho_se)
    rho_s = partial_trace(m, bipartition, "system")
    rho_e = partial_trace(m, bipartition, "environment")
    return m - np.kron(rho_s, rho_e)


def env_indistinguishability(rho1_env, rho2_env) -> float:
    """1 - D(rho1_E, rho2_E); equals 1 when the environments cannot be told apart."""
    return 1.0 - trace_distance(rho1_env, rho2_env)


def correlation_distance(chi1: np.ndarray, chi2: np.ndarray) -> float:
    """Half the trace norm of the difference of two correlation operators."""
    return 0.5 * trace_norm(np.asarray(chi1) - np.asarray(chi2))


class BoundTerms(NamedTuple):
    """The two commutator terms and their half-sum bounding sigma."""

    term1: float
    term2: float
    total: float


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def bound_term1_branch(model, rho_k_s: np.ndarray, delta_env: np.ndarray) -> float:
    """One k-branch of the environment-difference term, by direct commutator.

    Evaluates || Tr_E [H, rho_k_S (x) (rho1_E - rho2_E)] ||.
    """
    h = model.hamiltonian
    joint = np.kron(np.asarray(rho_k_s), np.asarray(delta_env))
    return trace_norm(partial_trace(_commutator(h, joint), model.bipartition, "system"))


def bound_term1_from_couplings(model, rho_k_s: np.ndarray, delta_env: np.ndarray) -> float:
    """Same branch computed through the interaction decomposition.

    With H = sum_a A_a (x) B_a plus an environment-local remainder, the
    partial trace collapses to || [sum_a gamma_a A_a, rho_k_S] || with
    gamma_a = Tr(B_a delta_env). Environment-local parts drop out because
    delta_env is traceless.
    """
    if model.interaction_terms is None:
        raise ValueError("model carries no interaction terms")
    ds = model.bipartition.d_system
    g = np.zeros((ds, ds), dtype=np.complex128)
    delta = np.asarray(delta_env, dtype=np.complex128)
    for a, b in model.interaction_terms:
        gamma = complex(np.trace(np.asarray(b) @ delta))
        g += gamma * np.asarray(a)
    return trace_norm(_commutator(g, np.asarray(rho_k_s, dtype=np.complex128)))


def distinguishability_bound(model, rho1_se, rho2_se) -> BoundTerms:
    """Upper bound on sigma from the current pair of joint states.

    term1 is minimized over which reduced system state multiplies the
    difference of environment marginals; term2 measures how differently
    the two correlation operators rotate under H. The bound on sigma is
    (term1 + term2) / 2.
    """
    bp = model.bipartition
    h = model.hamiltonian
    m1 = _matrix_of(rho1_se)
    m2 = _matrix_of(rho2_se)
    rho_s = [partial_trace(m, bp, "system") for m in (m1, m2)]
    rho_e = [partial_trace(m, bp, "environment") for m in (m1, m2)]
    chi = [m - np.kron(s, e) for m, s, e in zip((m1, m2), rho_s, rho_e)]
    delta_e = rho_e[0] - rho_e[1]
    branches = [
        trace_norm(partial_trace(_commutator(h, np.kron(s, delta_e)), bp, "system"))
        for s in rho_s
    ]
    term1 = min(branches)
    term2 = trace_norm(partial_trace(_commutator(h, chi[0] - chi[1]), bp, "system"))
    return BoundTerms(term1, term2, 0.5 * (term1 + term2))


def mutual_information(rho_se, bipartition: Bipartition) -> float:
    """S(rho_S) + S(rho_E) - S(rho_SE), in bits."""
    m = _matrix_of(rho_se)
    s_sys = von_neumann_entropy(partial_trace(m, bipartition, "system"))
    s_env = von_neumann_entropy(partial_trace(m, bipartition, "environment"))
    return s_sys + s_env - von_neumann_entropy(m)


@dataclass(frozen=True)
class DiagnosticsRow:
    """One sampled time of a two-state trajectory, in output column order."""

    t: float
    d_system: float
    sigma: float
    bound_total: float
    bound_term1: float
    bound_term2: float
    d_env: float
    e_indist: float
    x_corr: float
    chi1_norm: float
    chi2_norm: float
    svn_system_1: float
    svn_system_2: float
    mutual_info_1: float
    mutual_info_2: float
    didt_1: float


# --- batched kernel -------------------------------------------------------

_SERIES_KEYS = (
    "d_system",
    "d_env",
    "e_indist",
    "x_corr",
    "chi1_norm",
    "chi2_norm",
    "bound_term1",
    "bound_term2",
    "bound_total",
    "term1_branch1",
    "term1_branch2",
    "svn_system_1",
    "svn_system_2",
    "mutual_info_1",
    "mutual_info_2",
    "purity_1",
    "purity_2",
    "magnetization_1",
    "magnetization_2",
    "chi1_ptrace_sys",
    "chi1_ptrace_env",
    "chi2_ptrace_sys",
    "chi2_ptrace_env",
)


def _ptrace_stack(x: np.ndarray, ds: int, de: int, keep: str) -> np.ndarray:
    t = x.reshape(x.shape[0], ds, de, ds, de)
    if keep == "system":
        return np.einsum("cabdb->cad", t)
    return np.einsum("cabae->cbe", t)


def _tn_hermitian_stack(x: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvalsh(x)).sum(axis=-1)


def _entropy_stack(x: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(x)
    w = np.where(w < ENTROPY_CUTOFF, 0.0, w)
    logs = np.zeros_like(w)
    np.log2(w, out=logs, where=w > 0)
    return -(w * logs).sum(axis=-1)


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c, da, _ = a.shape
    db = b.shape[1]
    return np.einsum("cad,cbe->cabde", a, b).reshape(c, da * db, da * db)


def _compressed_hamiltonian(h: np.ndarray, q: np.ndarray, ds: int, de: int) -> np.ndarray:
    """U_t^dagger H U_t for every U_t = I (x) Q_t of a (n, de, k) stack of Q_t.

    One GEMM forms H U_t for all t: H read as rows (a, b, a') by columns
    b' times the Q_t laid side by side. That (d * ds) x (n * k) product is
    the largest intermediate of the kernel.
    """
    n, _, k = q.shape
    hv = h.reshape(ds * de * ds, de) @ q.transpose(1, 0, 2).reshape(de, n * k)
    # rows (a, b, a'), columns (t, m') -> (t, b, (a, a', m'))
    hv = hv.reshape(ds, de, ds, n, k).transpose(3, 1, 0, 2, 4).reshape(n, de, ds * ds * k)
    hc = q.conj().transpose(0, 2, 1) @ hv
    # (t, m, a, a', m') -> rows (a, m), columns (a', m')
    return hc.reshape(n, k, ds, ds, k).transpose(0, 2, 1, 3, 4).reshape(n, ds * k, ds * k)


def _commutator_trace_norm(hc: np.ndarray, x: np.ndarray, ds: int, k: int) -> np.ndarray:
    """|| Tr_E [H, X] ||_1 for Hermitian X = U x U^dagger, from compressed hc and x.

    Tr_E[H, X] = M - M^dagger with M = Tr_E[H X] = Tr_k[hc x]; the
    difference is anti-Hermitian, so its trace norm is that of i(M - M^dagger).
    """
    m = _ptrace_stack(hc @ x, ds, k, "system")
    return _tn_hermitian_stack(1j * (m - m.conj().transpose(0, 2, 1)))


def pair_step_series(
    h: np.ndarray,
    d_system: int,
    d_environment: int,
    states_1: np.ndarray,
    states_2: np.ndarray,
    sz_diagonal: np.ndarray | None = None,
    chunk_elements: int = 500_000,
) -> dict[str, np.ndarray]:
    """Evaluate every per-time diagnostic for two pure-state trajectories.

    states_j are (n_times, d) arrays of joint state vectors expressed in
    the same orthonormal basis as `h`, with d = d_system * d_environment.
    The basis may be the full space or any carrier subspace closed under
    the reduced quantities; the caller guarantees that closure. Returns a
    dict of float series keyed by column name. sz_diagonal, when given,
    supplies per-basis-state total-magnetization values; otherwise the
    magnetization columns are NaN.

    Both joint states are pure, so at each time both environment
    marginals live in W, the span of the rows of the two d_system x
    d_environment coefficient matrices P_j, with k = dim W <= 2 d_system.
    A QR factorization [P_1^T, P_2^T] = Q R gives an orthonormal basis Q
    of W and compressed coefficients c_j = R_j^T, and every operator the
    diagnostics need (joint states, marginals, correlation operators chi_j
    and their difference, rho_S (x) Delta_E) lives on C^d_system (x) W.
    All norms and entropies are eigenvalues of at most
    (d_system * k)-square matrices, 8 x 8 for a qubit; the joint entropy
    is computed from the compressed rank-one state, not assumed zero.
    Each commutator term Tr_E[H, X] is M - M^dagger with M read off the
    compressed Hamiltonian (I (x) Q)^dagger H (I (x) Q), so a step costs
    O(d^2 * d_system * k) and no d x d matrix is formed. The
    chi{j}_ptrace_* residuals are the largest entries of the partial
    traces of chi_j in the compressed coordinates.

    Work is chunked along the time axis so that the largest intermediate,
    the (chunk, d, d_system * k) product H (I (x) Q), holds at most
    chunk_elements entries (but always at least one time).
    """
    h = np.asarray(h, dtype=np.complex128)
    s1 = np.atleast_2d(np.asarray(states_1, dtype=np.complex128))
    s2 = np.atleast_2d(np.asarray(states_2, dtype=np.complex128))
    ds, de = int(d_system), int(d_environment)
    d = ds * de
    if h.shape != (d, d):
        raise ValueError(f"hamiltonian shape {h.shape} does not match dimensions ({ds}, {de})")
    if s1.shape != s2.shape or s1.shape[1] != d:
        raise ValueError("state stacks must share shape (n_times, d_system*d_environment)")
    n_times = s1.shape[0]
    out = {key: np.empty(n_times, dtype=np.float64) for key in _SERIES_KEYS}
    chunk = max(1, int(chunk_elements) // (d * ds * min(de, 2 * ds)))
    for a in range(0, n_times, chunk):
        b = min(n_times, a + chunk)
        _fill_chunk(out, slice(a, b), h, ds, de, s1[a:b], s2[a:b], sz_diagonal)
    return out


def _fill_chunk(out, sl, h, ds, de, s1, s2, sz_diagonal) -> None:
    n = s1.shape[0]
    psi = {1: s1, 2: s2}
    # P_j^T = Q R_j with orthonormal Q spanning both environment supports
    f = np.concatenate([psi[j].reshape(n, ds, de).transpose(0, 2, 1) for j in (1, 2)], axis=2)
    q, r = np.linalg.qr(f)
    k = q.shape[2]
    hc = _compressed_hamiltonian(h, q, ds, de)
    rho_s, rho_e, chi = {}, {}, {}
    for j in (1, 2):
        c = r[:, :, (j - 1) * ds : j * ds].transpose(0, 2, 1)
        rho_s[j] = c @ c.conj().transpose(0, 2, 1)
        rho_e[j] = c.transpose(0, 2, 1) @ c.conj()
        v = c.reshape(n, ds * k)
        rho_se = v[:, :, None] * v.conj()[:, None, :]
        chi[j] = rho_se - _kron_stack(rho_s[j], rho_e[j])
        out[f"svn_system_{j}"][sl] = _entropy_stack(rho_s[j])
        svn_env = _entropy_stack(rho_e[j])
        svn_joint = _entropy_stack(rho_se)
        out[f"mutual_info_{j}"][sl] = out[f"svn_system_{j}"][sl] + svn_env - svn_joint
        norm_sq = (np.abs(psi[j]) ** 2).sum(axis=1)
        out[f"purity_{j}"][sl] = norm_sq**2
        if sz_diagonal is None:
            out[f"magnetization_{j}"][sl] = np.nan
        else:
            out[f"magnetization_{j}"][sl] = (np.abs(psi[j]) ** 2) @ sz_diagonal
        out[f"chi{j}_norm"][sl] = _tn_hermitian_stack(chi[j])
        out[f"chi{j}_ptrace_sys"][sl] = np.abs(_ptrace_stack(chi[j], ds, k, "system")).max(axis=(1, 2))
        out[f"chi{j}_ptrace_env"][sl] = np.abs(_ptrace_stack(chi[j], ds, k, "environment")).max(axis=(1, 2))

    out["d_system"][sl] = 0.5 * _tn_hermitian_stack(rho_s[1] - rho_s[2])
    delta_e = rho_e[1] - rho_e[2]
    out["d_env"][sl] = 0.5 * _tn_hermitian_stack(delta_e)
    out["e_indist"][sl] = 1.0 - out["d_env"][sl]
    dchi = chi[1] - chi[2]
    out["x_corr"][sl] = 0.5 * _tn_hermitian_stack(dchi)

    for j in (1, 2):
        out[f"term1_branch{j}"][sl] = _commutator_trace_norm(hc, _kron_stack(rho_s[j], delta_e), ds, k)
    out["bound_term2"][sl] = _commutator_trace_norm(hc, dchi, ds, k)
    out["bound_term1"][sl] = np.minimum(out["term1_branch1"][sl], out["term1_branch2"][sl])
    out["bound_total"][sl] = 0.5 * (out["bound_term1"][sl] + out["bound_term2"][sl])
