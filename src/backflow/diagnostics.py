"""Distinguishability diagnostics for pairs of evolving joint states.

The central objects are the trace distance between the reduced system
states, its time derivative sigma, and an upper bound on sigma built
from two commutator terms: one driven by the difference of environment
marginals, one by the difference of system-environment correlation
operators. Positive sigma signals information flowing back to the
system.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import (
    Bipartition,
    ENTROPY_CUTOFF,
    partial_trace,
    trace_norm,
    von_neumann_entropy,
)

__all__ = [
    "BoundTerms",
    "trace_distance",
    "correlation_operator",
    "distinguishability_bound",
    "sigma_from_generator",
    "didt_from_generator",
    "bound_term1_branch",
    "bound_term1_from_couplings",
    "env_indistinguishability",
    "correlation_distance",
    "mutual_information",
    "pair_step_series",
]


def trace_distance(r1, r2) -> float:
    """Half the trace norm of the difference of two density operators."""
    diff = np.asarray(r1, dtype=np.complex128) - np.asarray(r2, dtype=np.complex128)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def correlation_operator(rho_se, bipartition: Bipartition) -> np.ndarray:
    """chi = rho_SE - rho_S (x) rho_E, the correlation part of a joint state."""
    m = np.asarray(rho_se, dtype=np.complex128)
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
    m1 = np.asarray(rho1_se, dtype=np.complex128)
    m2 = np.asarray(rho2_se, dtype=np.complex128)
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


def _eigen_rates(x: np.ndarray, x_dot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w_k of Hermitian x and their rates <u_k| x_dot |u_k>."""
    w, u = np.linalg.eigh(x)
    return w, np.real(np.einsum("ak,ab,bk->k", u.conj(), x_dot, u))


def _entropy_rate(rho: np.ndarray, rho_dot: np.ndarray) -> float:
    """dS/dt = -sum_k <u_k| drho/dt |u_k> log2 p_k, dropping p_k < ENTROPY_CUTOFF."""
    p, rates = _eigen_rates(rho, rho_dot)
    kept = p >= ENTROPY_CUTOFF
    return -float(np.sum(rates[kept] * np.log2(p[kept])))


def sigma_from_generator(model, rho1_se, rho2_se) -> float:
    """sigma = dD/dt of the system trace distance, by full-matrix algebra.

    sigma = 1/2 sum_k sgn(w_k) <u_k| dDelta/dt |u_k> over the eigenpairs
    of Delta = rho1_S - rho2_S, where dDelta/dt = -i Tr_E [H, rho1_SE -
    rho2_SE]. sgn(0) = 0, so sigma is 0 where Delta vanishes.
    """
    bp = model.bipartition
    diff = np.asarray(rho1_se, dtype=np.complex128) - np.asarray(rho2_se, dtype=np.complex128)
    diff_dot = -1j * _commutator(model.hamiltonian, diff)
    w, rates = _eigen_rates(partial_trace(diff, bp, "system"), partial_trace(diff_dot, bp, "system"))
    return 0.5 * float(np.sum(np.sign(w) * rates))


def didt_from_generator(model, rho_se) -> float:
    """dI/dt of I = S(rho_S) + S(rho_E) - S(rho_SE), in bits, by full-matrix algebra."""
    bp = model.bipartition
    rho = np.asarray(rho_se, dtype=np.complex128)
    rho_dot = -1j * _commutator(model.hamiltonian, rho)
    total = -_entropy_rate(rho, rho_dot)
    for keep in ("system", "environment"):
        total += _entropy_rate(partial_trace(rho, bp, keep), partial_trace(rho_dot, bp, keep))
    return total


def mutual_information(rho_se, bipartition: Bipartition) -> float:
    """S(rho_S) + S(rho_E) - S(rho_SE), in bits."""
    m = np.asarray(rho_se, dtype=np.complex128)
    s_sys = von_neumann_entropy(partial_trace(m, bipartition, "system"))
    s_env = von_neumann_entropy(partial_trace(m, bipartition, "environment"))
    return s_sys + s_env - von_neumann_entropy(m)


# --- batched kernel -------------------------------------------------------

def _ptrace_stack(x: np.ndarray, ds: int, de: int, keep: str) -> np.ndarray:
    t = x.reshape(x.shape[0], ds, de, ds, de)
    if keep == "system":
        return np.einsum("cabdb->cad", t)
    return np.einsum("cabae->cbe", t)


def _eigen_rate_stack(x: np.ndarray, x_dot: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues w_k of each Hermitian x, ascending, and, given x_dot, their rates <u_k| x_dot |u_k>."""
    if x_dot is None:
        return np.linalg.eigvalsh(x), None
    w, u = np.linalg.eigh(x)
    return w, np.einsum("cak,cab,cbk->ck", u.conj(), x_dot, u).real


def _eigen_rate_2x2(x: np.ndarray, x_dot: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """_eigen_rate_stack for 2 x 2 x, in closed form.

    With m = Tr x / 2 and r = hypot((x_00 - x_11) / 2, |x_01|) the
    eigenvalues are m -+ r, and the rates are (Tr x_dot -+ Tr((x - m)
    x_dot) / r) / 2, both Tr x_dot / 2 where r = 0.
    """
    half = 0.5 * (x[:, 0, 0].real - x[:, 1, 1].real)
    m = 0.5 * (x[:, 0, 0].real + x[:, 1, 1].real)
    r = np.hypot(half, np.abs(x[:, 0, 1]))
    w = np.stack([m - r, m + r], axis=-1)
    if x_dot is None:
        return w, None
    tr = x_dot[:, 0, 0].real + x_dot[:, 1, 1].real
    # Tr((x - m) x_dot) = half (x_dot_00 - x_dot_11) + 2 Re(x_01 x_dot_10) for Hermitian x
    proj = half * (x_dot[:, 0, 0].real - x_dot[:, 1, 1].real) + 2.0 * (x[:, 0, 1] * x_dot[:, 1, 0]).real
    split = np.divide(proj, r, out=np.zeros_like(r), where=r > 0)
    return w, 0.5 * np.stack([tr - split, tr + split], axis=-1)


def _log2_kept(w: np.ndarray) -> np.ndarray:
    """log2 of the eigenvalues at or above ENTROPY_CUTOFF, 0 for the rest."""
    logs = np.zeros_like(w)
    np.log2(w, out=logs, where=w >= ENTROPY_CUTOFF)
    return logs


def _entropy_stack(w: np.ndarray) -> np.ndarray:
    """Entropies in bits from stacked eigenvalues."""
    return -(w * _log2_kept(w)).sum(axis=-1)


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


def _trace_norm_stack(x: np.ndarray, eig=_eigen_rate_stack) -> np.ndarray:
    """Trace norms of stacked Hermitian x, from eigenvalues by `eig`."""
    return np.abs(eig(x)[0]).sum(axis=-1)


def _commutator_trace_norm(hc: np.ndarray, x: np.ndarray, ds: int, k: int, eig) -> np.ndarray:
    """|| Tr_E [H, X] ||_1 for Hermitian X = U x U^dagger, from compressed hc and x.

    Tr_E[H, X] = M - M^dagger with M = Tr_E[H X] = Tr_k[hc x]; the
    difference is anti-Hermitian, so its trace norm is that of i(M - M^dagger).
    """
    m = _ptrace_stack(hc @ x, ds, k, "system")
    return _trace_norm_stack(1j * (m - m.conj().transpose(0, 2, 1)), eig)


def _det_2xk(c: np.ndarray) -> np.ndarray:
    """det(c c^dagger) of each 2 x k c by Cauchy-Binet: sum over i < l of |c_0i c_1l - c_0l c_1i|^2.

    Unlike p_0 p_1 from eigenvalues, it keeps full relative precision near
    a product state, where the small Schmidt weight is lost to round-off.
    """
    minors = c[:, 0, :, None] * c[:, 1, None, :]
    return 0.5 * (np.abs(minors - minors.transpose(0, 2, 1)) ** 2).sum(axis=(1, 2))


def _support_spectrum(rho_e: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Eigenvalues of rho_E = c^T c^* compressed onto range(c^T), for 2 x k c.

    That range holds all of rho_E's support and has dimension min(k, 2),
    so the compressed operator is at most 2 x 2.
    """
    if rho_e.shape[1] == 1:
        return rho_e[:, :, 0].real
    b = np.linalg.qr(c.transpose(0, 2, 1))[0]
    return _eigen_rate_2x2(b.conj().transpose(0, 2, 1) @ rho_e @ b)[0]


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
    dict of float series keyed by TrajectoryRecord field. sz_diagonal,
    when given, supplies per-basis-state total-magnetization values;
    otherwise the magnetization columns are NaN.

    Both joint states are pure, so at each time both environment
    marginals live in W, the span of the rows of the two d_system x
    d_environment coefficient matrices P_j, with k = dim W <= 2 d_system.
    A QR factorization [P_1^T, P_2^T] = Q R gives an orthonormal basis Q
    of W and compressed coefficients c_j = R_j^T, and every operator the
    diagnostics need (joint states, marginals, correlation operators chi_j
    and their difference, rho_S (x) Delta_E) lives on C^d_system (x) W.
    Each commutator term Tr_E[H, X] is M - M^dagger with M read off the
    compressed Hamiltonian (I (x) Q)^dagger H (I (x) Q), so a step costs
    O(d^2 * d_system * k) and no d x d matrix is formed. The
    chi{j}_ptrace_* residuals are the largest entries of the partial
    traces of chi_j in the compressed coordinates.

    sigma and didt_1 come from the generator: d rho_S^j/dt = -i (M_j -
    M_j^dagger) with M_j = Tr_W[H_c v_j v_j^dagger], H_c the compressed
    Hamiltonian and v_j the compressed joint state (one matvec per state).
    With (w_k, u_k) the eigenpairs of Delta = rho_S^1 - rho_S^2, sigma =
    1/2 sum_k sgn(w_k) <u_k|dDelta/dt|u_k>, with sgn(0) = 0. With (p_k, u_k)
    those of rho_S^1, didt_1 = -2 sum_k <u_k|d rho_S^1/dt|u_k> log2 p_k, as
    I_1 = 2 S(rho_S^1) for a pure joint state; terms with p_k <
    ENTROPY_CUTOFF are dropped, as the entropy drops them.

    For a qubit (d_system = 2) only two eigenproblems per time go to
    LAPACK: Delta_E (k x k) and chi_1 - chi_2 (8 x 8). The rest are
    closed forms:
    - every 2 x 2 Hermitian spectrum (rho_S^j, Delta, the three
      commutator terms) and the eigenvalue rates behind sigma and didt_1;
      the small eigenvalue of rho_S^j is det rho_S^j over the large one,
      with the determinant by Cauchy-Binet from c_j
    - ||chi_j||_1 = 2 sqrt(det rho_S^j) + 2 det rho_S^j
    - the joint entropy, from the rank-one state's one eigenvalue
      ||v_j||^2, computed rather than assumed 1
    - S(rho_E^j), from rho_E^j compressed onto range(c_j^T), at most 2 x 2
    Other d_system take every spectrum from LAPACK, in matrices of at
    most (d_system * k)-square.

    Work is chunked along the time axis so that the arrays a chunk holds
    at once (H (I (x) Q) and its reordered copy, (chunk, d, d_system * k)
    each, plus the QR factors and the (d_system * k)-square stacks) hold
    at most chunk_elements entries (but always at least one time).
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
    w = ds * min(de, 2 * ds)
    # entries per time: H (I (x) Q) and its reordered copy, the QR's input and Q,
    # and the w x w stacks alive at once (hc, chi_j, their difference, commutator terms)
    chunk = max(1, int(chunk_elements) // (2 * d * w + 4 * d + 8 * w * w))
    # an empty stack still runs one (empty) chunk, so every key is present
    parts = [
        _chunk_series(h, ds, de, s1[a : a + chunk], s2[a : a + chunk], sz_diagonal)
        for a in range(0, max(n_times, 1), chunk)
    ]
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _chunk_series(h, ds, de, s1, s2, sz_diagonal) -> dict[str, np.ndarray]:
    n = s1.shape[0]
    psi = {1: s1, 2: s2}
    # P_j^T = Q R_j with orthonormal Q spanning both environment supports
    f = np.concatenate([psi[j].reshape(n, ds, de).transpose(0, 2, 1) for j in (1, 2)], axis=2)
    q, r = np.linalg.qr(f)
    k = q.shape[2]
    hc = _compressed_hamiltonian(h, q, ds, de)
    qubit = ds == 2
    eig = _eigen_rate_2x2 if qubit else _eigen_rate_stack
    out, rho_s, rho_e, chi, rho_dot = {}, {}, {}, {}, {}
    for j in (1, 2):
        c = r[:, :, (j - 1) * ds : j * ds].transpose(0, 2, 1)
        rho_s[j] = c @ c.conj().transpose(0, 2, 1)
        rho_e[j] = c.transpose(0, 2, 1) @ c.conj()
        v = c.reshape(n, ds * k)
        rho_se = v[:, :, None] * v.conj()[:, None, :]
        chi[j] = rho_se - _kron_stack(rho_s[j], rho_e[j])
        # d rho_S/dt = -i (M - M^dagger) with M = Tr_k[hc v v^dagger]
        m = (hc @ v[:, :, None]).reshape(n, ds, k) @ c.conj().transpose(0, 2, 1)
        rho_dot[j] = -1j * (m - m.conj().transpose(0, 2, 1))
        # only didt_1 needs the eigenvalue rates
        p, rates = eig(rho_s[j], rho_dot[j] if j == 1 else None)
        if qubit:
            det = _det_2xk(c)
            # det / p_1 keeps the small eigenvalue's relative precision, which m - r loses
            p[:, 0] = det / p[:, 1]
            out[f"chi{j}_norm"] = 2.0 * np.sqrt(det) + 2.0 * det
            s_env = _entropy_stack(_support_spectrum(rho_e[j], c))
            s_joint = _entropy_stack((np.abs(v) ** 2).sum(axis=1)[:, None])
        else:
            out[f"chi{j}_norm"] = _trace_norm_stack(chi[j])
            s_env, s_joint = (_entropy_stack(np.linalg.eigvalsh(x)) for x in (rho_e[j], rho_se))
        if j == 1:
            out["didt_1"] = -2.0 * (rates * _log2_kept(p)).sum(axis=-1)
        svn_system = _entropy_stack(p)
        out[f"svn_system_{j}"] = svn_system
        out[f"mutual_info_{j}"] = svn_system + s_env - s_joint
        probs = np.abs(psi[j]) ** 2
        out[f"purity_{j}"] = probs.sum(axis=1) ** 2
        out[f"magnetization_{j}"] = np.full(n, np.nan) if sz_diagonal is None else probs @ sz_diagonal
        out[f"chi{j}_ptrace_sys"] = np.abs(_ptrace_stack(chi[j], ds, k, "system")).max(axis=(1, 2))
        out[f"chi{j}_ptrace_env"] = np.abs(_ptrace_stack(chi[j], ds, k, "environment")).max(axis=(1, 2))

    w, rates = eig(rho_s[1] - rho_s[2], rho_dot[1] - rho_dot[2])
    out["d_system"] = 0.5 * np.abs(w).sum(axis=-1)
    out["sigma"] = 0.5 * (np.sign(w) * rates).sum(axis=-1)
    del rho_se, rho_dot, m  # not read below; freed before the (d_system k)-square commutator terms
    delta_e = rho_e[1] - rho_e[2]
    out["d_env"] = 0.5 * _trace_norm_stack(delta_e)
    out["e_indist"] = 1.0 - out["d_env"]
    dchi = chi[1] - chi[2]
    out["x_corr"] = 0.5 * _trace_norm_stack(dchi)

    for j in (1, 2):
        out[f"term1_branch{j}"] = _commutator_trace_norm(hc, _kron_stack(rho_s[j], delta_e), ds, k, eig)
    out["bound_term2"] = _commutator_trace_norm(hc, dchi, ds, k, eig)
    out["bound_term1"] = np.minimum(out["term1_branch1"], out["term1_branch2"])
    out["bound_total"] = 0.5 * (out["bound_term1"] + out["bound_term2"])
    return out
