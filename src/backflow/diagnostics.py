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

# complex entries that the arrays of one pair_step_series chunk hold at most, 8 MB
CHUNK_ELEMENTS = 500_000


def trace_distance(r1, r2) -> float:
    """Half the trace norm of the difference of two density operators."""
    diff = np.asarray(r1, dtype=np.complex128) - np.asarray(r2, dtype=np.complex128)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def correlation_operator(rho_se, bipartition: Bipartition) -> np.ndarray:
    """chi = rho_SE - rho_S (x) rho_E, the correlation part of a joint state, or of each in a stack."""
    m = np.asarray(rho_se, dtype=np.complex128)
    rho_s = partial_trace(m, bipartition, "system")
    rho_e = partial_trace(m, bipartition, "environment")
    return m - _kron(rho_s, rho_e)


def env_indistinguishability(rho1_env, rho2_env) -> float:
    """1 - D(rho1_E, rho2_E); equals 1 when the environments cannot be told apart."""
    return 1.0 - trace_distance(rho1_env, rho2_env)


def correlation_distance(chi1: np.ndarray, chi2: np.ndarray):
    """Half the trace norm of the difference of two correlation operators, or of each pair in stacks."""
    return 0.5 * trace_norm(np.asarray(chi1) - np.asarray(chi2))


class BoundTerms(NamedTuple):
    """The two commutator terms and their half-sum bounding sigma, one value per pair of a stack."""

    term1: np.ndarray
    term2: np.ndarray
    total: np.ndarray


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b for square a and b, broadcast over leading axes.

    It multiplies as np.kron does, so a single pair gives np.kron's bits.
    The kernel's _kron_stack forms the same products through einsum,
    which rounds some of them differently.
    """
    da, db = a.shape[-1], b.shape[-1]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], da * db, da * db)


def _log2_kept(w: np.ndarray) -> np.ndarray:
    """log2 of the eigenvalues at or above ENTROPY_CUTOFF, 0 for the rest."""
    logs = np.zeros_like(w)
    np.log2(w, out=logs, where=w >= ENTROPY_CUTOFF)
    return logs


def bound_term1_branch(model, rho_k_s: np.ndarray, delta_env: np.ndarray):
    """One k-branch of the environment-difference term, read from H's blocks.

    Evaluates || Tr_E [H, rho_k_S (x) (rho1_E - rho2_E)] ||. With H_su the
    (s, u) environment block of H, Tr_E [H, rho (x) Delta] = [G, rho]
    where G_su = Tr(H_su Delta), so one contraction of H against Delta,
    O(d^2), replaces the d x d commutator. It reads H directly and is
    independent of any coupling decomposition and of the batched kernel.
    rho_k_s and delta_env broadcast over leading axes: both branches of
    one Delta, a (2, d_S, d_S) rho_k_s, share one contraction.
    """
    bp = model.bipartition
    blocks = np.asarray(model.hamiltonian).reshape(bp.d_system, bp.d_environment, bp.d_system, bp.d_environment)
    g = np.einsum("aebf,...fe->...ab", blocks, np.asarray(delta_env, dtype=np.complex128))
    return trace_norm(_commutator(g, np.asarray(rho_k_s, dtype=np.complex128)))


def bound_term1_from_couplings(terms, rho_k_s: np.ndarray, delta_env: np.ndarray):
    """Same branch computed through a coupling decomposition of H.

    terms lists (A_a, B_a) system and environment factors such that H
    minus sum_a A_a (x) B_a acts on the environment alone (for a chain,
    ChainModel.coupling_terms()). The partial trace collapses to
    || [sum_a gamma_a A_a, rho_k_S] || with gamma_a = Tr(B_a delta_env),
    summed entry by entry. Environment-local parts drop out because
    delta_env is traceless. rho_k_s and delta_env broadcast as in
    bound_term1_branch.
    """
    delta = np.asarray(delta_env, dtype=np.complex128)
    g = sum(np.einsum("ij,...ji->...", b, delta)[..., None, None] * a for a, b in terms)
    return trace_norm(_commutator(g, np.asarray(rho_k_s, dtype=np.complex128)))


def distinguishability_bound(model, rho1_se, rho2_se) -> BoundTerms:
    """Upper bound on sigma from the current pair of joint states.

    term1 is minimized over which reduced system state multiplies the
    difference of environment marginals; term2 measures how differently
    the two correlation operators rotate under H. The bound on sigma is
    (term1 + term2) / 2. The joint states may be (..., d, d) stacks of
    pairs, one bound per pair.
    """
    bp = model.bipartition
    h = model.hamiltonian
    m1 = np.asarray(rho1_se, dtype=np.complex128)
    m2 = np.asarray(rho2_se, dtype=np.complex128)
    rho_s = [partial_trace(m, bp, "system") for m in (m1, m2)]
    rho_e = [partial_trace(m, bp, "environment") for m in (m1, m2)]
    chi = [m - _kron(s, e) for m, s, e in zip((m1, m2), rho_s, rho_e)]
    delta_e = rho_e[0] - rho_e[1]
    branches = [
        trace_norm(partial_trace(_commutator(h, _kron(s, delta_e)), bp, "system"))
        for s in rho_s
    ]
    term1 = np.minimum(*branches)
    term2 = trace_norm(partial_trace(_commutator(h, chi[0] - chi[1]), bp, "system"))
    return BoundTerms(term1, term2, 0.5 * (term1 + term2))


def _eigen_rates(x: np.ndarray, x_dot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w_k of each Hermitian x in a stack and their rates <u_k| x_dot |u_k>."""
    w, u = np.linalg.eigh(x)
    return w, np.real(np.einsum("...ak,...ab,...bk->...k", u.conj(), x_dot, u))


def _entropy_rate(rho: np.ndarray, rho_dot: np.ndarray):
    """dS/dt = -sum_k <u_k| drho/dt |u_k> log2 p_k, dropping p_k < ENTROPY_CUTOFF."""
    p, rates = _eigen_rates(rho, rho_dot)
    return -np.sum(rates * _log2_kept(p), axis=-1)


def sigma_from_generator(model, rho1_se, rho2_se):
    """sigma = dD/dt of the system trace distance, by full-matrix algebra.

    sigma = 1/2 sum_k sgn(w_k) <u_k| dDelta/dt |u_k> over the eigenpairs
    of Delta = rho1_S - rho2_S, where dDelta/dt = -i Tr_E [H, rho1_SE -
    rho2_SE]. sgn(0) = 0, so sigma is 0 where Delta vanishes. The joint
    states may be (..., d, d) stacks, one sigma per pair.
    """
    bp = model.bipartition
    diff = np.asarray(rho1_se, dtype=np.complex128) - np.asarray(rho2_se, dtype=np.complex128)
    diff_dot = -1j * _commutator(model.hamiltonian, diff)
    w, rates = _eigen_rates(partial_trace(diff, bp, "system"), partial_trace(diff_dot, bp, "system"))
    return 0.5 * np.sum(np.sign(w) * rates, axis=-1)


def didt_from_generator(model, rho_se):
    """dI/dt of I = S(rho_S) + S(rho_E) - S(rho_SE), in bits, by full-matrix algebra, per state of a stack."""
    bp = model.bipartition
    rho = np.asarray(rho_se, dtype=np.complex128)
    rho_dot = -1j * _commutator(model.hamiltonian, rho)
    total = -_entropy_rate(rho, rho_dot)
    for keep in ("system", "environment"):
        total += _entropy_rate(partial_trace(rho, bp, keep), partial_trace(rho_dot, bp, keep))
    return total


def mutual_information(rho_se, bipartition: Bipartition):
    """S(rho_S) + S(rho_E) - S(rho_SE), in bits, per state of a stack."""
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


def _entropy_stack(w: np.ndarray) -> np.ndarray:
    """Entropies in bits from stacked eigenvalues."""
    return -(w * _log2_kept(w)).sum(axis=-1)


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c, da, _ = a.shape
    db = b.shape[1]
    return np.einsum("cad,cbe->cabde", a, b).reshape(c, da * db, da * db)


def _trace_norm_stack(x: np.ndarray, eig=_eigen_rate_stack) -> np.ndarray:
    """Trace norms of stacked Hermitian x, from eigenvalues by `eig`."""
    return np.abs(eig(x)[0]).sum(axis=-1)


def _det_2xk(c: np.ndarray) -> np.ndarray:
    """det(c c^dagger) of each 2 x k c by Cauchy-Binet: sum over i < l of |c_0i c_1l - c_0l c_1i|^2.

    Unlike p_0 p_1 from eigenvalues, it keeps full relative precision near
    a product state, where the small Schmidt weight is lost to round-off.
    """
    minors = c[:, 0, :, None] * c[:, 1, None, :]
    return 0.5 * (np.abs(minors - minors.transpose(0, 2, 1)) ** 2).sum(axis=(1, 2))


def pair_step_series(
    h: np.ndarray,
    d_system: int,
    d_environment: int,
    states_1: np.ndarray,
    states_2: np.ndarray,
    sz_diagonal: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Evaluate every per-time diagnostic for two pure-state trajectories.

    states_j are (n_times, d) arrays of joint state vectors expressed in
    the same orthonormal basis as `h`, with d = d_system * d_environment.
    The basis may be the full space or any subspace closed under the
    reduced quantities; the caller guarantees that closure. H enters
    every diagnostic contracted with the states on both sides, so
    environment states that neither state ever occupies may be left out.
    Returns a dict of float series keyed by TrajectoryRecord field.
    sz_diagonal, when given, supplies per-basis-state total-magnetization
    values; otherwise the magnetization columns are NaN.

    With P_j the d_system x d_environment coefficient matrix of state j
    and f = [P_1^T, P_2^T], every H-dependent quantity comes from one
    GEMM per chunk, Z = H (|c> (x) P_j[x]^T) for each system basis state
    |c> and each row P_j[x], which costs O(d_system^3 d_environment^2)
    per time:
    - G_j = Tr_E[H (I (x) rho_E^j)] = sum_x <P_j[x]| H_ac |P_j[x]>, with
      H_ac the (a, c) environment block of H
    - H psi_j, the sum of Z's slices with c = x, and M_j = Tr_E[H psi_j
      psi_j^dagger] = (H psi_j) P_j^dagger
    From these d_system x d_system blocks:
    - d rho_S^j/dt = -i (M_j - M_j^dagger)
    - term1 branch j = ||Tr_E[H, rho_S^j (x) Delta_E]||_1 = ||[G_1 - G_2,
      rho_S^j]||_1
    - term2 = ||Tr_E[H, chi_1 - chi_2]||_1, with Tr_E[H, chi_j] = (M_j -
      M_j^dagger) - [G_j, rho_S^j]
    With (w_k, u_k) the eigenpairs of Delta = rho_S^1 - rho_S^2, sigma =
    1/2 sum_k sgn(w_k) <u_k|dDelta/dt|u_k>, with sgn(0) = 0. With (p_k,
    u_k) those of rho_S^1, didt_1 = -2 sum_k <u_k|d rho_S^1/dt|u_k> log2
    p_k, as I_1 = 2 S(rho_S^1) for a pure joint state; terms with p_k <
    ENTROPY_CUTOFF are dropped, as the entropy drops them.

    The states-only columns use the span W of the rows of P_1 and P_2,
    k = dim W <= 2 d_system: the R factor of f = Q R gives compressed
    coefficients c_j = R_j^T, so that rho_S^j = c_j c_j^dagger, rho_E^j
    = c_j^T c_j^* on W, and the correlation operators chi_j are w x w
    with w = d_system * k. S(rho_E^j) = S(rho_S^j), as c_j c_j^dagger
    and c_j^T c_j^* share their nonzero spectrum, and the rank-one joint
    state's entropy comes from its one eigenvalue ||c_j||^2, computed
    rather than assumed 1. The chi{j}_ptrace_* residuals are the largest
    entries of the partial traces of chi_j on C^d_system (x) W.

    For a qubit (d_system = 2) only two eigenproblems per time go to
    LAPACK: Delta_E (k x k) and chi_1 - chi_2 (8 x 8). The rest are
    closed forms:
    - every 2 x 2 Hermitian spectrum (rho_S^j, Delta, the three
      commutator terms) and the eigenvalue rates behind sigma and didt_1;
      the small eigenvalue of rho_S^j is det rho_S^j over the large one,
      with the determinant by Cauchy-Binet from c_j
    - ||chi_j||_1 = 2 sqrt(det rho_S^j) + 2 det rho_S^j
    Other d_system take every spectrum from LAPACK, in matrices of at
    most w-square.

    Work is chunked along the time axis so that the arrays a chunk holds
    at once (Z, 2 d_system^3 d_environment entries per time; f, its
    conjugate and H psi_j, 2 d_system d_environment each; and the w x w
    stacks) hold at most CHUNK_ELEMENTS entries (but always at least one
    time). Z is freed before the w x w stacks are built.
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
    # entries per time: Z, f, its conjugate and H psi_j, and the w x w stacks alive at
    # once (chi_1, chi_2 and the kron term it is built with, or an eigensolver's copy)
    chunk = max(1, CHUNK_ELEMENTS // (2 * ds**3 * de + 6 * ds * de + 4 * w * w))
    # rows (a, b, c) by columns b' of H, transposed: f^T @ hv gives Z without copying H
    hv = h.reshape(ds * de * ds, de).T
    # an empty stack still runs one (empty) chunk, so every key is present
    parts = [
        _chunk_series(hv, ds, de, s1[a : a + chunk], s2[a : a + chunk], sz_diagonal)
        for a in range(0, max(n_times, 1), chunk)
    ]
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _chunk_series(hv, ds, de, s1, s2, sz_diagonal) -> dict[str, np.ndarray]:
    n = s1.shape[0]
    psi = {1: s1, 2: s2}
    # row (j, x) of f^T is row x of P_j
    ft = np.concatenate([s.reshape(n, ds, de) for s in (s1, s2)], axis=1)
    # P_j^T = Q R_j with orthonormal Q spanning both environment supports; only R is needed
    r = np.linalg.qr(ft.transpose(0, 2, 1), mode="r")
    k = r.shape[1]
    # Z[t, j, x, a, b, c] = (H (|c> (x) P_j[x]^T))_ab
    z = (ft.reshape(n * 2 * ds, de) @ hv).reshape(n, 2, ds, ds, de, ds)
    fc = ft.conj().reshape(n, 2, ds, de)
    g = np.einsum("tjxb,tjxabc->tjac", fc, z)
    # M_j = (H psi_j) P_j^dagger, H psi_j the sum of Z's slices with c = x
    m = np.einsum("tjcabc->tjab", z) @ fc.transpose(0, 1, 3, 2)
    del ft, z, fc  # freed before the w x w stacks
    qubit = ds == 2
    eig = _eigen_rate_2x2 if qubit else _eigen_rate_stack
    out, rho_s, rho_e, chi, rho_dot, tr_chi = {}, {}, {}, {}, {}, {}
    for j in (1, 2):
        c = r[:, :, (j - 1) * ds : j * ds].transpose(0, 2, 1)
        rho_s[j] = c @ c.conj().transpose(0, 2, 1)
        rho_e[j] = c.transpose(0, 2, 1) @ c.conj()
        v = c.reshape(n, ds * k)
        chi[j] = v[:, :, None] * v.conj()[:, None, :]
        chi[j] -= _kron_stack(rho_s[j], rho_e[j])
        anti = m[:, j - 1] - m[:, j - 1].conj().transpose(0, 2, 1)
        rho_dot[j] = -1j * anti
        tr_chi[j] = anti - _commutator(g[:, j - 1], rho_s[j])
        # only didt_1 needs the eigenvalue rates
        p, rates = eig(rho_s[j], rho_dot[j] if j == 1 else None)
        if qubit:
            det = _det_2xk(c)
            # det / p_1 keeps the small eigenvalue's relative precision, which m - r loses
            p[:, 0] = det / p[:, 1]
            out[f"chi{j}_norm"] = 2.0 * np.sqrt(det) + 2.0 * det
        else:
            out[f"chi{j}_norm"] = _trace_norm_stack(chi[j])
        if j == 1:
            out["didt_1"] = -2.0 * (rates * _log2_kept(p)).sum(axis=-1)
        svn_system = _entropy_stack(p)
        out[f"svn_system_{j}"] = svn_system
        # S(rho_E^j) = S(rho_S^j)
        out[f"mutual_info_{j}"] = 2.0 * svn_system - _entropy_stack((np.abs(v) ** 2).sum(axis=1)[:, None])
        probs = np.abs(psi[j]) ** 2
        out[f"purity_{j}"] = probs.sum(axis=1) ** 2
        out[f"magnetization_{j}"] = np.full(n, np.nan) if sz_diagonal is None else probs @ sz_diagonal
        out[f"chi{j}_ptrace_sys"] = np.abs(_ptrace_stack(chi[j], ds, k, "system")).max(axis=(1, 2))
        out[f"chi{j}_ptrace_env"] = np.abs(_ptrace_stack(chi[j], ds, k, "environment")).max(axis=(1, 2))

    w, rates = eig(rho_s[1] - rho_s[2], rho_dot[1] - rho_dot[2])
    out["d_system"] = 0.5 * np.abs(w).sum(axis=-1)
    out["sigma"] = 0.5 * (np.sign(w) * rates).sum(axis=-1)
    out["d_env"] = 0.5 * _trace_norm_stack(rho_e[1] - rho_e[2])
    out["e_indist"] = 1.0 - out["d_env"]
    dchi = chi.pop(1)
    dchi -= chi.pop(2)  # in place: no further w x w stack
    out["x_corr"] = 0.5 * _trace_norm_stack(dchi)
    # each commutator is anti-Hermitian: its trace norm is that of i times it
    g_delta = g[:, 0] - g[:, 1]
    for j in (1, 2):
        out[f"term1_branch{j}"] = _trace_norm_stack(1j * _commutator(g_delta, rho_s[j]), eig)
    out["bound_term2"] = _trace_norm_stack(1j * (tr_chi[1] - tr_chi[2]), eig)
    out["bound_term1"] = np.minimum(out["term1_branch1"], out["term1_branch2"])
    out["bound_total"] = 0.5 * (out["bound_term1"] + out["bound_term2"])
    return out
