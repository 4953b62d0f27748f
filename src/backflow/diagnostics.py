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
    "correlation_distance",
    "mutual_information",
    "pair_step_series",
]

# complex entries that the arrays of one pair_step_series chunk hold at most, 8 MB
CHUNK_ELEMENTS = 500_000
# a row of a chunk's R factor whose entries all stay below this times R's largest is rounding
RANK_RTOL = 1e-13


def trace_distance(r1, r2):
    """Half the trace norm of the difference of two density operators, or of each pair in stacks."""
    diff = np.asarray(r1, dtype=np.complex128) - np.asarray(r2, dtype=np.complex128)
    return 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)


def correlation_operator(rho_se, bipartition: Bipartition) -> np.ndarray:
    """chi = rho_SE - rho_S (x) rho_E, the correlation part of a joint state, or of each in a stack."""
    m = np.asarray(rho_se, dtype=np.complex128)
    rho_s = partial_trace(m, bipartition, "system")
    rho_e = partial_trace(m, bipartition, "environment")
    return m - _kron(rho_s, rho_e)


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
    """
    da, db = a.shape[-1], b.shape[-1]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], da * db, da * db)


def _log2_kept(w: np.ndarray) -> np.ndarray:
    """log2 of the eigenvalues at or above ENTROPY_CUTOFF, 0 for the rest."""
    logs = np.zeros_like(w)
    np.log2(w, out=logs, where=w >= ENTROPY_CUTOFF)
    return logs


def _transposed(x) -> np.ndarray:
    """A contiguous complex copy of x with its last two axes swapped."""
    return np.ascontiguousarray(np.swapaxes(np.asarray(x, dtype=np.complex128), -1, -2))


def bound_term1_branch(model, rho_k_s: np.ndarray, delta_env: np.ndarray):
    """One k-branch of the environment-difference term, read from H's blocks.

    Evaluates || Tr_E [H, rho_k_S (x) (rho1_E - rho2_E)] ||. With H_su the
    (s, u) environment block of H, Tr_E [H, rho (x) Delta] = [G, rho]
    where G_su = Tr(H_su Delta), so one contraction of H against Delta,
    O(d^2), replaces the d x d commutator. It reads H directly and is
    independent of any coupling decomposition and of the batched kernel.
    rho_k_s and delta_env broadcast over leading axes: both branches of
    one Delta, a (2, d_S, d_S) rho_k_s, share one contraction. It runs
    against Delta's transpose, so that both operands stream along their
    rows; H itself is never copied.
    """
    bp = model.bipartition
    blocks = np.asarray(model.hamiltonian).reshape(bp.d_system, bp.d_environment, bp.d_system, bp.d_environment)
    g = np.einsum("aebf,...ef->...ab", blocks, _transposed(delta_env))
    return trace_norm(_commutator(g, np.asarray(rho_k_s, dtype=np.complex128)))


def bound_term1_from_couplings(terms, rho_k_s: np.ndarray, delta_env: np.ndarray):
    """Same branch computed through a coupling decomposition of H.

    terms lists (A_a, B_a) system and environment factors such that H
    minus sum_a A_a (x) B_a acts on the environment alone (for a chain,
    ChainModel.coupling_terms()). The partial trace collapses to
    || [sum_a gamma_a A_a, rho_k_S] || with gamma_a = Tr(B_a delta_env),
    summed entry by entry. Environment-local parts drop out because
    delta_env is traceless. rho_k_s and delta_env broadcast as in
    bound_term1_branch, and the traces run against delta_env's transpose.
    """
    delta_t = _transposed(delta_env)
    g = sum(np.einsum("ij,...ij->...", b, delta_t)[..., None, None] * a for a, b in terms)
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

def _parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parts (t, h, o) of Hermitian 2 x 2 x[:, :, ...]: Tr x / 2, (x_00 - x_11) / 2 and x_01, over trailing axes.

    x = t I + h sigma_z + Re(o) sigma_x - Im(o) sigma_y, with eigenvalues
    t -+ r, r = hypot(h, |o|).
    """
    a, b = x[0, 0].real, x[1, 1].real
    return 0.5 * (a + b), 0.5 * (a - b), x[0, 1]


def _eigen_rates_2x2(h, o, r, dot_t, dot_h, dot_o) -> tuple[np.ndarray, np.ndarray]:
    """Rates <u_-+| x_dot |u_-+> of the eigenvalues t -+ r of a Hermitian 2 x 2 x from its parts and x_dot's.

    They are dot_t -+ (h dot_h + Re(o conj(dot_o))) / r, both dot_t where r = 0.
    """
    split = np.divide(h * dot_h + (o * dot_o.conj()).real, r, out=np.zeros_like(r), where=r > 0)
    return dot_t - split, dot_t + split


def _commutator_parts(a_h, a_o, b_h, b_o) -> tuple[np.ndarray, np.ndarray]:
    """Parts (h, o) of i[A, B] for Hermitian 2 x 2 A and B given by theirs; i[A, B] is traceless.

    ||i[A, B]||_1 = 2 hypot(h, |o|) = 2 hypot(2 Im(a_o conj(b_o)), 2 |a_h b_o - b_h a_o|).
    """
    return -2.0 * (a_o * b_o.conj()).imag, 2j * (a_h * b_o - b_h * a_o)


def _entropy_stack(w: np.ndarray) -> np.ndarray:
    """Entropies in bits from stacked eigenvalues."""
    return -(w * _log2_kept(w)).sum(axis=-1)


def _trace_norm_stack(x: np.ndarray) -> np.ndarray:
    """Trace norms of stacked Hermitian x, from their eigenvalues."""
    return np.abs(np.linalg.eigvalsh(x)).sum(axis=-1)


def _det_2xk(c: np.ndarray) -> np.ndarray:
    """det(c c^dagger) of 2 x k c[:, :, ...] by Cauchy-Binet: sum over i < l of |c_0i c_1l - c_0l c_1i|^2.

    Unlike p_0 p_1 from eigenvalues, it keeps full relative precision near
    a product state, where the small Schmidt weight is lost to round-off.
    """
    i, l = np.triu_indices(c.shape[1], 1)
    minors = c[0, i] * c[1, l] - c[0, l] * c[1, i]
    return (minors.real**2 + minors.imag**2).sum(axis=0)


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

    With P_j the d_system x d_environment coefficient matrix of state j,
    every H-dependent quantity comes from one GEMM per chunk and column
    block of H, Z = H (|c> (x) P_j[x]^T) for each system basis state |c>
    and each row P_j[x], which costs O(d_system^3 d_environment^2) per
    time. Time is Z's last axis, so what follows reduces Z along whole
    rows and H is never copied:
    - G_j = Tr_E[H (I (x) rho_E^j)] = sum_x <P_j[x]| H_ac |P_j[x]>, with
      H_ac the (a, c) environment block of H: Z weighted in place by
      conj(P_j[x]) and summed
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
    with w = d_system * k. Each row of R is one direction of W, and a
    row whose entries stay below RANK_RTOL (1e-13) times R's largest
    entry over the whole chunk is rounding: it is dropped, which moves
    every coefficient by at most its size. So k is W's numerical
    dimension: 2 on a chain pair that shares the vacuum (1 at t = 0),
    as the XX chain conserves excitations. An unpivoted QR can spread a
    rank-deficient span over more rows; there k stays larger and nothing
    is lost. S(rho_E^j) = S(rho_S^j), as c_j c_j^dagger
    and c_j^T c_j^* share their nonzero spectrum, and the rank-one joint
    state's entropy comes from its one eigenvalue ||c_j||^2, computed
    rather than assumed 1. The chi{j}_ptrace_* residuals are the largest
    entries of the partial traces of chi_j on C^d_system (x) W.

    For a qubit (d_system = 2) a chunk makes three LAPACK calls: the QR,
    and the eigenvalues of Delta_E (k x k) and of chi_1 - chi_2 (2k x 2k).
    Every 2 x 2 Hermitian quantity (rho_S^j, d rho_S^j/dt, G_j, G_1 -
    G_2, Delta) is held as three arrays over time: half its trace t, half
    its diagonal difference h and its 01 entry o. Its eigenvalues are t
    -+ hypot(h, |o|), and for Hermitian A and B
        ||i[A, B]||_1 = 2 hypot(2 Im(a_o conj(b_o)), 2 |a_h b_o - b_h a_o|),
    which gives both term1 branches and, with the parts of d rho_S^j/dt,
    term2, all without a matrix product. The rest are closed forms too:
    - the eigenvalue rates behind sigma and didt_1; the small eigenvalue
      of rho_S^j is det rho_S^j over the large one, with the determinant
      by Cauchy-Binet from c_j
    - ||chi_j||_1 = 2 sqrt(det rho_S^j) + 2 det rho_S^j
    Other d_system take every spectrum from LAPACK, in matrices of at
    most w-square.

    Work is chunked along the time axis so that a chunk's arrays hold at
    most CHUNK_ELEMENTS entries (but always at least one time). The count
    adds Z (2 d_system^3 d_environment entries per time), f, its
    conjugate and H psi_j (2 d_system d_environment each), and 4 w^2, twice
    the chi_j stacks of both states, with w at its structural bound
    d_system min(d_environment, 2 d_system), since k is known only after
    a chunk's QR. Z is freed before chi_j is built, so the count is an
    upper bound.
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
    # entries per time: Z, f, its conjugate and H psi_j, then twice the chi_j of both states
    chunk = max(1, CHUNK_ELEMENTS // (2 * ds**3 * de + 6 * ds * de + 4 * w * w))
    # an empty stack still runs one (empty) chunk, so every key is present
    parts = [
        _chunk_series(h, ds, de, s1[a : a + chunk], s2[a : a + chunk], sz_diagonal)
        for a in range(0, max(n_times, 1), chunk)
    ]
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _chunk_series(h, ds, de, s1, s2, sz_diagonal) -> dict[str, np.ndarray]:
    n = s1.shape[0]
    nt = 2 * n
    psi = {1: s1, 2: s2}
    # row (j, x) of ft is row x of P_j
    ft = np.concatenate([s.reshape(n, ds, de) for s in (s1, s2)], axis=1)
    # [P_1^T, P_2^T] = Q R with orthonormal Q spanning both environment supports; only R is needed
    r = np.linalg.qr(ft.transpose(0, 2, 1), mode="r")
    # each row of R is one direction of W; keep the ones the pair occupies, so k = dim W
    row_max = np.abs(r).max(axis=(0, 2), initial=0.0)
    r = r[:, row_max >= RANK_RTOL * row_max.max(initial=0.0)]
    k = r.shape[1]
    w = ds * k
    # f[b, (x, t, j)] = P_j[x, b] at time t
    f = np.ascontiguousarray(ft.reshape(n, 2, ds, de).transpose(3, 2, 0, 1)).reshape(de, ds * nt)
    del ft
    # z[c, (a, b), (x, t, j)] = (H (|c> (x) P_j[x]^T))_ab, one GEMM per column block of H
    z = np.empty((ds, ds * de, ds * nt), dtype=np.complex128)
    for col in range(ds):
        np.matmul(h[:, col * de : (col + 1) * de], f, out=z[col])
    # H psi_j, the sum of z's columns with x = c
    h_psi = z[0, :, :nt].copy()
    for col in range(1, ds):
        h_psi += z[col, :, col * nt : (col + 1) * nt]
    fc = f.conj()
    # m[a, a', t, j] = M_j[a, a'] = ((H psi_j) P_j^dagger)_aa'
    m = np.einsum("abt,bxt->axt", h_psi.reshape(ds, de, nt), fc.reshape(de, ds, nt)).reshape(ds, ds, n, 2)
    # g[a, c, t, j] = G_j[a, c] = sum_x <P_j[x]| H_ac |P_j[x]>: z weighted in place by conj(P_j[x, b])
    weighted = z.reshape(ds * ds, de, ds * nt)
    weighted *= fc
    g = z.reshape(ds, ds, de, ds, nt).sum(axis=(2, 3)).swapaxes(0, 1).reshape(ds, ds, n, 2)
    del f, z, weighted, h_psi, fc  # freed before the w x w stacks
    # rho_S^j = c_j c_j^dagger with c_j = R_j^T, by stacked matmul, which fixes D_system's rounding
    c = r.reshape(n, k, 2, ds).transpose(0, 2, 3, 1)
    rho_s = c @ c.conj().swapaxes(-1, -2)
    # from here on time is the last axis: c[a, b, t, j] = (c_j)_ab at time t
    c = np.ascontiguousarray(c.transpose(2, 3, 0, 1))
    c_conj = c.conj()
    v, v_conj = c.reshape(w, nt), c_conj.reshape(w, nt)
    norms = (np.abs(v) ** 2).sum(axis=0).reshape(n, 2)
    # chi[p, q, t, j] = (chi_j)_pq = (v_j v_j^dagger - rho_S^j (x) rho_E^j)_pq, one system block at a time
    chi = (v[:, None] * v_conj[None, :]).reshape(w, w, n, 2)
    rho_e = np.einsum("abtj,aetj->betj", c, c_conj)
    blocks = chi.reshape(ds, k, ds, k, n, 2)
    for a in range(ds):
        for b in range(ds):
            blocks[a, :, b] -= rho_s[:, :, a, b] * rho_e
    residual_sys = np.abs(np.einsum("abdbtj->adtj", blocks)).max(axis=(0, 1))
    residual_env = np.abs(np.einsum("abaetj->betj", blocks)).max(axis=(0, 1))
    out = {}
    for j in (1, 2):
        probs = np.abs(psi[j]) ** 2
        out[f"purity_{j}"] = probs.sum(axis=1) ** 2
        out[f"magnetization_{j}"] = np.full(n, np.nan) if sz_diagonal is None else probs @ sz_diagonal
        out[f"chi{j}_ptrace_sys"] = residual_sys[:, j - 1]
        out[f"chi{j}_ptrace_env"] = residual_env[:, j - 1]
    if ds == 2:
        _qubit_columns(out, c, rho_s, g, m)
    else:
        _stack_columns(out, rho_s, *(x.transpose(2, 3, 0, 1) for x in (chi, g, m)))
    for j in (1, 2):
        # S(rho_E^j) = S(rho_S^j)
        out[f"mutual_info_{j}"] = 2.0 * out[f"svn_system_{j}"] - _entropy_stack(norms[:, j - 1, None])
    out["d_env"] = 0.5 * _trace_norm_stack((rho_e[..., 0] - rho_e[..., 1]).transpose(2, 0, 1))
    out["e_indist"] = 1.0 - out["d_env"]
    dchi = chi[..., 0]
    dchi -= chi[..., 1]  # in place: no further w x w stack
    out["x_corr"] = 0.5 * _trace_norm_stack(dchi.transpose(2, 0, 1))
    out["bound_term1"] = np.minimum(out["term1_branch1"], out["term1_branch2"])
    out["bound_total"] = 0.5 * (out["bound_term1"] + out["bound_term2"])
    return out


def _stack_columns(out, rho_s, chi, g, m) -> None:
    """The d_system x d_system columns of a chunk, every spectrum from LAPACK; stacks are (time, j, ...)."""
    rho_dot, tr_chi = {}, {}
    for j in (1, 2):
        anti = m[:, j - 1] - m[:, j - 1].conj().transpose(0, 2, 1)
        rho_dot[j] = -1j * anti
        tr_chi[j] = anti - _commutator(g[:, j - 1], rho_s[:, j - 1])
        out[f"chi{j}_norm"] = _trace_norm_stack(chi[:, j - 1])
    # only didt_1 needs eigenvectors; rho_S^2 keeps eigvalsh, as eigh's eigenvalues can differ from it in the last bit
    p, rates = _eigen_rates(rho_s[:, 0], rho_dot[1])
    out["didt_1"] = -2.0 * (rates * _log2_kept(p)).sum(axis=-1)
    out["svn_system_1"] = _entropy_stack(p)
    out["svn_system_2"] = _entropy_stack(np.linalg.eigvalsh(rho_s[:, 1]))
    w, rates = _eigen_rates(rho_s[:, 0] - rho_s[:, 1], rho_dot[1] - rho_dot[2])
    out["d_system"] = 0.5 * np.abs(w).sum(axis=-1)
    out["sigma"] = 0.5 * (np.sign(w) * rates).sum(axis=-1)
    # each commutator is anti-Hermitian: its trace norm is that of i times it
    g_delta = g[:, 0] - g[:, 1]
    for j in (1, 2):
        out[f"term1_branch{j}"] = _trace_norm_stack(1j * _commutator(g_delta, rho_s[:, j - 1]))
    out["bound_term2"] = _trace_norm_stack(1j * (tr_chi[1] - tr_chi[2]))


def _qubit_columns(out, c, rho_s, g, m) -> None:
    """The 2 x 2 columns of a qubit chunk in closed form.

    rho_s is a (time, j, 2, 2) stack; c[a, b, time, j] = (c_j)_ab, and
    g[a, b, time, j] = G_j[a, b], with m holding M_j alike. Each
    Hermitian 2 x 2 (rho_S^j, d rho_S^j/dt, G_j, G_1 - G_2, Delta) is
    held as its _parts.
    """
    t, h, o = _parts(rho_s.transpose(2, 3, 0, 1))
    r = np.hypot(h, np.abs(o))
    det = _det_2xk(c)
    # det / p_1 keeps the small eigenvalue's relative precision, which t - r loses
    big = t + r
    small = det / big
    logs = _log2_kept(small), _log2_kept(big)
    svn = -(small * logs[0] + big * logs[1])
    chi_norm = 2.0 * np.sqrt(det) + 2.0 * det
    _, g_h, g_o = _parts(g)
    # d rho_S^j/dt = -i (M_j - M_j^dagger)
    dot_t, dot_h, dot_o = _parts(-1j * (m - m.conj().swapaxes(0, 1)))
    rates = _eigen_rates_2x2(h[:, 0], o[:, 0], r[:, 0], dot_t[:, 0], dot_h[:, 0], dot_o[:, 0])
    out["didt_1"] = -2.0 * (rates[0] * logs[0][:, 0] + rates[1] * logs[1][:, 0])
    # term1 branch j = ||i[G_1 - G_2, rho_S^j]||_1
    comm_h, comm_o = _commutator_parts((g_h[:, 0] - g_h[:, 1])[:, None], (g_o[:, 0] - g_o[:, 1])[:, None], h, o)
    term1 = 2.0 * np.hypot(comm_h, np.abs(comm_o))
    for j in (1, 2):
        out[f"svn_system_{j}"] = svn[:, j - 1]
        out[f"chi{j}_norm"] = chi_norm[:, j - 1]
        out[f"term1_branch{j}"] = term1[:, j - 1]
    # -i Tr_E[H, chi_j] = d rho_S^j/dt + i[G_j, rho_S^j], traceless as Tr M_j = <psi_j|H|psi_j> is real
    comm_h, comm_o = _commutator_parts(g_h, g_o, h, o)
    x_h, x_o = dot_h + comm_h, dot_o + comm_o
    out["bound_term2"] = 2.0 * np.hypot(x_h[:, 0] - x_h[:, 1], np.abs(x_o[:, 0] - x_o[:, 1]))
    t, h, o = _parts((rho_s[:, 0] - rho_s[:, 1]).transpose(1, 2, 0))
    r = np.hypot(h, np.abs(o))
    out["d_system"] = 0.5 * (np.abs(t - r) + np.abs(t + r))
    rates = _eigen_rates_2x2(h, o, r, *(part[:, 0] - part[:, 1] for part in (dot_t, dot_h, dot_o)))
    # sgn(0) = 0: sigma is 0 where Delta vanishes
    out["sigma"] = 0.5 * (np.sign(t - r) * rates[0] + np.sign(t + r) * rates[1])
