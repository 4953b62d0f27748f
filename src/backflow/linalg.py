"""Dense complex linear algebra and quantum state primitives.

Conventions used throughout the package: operators are dense, row-major
complex128 numpy arrays; composite spaces put the system in the leftmost
tensor factor; |0> is the sigma_z eigenstate with eigenvalue +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Bipartition",
    "hermitian_eig",
    "trace_norm",
    "partial_trace",
    "von_neumann_entropy",
    "purity",
    "haar_random_state",
]

HERMITIAN_ATOL = 1e-12
NORM_ATOL = 1e-12
ENTROPY_CUTOFF = 1e-14
# edge of the square tiles the Hermiticity check compares, small enough to stay in
# cache; also the row-block height of the model's sector check and of the search
# for the block of H that a run evolves
CHECK_TILE = 256


@dataclass(frozen=True)
class Bipartition:
    """System x environment split of a joint space (system leftmost)."""

    d_system: int
    d_environment: int

    def __post_init__(self) -> None:
        if self.d_system < 1 or self.d_environment < 1:
            raise ValueError(
                f"bipartition dimensions must be positive, got "
                f"({self.d_system}, {self.d_environment})"
            )

    @property
    def d_joint(self) -> int:
        return self.d_system * self.d_environment


def max_asymmetry(h: np.ndarray) -> float:
    """max |h - h^dagger| entrywise, compared tile by tile with no d x d temporary."""
    d = h.shape[0]
    worst = 0.0
    for i in range(0, d, CHECK_TILE):
        for j in range(i, d, CHECK_TILE):
            upper = h[i : i + CHECK_TILE, j : j + CHECK_TILE]
            lower = h[j : j + CHECK_TILE, i : i + CHECK_TILE]
            worst = max(worst, float(np.max(np.abs(upper - lower.conj().T))))
    return worst


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as orthonormal columns. Inputs whose max asymmetry
    exceeds HERMITIAN_ATOL are rejected; below that, the lower
    triangle is taken as the matrix.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    asym = max_asymmetry(h)
    if asym > HERMITIAN_ATOL:
        raise ValueError(f"matrix not Hermitian, max asymmetry {asym:.3e}")
    w, v = np.linalg.eigh(h)
    return w, v


def trace_norm(a: np.ndarray):
    """Sum of singular values of a square matrix, or of each in a (..., d, d) stack."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"trace norm defined here for square matrices, got shape {a.shape}")
    return np.linalg.svd(a, compute_uv=False).sum(axis=-1)


def partial_trace(m, bipartition: Bipartition, keep: str = "system") -> np.ndarray:
    """Reduce a joint operator, or each in a (..., d, d) stack, to one factor of `bipartition`.

    keep="system" traces out the environment, keep="environment" traces
    out the system.
    """
    x = np.asarray(m, dtype=np.complex128)
    ds, de = bipartition.d_system, bipartition.d_environment
    if x.shape[-2:] != (ds * de, ds * de):
        raise ValueError(f"operator shape {x.shape} does not match bipartition ({ds}, {de})")
    t = x.reshape(*x.shape[:-2], ds, de, ds, de)
    if keep == "system":
        return np.einsum("...abcb->...ac", t)
    if keep == "environment":
        return np.einsum("...abad->...bd", t)
    raise ValueError(f"keep must be 'system' or 'environment', got {keep!r}")


def von_neumann_entropy(rho):
    """Entropy -sum(p log2 p) of a density operator, or of each in a stack, in bits.

    Eigenvalues below 1e-14 are treated as exactly zero so that rounding
    noise from reductions of pure states cannot contribute.
    """
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=np.complex128))
    w = np.where(w < ENTROPY_CUTOFF, 0.0, w)
    logs = np.zeros_like(w)
    np.log2(w, out=logs, where=w > 0)
    return -(w * logs).sum(axis=-1)


def purity(rho) -> float:
    """Tr(rho^2) as a real number."""
    m = np.asarray(rho, dtype=np.complex128)
    return float(np.real(np.einsum("ij,ji->", m, m)))


def haar_random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed pure state vector of the given dimension."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
