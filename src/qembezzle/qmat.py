"""Dense Hermitian linear algebra and state-distinguishability metrics.

Everything here works on plain complex ``numpy`` arrays wrapped in a thin
:class:`DensityMatrix` record that remembers an optional bipartite split.
All operations are pure; returned arrays are frozen (non-writeable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded, DomainError, NotPSD, ShapeError, SupportError

# Absolute tolerances for state ingestion; inputs are trace-one scaled.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-10

# Largest Hilbert-space dimension we materialise densely by default.
DEFAULT_DIM_CAP = 4096

ComplexMatrix = np.ndarray


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SupportTolerance:
    """Relative eigenvalue cutoff used for support/pseudo-inverse decisions."""

    eigen_cutoff: float = 1e-10

    def __post_init__(self):
        if not 0.0 <= self.eigen_cutoff <= 1e-6:
            raise DomainError(f"eigen_cutoff must lie in [0, 1e-6], got {self.eigen_cutoff}")


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one PSD complex matrix with an optional bipartite split.

    Build instances through :meth:`from_matrix` (validates and symmetrises)
    rather than the raw constructor; internal algebra uses the private
    trusted path to avoid re-diagonalising intermediate results.
    """

    mat: np.ndarray
    split_a: int | None = None
    split_b: int | None = None

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeError(f"density matrix must be square, got shape {mat.shape}")
        if (self.split_a is None) != (self.split_b is None):
            raise ShapeError("split_a and split_b must be declared together")
        if self.split_a is not None and self.split_a * self.split_b != mat.shape[0]:
            raise ShapeError(
                f"split {self.split_a}x{self.split_b} incompatible with dim {mat.shape[0]}"
            )
        object.__setattr__(self, "mat", _frozen(mat))

    @classmethod
    def from_matrix(cls, mat: np.ndarray, split: tuple[int, int] | None = None) -> "DensityMatrix":
        """Ingest a matrix as a quantum state: symmetrise, then validate."""
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeError(f"density matrix must be square, got shape {mat.shape}")
        herm_dev = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
        if herm_dev > HERMITICITY_TOL:
            raise NotPSD(f"matrix is not Hermitian within tolerance (deviation {herm_dev:.3e})")
        mat = (mat + mat.conj().T) / 2.0
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"trace must be 1 within {TRACE_TOL}, got {tr!r}")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < -EIGENVALUE_TOL:
            raise NotPSD(f"minimum eigenvalue {min_eig:.3e} below -{EIGENVALUE_TOL}")
        a, b = split if split is not None else (None, None)
        return cls(mat, a, b)

    @classmethod
    def _trusted(cls, mat: np.ndarray, split: tuple[int, int] | None = None) -> "DensityMatrix":
        # For internally derived states that are PSD/trace-one by construction.
        a, b = split if split is not None else (None, None)
        return cls(np.asarray(mat, dtype=complex), a, b)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def split(self) -> tuple[int, int] | None:
        if self.split_a is None:
            return None
        return (self.split_a, self.split_b)

    def with_split(self, split_a: int, split_b: int) -> "DensityMatrix":
        """Return the same state with a (re)declared bipartite split."""
        return DensityMatrix(self.mat, split_a, split_b)

    def require_split(self) -> tuple[int, int]:
        if self.split_a is None:
            raise ShapeError("operation requires a declared bipartite split")
        return self.split_a, self.split_b

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.mat)[0])


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states, split as (dim a, dim b)."""
    total = a.dim * b.dim
    if total > DEFAULT_DIM_CAP:
        raise CapacityExceeded(f"tensor product dimension {total} exceeds cap {DEFAULT_DIM_CAP}")
    return DensityMatrix._trusted(np.kron(a.mat, b.mat), split=(a.dim, b.dim))


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Trace out one factor of a bipartite state; ``keep`` is ``"A"`` or ``"B"``."""
    da, db = rho.require_split()
    if keep not in ("A", "B"):
        raise ShapeError(f"keep selector must be 'A' or 'B', got {keep!r}")
    t = rho.mat.reshape(da, db, da, db)
    out = np.einsum("ajbj->ab" if keep == "A" else "jajb->ab", t)
    return DensityMatrix._trusted(out)


def psd_sqrt(mat: np.ndarray | DensityMatrix) -> ComplexMatrix:
    """Hermitian square root of a PSD matrix via eigendecomposition.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything below -1e-8
    raises :class:`NotPSD`.
    """
    m = mat.mat if isinstance(mat, DensityMatrix) else np.asarray(mat, dtype=complex)
    m = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(m)
    if w[0] < -1e-8:
        raise NotPSD(f"matrix has eigenvalue {w[0]:.3e}, not PSD")
    w = np.clip(w, 0.0, None)
    return _frozen((v * np.sqrt(w)) @ v.conj().T)


def _check_same_dim(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    if rho.dim != sigma.dim:
        raise ShapeError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``[tr sqrt(sqrt(sigma) rho sqrt(sigma))]^2``.

    Computed as the squared trace norm of ``sqrt(rho) sqrt(sigma)``, which
    is better conditioned than nesting three matrix square roots.
    """
    _check_same_dim(rho, sigma)
    cross = psd_sqrt(rho) @ psd_sqrt(sigma)
    tr_norm = float(np.sum(np.linalg.svd(cross, compute_uv=False)))
    return float(min(max(tr_norm * tr_norm, 0.0), 1.0))


def purified_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Purified (sine) distance ``sqrt(1 - F_U)``."""
    return float(np.sqrt(max(0.0, 1.0 - uhlmann_fidelity(rho, sigma))))


def max_relative_entropy(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    tol: SupportTolerance = SupportTolerance(),
) -> float:
    """Max-relative entropy: log2 of the smallest c with ``rho <= c sigma``.

    Evaluated spectrally as the top eigenvalue of
    ``sigma^(-1/2) rho sigma^(-1/2)`` with the inverse square root taken on
    sigma's support. Raises :class:`SupportError` when rho has weight on
    sigma's null space beyond the cutoff (the divergence is then infinite).
    """
    _check_same_dim(rho, sigma)
    w, v = np.linalg.eigh(sigma.mat)
    cutoff = tol.eigen_cutoff * max(float(w[-1]), 0.0)
    on_support = w > cutoff
    if not np.any(on_support):
        raise SupportError("sigma has numerically empty support")
    if not np.all(on_support):
        null_vecs = v[:, ~on_support]
        residual = float(np.real(np.einsum("ij,ik,kj->", null_vecs.conj(), rho.mat, null_vecs)))
        if residual > max(tol.eigen_cutoff, 1e-14):
            raise SupportError(
                f"support of rho escapes support of sigma (residual trace {residual:.3e})"
            )
    vs = v[:, on_support]
    inv_sqrt = (vs / np.sqrt(w[on_support])) @ vs.conj().T
    pivot = inv_sqrt @ rho.mat @ inv_sqrt
    top = float(np.linalg.eigvalsh((pivot + pivot.conj().T) / 2.0)[-1])
    return max(float(np.log2(max(top, np.finfo(float).tiny))), 0.0)
