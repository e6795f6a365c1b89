"""State constructors, seeded samplers, and the shared matrix text format."""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DomainError, SamplerStalled, ShapeError
from .qmat import DensityMatrix, _frozen

NORM_TOL = 1e-10
FULL_RANK_MIN_EIG = 1e-6
_REJECTION_BUDGET = 1000


@dataclass(frozen=True)
class SeededRng:
    """Deterministic random source: one seed, one PCG64 stream.

    Derived streams for parallel work are obtained by XORing the master
    seed with a stream index, so a (seed, index) pair pins every sample.
    Derived streams of different master seeds coincide whenever seed ^ index
    does (ROADMAP item 9).
    """

    seed: int

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, stream_index: int) -> "SeededRng":
        return SeededRng(self.seed ^ int(stream_index))


@dataclass(frozen=True)
class PureStateVector:
    """Unit-norm complex amplitude vector with an optional bipartite split."""

    amplitudes: np.ndarray
    split_a: int | None = None
    split_b: int | None = None

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ShapeError(f"amplitudes must be a vector, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"state norm must be 1 within {NORM_TOL}, got {norm!r}")
        if (self.split_a is None) != (self.split_b is None):
            raise ShapeError("split_a and split_b must be declared together")
        if self.split_a is not None and self.split_a * self.split_b != amps.shape[0]:
            raise ShapeError(
                f"split {self.split_a}x{self.split_b} incompatible with dim {amps.shape[0]}"
            )
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def split(self) -> tuple[int, int] | None:
        return None if self.split_a is None else (self.split_a, self.split_b)

    def with_split(self, split_a: int, split_b: int) -> "PureStateVector":
        return PureStateVector(self.amplitudes, split_a, split_b)

    def density(self) -> DensityMatrix:
        """Rank-one projector onto this state."""
        proj = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix._trusted(proj, split=self.split)


@dataclass(frozen=True)
class SchmidtVector:
    """Nonincreasing probability vector of squared Schmidt coefficients."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ShapeError("probs must be a nonempty vector")
        if np.any(p < -NORM_TOL):
            raise DomainError("probs must be nonnegative")
        if np.any(np.diff(p) > NORM_TOL):
            raise DomainError("probs must be nonincreasing")
        if abs(float(p.sum()) - 1.0) > NORM_TOL:
            raise DomainError(f"probs must sum to 1, got {float(p.sum())!r}")
        object.__setattr__(self, "probs", _frozen(np.clip(p, 0.0, None)))

    @property
    def size(self) -> int:
        return self.probs.shape[0]


@lru_cache(maxsize=None)
def max_entangled_amplitudes(d: int) -> np.ndarray:
    """Read-only amplitudes of the maximally entangled state, built once per d."""
    if d < 1:
        raise DomainError(f"local dimension must be >= 1, got {d}")
    amps = np.zeros(d * d, dtype=complex)
    amps[:: d + 1] = 1.0 / np.sqrt(d)
    return _frozen(amps)


def max_entangled(d: int) -> PureStateVector:
    """Maximally entangled state: uniform amplitude on the d diagonal kets."""
    return PureStateVector(max_entangled_amplitudes(d), d, d)


def max_entangled_density(d: int) -> DensityMatrix:
    return max_entangled(d).density()


def maximally_mixed(d: int, split: tuple[int, int] | None = None) -> DensityMatrix:
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    return DensityMatrix._trusted(np.eye(d, dtype=complex) / d, split=split)


def random_pure(d: int, rng: SeededRng | np.random.Generator) -> PureStateVector:
    """Haar-random pure state (normalised complex Gaussian vector)."""
    gen = rng.generator() if isinstance(rng, SeededRng) else rng
    z = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    return PureStateVector(z / np.linalg.norm(z))


def random_density(
    d: int,
    rng: SeededRng | np.random.Generator,
    split: tuple[int, int] | None = None,
) -> DensityMatrix:
    """Hilbert-Schmidt random state: G G† / tr(G G†) with Gaussian G."""
    gen = rng.generator() if isinstance(rng, SeededRng) else rng
    g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix._trusted(m, split=split)


def random_full_rank(
    d: int,
    rng: SeededRng | np.random.Generator,
    min_eig: float = FULL_RANK_MIN_EIG,
    split: tuple[int, int] | None = None,
) -> DensityMatrix:
    """Resample :func:`random_density` until the smallest eigenvalue clears ``min_eig``."""
    if min_eig < 0:
        raise DomainError(f"min_eig must be nonnegative, got {min_eig}")
    gen = rng.generator() if isinstance(rng, SeededRng) else rng
    for _ in range(_REJECTION_BUDGET):
        cand = random_density(d, gen, split=split)
        if cand.min_eigenvalue() >= min_eig:
            return cand
    raise SamplerStalled(
        f"no sample with min eigenvalue >= {min_eig} in {_REJECTION_BUDGET} draws"
    )


def random_flat_spectrum(
    d: int,
    rngs: Sequence[SeededRng | np.random.Generator],
    min_eig: float = FULL_RANK_MIN_EIG,
) -> np.ndarray:
    """Full-rank states with simplex-uniform eigenvalues and a Haar eigenbasis.

    Returns a (len(rngs), d, d) stack whose row k is drawn from rngs[k] alone:
    Dirichlet eigenvalues until the smallest clears ``min_eig``, then one
    complex Gaussian matrix whose phase-fixed QR factor is the eigenbasis.
    Compared with the Hilbert-Schmidt ensemble this suppresses the strong
    eigenvalue repulsion, so samples rarely carry the near-singular
    directions that make them useless as catalyst ingredients.
    """
    if min_eig < 0:
        raise DomainError(f"min_eig must be nonnegative, got {min_eig}")
    alpha = np.ones(d)
    eigs = np.empty((len(rngs), d))
    g = np.empty((len(rngs), d, d), dtype=complex)
    for k, rng in enumerate(rngs):
        gen = rng.generator() if isinstance(rng, SeededRng) else rng
        for _ in range(_REJECTION_BUDGET):
            eigs[k] = gen.dirichlet(alpha)
            if eigs[k].min() >= min_eig:
                break
        else:
            raise SamplerStalled(
                f"no sample with min eigenvalue >= {min_eig} in {_REJECTION_BUDGET} draws"
            )
        g[k] = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, None, :]
    return (q * eigs[:, None, :]) @ np.conj(np.swapaxes(q, 1, 2))


def schmidt_decompose(psi: PureStateVector) -> tuple[SchmidtVector, tuple[np.ndarray, np.ndarray]]:
    """Schmidt decomposition of a bipartite pure state.

    Returns the squared Schmidt coefficients (nonincreasing, renormalised)
    and local bases ``(left, right)`` such that
    ``psi = sum_k s_k * kron(left[:, k], right[:, k])`` with ``s_k`` the
    singular values of the reshaped amplitude matrix.
    """
    if psi.split_a is None:
        raise ShapeError("schmidt_decompose requires a declared bipartite split")
    a = psi.amplitudes.reshape(psi.split_a, psi.split_b)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    total = float(np.sum(s * s))
    probs = SchmidtVector(s * s / total)
    return probs, (_frozen(u), _frozen(vh.T))


def schmidt_reconstruct(
    probs: SchmidtVector, bases: tuple[np.ndarray, np.ndarray]
) -> PureStateVector:
    """Rebuild the state from a Schmidt decomposition (up to global phase)."""
    left, right = bases
    coeff = np.sqrt(probs.probs)
    amps = np.einsum("k,ak,bk->ab", coeff, left, right).reshape(-1)
    return PureStateVector(amps / np.linalg.norm(amps), left.shape[0], right.shape[0])


# ---------------------------------------------------------------------------
# Shared matrix text format: JSON with dim / splitA / splitB / entries,
# entries a row-major nested array of [re, im] pairs.
# ---------------------------------------------------------------------------


def density_to_document(rho: DensityMatrix) -> dict:
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in rho.mat]
    return {
        "dim": rho.dim,
        "splitA": rho.split_a,
        "splitB": rho.split_b,
        "entries": entries,
    }


def density_from_document(doc: dict) -> DensityMatrix:
    dim = int(doc["dim"])
    entries = doc["entries"]
    if len(entries) != dim or any(len(row) != dim for row in entries):
        raise ShapeError(f"entries must form a {dim}x{dim} matrix")
    mat = np.array([[complex(re, im) for re, im in row] for row in entries])
    split = None
    if doc.get("splitA") is not None:
        split = (int(doc["splitA"]), int(doc["splitB"]))
    return DensityMatrix.from_matrix(mat, split=split)


def write_density(path: str | Path, rho: DensityMatrix) -> None:
    Path(path).write_text(json.dumps(density_to_document(rho), indent=1), encoding="utf-8")


def read_density(path: str | Path) -> DensityMatrix:
    return density_from_document(json.loads(Path(path).read_text(encoding="utf-8")))
