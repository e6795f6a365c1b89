"""Embezzling-state catalysis: harmonic states, rearrangement, and residuals.

The catalyst is the harmonic-weighted entangled state on an M x M pair.
Extraction works by discarding the original pair, preparing |11>, and
applying a rearrangement permutation whose inverse maps the maximally
entangled product exactly onto a dictionary-ordered state on the joint
registers. All protocol outputs are supported on diagonal kets, so exact
quantities are computed in compact M-sized coordinates and densified only
on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import CapacityExceeded, DomainError
from .qmat import DEFAULT_DIM_CAP, DensityMatrix, _frozen
from .qstates import PureStateVector

# Rearrangement acts on one side (A with C); keep each side dense-addressable.
SIDE_DIM_CAP = 4096

# Beyond this Schmidt rank the O(M) exact residual sums are not attempted.
EXACT_RESIDUAL_RANK_CAP = 50_000_000

# Indices per chunk of the O(M) sums over j = 1..M, so their memory stays flat in M.
_SUM_CHUNK = 1 << 16


def _chunked_sum(m: int, term) -> float:
    """Sum of term(j) over j = 1..m: a numpy sum per chunk of _SUM_CHUNK indices, then fsum."""
    return math.fsum(
        float(np.sum(term(np.arange(start, min(start + _SUM_CHUNK, m + 1)))))
        for start in range(1, m + 1, _SUM_CHUNK)
    )


def harmonic_number(m: int) -> float:
    return _chunked_sum(m, lambda j: 1.0 / j)


@dataclass(frozen=True)
class EmbezzlingState:
    """Harmonic-weighted entangled state of Schmidt rank M."""

    rank: int
    harmonic_norm: float
    amplitudes: np.ndarray  # amplitude on |jj>, j = 1..M

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _frozen(self.amplitudes))

    def vector(self) -> PureStateVector:
        """Dense state on the M x M pair (amplitudes on the diagonal kets)."""
        m = self.rank
        if m * m > DEFAULT_DIM_CAP:
            raise CapacityExceeded(f"dense dimension {m * m} exceeds cap {DEFAULT_DIM_CAP}")
        amps = np.zeros(m * m, dtype=complex)
        amps[:: m + 1] = self.amplitudes
        return PureStateVector(amps, m, m)

    def density(self) -> DensityMatrix:
        return self.vector().density()


def embezzling_state(m: int) -> EmbezzlingState:
    """Amplitudes 1/sqrt(j c_M) for j = 1..M, c_M the M-th harmonic number."""
    if m < 1:
        raise DomainError(f"Schmidt rank must be >= 1, got {m}")
    c = harmonic_number(m)
    amps = 1.0 / np.sqrt(np.arange(1, m + 1) * c)
    return EmbezzlingState(rank=m, harmonic_norm=c, amplitudes=amps)


@dataclass(frozen=True)
class ProductPreimageState:
    """Preimage of phi+ x (embezzling state) under the rearrangement.

    Supported on the doubled-diagonal kets |ii>|jj>; the stored real
    coefficients follow dictionary order in (i, j) by construction.
    """

    d: int
    rank: int
    coefficients: np.ndarray  # (d, M)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _frozen(self.coefficients))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.coefficients**2)))


def product_preimage_state(d: int, m: int) -> ProductPreimageState:
    """Coefficients 1/sqrt(ceil(((i-1)M + j)/d) d c_M) on |ii>|jj>."""
    if d < 1:
        raise DomainError(f"local dimension must be >= 1, got {d}")
    if m < d:
        raise DomainError(f"Schmidt rank {m} must be at least the local dimension {d}")
    c = harmonic_number(m)
    flat = np.arange(1, d * m + 1)  # m_index = (i-1)M + j in dictionary order
    group = -(-flat // d)  # ceil division
    coeff = 1.0 / np.sqrt(group * d * c)
    return ProductPreimageState(d=d, rank=m, coefficients=coeff.reshape(d, m))


@dataclass(frozen=True)
class RearrangementPermutation:
    """Index bijection (i, j) -> (k, l) on the d x M product basis.

    With m = (i-1)M + j, the image is l = ceil(m/d), k = m - (l-1)d; the
    same relabelling applied on both sides turns the preimage state into
    the maximally entangled state tensored with the embezzling state.
    """

    d: int
    rank: int
    k_index: np.ndarray  # (d, M), 0-based target first register
    l_index: np.ndarray  # (d, M), 0-based target second register

    def __post_init__(self):
        object.__setattr__(self, "k_index", _frozen(self.k_index))
        object.__setattr__(self, "l_index", _frozen(self.l_index))

    def pair(self, i: int, j: int) -> tuple[int, int]:
        """Image of 1-based (i, j) as a 1-based (k, l) pair."""
        return int(self.k_index[i - 1, j - 1]) + 1, int(self.l_index[i - 1, j - 1]) + 1

    def is_bijection(self) -> bool:
        flat = self.k_index * self.rank + self.l_index
        return np.unique(flat).size == self.d * self.rank

    def apply_pairwise(self, coefficients: np.ndarray) -> np.ndarray:
        """Relabel a (d, M) doubled-diagonal coefficient table to (d, M) targets."""
        out = np.zeros((self.d, self.rank), dtype=coefficients.dtype)
        out[self.k_index, self.l_index] = coefficients
        return out

    def matrix(self) -> np.ndarray:
        """Dense one-side permutation unitary on the d*M-dimensional register."""
        n = self.d * self.rank
        if n > SIDE_DIM_CAP:
            raise CapacityExceeded(f"side dimension {n} exceeds cap {SIDE_DIM_CAP}")
        u = np.zeros((n, n))
        src = (np.arange(self.d)[:, None] * self.rank + np.arange(self.rank)[None, :]).ravel()
        dst = (self.k_index * self.rank + self.l_index).ravel()
        u[dst, src] = 1.0
        return u


def rearrangement_permutation(d: int, m: int) -> RearrangementPermutation:
    if d < 1:
        raise DomainError(f"local dimension must be >= 1, got {d}")
    if m < d:
        raise DomainError(f"Schmidt rank {m} must be at least the local dimension {d}")
    i = np.arange(1, d + 1)[:, None]
    j = np.arange(1, m + 1)[None, :]
    flat = (i - 1) * m + j
    l = -(-flat // d)
    k = flat - (l - 1) * d
    return RearrangementPermutation(d=d, rank=m, k_index=k - 1, l_index=l - 1)


@dataclass(frozen=True)
class EmbezzleProtocolResult:
    """Extraction outcome: exact fidelity with phi+ x catalyst, optional dense state."""

    d: int
    rank: int
    fidelity_exact: float
    joint: DensityMatrix | None


def _extraction_overlap(d: int, m: int) -> float:
    """Inner product of the protocol output with phi+ x catalyst."""
    c = harmonic_number(m)
    return _chunked_sum(m, lambda j: 1.0 / np.sqrt(j * -(-j // d))) / (c * math.sqrt(d))


def embezzle_protocol(rho: DensityMatrix, m: int) -> EmbezzleProtocolResult:
    """Run the extraction protocol: discard the pair, prepare |11>, rearrange.

    The output never depends on ``rho`` beyond its local dimension (the
    protocol discards it), which is what makes the catalyst universal. The
    dense joint state on (original pair) x (catalyst pair) is attached when
    its dimension d^2 M^2 fits ``DEFAULT_DIM_CAP``.
    """
    da, db = rho.require_split()
    if da != db:
        raise DomainError(f"rho must live on a square split, got {da}x{db}")
    d = da
    if m < d:
        raise DomainError(f"Schmidt rank {m} must be at least the local dimension {d}")
    if d * m > SIDE_DIM_CAP:
        raise CapacityExceeded(f"side dimension {d * m} exceeds cap {SIDE_DIM_CAP}")
    overlap = _extraction_overlap(d, m)
    fidelity = overlap * overlap

    joint = None
    total = d * d * m * m
    if total <= DEFAULT_DIM_CAP:
        amps = np.zeros(total, dtype=complex)
        cat = embezzling_state(m)
        j = np.arange(1, m + 1)
        l = -(-j // d)
        k = j - (l - 1) * d
        ab = (k - 1) * d + (k - 1)
        cc = (l - 1) * m + (l - 1)
        amps[ab * m * m + cc] = cat.amplitudes
        joint = PureStateVector(amps, d * d, m * m).density()
    return EmbezzleProtocolResult(d=d, rank=m, fidelity_exact=fidelity, joint=joint)


def extraction_fidelity_bound(d: int, m: int) -> float:
    """Guaranteed extraction fidelity ((log M - log d) / log M)^2."""
    if d < 2:
        raise DomainError(f"local dimension must be >= 2, got {d}")
    if m < d:
        raise DomainError(f"Schmidt rank {m} must be at least the local dimension {d}")
    ratio = (math.log(m) - math.log(d)) / math.log(m)
    return ratio * ratio


def schmidt_rank_for_fidelity(d: int, epsilon: float) -> int:
    """Catalyst rank guaranteeing average fidelity 1 - epsilon.

    Evaluates ceil(d^(1/(1 - sqrt(1 - eps (d+1)/d)))) in software floats;
    the nested exponential is too sensitive near small epsilon for doubles.
    """
    if d < 2:
        raise DomainError(f"local dimension must be >= 2, got {d}")
    if not 0.0 < epsilon:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if epsilon * (d + 1) / d >= 1.0:
        raise DomainError(f"epsilon {epsilon} too large: eps (d+1)/d must stay below 1")
    with mp.workdps(60):
        eps = mp.mpf(epsilon)
        dd = mp.mpf(d)
        exponent = 1 / (1 - mp.sqrt(1 - eps * (dd + 1) / dd))
        return int(mp.ceil(mp.power(dd, exponent)))


@dataclass(frozen=True)
class CatalystResidual:
    """Catalyst state after extraction, with exact and closed-form distances.

    ``block`` is the residual on the span of the diagonal kets |ll> of the
    catalyst pair (all of its support), built on each access; ``xi_dense``
    embeds it back into the full M^2-dimensional pair space.
    """

    d: int
    rank: int
    p_exact: float
    p_closed_form: float
    p_bound: float

    @property
    def block(self) -> np.ndarray:
        """(M, M) real residual on the |ll> kets."""
        return _frozen(_residual_block(self.d, self.rank))

    def xi_dense(self) -> DensityMatrix:
        m = self.rank
        if m * m > DEFAULT_DIM_CAP:
            raise CapacityExceeded(f"dense dimension {m * m} exceeds cap {DEFAULT_DIM_CAP}")
        full = np.zeros((m * m, m * m), dtype=complex)
        diag = np.arange(m) * (m + 1)
        full[np.ix_(diag, diag)] = self.block
        return DensityMatrix._trusted(full, split=(m, m))


def _residual_block(d: int, m: int) -> np.ndarray:
    """Partial trace of the protocol output over the original pair, on |ll> kets."""
    cat = embezzling_state(m)
    groups = -(-m // d)  # number of distinct l values reached
    padded = np.zeros(groups * d)
    padded[:m] = cat.amplitudes
    rows = padded.reshape(groups, d)  # rows[l-1, k-1] = amplitude at j = (l-1)d + k
    block = np.zeros((m, m))
    block[:groups, :groups] = rows @ rows.T
    return block


def residual_fidelity_exact(d: int, m: int) -> float:
    """Overlap of the post-protocol catalyst with the original, exactly.

    Grouped O(M) form of <tau|xi|tau>: residues of j mod d label the
    surviving coherent sectors. Groups are summed in blocks of about
    _SUM_CHUNK indices, combined per residue with fsum, so memory stays flat.
    """
    if d < 1 or m < d:
        raise DomainError(f"need M >= d >= 1, got d={d}, M={m}")
    if m > EXACT_RESIDUAL_RANK_CAP:
        raise CapacityExceeded(f"rank {m} beyond exact-evaluation cap")
    c = harmonic_number(m)
    groups = -(-m // d)
    step = max(1, _SUM_CHUNK // d)
    parts = []
    for g0 in range(0, groups, step):
        g1 = min(g0 + step, groups)
        j = np.arange(g0 * d + 1, min(g1 * d, m) + 1)
        padded = np.zeros((g1 - g0) * d)
        padded[: j.size] = 1.0 / np.sqrt(j * c)
        weights = 1.0 / np.sqrt(np.arange(g0 + 1, g1 + 1) * c)
        parts.append(weights @ padded.reshape(g1 - g0, d))  # (d,) per block
    sector = np.array([math.fsum(col) for col in zip(*parts)])
    return float(np.sum(sector**2))


def residual_fidelity_closed_form(d: int, m: int) -> float:
    """Double-sum closed form for the same overlap, kept as a cross-check.

    Terms are indexed by the diagonal position mm and its lower coherent
    partners i < K = ceil(mm/d), at k_i = r + (i-1)d with residue
    r = mm - (K-1)d. The inner sum over i depends on mm only through K and
    r, so it is one prefix sum per residue, and the whole form is O(M)
    array work. Any disagreement with the direct route beyond 1e-9 should
    be resolved in favour of the direct route.
    """
    if d < 1 or m < d:
        raise DomainError(f"need M >= d >= 1, got d={d}, M={m}")
    c = harmonic_number(m)
    mm = np.arange(1, m + 1)
    big_k = -(-mm // d)
    residue = mm - (big_k - 1) * d
    i = np.arange(1, -(-m // d))
    # prefix[r - 1, n] = sum over i <= n of 2 / sqrt(i (r + (i-1) d)).
    prefix = np.zeros((d, i.size + 1))
    k_i = np.arange(1, d + 1)[:, None] + (i - 1) * d
    prefix[:, 1:] = np.cumsum(2.0 / np.sqrt(i * k_i), axis=1)
    partners = prefix[residue - 1, big_k - 1] / np.sqrt(mm * big_k)
    return float(np.sum(1.0 / (mm * big_k)) + np.sum(partners)) / (c * c)


def residual_distance_bound(d: int, m: int) -> float:
    """Upper bound sqrt(2 log_M d) on the catalyst change."""
    if d < 1 or m < max(d, 2):
        raise DomainError(f"need M >= max(d, 2), got d={d}, M={m}")
    if d == 1:
        return 0.0
    return math.sqrt(2.0 * math.log(d) / math.log(m))


def catalyst_residual(d: int, m: int) -> CatalystResidual:
    """Residual catalyst state and its distance to the original.

    The direct partial-trace computation is authoritative; the closed form
    is evaluated alongside for comparison.
    """
    if d < 1:
        raise DomainError(f"local dimension must be >= 1, got {d}")
    if m < d:
        raise DomainError(f"Schmidt rank {m} must be at least the local dimension {d}")
    if d * m > SIDE_DIM_CAP:
        raise CapacityExceeded(f"side dimension {d * m} exceeds cap {SIDE_DIM_CAP}")
    f_exact = residual_fidelity_exact(d, m)
    f_closed = residual_fidelity_closed_form(d, m)
    p_exact = math.sqrt(max(0.0, 1.0 - f_exact))
    p_closed = math.sqrt(max(0.0, 1.0 - f_closed))
    p_bound = residual_distance_bound(d, m) if m >= 2 else 0.0
    return CatalystResidual(
        d=d, rank=m, p_exact=p_exact, p_closed_form=p_closed, p_bound=p_bound
    )
