"""Standard qudit teleportation: Bell measurement, corrections, and fidelities.

The measurement basis is the clock-and-shift (Weyl) construction
``(I ⊗ X^a Z^b)|phi+>`` with matching transposed-Weyl corrections, the
canonical qudit choice. ``teleport_channel`` is the structural reference
implementation; ``average_fidelity_mc`` uses an algebraically identical
vectorised path for Haar-averaged sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .qmat import DensityMatrix, _frozen
from .qstates import PureStateVector, SeededRng, max_entangled_amplitudes


def weyl_shift(d: int) -> np.ndarray:
    """Cyclic shift X with X|j> = |j+1 mod d>."""
    x = np.zeros((d, d), dtype=complex)
    x[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return x


def weyl_clock(d: int) -> np.ndarray:
    """Phase operator Z with Z|j> = exp(2 pi i j / d)|j>."""
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


def weyl_operators(d: int) -> np.ndarray:
    """All d^2 unitaries X^a Z^b, indexed by outcome o = a*d + b."""
    x = weyl_shift(d)
    z = weyl_clock(d)
    x_pows = [np.linalg.matrix_power(x, a) for a in range(d)]
    z_pows = [np.linalg.matrix_power(z, b) for b in range(d)]
    return np.stack([x_pows[a] @ z_pows[b] for a in range(d) for b in range(d)])


@dataclass(frozen=True)
class TeleportOutcomeTable:
    """Bell measurement data: basis states, projectors, and corrections."""

    d: int
    basis_states: np.ndarray  # (d^2, d^2) rows are the Bell vectors on R x A
    projectors: np.ndarray  # (d^2, d^2, d^2)
    corrections: np.ndarray  # (d^2, d, d) unitaries applied on Bob's side

    def __post_init__(self):
        object.__setattr__(self, "basis_states", _frozen(self.basis_states))
        object.__setattr__(self, "projectors", _frozen(self.projectors))
        object.__setattr__(self, "corrections", _frozen(self.corrections))


def bell_basis(d: int) -> TeleportOutcomeTable:
    """Generalised Bell basis and the corrections that undo each outcome."""
    if d < 2:
        raise DomainError(f"Bell basis needs local dimension >= 2, got {d}")
    weyls = weyl_operators(d)
    # (I x W_o)|phi+> has amplitude (1/sqrt d) W_o[a, r] at ket |r, a>.
    states = np.transpose(weyls, (0, 2, 1)).reshape(d * d, d * d) / np.sqrt(d)
    projectors = np.einsum("oi,oj->oij", states, states.conj())
    corrections = np.transpose(weyls, (0, 2, 1)).copy()
    return TeleportOutcomeTable(d, states, projectors, corrections)


def entanglement_fraction(rho: DensityMatrix) -> float:
    """Overlap of a bipartite state with the maximally entangled state."""
    da, db = rho.require_split()
    if da != db:
        raise ShapeError(f"entanglement fraction needs a square split, got {da}x{db}")
    phi = max_entangled_amplitudes(da)
    val = float(np.real(phi.conj() @ rho.mat @ phi))
    return min(max(val, 0.0), 1.0)


def average_fidelity_from_fraction(fraction: float, d: int) -> float:
    """Haar-average teleportation fidelity (F d + 1) / (d + 1)."""
    if not 0.0 <= fraction <= 1.0 + 1e-12:
        raise DomainError(f"entanglement fraction must lie in [0, 1], got {fraction}")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    return (min(fraction, 1.0) * d + 1.0) / (d + 1.0)


def teleport_channel(resource: DensityMatrix, message: PureStateVector) -> DensityMatrix:
    """Bob's output state after the standard protocol on one message.

    Sums correction-conjugated measurement blocks over all d^2 outcomes;
    trace preserving by completeness of the Bell projectors.
    """
    da, db = resource.require_split()
    if da != db:
        raise ShapeError(f"resource split must be square, got {da}x{db}")
    d = da
    if message.dim != d:
        raise ShapeError(f"message dim {message.dim} does not match resource local dim {d}")
    table = bell_basis(d)
    bell = table.basis_states.reshape(d * d, d, d)  # (o, r, a)
    rho4 = resource.mat.reshape(d, d, d, d)  # (i, j, i', k)
    # Collapse the message against each Bell bra on the R x A registers.
    collapsed = np.einsum("ori,r->oi", bell.conj(), message.amplitudes)
    blocks = np.einsum("oi,ijxk,ox->ojk", collapsed, rho4, collapsed.conj())
    out = np.einsum("oaj,ojk,obk->ab", table.corrections, blocks, table.corrections.conj())
    out = (out + out.conj().T) / 2.0
    return DensityMatrix._trusted(out)


def message_fidelity(resource: DensityMatrix, message: PureStateVector) -> float:
    """Fidelity of the teleported output with the original message."""
    out = teleport_channel(resource, message)
    return float(np.real(message.amplitudes.conj() @ out.mat @ message.amplitudes))


def _batched_message_fidelities(resource: DensityMatrix, messages: np.ndarray) -> np.ndarray:
    """Teleportation fidelity for a batch of messages, vectorised.

    Algebra: with collapsed Bell amplitudes c and corrected bras w, the
    per-message fidelity is sum_o u_o† rho u_o for u_o = conj(c_o) ⊗ w_o.
    """
    d = resource.split_a
    table = bell_basis(d)
    bell = table.basis_states.reshape(d * d, d, d)
    c = np.einsum("ori,sr->soi", bell.conj(), messages)
    w = np.einsum("okj,sk->soj", table.corrections.conj(), messages)
    u = np.einsum("soi,soj->soij", c.conj(), w).reshape(messages.shape[0], d * d, d * d)
    vals = np.einsum("soa,ab,sob->s", u.conj(), resource.mat, u)
    return np.real(vals)


def average_fidelity_mc(
    resource: DensityMatrix, samples: int, rng: SeededRng
) -> tuple[float, float]:
    """Monte Carlo estimate of the Haar-average teleportation fidelity.

    Returns the sample mean and its standard error over ``samples``
    Haar-random messages.
    """
    if samples < 100:
        raise DomainError(f"need at least 100 samples, got {samples}")
    da, db = resource.require_split()
    if da != db:
        raise ShapeError(f"resource split must be square, got {da}x{db}")
    gen = rng.generator()
    z = gen.standard_normal((samples, da)) + 1j * gen.standard_normal((samples, da))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    fids = _batched_message_fidelities(resource, z)
    mean = float(np.mean(fids))
    stderr = float(np.std(fids, ddof=1) / np.sqrt(samples))
    return mean, stderr
