"""Correlated-catalyst baseline and the qutrit region map.

The baseline bound maximises the teleportation fidelity over pure targets
whose reduced entropy does not exceed the input's, which is the guarantee
an arbitrarily large correlated catalyst provides. Coordinates are squared
Schmidt coefficients on the probability simplex, one point per state up to
local unitaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .embezzle import extraction_fidelity_bound, schmidt_rank_for_fidelity
from .errors import DomainError
from .qstates import SchmidtVector

_ENTROPY_SLACK = 1e-12


class RegionLabel(str, Enum):
    ALREADY_ABOVE = "already_above"
    CORRELATED_BOOSTABLE = "correlated_boostable"
    NOT_GUARANTEED = "not_guaranteed"
    EMBEZZLING_BOOSTABLE = "embezzling_boostable"


def _as_probs(probs) -> np.ndarray:
    p = probs.probs if isinstance(probs, SchmidtVector) else np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise DomainError("probability vector must be a nonempty 1-D array")
    if np.any(p < -1e-12) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise DomainError("probabilities must be nonnegative and sum to 1")
    return np.clip(p, 0.0, None)


def shannon_entropy(probs) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    p = _as_probs(probs)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def pure_state_fraction(probs) -> float:
    """Entanglement fraction of a pure state after optimal local alignment."""
    p = _as_probs(probs)
    s = float(np.sum(np.sqrt(p)))
    return s * s / p.size


def pure_average_fidelity(probs, d: int) -> float:
    """Average teleportation fidelity of a Schmidt-diagonal pure resource."""
    p = _as_probs(probs)
    if p.size != d:
        raise DomainError(f"expected a length-{d} vector, got {p.size}")
    s = float(np.sum(np.sqrt(p)))
    return (s * s + 1.0) / (d + 1.0)


def _entropy_rows(rows: np.ndarray) -> np.ndarray:
    safe = np.where(rows > 0, rows, 1.0)
    return -np.sum(rows * np.log2(safe), axis=1)


def _simplex_grid(resolution: int) -> np.ndarray:
    """All qutrit compositions of ``resolution``, as probability rows."""
    i, j = np.meshgrid(np.arange(resolution + 1), np.arange(resolution + 1), indexing="ij")
    mask = i + j <= resolution
    i, j = i[mask], j[mask]
    return np.stack([i, j, resolution - i - j], axis=1) / resolution


def _two_level_entropy(a: np.ndarray, r: int, dd: int) -> np.ndarray:
    """Entropy of (a x r, b x (dd - r)) with b filling the remaining mass, for a > 0."""
    b = (1.0 - r * a) / (dd - r)
    return -(r * a * np.log2(a)) - (dd - r) * b * np.log2(np.where(b > 0, b, 1.0))


def _entropy_capped_max(d: int, budget) -> np.ndarray:
    """Exact maximum of (sum sqrt mu)^2 subject to S(mu) <= budget, per budget.

    At a maximiser the strictly positive coordinates take at most two
    distinct values, so it suffices to scan, on every face of the simplex,
    the one-dimensional two-level families and solve S = budget on each by
    bisection (entropy decreases monotonically away from the face-uniform
    point along these families). Every budget of the array is bisected in
    lockstep, one family at a time; the result has the budget's shape.
    """
    budget = np.asarray(budget, dtype=float)
    caps = budget.ravel()
    best = np.ones_like(caps)  # a deterministic corner is always feasible
    for dd in range(2, d + 1):
        uniform = math.log2(dd) <= caps + _ENTROPY_SLACK
        best[uniform] = np.maximum(best[uniform], dd)  # face-uniform point
        for r in range(1, dd):
            idx = np.flatnonzero(~uniform & (math.log2(r) <= caps + _ENTROPY_SLACK))
            cap = caps[idx]
            lo, hi = np.full(idx.size, 1.0 / dd), np.full(idx.size, 1.0 / r - 1e-16)
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                above = _two_level_entropy(mid, r, dd) > cap
                lo = np.where(above, mid, lo)
                hi = np.where(above, hi, mid)
            b = (1.0 - r * hi) / (dd - r)
            # A vanishing second level duplicates a lower-dimensional face.
            ok = (b >= 1e-12) & (_two_level_entropy(hi, r, dd) <= cap + _ENTROPY_SLACK)
            val = (r * np.sqrt(hi[ok]) + (dd - r) * np.sqrt(b[ok])) ** 2
            best[idx[ok]] = np.maximum(best[idx[ok]], val)
    return best.reshape(budget.shape)


def correlated_fidelity_bound(probs, d: int) -> float:
    """Best average fidelity certified for an unbounded correlated catalyst.

    Maximises the pure-state fidelity over same-dimension targets whose
    Shannon entropy stays within the input's, exactly, by the two-level
    family solver. The input itself is always feasible, so the result never
    falls below its unassisted fidelity.
    """
    p = _as_probs(probs)
    if p.size != d:
        raise DomainError(f"expected a length-{d} vector, got {p.size}")
    s = float(np.sum(np.sqrt(p)))
    best = max(s * s, float(_entropy_capped_max(d, shannon_entropy(p))))
    return (best + 1.0) / (d + 1.0)


@dataclass(frozen=True)
class RegionPoint:
    weights: tuple[float, ...]
    fidelity: float
    correlated_bound: float
    label_correlated: RegionLabel
    label_embezzling: RegionLabel
    rank_required: int


@dataclass(frozen=True)
class RegionMap:
    resolution: int
    threshold: float
    epsilon_margin: float
    points: tuple[RegionPoint, ...]

    def labels_correlated(self) -> set[RegionLabel]:
        return {pt.label_correlated for pt in self.points}

    def labels_embezzling(self) -> set[RegionLabel]:
        return {pt.label_embezzling for pt in self.points}


def qutrit_region_map(
    resolution: int,
    threshold: float = 0.9,
    epsilon_margin: float = 0.01,
) -> RegionMap:
    """Label every qutrit Schmidt simplex point for both catalyst families.

    Correlated panel: already above the threshold, boostable per the
    entropy-constrained bound (solved exactly for the whole grid at once
    by the lockstep two-level family solver), or not guaranteed. Embezzling panel:
    already above or boostable, with the catalyst rank that certifies the
    threshold plus the margin attached to each boostable point.
    """
    d = 3
    if resolution < 50:
        raise DomainError(f"resolution must be >= 50, got {resolution}")
    if not 0.0 < threshold < 1.0:
        raise DomainError(f"threshold must lie in (0, 1), got {threshold}")
    eps = 1.0 - threshold - epsilon_margin
    if eps <= 0:
        raise DomainError("epsilon margin leaves no room below the threshold")
    rank = schmidt_rank_for_fidelity(d, eps)

    pts = _simplex_grid(resolution)
    f = (np.sum(np.sqrt(pts), axis=1) ** 2 + 1.0) / (d + 1.0)
    bound = np.maximum((_entropy_capped_max(d, _entropy_rows(pts)) + 1.0) / (d + 1.0), f)
    points = []
    for row, f_val, b_val in zip(pts.tolist(), f.tolist(), bound.tolist()):
        if f_val >= threshold:
            label_c = label_e = RegionLabel.ALREADY_ABOVE
            need = 0
        else:
            label_c = (
                RegionLabel.CORRELATED_BOOSTABLE
                if b_val >= threshold
                else RegionLabel.NOT_GUARANTEED
            )
            label_e = RegionLabel.EMBEZZLING_BOOSTABLE
            need = rank
        points.append(RegionPoint(tuple(row), f_val, b_val, label_c, label_e, need))
    return RegionMap(
        resolution=resolution,
        threshold=threshold,
        epsilon_margin=epsilon_margin,
        points=tuple(points),
    )


def embezzling_rank_certifies(d: int, rank: int, threshold: float) -> bool:
    """Whether the extraction bound at this rank implies the fidelity threshold."""
    fraction = extraction_fidelity_bound(d, rank)
    return (fraction * d + 1.0) / (d + 1.0) >= threshold
