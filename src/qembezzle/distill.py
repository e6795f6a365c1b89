"""Single-shot entanglement distillation plans with embezzling catalysts.

Both catalyst families target the output fidelity with the maximally
entangled pair directly (no Haar averaging), so the error budgets here are
on the Uhlmann fidelity itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .convex_split import (
    CatalystSearchQuery,
    CatalystSearchResult,
    catalyst_mixture,
    consumption_bound,
    convex_split_marginal,
    min_copies_search,
    _SWEEP_TOL,
)
from .embezzle import (
    EXACT_RESIDUAL_RANK_CAP,
    extraction_fidelity_bound,
    residual_distance_bound,
    residual_fidelity_exact,
)
from .errors import DomainError
from .qmat import DensityMatrix, max_relative_entropy
from .qstates import SeededRng, max_entangled_amplitudes
from .teleport import entanglement_fraction


@dataclass(frozen=True)
class DistillPlan:
    """Catalyst choice and its guarantees for one distillation run."""

    kind: str  # "CS" or "E"
    epsilon: float
    predicted_fidelity_lb: float
    predicted_consumption: float
    consumption_is_bound: bool = False
    p: float | None = None
    copies: int | None = None
    k: float | None = None
    schmidt_rank: int | None = None
    tau: DensityMatrix | None = None
    exact_output_fidelity: float | None = None

    def __post_init__(self):
        if self.kind not in ("CS", "E"):
            raise DomainError(f"plan kind must be CS or E, got {self.kind!r}")
        if self.predicted_fidelity_lb < 1.0 - self.epsilon - 1e-12:
            raise DomainError("predicted fidelity lower bound must reach 1 - epsilon")


def convex_split_plan(rho: DensityMatrix, zeta: DensityMatrix, epsilon: float) -> DistillPlan:
    """Convex-split plan: smallest admissible p, then n = ceil(2^(k+2)/eps).

    The mixture weight keeps the single-copy factor within sqrt(eps)/2 of
    the maximally entangled pair; the reported exact output fidelity is the
    overlap of the closed-form marginal with that pair.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    da, db = rho.require_split()
    if da != db:
        raise DomainError(f"rho must live on a square split, got {da}x{db}")
    d = da
    one_minus_fz = 1.0 - entanglement_fraction(zeta)
    p = max(0.0, 1.0 - epsilon / (4.0 * one_minus_fz))
    tau = catalyst_mixture(zeta, p)
    k = max_relative_entropy(rho, tau, _SWEEP_TOL)
    n = int(math.ceil(2.0 ** (k + 2) / epsilon))
    marginal = convex_split_marginal(rho, tau, n)
    phi = max_entangled_amplitudes(d)
    exact = float(np.real(phi.conj() @ marginal.mat @ phi))
    return DistillPlan(
        kind="CS",
        epsilon=epsilon,
        predicted_fidelity_lb=1.0 - epsilon,
        predicted_consumption=consumption_bound(k, n),
        consumption_is_bound=True,
        p=p,
        copies=n,
        k=k,
        tau=tau,
        exact_output_fidelity=exact,
    )


def distill_schmidt_rank(d: int, epsilon: float) -> int:
    """Rank ceil(d^(1/(1 - sqrt(1 - eps)))) achieving output fidelity 1 - eps."""
    if d < 2:
        raise DomainError(f"local dimension must be >= 2, got {d}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    with mp.workdps(60):
        eps = mp.mpf(epsilon)
        exponent = 1 / (1 - mp.sqrt(1 - eps))
        return int(mp.ceil(mp.power(mp.mpf(d), exponent)))


def embezzle_plan(d: int, epsilon: float) -> DistillPlan:
    """Embezzling-state plan: rank from the distillation sizing formula.

    Consumption is the exact residual distance when the rank is small
    enough to evaluate, else its simple upper bound.
    """
    rank = distill_schmidt_rank(d, epsilon)
    lb = extraction_fidelity_bound(d, rank)
    if rank <= EXACT_RESIDUAL_RANK_CAP:
        consumption = math.sqrt(max(0.0, 1.0 - residual_fidelity_exact(d, rank)))
        is_bound = False
    else:
        consumption = residual_distance_bound(d, rank)
        is_bound = True
    return DistillPlan(
        kind="E",
        epsilon=epsilon,
        predicted_fidelity_lb=lb,
        predicted_consumption=consumption,
        consumption_is_bound=is_bound,
        schmidt_rank=rank,
    )


def distill_copies_search(
    rho: DensityMatrix, epsilon: float, candidate_count: int, rng: SeededRng
) -> CatalystSearchResult:
    """Randomised dimension reduction specialised to the distillation budget.

    Same search as for teleportation, with the slack set by the output-
    fidelity target: sqrt(2^k/n) + sqrt(1 - F(tau)) <= sqrt(eps).
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    query = CatalystSearchQuery(
        rho=rho,
        epsilon=epsilon,
        candidate_count=candidate_count,
        rng=rng,
        eps_slack=math.sqrt(epsilon),
    )
    return min_copies_search(query)
