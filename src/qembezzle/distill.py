"""Single-shot entanglement distillation plans with embezzling catalysts.

Both catalyst families target the output fidelity with the maximally
entangled pair directly (no Haar averaging), so the error budgets here are
on the Uhlmann fidelity itself. The convex-split family is planned by
``convex_split.convex_split_plan`` with ``Task.DISTILL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from .embezzle import (
    EXACT_RESIDUAL_RANK_CAP,
    extraction_fidelity_bound,
    residual_distance_bound,
    residual_fidelity_exact,
)
from .errors import DomainError

# Unused here; the benchmark's tracer (perfbench/worker.py) wraps these names.
from .qmat import max_relative_entropy  # noqa: F401
from .teleport import entanglement_fraction  # noqa: F401


@dataclass(frozen=True)
class DistillPlan:
    """Embezzling-state catalyst and its guarantees for one distillation run."""

    epsilon: float
    predicted_fidelity_lb: float
    predicted_consumption: float
    consumption_is_bound: bool
    schmidt_rank: int

    def __post_init__(self):
        if self.predicted_fidelity_lb < 1.0 - self.epsilon - 1e-12:
            raise DomainError("predicted fidelity lower bound must reach 1 - epsilon")


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
        epsilon=epsilon,
        predicted_fidelity_lb=lb,
        predicted_consumption=consumption,
        consumption_is_bound=is_bound,
        schmidt_rank=rank,
    )
