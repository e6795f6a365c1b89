"""Single-shot distillation plans for both catalyst families."""

import math

import numpy as np
import pytest

from qembezzle import (
    DistillPlan,
    DomainError,
    SeededRng,
    convex_split_plan,
    distill_copies_search,
    distill_schmidt_rank,
    embezzle_plan,
    extraction_fidelity_bound,
    load_fixture,
    maximally_mixed,
    max_entangled,
    purified_distance,
    random_density,
)

I4 = maximally_mixed(4, split=(2, 2))


class TestConvexSplitPlan:
    def test_mixing_weight_constraint(self):
        rho = random_density(4, SeededRng(1), split=(2, 2))
        plan = convex_split_plan(rho, I4, 0.2)
        assert plan.p >= 1 - 0.2 / 3 - 1e-12
        # One copy of the catalyst factor sits within sqrt(eps)/2 of phi+.
        dist = purified_distance(plan.tau, max_entangled(2).density())
        assert dist <= math.sqrt(0.2) / 2 + 1e-9

    def test_copy_count_arithmetic(self):
        # n = ceil(2^(k+2)/eps) pinned on a synthetic divergence value.
        rho = random_density(4, SeededRng(2), split=(2, 2))
        plan = convex_split_plan(rho, I4, 0.2)
        assert plan.copies == math.ceil(2.0 ** (plan.k + 2) / 0.2)

    def test_consumption_within_budget(self):
        rho = random_density(4, SeededRng(3), split=(2, 2))
        for eps in (0.1, 0.2, 0.3):
            plan = convex_split_plan(rho, I4, eps)
            assert plan.predicted_consumption <= math.sqrt(eps) / 2 + 1e-12

    def test_exact_output_meets_target(self):
        for seed in range(10):
            for d in (2, 3):
                rho = random_density(d * d, SeededRng(100 + seed), split=(d, d))
                zeta = maximally_mixed(d * d, split=(d, d))
                for eps in (0.1, 0.2, 0.3):
                    plan = convex_split_plan(rho, zeta, eps)
                    assert plan.exact_output_fidelity >= 1 - eps

    def test_full_rank_zeta_always_feasible(self):
        rho = random_density(4, SeededRng(4), split=(2, 2))
        plan = convex_split_plan(rho, I4, 0.1)
        assert math.isfinite(plan.k)

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            convex_split_plan(random_density(4, SeededRng(5), split=(2, 2)), I4, 0.0)


class TestEmbezzlePlan:
    def test_rank_formula(self):
        assert distill_schmidt_rank(2, 0.19) == 1024

    def test_limiting_rank(self):
        # Loose budgets need barely more than the bare dimension.
        assert distill_schmidt_rank(2, 0.999) <= 3
        ranks = [distill_schmidt_rank(2, eps) for eps in np.linspace(0.05, 0.95, 12)]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_bound_meets_target_on_grid(self):
        for d in (2, 3):
            for eps in np.linspace(0.05, 0.5, 10):
                rank = distill_schmidt_rank(d, float(eps))
                assert extraction_fidelity_bound(d, rank) >= 1 - eps - 1e-12

    def test_plan_fields(self):
        plan = embezzle_plan(2, 0.19)
        assert plan.kind == "E"
        assert plan.schmidt_rank == 1024
        assert plan.predicted_fidelity_lb >= 0.81
        assert not plan.consumption_is_bound
        assert 0.0 < plan.predicted_consumption < 1.0

    def test_plan_invariant_enforced(self):
        with pytest.raises(DomainError):
            DistillPlan(kind="E", epsilon=0.1, predicted_fidelity_lb=0.5, predicted_consumption=0.1)


class TestDistillSearch:
    def test_benchmark_dominates(self):
        for table, row in (("III", 0), ("III", 1)):
            rho = load_fixture(table, row)
            res = distill_copies_search(rho, 0.2, 30, SeededRng(6))
            assert res.n_best <= res.n_mixed

    def test_deterministic(self):
        rho = load_fixture("III", 0)
        a = distill_copies_search(rho, 0.2, 10, SeededRng(7))
        b = distill_copies_search(rho, 0.2, 10, SeededRng(7))
        assert a.n_best == b.n_best and a.n_mixed == b.n_mixed

    @pytest.mark.parametrize(
        "table, counts",
        [
            ("III", {0.1: (1002, 1197), 0.2: (253, 300), 0.3: (113, 134)}),
            ("reference", {0.1: (1031, 1217), 0.2: (258, 306), 0.3: (115, 137)}),
        ],
    )
    def test_pinned_counts(self, table, counts):
        # (n_best, n_mixed) with the sqrt(eps) slack, 30 candidates, seed 7.
        rho = load_fixture(table, 0)
        for eps, want in counts.items():
            res = distill_copies_search(rho, eps, 30, SeededRng(7))
            assert (res.n_best, res.n_mixed) == want, eps
