"""Correlated-catalyst bound and the qutrit region map."""

import math

import numpy as np
import pytest

from qembezzle import (
    DomainError,
    RegionLabel,
    correlated_fidelity_bound,
    pure_average_fidelity,
    qutrit_region_map,
    shannon_entropy,
)
from qembezzle.correlated import _entropy_capped_max, embezzling_rank_certifies


def _scalar_two_level_entropy(a, r, dd):
    b = (1.0 - r * a) / (dd - r)
    total = 0.0
    if a > 0:
        total -= r * a * math.log2(a)
    if b > 0:
        total -= (dd - r) * b * math.log2(b)
    return total


def _scalar_capped_max(d, budget, slack=1e-12):
    """One budget at a time: face-uniform points, then bisection on each two-level family."""
    best = 1.0
    for dd in range(2, d + 1):
        if math.log2(dd) <= budget + slack:
            best = max(best, float(dd))
            continue
        for r in range(1, dd):
            if math.log2(r) > budget + slack:
                continue
            lo, hi = 1.0 / dd, 1.0 / r - 1e-16
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if _scalar_two_level_entropy(mid, r, dd) > budget:
                    lo = mid
                else:
                    hi = mid
            b = (1.0 - r * hi) / (dd - r)
            if b < 1e-12 or _scalar_two_level_entropy(hi, r, dd) > budget + slack:
                continue
            best = max(best, (r * math.sqrt(hi) + (dd - r) * math.sqrt(b)) ** 2)
    return best


def _qutrit_grid(resolution):
    i, j = np.meshgrid(np.arange(resolution + 1), np.arange(resolution + 1), indexing="ij")
    keep = i + j <= resolution
    i, j = i[keep], j[keep]
    return np.stack([i, j, resolution - i - j], axis=1) / resolution


def _entropies(rows):
    return np.array([-sum(x * math.log2(x) for x in row if x > 0) for row in rows])


class TestShannonEntropy:
    def test_deterministic_distribution(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_uniform(self):
        assert abs(shannon_entropy([1 / 3] * 3) - np.log2(3)) < 1e-12

    def test_concavity_on_mixtures(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            p = gen.dirichlet([1, 1, 1])
            q = gen.dirichlet([1, 1, 1])
            lam = float(gen.uniform())
            mixed = lam * p + (1 - lam) * q
            assert (
                shannon_entropy(mixed)
                >= lam * shannon_entropy(p) + (1 - lam) * shannon_entropy(q) - 1e-12
            )


class TestPureAverageFidelity:
    def test_uniform_is_perfect(self):
        assert abs(pure_average_fidelity([1 / 3] * 3, 3) - 1.0) < 1e-12

    def test_product_state(self):
        assert abs(pure_average_fidelity([1.0, 0.0], 2) - 2 / 3) < 1e-12

    def test_permutation_invariance(self):
        gen = np.random.default_rng(1)
        for _ in range(20):
            p = gen.dirichlet([1, 1, 1])
            base = pure_average_fidelity(p, 3)
            assert abs(pure_average_fidelity(p[::-1], 3) - base) < 1e-12

    def test_length_check(self):
        with pytest.raises(DomainError):
            pure_average_fidelity([0.5, 0.5], 3)


class TestCorrelatedBound:
    def test_uniform_input(self):
        assert abs(correlated_fidelity_bound([1 / 3] * 3, 3) - 1.0) < 1e-9

    def test_qubit_product_state(self):
        # Zero entropy admits only product targets.
        assert abs(correlated_fidelity_bound([1.0, 0.0], 2) - 2 / 3) < 1e-9

    def test_qutrit_corner(self):
        assert abs(correlated_fidelity_bound([1.0, 0.0, 0.0], 3) - 0.5) < 1e-9

    def test_never_below_unassisted(self):
        gen = np.random.default_rng(2)
        for _ in range(30):
            p = gen.dirichlet([1, 1, 1])
            assert correlated_fidelity_bound(p, 3) >= pure_average_fidelity(p, 3) - 1e-9

    def test_qubit_bound_equals_unassisted(self):
        # In dimension two a fixed entropy pins the Schmidt pair, so the
        # baseline cannot improve on the input.
        gen = np.random.default_rng(3)
        for _ in range(10):
            q = float(gen.uniform(0.5, 1.0))
            lam = [q, 1 - q]
            assert abs(
                correlated_fidelity_bound(lam, 2) - pure_average_fidelity(lam, 2)
            ) < 1e-9

    def test_exact_bound_dominates_fine_grid(self):
        pts = _qutrit_grid(1500)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = -np.sum(np.where(pts > 0, pts * np.log2(pts), 0.0), axis=1)
        order = np.argsort(ent)
        ent_sorted = ent[order]
        best = np.maximum.accumulate((np.sum(np.sqrt(pts), axis=1) ** 2)[order])
        gen = np.random.default_rng(5)
        for _ in range(8):
            p = gen.dirichlet([1, 1, 1])
            budget = -float(np.sum(p * np.log2(p)))
            k = np.searchsorted(ent_sorted, budget + 1e-12, side="right")
            grid_max = (best[k - 1] + 1.0) / 4.0
            exact = correlated_fidelity_bound(p, 3)
            assert exact >= grid_max - 1e-12
            assert exact - grid_max < 1e-3

    def test_monotone_under_budget_relaxation(self):
        budgets = np.linspace(0.0, np.log2(3), 40)
        values = [_entropy_capped_max(3, b) for b in budgets]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestLockstepSolver:
    def test_matches_scalar_bisection_on_qutrit_map_budgets(self):
        budgets = _entropies(_qutrit_grid(200))
        got = _entropy_capped_max(3, budgets)
        want = np.array([_scalar_capped_max(3, b) for b in budgets])
        assert got.shape == budgets.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_scalar_bisection_on_random_budgets(self, d):
        gen = np.random.default_rng(d)
        budgets = np.concatenate(
            [gen.uniform(0.0, math.log2(d), 300), [0.0, 1.0, math.log2(d), math.log2(d) + 0.5]]
        )
        got = _entropy_capped_max(d, budgets)
        want = np.array([_scalar_capped_max(d, b) for b in budgets])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_scalar_budget_keeps_its_shape(self):
        assert _entropy_capped_max(3, 0.0).shape == ()
        assert float(_entropy_capped_max(3, math.log2(3))) == 3.0


@pytest.fixture(scope="module")
def region():
    return qutrit_region_map(60)


class TestRegionMap:

    def test_all_three_correlated_labels_present(self, region):
        assert region.labels_correlated() == {
            RegionLabel.ALREADY_ABOVE,
            RegionLabel.CORRELATED_BOOSTABLE,
            RegionLabel.NOT_GUARANTEED,
        }

    def test_embezzling_panel_never_stuck(self, region):
        assert RegionLabel.NOT_GUARANTEED not in region.labels_embezzling()

    def test_uniform_point_above(self, region):
        centre = min(region.points, key=lambda pt: np.var(pt.weights))
        assert centre.label_correlated == RegionLabel.ALREADY_ABOVE
        assert centre.label_embezzling == RegionLabel.ALREADY_ABOVE

    def test_corners_not_guaranteed(self, region):
        corners = [pt for pt in region.points if max(pt.weights) == 1.0]
        assert len(corners) == 3
        for pt in corners:
            assert pt.label_correlated == RegionLabel.NOT_GUARANTEED
            assert pt.label_embezzling == RegionLabel.EMBEZZLING_BOOSTABLE
            assert abs(pt.fidelity - 0.5) < 1e-12
            assert abs(pt.correlated_bound - 0.5) < 1e-9

    def test_boostable_points_carry_certifying_rank(self, region):
        below = [pt for pt in region.points if pt.label_embezzling == RegionLabel.EMBEZZLING_BOOSTABLE]
        assert below
        ranks = {pt.rank_required for pt in below}
        assert all(0 < r < 2**62 for r in ranks)
        for r in ranks:
            assert embezzling_rank_certifies(3, r, region.threshold)

    def test_bound_never_below_fidelity(self, region):
        for pt in region.points:
            assert pt.correlated_bound >= pt.fidelity - 1e-12

    def test_bound_matches_standalone_op(self, region):
        for pt in list(region.points)[::431]:
            full = correlated_fidelity_bound(np.array(pt.weights), 3)
            assert abs(full - pt.correlated_bound) < 1e-9

    def test_resolution_floor(self):
        with pytest.raises(DomainError):
            qutrit_region_map(10)
