"""The floor over every convex-split catalyst, and that no searched count falls below it."""

import math

import pytest

from qembezzle import (
    DensityMatrix,
    SeededRng,
    catalyst_mixture,
    entanglement_fraction,
    max_relative_entropy,
    maximally_mixed,
    min_copies,
    optimal_copies,
    random_density,
    random_flat_spectrum,
    random_full_rank,
)
from qembezzle.convex_split import COPIES_CAP

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


class TestOptimalCopies:
    @pytest.mark.parametrize("seed", range(4))
    def test_reached_by_rho_as_zeta(self, seed):
        rho = random_density(4, SeededRng(1200 + seed), split=(2, 2))
        for eps in (0.02, 0.1, 0.3):
            n_opt, t_star, p_star = optimal_copies(rho, math.sqrt(eps * 3 / 2))
            assert min_copies(rho, rho, eps).n_min == n_opt
            # tau* = p* phi+ + (1 - p*) rho has 2^D_max(rho || tau*) = t*.
            k = max_relative_entropy(rho, catalyst_mixture(rho, p_star))
            assert abs(2.0**k - t_star) <= 1e-9 * t_star

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        d=st.sampled_from([2, 3]),
        rho_seed=st.integers(0, 2**32 - 1),
        zeta_seed=st.integers(0, 2**32 - 1),
        zeta_kind=st.sampled_from(["mixed", "flat", "full"]),
        eps=st.floats(0.01, 0.6),
    )
    def test_no_candidate_below_the_floor(self, d, rho_seed, zeta_seed, zeta_kind, eps):
        rho = random_density(d * d, SeededRng(rho_seed), split=(d, d))
        zeta = {
            "mixed": lambda: maximally_mixed(d * d, split=(d, d)),
            "flat": lambda: DensityMatrix(
                random_flat_spectrum(d * d, [SeededRng(zeta_seed)])[0], d, d
            ),
            "full": lambda: random_full_rank(d * d, SeededRng(zeta_seed), split=(d, d)),
        }[zeta_kind]()
        eps_slack = math.sqrt(eps * (d + 1) / d)
        budget = min_copies(rho, zeta, eps)
        _, t_star, _ = optimal_copies(rho, eps_slack)
        c = 1 - entanglement_fraction(rho)
        floor = t_star / (eps_slack - math.sqrt(c / t_star)) ** 2
        assert budget.certified
        assert budget.n_min >= min(COPIES_CAP, math.ceil(floor * (1 - 1e-9)))
