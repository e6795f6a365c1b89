"""Embezzling states: construction, rearrangement, extraction, residuals."""

import dataclasses
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from qembezzle import (
    CapacityExceeded,
    DomainError,
    SeededRng,
    catalyst_residual,
    embezzle_protocol,
    embezzling_state,
    extraction_fidelity_bound,
    max_entangled,
    partial_trace,
    product_preimage_state,
    purified_distance,
    random_density,
    rearrangement_permutation,
    schmidt_rank_for_fidelity,
    tensor_product,
    uhlmann_fidelity,
)
from qembezzle.embezzle import (
    _extraction_overlap,
    residual_distance_bound,
    residual_fidelity_closed_form,
    residual_fidelity_exact,
)


class TestEmbezzlingState:
    def test_rank_one_is_deterministic_ket(self):
        state = embezzling_state(1)
        np.testing.assert_allclose(state.amplitudes, [1.0])
        assert abs(state.harmonic_norm - 1.0) < 1e-15

    def test_rank_two_amplitudes(self):
        state = embezzling_state(2)
        np.testing.assert_allclose(
            state.amplitudes, [math.sqrt(2 / 3), math.sqrt(1 / 3)], atol=1e-12
        )

    def test_norm_up_to_large_rank(self):
        for m in (16, 1024, 2**16):
            state = embezzling_state(m)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
            assert np.all(np.diff(state.amplitudes) < 0)

    def test_harmonic_norm(self):
        state = embezzling_state(64)
        assert abs(state.harmonic_norm - sum(1 / j for j in range(1, 65))) < 1e-12

    def test_dense_vector_cap(self):
        with pytest.raises(CapacityExceeded):
            embezzling_state(1024).vector()


class TestProductPreimage:
    def test_collapses_to_catalyst_for_trivial_dimension(self):
        om = product_preimage_state(1, 6)
        np.testing.assert_allclose(om.coefficients[0], embezzling_state(6).amplitudes)

    def test_dictionary_order(self):
        om = product_preimage_state(2, 4)
        flat = om.coefficients.ravel()
        assert np.all(np.diff(flat) <= 1e-15)

    def test_first_row_bound(self):
        for d, m in ((2, 8), (3, 12)):
            om = product_preimage_state(d, m)
            cat = embezzling_state(m)
            assert np.all(om.coefficients[0] <= cat.amplitudes + 1e-15)

    def test_unit_norm_sweep(self):
        for d in (2, 3):
            for m in range(4, 65):
                if m < d:
                    continue
                om = product_preimage_state(d, m)
                total = float(np.sum(om.coefficients**2))
                assert abs(total - 1.0) < 1e-12

    def test_rank_must_cover_dimension(self):
        with pytest.raises(DomainError):
            product_preimage_state(3, 2)


class TestRearrangement:
    def test_identity_for_trivial_dimension(self):
        perm = rearrangement_permutation(1, 5)
        for j in range(1, 6):
            assert perm.pair(1, j) == (1, j)

    def test_reference_index_example(self):
        # d=2, M=3: flat position 6 lands on (k, l) = (2, 3).
        perm = rearrangement_permutation(2, 3)
        assert perm.pair(2, 3) == (2, 3)

    def test_bijection(self):
        for d, m in ((2, 4), (2, 8), (3, 9), (3, 21)):
            assert rearrangement_permutation(d, m).is_bijection()

    def test_dense_matrix_is_permutation_unitary(self):
        perm = rearrangement_permutation(2, 5)
        u = perm.matrix()
        assert np.max(np.abs(u @ u.T - np.eye(10))) < 1e-15
        assert np.all(np.sum(u, axis=0) == 1)

    def test_maps_preimage_to_product_exactly(self):
        for d, m in ((2, 4), (2, 8), (3, 9)):
            perm = rearrangement_permutation(d, m)
            om = product_preimage_state(d, m)
            moved = perm.apply_pairwise(om.coefficients)
            want = np.outer(np.full(d, 1 / math.sqrt(d)), embezzling_state(m).amplitudes)
            assert np.max(np.abs(moved - want)) < 1e-12


class TestProtocol:
    def test_fidelity_at_minimal_rank(self):
        rho = random_density(4, SeededRng(0), split=(2, 2))
        res = embezzle_protocol(rho, 2)
        assert res.fidelity_exact >= 0.0
        assert extraction_fidelity_bound(2, 2) == 0.0

    def test_reference_rank_sixteen(self):
        rho = random_density(4, SeededRng(1), split=(2, 2))
        res = embezzle_protocol(rho, 16)
        assert res.fidelity_exact >= (3 / 4) ** 2

    def test_universality_bitwise(self):
        a = embezzle_protocol(random_density(4, SeededRng(2), split=(2, 2)), 8)
        b = embezzle_protocol(random_density(4, SeededRng(3), split=(2, 2)), 8)
        assert a.fidelity_exact == b.fidelity_exact
        np.testing.assert_array_equal(a.joint.mat, b.joint.mat)

    def test_joint_matches_overlap_fidelity(self):
        rho = random_density(4, SeededRng(4), split=(2, 2))
        res = embezzle_protocol(rho, 16)
        target = tensor_product(max_entangled(2).density(), embezzling_state(16).density())
        assert abs(uhlmann_fidelity(res.joint, target) - res.fidelity_exact) < 1e-9

    def test_fidelity_monotone_in_rank(self):
        prev = 0.0
        for e in range(1, 11):
            f = _extraction_overlap(2, 2**e) ** 2
            assert f >= prev - 1e-12
            prev = f

    def test_bound_chain(self):
        for d in (2, 3):
            for e in range(2, 11):
                m = 2**e
                if m < d:
                    continue
                assert _extraction_overlap(d, m) ** 2 >= extraction_fidelity_bound(d, m) - 1e-12

    def test_bound_examples(self):
        assert extraction_fidelity_bound(2, 2) == 0.0
        assert abs(extraction_fidelity_bound(2, 256) - (7 / 8) ** 2) < 1e-12

    def test_side_cap(self):
        rho = random_density(4, SeededRng(5), split=(2, 2))
        with pytest.raises(CapacityExceeded):
            embezzle_protocol(rho, 4097)


class TestRankSizing:
    def test_reference_value(self):
        assert schmidt_rank_for_fidelity(2, 0.15) == 328

    def test_monotone_nonincreasing_in_epsilon(self):
        ranks = [schmidt_rank_for_fidelity(2, eps) for eps in np.linspace(0.05, 0.6, 15)]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_end_to_end_guarantee(self):
        from qembezzle import average_fidelity_from_fraction

        pairs = [(d, eps) for d in (2, 3, 4, 5) for eps in (0.05, 0.1, 0.2, 0.3, 0.4)]
        assert len(pairs) >= 20
        for d, eps in pairs:
            m = schmidt_rank_for_fidelity(d, eps)
            frac = extraction_fidelity_bound(d, m)
            assert average_fidelity_from_fraction(frac, d) >= 1 - eps - 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            schmidt_rank_for_fidelity(2, 0.7)  # eps (d+1)/d >= 1


class TestResidual:
    def test_reference_bound_value(self):
        res = catalyst_residual(2, 16)
        assert abs(res.p_bound - math.sqrt(0.5)) < 1e-12
        assert res.p_exact <= res.p_bound

    def test_direct_vs_closed_form_sweep(self):
        for d in (2, 3):
            for m in range(4, 65):
                res = catalyst_residual(d, m)
                assert abs(res.p_exact - res.p_closed_form) <= 1e-9, (d, m)
                assert res.p_exact <= res.p_bound + 1e-9, (d, m)

    def test_against_bruteforce_partial_trace(self):
        for d, m in ((2, 4), (2, 8), (3, 6)):
            rho = random_density(d * d, SeededRng(6), split=(d, d))
            joint = embezzle_protocol(rho, m).joint
            xi_direct = partial_trace(joint, "B")
            res = catalyst_residual(d, m)
            np.testing.assert_allclose(xi_direct.mat, res.xi_dense().mat, atol=1e-12)
            p_generic = purified_distance(xi_direct, embezzling_state(m).density())
            assert abs(p_generic - res.p_exact) < 1e-8

    def test_residual_universal(self):
        r1 = catalyst_residual(2, 12)
        r2 = catalyst_residual(2, 12)
        np.testing.assert_array_equal(r1.block, r2.block)

    def test_grouped_and_quadratic_forms_agree(self):
        for d, m in ((2, 32), (3, 40)):
            res = catalyst_residual(d, m)
            cat = embezzling_state(m)
            quad = float(cat.amplitudes @ res.block @ cat.amplitudes)
            assert abs(quad - residual_fidelity_exact(d, m)) < 1e-12
            assert abs(quad - residual_fidelity_closed_form(d, m)) < 1e-10

    def test_block_is_built_on_access(self):
        res = catalyst_residual(2, 12)
        assert "block" not in {f.name for f in dataclasses.fields(res)}
        assert res.block.shape == (12, 12)
        assert not res.block.flags.writeable

    def test_exact_form_memory_is_flat(self):
        tracemalloc.start()
        try:
            residual_fidelity_exact(2, 4_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, peak

    def test_trivial_dimension_no_disturbance(self):
        assert residual_fidelity_exact(1, 5) == pytest.approx(1.0, abs=1e-12)
        assert residual_distance_bound(1, 5) == 0.0


def _mp_closed_form(d, m):
    """The closed form's double sum, term by term, in 50-digit arithmetic."""
    with mp.workdps(50):
        c = mp.fsum(mp.mpf(1) / j for j in range(1, m + 1))
        total = mp.mpf(0)
        for mm in range(1, m + 1):
            big_k = -(-mm // d)
            total += mp.mpf(1) / (mm * big_k)
            for i in range(1, big_k):
                k_i = mm - ((mm - 1) // d) * d + (i - 1) * d
                total += 2 / mp.sqrt(mp.mpf(i * k_i * mm * big_k))
        return float(total / (c * c))


class TestClosedFormPrefixSums:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_high_precision_double_sum(self, d):
        for m in range(d, 65):
            assert abs(residual_fidelity_closed_form(d, m) - _mp_closed_form(d, m)) < 1e-12, m

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_grouped_exact_form_to_large_rank(self, d):
        # The last two ranks span several blocks of the exact form's chunked sum.
        for m in (*range(max(d, 4), 2045, 8), 2044, 65_537, 200_003):
            diff = residual_fidelity_closed_form(d, m) - residual_fidelity_exact(d, m)
            assert abs(diff) < 1e-12, m

    def test_trivial_dimension(self):
        assert residual_fidelity_closed_form(1, 7) == pytest.approx(1.0, abs=1e-12)
