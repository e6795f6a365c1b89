"""Samplers, constructors, and the shared matrix document format."""

import numpy as np
import pytest

from qembezzle import (
    CatalystSearchQuery,
    DensityMatrix,
    DomainError,
    PureStateVector,
    SamplerStalled,
    SchmidtVector,
    SeededRng,
    ShapeError,
    max_entangled,
    min_copies_search,
    random_density,
    random_flat_spectrum,
    random_full_rank,
    random_pure,
    schmidt_decompose,
    schmidt_reconstruct,
)
from qembezzle.qstates import (
    density_from_document,
    density_to_document,
    max_entangled_amplitudes,
    read_density,
    write_density,
)
from qembezzle.teleport import entanglement_fraction
from qembezzle.qmat import max_relative_entropy


class TestSeededRng:
    def test_determinism(self):
        a = SeededRng(123).generator().standard_normal(8)
        b = SeededRng(123).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_derive_streams_differ(self):
        base = SeededRng(99)
        x = base.derive(1).generator().standard_normal(4)
        y = base.derive(2).generator().standard_normal(4)
        assert not np.allclose(x, y)

    def test_seed_range(self):
        with pytest.raises(DomainError):
            SeededRng(-1)


class TestMaxEntangled:
    def test_qubit_amplitudes(self):
        phi = max_entangled(2)
        np.testing.assert_allclose(
            phi.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15
        )

    def test_norm_across_dimensions(self):
        for d in range(1, 65):
            assert abs(np.linalg.norm(max_entangled(d).amplitudes) - 1.0) < 1e-10

    def test_unit_fraction(self):
        assert abs(entanglement_fraction(max_entangled(2).density()) - 1.0) < 1e-12

    def test_rejects_zero_dim(self):
        with pytest.raises(DomainError):
            max_entangled(0)

    def test_cached_amplitudes_are_read_only(self):
        phi = max_entangled_amplitudes(3)
        assert phi is max_entangled_amplitudes(3)
        with pytest.raises(ValueError):
            phi[0] = 0.0
        np.testing.assert_array_equal(max_entangled(3).amplitudes, phi)


class TestSamplers:
    def test_random_density_invariants(self):
        for seed in range(20):
            rho = random_density(4, SeededRng(seed))
            assert abs(np.trace(rho.mat).real - 1.0) < 1e-10
            assert np.max(np.abs(rho.mat - rho.mat.conj().T)) < 1e-12
            assert rho.min_eigenvalue() >= -1e-12

    def test_random_density_deterministic(self):
        a = random_density(4, SeededRng(5))
        b = random_density(4, SeededRng(5))
        np.testing.assert_array_equal(a.mat, b.mat)

    def test_mean_converges_to_maximally_mixed(self):
        # Law of large numbers for the Hilbert-Schmidt ensemble.
        gen = SeededRng(2718).generator()
        d, n = 4, 100_000
        g = gen.standard_normal((n, d, d)) + 1j * gen.standard_normal((n, d, d))
        mats = g @ np.conjugate(np.transpose(g, (0, 2, 1)))
        mats /= np.trace(mats, axis1=1, axis2=2)[:, None, None]
        mean = mats.mean(axis=0)
        assert np.max(np.abs(mean - np.eye(d) / d)) < 5e-3

    def test_full_rank_floor(self):
        for seed in range(10):
            rho = random_full_rank(4, SeededRng(seed), min_eig=1e-6)
            assert rho.min_eigenvalue() >= 1e-6

    def test_full_rank_supports_any_divergence(self):
        tau = random_full_rank(4, SeededRng(7))
        for seed in range(5):
            rho = random_density(4, SeededRng(100 + seed))
            assert np.isfinite(max_relative_entropy(rho, tau))

    def test_threshold_acts_as_pure_rejection(self):
        # Above the cutoff the conditioned and unconditioned ensembles agree.
        lo = 0.01
        gen = SeededRng(31415).generator()
        raw = []
        while len(raw) < 4000:
            rho = random_density(4, gen)
            raw.append(rho.min_eigenvalue())
        raw = np.array(raw)
        accepted = raw[raw >= lo]
        gen2 = SeededRng(31415).generator()
        conditioned = []
        while len(conditioned) < accepted.size:
            rho = random_full_rank(4, gen2, min_eig=lo)
            conditioned.append(rho.min_eigenvalue())
        conditioned = np.array(conditioned)
        qs = np.linspace(0.05, 0.95, 10)
        dev = np.max(np.abs(np.quantile(accepted, qs) - np.quantile(conditioned, qs)))
        assert dev < 0.01

    def test_haar_norm(self):
        psi = random_pure(5, SeededRng(1))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_flat_spectrum_sampler(self):
        for mat in random_flat_spectrum(4, [SeededRng(seed) for seed in range(10)]):
            rho = DensityMatrix(mat, 2, 2)
            assert abs(np.trace(rho.mat).real - 1.0) < 1e-12
            assert np.max(np.abs(rho.mat - rho.mat.conj().T)) < 1e-12
            assert rho.min_eigenvalue() >= 1e-6
        a = random_flat_spectrum(4, [SeededRng(3)])
        b = random_flat_spectrum(4, [SeededRng(3)])
        np.testing.assert_array_equal(a, b)


def _flat_spectrum_one(d, gen, min_eig):
    """One flat-spectrum draw from gen, as the sampler made it one state per call."""
    for _ in range(1000):
        eigs = gen.dirichlet(np.ones(d))
        if float(eigs.min()) < min_eig:
            continue
        g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        return (q * eigs) @ q.conj().T
    raise AssertionError("reference draw stalled")


class TestStackedFlatSpectrum:
    # min_eig 0.1 at d = 4 and 0.01 at d = 9 reject about 78% and 53% of the
    # Dirichlet draws, so rejected draws must leave the Gaussians alone.
    @pytest.mark.parametrize("d, min_eig", [(4, 1e-6), (4, 0.1), (9, 1e-6), (9, 0.01)])
    def test_rows_match_one_draw_per_stream(self, d, min_eig):
        shared = SeededRng(77).generator()
        streams = [SeededRng(seed) for seed in range(8)] + [shared] * 3
        got = random_flat_spectrum(d, streams, min_eig=min_eig)
        assert got.shape == (11, d, d)
        ref_shared = SeededRng(77).generator()
        for row, stream in zip(got, streams):
            gen = stream.generator() if isinstance(stream, SeededRng) else ref_shared
            np.testing.assert_array_equal(row, _flat_spectrum_one(d, gen, min_eig))
        assert np.linalg.eigvalsh(got).min() >= min_eig - 1e-12

    def test_unreachable_floor_stalls(self):
        # Four weights summing to 1 have a smallest weight of at most 0.25.
        with pytest.raises(SamplerStalled):
            random_flat_spectrum(4, [SeededRng(1)], min_eig=0.3)

    @pytest.mark.parametrize("d", [4, 9])
    def test_no_streams_give_an_empty_stack(self, d):
        assert random_flat_spectrum(d, []).shape == (0, d, d)

    def test_search_without_candidates_is_the_benchmark(self):
        rho = random_density(9, SeededRng(14), split=(3, 3))
        res = min_copies_search(
            CatalystSearchQuery(rho=rho, epsilon=0.1, candidate_count=0, rng=SeededRng(4))
        )
        assert res.n_best == res.n_mixed
        np.testing.assert_array_equal(res.zeta_best.mat, np.eye(9) / 9)
        assert res.zeta_best.split == (3, 3)


class TestSchmidt:
    def test_max_entangled_is_flat(self):
        sv, _ = schmidt_decompose(max_entangled(3))
        np.testing.assert_allclose(sv.probs, np.full(3, 1 / 3), atol=1e-12)

    def test_product_state(self):
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1.0  # |01>
        sv, _ = schmidt_decompose(PureStateVector(amps, 2, 2))
        np.testing.assert_allclose(sv.probs, [1.0, 0.0], atol=1e-12)

    def test_reconstruction(self):
        for seed in range(10):
            psi = random_pure(6, SeededRng(seed)).with_split(2, 3)
            sv, bases = schmidt_decompose(psi)
            rebuilt = schmidt_reconstruct(sv, bases)
            overlap = abs(np.vdot(rebuilt.amplitudes, psi.amplitudes))
            assert abs(overlap - 1.0) < 1e-10
            assert abs(float(sv.probs.sum()) - 1.0) < 1e-10
            assert np.all(np.diff(sv.probs) <= 1e-12)

    def test_requires_split(self):
        with pytest.raises(ShapeError):
            schmidt_decompose(random_pure(4, SeededRng(2)))

    def test_schmidt_vector_validation(self):
        with pytest.raises(DomainError):
            SchmidtVector(np.array([0.2, 0.8]))  # increasing
        with pytest.raises(DomainError):
            SchmidtVector(np.array([0.9, 0.2]))  # sum != 1


class TestMatrixDocument:
    def test_round_trip(self, tmp_path):
        rho = random_density(4, SeededRng(3), split=(2, 2))
        path = tmp_path / "state.json"
        write_density(path, rho)
        back = read_density(path)
        np.testing.assert_allclose(back.mat, rho.mat, atol=1e-15)
        assert back.split == (2, 2)

    def test_document_shape_check(self):
        doc = density_to_document(random_density(2, SeededRng(4)))
        doc["entries"] = doc["entries"][:1]
        with pytest.raises(ShapeError):
            density_from_document(doc)
