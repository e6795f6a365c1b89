"""Teleportation channel, Bell data, and the fidelity-fraction relation."""

import numpy as np
import pytest

from qembezzle import (
    DensityMatrix,
    DomainError,
    SeededRng,
    ShapeError,
    all_fixtures,
    average_fidelity_from_fraction,
    average_fidelity_mc,
    bell_basis,
    entanglement_fraction,
    max_entangled_density,
    maximally_mixed,
    message_fidelity,
    random_density,
    random_pure,
    teleport_channel,
)
from qembezzle.teleport import _batched_message_fidelities, weyl_operators


class TestBellBasis:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_projector_completeness(self, d):
        table = bell_basis(d)
        total = np.sum(table.projectors, axis=0)
        assert np.max(np.abs(total - np.eye(d * d))) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pairwise_orthogonality(self, d):
        table = bell_basis(d)
        gram = table.basis_states @ table.basis_states.conj().T
        assert np.max(np.abs(gram - np.eye(d * d))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_corrections_unitary(self, d):
        table = bell_basis(d)
        for v in table.corrections:
            assert np.max(np.abs(v @ v.conj().T - np.eye(d))) < 1e-10

    def test_qubit_bell_states(self):
        states = bell_basis(2).basis_states
        expect = {
            (1, 0, 0, 1),  # phi+
            (1, 0, 0, -1),  # phi-
            (0, 1, 1, 0),  # psi+
            (0, 1, -1, 0),  # psi-
        }
        got = set()
        for s in states:
            vec = tuple(int(round(x)) for x in (np.sqrt(2) * s).real)
            got.add(vec if vec in expect else tuple(-v for v in vec))
        assert got == expect


class TestFractionAndFormula:
    def test_max_entangled(self):
        assert abs(entanglement_fraction(max_entangled_density(3)) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(entanglement_fraction(maximally_mixed(4, split=(2, 2))) - 0.25) < 1e-12

    def test_requires_square_split(self):
        with pytest.raises(ShapeError):
            entanglement_fraction(random_density(6, SeededRng(0), split=(2, 3)))

    def test_cached_phi_gives_the_same_bits_on_every_fixture(self):
        phi = np.zeros(4, dtype=complex)
        phi[::3] = 1.0 / np.sqrt(2)
        for table, row, _, state in all_fixtures():
            val = float(np.real(phi.conj() @ state.mat @ phi))
            assert entanglement_fraction(state) == min(max(val, 0.0), 1.0), (table, row)

    def test_formula_endpoints(self):
        assert abs(average_fidelity_from_fraction(1.0, 5) - 1.0) < 1e-12
        assert abs(average_fidelity_from_fraction(0.0, 2) - 1 / 3) < 1e-12
        assert abs(average_fidelity_from_fraction(0.62, 2) - 0.74666666667) < 1e-9

    def test_formula_domain(self):
        with pytest.raises(DomainError):
            average_fidelity_from_fraction(1.5, 2)


class TestChannel:
    @pytest.mark.parametrize("d", [2, 3])
    def test_perfect_resource_is_identity(self, d):
        phi = max_entangled_density(d)
        psi = random_pure(d, SeededRng(10 + d))
        out = teleport_channel(phi, psi)
        np.testing.assert_allclose(
            out.mat, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-10
        )

    def test_maximally_mixed_resource_depolarises(self):
        psi = random_pure(2, SeededRng(3))
        out = teleport_channel(maximally_mixed(4, split=(2, 2)), psi)
        np.testing.assert_allclose(out.mat, np.eye(2) / 2, atol=1e-10)

    def test_trace_preserving(self):
        for seed in range(5):
            rho = random_density(9, SeededRng(seed), split=(3, 3))
            psi = random_pure(3, SeededRng(100 + seed))
            out = teleport_channel(rho, psi)
            assert abs(np.trace(out.mat).real - 1.0) < 1e-10

    def test_linearity_in_resource(self):
        r1 = random_density(4, SeededRng(1), split=(2, 2))
        r2 = random_density(4, SeededRng(2), split=(2, 2))
        psi = random_pure(2, SeededRng(3))
        mix = DensityMatrix.from_matrix(0.3 * r1.mat + 0.7 * r2.mat, split=(2, 2))
        lhs = teleport_channel(mix, psi).mat
        rhs = 0.3 * teleport_channel(r1, psi).mat + 0.7 * teleport_channel(r2, psi).mat
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_weyl_twirl_invariance(self):
        rho = random_density(4, SeededRng(99), split=(2, 2))
        psi = random_pure(2, SeededRng(98))
        base = message_fidelity(rho, psi)
        for w in weyl_operators(2):
            u = np.kron(w, w.conj())
            twirled = DensityMatrix.from_matrix(u @ rho.mat @ u.conj().T, split=(2, 2))
            assert abs(message_fidelity(twirled, psi) - base) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            teleport_channel(max_entangled_density(2), random_pure(3, SeededRng(1)))


class TestMonteCarlo:
    def test_perfect_resource_every_sample_unity(self):
        mean, stderr = average_fidelity_mc(max_entangled_density(2), 500, SeededRng(5))
        assert abs(mean - 1.0) < 1e-10
        assert stderr < 1e-10

    def test_determinism(self):
        rho = random_density(4, SeededRng(6), split=(2, 2))
        m1, _ = average_fidelity_mc(rho, 1000, SeededRng(7))
        m2, _ = average_fidelity_mc(rho, 1000, SeededRng(7))
        assert m1 == m2

    def test_agrees_with_formula(self):
        rho = random_density(4, SeededRng(8), split=(2, 2))
        expect = average_fidelity_from_fraction(entanglement_fraction(rho), 2)
        mean, stderr = average_fidelity_mc(rho, 10_000, SeededRng(9))
        assert abs(mean - expect) <= 3 * stderr

    def test_minimum_sample_count(self):
        with pytest.raises(DomainError):
            average_fidelity_mc(max_entangled_density(2), 10, SeededRng(1))

    def test_fast_path_matches_channel(self):
        rho = random_density(9, SeededRng(11), split=(3, 3))
        for seed in range(4):
            psi = random_pure(3, SeededRng(200 + seed))
            fast = _batched_message_fidelities(rho, psi.amplitudes[None, :])[0]
            assert abs(fast - message_fidelity(rho, psi)) < 1e-12
