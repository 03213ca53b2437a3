import dataclasses
import math

import numpy as np
import pytest

import poptomo as pt
import oracles

TWO_PI = 2.0 * np.pi


class TestDensityMatrix:
    def test_basis_state(self):
        rho = pt.DensityMatrix.basis_state(5, 0)
        assert rho.dim == 5
        assert rho.matrix[0, 0] == 1.0
        assert np.abs(rho.matrix).sum() == 1.0

    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(pt.InvalidState):
            pt.DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(pt.InvalidState):
            pt.DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(pt.InvalidState):
            pt.DensityMatrix(m)

    def test_entries_immutable(self):
        rho = pt.DensityMatrix.maximally_mixed(3)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.5

    def test_from_state_vector_normalizes(self):
        rho = pt.DensityMatrix.from_state_vector([3.0, 4.0j])
        assert rho.matrix[0, 0] == pytest.approx(9.0 / 25.0)


class TestBuildHamiltonian:
    def test_reference_ladder_entries(self, ladder):
        H = pt.build_hamiltonian(ladder)
        assert H[0, 1] == pytest.approx(TWO_PI * 60e3, abs=0.0)
        assert H[1, 2] == pytest.approx(np.sqrt(1.5) * TWO_PI * 60e3, rel=1e-15)
        np.testing.assert_allclose(
            np.diag(H).real,
            TWO_PI * np.array([-11e3, -3e3, 0.0, 3e3, 11e3]),
            rtol=0.0,
            atol=1e-9,
        )
        assert H[0, 2] == 0.0 and H[0, 3] == 0.0 and H[1, 3] == 0.0

    def test_hermitian_and_symmetric_couplings(self, ladder):
        H = pt.build_hamiltonian(ladder)
        np.testing.assert_array_equal(H, H.conj().T)

    def test_all_zero_ladder(self):
        H = pt.build_hamiltonian(pt.Ladder5(0.0, 0.0, 0.0))
        assert not H.any()

    def test_generic_pass_through(self):
        m = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -1.0]])
        H = pt.build_hamiltonian(pt.GenericHamiltonian(m))
        np.testing.assert_array_equal(H, m)

    def test_generic_rejects_non_hermitian(self):
        with pytest.raises(pt.NonHermitianInput):
            pt.GenericHamiltonian(np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex))


NON_FINITE_DRIVE_FIELDS = [
    (field, value)
    for field in ("rabi_omega", "delta1", "delta2", "gamma")
    for value in (math.inf, -math.inf, math.nan)
]


@pytest.mark.parametrize("field, value", NON_FINITE_DRIVE_FIELDS)
def test_non_finite_drive_field_rejected(ladder, field, value):
    with pytest.raises(pt.ValidationError, match=field):
        if field == "gamma":
            pt.EvolutionModel(hamiltonian=ladder, gamma=value)
        else:
            dataclasses.replace(ladder, **{field: value})


class TestLindbladRhs:
    def test_pure_dephasing_matches_projector_sum(self):
        rng = np.random.default_rng(1)
        rho = pt.DensityMatrix(oracles.random_density(rng, 5))
        gamma = 240.0
        model = pt.EvolutionModel(
            hamiltonian=pt.GenericHamiltonian(np.zeros((5, 5), dtype=complex)),
            gamma=gamma,
        )
        out = pt.lindblad_rhs(rho, model)
        np.testing.assert_allclose(
            out, oracles.projector_dissipator(rho.matrix, gamma), atol=1e-15
        )
        assert np.abs(np.diag(out)).max() < 1e-15
        off = out + 2.0 * gamma * (rho.matrix - np.diag(np.diag(rho.matrix)))
        assert np.abs(off).max() < 1e-15

    def test_maximally_mixed_is_stationary_without_dephasing(self, ladder):
        model = pt.EvolutionModel(hamiltonian=ladder, gamma=0.0)
        out = pt.lindblad_rhs(pt.DensityMatrix.maximally_mixed(5), model)
        assert np.abs(out).max() < 1e-12

    def test_coherent_part_is_commutator(self, ladder):
        rng = np.random.default_rng(2)
        rho = pt.DensityMatrix(oracles.random_density(rng, 5))
        model = pt.EvolutionModel(hamiltonian=ladder, gamma=0.0)
        H = pt.build_hamiltonian(ladder)
        expected = -1j * (H @ rho.matrix - rho.matrix @ H)
        np.testing.assert_allclose(pt.lindblad_rhs(rho, model), expected, atol=1e-12)

    def test_dimension_mismatch(self, ladder):
        model = pt.EvolutionModel(hamiltonian=ladder, gamma=0.0)
        with pytest.raises(pt.DimensionMismatch):
            pt.lindblad_rhs(pt.DensityMatrix.maximally_mixed(3), model)

    def test_liouvillian_matches_rhs(self, ladder_model):
        rng = np.random.default_rng(3)
        L = pt.liouvillian_matrix(ladder_model)
        for _ in range(5):
            rho = pt.DensityMatrix(oracles.random_density(rng, 5))
            lhs = pt.unvectorize(L @ pt.vectorize(rho.matrix), 5)
            rhs = pt.lindblad_rhs(rho, ladder_model)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestMakePropagator:
    def test_two_level_dephasing_analytic(self):
        model = pt.EvolutionModel(
            hamiltonian=pt.GenericHamiltonian(np.zeros((2, 2), dtype=complex)),
            gamma=100.0,
        )
        prop = pt.make_propagator(model, 1e-3)
        rho = pt.DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
        out = pt.evolve(rho, prop, 1)
        # 0.5 * exp(-2 * 100 * 1e-3)
        assert out.matrix[0, 1].real == pytest.approx(0.4093653765389909, abs=1e-12)
        assert out.matrix[0, 0].real == pytest.approx(0.5, abs=1e-12)

    def test_unitary_channel_identity(self, ladder):
        model = pt.EvolutionModel(hamiltonian=ladder, gamma=0.0)
        dt = 0.8e-6
        prop = pt.make_propagator(model, dt)
        expected = oracles.unitary_channel_matrix(pt.build_hamiltonian(ladder), dt)
        assert np.abs(prop.step_matrix - expected).max() < 1e-10

    def test_zero_dt_is_identity(self, ladder_model):
        prop = pt.make_propagator(ladder_model, 0.0)
        np.testing.assert_array_equal(prop.step_matrix, np.eye(25))

    def test_negative_dt_rejected(self, ladder_model):
        with pytest.raises(pt.InvalidState):
            pt.make_propagator(ladder_model, -1e-6)


class TestEvolve:
    def test_zero_steps_returns_input(self, ladder_model):
        rho = pt.DensityMatrix.basis_state(5, 2)
        assert pt.evolve(rho, pt.make_propagator(ladder_model, 1e-6), 0) is rho

    def test_matches_rk4_on_reference_drive(self, ladder_model):
        rho0 = pt.DensityMatrix.basis_state(5, 0)
        dt = 1.16e-6
        n_points = 15
        prop = pt.make_propagator(ladder_model, dt)
        ours = np.empty((5, n_points))
        for k in range(n_points):
            ours[:, k] = pt.populations(pt.evolve(rho0, prop, k + 1))
        stride = 1160  # dt / 1e-9
        reference = oracles.rk4_population_trajectories(
            rho0.matrix,
            pt.build_hamiltonian(ladder_model.hamiltonian),
            ladder_model.gamma,
            1e-9,
            stride * n_points,
            stride,
        )
        assert np.abs(ours - reference[:, 1:]).max() < 1e-6

    def test_free_dephasing_decay(self):
        rng = np.random.default_rng(4)
        rho0 = pt.DensityMatrix(oracles.random_density(rng, 5))
        gamma = 375.0
        model = pt.EvolutionModel(
            hamiltonian=pt.GenericHamiltonian(np.zeros((5, 5), dtype=complex)),
            gamma=gamma,
        )
        prop = pt.make_propagator(model, 5e-6)
        for steps in (1, 4, 9):
            t = steps * 5e-6
            out = pt.evolve(rho0, prop, steps)
            expected = oracles.dephased_state(rho0.matrix, gamma, t)
            ratio = out.matrix / rho0.matrix
            off = ~np.eye(5, dtype=bool)
            np.testing.assert_allclose(
                ratio[off], np.exp(-2.0 * gamma * t), rtol=1e-8
            )
            np.testing.assert_allclose(out.matrix, expected, atol=1e-10)

    def test_semigroup_property(self, ladder_model):
        rng = np.random.default_rng(5)
        rho0 = pt.DensityMatrix(oracles.random_density(rng, 5))
        prop = pt.make_propagator(ladder_model, 1.3e-6)
        once = pt.evolve(rho0, prop, 7)
        twice = pt.evolve(pt.evolve(rho0, prop, 3), prop, 4)
        assert np.abs(once.matrix - twice.matrix).max() < 1e-8

    def test_preserves_validity_on_random_models(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            rho0 = pt.DensityMatrix(oracles.random_density(rng, 5))
            H = oracles.random_hermitian(rng, 5, TWO_PI * 40e3)
            model = pt.EvolutionModel(
                hamiltonian=pt.GenericHamiltonian(H), gamma=rng.uniform(0.0, 750.0)
            )
            out = pt.evolve(
                rho0, pt.make_propagator(model, rng.uniform(0.2e-6, 2e-6)), 10
            )
            assert abs(out.matrix.trace().real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(out.matrix)[0] > -1e-8


class TestPopulations:
    def test_basis_state(self):
        np.testing.assert_array_equal(
            pt.populations(pt.DensityMatrix.basis_state(5, 0)),
            [1.0, 0.0, 0.0, 0.0, 0.0],
        )

    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            pt.populations(pt.DensityMatrix.maximally_mixed(5)), 0.2, rtol=1e-14
        )

    def test_equal_superposition(self):
        rho = pt.DensityMatrix.from_state_vector([1.0, 1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            pt.populations(rho), [0.5, 0.5, 0.0, 0.0, 0.0], atol=1e-15
        )

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = pt.DensityMatrix(oracles.random_density(rng, 5))
            assert abs(pt.populations(rho).sum() - 1.0) < 1e-10


class TestUhlmannFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            rho = pt.DensityMatrix(oracles.random_density(rng, 5))
            assert pt.uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        a = pt.DensityMatrix.basis_state(4, 0)
        b = pt.DensityMatrix.basis_state(4, 3)
        assert pt.uhlmann_fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_diagonal_states(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.dirichlet(np.ones(5))
            b = rng.dirichlet(np.ones(5))
            rho = pt.DensityMatrix(np.diag(a).astype(complex))
            sigma = pt.DensityMatrix(np.diag(b).astype(complex))
            assert pt.uhlmann_fidelity(rho, sigma) == pytest.approx(
                oracles.classical_fidelity(a, b), abs=1e-12
            )

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            rho = pt.DensityMatrix(oracles.random_density(rng, 5))
            sigma = pt.DensityMatrix(oracles.random_pure_density(rng, 5))
            assert pt.uhlmann_fidelity(rho, sigma) == pytest.approx(
                pt.uhlmann_fidelity(sigma, rho), abs=1e-10
            )

    def test_dimension_mismatch(self):
        with pytest.raises(pt.DimensionMismatch):
            pt.uhlmann_fidelity(
                pt.DensityMatrix.maximally_mixed(2), pt.DensityMatrix.maximally_mixed(3)
            )
