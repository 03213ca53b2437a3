import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poptomo as pt
import oracles
from poptomo.dynamics import EVOLVE_TRACE_ATOL, _generator, drive_populations, ladder_diagonal

TWO_PI = 2.0 * np.pi


class TestDensityMatrix:
    def test_basis_state(self):
        rho = pt.DensityMatrix.basis_state(5, 0)
        assert rho.dim == 5
        assert rho.matrix[0, 0] == 1.0
        assert np.abs(rho.matrix).sum() == 1.0
        assert pt.DensityMatrix.basis_state(5, np.int64(2)).matrix[2, 2] == 1.0

    @pytest.mark.parametrize("index", [True, False, np.True_, 1.5, 2.0, "1", None])
    def test_basis_state_rejects_boolean_index(self, index):
        with pytest.raises(pt.ValidationError, match="integer"):
            pt.DensityMatrix.basis_state(5, index)

    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(pt.InvalidState):
            pt.DensityMatrix(m)

    @pytest.mark.parametrize("build", [pt.DensityMatrix, pt.GenericHamiltonian])
    @pytest.mark.parametrize(
        "entries, error",
        [
            (np.full((2, 3), 0.5), pt.DimensionMismatch),
            (np.full(4, 0.25), pt.DimensionMismatch),
            (np.array([[0.5, np.nan], [np.nan, 0.5]]), pt.ValidationError),
        ],
    )
    def test_matrix_must_be_square_and_finite(self, build, entries, error):
        with pytest.raises(error, match="square|non-finite"):
            build(entries)

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
        with pytest.raises(pt.InvalidState, match="zero norm"):
            pt.DensityMatrix.from_state_vector([0.0, 0.0])


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


def test_ladder_matrix_is_the_literal_bytewise():
    signed = [0.0, -0.0, 1.0, -3.5e4, 1e300, 5e-324]
    rng = np.random.default_rng(33)
    random = rng.normal(0.0, TWO_PI * 50e3, size=(500, 3)) * rng.choice([-1.0, 0.0, 1.0], (500, 3))
    for w, d1, d2 in [*itertools.product(signed, repeat=3), *random.tolist()]:
        H = pt.build_hamiltonian(pt.Ladder5(w, d1, d2))
        want = oracles.ladder5_literal(w, d1, d2)
        assert H.dtype == want.dtype and H.tobytes() == want.tobytes(), (w, d1, d2)


@settings(max_examples=300, deadline=None)
@given(
    rabi=st.floats(allow_nan=False, allow_infinity=False),
    detunings=st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_ladder_diagonal_is_the_matrix_diagonal_bytewise(rabi, detunings):
    d1, d2 = np.array(detunings).T
    got = ladder_diagonal(d1, d2)
    assert got.shape == (len(detunings), 5)
    for row, (a, b) in zip(got, detunings):
        want = np.diagonal(pt.build_hamiltonian(pt.Ladder5(rabi, a, b))).real
        assert row.tobytes() == np.ascontiguousarray(want).tobytes()
    # a scalar detuning broadcasts against an array of the other
    broadcast = ladder_diagonal(d1[0], d2)
    assert broadcast.tobytes() == ladder_diagonal(np.full_like(d2, d1[0]), d2).tobytes()


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


def test_negative_dephasing_rate_rejected(ladder):
    with pytest.raises(pt.InvalidState, match="dephasing rate"):
        pt.EvolutionModel(hamiltonian=ladder, gamma=-1.0)


@pytest.mark.parametrize(
    "driven, gamma, state, atol",
    [
        (True, 375.0, "random", 1e-9),
        (True, 0.0, "random", 1e-9),  # the commutator alone
        (False, 240.0, "random", 1e-15),  # the projector sum alone, collapsed to a diagonal
        # stationary without dephasing, to the rounding of |L| ~ 4e5 1/s
        (True, 0.0, "mixed", 1e-9),
    ],
    ids=["driven_dephased", "drive_only", "pure_dephasing", "stationary"],
)
def test_liouvillian_matches_rhs(ladder, driven, gamma, state, atol):
    """L @ vec(rho) from the generator is the literal master equation's drho/dt."""
    rng = np.random.default_rng(3)
    H = pt.build_hamiltonian(ladder) if driven else np.zeros((5, 5), dtype=complex)
    L = _generator(H, gamma)
    for _ in range(5):
        rho = oracles.random_density(rng, 5) if state == "random" else np.eye(5, dtype=complex) / 5
        lhs = pt.unvectorize(L @ pt.vectorize(rho), 5)
        np.testing.assert_allclose(lhs, oracles.rhs_direct(rho, H, gamma), rtol=0.0, atol=atol)


SIGNED_ZERO = st.sampled_from([0.0, -0.0])
ENTRY = st.one_of(SIGNED_ZERO, st.floats(-1e100, 1e100))
RATE = st.one_of(SIGNED_ZERO, st.floats(0.0, 1e4))


@st.composite
def evolution_models(draw):
    """Ladder5 or generic Hermitian drives whose entries include +-0.0, at gamma = 0 or > 0."""
    gamma = draw(RATE)
    if draw(st.booleans()):
        return pt.EvolutionModel(pt.Ladder5(draw(ENTRY), draw(ENTRY), draw(ENTRY)), gamma)
    n = draw(st.integers(1, 5))
    m = np.empty((n, n), dtype=complex)
    for i in range(n):
        m[i, i] = complex(draw(ENTRY), draw(SIGNED_ZERO))
        for j in range(i + 1, n):
            m[i, j] = complex(draw(ENTRY), draw(ENTRY))
            m[j, i] = np.conj(m[i, j])
    return pt.EvolutionModel(pt.GenericHamiltonian(m), gamma)


@settings(max_examples=400, deadline=None)
@given(model=evolution_models())
def test_liouvillian_is_the_kron_form_bytewise(model):
    want = oracles.kron_liouvillian(pt.build_hamiltonian(model.hamiltonian), model.gamma)
    got = _generator(pt.build_hamiltonian(model.hamiltonian), model.gamma)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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
        assert np.abs(prop - expected).max() < 1e-10

    def test_zero_dt_is_identity(self, ladder_model):
        prop = pt.make_propagator(ladder_model, 0.0)
        np.testing.assert_array_equal(prop, np.eye(25))

    def test_negative_dt_rejected(self, ladder_model):
        with pytest.raises(pt.InvalidState):
            pt.make_propagator(ladder_model, -1e-6)

    @pytest.mark.parametrize("dt", [0.0, 1e-6])
    def test_step_is_read_only(self, ladder_model, dt):
        step = pt.make_propagator(ladder_model, dt)
        assert step.shape == (25, 25)
        assert step.flags.writeable is False
        with pytest.raises(ValueError):
            step[0, 0] = 0.0

    @pytest.mark.parametrize("rabi", [1e14, 1e16, 1e20])
    @pytest.mark.parametrize("gamma", [0.0, 375.0])
    def test_drive_too_large_for_dt_raises_numerical_drift(self, rabi, gamma):
        # ||L*dt||_1 is 5.7e-6 * rabi here, beyond MAX_UNITARY_PHASE from
        # rabi 1.8e13: unchecked, the step comes out finite but off unitarity
        # by 1.4e-8 at rabi 1e14 and by 3e-2 at 1e20
        model = pt.EvolutionModel(pt.Ladder5(rabi, 0.0, 0.0), gamma)
        with pytest.raises(pt.NumericalDrift, match=r"exceeds 1e\+08 \(dt = 1\.16e-06\)"):
            pt.make_propagator(model, 1.16e-6)
        stack = np.stack([pt.build_hamiltonian(pt.Ladder5(1.0, 0.0, 0.0)),
                          pt.build_hamiltonian(model.hamiltonian)]).real
        with pytest.raises(pt.NumericalDrift, match=r"dt = 1\.16e-06"):
            drive_populations(stack, gamma, np.eye(5) / 5, 1.16e-6)

    def test_largest_drive_within_the_bound_stays_unitary(self):
        # rabi 1e13 puts ||L*dt||_1 at 5.7e7, just inside MAX_UNITARY_PHASE
        step = pt.make_propagator(pt.EvolutionModel(pt.Ladder5(1e13, 0.0, 0.0)), 1.16e-6)
        assert np.abs(step.conj().T @ step - np.eye(25)).max() < EVOLVE_TRACE_ATOL

    @pytest.mark.parametrize(
        "drive, dt",
        [
            (pt.Ladder5(1e308, -1e308, 1e308), 1e-6),  # the commutator overflows
            (pt.Ladder5(1e300, 0.0, 0.0), 1e10),  # the scaling by dt overflows
        ],
    )
    def test_overflowing_generator_raises_validation_error(self, drive, dt):
        # no numpy RuntimeWarning escapes before the ValidationError
        with pytest.raises(pt.ValidationError, match="non-finite drive"):
            pt.make_propagator(pt.EvolutionModel(drive), dt)


ANGULAR_DRIVE = st.floats(-TWO_PI * 100e3, TWO_PI * 100e3)


@st.composite
def shifted_ladder_stacks(draw):
    """Real (m, 5, 5) stacks of one Ladder5 drive under common-mode detuning offsets.

    The Rabi frequency may be exactly 0, the diagonal drive.
    """
    rabi = draw(st.one_of(st.just(0.0), ANGULAR_DRIVE))
    d1, d2 = draw(ANGULAR_DRIVE), draw(ANGULAR_DRIVE)
    offsets = draw(st.lists(ANGULAR_DRIVE, min_size=1, max_size=8))
    return np.stack(
        [pt.build_hamiltonian(pt.Ladder5(rabi, d1 + xi, d2 + 2.0 * xi)).real for xi in offsets]
    )


def shot_step(h, gamma, t):
    """One shot's own step: the drive ``h`` as a generic Hamiltonian."""
    return pt.make_propagator(pt.EvolutionModel(pt.GenericHamiltonian(h), gamma), t)


class TestShotSteps:
    """drive_populations at gamma > 0 wraps each real drive in a
    GenericHamiltonian; that step must be the spec's own step."""

    @pytest.mark.parametrize("dt", [0.0, 0.37e-6, 1.16e-6])
    @pytest.mark.parametrize("gamma", [0.0, 375.0])
    def test_generic_form_is_the_spec_step_bytewise(self, ladder, dt, gamma):
        rng = np.random.default_rng(21)
        specs = [
            pt.Ladder5(ladder.rabi_omega, ladder.delta1 + xi, ladder.delta2 + 2.0 * xi)
            for xi in rng.normal(0.0, TWO_PI * 10e3, size=6)
        ]
        # a diagonal drive takes expm's diagonal shortcut; a generic one has no zeros
        specs.append(pt.Ladder5(0.0, -ladder.delta1, 0.0))
        specs.append(pt.GenericHamiltonian(oracles.random_hermitian(rng, 5, TWO_PI * 40e3)))
        for spec in specs:
            h = pt.build_hamiltonian(spec)
            step = pt.make_propagator(pt.EvolutionModel(spec, gamma), dt)
            assert step.tobytes() == shot_step(h, gamma, dt).tobytes()
            if isinstance(spec, pt.Ladder5):
                assert step.tobytes() == shot_step(h.real, gamma, dt).tobytes()
            assert step.shape == (25, 25) and step.flags.writeable is False
            if dt == 0.0:
                np.testing.assert_array_equal(step, np.eye(25))


class TestDrivePopulations:
    @pytest.mark.parametrize("t", [0.37e-6, 1.16e-6, 3e-5])
    def test_dephased_rows_are_the_stacked_step_bytewise(self, t):
        rng = np.random.default_rng(31)
        rho = oracles.random_density(rng, 5)
        offsets = rng.normal(0.0, TWO_PI * 10e3, size=7)
        stack = np.stack(
            [pt.build_hamiltonian(pt.Ladder5(TWO_PI * 60e3, xi, 2.0 * xi)).real for xi in offsets]
        )
        want = np.stack([
            (shot_step(h, 375.0, t)[np.arange(5) * 6] @ pt.vectorize(rho)).real for h in stack
        ])
        got = drive_populations(stack, 375.0, rho, t)
        assert got.shape == (7, 5) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gamma", [0.0, 375.0])
    def test_time_zero_is_the_diagonal_exactly(self, gamma):
        rho = oracles.random_density(np.random.default_rng(32), 5)
        stack = np.stack([pt.build_hamiltonian(pt.Ladder5(1.0, 2.0, 3.0)).real] * 3)
        got = drive_populations(stack, gamma, rho, 0.0)
        assert got.shape == (3, 5)
        for row in got:
            assert row.tobytes() == np.diagonal(rho).real.tobytes()


class TestUnitaryPopulations:
    @settings(max_examples=300, deadline=None)
    @given(
        stack=shifted_ladder_stacks(),
        seed=st.integers(0, 2**32 - 1),
        pure=st.booleans(),
        t=st.one_of(st.just(0.0), st.floats(0.0, 1e-4)),
    )
    def test_matches_the_stacked_expm_rows(self, stack, seed, pure, t):
        rng = np.random.default_rng(seed)
        rho = oracles.random_pure_density(rng, 5) if pure else oracles.random_density(rng, 5)
        diagonal = np.arange(5) * 6
        want = np.stack([(shot_step(h, 0.0, t)[diagonal] @ pt.vectorize(rho)).real for h in stack])
        got = drive_populations(stack, 0.0, rho, t)
        assert got.shape == want.shape
        if t == 0.0:
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            pt.Ladder5(1e50, 0.0, 0.0),  # finite eigenvalues, a meaningless phase
            pt.Ladder5(1.4e308, 0.0, 0.0),  # eigh returns infinite eigenvalues
            pt.Ladder5(0.0, 1e100, 0.0),  # the diagonal drive
        ],
        ids=["huge_rabi", "infinite_eigenvalue", "diagonal"],
    )
    def test_overflowing_phase_raises_numerical_drift(self, spec):
        stack = np.stack(
            [pt.build_hamiltonian(pt.Ladder5(1.0, 0.0, 0.0)), pt.build_hamiltonian(spec)]
        ).real
        rho = pt.DensityMatrix.maximally_mixed(5).matrix
        with pytest.raises(pt.NumericalDrift, match=r"dt = 1\.16e-06"):
            drive_populations(stack, 0.0, rho, 1.16e-6)
        np.testing.assert_array_equal(drive_populations(stack, 0.0, rho, 0.0), np.full((2, 5), 0.2))

    def test_non_finite_drive_rejected(self):
        # sqrt(3/2) * Omega overflows to inf, on which eigh would not converge
        stack = pt.build_hamiltonian(pt.Ladder5(1.6e308, 0.0, 0.0)).real[None]
        with pytest.raises(pt.ValidationError, match=r"dt = 1\.16e-06"):
            drive_populations(stack, 0.0, np.eye(5) / 5, 1.16e-6)


class TestEvolve:
    def test_zero_steps_returns_input(self, ladder_model):
        rho = pt.DensityMatrix.basis_state(5, 2)
        assert pt.evolve(rho, pt.make_propagator(ladder_model, 1e-6), 0) is rho
        with pytest.raises(pt.InvalidState, match="steps"):
            pt.evolve(rho, pt.make_propagator(ladder_model, 1e-6), -1)

    @pytest.mark.parametrize("steps", [0, 1])
    def test_step_of_another_dimension_rejected(self, steps):
        model = pt.EvolutionModel(pt.GenericHamiltonian(np.eye(2, dtype=complex)), gamma=1.0)
        step = pt.make_propagator(model, 1e-6)
        with pytest.raises(pt.DimensionMismatch):
            pt.evolve(pt.DensityMatrix.basis_state(5, 0), step, steps)
        with pytest.raises(pt.DimensionMismatch):
            pt.evolve(pt.DensityMatrix.basis_state(2, 0), step[:, :3], steps)

    def test_trace_drift_raises(self):
        with pytest.raises(pt.NumericalDrift, match="trace drift"):
            pt.evolve(pt.DensityMatrix.basis_state(5, 0), 2.0 * np.eye(25), 1)

    def test_negative_eigenvalue_raises(self):
        # unit trace, so only the eigenvalue check can catch it
        step = np.eye(25, dtype=complex)
        step[:, 0] = pt.vectorize(np.diag([1.5, -0.5, 0.0, 0.0, 0.0]))
        with pytest.raises(pt.NumericalDrift, match="negative eigenvalue"):
            pt.evolve(pt.DensityMatrix.basis_state(5, 0), step, 1)

    def test_matches_rk4_on_reference_drive(self, ladder_model):
        rho0 = pt.DensityMatrix.basis_state(5, 0)
        dt = 1.16e-6
        n_points = 15
        prop = pt.make_propagator(ladder_model, dt)
        ours = np.empty((5, n_points))
        for k in range(n_points):
            ours[:, k] = oracles.populations(pt.evolve(rho0, prop, k + 1))
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
