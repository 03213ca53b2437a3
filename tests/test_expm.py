"""make_propagator against SciPy's expm.

``dynamics.expm`` is Higham's (2005) degree-13 scaling and squaring in
numpy alone.  SciPy's expm (Al-Mohy and Higham, 2009) may pick a lower
degree or fewer squarings and solves the Pade system through another
factorization, so the two agree to rounding, not bit for bit: within
RTOL of the largest entry of SciPy's result.  SciPy is a test dependency
only.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import poptomo as pt
import oracles
from poptomo import dynamics

RTOL = 1e-13

# theta_13 of Higham (2005), Table 2.3: the degree-13 approximant takes no
# squaring while ||A||_1 <= theta_13, and s squarings up to 2^s theta_13
THETA_13 = 5.371920351148152
# ||L*dt||_1 / theta_13 bands: no squaring, one, and three
NORM_BANDS = {"s0": (0.0, 1.0), "s1": (1.0, 2.0), "s3": (4.0, 8.0)}


def drawn_model(seed, damped):
    """A Ladder5 or a generic 2-5 level drive of unit scale, damped or not."""
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        spec = pt.Ladder5(rng.uniform(0.05, 1.0), rng.normal(), rng.normal())
    else:
        spec = pt.GenericHamiltonian(oracles.random_hermitian(rng, int(rng.integers(2, 6)), 1.0))
    return pt.EvolutionModel(spec, rng.uniform(0.0, 3.0) if damped else 0.0)


def assert_matches_scipy(step, generator):
    want = scipy.linalg.expm(generator)
    assert np.abs(step - want).max() <= RTOL * np.abs(want).max()


def generator(model):
    return oracles.kron_liouvillian(pt.build_hamiltonian(model.hamiltonian), model.gamma)


class TestAgainstScipy:
    @pytest.mark.parametrize("band", sorted(NORM_BANDS))
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), damped=st.booleans(),
           position=st.floats(0.0, 1.0, exclude_min=True))
    def test_accuracy_in_each_squaring_band(self, band, seed, damped, position):
        model = drawn_model(seed, damped)
        L = generator(model)
        lo, hi = NORM_BANDS[band]
        dt = (lo + position * (hi - lo)) * THETA_13 / np.linalg.norm(L, 1)
        assert_matches_scipy(pt.make_propagator(model, dt), L * dt)

    @pytest.mark.parametrize("ratio", [1.0 - 1e-12, 1.0 + 1e-12])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), damped=st.booleans())
    def test_accuracy_either_side_of_theta_13(self, ratio, seed, damped):
        # no squaring just below theta_13, one just above
        model = drawn_model(seed, damped)
        L = generator(model)
        dt = ratio * THETA_13 / np.linalg.norm(L, 1)
        assert_matches_scipy(pt.make_propagator(model, dt), L * dt)

    @settings(max_examples=100, deadline=None)
    @given(
        diagonal=st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=5),
        gamma=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
        dt=st.floats(0.0, 1e-3),
    )
    def test_diagonal_drive_is_exact(self, diagonal, gamma, dt):
        # both take the diagonal shortcut, so the steps agree bit for bit
        model = pt.EvolutionModel(pt.GenericHamiltonian(np.diag(diagonal)), gamma)
        L = generator(model) * dt
        step = pt.make_propagator(model, dt)
        assert step.tobytes() == np.diag(np.exp(np.diagonal(L))).tobytes()
        assert step.tobytes() == scipy.linalg.expm(L).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        drives=st.lists(
            st.tuples(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), st.floats(-1.0, 1.0),
                      st.floats(-1.0, 1.0)),
            min_size=1, max_size=6,
        ),
        gamma=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        dt=st.floats(0.0, 60.0),
    )
    def test_dephased_population_rows_are_the_scalar_steps(self, drives, gamma, dt):
        # dt up to 60 spans 0 to 8 squarings at unit scale; drive_populations
        # steps each shot only when dephased (gamma = 0 goes through eigh)
        specs = [pt.Ladder5(*drive) for drive in drives]
        stack = np.stack([pt.build_hamiltonian(spec).real for spec in specs])
        rho = oracles.random_density(np.random.default_rng(len(drives)), 5)
        rows = dynamics.drive_populations(stack, gamma, rho, dt) if gamma > 0 else None
        for i, spec in enumerate(specs):
            model = pt.EvolutionModel(spec, gamma)
            step = pt.make_propagator(model, dt)
            if rows is not None:
                want = (step[np.arange(5) * 6] @ pt.vectorize(rho)).real
                assert np.ascontiguousarray(rows[i]).tobytes() == want.tobytes()
            assert_matches_scipy(step, generator(model) * dt)


class TestNonFiniteSteps:
    @settings(max_examples=60, deadline=None)
    @given(
        rabi=st.floats(1e45, 1e290),
        detuning=st.floats(-1.0, 1.0),
        gamma=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
        stacked=st.booleans(),
    )
    def test_overflowing_drive_raises_numerical_drift(self, rabi, detuning, gamma, stacked):
        # the generator is finite, its 1-norm far beyond MAX_UNITARY_PHASE or
        # overflowing: NumericalDrift, and no numpy warning on the way
        drive = pt.Ladder5(rabi, detuning * rabi, -detuning * rabi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pt.NumericalDrift, match=r"dt = 1\.16e-06"):
                if stacked:
                    H = np.stack([pt.build_hamiltonian(pt.Ladder5(1.0, 0.0, 0.0)),
                                  pt.build_hamiltonian(drive)]).real
                    dynamics.drive_populations(H, gamma, np.eye(5) / 5, 1.16e-6)
                else:
                    pt.make_propagator(pt.EvolutionModel(drive, gamma), 1.16e-6)

    def test_singular_pade_denominator_raises_numerical_drift(self, monkeypatch, ladder_model):
        # theta_13 keeps q_13's zeros away from the scaled A's spectrum, so
        # numpy's refusal is forced here
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(pt.NumericalDrift, match=r"dt = 1\.16e-06"):
            pt.make_propagator(ladder_model, 1.16e-6)
