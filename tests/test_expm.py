"""make_propagator against SciPy's expm, which runs the same published algorithm.

``dynamics.expm`` is Al-Mohy and Higham's (2009) scaling and squaring in
numpy alone.  SciPy solves the Pade system through another factorization,
so the two agree to rounding, not bit for bit: within RTOL of the largest
entry of SciPy's result.  SciPy is a test dependency only.
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

# theta_m of Al-Mohy and Higham (2009), Table 3.1: degree m is used while
# eta stays below theta_m, degree 13 after s halvings of eta
THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
         9: 2.097847961257068, 13: 4.25}
# (degree, squarings) -> the eta band that selects it
BANDS = {
    (3, 0): (0.0, THETA[3]),
    (5, 0): (THETA[3], THETA[5]),
    (7, 0): (THETA[5], THETA[7]),
    (9, 0): (THETA[7], THETA[9]),
    (13, 0): (THETA[9], THETA[13]),
    (13, 1): (THETA[13], 2.0 * THETA[13]),
    (13, 3): (4.0 * THETA[13], 8.0 * THETA[13]),
}


def eta(a, degree):
    """The eta that the paper's Algorithm 5.1 compares with theta_degree."""
    d = {k: np.linalg.norm(np.linalg.matrix_power(a, k), 1) ** (1 / k) for k in (4, 6, 8, 10)}
    if degree <= 5:
        return max(d[4], d[6])
    if degree <= 9:
        return max(d[6], d[8])
    return min(max(d[6], d[8]), max(d[8], d[10]))


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
    @pytest.mark.parametrize("structure", list(BANDS), ids=lambda ms: "m%d-s%d" % ms)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), damped=st.booleans(), position=st.floats(0.05, 0.35))
    def test_each_degree_with_and_without_squaring(self, structure, seed, damped, position):
        # dt puts eta in the lower part of the band: near its top the
        # backward error check may still ask for the next degree
        model = drawn_model(seed, damped)
        L = generator(model)
        lo, hi = BANDS[structure]
        dt = (lo + position * (hi - lo)) / eta(L, structure[0])
        m, s, _ = dynamics._pade_structure(L * dt)
        assert (m, int(s)) == structure
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
    def test_stack_slices_are_the_scalar_steps(self, drives, gamma, dt):
        # dt up to 60 spans every degree and up to 6 squarings at unit scale
        specs = [pt.Ladder5(*drive) for drive in drives]
        stack = np.stack([pt.build_hamiltonian(spec) for spec in specs])
        steps = pt.make_propagator((stack, gamma), dt)
        for spec, step in zip(specs, steps):
            model = pt.EvolutionModel(spec, gamma)
            assert step.tobytes() == pt.make_propagator(model, dt).tobytes()
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
        # the generator is finite, its powers overflow: no error bound, a
        # non-finite step, and no numpy warning on the way
        drive = pt.Ladder5(rabi, detuning * rabi, -detuning * rabi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pt.NumericalDrift, match=r"dt = 1\.16e-06"):
                if stacked:
                    H = np.stack([pt.build_hamiltonian(pt.Ladder5(1.0, 0.0, 0.0)),
                                  pt.build_hamiltonian(drive)])
                    pt.make_propagator((H, gamma), 1.16e-6)
                else:
                    pt.make_propagator(pt.EvolutionModel(drive, gamma), 1.16e-6)

    def test_singular_pade_denominator_raises_numerical_drift(self, monkeypatch, ladder_model):
        # theta_m keeps q(A)'s zeros away from a selected A's spectrum, so
        # numpy's refusal is forced here
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(pt.NumericalDrift, match=r"dt = 1\.16e-06"):
            pt.make_propagator(ladder_model, 1.16e-6)
