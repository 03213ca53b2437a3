"""Independent reference computations used to validate the package.

Everything here is deliberately written from the defining formulas
(projector sums, explicit commutators, fixed-step RK4, closed-form
solutions) and never touches the package's vectorized-propagator code
path, so agreement between the two is meaningful.  The two exceptions
pin arithmetic, not physics: ``reference_record`` pins the record
sampler's draw order and memory layout, so it propagates with the
package's ``make_propagator``; ``linear_inversion_reference`` pins the
inversion start's design, so it reads the package's predictor matrix
and ends in the package's parameter map.
"""

import numpy as np


def projector_dissipator(m, gamma):
    """Literal dephasing term: sum_j gamma * (-{P_j, m} + 2 P_j m P_j)."""
    n = m.shape[-1]
    out = np.zeros_like(m)
    for j in range(n):
        P = np.zeros((n, n), dtype=complex)
        P[j, j] = 1.0
        out += -(P @ m + m @ P) + 2.0 * (P @ m @ P)
    return gamma * out


def rhs_direct(m, H, gamma):
    """-i[H, m] plus the projector-sum dissipator, no shortcuts."""
    return -1j * (H @ m - m @ H) + projector_dissipator(m, gamma)


def _rhs_batched(m, H, gamma, diag_mask):
    """Batched rhs for stacks of states/models; same math as rhs_direct.

    The projector sum collapses to masking because the projectors are
    the diagonal basis: sum_j P_j m P_j keeps the diagonal, sum_j {P_j, m}
    is 2 m.  (Verified against projector_dissipator in the tests.)
    """
    comm = H @ m - m @ H
    return -1j * comm + 2.0 * gamma[..., None, None] * (m * diag_mask - m)


def rk4_population_trajectories(rho0, H, gamma, dt, total_steps, stride):
    """Fixed-step RK4 of the master equation, sampling every ``stride`` steps.

    Accepts single matrices or leading batch dimensions.  Returns an
    array (..., n, n_kept) of populations including the t=0 column.
    """
    m = np.array(rho0, dtype=complex)
    H = np.asarray(H, dtype=complex)
    gamma = np.asarray(gamma, dtype=float)
    n = m.shape[-1]
    diag_mask = np.eye(n)
    kept = [np.diagonal(m, axis1=-2, axis2=-1).real.copy()]
    for step in range(1, total_steps + 1):
        k1 = _rhs_batched(m, H, gamma, diag_mask)
        k2 = _rhs_batched(m + 0.5 * dt * k1, H, gamma, diag_mask)
        k3 = _rhs_batched(m + 0.5 * dt * k2, H, gamma, diag_mask)
        k4 = _rhs_batched(m + dt * k3, H, gamma, diag_mask)
        m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % stride == 0:
            kept.append(np.diagonal(m, axis1=-2, axis2=-1).real.copy())
    return np.stack(kept, axis=-1)


def dephased_state(rho0, gamma, t):
    """Closed-form solution for H = 0: coherences decay as exp(-2*gamma*t)."""
    m = np.array(rho0, dtype=complex)
    n = m.shape[0]
    factor = np.full((n, n), np.exp(-2.0 * gamma * t))
    np.fill_diagonal(factor, 1.0)
    return m * factor


def classical_fidelity(a, b):
    """Fidelity of two commuting (diagonal) states: (sum_i sqrt(a_i b_i))^2."""
    return float(np.sqrt(np.asarray(a) * np.asarray(b)).sum() ** 2)


def unitary_channel_matrix(H, dt):
    """conj(U) (x) U for column-stacked vec, via eigendecomposition of H."""
    w, v = np.linalg.eigh(H)
    U = (v * np.exp(-1j * w * dt)) @ v.conj().T
    return np.kron(U.conj(), U)


def random_density(rng, n, mix=0.0):
    """Random full-rank state: normalized G^H G, optionally blended to I/n."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g.conj().T @ g
    m = m / m.trace().real
    if mix:
        m = (1.0 - mix) * m + mix * np.eye(n) / n
    return m


def random_pure_density(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_hermitian(rng, n, scale):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) * (scale / 2.0)


def weighted_error_reference(predicted, measured, sigmas):
    """Hand-rolled evaluation of the weighted mean error formula."""
    n = measured.shape[0]
    weights = 1.0 / sigmas**2
    total = 0.0
    for i in range(n):
        num = float((weights[i] * np.abs(predicted[i] - measured[i]) ** 2).sum())
        den = float(weights[i].sum())
        total += np.sqrt(num / den)
    return total / n


def reference_record(rho, cfg):
    """(means, sigmas) of ``synthesize_record`` drawn shot group by shot group.

    The plain path draws one multinomial call of ``repeats`` shots per
    time column from prefix products of one cached step; the drift path
    draws all offsets shot by shot, then one multinomial call per shot
    and time, each from ``extract @ exp(L*t)`` under that shot's shifted
    ladder.  Arrays keep the layouts these loops produce.
    """
    import poptomo as pt

    n = rho.dim
    extract = np.zeros((n, n * n), dtype=complex)
    extract[np.arange(n), np.arange(n) * (n + 1)] = 1.0
    rho_vec = rho.matrix.reshape(-1, order="F")
    times = cfg.times
    rng = np.random.default_rng(cfg.rng_seed)
    atoms, repeats = cfg.atoms_per_shot, cfg.repeats
    if cfg.detuning_noise > 0.0:
        h = cfg.hamiltonian
        freqs = np.empty((repeats, n, times.size))
        for k in range(repeats):
            offsets = rng.normal(0.0, cfg.detuning_noise, size=times.size)
            for j, (t, xi) in enumerate(zip(times, offsets)):
                shifted = pt.Ladder5(h.rabi_omega, h.delta1 + xi, h.delta2 + 2.0 * xi)
                model = pt.EvolutionModel(hamiltonian=shifted, gamma=cfg.gamma)
                rows = extract @ pt.make_propagator(model, t).step_matrix if t > 0 else extract
                freqs[k, :, j] = (rows @ rho_vec).real
        if not cfg.noiseless:
            for k in range(repeats):
                for j in range(times.size):
                    probs = np.clip(freqs[k, :, j], 0.0, None)
                    freqs[k, :, j] = rng.multinomial(atoms, probs / probs.sum()) / atoms
        means = freqs.mean(axis=0)
        sigmas = freqs.std(axis=0, ddof=1) if repeats > 1 else np.zeros_like(means)
        if cfg.noiseless:
            means = means / means.sum(axis=0, keepdims=True)
    else:
        model = pt.EvolutionModel(hamiltonian=cfg.hamiltonian, gamma=cfg.gamma)
        step = pt.make_propagator(model, cfg.sample_interval).step_matrix
        blocks = [extract]
        for _ in times[1:]:
            blocks.append(blocks[-1] @ step)
        exact = (np.concatenate(blocks) @ rho_vec).real.reshape(times.size, n).T
        if cfg.noiseless:
            means, sigmas = exact, np.zeros_like(exact)
        else:
            means, sigmas = np.empty_like(exact), np.empty_like(exact)
            for j in range(times.size):
                probs = np.clip(exact[:, j], 0.0, None)
                shots = rng.multinomial(atoms, probs / probs.sum(), size=repeats) / atoms
                means[:, j] = shots.mean(axis=0)
                sigmas[:, j] = shots.std(axis=0, ddof=1) if repeats > 1 else 0.0
    return means, np.maximum(sigmas, pt.shot_noise_floor(repeats, atoms))


def hermitian_basis_columns(n):
    """vec() of a real basis of Hermitian n x n matrices, as columns.

    Order: E_ii for each i, then for each upper pair (i, j) in row-major
    order the symmetric E_ij + E_ji and the antisymmetric i(E_ij - E_ji).
    """
    columns = []
    for i in range(n):
        E = np.zeros((n, n), dtype=complex)
        E[i, i] = 1.0
        columns.append(E.reshape(-1, order="F"))
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = E[j, i] = 1.0
            columns.append(E.reshape(-1, order="F"))
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1j
            E[j, i] = -1j
            columns.append(E.reshape(-1, order="F"))
    return np.column_stack(columns)


def linear_inversion_reference(predictor, record):
    """Inverse-variance weighted lstsq start through an explicit Hermitian basis.

    Multiplies the basis into the predictor for the design, expands the
    coefficients back through it and symmetrizes, then clips and maps the
    state to parameters as ``tomography._linear_inversion_start`` does.
    """
    from poptomo.tomography import _params_for_state

    n = record.dim
    basis = hermitian_basis_columns(n)
    design = (predictor.matrix @ basis).real
    scale = np.sqrt((1.0 / np.square(record.sigmas)).T).reshape(-1)
    target = record.means.T.reshape(-1)
    coeffs = np.linalg.lstsq(design * scale[:, None], target * scale, rcond=None)[0]
    estimate = (basis @ coeffs).reshape((n, n), order="F")
    estimate = 0.5 * (estimate + estimate.conj().T)
    w, v = np.linalg.eigh(estimate)
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        return None
    physical = (v * (w / total)) @ v.conj().T
    return _params_for_state(physical, n)
