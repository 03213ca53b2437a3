"""Independent reference computations used to validate the package.

Everything here is deliberately written from the defining formulas
(projector sums, explicit commutators, fixed-step RK4, closed-form
solutions) and never touches the package's vectorized-propagator code
path, so agreement between the two is meaningful.  Three exceptions
pin arithmetic, not physics: ``reference_record`` pins the record
sampler's draw order and memory layout, so it propagates with the
package's ``make_propagator``; ``linear_inversion_reference`` pins the
inversion start's design and weights, so it reads the package's
predictor matrix and ends in the package's parameter map;
``nelder_mead_reference`` pins the simplex's rounding, so it is the
plain loop (a full sort and a ``mean`` every iteration) with the
package's coefficients.
"""

import math

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


def populations(rho):
    """Sublevel occupations of a DensityMatrix: the real part of its diagonal."""
    return np.diag(rho.matrix).real


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


def kron_liouvillian(H, gamma):
    """-i(I (x) H - H^T (x) I) plus the diagonal dephasing, through np.kron.

    The generator's kron form, with -i applied to the difference and the
    damping added after it: the package's broadcast build must match it
    byte for byte, signed zeros included.
    """
    n = H.shape[0]
    eye = np.eye(n)
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    if gamma != 0.0:
        damp = np.full(n * n, -2.0 * gamma)
        damp[np.arange(n) * (n + 1)] = 0.0
        L += np.diag(damp)
    return L


def ladder5_literal(w, d1, d2):
    """The Ladder5 matrix written out entry by entry, as one complex array literal.

    ``build_hamiltonian`` assembles the same matrix from ``ladder_diagonal``
    and must match it byte for byte, signed zeros included.
    """
    ws = np.sqrt(1.5) * w
    return np.array(
        [
            [-d2, w, 0.0, 0.0, 0.0],
            [w, -d1, ws, 0.0, 0.0],
            [0.0, ws, 0.0, ws, 0.0],
            [0.0, 0.0, ws, d1, w],
            [0.0, 0.0, 0.0, w, d2],
        ],
        dtype=complex,
    )


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
                rows = extract @ pt.make_propagator(model, t) if t > 0 else extract
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
        step = pt.make_propagator(model, cfg.sample_interval)
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


def linear_inversion_reference(predictor, record):
    """Per-level weighted lstsq start through an explicit float design.

    Design column 2(i n + j) is the real part, column 2(i n + j) + 1 the
    imaginary part, of conj(M)'s column-stacked slot i + j n, so that the
    solution's float pair (2(i n + j), 2(i n + j) + 1) is Re and Im of the
    estimate's entry (i, j).  Row (t, i) and its target are scaled by
    sqrt(w_it / sum_t w_it) with w = 1/sigma^2.  Symmetrizes the estimate,
    then clips its eigenvalues at 0 and rescales them, or, where none is
    positive, projects them onto the simplex by a sort, a running sum and
    a threshold, and maps the state to parameters as
    ``tomography._linear_inversion_start`` does.
    """
    from poptomo.tomography import _params_for_state

    n = record.dim
    conj = np.conjugate(predictor.matrix)
    design = np.empty((conj.shape[0], 2 * n * n))
    for i in range(n):
        for j in range(n):
            design[:, 2 * (i * n + j)] = conj[:, i + j * n].real
            design[:, 2 * (i * n + j) + 1] = conj[:, i + j * n].imag
    weights = 1.0 / np.square(record.sigmas)
    scale = np.sqrt(weights / weights.sum(axis=1, keepdims=True)).T.reshape(-1)
    design *= scale[:, None]
    target = record.means.T.reshape(-1) * scale
    floats = np.linalg.lstsq(design, target, rcond=None)[0]
    estimate = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            estimate[i, j] = complex(floats[2 * (i * n + j)], floats[2 * (i * n + j) + 1])
    w, v = np.linalg.eigh(0.5 * (estimate + estimate.conj().T))
    clipped = np.clip(w, 0.0, None)
    total = clipped.sum()
    if total > 0.0:
        w = clipped / total
    else:
        running = 0.0
        for k, u in enumerate(sorted(w, reverse=True), start=1):
            running += u
            if u > (running - 1.0) / k:
                tau = (running - 1.0) / k
        w = np.array([max(0.0, x - tau) for x in w])
    physical = (v * w) @ v.conj().T
    return _params_for_state(physical, n)


def nelder_mead_reference(f, x0, max_evals=200_000):
    """The simplex with a full stable argsort, two fancy-index copies and a
    ``mean`` centroid every iteration, as the defining algorithm reads.

    Counts evaluations, stops on the budget and maps one non-finite value
    to +inf as ``nelder_mead`` does.  Returns (best_x, best_f, evals,
    reason, stopped_in_shrink).
    """
    import poptomo as pt
    from poptomo import optimize as o

    class Budget(Exception):
        pass

    counts = {"evals": 0, "nonfinite": 0}

    def ev(x):
        if counts["evals"] >= max_evals:
            raise Budget
        counts["evals"] += 1
        value = float(f(x))
        if not math.isfinite(value):
            counts["nonfinite"] += 1
            if counts["nonfinite"] > 1:
                raise pt.NonFiniteObjective("objective returned a non-finite value more than once")
            value = math.inf
        return value

    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    steps = np.where(x0 != 0.0, o.INITIAL_STEP * x0, o.INITIAL_STEP)
    sim = np.repeat(x0[np.newaxis, :], n + 1, axis=0)
    for k in range(n):
        sim[k + 1, k] += steps[k]
    fsim = np.full(n + 1, math.inf)
    reason, in_shrink = None, False
    try:
        for i in range(n + 1):
            fsim[i] = ev(sim[i])
    except Budget:
        reason = o.MAX_EVALS
    while reason is None:
        order = np.argsort(fsim, kind="stable")
        sim = sim[order]
        fsim = fsim[order]
        if np.abs(sim[1:] - sim[0]).max() < o.X_TOL:
            reason = o.XTOL
            break
        if fsim[-1] - fsim[0] < o.F_TOL:
            reason = o.FTOL
            break
        try:
            centroid = sim[:-1].mean(axis=0)
            xr = centroid + o.REFLECTION * (centroid - sim[-1])
            fr = ev(xr)
            if fr < fsim[0]:
                xe = centroid + o.REFLECTION * o.EXPANSION * (centroid - sim[-1])
                fe = ev(xe)
                if fe < fr:
                    sim[-1], fsim[-1] = xe, fe
                else:
                    sim[-1], fsim[-1] = xr, fr
            elif fr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fr
            else:
                coef = o.CONTRACTION * o.REFLECTION if fr < fsim[-1] else -o.CONTRACTION
                xc = centroid + coef * (centroid - sim[-1])
                fc = ev(xc)
                if fc <= fr and fc < fsim[-1]:
                    sim[-1], fsim[-1] = xc, fc
                else:
                    in_shrink = True
                    for i in range(1, n + 1):
                        xs = sim[0] + o.SHRINK * (sim[i] - sim[0])
                        fs = ev(xs)
                        sim[i], fsim[i] = xs, fs
                    in_shrink = False
        except Budget:
            reason = o.MAX_EVALS
    best = int(np.argmin(fsim))
    return sim[best].copy(), float(fsim[best]), counts["evals"], reason, in_shrink
