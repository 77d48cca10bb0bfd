"""Independent reference implementations for pinning expected values.

Everything here deliberately avoids the package's sphere optimizer: sphere
maxima come from a dense Fibonacci scan polished with scipy.  Every
spectrum in the package comes from LAPACK, so the independent check on
the PSD gate, the entropies and ``hermitian_eigen`` is a self-contained
cyclic complex Jacobi eigensolver (``jacobi_eigen``) with the same phase
and order convention, and ``kron_state`` is the nine-Kronecker-product
form of the state matrix.  ``axial_reference_formula`` is a published
closed form for the r = 0 axial branch that is known to be wrong (it
gives 1 on a product state); it is kept only as a counterexample.
Frozen regression constants in the test modules were produced by these
routines.  The phase-damped objective and mutual information are written
out by hand from the undamped parameters, independently of the package's
parameter rescale.  ``serial_sphere_search`` is the one-search-at-a-time
form of the sphere optimizer (a Python loop that keeps each grid's first
maximal point and moves only to a strictly higher value, ``np.cross``),
which the lockstep engine must reproduce bit for bit.
``draw_general_batch_reference`` is the general sampler without its
pre-eigensolve screen; the package's sampler must return the same draws
and leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from discordkit import BlochParams, SphereOptConfig, build_state, fibonacci_grid
from discordkit.density import IDENTITY2, PAULI


def eigh_spectrum(rho: np.ndarray) -> np.ndarray:
    """Descending spectrum via numpy (reference for the Jacobi solver)."""
    return np.linalg.eigvalsh(rho)[::-1]


_OFFDIAG_TARGET = 1e-13
_MAX_SWEEPS = 100


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(np.abs(off) ** 2)))


def _jacobi_sweep(a: np.ndarray, v: np.ndarray) -> None:
    """One cyclic sweep of complex Jacobi rotations, in place."""
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            m = abs(apq)
            if m == 0.0:
                continue
            phase = apq / m
            tau = (a[q, q].real - a[p, p].real) / (2.0 * m)
            if tau == 0.0:
                t = 1.0
            else:
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
            cth = 1.0 / np.sqrt(1.0 + t * t)
            sth = t * cth
            rot = np.eye(n, dtype=complex)
            rot[p, p] = cth
            rot[p, q] = sth
            rot[q, p] = -sth * np.conj(phase)
            rot[q, q] = cth * np.conj(phase)
            a[:] = rot.conj().T @ a @ rot
            v[:] = v @ rot


def _jacobi_decompose(rho: np.ndarray, max_sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    a = 0.5 * (np.asarray(rho, dtype=complex) + np.asarray(rho, dtype=complex).conj().T)
    v = np.eye(a.shape[0], dtype=complex)
    for sweep in range(max_sweeps + 1):
        off = _offdiag_norm(a)
        if off < _OFFDIAG_TARGET:
            return np.diag(a).real.copy(), v
        if sweep == max_sweeps:
            raise RuntimeError(
                f"off-diagonal norm {off:.3e} above {_OFFDIAG_TARGET}"
                f" after {max_sweeps} sweeps"
            )
        _jacobi_sweep(a, v)
    raise AssertionError("unreachable")


def _phase_fixed(vec: np.ndarray) -> np.ndarray:
    for comp in vec:
        if abs(comp) > 1e-12:
            return vec * (np.conj(comp) / abs(comp))
    return vec


def spectrum_convention(
    lam: np.ndarray, vecs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The output convention of ``hermitian_eigen``, one column at a time:
    each eigenvector's first component above 1e-12 in magnitude made real
    and positive, eigenvalues descending, exact ties ordered by the larger
    eigenvector, compared by real then imaginary part, component by
    component."""
    cols = [_phase_fixed(vecs[:, i].copy()) for i in range(len(lam))]

    def sort_key(i: int):
        flat = []
        for comp in cols[i]:
            flat.extend((-comp.real, -comp.imag))
        return (-lam[i], tuple(flat))

    order = sorted(range(len(lam)), key=sort_key)
    return np.array([lam[i] for i in order]), np.column_stack([cols[i] for i in order])


def jacobi_eigen(
    rho: np.ndarray, max_sweeps: int = _MAX_SWEEPS
) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of the Hermitian part of ``rho`` by
    cyclic complex Jacobi rotations, in the convention of
    ``hermitian_eigen`` (:func:`spectrum_convention`).

    The rotation order is fixed and the off-diagonal Frobenius target is
    1e-13; ``RuntimeError`` when the sweep budget runs out first.
    """
    return spectrum_convention(*_jacobi_decompose(rho, max_sweeps))


def axial_reference_formula(params: BlochParams) -> float:
    """The published closed form for the r = 0, c1 = c2 = 0 branch,

        Q = H_0(|s| / sqrt(s1^2 + s2^2 + (c3 + s3)^2)),

    which contradicts the product-state limit (1 where the discord is 0).
    ``ValueError`` where it is undefined: a zero denominator, or an
    argument of H_0 above 1."""
    s = params.s
    denom = float(np.sqrt(s[0] ** 2 + s[1] ** 2 + (params.c[2] + s[2]) ** 2))
    if denom <= 1e-12:
        raise ValueError("axial reference formula undefined: zero denominator")
    x = params.s_norm / denom
    if x > 1.0 + 1e-12:
        raise ValueError(f"axial reference formula undefined: H_0 argument {x:.3e}")
    return _entropic_h(0.0, x)


def kron_state(params: BlochParams) -> np.ndarray:
    """The family matrix as the sum of nine Kronecker products, ungated."""
    rho = np.kron(IDENTITY2, IDENTITY2).astype(complex)
    for i in range(3):
        rho += params.r[i] * np.kron(PAULI[i], IDENTITY2)
        rho += params.s[i] * np.kron(IDENTITY2, PAULI[i])
        rho += params.c[i] * np.kron(PAULI[i], PAULI[i])
    rho *= 0.25
    return 0.5 * (rho + rho.conj().T)


def draw_general_batch_reference(
    rng: np.random.Generator, count: int, margin: float
) -> list[BlochParams]:
    """General rejection sampler running eigvalsh on every candidate of
    each 4096-draw batch."""
    batch = 4096
    accepted: list[BlochParams] = []
    while len(accepted) < count:
        r = rng.uniform(-1.0, 1.0, size=(batch, 3))
        s = rng.uniform(-1.0, 1.0, size=(batch, 3))
        c = rng.uniform(-1.0, 1.0, size=(batch, 3))
        rho = np.tile(np.eye(4, dtype=complex)[None], (batch, 1, 1))
        for i in range(3):
            rho += r[:, i, None, None] * np.kron(PAULI[i], IDENTITY2)[None]
            rho += s[:, i, None, None] * np.kron(IDENTITY2, PAULI[i])[None]
            rho += c[:, i, None, None] * np.kron(PAULI[i], PAULI[i])[None]
        rho *= 0.25
        smallest = np.linalg.eigvalsh(rho)[:, 0]
        for idx in np.nonzero(smallest >= margin)[0]:
            if len(accepted) == count:
                break
            accepted.append(BlochParams(r[idx], s[idx], c[idx]))
    return accepted


def _xlog2(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    mask = x > 1e-15
    out[mask] = x[mask] * np.log2(x[mask])
    return out


def _entropy(rho: np.ndarray) -> float:
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    return float(-np.sum(_xlog2(lam)))


def _entropic_h(eps, x):
    """H_eps(x) = [(1+eps+x) log2(1+eps+x) + (1+eps-x) log2(1+eps-x)] / 2."""
    eps, x = np.broadcast_arrays(np.asarray(eps, dtype=float), np.asarray(x, dtype=float))
    out = 0.5 * (_xlog2(1.0 + eps + x) + _xlog2(1.0 + eps - x))
    return float(out) if out.ndim == 0 else out


def bell_diagonal_discord(c) -> float:
    """Luo's discord of the Bell-diagonal state (1/4)(I + sum_i c_i s_i (x) s_i),
    PRA 77, 042303 (2008): I = 2 + sum_k lam_k log2 lam_k over the
    eigenvalues (1 - c1 - c2 - c3)/4, (1 - c1 + c2 + c3)/4,
    (1 + c1 - c2 + c3)/4 and (1 + c1 + c2 - c3)/4,
    C = [(1 - m) log2(1 - m) + (1 + m) log2(1 + m)]/2 with m = max |c_i|,
    and Q = I - C."""
    c1, c2, c3 = c
    lam = np.array([1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3, 1 + c1 + c2 - c3]) / 4
    m = max(abs(c1), abs(c2), abs(c3))
    mutual = 2.0 + float(np.sum(_xlog2(lam)))
    return mutual - 0.5 * float(np.sum(_xlog2(np.array([1.0 - m, 1.0 + m]))))


def mutual_information_reference(params: BlochParams) -> float:
    """S(rho_a) + S(rho_b) - S(rho) from numpy spectra of the three states."""
    rho = build_state(params)
    rho_r = rho.reshape(2, 2, 2, 2)
    rho_a = np.einsum("ikjk->ij", rho_r)
    rho_b = np.einsum("kikj->ij", rho_r)
    return _entropy(rho_a) + _entropy(rho_b) - _entropy(rho)


def conditional_entropy_reference(params: BlochParams, axis: np.ndarray) -> float:
    """Definitional branch-entropy sum, built from 2x2 matrices and numpy."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    axis = np.asarray(axis, dtype=float)
    total = 0.0
    for sign in (1.0, -1.0):
        p = (1.0 + sign * float(params.s @ axis)) / 2.0
        if p < 1e-14:
            continue
        v = (params.r + sign * params.c * axis) / (2.0 * p)
        rho_k = 0.5 * (np.eye(2, dtype=complex) + v[0] * sx + v[1] * sy + v[2] * sz)
        total += p * _entropy(rho_k)
    return total


def _hemisphere_grid(n: int) -> np.ndarray:
    k = np.arange(n) + 0.5
    z3 = k / n
    phi = k * (np.pi * (3.0 - np.sqrt(5.0)))
    rho = np.sqrt(1.0 - z3 * z3)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z3], axis=1)


def max_correlation_reference(
    params: BlochParams, n_grid: int = 60000, polish_starts: int = 10
) -> float:
    """Sphere maximum of 1 - conditional entropy by dense scan plus
    Nelder-Mead polish; independent of the package optimizer."""
    grid = _hemisphere_grid(n_grid)
    coarse = np.array(
        [conditional_entropy_reference(params, z) for z in grid[:: n_grid // 600]]
    )
    # refine only around the most promising coarse points
    order = np.argsort(coarse)

    def objective(angles):
        th, ph = angles
        z = np.array(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
        )
        return conditional_entropy_reference(params, z)

    best = np.inf
    subset = grid[:: n_grid // 600]
    for idx in order[:polish_starts]:
        z0 = subset[idx]
        th0 = float(np.arccos(np.clip(z0[2], -1, 1)))
        ph0 = float(np.arctan2(z0[1], z0[0]))
        res = minimize(
            objective,
            [th0, ph0],
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000},
        )
        best = min(best, float(res.fun))
    return 1.0 - best


def discord_reference(params: BlochParams) -> float:
    """Discord from numpy entropies and the reference maximizer."""
    rho_a = np.einsum("ikjk->ij", build_state(params).reshape(2, 2, 2, 2))
    classical = _entropy(rho_a) - (1.0 - max_correlation_reference(params))
    return mutual_information_reference(params) - classical


def _damped_marginal_norms(params: BlochParams, gamma: float) -> tuple[float, float]:
    r, s = params.r, params.s
    rn = np.sqrt(max(float(r @ r) - gamma * (r[0] ** 2 + r[1] ** 2), 0.0))
    sn = np.sqrt(max(float(s @ s) - gamma * (s[0] ** 2 + s[1] ** 2), 0.0))
    return rn, sn


def damped_objective_reference(params: BlochParams, gamma: float, axis):
    """Correlation objective of the phase-damped state, expanded from the
    undamped parameters.  With f = sqrt(1-gamma):

        eps_+ = f (s1 z1 + s2 z2) + s3 z3,   eps_- = -eps_+
        d_+-  = sqrt( (1-gamma) [ (r1 +- f c1 z1)^2 + (r2 +- f c2 z2)^2 ]
                      + (r3 +- c3 z3)^2 )
        G~(z) = -H_0(eps_+) + H_{eps_+}(d_+)/2 + H_{eps_-}(d_-)/2
    """
    z = np.atleast_2d(np.asarray(axis, dtype=float))
    f = np.sqrt(1.0 - gamma)
    r, s, c = params.r, params.s, params.c
    eps = f * (s[0] * z[:, 0] + s[1] * z[:, 1]) + s[2] * z[:, 2]
    d_plus = np.sqrt(
        (1.0 - gamma)
        * ((r[0] + f * c[0] * z[:, 0]) ** 2 + (r[1] + f * c[1] * z[:, 1]) ** 2)
        + (r[2] + c[2] * z[:, 2]) ** 2
    )
    d_minus = np.sqrt(
        (1.0 - gamma)
        * ((r[0] - f * c[0] * z[:, 0]) ** 2 + (r[1] - f * c[1] * z[:, 1]) ** 2)
        + (r[2] - c[2] * z[:, 2]) ** 2
    )
    g = (
        -_entropic_h(0.0, eps)
        + 0.5 * _entropic_h(eps, d_plus)
        + 0.5 * _entropic_h(-eps, d_minus)
    )
    return g if np.ndim(axis) == 2 else float(g[0])


def _kraus_damped_state(params: BlochParams, gamma: float) -> np.ndarray:
    k1 = np.diag([1.0, np.sqrt(1.0 - gamma)])
    k2 = np.diag([0.0, np.sqrt(gamma)])
    rho = build_state(params)
    out = np.zeros((4, 4), dtype=complex)
    for ki in (k1, k2):
        for kj in (k1, k2):
            big = np.kron(ki, kj)
            out += big @ rho @ big.conj().T
    return out


def damped_mutual_information_reference(params: BlochParams, gamma: float) -> float:
    """Mutual information of the phase-damped state in the expanded form

        I = 2 - H_0(sqrt(|r|^2 - g r1^2 - g r2^2))
              - H_0(sqrt(|s|^2 - g s1^2 - g s2^2)) + sum_i L_i log2 L_i

    with L_i the numpy spectrum of the Kraus-damped matrix."""
    rn, sn = _damped_marginal_norms(params, gamma)
    lam = np.clip(np.linalg.eigvalsh(_kraus_damped_state(params, gamma)), 0.0, None)
    return float(
        2.0 - _entropic_h(0.0, rn) - _entropic_h(0.0, sn) + np.sum(_xlog2(lam))
    )


def damped_discord_reference(params: BlochParams, gamma: float, maximize) -> float:
    """Discord of the phase-damped state from the expanded damped formulas;
    ``maximize(f)`` returns the sphere maximum of a batch objective ``f``."""
    rn, _ = _damped_marginal_norms(params, gamma)
    g_max = maximize(lambda z: damped_objective_reference(params, gamma, z))
    classical = g_max - _entropic_h(0.0, rn)
    return damped_mutual_information_reference(params, gamma) - classical


_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def _serial_best(points: np.ndarray, values: np.ndarray) -> tuple[float, np.ndarray]:
    """The maximum value and the first point that reaches it."""
    best = None
    for point, value in zip(points, values):
        if best is None or value > best[0]:
            best = (float(value), point)
    return best[0], np.array(best[1], dtype=float)


def _serial_cap_grid(center, radius, m, hemisphere):
    pick = int(np.argmin(np.abs(center)))
    helper = np.zeros(3)
    helper[pick] = 1.0
    e1 = np.cross(center, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    j = np.arange(m) + 0.5
    dist = radius * np.sqrt(j / m)
    ang = j * _GOLDEN_ANGLE
    pts = (
        np.cos(dist)[:, None] * center[None, :]
        + np.sin(dist)[:, None]
        * (np.cos(ang)[:, None] * e1[None, :] + np.sin(ang)[:, None] * e2[None, :])
    )
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    if hemisphere:
        pts[pts[:, 2] < 0.0] *= -1.0
    return pts


def serial_sphere_search(f, cfg: SphereOptConfig) -> tuple[float, np.ndarray, int]:
    """(value, axis, evaluations) of the Fibonacci pass plus shrinking cap
    rounds, one objective call per grid on an (m, 3) array.  Each grid's
    candidate is its first maximal point, and a round replaces the
    incumbent only on a strictly higher value."""
    grid = fibonacci_grid(cfg.grid_points, full_sphere=not cfg.hemisphere)
    best_value, best_axis = _serial_best(grid, np.asarray(f(grid), dtype=float))
    evaluations = len(grid)
    radius = min(np.pi / 2.0, 10.0 / np.sqrt(cfg.grid_points))
    for _ in range(cfg.refine_rounds):
        local = _serial_cap_grid(best_axis, radius, cfg.local_points, cfg.hemisphere)
        value, axis = _serial_best(local, np.asarray(f(local), dtype=float))
        evaluations += len(local)
        if value > best_value:
            best_value, best_axis = value, axis
        radius *= cfg.shrink_factor
    return best_value, best_axis, evaluations
