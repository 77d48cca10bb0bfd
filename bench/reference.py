"""Independent reference for every quantity the benchmark checks.

Nothing here imports discordkit.  States are assembled from Pauli
matrices, spectra come from ``numpy.linalg.eigvalsh``, damping applies the
Kraus operators to the 4x4 matrix, post-measurement states are partial
traces of the projected matrix, and the classical correlation is the
maximum of a dense Fibonacci scan of the hemisphere polished with scipy's
Nelder-Mead in a tangent chart around each start.  The route under test
(Jacobi solver, parameter formulas, sphere optimizer) shares no code with
it.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

_I2 = np.eye(2, dtype=complex)
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_SIGMA = np.stack(_PAULI)
_SCAN_POINTS = 8000
# Polish starts are the best scan points at least this far apart (radians,
# antipodes identified), so each local basin is polished once.
_POLISH_STARTS = 4
_START_SEPARATION = 0.2


def state(r, s, c) -> np.ndarray:
    """rho = (I + r.sigma x I + I x s.sigma + sum c_i sigma_i x sigma_i) / 4."""
    rho = np.eye(4, dtype=complex)
    for i, sig in enumerate(_PAULI):
        rho += r[i] * np.kron(sig, _I2)
        rho += s[i] * np.kron(_I2, sig)
        rho += c[i] * np.kron(sig, sig)
    return 0.25 * rho


def phase_damp(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Both qubits through phase damping, sum_ij (Ki x Kj) rho (Ki x Kj)^+."""
    k1 = np.diag([1.0, np.sqrt(1.0 - gamma)]).astype(complex)
    k2 = np.diag([0.0, np.sqrt(gamma)]).astype(complex)
    out = np.zeros((4, 4), dtype=complex)
    for ki in (k1, k2):
        for kj in (k1, k2):
            big = np.kron(ki, kj)
            out += big @ rho @ big.conj().T
    return out


def spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending."""
    return np.linalg.eigvalsh(rho)[::-1]


def _entropy(lam: np.ndarray) -> np.ndarray:
    """-sum lam log2 lam over the last axis, with lam <= 1e-15 dropped."""
    lam = np.clip(lam, 0.0, None)
    safe = np.where(lam > 1e-15, lam, 1.0)
    return -np.sum(np.where(lam > 1e-15, lam * np.log2(safe), 0.0), axis=-1)


def _marginals(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = rho.reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", t), np.einsum("kikj->ij", t)


def entropies(rho: np.ndarray) -> dict:
    """S(rho), S(rho_a), S(rho_b) and the mutual information, in bits."""
    rho_a, rho_b = _marginals(rho)
    s_ab = float(_entropy(np.linalg.eigvalsh(rho)))
    s_a = float(_entropy(np.linalg.eigvalsh(rho_a)))
    s_b = float(_entropy(np.linalg.eigvalsh(rho_b)))
    return {"S": s_ab, "S_a": s_a, "S_b": s_b, "mutual": s_a + s_b - s_ab}


def _conditional_entropy(rho: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """sum_k p_k S(rho_a^k) after measuring b along each row of ``axes``."""
    t = rho.reshape(2, 2, 2, 2)
    total = np.zeros(len(axes))
    for sign in (1.0, -1.0):
        proj = 0.5 * (
            _I2[None] + sign * np.einsum("ni,ijk->njk", axes, _SIGMA)
        )
        # rho_a^k[a, a'] = sum_{b, b'} rho[a b, a' b'] proj[b', b]
        cond = np.einsum("ibjc,ncb->nij", t, proj)
        p = np.real(np.trace(cond, axis1=1, axis2=2))
        keep = p > 1e-14
        lam = np.linalg.eigvalsh(cond[keep] / p[keep, None, None])
        total[keep] += p[keep] * _entropy(lam)
    return total


def _hemisphere(n: int) -> np.ndarray:
    k = np.arange(n) + 0.5
    z3 = k / n
    phi = k * (np.pi * (3.0 - np.sqrt(5.0)))
    rho = np.sqrt(1.0 - z3 * z3)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z3], axis=1)


def _chart(center: np.ndarray):
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(center)))] = 1.0
    e1 = np.cross(center, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)

    def point(uv):
        z = center + uv[0] * e1 + uv[1] * e2
        return (z / np.linalg.norm(z))[None, :]

    return point


def min_conditional_entropy(rho: np.ndarray) -> float:
    """Minimum over measurement axes on b of the conditional entropy."""
    grid = _hemisphere(_SCAN_POINTS)
    values = _conditional_entropy(rho, grid)
    best = float(values.min())
    starts: list[np.ndarray] = []
    for idx in np.argsort(values):
        z = grid[idx]
        if all(abs(z @ w) < np.cos(_START_SEPARATION) for w in starts):
            starts.append(z)
            if len(starts) == _POLISH_STARTS:
                break
    for z in starts:
        point = _chart(z)
        res = minimize(
            lambda uv: float(_conditional_entropy(rho, point(uv))[0]),
            np.zeros(2),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 2000,
                     "initial_simplex": [[0, 0], [0.02, 0], [0, 0.02]]},
        )
        best = min(best, float(res.fun))
    return best


def discord(rho: np.ndarray) -> dict:
    """Entropies plus classical correlation C and discord Q (measuring b)."""
    out = entropies(rho)
    out["C"] = out["S_a"] - min_conditional_entropy(rho)
    out["Q"] = out["mutual"] - out["C"]
    return out
