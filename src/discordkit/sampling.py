"""Seeded random draws of physical Bloch parameters, one helper per
closed-form family plus a general rejection sampler.

Draws stay a small margin away from the positivity boundary so that every
closed form evaluates on strictly positive log arguments.
"""

from __future__ import annotations

import numpy as np

from .density import BlochParams, _family_matrix, _isotropic_spectrum, _planar_radii

_MARGIN = 1e-6
_BATCH = 4096
# Rounding slack of the pre-eigensolve screen in draw_general_batch.
_SCREEN_SLACK = 1e-12


def _unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def _draw_isotropic(rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """c and the one nonzero marginal of a uniform-c family draw."""
    while True:
        c = rng.uniform(-1.0, 1.0)
        norm = rng.uniform(0.0, 1.0)
        if _isotropic_spectrum(norm, c).min() >= _MARGIN:
            return c, norm * _unit(rng)


def draw_s0_isotropic(rng: np.random.Generator) -> BlochParams:
    """s = 0, c1 = c2 = c3 = c, random direction for r."""
    c, r = _draw_isotropic(rng)
    return BlochParams(r, [0, 0, 0], [c, c, c])


def draw_r0_isotropic(rng: np.random.Generator) -> BlochParams:
    """r = 0, c1 = c2 = c3 = c, random direction for s."""
    c, s = _draw_isotropic(rng)
    return BlochParams([0, 0, 0], s, [c, c, c])


def draw_axial_zero(rng: np.random.Generator) -> BlochParams:
    """s = 0, c1 = c2 = 0: the zero-discord (and damping-invariant) family."""
    e3 = np.array([0.0, 0.0, 1.0])
    while True:
        r = rng.uniform(-1.0, 1.0, size=3)
        c3 = rng.uniform(-1.0, 1.0)
        lo = min(
            1.0 - np.linalg.norm(r + c3 * e3),
            1.0 - np.linalg.norm(r - c3 * e3),
        )
        if lo / 4.0 >= _MARGIN:
            return BlochParams(r, [0, 0, 0], [0, 0, c3])


def draw_s0_planar(rng: np.random.Generator) -> BlochParams:
    """s = 0, c3 = 0, c1 = c2 = c, random r."""
    while True:
        r = rng.uniform(-1.0, 1.0, size=3)
        c = rng.uniform(-1.0, 1.0)
        if (1.0 - _planar_radii(r, c)[0]) / 4.0 >= _MARGIN:
            return BlochParams(r, [0, 0, 0], [c, c, 0])


def draw_general_batch(
    rng: np.random.Generator, count: int, margin: float = _MARGIN
) -> list[BlochParams]:
    """Unrestricted physical draws by vectorized rejection on the smallest
    eigenvalue.

    The acceptance rate of the full parameter box is ~0.1%, so candidates
    come in batches of 4096.  Two necessary conditions for
    lambda_min >= margin screen them before the eigensolve: the smallest
    diagonal entry bounds lambda_min from above (Rayleigh quotient), and
    rho >= margin*I implies rho_a, rho_b >= 2*margin*I, i.e.
    |r|, |s| <= 1 - 4*margin.  Both carry a 1e-12 slack, so the screen
    rejects only candidates the eigenvalue test would reject too.
    """
    accepted: list[BlochParams] = []
    norm_cap = 1.0 - 4.0 * margin + _SCREEN_SLACK
    while len(accepted) < count:
        r = rng.uniform(-1.0, 1.0, size=(_BATCH, 3))
        s = rng.uniform(-1.0, 1.0, size=(_BATCH, 3))
        c = rng.uniform(-1.0, 1.0, size=(_BATCH, 3))
        rho = np.moveaxis(_family_matrix(r.T, s.T, c.T), -1, 0)
        diag_min = np.diagonal(rho, axis1=1, axis2=2).real.min(axis=1)
        keep = np.nonzero(
            (diag_min >= margin - _SCREEN_SLACK)
            & (np.linalg.norm(r, axis=1) <= norm_cap)
            & (np.linalg.norm(s, axis=1) <= norm_cap)
        )[0]
        smallest = np.linalg.eigvalsh(rho[keep])[:, 0]
        for idx in keep[smallest >= margin]:
            if len(accepted) == count:
                break
            accepted.append(BlochParams(r[idx], s[idx], c[idx]))
    return accepted


def draw_general(rng: np.random.Generator, margin: float = _MARGIN) -> BlochParams:
    """Single unrestricted physical draw."""
    return draw_general_batch(rng, 1, margin)[0]
