"""Miss audit of the default sphere search: on six corpora of gated states
the default search must reach the maximum that a 20000-point search finds,
within 1e-10.  Opt-in, since it runs about 110000 states through both
searches: ``python -m pytest -m slow tests/test_lattice_audit.py -s``
prints every shortfall above 1e-12.

A state's shortfall is max(reference, tested) - tested, on the maximum
of its correlation objective (the classical correlation up to the state's
-H_0(|r|)).  Both searches run through the one search of the numeric
route, in batches, so the 20000-point lattice values of a batch stay
below 32 MB.
"""

from __future__ import annotations

import numpy as np
import pytest

from discordkit.channels import _damped_rows
from discordkit.density import BlochParams, _family_matrix
from discordkit.discord import _correlation_search
from discordkit.sampling import (
    draw_axial_zero,
    draw_general_batch,
    draw_r0_isotropic,
    draw_s0_isotropic,
    draw_s0_planar,
)
from discordkit.sphereopt import SphereOptConfig

pytestmark = pytest.mark.slow

_REFERENCE = SphereOptConfig(grid_points=20000)
_BATCH = 200
_COUNT = 20000
_TOLERANCE = 1e-10
_REPORTED = 1e-12


def _x_states(rng: np.random.Generator, count: int, eps: float = 0.0) -> list[BlochParams]:
    """X states r = (0, 0, r3), s = (0, 0, s3), r3, s3 ~ U[-1, 1], c ~
    U[-1, 1]^3, with eps N(0, 1) added to the first two components of r
    and s (near-X states), kept where the smallest eigenvalue is at least
    1e-6: candidates come 4096 at a time, in the order r3, s3, c, noise."""
    states: list[BlochParams] = []
    while len(states) < count:
        r = np.zeros((4096, 3))
        s = np.zeros((4096, 3))
        r[:, 2], s[:, 2] = rng.uniform(-1.0, 1.0, size=(2, 4096))
        c = rng.uniform(-1.0, 1.0, size=(4096, 3))
        noise = eps * rng.normal(size=(4096, 4))
        r[:, :2] += noise[:, :2]
        s[:, :2] += noise[:, 2:]
        rho = np.moveaxis(_family_matrix(r.T, s.T, c.T), -1, 0)
        keep = np.linalg.eigvalsh(rho)[:, 0] >= 1e-6
        states += [BlochParams(*row) for row in zip(r[keep], s[keep], c[keep])]
    return states[:count]


def _family_states() -> list[BlochParams]:
    rng = np.random.default_rng(3)
    samplers = (draw_s0_isotropic, draw_r0_isotropic, draw_axial_zero, draw_s0_planar)
    return [draw(rng) for draw in samplers for _ in range(2500)]


def _damped_states() -> list[BlochParams]:
    states = []
    for params in draw_general_batch(np.random.default_rng(11), 1818):
        images = zip(*_damped_rows(params, np.arange(11) / 10.0))
        states += [BlochParams(r, s, c) for r, s, c in images]
    return states


CORPORA = {
    "general": lambda: draw_general_batch(np.random.default_rng(12), _COUNT),
    "x": lambda: _x_states(np.random.default_rng(7), _COUNT),
    "near-x-1e-6": lambda: _x_states(np.random.default_rng(8), _COUNT, 1e-6),
    "near-x-1e-9": lambda: _x_states(np.random.default_rng(9), _COUNT, 1e-9),
    "family": _family_states,
    "damped": _damped_states,
}


def search_maxima(states: list[BlochParams], cfg: SphereOptConfig | None) -> np.ndarray:
    """The maxima of the correlation objectives of ``states``, in batches."""
    return np.array([
        res.value
        for start in range(0, len(states), _BATCH)
        for res in _correlation_search(states[start : start + _BATCH], cfg)
    ])


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_default_search_reaches_the_20000_point_maximum(corpus):
    states = CORPORA[corpus]()
    tested = search_maxima(states, None)
    reference = search_maxima(states, _REFERENCE)
    shortfall = np.maximum(reference, tested) - tested
    above = np.flatnonzero(shortfall > _REPORTED)
    print(f"\n{corpus}: {len(states)} states, {len(above)} shortfalls above {_REPORTED}")
    for k in above:
        print(f"  state {k}: shortfall {shortfall[k]:.3e}")
    assert shortfall.max() <= _TOLERANCE
