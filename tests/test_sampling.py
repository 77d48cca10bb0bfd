"""Tests for the seeded samplers."""

import numpy as np
import pytest

from discordkit.sampling import draw_general_batch

from _oracles import draw_general_batch_reference

SEEDS = (3, 101, 102)
MARGINS = (-1e-3, 0.0, 1e-6, 1e-3)


def _assert_same_draws(seed: int, count: int, margin: float) -> None:
    fast_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    fast = draw_general_batch(fast_rng, count, margin)
    ref = draw_general_batch_reference(ref_rng, count, margin)
    assert len(fast) == len(ref) == count
    for a, b in zip(fast, ref):
        for key in "rsc":
            assert np.array_equal(getattr(a, key), getattr(b, key))
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("margin", MARGINS)
@pytest.mark.parametrize("seed", SEEDS)
def test_screened_sampler_equals_unscreened_reference(seed, margin):
    for count in (1, 12, 48):
        _assert_same_draws(seed, count, margin)


# The unscreened reference takes about 4 s per 1000 draws, so the long
# streams cover each seed once and the outer margins.
@pytest.mark.parametrize("seed, margin", [(3, 1e-6), (101, -1e-3), (102, 1e-3)])
def test_screened_sampler_equals_reference_on_long_streams(seed, margin):
    _assert_same_draws(seed, 1000, margin)


class _ScriptedRng:
    """Stands in for a Generator: ``uniform`` hands out prepared arrays."""

    def __init__(self, arrays):
        self._arrays = iter(arrays)

    def uniform(self, low, high, size):
        out = next(self._arrays)
        assert out.shape == size
        return out


def _diagonal_candidate(d):
    """(r, s, c) of the diagonal state diag(d0, d1, d2, d3)."""
    d0, d1, d2, d3 = d
    return (
        [0, 0, d0 + d1 - d2 - d3],
        [0, 0, d0 - d1 + d2 - d3],
        [0, 0, d0 - d1 - d2 + d3],
    )


@pytest.mark.parametrize(
    "margin, diagonal",
    [
        (-1 / 64, (-1 / 64, 17 / 64, 24 / 64, 24 / 64)),
        (0.0, (0.0, 16 / 64, 16 / 64, 32 / 64)),
        (1 / 64, (1 / 64, 21 / 64, 21 / 64, 21 / 64)),
    ],
)
def test_screen_keeps_candidates_on_both_bounds(margin, diagonal):
    # Each candidate has lambda_min == margin exactly: a diagonal state
    # whose smallest diagonal entry is the margin, and product states with
    # |r| or |s| == 1 - 4 margin.
    cap = 1.0 - 4.0 * margin
    candidates = [
        _diagonal_candidate(diagonal),
        ([cap, 0, 0], [0, 0, 0], [0, 0, 0]),
        ([0, 0, 0], [0, cap, 0], [0, 0, 0]),
    ]
    batch = [np.zeros((4096, 3)) for _ in range(3)]
    for row, candidate in enumerate(candidates):
        for arr, vec in zip(batch, candidate):
            arr[row] = vec
    fast = draw_general_batch(_ScriptedRng(batch), 3, margin)
    ref = draw_general_batch_reference(_ScriptedRng(batch), 3, margin)
    for drawn in (fast, ref):
        for params, candidate in zip(drawn, candidates):
            for key, vec in zip("rsc", candidate):
                assert np.array_equal(getattr(params, key), vec)
