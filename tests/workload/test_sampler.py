"""The synthesis samplers against ``numpy.random.Generator.choice``.

``_sample_without_replacement`` replaces ``rng.choice(n, size,
replace=False, p=p)`` in program synthesis, and ``bisect_right`` over a
``_choice_cdf`` table replaces the single draw ``rng.choice(n, p=p)``.
Every synthesized program, and so every trace and ``results/*.txt``,
depends on them drawing the same indices in the same order and leaving
the generator in the same state.
"""

from bisect import bisect_right

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.synthesis import _choice_cdf, _sample_without_replacement


def _floored(raw):
    """Weights as production builds them: floored at 0.05, then normalized."""
    weights = np.maximum(np.array(raw, dtype=np.float64), 0.05)
    weights /= weights.sum()
    return weights


def _assert_same_as_choice(seed, weights, size):
    numpy_rng = np.random.default_rng(seed)
    ours_rng = np.random.default_rng(seed)
    expected = numpy_rng.choice(len(weights), size=size, replace=False, p=weights)
    actual = _sample_without_replacement(ours_rng, weights.tolist(), size)
    assert actual == expected.tolist()
    assert ours_rng.bit_generator.state == numpy_rng.bit_generator.state


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    raw=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=40),
    data=st.data(),
)
def test_matches_choice_on_floored_weights(seed, raw, data):
    weights = _floored(raw)
    size = data.draw(st.integers(1, len(weights)))
    _assert_same_as_choice(seed, weights, size)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    raw=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    zeros=st.lists(st.booleans(), min_size=40, max_size=40),
    data=st.data(),
)
def test_matches_choice_with_zero_weights(seed, raw, zeros, data):
    weights = np.array(raw)
    weights[np.array(zeros[: len(raw)])] = 0.0
    if not weights.any():
        weights[0] = 1.0
    weights /= weights.sum()
    size = data.draw(st.integers(1, int(np.count_nonzero(weights))))
    _assert_same_as_choice(seed, weights, size)


def test_seeded_fuzz_matches_choice():
    """A broad seeded sweep of the shapes synthesis actually asks for."""
    cases = np.random.default_rng(1992)
    for case in range(3000):
        n = int(cases.integers(1, 48))
        weights = _floored(cases.uniform(-0.6, 1.6, n))
        _assert_same_as_choice(case, weights, int(cases.integers(1, n + 1)))


@pytest.mark.parametrize(
    "weights, size",
    [
        ([0.5, math.nan, 0.5], 1),
        ([0.5, math.inf, 0.5], 1),
        ([1.5, -0.5], 1),
        ([1.0, 0.0, 0.0], 2),
        ([0.5, 0.5], 3),
    ],
)
def test_rejects_what_choice_rejects(weights, size):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(weights), size, replace=False, p=weights)
    with pytest.raises(ValueError):
        _sample_without_replacement(np.random.default_rng(0), weights, size)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    weights=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=12),
    draws=st.integers(1, 30),
)
def test_single_draw_matches_choice(seed, weights, draws):
    p = np.array(weights)
    p /= p.sum()
    numpy_rng = np.random.default_rng(seed)
    ours_rng = np.random.default_rng(seed)
    cdf = _choice_cdf(weights)
    for _ in range(draws):
        expected = int(numpy_rng.choice(len(p), p=p))
        assert bisect_right(cdf, ours_rng.random()) == expected
    assert ours_rng.bit_generator.state == numpy_rng.bit_generator.state

