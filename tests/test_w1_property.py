"""Property tests of the 1-d Wasserstein distance: permutation, shift and
scale behave as for the exact W1 of two empirical distributions."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from dvfsflow.evalkit import wasserstein1  # noqa: E402

values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
sizes = st.integers(1, 40)


@st.composite
def sample_pairs(draw):
    """Two samples, of equal size in about half the draws."""
    na = draw(sizes)
    nb = na if draw(st.booleans()) else draw(sizes)
    a = draw(arrays(np.float64, na, elements=values))
    b = draw(arrays(np.float64, nb, elements=values))
    return a, b


@settings(max_examples=200, deadline=None)
@given(pair=sample_pairs(), seed=st.integers(0, 2**32 - 1))
def test_permuting_either_sample_leaves_w1_bit_equal(pair, seed):
    a, b = pair
    rng = np.random.default_rng(seed)
    w = wasserstein1(a, b)
    assert wasserstein1(rng.permutation(a), b).hex() == w.hex()
    assert wasserstein1(a, rng.permutation(b)).hex() == w.hex()


def _close(x, y, scale):
    """Equal to 1e-9 relative.  Shifting or scaling the samples rounds each
    value by up to half an ulp of its own magnitude, so a W1 that is small
    against the data is measured relative to the data's magnitude."""
    return abs(x - y) <= 1e-9 * max(abs(y), scale) + 1e-300


@settings(max_examples=200, deadline=None)
@given(pair=sample_pairs(), shift=values)
def test_common_shift_leaves_w1_unchanged(pair, shift):
    a, b = pair
    scale = max(np.abs(a).max(), np.abs(b).max(), abs(shift))
    assert _close(wasserstein1(a + shift, b + shift), wasserstein1(a, b), scale)


@settings(max_examples=200, deadline=None)
@given(pair=sample_pairs(), k=st.floats(-1e3, 1e3, allow_nan=False))
def test_scaling_both_samples_scales_w1(pair, k):
    a, b = pair
    scale = abs(k) * max(np.abs(a).max(), np.abs(b).max())
    assert _close(wasserstein1(k * a, k * b), abs(k) * wasserstein1(a, b), scale)
