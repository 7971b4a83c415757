"""Property tests of the Pearson matrix: it measures how the columns move
together, so shifting or positively scaling a column, or reordering the rows,
leaves it unchanged, and negating a column negates that column's
correlations."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from dvfsflow.evalkit import pearson_matrix  # noqa: E402

TOL = 1e-12
unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def data_sets(draw):
    """(n, d) rows in [-3, 3] whose every column spreads over at least 2, so
    the coefficients are well conditioned and rounding stays far below TOL."""
    n, d = draw(st.integers(3, 40)), draw(st.integers(1, 11))
    data = draw(arrays(np.float64, (n, d), elements=unit))
    data[0] -= 2.0
    data[1] += 2.0
    return data


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= TOL


@settings(max_examples=60, deadline=None)
@given(data=data_sets(), shift=st.floats(-10.0, 10.0), scale=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_column_shift_and_positive_scale_leave_correlations(data, shift, scale, seed):
    rng = np.random.default_rng(seed)
    d = data.shape[1]
    shifts = shift * rng.uniform(-1.0, 1.0, size=d)
    scales = scale * rng.uniform(0.5, 1.0, size=d)
    want = pearson_matrix(data)
    _assert_close(pearson_matrix(data + shifts), want)
    _assert_close(pearson_matrix(data * scales), want)
    _assert_close(pearson_matrix(data * scales + shifts), want)


@settings(max_examples=60, deadline=None)
@given(data=data_sets(), column=st.integers(0, 10))
def test_negated_column_negates_its_row_and_column(data, column):
    j = column % data.shape[1]
    flipped = data.copy()
    flipped[:, j] = -flipped[:, j]
    want = pearson_matrix(data)
    want[j, :] = -want[j, :]
    want[:, j] = -want[:, j]                # the diagonal entry flips twice
    _assert_close(pearson_matrix(flipped), want)


@settings(max_examples=60, deadline=None)
@given(data=data_sets(), seed=st.integers(0, 2**32 - 1))
def test_row_permutation_leaves_correlations(data, seed):
    perm = np.random.default_rng(seed).permutation(data.shape[0])
    got, want = pearson_matrix(data[perm]), pearson_matrix(data)
    _assert_close(got, want)
