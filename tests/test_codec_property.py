"""Property test of the transition codec: decoding is a projection.

``canonical_rows`` is decode-then-encode done on the array, so decoding its
output again must change nothing.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from dvfsflow.flow import TransitionLayout, canonical_rows  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)
layouts = st.builds(TransitionLayout, num_actions=st.integers(2, 16),
                    ambient_temp=st.floats(-50.0, 100.0))


@settings(max_examples=200, deadline=None)
@given(rows=arrays(np.float64, st.tuples(st.integers(0, 8), st.just(11)), elements=finite),
       layout=layouts)
def test_decode_encode_decode_equals_decode(rows, layout):
    once = canonical_rows(rows, layout)
    assert once.shape == rows.shape and once.dtype == np.float64
    assert canonical_rows(once, layout).tobytes() == once.tobytes()
    for s in (once[:, 0:4], once[:, 5:9]):
        assert np.all(s[:, 0] >= 0.0) and np.all((s[:, 1] >= 0.0) & (s[:, 1] <= 1.0))
        assert np.all(s[:, 2] >= 1e-6) and np.all(s[:, 3] >= layout.ambient_temp)
    levels = once[:, 4] * (layout.num_actions - 1)
    assert np.all(np.rint(levels) >= 0) and np.all(np.rint(levels) < layout.num_actions)
    assert np.all(np.abs(levels - np.rint(levels)) < 1e-9)
    assert set(once[:, 10].tolist()) <= {0.0, 1.0}
    assert once[:, 9].tobytes() == rows[:, 9].tobytes()     # the reward passes through
