"""Property test of the transition codec: decoding is a projection."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from dvfsflow.flow import TransitionLayout, flatten_memory, unflatten_rows  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)
layouts = st.builds(TransitionLayout, num_actions=st.integers(2, 16),
                    ambient_temp=st.floats(-50.0, 100.0))


@settings(max_examples=200, deadline=None)
@given(rows=arrays(np.float64, st.tuples(st.integers(0, 8), st.just(11)), elements=finite),
       layout=layouts)
def test_decode_encode_decode_equals_decode(rows, layout):
    decoded = unflatten_rows(rows, layout, source="real")
    again = unflatten_rows(flatten_memory(decoded, layout), layout, source="real")
    assert again == decoded
    for t in decoded:
        for s in (t.s, t.s_next):
            assert s.fps >= 0.0 and 0.0 <= s.freq <= 1.0
            assert s.power >= 1e-6 and s.temp >= layout.ambient_temp
        assert 0 <= t.a < layout.num_actions
