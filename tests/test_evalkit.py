"""Metric kit: Pearson matrices, correlation gap, W1, fps gain, Q stability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvfsflow.report import eval_batches
from dvfsflow.config import EnvConfig
from dvfsflow.errors import DomainError, InsufficientDataError
from dvfsflow.evalkit import (corr_gap, corr_gap_excluded_count, early_fps_gain, median,
                              empirical_regret, pearson_matrix, qvalue_stability,
                              wasserstein1)
from dvfsflow.flow import TRANSITION_LABELS
from dvfsflow.orchestrate import RunLog
from dvfsflow.simenv import ProcessorState, level_table


def _brute_force_pearson(data):
    n, d = data.shape
    out = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            xi, xj = data[:, i], data[:, j]
            num = np.sum((xi - xi.mean()) * (xj - xj.mean()))
            den = np.sqrt(np.sum((xi - xi.mean()) ** 2)) * np.sqrt(np.sum((xj - xj.mean()) ** 2))
            out[i, j] = num / den if den > 0 else np.nan
    return out


def test_pearson_duplicated_and_negated_columns():
    rng = np.random.default_rng(0)
    x = rng.normal(size=50)
    data = np.column_stack([x, x, -x])
    m = pearson_matrix(data)
    assert isinstance(m, np.ndarray) and m.shape == (3, 3)
    assert m[0, 1] == pytest.approx(1.0)
    assert m[0, 2] == pytest.approx(-1.0)
    assert np.allclose(np.diag(m), 1.0)
    assert np.allclose(m, m.T)


def test_pearson_small_case_frozen_value():
    data = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 4.0]])
    m = pearson_matrix(data)
    # direct evaluation: num = 3, den = sqrt(2) * sqrt(14/3)
    expected = 3.0 / (np.sqrt(2.0) * np.sqrt(14.0 / 3.0))
    assert m[0, 1] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.9819805060619659, abs=1e-12)


def test_pearson_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        data = rng.normal(size=(50, 11))
        m = pearson_matrix(data)
        assert np.nanmax(np.abs(m - _brute_force_pearson(data))) < 1e-12


def test_pearson_zero_variance_flagged_not_dropped():
    rng = np.random.default_rng(1)
    data = np.column_stack([rng.normal(size=30), np.full(30, 2.0), rng.normal(size=30)])
    m = pearson_matrix(data)
    assert np.isnan(np.diag(m)).tolist() == [False, True, False]
    assert np.all(np.isnan(m[1, :]))
    assert np.all(np.isnan(m[:, 1]))
    assert np.isfinite(m[0, 2])


def test_constant_columns_at_every_frequency_level_are_zero_variance():
    # the mean of a constant column can be an ulp off its value, which left
    # 33 of these 36 columns with a unit diagonal and spurious coefficients
    col = TRANSITION_LABELS.index("freq")
    rng = np.random.default_rng(7)
    for n in (30, 200, 1000):
        synth = rng.uniform(0.1, 1.0, size=(n, len(TRANSITION_LABELS)))
        for level in level_table(EnvConfig()).freq:
            real = rng.uniform(0.1, 1.0, size=synth.shape)
            real[:, col] = level
            m = pearson_matrix(real)
            assert np.isnan(np.diag(m)).tolist() == [lab == "freq" for lab in TRANSITION_LABELS]
            assert np.all(np.isnan(m[col])) and np.all(np.isnan(m[:, col]))
            assert corr_gap_excluded_count(m, pearson_matrix(synth)) == 20
            got = eval_batches(real, synth)
            assert got["zero_variance_real"] == ["freq"]
            assert got["corr_excluded_entries"] == 20
            assert got["std_ratio"]["freq"] is None
            assert None not in [r for lab, r in got["std_ratio"].items() if lab != "freq"]


def test_pearson_needs_two_rows():
    with pytest.raises(InsufficientDataError):
        pearson_matrix(np.ones((1, 3)))


def test_corr_gap_basics():
    rng = np.random.default_rng(2)
    a = pearson_matrix(rng.normal(size=(40, 4)))
    b = pearson_matrix(rng.normal(size=(40, 4)))
    assert corr_gap(a, a) == 0.0
    assert corr_gap(a, b) == pytest.approx(corr_gap(b, a))
    assert corr_gap(a, b) >= 0.0


def test_corr_gap_max_for_opposite_matrices():
    ones = np.ones((3, 3))
    assert corr_gap(ones, 2.0 * np.eye(3) - ones) == pytest.approx(2.0)


def test_corr_gap_shape_mismatch_and_exclusions():
    for gap in (corr_gap, corr_gap_excluded_count):
        with pytest.raises(DomainError, match=r"mismatched shapes \(2, 2\) and \(3, 3\)"):
            gap(np.eye(2), np.eye(3))
    nanv = np.eye(3)
    nanv[0, 1] = nanv[1, 0] = np.nan
    assert corr_gap_excluded_count(nanv, np.eye(3)) == 2


def test_wasserstein_identical_and_shift():
    rng = np.random.default_rng(3)
    a = rng.normal(size=500)
    assert wasserstein1(a, a) == 0.0
    assert wasserstein1(a, a + 1.7) == pytest.approx(1.7, abs=1e-12)


@pytest.mark.parametrize("n_a, n_b", [(10_000, 10_000), (2_000, 10_000)])
def test_wasserstein_uniform_oracle(n_a, n_b):
    # analytic W1 between U[0,1] and U[0,2] is 0.5
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 1, size=n_a)
    b = rng.uniform(0, 2, size=n_b)
    assert abs(wasserstein1(a, b) - 0.5) < 0.03


def test_wasserstein_unequal_sizes_and_empty():
    rng = np.random.default_rng(5)
    a = rng.normal(size=400)
    b = a[:250] + 0.9
    assert wasserstein1(a[:250], b) == pytest.approx(0.9, abs=1e-12)
    assert abs(wasserstein1(a, a[:333] + 0.0) - 0.0) < 0.15
    with pytest.raises(DomainError, match="^wasserstein1 needs non-empty samples$"):
        wasserstein1(np.array([]), a)
    with pytest.raises(DomainError, match="^wasserstein1 needs non-empty samples$"):
        wasserstein1(a, [])


def test_wasserstein_exact_oracles():
    # the W1 of a sample against itself repeated and shifted is the shift,
    # whatever the sizes, which a quantile estimate on a midpoint grid misses
    a = np.random.default_rng(6).normal(size=200)
    for c in (0.5, -2.25, 1e-3):
        assert wasserstein1(a, np.repeat(a, 3) + c) == pytest.approx(abs(c), rel=1e-12)
    assert wasserstein1([0.0], [0.0, 1.0]) == 0.5
    assert wasserstein1([0.0, 1.0], [0.0]) == 0.5


def test_empirical_regret_calls_the_oracle_once():
    log = _log_with(rewards=[1.0, 0.5, 1.0, 0.25])
    calls = []
    empirical_regret(log, oracle=lambda states: calls.append(len(states)) or np.ones(4))
    assert calls == [4]


def _log_with(max_q=None, rewards=None):
    n = len(max_q or rewards)
    states = [ProcessorState(fps=50.0, freq=0.5, power=5.0, temp=40.0) for _ in range(n)]
    return RunLog(method="model_free", seed=0, config={}, t=list(range(1, n + 1)),
                  states=states,
                  rewards=list(rewards) if rewards else [0.0] * n,
                  max_q=list(max_q) if max_q else [0.0] * n)


def test_empirical_regret_trace():
    log = _log_with(rewards=[1.0, 0.5, 1.0, 0.25])
    trace = empirical_regret(log, oracle=lambda states: np.ones(len(states)))
    assert np.allclose(trace, [0.0, 0.5, 0.5, 1.25])
    assert np.all(np.diff(trace) >= 0)          # non-negative per-step regret
    optimal = empirical_regret(log, oracle=lambda states: np.zeros(len(states)))
    assert optimal[-1] <= 0.0


def test_early_fps_gain():
    a, b = [60.0] * 60, [30.0] * 60
    assert early_fps_gain(a, a, window=50) == 1.0
    assert early_fps_gain(a, b, window=50) == pytest.approx(2.0)
    assert early_fps_gain([1.0] * 50 + [9.0] * 10, b, window=50) == 1 / 30
    with pytest.raises(InsufficientDataError):
        early_fps_gain([1.0] * 10, a, window=50)


def test_qvalue_stability():
    const = _log_with(max_q=[4.2] * 40)
    assert qvalue_stability(const) == pytest.approx(0.0, abs=1e-12)
    alternating = _log_with(max_q=[0.0] * 30 + [1.0, -1.0] * 5)
    assert qvalue_stability(alternating) == pytest.approx(1.0)
    shifted = _log_with(max_q=[10.0] * 30 + [11.0, 9.0] * 5)
    assert qvalue_stability(shifted) == pytest.approx(1.0)
    with pytest.raises(InsufficientDataError):
        qvalue_stability(_log_with(max_q=[1.0] * 4))


# a few distinct values, so that duplicates and ties of +0.0 and -0.0 are common
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_MEDIAN_LISTS = st.lists(st.one_of(_FLOATS, st.sampled_from([0.0, -0.0, 1.5, -2.0])),
                         min_size=1, max_size=40)


@settings(max_examples=400, deadline=None)
@given(values=_MEDIAN_LISTS)
def test_median_bit_equals_numpy_median(values):
    with np.errstate(over="ignore"):        # two values near the float maximum sum to inf
        want = float(np.median(values))
        got = median(values)
    assert got.hex() == want.hex(), (values, got, want)


@settings(max_examples=200, deadline=None)
@given(values=_MEDIAN_LISTS, at=st.integers(min_value=0), sign=st.sampled_from([1.0, -1.0]))
def test_median_is_nan_when_any_value_is_nan(values, at, sign):
    values.insert(at % (len(values) + 1), math.copysign(math.nan, sign))
    with np.errstate(over="ignore"):
        assert math.isnan(float(np.median(values)))
        assert math.isnan(median(values))


@pytest.mark.parametrize("values", [[], [[1.0, 2.0]]])
def test_median_needs_a_non_empty_sequence(values):
    with pytest.raises(DomainError, match="non-empty 1-d"):
        median(values)
