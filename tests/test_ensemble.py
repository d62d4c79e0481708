"""Moment accumulation: Welford correctness and merge invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlesim.ensemble import MomentAccumulator


def test_matches_numpy_on_fixed_data():
    rng = np.random.default_rng(0)
    data = rng.normal(3.0, 2.0, size=1000)
    acc = MomentAccumulator()
    acc.update_batch(data)
    assert acc.n == data.size
    assert acc.mean == pytest.approx(float(np.mean(data)), rel=1e-12)
    assert acc.variance == pytest.approx(float(np.var(data, ddof=1)), rel=1e-12)
    assert acc.std_error == pytest.approx(
        float(np.std(data, ddof=1) / np.sqrt(data.size)), rel=1e-12
    )


def test_batch_update_equals_scalar_updates():
    # one batch against merges of one-element batches, one value at a time
    rng = np.random.default_rng(1)
    data = rng.normal(size=500)
    one = MomentAccumulator()
    one.update_batch(data)
    two = MomentAccumulator()
    for x in data:
        two.update_batch([x])
    assert one.n == two.n
    assert one.mean == pytest.approx(two.mean, rel=1e-13)
    assert one.m2 == pytest.approx(two.m2, rel=1e-10)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_chunking_invariance(split, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=400)
    whole = MomentAccumulator()
    whole.update_batch(data)
    pieces = MomentAccumulator()
    pieces.update_batch(data[:split])
    pieces.update_batch(data[split:])
    assert pieces.n == whole.n
    assert pieces.mean == pytest.approx(whole.mean, rel=1e-12, abs=1e-12)
    assert pieces.variance == pytest.approx(whole.variance, rel=1e-10)


def test_merge_order_independent():
    rng = np.random.default_rng(2)
    chunks = [rng.normal(size=n) for n in (10, 100, 37)]
    forward = MomentAccumulator()
    for c in chunks:
        forward.update_batch(c)
    backward = MomentAccumulator()
    for c in reversed(chunks):
        backward.update_batch(c)
    assert forward.mean == pytest.approx(backward.mean, rel=1e-12)
    assert forward.variance == pytest.approx(backward.variance, rel=1e-10)


def test_empty_and_single_sample():
    acc = MomentAccumulator()
    acc.update_batch(np.array([]))
    assert acc.n == 0
    acc.update_batch([1.5])
    assert acc.mean == 1.5
    assert np.isnan(acc.std_error)
