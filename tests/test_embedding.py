"""Delay-embedding construction and its window bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlaw.embedding import EmbeddingConfig, TimeSeries, embed
from dynlaw.errors import SeriesTooShort


def brute_windows(samples, n, stride, offset):
    """Independent window enumerator: walk anchors one at a time."""
    rows = []
    anchor = offset + stride * n
    while anchor < len(samples):
        row = [samples[anchor - stride * i] for i in range(n + 1)]
        rows.append(row)
        anchor += stride
    return np.array(rows, dtype=float) if rows else np.empty((0, n + 1))


def test_basic_windows():
    ds = embed(TimeSeries([1, 2, 3, 4, 5]), EmbeddingConfig(n=2))
    assert ds.rows.tolist() == [[3, 2, 1], [4, 3, 2], [5, 4, 3]]


def test_stride_two_windows():
    ds = embed(TimeSeries([1, 2, 3, 4, 5, 6, 7]), EmbeddingConfig(n=1, stride=2))
    assert ds.rows.tolist() == [[3, 1], [5, 3], [7, 5]]


def test_window_count_property():
    ds = embed(TimeSeries(np.arange(11)), EmbeddingConfig(n=3, stride=2))
    assert ds.window_count == ds.rows.shape[0]
    # K = (len - 1 - stride*n)//stride + 1 = (11-1-6)//2 + 1 = 3
    assert ds.window_count == 3


def test_scaling_is_elementwise():
    y = np.cos(0.11 * np.arange(30))
    base = embed(TimeSeries(y), EmbeddingConfig(n=4)).rows
    scaled = embed(TimeSeries(2.5 * y), EmbeddingConfig(n=4)).rows
    np.testing.assert_allclose(scaled, 2.5 * base, rtol=0, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    length=st.integers(1, 60),
    n=st.integers(1, 6),
    stride=st.integers(1, 4),
    offset=st.integers(0, 8),
)
def test_rows_match_brute_force(length, n, stride, offset):
    # windows of a series sliced at ``offset`` are the windows anchored
    # from that sample on
    y = np.arange(1.0, length + 1.0)
    expected = brute_windows(y, n, stride, offset)
    if expected.shape[0] == 0:
        with pytest.raises(SeriesTooShort):
            embed(TimeSeries(y[offset:]), EmbeddingConfig(n=n, stride=stride))
        return
    ds = embed(TimeSeries(y[offset:]), EmbeddingConfig(n=n, stride=stride))
    np.testing.assert_array_equal(ds.rows, expected)


def test_too_short_series_rejected():
    with pytest.raises(SeriesTooShort):
        embed(TimeSeries([1.0, 2.0]), EmbeddingConfig(n=2))
    with pytest.raises(SeriesTooShort):
        embed(TimeSeries([1.0, 2.0, 3.0]), EmbeddingConfig(n=1, stride=3))


def test_config_validation():
    with pytest.raises(ValueError):
        EmbeddingConfig(n=0)
    with pytest.raises(ValueError):
        EmbeddingConfig(n=2, stride=0)


@pytest.mark.parametrize("name, value", [
    ("n", 2.5), ("stride", 1.5), ("n", True), ("stride", np.float64(1.0)),
], ids=["n-float", "stride-float", "n-bool", "stride-numpy-float"])
def test_config_refuses_a_geometry_that_is_not_an_integer(name, value):
    with pytest.raises(ValueError) as info:
        EmbeddingConfig(**{"n": 2, "stride": 1, name: value})
    assert str(info.value) == f"{name} must be an integer, not {value!r}"


def test_config_stores_numpy_integers_as_python_ints():
    cfg = EmbeddingConfig(n=np.int64(2), stride=np.uint8(3))
    assert (cfg.n, cfg.stride) == (2, 3)
    assert [type(cfg.n), type(cfg.stride)] == [int, int]
    y = np.arange(11.0)
    np.testing.assert_array_equal(embed(TimeSeries(y), cfg).rows,
                                  embed(TimeSeries(y), EmbeddingConfig(n=2, stride=3)).rows)


def test_series_validation():
    with pytest.raises(ValueError):
        TimeSeries([1.0, np.nan])
    with pytest.raises(ValueError):
        TimeSeries([0.0], sample_rate=0.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        TimeSeries(np.zeros((2, 3)))
    # empty container is legal; embedding it is not
    empty = TimeSeries([])
    assert len(empty) == 0
    with pytest.raises(SeriesTooShort):
        embed(empty, EmbeddingConfig(n=1))
