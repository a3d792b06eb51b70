"""Delay embedding of scalar time series.

A window of order ``n`` collects the current sample together with its
``n`` predecessors at a fixed lag, most recent value first::

    Y[k, i] = y(t_k - i * stride)        i = 0 .. n

with the window anchors ``t_k`` sliding densely at the lag spacing
from the first sample on; slice the series to start later.
The row matrix ``Y`` is the raw material for every law extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SeriesTooShort

__all__ = ["TimeSeries", "EmbeddingConfig", "EmbeddedDataset", "embed"]


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real-valued signal.

    ``samples`` may be empty (a zero-length recording is a legal
    container, e.g. when round-tripping empty audio); operations that
    need data reject it with :class:`SeriesTooShort` themselves.
    """

    samples: np.ndarray
    sample_rate: float = 1.0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("samples must be finite")
        if not (self.sample_rate > 0):
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class EmbeddingConfig:
    """Window geometry: order ``n`` and lag ``stride`` (in samples),
    integers (not bool) of at least 1, stored as Python ints."""

    n: int
    stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("n", self.n, 1))
        object.__setattr__(self, "stride", _integer("stride", self.stride, 1))


@dataclass(frozen=True)
class EmbeddedDataset:
    """Window rows plus the geometry (not the time scale) that produced them."""

    rows: np.ndarray
    config: EmbeddingConfig

    @property
    def window_count(self) -> int:
        return int(self.rows.shape[0])


def _integer(name: str, value, low=None) -> int:
    """``value`` as a Python int; ValueError naming ``name`` unless it is a
    Python or numpy integer, not bool, of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return int(value)


def embed(series: TimeSeries, config: EmbeddingConfig) -> EmbeddedDataset:
    """Slide a delay window over the series and stack the rows.

    Parameters
    ----------
    series : TimeSeries
        Input signal; must hold at least ``stride*n + 1`` samples so
        one complete window fits.
    config : EmbeddingConfig
        Window geometry.

    Returns
    -------
    EmbeddedDataset
        Row matrix of shape ``(K, n + 1)`` with
        ``rows[k, i] = samples[stride*(n + k) - stride*i]``
        and ``K = (len(series) - 1 - stride*n)//stride + 1``.

    Raises
    ------
    SeriesTooShort
        If not even one window fits.
    """
    y = series.samples
    n, s = config.n, config.stride
    need = s * n + 1
    if len(y) < need:
        raise SeriesTooShort(
            f"need {need} samples for one window (n={n}, stride={s}), got {len(y)}"
        )
    return EmbeddedDataset(rows=_delay_windows(y, n, s), config=config)


def _delay_windows(blocks: np.ndarray, n: int, stride: int) -> np.ndarray:
    """Windows of every row of ``blocks`` as one C-ordered
    array of shape (..., K, n + 1), with ``[..., k, i] = row[stride *
    (n + k - i)]``; each row must hold at least ``stride * n + 1``
    samples."""
    view = np.lib.stride_tricks.sliding_window_view(blocks, stride * n + 1, axis=-1)
    return np.ascontiguousarray(view[..., ::stride, ::-stride])
