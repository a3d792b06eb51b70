"""WAV input/output and test-signal synthesis.

Only classic 16-bit integer PCM in a RIFF/WAVE container is read or
written; the standard library's ``wave`` writes the container.  Stereo
input collapses to mono by averaging the channels; sample values scale
by 1/32768, so -32768 maps to -1.0 and +32767 to 32767/32768.

Noise comes from a 64-bit linear congruential generator,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

(Knuth's MMIX constants), mapped to [-1, 1) via state / 2^63 - 1 and
computed in closed form (``lcg_uniform``).  The generator is part of
the interface: a seed pins the exact samples on every platform.
"""

from __future__ import annotations

import io
import struct
import wave
from dataclasses import dataclass

import numpy as np

from .embedding import TimeSeries
from .errors import AliasedFrequency, MalformedHeader, UnsupportedFormat

__all__ = ["SynthSpec", "read_wav", "write_wav", "clamped_samples", "synthesize", "lcg_uniform"]

_SCALED_KINDS = ("sine", "multi_sine", "damped_sine", "poly_exp")  # they read ``amplitudes``
_KINDS = _SCALED_KINDS + ("uniform_noise", "constant")

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def lcg_uniform(seed: int, count: int) -> np.ndarray:
    """Deterministic uniform samples in [-1, 1) from the 64-bit LCG.

    State j is a^(j+1) s_0 + c (1 + a + ... + a^j): one uint64 cumprod
    and one cumsum, which wrap mod 2^64 exactly like the recurrence.
    """
    powers = np.cumprod(np.full(count, _LCG_MULT, dtype=np.uint64))
    sums = np.cumsum(np.concatenate(([np.uint64(1)], powers[:-1])))
    states = powers * np.uint64(seed & _LCG_MASK) + sums * np.uint64(_LCG_INC)
    return states / 2.0**63 - 1.0


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic signal.

    ``kind`` selects the generator; the remaining fields are read as
    that kind needs them.  Tones use ``amplitudes[j] * sin(2 pi
    frequencies[j] t + phases[j])``; ``damped_sine`` multiplies by
    exp(-decay * t); ``poly_exp`` is amplitudes[0] * t^degree *
    exp(-decay * t); ``uniform_noise`` is seeded LCG noise; ``constant``
    repeats ``value``.  The tone kinds and ``poly_exp`` refuse an empty
    ``amplitudes``.
    """

    kind: str
    length: int
    sample_rate: float = 1.0
    amplitudes: tuple[float, ...] = (1.0,)
    frequencies: tuple[float, ...] = ()
    phases: tuple[float, ...] = ()
    decay: float = 0.0
    degree: int = 0
    seed: int = 0
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}; choose from {_KINDS}")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "amplitudes", tuple(float(a) for a in self.amplitudes))
        object.__setattr__(self, "frequencies", tuple(float(f) for f in self.frequencies))
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        if not self.amplitudes and self.kind in _SCALED_KINDS:
            raise ValueError(f"kind {self.kind!r} needs at least one amplitude")
        for f in self.frequencies:
            if f >= self.sample_rate / 2.0:
                raise AliasedFrequency(
                    f"{f} Hz is at or above Nyquist ({self.sample_rate / 2.0} Hz)"
                )
            if f < 0:
                raise ValueError("frequencies must be >= 0")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")


def _tone_params(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    freqs = np.asarray(spec.frequencies, dtype=np.float64)
    if freqs.size == 0:
        raise ValueError(f"kind {spec.kind!r} needs at least one frequency")
    amps = np.asarray(spec.amplitudes, dtype=np.float64)
    if amps.size == 1 and freqs.size > 1:
        amps = np.full(freqs.size, amps[0])
    phases = np.asarray(spec.phases, dtype=np.float64)
    if phases.size == 0:
        phases = np.zeros(freqs.size)
    if not amps.size == freqs.size == phases.size:
        raise ValueError("amplitudes, frequencies, and phases must align")
    return amps, freqs, phases


def synthesize(spec: SynthSpec) -> TimeSeries:
    """Generate the signal a SynthSpec describes."""
    t = np.arange(spec.length, dtype=np.float64) / spec.sample_rate
    if spec.kind in ("sine", "multi_sine", "damped_sine"):
        amps, freqs, phases = _tone_params(spec)
        if spec.kind == "sine" and freqs.size != 1:
            raise ValueError("kind 'sine' takes exactly one frequency")
        y = np.zeros(spec.length)
        for a, f, p in zip(amps, freqs, phases):
            y += a * np.sin(2.0 * np.pi * f * t + p)
        if spec.kind == "damped_sine":
            y *= np.exp(-spec.decay * t)
    elif spec.kind == "poly_exp":
        y = spec.amplitudes[0] * t**spec.degree * np.exp(-spec.decay * t)
    elif spec.kind == "uniform_noise":
        y = lcg_uniform(spec.seed, spec.length)
    else:
        y = np.full(spec.length, spec.value, dtype=np.float64)
    return TimeSeries(samples=y, sample_rate=spec.sample_rate)


def read_wav(data: bytes) -> TimeSeries:
    """Decode a RIFF/WAVE byte string into a mono TimeSeries.

    Raises
    ------
    MalformedHeader
        If the container structure is broken.
    UnsupportedFormat
        If the audio is not 16-bit integer PCM with 1 or 2 channels.
    """
    if len(data) < 12:
        raise MalformedHeader("shorter than a RIFF header")
    tag, _, form = struct.unpack("<4sI4s", data[:12])
    if tag != b"RIFF" or form != b"WAVE":
        raise MalformedHeader("not a RIFF/WAVE container")
    fmt = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id, chunk_size = struct.unpack("<4sI", data[pos : pos + 8])
        pos += 8
        body = data[pos : pos + chunk_size]
        if len(body) < chunk_size:
            raise MalformedHeader(f"chunk {chunk_id!r} overruns the container")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            raw = body
        pos += chunk_size + (chunk_size & 1)
    if fmt is None or raw is None:
        raise MalformedHeader("missing fmt or data chunk")
    if len(fmt) < 16:
        raise MalformedHeader("fmt chunk too small")
    audio_format, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if audio_format != 1:
        raise UnsupportedFormat(f"audio format {audio_format} is not integer PCM")
    if bits != 16:
        raise UnsupportedFormat(f"{bits}-bit samples; only 16-bit is supported")
    if channels not in (1, 2):
        raise UnsupportedFormat(f"{channels} channels; only mono or stereo is supported")
    if rate == 0:
        raise MalformedHeader("zero sample rate")
    frame = 2 * channels
    if len(raw) % frame:
        raise MalformedHeader("data chunk holds a partial frame")
    values = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if channels == 2:
        values = values.reshape(-1, 2).mean(axis=1)
    return TimeSeries(samples=values, sample_rate=float(rate))


def _pcm16_codes(series: TimeSeries) -> np.ndarray:
    """The 16-bit code of each sample, rint(x * 32768), before
    ``write_wav`` clamps it to -32768 .. 32767."""
    return np.rint(np.asarray(series.samples, dtype=np.float64) * 32768.0)


def clamped_samples(series: TimeSeries) -> int:
    """How many samples ``write_wav`` clamps: those whose code
    (``_pcm16_codes``) falls outside -32768 .. 32767."""
    codes = _pcm16_codes(series)
    return int(np.count_nonzero((codes < -32768) | (codes > 32767)))


def write_wav(series: TimeSeries) -> bytes:
    """Encode a series as mono 16-bit PCM with ``wave``; values clamp to
    full scale (``clamped_samples`` counts the samples that do).

    Quantization error is at most one least step (1/32768) per sample,
    so read_wav(write_wav(s)) matches s to that tolerance.  An empty
    series yields a valid zero-frame file.
    """
    rate = int(round(series.sample_rate))
    if not 1 <= rate < 1 << 31:  # the header stores the byte rate, 2 * rate, as u32
        raise ValueError(f"sample rate rounds to {rate} Hz; a WAV file stores 1 .. 2^31 - 1 Hz")
    # native int16: wave takes frames in the machine's byte order
    quantized = np.clip(_pcm16_codes(series), -32768, 32767).astype(np.int16)
    out = io.BytesIO()
    with wave.open(out, "wb") as container:
        container.setnchannels(1)
        container.setsampwidth(2)
        container.setframerate(rate)
        container.writeframes(quantized.tobytes())
    return out.getvalue()
