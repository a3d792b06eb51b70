"""WAV round trips, synthesis recipes, and the seeded noise generator."""

import struct

import numpy as np
import pytest

from dynlaw.embedding import EmbeddingConfig, TimeSeries, embed
from dynlaw.errors import AliasedFrequency, MalformedHeader, UnsupportedFormat
from dynlaw.signal_io import SynthSpec, clamped_samples, lcg_uniform, read_wav, synthesize, write_wav
from dynlaw.spectral import correlation, eigendecompose, extract_law


def pack_wav(frames: bytes, channels=1, rate=8000, bits=16, audio_format=1) -> bytes:
    """Hand-rolled container so tests do not trust write_wav."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate, rate * block, block, bits)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(frames)) + frames
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def test_sample_scaling_extremes():
    raw = struct.pack("<3h", 0, -32768, 32767)
    series = read_wav(pack_wav(raw))
    np.testing.assert_array_equal(
        series.samples, [0.0, -1.0, 32767.0 / 32768.0]
    )
    assert series.sample_rate == 8000.0


def test_stereo_averages_to_mono():
    raw = struct.pack("<4h", 1000, 3000, -2000, 2000)
    series = read_wav(pack_wav(raw, channels=2))
    np.testing.assert_allclose(series.samples, [2000.0 / 32768.0, 0.0], atol=0)


def test_unsupported_formats_rejected():
    with pytest.raises(UnsupportedFormat):
        read_wav(pack_wav(b"\x00" * 8, audio_format=3))  # IEEE float
    with pytest.raises(UnsupportedFormat):
        read_wav(pack_wav(b"\x00" * 8, bits=8))
    with pytest.raises(UnsupportedFormat):
        read_wav(pack_wav(b"\x00" * 12, channels=3))


def test_malformed_containers_rejected():
    good = pack_wav(struct.pack("<2h", 1, 2))
    with pytest.raises(MalformedHeader):
        read_wav(good[:8])
    with pytest.raises(MalformedHeader):
        read_wav(b"RIFX" + good[4:])
    with pytest.raises(MalformedHeader):
        read_wav(pack_wav(b"\x00"))  # one byte is half a frame
    no_data = good[: good.index(b"data")]
    with pytest.raises(MalformedHeader):
        read_wav(no_data)
    with pytest.raises(MalformedHeader):
        read_wav(pack_wav(b"\x00\x00", rate=0))
    with pytest.raises(MalformedHeader, match="chunk b'data' overruns the container"):
        read_wav(good[:-1])
    short_fmt = b"fmt " + struct.pack("<I", 14) + bytes(14) + b"data" + struct.pack("<I", 0)
    with pytest.raises(MalformedHeader, match="fmt chunk too small"):
        read_wav(b"RIFF" + struct.pack("<I", 4 + len(short_fmt)) + b"WAVE" + short_fmt)


def test_round_trip_within_one_step():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, size=500)
    back = read_wav(write_wav(TimeSeries(samples=x, sample_rate=44100.0)))
    assert back.sample_rate == 44100.0
    assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768.0


def test_write_clamps_out_of_range():
    back = read_wav(write_wav(TimeSeries(samples=np.array([1.5, -1.5]), sample_rate=8000.0)))
    np.testing.assert_array_equal(back.samples, [32767.0 / 32768.0, -1.0])



def test_clamped_samples_counts_the_codes_write_wav_clamps():
    # codes rint(x * 32768): 32768 and 32768 (half to even) clamp, 32767
    # and -32768 fit, -32769 clamps; the file holds each clamped one at
    # the end of the range
    codes = np.array([32768.0, 32767.4, 32767.5, -32768.0, -32768.6])
    series = TimeSeries(samples=codes / 32768.0, sample_rate=8000.0)
    assert clamped_samples(series) == 3
    back = read_wav(write_wav(series)).samples * 32768.0
    np.testing.assert_array_equal(back, [32767, 32767, 32767, -32768, -32768])
    assert clamped_samples(TimeSeries(samples=np.zeros(0), sample_rate=8000.0)) == 0

def test_empty_series_round_trips():
    data = write_wav(TimeSeries(samples=np.array([]), sample_rate=8000.0))
    assert len(data) == 44  # header only, zero frames
    back = read_wav(data)
    assert back.samples.size == 0


def test_synthesize_sine_matches_closed_form():
    spec = SynthSpec(kind="sine", length=30, sample_rate=6.0, frequencies=(1.0,))
    series = synthesize(spec)
    np.testing.assert_allclose(
        series.samples, np.sin(np.pi / 3 * np.arange(30)), atol=1e-12
    )


def test_synthesize_constant():
    series = synthesize(SynthSpec(kind="constant", length=4, value=5.0))
    np.testing.assert_array_equal(series.samples, [5.0, 5.0, 5.0, 5.0])


def test_synthesize_damped_and_poly():
    t = np.arange(20, dtype=float)
    damped = synthesize(
        SynthSpec(kind="damped_sine", length=20, frequencies=(0.1,), decay=0.2)
    )
    np.testing.assert_allclose(
        damped.samples, np.sin(2 * np.pi * 0.1 * t) * np.exp(-0.2 * t), atol=1e-12
    )
    poly = synthesize(
        SynthSpec(kind="poly_exp", length=20, amplitudes=(2.0,), degree=2, decay=0.1)
    )
    np.testing.assert_allclose(poly.samples, 2.0 * t**2 * np.exp(-0.1 * t), atol=1e-12)


def test_lcg_matches_integer_recurrence():
    state = 42
    expected = []
    for _ in range(5):
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        expected.append(state / 2.0**63 - 1.0)
    np.testing.assert_array_equal(lcg_uniform(42, 5), expected)


@pytest.mark.parametrize("seed", [0, 42, 2**63 + 5, -7, 2**64 - 1])
def test_lcg_jump_ahead_matches_integer_recurrence(seed):
    state = seed % 2**64
    expected = []
    for _ in range(20_000):
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        expected.append(state / 2.0**63 - 1.0)
    expected = np.array(expected)
    for count in (0, 1, 2, 3, 1000, 20_000):
        assert lcg_uniform(seed, count).tobytes() == expected[:count].tobytes()


def test_noise_is_seed_deterministic():
    a = synthesize(SynthSpec(kind="uniform_noise", length=64, seed=42))
    b = synthesize(SynthSpec(kind="uniform_noise", length=64, seed=42))
    c = synthesize(SynthSpec(kind="uniform_noise", length=64, seed=43))
    np.testing.assert_array_equal(a.samples, b.samples)
    assert np.any(a.samples != c.samples)
    assert np.all(np.abs(a.samples) <= 1.0)


def test_nyquist_guard():
    with pytest.raises(AliasedFrequency):
        SynthSpec(kind="sine", length=10, sample_rate=8000.0, frequencies=(4000.0,))


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(kind="triangle", length=10)
    with pytest.raises(ValueError):
        SynthSpec(kind="sine", length=0, frequencies=(0.1,))
    with pytest.raises(ValueError):
        synthesize(SynthSpec(kind="sine", length=10, frequencies=(0.1, 0.2)))
    with pytest.raises(ValueError):
        synthesize(SynthSpec(kind="multi_sine", length=10))
    with pytest.raises(ValueError, match="sample_rate must be positive"):
        SynthSpec(kind="sine", length=10, sample_rate=0.0, frequencies=(0.1,))
    with pytest.raises(ValueError, match="frequencies must be >= 0"):
        SynthSpec(kind="sine", length=10, frequencies=(-0.1,))
    with pytest.raises(ValueError, match="degree must be >= 0"):
        SynthSpec(kind="poly_exp", length=10, degree=-1)
    for amplitudes, phases in (((1.0, 0.5, 0.2), ()), ((1.0,), (0.0,))):
        spec = SynthSpec(kind="multi_sine", length=10, amplitudes=amplitudes,
                         frequencies=(0.1, 0.2), phases=phases)
        with pytest.raises(ValueError, match="must align"):
            synthesize(spec)


@pytest.mark.parametrize("field, value, message", [
    ("length", 100.5, "length must be an integer, not 100.5"),
    ("length", True, "length must be an integer, not True"),
    ("length", 0, "length must be >= 1"),
    ("seed", 0.5, "seed must be an integer, not 0.5"),
    ("seed", True, "seed must be an integer, not True"),
    ("degree", 2.5, "degree must be an integer, not 2.5"),
])
def test_spec_refuses_an_integer_field_that_is_not_one(field, value, message):
    fields = {"kind": "poly_exp", "length": 10, field: value}
    with pytest.raises(ValueError, match=f"^{message}$"):
        SynthSpec(**fields)


def test_spec_stores_integer_fields_as_python_ints():
    # numpy integers and a negative seed are accepted; each field becomes an int
    spec = SynthSpec(kind="uniform_noise", length=np.int64(64), seed=np.int32(-5),
                     degree=np.uint8(2))
    assert [type(v) for v in (spec.length, spec.seed, spec.degree)] == [int, int, int]
    same = SynthSpec(kind="uniform_noise", length=64, seed=-5)
    assert synthesize(spec).samples.tobytes() == synthesize(same).samples.tobytes()


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_multi_sine_admits_exact_law_at_any_stride(stride):
    # a sum of l tones satisfies a 2l+1 weight recursion exactly,
    # whatever stride is used to resample it
    spec = SynthSpec(
        kind="multi_sine",
        length=400,
        sample_rate=100.0,
        amplitudes=(1.0, 0.6),
        frequencies=(3.0, 7.5),
        phases=(0.2, 1.1),
    )
    series = synthesize(spec)
    dataset = embed(series, EmbeddingConfig(n=4, stride=stride))
    c = correlation(dataset)
    law = extract_law(eigendecompose(c), dataset.config)
    assert law.eigenvalue < 1e-10 * np.trace(c.entries)
    assert law.stride == stride


def test_write_wav_rejects_rates_its_header_cannot_store():
    # the byte rate, 2 * rate, is a u32 field
    samples = np.array([0.25])
    assert read_wav(write_wav(TimeSeries(samples=samples, sample_rate=2**31 - 1))).sample_rate == 2**31 - 1
    for rate in (0.4, 2**31, 3e9):
        with pytest.raises(ValueError, match="a WAV file stores 1 .. 2"):
            write_wav(TimeSeries(samples=samples, sample_rate=rate))


@pytest.mark.parametrize("count", [0, 1, 257])
@pytest.mark.parametrize("rate", [1, 8000, 2**31 - 1])
def test_write_wav_bytes_match_the_hand_packed_container(count, rate):
    samples = np.linspace(-1.5, 1.5, count)  # clamps at both ends
    frames = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    assert write_wav(TimeSeries(samples=samples, sample_rate=rate)) == pack_wav(frames, rate=rate)
