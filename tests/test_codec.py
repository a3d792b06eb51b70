"""Block codec: compress/decompress, the DLAW byte format, and sweeps."""

import dataclasses
import functools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlaw.codec import (
    AMPLITUDES,
    INITIAL_CONDITIONS,
    CodecParams,
    CompressionArtifact,
    compress,
    decompress,
    deserialize,
    random_baseline,
    rate_accuracy_slope,
    serialize,
    sweep,
)
from dynlaw.embedding import TimeSeries
from dynlaw.errors import (
    BadMagic,
    CorruptArtifact,
    InvariantViolation,
    NumericalError,
    SeriesTooShort,
    TruncatedPayload,
    UnstableBasis,
    UnstableOverflow,
    UnsupportedVersion,
    ZeroRoot,
)
from dynlaw.fitting import accuracy
from dynlaw.signal_io import SynthSpec, synthesize

import reference_codec


def two_tone(length=480, rate=100.0):
    return synthesize(
        SynthSpec(
            kind="multi_sine",
            length=length,
            sample_rate=rate,
            amplitudes=(1.0, 0.6),
            frequencies=(3.0, 7.5),
            phases=(0.2, 1.1),
        )
    )


def noise(length, seed):
    return synthesize(
        SynthSpec(kind="uniform_noise", length=length, sample_rate=1.0, seed=seed)
    )


def test_compress_pure_sine_stores_annihilating_law():
    series = synthesize(
        SynthSpec(kind="sine", length=4096, sample_rate=8000.0, frequencies=(440.0,))
    )
    art = compress(series, CodecParams(order_n=2, block_size=1024))
    assert len(art.weights) == 4
    assert art.tail.size == 0
    assert art.sample_rate == 8000
    z = -2.0 * np.cos(2.0 * np.pi * 440.0 / 8000.0)
    expected = np.array([1.0, z, 1.0])
    expected /= np.linalg.norm(expected)
    for w in art.weights.astype(np.float64):
        assert abs(np.linalg.norm(w) - 1.0) < 1e-6
        np.testing.assert_allclose(w, expected, atol=1e-5)
    rebuilt = decompress(art)
    assert rebuilt.samples.size == 4096
    assert accuracy(series.samples, rebuilt.samples) > 0.999


def test_compress_constant_block():
    series = synthesize(SynthSpec(kind="constant", length=8, value=5.0))
    art = compress(series, CodecParams(order_n=1, block_size=8))
    (w,) = art.weights
    (payload,) = art.payload
    assert abs(w[0]) == abs(w[1])  # the difference law, up to sign
    assert w[0] > 0
    assert abs(float(payload[0]) - 5.0) < 1e-6
    rebuilt = decompress(art)
    np.testing.assert_allclose(rebuilt.samples, 5.0, atol=1e-9)


def test_symmetric_mode_stores_palindromes():
    art = compress(
        two_tone(),
        CodecParams(order_n=4, block_size=160, symmetric=True),
    )
    for w in art.weights:
        assert w[0] == w[4] and w[1] == w[3]  # bit-exact mirror
    assert accuracy(two_tone().samples, decompress(art).samples) > 0.999


def test_two_tone_round_trip_both_fit_modes():
    series = two_tone()
    for mode in (AMPLITUDES, INITIAL_CONDITIONS):
        art = compress(
            series, CodecParams(order_n=4, block_size=160, fit_mode=mode)
        )
        out = decompress(art)
        assert out.samples.size == series.samples.size
        assert accuracy(series.samples, out.samples) > 0.999, mode


def test_strided_compression_recovers_full_rate_signal():
    # laws live on the stride-2 lattice; decoding maps their roots back
    # to per-sample roots, valid because both tones sit below 25 Hz
    series = two_tone()
    for mode in (AMPLITUDES, INITIAL_CONDITIONS):
        art = compress(
            series,
            CodecParams(order_n=4, block_size=160, stride=2, fit_mode=mode),
        )
        out = decompress(art)
        assert accuracy(series.samples, out.samples) > 0.99, mode


def three_tone():
    return synthesize(
        SynthSpec(
            kind="multi_sine",
            length=4096,
            sample_rate=8000.0,
            amplitudes=(1.0, 0.6, 0.3),
            frequencies=(440.0, 660.0, 1210.0),
            phases=(0.2, 1.1, 2.0),
        )
    )


def damped_300hz():
    return synthesize(
        SynthSpec(
            kind="damped_sine", length=4096, sample_rate=8000.0, frequencies=(300.0,), decay=1.0
        )
    )


@pytest.mark.parametrize(
    "signal, params",
    [
        (three_tone, CodecParams(order_n=n, block_size=block, fit_mode=mode))
        for n, block in ((8, 256), (16, 256), (32, 1024))
        for mode in (AMPLITUDES, INITIAL_CONDITIONS)
    ]
    + [
        (three_tone, CodecParams(order_n=n, block_size=256, fit_mode=INITIAL_CONDITIONS,
                                 symmetric=True))
        for n in (8, 16)
    ]
    + [(damped_300hz, CodecParams(order_n=6, block_size=256, fit_mode=INITIAL_CONDITIONS))],
    ids=lambda v: v.__name__ if callable(v) else
    f"n{v.order_n}-{v.fit_mode}{'-sym' if v.symmetric else ''}",
)
def test_over_ordered_round_trip_through_file(signal, params):
    # more lags than modes leave a null space of several dimensions; the
    # min-norm law keeps its extra roots harmless to both fit modes
    series = signal()
    art = compress(series, params)
    out = decompress(deserialize(serialize(art)))
    np.testing.assert_array_equal(out.samples, decompress(art).samples)
    assert accuracy(series.samples, out.samples) >= 0.999


def sine_with_silent_block():
    t = np.arange(1024) / 8000.0
    y = np.sin(2 * np.pi * 440.0 * t)
    y[256:512] = 0.0
    return TimeSeries(samples=y, sample_rate=8000.0)


@pytest.mark.parametrize("mode", [AMPLITUDES, INITIAL_CONDITIONS])
@pytest.mark.parametrize("stride", [1, 2])
def test_all_zero_block_decodes_to_zeros(mode, stride):
    # a silent block's law has no weight past lag 0: no modes to fit in
    # amplitude mode, zeros after zero seeds in IC mode
    series = sine_with_silent_block()
    art = compress(series, CodecParams(order_n=2, block_size=256, stride=stride, fit_mode=mode))
    direct = decompress(art).samples
    from_file = decompress(deserialize(serialize(art))).samples
    assert direct.tobytes() == from_file.tobytes()
    assert np.all(from_file[256:512] == 0.0)
    assert accuracy(series.samples, from_file) > 0.999


def test_tail_ships_verbatim():
    series = two_tone(length=500)  # 3 blocks of 160 plus 20 spare samples
    art = compress(series, CodecParams(order_n=4, block_size=160))
    assert art.tail.size == 20
    out = decompress(art)
    np.testing.assert_array_equal(
        out.samples[480:], series.samples[480:].astype(np.float32).astype(np.float64)
    )


def test_decompress_blockless_artifact_is_tail_only():
    art = CompressionArtifact(
        params=CodecParams(order_n=2, block_size=8),
        sample_rate=50,
        weights=np.zeros((0, 3)),
        payload=np.zeros((0, 2)),
        tail=np.array([1.0, 2.0, 3.0]),
    )
    out = decompress(art)
    np.testing.assert_array_equal(out.samples, [1.0, 2.0, 3.0])
    assert out.sample_rate == 50.0


def test_serialize_round_trip_is_identity():
    art = compress(
        two_tone(length=500),
        CodecParams(order_n=4, block_size=160, fit_mode=INITIAL_CONDITIONS),
    )
    back = deserialize(serialize(art))
    assert back.params == art.params
    assert back.sample_rate == art.sample_rate
    assert len(back.weights) == len(art.weights)
    np.testing.assert_array_equal(art.weights, back.weights)
    np.testing.assert_array_equal(art.payload, back.payload)
    np.testing.assert_array_equal(art.tail, back.tail)


def test_serialized_decode_matches_in_memory_decode_exactly():
    series = two_tone()
    art = compress(series, CodecParams(order_n=4, block_size=160))
    direct = decompress(art)
    via_bytes = decompress(deserialize(serialize(art)))
    np.testing.assert_array_equal(direct.samples, via_bytes.samples)


def test_symmetric_serialization_stores_half_vector():
    full = compress(two_tone(), CodecParams(order_n=4, block_size=160))
    half = compress(
        two_tone(), CodecParams(order_n=4, block_size=160, symmetric=True)
    )
    data_full = serialize(full)
    data_half = serialize(half)
    # 5 weights vs 3 per block, 3 blocks
    assert len(data_full) - len(data_half) == 4 * 2 * 3
    back = deserialize(data_half)
    assert back.params.symmetric
    np.testing.assert_array_equal(half.weights, back.weights)


def test_blockless_artifact_size():
    art = CompressionArtifact(
        params=CodecParams(order_n=2, block_size=8),
        sample_rate=50,
        tail=np.array([1.0, 2.0, 3.0]),
    )
    assert len(serialize(art)) == 32 + 4 * 3


def test_reader_rejects_wrong_magic():
    data = bytearray(serialize(_tiny_artifact()))
    data[:4] = b"WAVE"
    with pytest.raises(BadMagic):
        deserialize(bytes(data))


def test_reader_rejects_future_version():
    data = bytearray(serialize(_tiny_artifact()))
    struct.pack_into("<H", data, 4, 2)
    with pytest.raises(UnsupportedVersion):
        deserialize(bytes(data))


def test_reader_rejects_truncation_and_trailing_bytes():
    data = serialize(_tiny_artifact())
    with pytest.raises(TruncatedPayload):
        deserialize(data[:-1])
    with pytest.raises(TruncatedPayload):
        deserialize(data[:20])
    with pytest.raises(InvariantViolation):
        deserialize(data + b"\x00")


def test_reader_rejects_header_invariant_breaks():
    base = serialize(_tiny_artifact())

    def corrupt(offset, fmt, value):
        buf = bytearray(base)
        struct.pack_into(fmt, buf, offset, value)
        return bytes(buf)

    with pytest.raises(InvariantViolation):  # unknown flag bit
        deserialize(corrupt(6, "<H", 4))
    with pytest.raises(InvariantViolation):  # reserved field
        deserialize(corrupt(28, "<I", 7))
    with pytest.raises(InvariantViolation):  # zero n
        deserialize(corrupt(16, "<H", 0))
    with pytest.raises(InvariantViolation):  # block_size < 2n
        deserialize(corrupt(12, "<I", 3))


def test_reader_rejects_broken_weight_norm():
    data = bytearray(serialize(_tiny_artifact()))
    struct.pack_into("<f", data, 32, 9.0)  # first stored weight
    with pytest.raises(InvariantViolation):
        deserialize(bytes(data))


def test_reader_rejects_non_finite_payload():
    data = bytearray(serialize(_tiny_artifact()))
    n = 2
    offset = 32 + 4 * (n + 1)  # first payload value of block 0
    struct.pack_into("<f", data, offset, float("nan"))
    with pytest.raises(InvariantViolation):
        deserialize(bytes(data))


def test_every_reader_error_is_a_corrupt_artifact():
    for exc in (BadMagic, UnsupportedVersion, TruncatedPayload, InvariantViolation):
        assert issubclass(exc, CorruptArtifact)


@functools.lru_cache(maxsize=None)
def _valid_file(mode, symmetric, stride):
    params = CodecParams(order_n=4, block_size=160, stride=stride, fit_mode=mode,
                         symmetric=symmetric)
    return serialize(compress(two_tone(length=500), params))


_MUTATION = st.one_of(
    st.tuples(st.just("overwrite"), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
)


def _mutate(data: bytes, mutation) -> bytes:
    buf = bytearray(data)
    kind = mutation[0]
    if kind == "extend":
        return bytes(buf + mutation[1])
    if not buf:
        return bytes(buf)
    pos = mutation[1] % len(buf)
    if kind == "overwrite":
        chunk = mutation[2][: len(buf) - pos]
        buf[pos : pos + len(chunk)] = chunk
    elif kind == "flip":
        buf[pos] ^= 1 << mutation[2]
    else:
        del buf[pos:]
    return bytes(buf)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([AMPLITUDES, INITIAL_CONDITIONS]),
    st.booleans(),
    st.sampled_from([1, 2]),
    st.lists(_MUTATION, min_size=1, max_size=3),
)
def test_mutated_files_raise_corrupt_or_round_trip(mode, symmetric, stride, mutations):
    # the fuzzed artifacts are never decoded: a mutated block_size alone
    # would make decompress allocate block_size x n floats
    data = _valid_file(mode, symmetric, stride)
    for mutation in mutations:
        data = _mutate(data, mutation)
    try:
        art = deserialize(data)
    except CorruptArtifact:
        return
    assert serialize(art) == data


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the property compares failures by class and message
        return type(exc), str(exc)


@st.composite
def _codec_case(draw):
    n = draw(st.integers(1, 6))
    block = draw(st.integers(2 * n, 48))
    stride = draw(st.integers(1, 3).filter(lambda s: s * n < block))
    symmetric = draw(st.booleans())
    params = CodecParams(
        order_n=n,
        block_size=block,
        stride=stride,
        fit_mode=draw(st.sampled_from([AMPLITUDES, INITIAL_CONDITIONS])),
        symmetric=symmetric,
    )
    kinds = draw(st.lists(st.sampled_from(["tone", "zero", "noise"]), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for kind in kinds + ["tail"]:
        size = block if kind != "tail" else draw(st.integers(0, block - 1))
        k = np.arange(size)
        if kind == "tone":
            part = np.exp(-rng.uniform(0.0, 0.05) * k) * np.sin(rng.uniform(0.05, 3.0) * k + 1.0)
        elif kind == "zero":
            part = np.zeros(size)
        else:
            part = rng.uniform(-1.0, 1.0, size)
        parts.append(part)
    # 16-bit steps, as audio brings them
    return TimeSeries(np.round(np.concatenate(parts) * 32767.0) / 32767.0, 8000.0), params


@settings(max_examples=200, deadline=None)
@given(_codec_case())
def test_batched_codec_matches_block_by_block_reference(case):
    series, params = case
    data = _outcome(lambda: serialize(compress(series, params)))
    expected = _outcome(lambda: serialize(reference_codec.compress(series, params)))
    assert data == expected
    if isinstance(data, bytes):
        art = deserialize(data)
        decoded = _outcome(lambda: decompress(art).samples)
        reference = _outcome(lambda: reference_codec.decompress(art))
        if isinstance(reference, np.ndarray):
            assert decoded.tobytes() == reference.tobytes()
        else:
            assert decoded == reference
    if not series.samples.any():
        return
    # sweep measures in amplitude mode, whichever mode the file stores
    measured = dataclasses.replace(params, fit_mode=AMPLITUDES)
    report = _outcome(lambda: sweep(series, (params.order_n,), (params.stride,), params.block_size,
                                    params.symmetric))
    point = _outcome(lambda: reference_codec.measure_point(series.samples, measured))
    if isinstance(point, tuple) and isinstance(point[0], type):
        if issubclass(point[0], NumericalError):
            assert report.skipped == ((params.order_n, params.stride, f"{point[0].__name__}: {point[1]}"),)
        else:
            assert report == point
    else:
        assert [(row.A, row.lambda_min) for row in report.rows] == [point]


@pytest.mark.parametrize("swap", [False, True])
def test_lowest_failing_block_sets_the_error(swap):
    # amplitude mode, n = 1, stride 2: 1 - 10 x has the root 0.1, whose
    # per-sample mode 0.1^(-k/2) passes 1e100 at step 200; x has a root
    # at 0, which has no fractional power.  A pass stage by stage would
    # meet the zero root first in both orders.
    grow = np.array([1.0, -10.0]) / np.linalg.norm([1.0, -10.0])
    laws = [[0.0, 1.0], grow] if swap else [grow, [0.0, 1.0]]
    art = CompressionArtifact(
        params=CodecParams(order_n=1, block_size=300, stride=2),
        sample_rate=8000,
        weights=np.array(laws),
        payload=np.ones((2, 1)),
    )
    if swap:
        with pytest.raises(ZeroRoot):
            decompress(art)
    else:
        with pytest.raises(UnstableOverflow, match="at step 200"):
            decompress(art)


def _tone(length, scale=1.0):
    return scale * np.sin(2 * np.pi * 440.0 * np.arange(length) / 8000.0)


@pytest.mark.parametrize("mode", [AMPLITUDES, INITIAL_CONDITIONS])
def test_payload_beyond_float32_fails_the_block(mode):
    # the law of a 1e150 tone is fine, but its payload cannot be stored
    series = TimeSeries(_tone(512, 1e150), 8000.0)
    params = CodecParams(order_n=4, block_size=128, fit_mode=mode)
    with pytest.raises(UnstableOverflow, match="payload coefficient beyond float32 range"):
        compress(series, params)
    with pytest.raises(UnstableOverflow, match="payload coefficient beyond float32 range"):
        reference_codec.compress(series, params)


def test_tail_beyond_float32_fails_the_file():
    y = _tone(300)
    y[-1] = 1e300
    params = CodecParams(order_n=4, block_size=128)
    for encode in (compress, reference_codec.compress):
        with pytest.raises(UnstableOverflow, match="tail sample beyond float32 range"):
            encode(TimeSeries(y, 8000.0), params)


@pytest.mark.parametrize("overflow_first", [False, True])
def test_payload_overflow_keeps_block_order(overflow_first):
    # seeded noise (seed 15) has no stable impulse basis at n = 4, block 64
    unstable = noise(64, seed=15).samples
    parts = [_tone(64, 1e150), unstable] if overflow_first else [unstable, _tone(64, 1e150)]
    series = TimeSeries(np.concatenate(parts), 8000.0)
    params = CodecParams(order_n=4, block_size=64, fit_mode=INITIAL_CONDITIONS)
    expected = UnstableOverflow if overflow_first else UnstableBasis
    for encode in (compress, reference_codec.compress):
        with pytest.raises(expected):
            encode(series, params)


@pytest.mark.parametrize("field", ["weights", "payload", "tail"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1e39])
def test_artifact_rejects_values_a_file_cannot_store(field, value):
    arrays = {"weights": np.array([[0.6, 0.8]]), "payload": np.array([[1.0]]),
              "tail": np.array([0.5])}
    arrays[field] = np.full_like(arrays[field], value)
    with pytest.raises(ValueError, match=f"{field} must be finite and within float32 range"):
        CompressionArtifact(params=CodecParams(order_n=1, block_size=8), sample_rate=8000,
                            **arrays)


def _tiny_artifact():
    series = synthesize(
        SynthSpec(kind="sine", length=32, sample_rate=6.0, frequencies=(1.0,))
    )
    return compress(series, CodecParams(order_n=2, block_size=16))


def test_sweep_exact_class_hits_unity_everywhere():
    report = sweep(two_tone(), n_grid=(4, 5, 6), stride_grid=(1,), block_size=160)
    assert not report.skipped
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.A > 0.999
        assert row.lambda_min < 1e-10


def test_sweep_rate_one_is_near_lossless_even_on_noise():
    report = sweep(
        noise(256, seed=7),
        n_grid=(8,),
        stride_grid=(1,),
        block_size=16,
    )
    (row,) = report.rows
    assert row.R == 1.0
    assert row.A >= 1.0 - 1e-6


def test_sweep_records_skipped_points():
    report = sweep(
        noise(128, seed=1),
        n_grid=(4, 9),
        stride_grid=(1, 4),
        block_size=16,
    )
    reasons = {(n, s): why for n, s, why in report.skipped}
    assert (9, 1) in reasons and "rate below 1" in reasons[9, 1]
    assert (9, 4) in reasons
    assert (4, 4) in reasons and "no window fits" in reasons[4, 4]
    assert {(r.n, r.stride) for r in report.rows} == {(4, 1)}


def test_sweep_accuracy_decays_with_rate_on_noise():
    medians = []
    for n in (16, 8, 4):  # R = 2, 4, 8 at block 64
        vals = []
        for seed in range(10):
            report = sweep(noise(512, seed=seed), (n,), (1,), block_size=64)
            vals.append(report.rows[0].A)
        medians.append(float(np.median(vals)))
    assert medians[0] > medians[1] > medians[2]


def test_sweep_csv_shape():
    report = sweep(two_tone(), n_grid=(4,), stride_grid=(1,), block_size=160)
    lines = report.to_csv().splitlines()
    assert lines[0] == "n,stride,R,A,lambda_min"
    assert len(lines) == 2
    n, s, r, a, lam = lines[1].split(",")
    assert (int(n), int(s)) == (4, 1)
    assert float(r) == 20.0
    assert 0.0 < float(a) <= 1.0


def test_random_baseline_is_seed_deterministic():
    rep1, slope1 = random_baseline(512, seed=3, n_grid=(4, 8), block_size=64)
    rep2, slope2 = random_baseline(512, seed=3, n_grid=(4, 8), block_size=64)
    assert slope1 == slope2
    assert [(r.R, r.A) for r in rep1.rows] == [(r.R, r.A) for r in rep2.rows]
    assert np.isfinite(slope1)


def test_slope_helper_filters_and_fits():
    class Row:
        def __init__(self, R, A):
            self.R, self.A = R, A

    rows = [Row(np.exp(1), np.exp(-2)), Row(np.exp(2), np.exp(-4)), Row(1.0, 0.5)]
    assert abs(rate_accuracy_slope(rows) + 2.0) < 1e-12
    assert np.isnan(rate_accuracy_slope(rows[2:]))


def test_codec_params_validation():
    with pytest.raises(ValueError):
        CodecParams(order_n=0, block_size=8)
    with pytest.raises(ValueError):
        CodecParams(order_n=2, block_size=8, stride=0)
    with pytest.raises(ValueError):
        CodecParams(order_n=2, block_size=8, fit_mode="spline")
    with pytest.raises(ValueError):
        CodecParams(order_n=5, block_size=8)
    with pytest.raises(ValueError):
        CodecParams(order_n=4, block_size=8, stride=2)
    assert CodecParams(order_n=4, block_size=160).rate == 20.0


def test_compress_and_sweep_reject_short_or_silent_input():
    with pytest.raises(SeriesTooShort):
        compress(two_tone(length=100), CodecParams(order_n=2, block_size=128))
    with pytest.raises(SeriesTooShort):
        sweep(two_tone(length=100), (2,), (1,), block_size=128)
    silent = TimeSeries(samples=np.zeros(64), sample_rate=1.0)
    with pytest.raises(ValueError):
        sweep(silent, (2,), (1,), block_size=32)
