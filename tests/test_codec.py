"""Block codec: compress/decompress, the DLAW byte format, and sweeps."""

import dataclasses
import functools
import json
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dynlaw.codec
from dynlaw.codec import (
    AMPLITUDES,
    INITIAL_CONDITIONS,
    CodecParams,
    CompressionArtifact,
    StoredExponents,
    SweepReport,
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
    NonRealCoefficients,
    NumericalError,
    SeriesTooShort,
    TruncatedPayload,
    UnstableBasis,
    UnstableOverflow,
    UnsupportedVersion,
    ZeroRoot,
)
from dynlaw.fitting import accuracy
from dynlaw.signal_io import SynthSpec, lcg_uniform, synthesize

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
    assert art.version == 2
    assert len(art.payload) == 4
    assert art.tail.size == 0
    assert art.sample_rate == 8000
    # the law [1, -2 cos(theta), 1] has the roots e^(+-i theta): one
    # pair per block, with ln rho = 0 and theta = 2 pi 440 / 8000
    e = art.exponents
    assert list(e.pairs) == [1] * 4 and list(e.reals) == [0] * 4
    np.testing.assert_allclose(e.log_radius, 0.0, atol=1e-6)
    np.testing.assert_allclose(e.angle * np.pi / 2**32, 2.0 * np.pi * 440.0 / 8000.0, rtol=1e-6)
    rebuilt = decompress(art)
    assert rebuilt.samples.size == 4096
    assert accuracy(series.samples, rebuilt.samples) > 0.999


def test_compress_constant_block():
    series = synthesize(SynthSpec(kind="constant", length=8, value=5.0))
    art = compress(series, CodecParams(order_n=1, block_size=8))
    e = art.exponents
    (payload,) = art.payload
    # the difference law has the one real root q = 1: ln|q| = 0, q > 0
    assert list(e.pairs) == [0] and list(e.reals) == [1]
    assert abs(float(e.log_magnitude[0])) < 1e-6 and not e.negative[0]
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


def test_v1_amplitude_block_with_no_lag_weight_decodes_to_zeros():
    # a DLAW v1 file may store a non-symmetric amplitude-mode law as
    # weights; (1, 0, 0) has no root, so its block has no mode to scale
    w = np.array([1.0, -2.0 * np.cos(0.3), 1.0])
    art = CompressionArtifact(params=CodecParams(order_n=2, block_size=64), sample_rate=8000,
                              weights=[[1.0, 0.0, 0.0], w / np.linalg.norm(w)],
                              payload=[[0.5, -0.25], [0.5, -0.25]])
    back = deserialize(serialize(art))
    assert back.version == 1
    out = decompress(back).samples
    assert np.all(out[:64] == 0.0)
    assert out[64:].tobytes() == reference_codec.decompress(back)[64:].tobytes()
    assert np.any(out[64:] != 0.0)


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
    struct.pack_into("<H", data, 4, 3)
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
    with pytest.raises(InvariantViolation):  # zero stride
        deserialize(corrupt(18, "<H", 0))
    with pytest.raises(InvariantViolation):  # stride * n >= block_size (2 * 8 = 16)
        deserialize(corrupt(18, "<H", 8))
    with pytest.raises(InvariantViolation):  # zero sample rate
        deserialize(corrupt(8, "<I", 0))


def test_reader_rejects_broken_weight_norm():
    data = bytearray(serialize(_tiny_artifact(INITIAL_CONDITIONS)))  # a v1 file
    struct.pack_into("<f", data, 32, 9.0)  # first stored weight
    with pytest.raises(InvariantViolation, match="stored weights have a norm off 1 by"):
        deserialize(bytes(data))
    golden = Path(__file__).resolve().parent / "data" / "amp_stride1.dlaw"
    golden = bytearray(golden.read_bytes())
    assert deserialize(bytes(golden)).version == 1
    struct.pack_into("<f", golden, 32, 0.0)  # first stored weight of a v1 golden file
    with pytest.raises(InvariantViolation, match="stored weights have a norm off 1 by 0.[0-9]{6}$"):
        deserialize(bytes(golden))


def test_artifact_rejects_a_law_off_unit_norm():
    # an all-zero law would reach a divide by zero in decompress
    with pytest.raises(ValueError, match="stored weights have a norm off 1 by 1.000000"):
        CompressionArtifact(params=CodecParams(2, 8), sample_rate=8000, weights=np.zeros((1, 3)),
                            payload=np.ones((1, 2)))
    w = np.array([[0.6, 0.0, 0.8]])
    CompressionArtifact(params=CodecParams(2, 8), sample_rate=8000, weights=w * 1.0005,
                        payload=np.ones((1, 2)))
    with pytest.raises(ValueError, match="norm off 1 by 0.002000"):
        CompressionArtifact(params=CodecParams(2, 8), sample_rate=8000, weights=w * 1.002,
                            payload=np.ones((1, 2)))


@pytest.mark.parametrize("mode", [AMPLITUDES, INITIAL_CONDITIONS])
def test_reader_rejects_non_finite_payload(mode):
    artifact = _tiny_artifact(mode)
    data = bytearray(serialize(artifact))
    n = 2
    if artifact.version == 1:
        offset = 32 + 4 * (n + 1)  # first payload value of block 0
    else:
        # two blocks of one pair each: payloads follow the root
        # structure (2 x 4 bytes) and the pairs (2 x 8 bytes)
        assert list(artifact.exponents.pairs) == [1, 1] and not artifact.exponents.reals.any()
        offset = 32 + 8 + 16
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


def _decays(length=320):
    """Two tones, a decaying offset and a decaying alternation: at n = 6
    each block's law has two pairs and two real roots, one negative."""
    k = np.arange(length)
    y = (np.sin(0.35 * k + 0.3) * 0.6 + np.sin(0.95 * k + 1.1) * 0.3
         + 0.2 * 0.97**k + 0.1 * (-0.95) ** k)
    return TimeSeries(np.round(y * 32767.0) / 32767.0, 8000.0)


@functools.lru_cache(maxsize=None)
def _v2_file(stride):
    artifact = compress(_decays(), CodecParams(order_n=6, block_size=96, stride=stride))
    assert artifact.version == 2 and artifact.exponents.reals.any()
    return serialize(artifact)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2]), st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_v2_files_raise_corrupt_or_round_trip(stride, mutations):
    data = _v2_file(stride)
    for mutation in mutations:
        data = _mutate(data, mutation)
    try:
        art = deserialize(data)
    except CorruptArtifact:
        return
    assert serialize(art) == data


def _v2_sections(data):
    """Byte offsets of the v2 sections of a file: root structure, pairs,
    real roots, sign words, payload; and the pair and real root counts."""
    (_, _, _, _, _, n, _, blocks, _, _) = struct.unpack("<4sHHIIHHIII", data[:32])
    structure = np.frombuffer(data, dtype="<u4", count=blocks, offset=32)
    p, r = int(np.sum(structure & 0xFFFF)), int(np.sum(structure >> 16))
    pairs = 32 + 4 * blocks
    reals = pairs + 8 * p
    signs = reals + 4 * r
    payload = signs + 4 * (-(-r // 32))
    return {"structure": 32, "pairs": pairs, "reals": reals, "signs": signs,
            "payload": payload, "end": payload + 4 * (2 * p + r)}, n, p, r


def _patched(data, offset, fmt, value):
    buf = bytearray(data)
    struct.pack_into(fmt, buf, offset, value)
    return bytes(buf)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_v2_reader_rejects_a_non_finite_log(value):
    data = _v2_file(1)
    at, _, _, _ = _v2_sections(data)
    for offset in (at["pairs"], at["reals"]):  # a pair's ln rho, a real root's ln|q|
        with pytest.raises(InvariantViolation, match="must be finite"):
            deserialize(_patched(data, offset, "<f", value))


def test_v2_reader_rejects_a_pair_angle_outside_the_open_interval():
    data = _v2_file(1)
    at, _, _, _ = _v2_sections(data)
    with pytest.raises(InvariantViolation, match="pair angles must be whole numbers in 1 "):
        deserialize(_patched(data, at["pairs"] + 4, "<I", 0))
    # the largest code is still inside: theta = pi (1 - 2^-32)
    deserialize(_patched(data, at["pairs"] + 4, "<I", 2**32 - 1))


@pytest.mark.parametrize("pairs, reals", [(4, 0), (0, 7), (3, 1), (0xFFFF, 0xFFFF)])
def test_v2_reader_rejects_root_counts_beyond_n(pairs, reals):
    data = _v2_file(1)
    _, n, _, _ = _v2_sections(data)
    assert 2 * pairs + reals > n == 6
    with pytest.raises(InvariantViolation, match="exceed its n = 6 columns"):
        deserialize(_patched(data, 32, "<I", pairs | reals << 16))


def test_v2_reader_rejects_truncated_rows_and_stray_bits():
    data = _v2_file(1)
    at, _, _, r = _v2_sections(data)
    for offset in sorted(set(at.values()) - {at["end"]}) + [at["end"] - 1, len(data) - 1]:
        with pytest.raises(TruncatedPayload):
            deserialize(data[:offset])
    with pytest.raises(InvariantViolation, match="trailing bytes"):
        deserialize(data + bytes(4))
    assert r < 32  # so the last bit of the sign word pads
    with pytest.raises(InvariantViolation, match="sign bits past the last real root"):
        deserialize(_patched(data, at["signs"] + 3, "<B", 0x80))
    with pytest.raises(InvariantViolation, match="not symmetric store exponents"):
        deserialize(_patched(data, 6, "<H", 1))  # the symmetric flag


def test_v2_artifact_rejects_exponents_a_file_cannot_store():
    params = CodecParams(order_n=2, block_size=8)
    good = dict(pairs=[1], reals=[0], log_radius=[0.0], angle=[5], log_magnitude=[], negative=[])
    CompressionArtifact(params=params, sample_rate=8000, payload=[[1.0, 2.0]],
                        exponents=StoredExponents(**good))
    for field, value, reason in (("angle", [0], "pair angles"), ("angle", [2**32], "pair angles"),
                                 ("log_radius", [np.nan], "finite"), ("reals", [-1], "counts"),
                                 ("log_radius", [], "one value per pair"),
                                 ("reals", [0, 0], "one count per block")):
        with pytest.raises(ValueError, match=reason):
            StoredExponents(**{**good, field: value})
    too_many = StoredExponents(**{**good, "reals": [1], "log_magnitude": [0.0], "negative": [True]})
    with pytest.raises(ValueError, match="fit in n payload columns"):
        CompressionArtifact(params=params, sample_rate=8000, payload=[[1.0, 2.0]], exponents=too_many)
    one_real = StoredExponents(pairs=[0], reals=[1], log_radius=[], angle=[], log_magnitude=[0.0],
                               negative=[False])
    with pytest.raises(ValueError, match="past a block's degree must be zero"):
        CompressionArtifact(params=params, sample_rate=8000, payload=[[1.0, 2.0]], exponents=one_real)
    for other in (dataclasses.replace(params, symmetric=True),
                  dataclasses.replace(params, fit_mode=INITIAL_CONDITIONS)):
        with pytest.raises(ValueError, match="store exponents"):
            CompressionArtifact(params=other, sample_rate=8000, payload=[[1.0, 2.0]],
                                exponents=StoredExponents(**good))


def test_a_block_whose_roots_do_not_pair_fails_alone(monkeypatch):
    import dynlaw.codec

    # companion eigenvalues of real laws come out exactly conjugate, so
    # a lone complex root is planted in block 0 of three
    found = dynlaw.codec._roots

    def unpaired(w):
        q, worst, errors = found(w)
        q = q.copy()
        q[0, 0] += 1e-3j
        return q, worst, errors

    monkeypatch.setattr(dynlaw.codec, "_roots", unpaired)
    w = np.array([[1.0, -1.0, 1.0], [1.0, -1.5, 1.0], [1.0, 0.3, -0.5]])
    (log_radius, angle, real, cosine), errors = dynlaw.codec._law_exponents(w, 1)
    assert list(errors) == [0] and isinstance(errors[0], NonRealCoefficients)
    assert real.sum(axis=1).tolist() == [0, 0, 2] and cosine.sum(axis=1).tolist() == [0, 1, 0]


@pytest.mark.parametrize("stride", [1, 2])
def test_interleaved_pairs_are_stored_in_lead_root_order(stride, monkeypatch):
    import types

    import dynlaw.codec

    # equal real parts sort two pairs' roots interleaved, x - ib, x - ia,
    # x + ia, x + ib (a < b), which only the greedy pairing pairs; each
    # pair leads with its later root, so pair a leads first though pair
    # b opens first.  Companion roots never come out this exact, so the
    # roots are planted
    q = 0.5 + 1j * np.array([-0.6, -0.2, 0.2, 0.6])
    monkeypatch.setattr(dynlaw.codec, "_roots", lambda w: (np.tile(q, (len(w), 1)), None, {}))
    monkeypatch.setattr(reference_codec, "weights_to_roots", lambda w: types.SimpleNamespace(roots=q))
    w = np.ones((1, 5))
    (log_radius, angle, real, cosine), errors = dynlaw.codec._law_exponents(w, stride)
    pair_u, real_u, _ = reference_codec.quantize_exponents(*reference_codec.law_exponents(w[0], stride))
    assert not errors and not real.any() and real_u == []
    assert angle[cosine].tolist() == [u.imag for u in pair_u]
    assert log_radius[cosine].tolist() == [u.real for u in pair_u]
    assert angle[0, 0] < angle[0, 2]  # pair a, nearer the real axis, first


_LOG10 = st.floats(-3.0, 3.0)  # a root magnitude 10^x, 1e-3 .. 1e3


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(_LOG10, st.floats(1e-4, np.pi - 1e-4)), max_size=3),
    reals=st.lists(st.tuples(_LOG10, st.booleans()), max_size=3),
    # exact conjugates whose imaginary part is within the pairing
    # tolerance, so both roots count as real
    near=st.lists(st.tuples(_LOG10, st.booleans(), st.floats(0.0, 0.99)), max_size=2),
    strides=st.lists(st.integers(2, 7), min_size=1, max_size=4),
)
def test_per_sample_roots_match_the_paired_reference(pairs, reals, near, strides):
    # the codec maps each root on its own; the reference pairs the roots
    # first and maps each pair's lead root, its partner taking the conjugate
    from dynlaw.codec import _per_sample_roots
    from dynlaw.lawforms import _PAIR_TOL

    q = [10.0 ** e * np.exp(1j * theta) for e, theta in pairs]
    q += [np.conj(z) for z in q]
    q += [complex(-(10.0 ** e) if negative else 10.0 ** e) for e, negative in reals]
    for e, negative, frac in near:
        x = -(10.0 ** e) if negative else 10.0 ** e
        z = complex(x, frac * _PAIR_TOL * (1.0 + abs(x)))
        q += [z, np.conj(z)]
    assume(q)
    q = np.array(q)
    q = q[np.lexsort((q.imag, q.real))]
    got = _per_sample_roots(np.tile(q, (len(strides), 1)), np.array(strides))
    for row, stride in zip(got, strides):
        assert row.tobytes() == reference_codec.per_sample_roots(q, stride).tobytes()


@pytest.mark.parametrize("stride", [1, 2])
def test_v2_decode_finds_no_roots(stride, monkeypatch):
    import dynlaw.codec
    import dynlaw.fitting
    import dynlaw.lawforms

    data = _v2_file(stride)
    expected = decompress(deserialize(data)).samples

    def refuse(*args, **kwargs):
        raise AssertionError("v2 decode must not find, pair or map roots")

    for module in (dynlaw.codec, dynlaw.lawforms, dynlaw.fitting):
        for name in ("_roots", "_pairs", "_per_sample_roots", "_unit", "_mode_bases",
                     "_mode_exponents"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    with pytest.raises(AssertionError):  # the patch holds for v1 files and for encoding
        compress(_decays(), CodecParams(order_n=6, block_size=96, stride=stride))
    assert decompress(deserialize(data)).samples.tobytes() == expected.tobytes()


def test_v1_initial_condition_decode_at_stride_1_finds_no_roots(monkeypatch):
    # every stride-1 IC block steps its stored law as it is: no degree
    # trim, no roots, also for an all-zero block's law
    silent = compress(sine_with_silent_block(),
                      CodecParams(order_n=2, block_size=256, fit_mode=INITIAL_CONDITIONS))
    files = [(Path(__file__).resolve().parent / "data" / "ic_stride1.dlaw").read_bytes(),
             serialize(silent)]
    expected = [decompress(deserialize(data)).samples for data in files]

    def refuse(*args, **kwargs):
        raise AssertionError("a stride-1 IC decode must not trim degrees or find roots")

    for name in ("_degrees", "_roots"):
        monkeypatch.setattr(dynlaw.codec, name, refuse)
    for data, samples in zip(files, expected):
        assert deserialize(data).params.stride == 1
        assert decompress(deserialize(data)).samples.tobytes() == samples.tobytes()
    assert not expected[1][256:512].any()


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


@settings(max_examples=100, deadline=None)
@given(_codec_case(), st.lists(st.integers(1, 3), min_size=1, max_size=4), st.data())
def test_multi_stride_sweep_matches_the_reference_point_by_point(case, strides, data):
    # one pass measures every stride of an order; each point must come
    # out as the block-by-block reference measures it alone, in grid
    # order, duplicates and the infeasible stride included
    series, params = case
    n, block, symmetric = params.order_n, params.block_size, params.symmetric
    if not series.samples[: series.samples.size // block * block].any():
        return
    grid = list(strides)
    grid.insert(data.draw(st.integers(0, len(grid))), -(-block // n))  # stride * n >= block
    report = sweep(series, (n,), grid, block, symmetric)
    rows, skipped = iter(report.rows), iter(report.skipped)
    for s in grid:
        try:
            point = CodecParams(order_n=n, block_size=block, stride=s, symmetric=symmetric)
        except ValueError as exc:
            assert next(skipped) == (n, s, str(exc))
            continue
        expected = _outcome(lambda: reference_codec.measure_point(series.samples, point))
        if isinstance(expected[0], type):
            assert next(skipped) == (n, s, f"{expected[0].__name__}: {expected[1]}")
        else:
            row = next(rows)
            assert (row.stride, row.A, row.lambda_min) == (s, *expected)
    assert next(rows, None) is None and next(skipped, None) is None


def _zero_root_block(stride):
    # a constant c but for the last sample the K windows at this stride
    # see (n = 2, block 64), which is -(K - 1) c: the lag-0 correlations
    # cancel exactly, so the law is (0, 1, -1)/sqrt(2), with a root at
    # the origin, at this stride only
    y = np.full(64, 1.0 / 64)
    y[64 - stride] = -(64 // stride - 3) / 64
    return TimeSeries(y, 8000.0)


@pytest.mark.parametrize("grid", [(1, 2), (2, 1)])
@pytest.mark.parametrize("stride, text", [
    (2, "ZeroRoot: cannot take a fractional power of a zero root"),
    # a root at the origin has no mode at stride 1; the zero-root rule
    # is for strides above 1 only
    (1, "SingularNormalMatrix: mode basis overflowed; roots too far from the unit circle"),
])
def test_a_failed_stride_leaves_the_other_stride_of_its_pass_measured(stride, text, grid):
    series = _zero_root_block(stride)
    report = sweep(series, (2,), grid, 64)
    assert report.skipped == ((2, stride, text),)
    other = 3 - stride
    alone = sweep(series, (2,), (other,), 64)
    assert report.rows == alone.rows and len(alone.rows) == 1
    assert (alone.rows[0].A, alone.rows[0].lambda_min) == reference_codec.measure_point(
        series.samples, CodecParams(order_n=2, block_size=64, stride=other))


def _tones(length):
    return synthesize(SynthSpec(kind="multi_sine", length=length, sample_rate=8000.0,
                                amplitudes=(0.3, 0.3, 0.3), frequencies=(300.0, 900.0, 1500.0)))


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("series, n_grid, stride_grid, block", [
    # orders whose laws have different degrees share one pass
    (_tones(4096), (2, 4, 6, 8), (1, 2), 128),
    # a law's norm is taken over its own width: zero padding to n = 16
    # moves the symmetric rows of this grid in the last bit
    (noise(2048, seed=2), (2, 4, 8, 16), (1, 2, 3), 256),
    # a point that fails numerically (ZeroRoot at n = 2, stride 2) beside
    # points of another order, an infeasible stride and a duplicate
    (_zero_root_block(2), (3, 2, 3), (2, 1, 40), 64),
], ids=["tones", "noise", "zero-root"])
def test_grid_sweep_equals_one_point_sweeps(series, n_grid, stride_grid, block, symmetric):
    rows, skipped = [], []
    for n in n_grid:
        for s in stride_grid:
            alone = sweep(series, (n,), (s,), block, symmetric)
            rows += alone.rows
            skipped += alone.skipped
    report = sweep(series, n_grid, stride_grid, block, symmetric)
    # repr writes each float so that it reads back to the same bits
    assert repr(report) == repr(SweepReport(rows=tuple(rows), skipped=tuple(skipped)))
    numerical = [reason for _, _, reason in report.skipped if reason.startswith("ZeroRoot")]
    assert len(numerical) == (1 if block == 64 and not symmetric else 0)


@pytest.mark.parametrize("length, block, passes", [(2048, 128, 1), (2048, 8, 6)])
def test_a_grid_takes_one_pass_per_row_budget(length, block, passes, monkeypatch):
    # 2,048 samples in blocks of 128 give 6 x 16 rows, within the budget;
    # blocks of 8 give 256 rows per point, so each point takes its own pass
    calls = []
    encode = dynlaw.codec._encode
    monkeypatch.setattr(dynlaw.codec, "_encode",
                        lambda blocks, points: calls.append(len(points)) or encode(blocks, points))
    report = sweep(_tones(length), (2, 3, 1), (1, 2), block)
    assert len(report.rows) + len(report.skipped) == 6 and not report.skipped
    assert len(calls) == passes and sum(calls) == 6


# an initial-condition pass holds one point (compress), so only amplitude
# mode mixes orders in one pass
@pytest.mark.parametrize("symmetric", [False, True], ids=["v2-exponents", "v1-symmetric"])
def test_one_pass_over_mixed_orders_stores_what_compress_stores(symmetric):
    series = _tones(1024)
    points = [CodecParams(order_n=n, block_size=128, stride=s, symmetric=symmetric)
              for n, s in ((4, 2), (2, 1), (6, 3), (2, 2), (6, 1))]
    blocks = series.samples.reshape(-1, 128)
    stored, _, (rows, _, coef), fail = dynlaw.codec._encode(blocks, points)
    assert not fail.first
    payload = np.zeros((len(points) * len(blocks), 6), dtype=np.float32)
    payload[rows, : coef.shape[1]] = coef
    for i, params in enumerate(points):
        n, rows = params.order_n, slice(i * len(blocks), (i + 1) * len(blocks))
        laws = {"payload": payload[rows, :n]}
        assert not payload[rows, n:].any()
        if not symmetric:
            assert not any(column[rows, n:].any() for column in stored)
            laws["exponents"] = dynlaw.codec._stored(tuple(column[rows, :n] for column in stored))
        else:
            assert not stored[rows, n + 1 :].any()
            laws["weights"] = stored[rows, : n + 1]
        one = CompressionArtifact(params=params, sample_rate=8000, **laws)
        assert serialize(one) == serialize(compress(series, params))


@st.composite
def _pass_case(draw):
    """A seeded signal of a few full blocks and points of a random subset
    of n in 1..8 x stride in 1..3, at block 64 or 128."""
    block = draw(st.sampled_from([64, 128]))
    size = block * draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    k = np.arange(size)
    kind = draw(st.sampled_from(["tones", "noise", "ramp", "silent block", "zero-root block"]))
    if kind == "noise":
        samples = 0.9 * lcg_uniform(seed, size)
    elif kind == "ramp":
        samples = k / size - 0.5
    else:
        samples = sum(rng.uniform(0.1, 0.4) * np.exp(-rng.uniform(0.0, 0.01) * k)
                      * np.sin(rng.uniform(0.05, 3.0) * k + rng.uniform(0.0, 6.0))
                      for _ in range(draw(st.integers(1, 4))))
        at = slice(draw(st.integers(0, size // block - 1)) * block, None)
        if kind == "silent block":
            samples[at][:block] = 0.0
        elif block == 64:  # a block whose n = 2 law fails at one stride (ZeroRoot at 2)
            samples[at][:block] = _zero_root_block(draw(st.integers(1, 2))).samples
    grid = draw(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 3)), min_size=1, max_size=6,
                         unique=True))
    points = [CodecParams(order_n=n, block_size=block, stride=s) for n, s in grid]
    series = TimeSeries(np.round(samples * 32767.0) / 32767.0, 8000.0)
    return series, points


def _pass_rows(blocks, points):
    """Per row of ``_encode(blocks, points)``: the eigenvalue, the stored
    column layout, the float32 payload bytes and the failure's class and
    message (None for a row that encodes), each cut to its point's n."""
    stored, lam, (rows, _, coef), fail = dynlaw.codec._encode(blocks, points)
    size, widest = len(points) * len(blocks), max(p.order_n for p in points)
    assert all(len(column) == size for column in stored)  # no row fails before its exponents
    payload = np.zeros((size, widest), dtype=np.float32)
    payload[rows, : coef.shape[1]] = coef
    out = []
    for row in range(size):
        n = points[row // len(blocks)].order_n
        assert not payload[row, n:].any() and not any(column[row, n:].any() for column in stored)
        error = fail.first.get(row)
        out.append((lam[row], [column[row, :n].tobytes() for column in stored],
                    payload[row, :n].tobytes(), error and (type(error), str(error))))
    return out


def _block_artifact(artifact, b):
    """Block b of a DLAW v2 artifact as an artifact of its own."""
    e = artifact.exponents
    p, r = int(e.pairs[:b].sum()), int(e.reals[:b].sum())
    pairs, reals = slice(p, p + int(e.pairs[b])), slice(r, r + int(e.reals[b]))
    exponents = StoredExponents(pairs=e.pairs[b : b + 1], reals=e.reals[b : b + 1],
                                log_radius=e.log_radius[pairs], angle=e.angle[pairs],
                                log_magnitude=e.log_magnitude[reals], negative=e.negative[reals])
    return CompressionArtifact(params=artifact.params, sample_rate=artifact.sample_rate,
                               payload=artifact.payload[b : b + 1], exponents=exponents)


@settings(max_examples=60, deadline=None)
@given(_pass_case())
def test_a_rows_outputs_do_not_depend_on_its_pass(case):
    # a stacked pass runs each stage once over rows of several degrees;
    # every row must come out as a pass of its point alone encodes it
    series, points = case
    block = points[0].block_size
    blocks = series.samples.reshape(-1, block)
    alone = [row for point in points for row in _pass_rows(blocks, [point])]
    assert _pass_rows(blocks, points) == alone
    n_grid = sorted({p.order_n for p in points})
    stride_grid = sorted({p.stride for p in points})
    if series.samples.any():
        rows, skipped = [], []
        for n in n_grid:
            for s in stride_grid:
                one = sweep(series, (n,), (s,), block)
                rows += one.rows
                skipped += one.skipped
        report = sweep(series, n_grid, stride_grid, block)
        assert repr(report) == repr(SweepReport(rows=tuple(rows), skipped=tuple(skipped)))
    # a silent block's law has degree 0, so its file mixes degrees
    artifact = _outcome(lambda: compress(series, points[0]))
    if isinstance(artifact, CompressionArtifact):
        decoded = decompress(artifact).samples.reshape(-1, block)
        for b in range(len(blocks)):
            one = _outcome(lambda: decompress(_block_artifact(artifact, b)).samples)
            assert one.tobytes() == decoded[b].tobytes()


def test_a_pass_runs_its_roots_to_bases_stages_once(monkeypatch):
    # a baseline pass holds four orders, so four degrees; the exponents
    # and the bases of all its rows each take one call
    calls = {"_mode_exponents": 0, "_exponent_bases": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(dynlaw.codec, name)):
            calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(dynlaw.codec, name, counted)
    report, _ = random_baseline(2048, 0, (2, 4, 6, 8), 64)
    assert len(report.rows) == 4
    assert calls == {"_mode_exponents": 1, "_exponent_bases": 1}


def test_sweep_says_when_every_block_energy_underflows():
    # below a peak of about 1e-162 each squared sample underflows to 0:
    # the blocks are not silent, but their energies read as if they were
    tiny = TimeSeries(1e-170 * np.sin(0.3 * np.arange(512)), 8000.0)
    with pytest.raises(ValueError, match="^the energy of every full block underflows float64"):
        sweep(tiny, (4,), (1,), 128)
    with pytest.raises(ValueError, match="^every full block is identically zero"):
        sweep(TimeSeries(np.r_[np.zeros(512), 1.0], 8000.0), (4,), (1,), 128)


def _ramp_tone(length=768):
    k = np.arange(length)
    return TimeSeries(np.round((k / length + 0.4 * np.sin(0.3 * k)) * 32767.0) / 32767.0, 8000.0)


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("series", [_decays(768), _ramp_tone(), noise(768, seed=3)],
                         ids=["decays", "ramp", "noise"])
def test_sweep_row_is_its_decoded_file_accuracy(series, symmetric):
    report = sweep(series, (2, 4, 6), (1, 2), 128, symmetric=symmetric)
    skipped = {(n, s): reason for n, s, reason in report.skipped}
    rows = {(row.n, row.stride): row.A for row in report.rows}
    assert len(rows) + len(skipped) == 6
    blocks = series.samples[: series.samples.size // 128 * 128].reshape(-1, 128)
    energy = np.einsum("ij,ij->i", blocks, blocks)
    for (n, s) in rows.keys() | skipped.keys():
        params = CodecParams(order_n=n, block_size=128, stride=s, symmetric=symmetric)
        try:
            decoded = decompress(deserialize(serialize(compress(series, params)))).samples
        except NumericalError as exc:
            assert skipped[n, s] == f"{type(exc).__name__}: {exc}"
            continue
        decoded = decoded[: blocks.size].reshape(blocks.shape)
        live = energy != 0.0
        acc = [accuracy(x, y) for x, y in zip(blocks[live], decoded[live])]
        assert abs(rows[n, s] - energy[live] @ acc / energy[live].sum()) <= 1e-14


def step_block():
    # 63 samples of 0.25, then one of 0.75: at n = 2 the law is about
    # (0, 1, -1)/sqrt(2), which has a root at the origin
    return TimeSeries(np.r_[np.full(63, 0.25), 0.75], 8000.0)


def test_ic_law_with_a_root_at_the_origin_fails_as_zero_root():
    params = CodecParams(order_n=2, block_size=64, fit_mode=INITIAL_CONDITIONS)
    for encode in (compress, reference_codec.compress):
        with pytest.raises(ZeroRoot, match="law has a root at the origin"):
            encode(step_block(), params)
    # a file whose stored law has w_0 = 0 has no recursion to step
    w = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
    data = serialize(CompressionArtifact(params=params, sample_rate=8000, weights=w[None],
                                         payload=[[1.0, 2.0]]))
    for decode in (decompress, reference_codec.decompress):
        with pytest.raises(ZeroRoot, match="law has a root at the origin"):
            decode(deserialize(data))


def test_ic_stride_map_that_cannot_step_fails_as_unstable_basis():
    # eight tones have lattice roots on the unit circle, none at the
    # origin; at stride 2 their per-sample law has a w_0 far below
    # 1e-12 of its norm, so its recursion cannot step
    tones = synthesize(SynthSpec(kind="multi_sine", length=4096, sample_rate=8000.0,
                                 frequencies=(150, 386, 621, 857, 1093, 1329, 1564, 1800),
                                 amplitudes=(0.1,)))
    text = "per-sample law of the stride map cannot be stepped: recursion needs |w_0| > 1e-12"
    params = CodecParams(order_n=64, block_size=1024, stride=2, fit_mode=INITIAL_CONDITIONS)
    for encode in (compress, reference_codec.compress):
        with pytest.raises(UnstableBasis) as info:
            encode(tones, params)
        assert str(info.value) == text
    # a file storing those laws: amplitude mode encodes them, and a
    # symmetric file keeps them as weights that an IC file can hold
    stored = compress(tones, dataclasses.replace(params, fit_mode=AMPLITUDES, symmetric=True))
    data = serialize(CompressionArtifact(params=dataclasses.replace(params, symmetric=True),
                                         sample_rate=8000, weights=stored.weights,
                                         payload=stored.payload))
    for decode in (decompress, reference_codec.decompress):
        with pytest.raises(UnstableBasis) as info:
            decode(deserialize(data))
        assert str(info.value) == text


@st.composite
def _structured_case(draw):
    n = draw(st.integers(1, 8))
    stride = draw(st.integers(1, 3))
    block = draw(st.integers(max(2 * n, stride * n + 1), 96))
    params = CodecParams(
        order_n=n,
        block_size=block,
        stride=stride,
        fit_mode=draw(st.sampled_from([AMPLITUDES, INITIAL_CONDITIONS])),
        symmetric=draw(st.booleans()),
    )
    kinds = ["constant", "step", "impulse", "periodic", "ramp", "tones", "noise"]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.arange(block)
    parts = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        level = rng.uniform(-1.0, 1.0)
        if kind == "constant":
            part = np.full(block, level)
        elif kind == "step":
            part = np.where(k < rng.integers(1, block + 1), level, rng.uniform(-1.0, 1.0))
        elif kind == "impulse":
            part = np.where(k == rng.integers(block), level, 0.0)
        elif kind == "periodic":
            part = np.resize(rng.uniform(-1.0, 1.0, rng.integers(1, 9)), block)
        elif kind == "ramp":
            part = level + rng.uniform(-1.0, 1.0) * k / block
        elif kind == "tones":
            part = sum(rng.uniform(0.1, 0.5) * np.sin(rng.uniform(0.0, np.pi) * k + rng.uniform(0, 6))
                       for _ in range(rng.integers(1, 4)))
        else:
            part = rng.uniform(-1.0, 1.0, block)
        parts.append(part)
    # 16-bit steps, as audio brings them
    return TimeSeries(np.round(np.concatenate(parts) * 32767.0) / 32767.0, 8000.0), params


@settings(max_examples=200, deadline=None)
@given(_structured_case())
@example((step_block(), CodecParams(order_n=2, block_size=64, fit_mode=INITIAL_CONDITIONS)))
def test_round_trip_completes_or_fails_numerically(case):
    series, params = case
    try:
        decompress(deserialize(serialize(compress(series, params))))
    except NumericalError:
        pass
    if series.samples.any():
        sweep(series, (params.order_n,), (params.stride,), params.block_size, params.symmetric)


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
    # a sweep measures the file, so it skips the point with the same text
    report = sweep(series, (4,), (1,), 128)
    assert report.rows == ()
    assert report.skipped == ((4, 1, "UnstableOverflow: payload coefficient beyond float32 range"),)


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


def _spiked_tone(spike):
    # sample 150 sits at position 50 of block 1 (block 100), which the
    # windows see at strides 1 and 2; a +-1e300 pair puts -inf beside
    # +inf in the correlation, so any later sum of its entries is NaN
    y = _tone(350)
    y[150] = 1e300
    if spike == "pair":
        y[152] = -1e300
    return TimeSeries(y, 8000.0)


@pytest.mark.parametrize("warn", ["error", "ignore"])
@pytest.mark.parametrize("spike", ["single", "pair"])
@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("mode", [AMPLITUDES, INITIAL_CONDITIONS])
def test_correlation_beyond_float_range_fails_the_block(mode, stride, symmetric, spike, warn):
    series = _spiked_tone(spike)
    params = CodecParams(order_n=3, block_size=100, stride=stride, fit_mode=mode,
                         symmetric=symmetric)
    with warnings.catch_warnings():
        warnings.simplefilter(warn, RuntimeWarning)
        for encode in (compress, reference_codec.compress):
            with pytest.raises(UnstableOverflow, match="correlation beyond float range"):
                encode(series, params)
        report = sweep(series, (3,), (stride,), 100, symmetric=symmetric)
    assert report.rows == ()
    assert report.skipped == ((3, stride, "UnstableOverflow: correlation beyond float range"),)


@pytest.mark.parametrize("warn", ["error", "ignore"])
def test_block_norm_beyond_float_range_skips_the_point(warn):
    # at stride 3 the windows of block 100-199 read samples 100, 103, ...:
    # the +-1e300 pair at 150 and 152 leaves the correlation finite, and
    # only the block's norm in the accuracy leaves float range
    series = _spiked_tone("pair")
    params = CodecParams(order_n=1, block_size=100, stride=3, symmetric=True)
    with warnings.catch_warnings():
        warnings.simplefilter(warn, RuntimeWarning)
        report = sweep(series, (1,), (3,), 100, symmetric=True)
        with pytest.raises(UnstableOverflow, match="block norm beyond float range"):
            reference_codec.measure_point(series.samples, params)
    assert report.rows == ()
    assert report.skipped == ((1, 3, "UnstableOverflow: block norm beyond float range"),)


def test_sweep_ignores_a_tail_it_does_not_measure():
    # the zero-signal test must not square a tail sample beyond 1e154
    y = _tone(300)
    y[-1] = 1e300
    report = sweep(TimeSeries(y, 8000.0), (2,), (1,), 64)
    assert report.skipped == ()
    assert [row.n for row in report.rows] == [2]


@pytest.mark.parametrize("field", ["weights", "payload", "tail"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1e39])
def test_artifact_rejects_values_a_file_cannot_store(field, value):
    arrays = {"weights": np.array([[0.6, 0.8]]), "payload": np.array([[1.0]]),
              "tail": np.array([0.5])}
    arrays[field] = np.full_like(arrays[field], value)
    with pytest.raises(ValueError, match=f"{field} must be finite and within float32 range"):
        CompressionArtifact(params=CodecParams(order_n=1, block_size=8), sample_rate=8000,
                            **arrays)


def test_artifact_rejects_arrays_of_the_wrong_layout():
    params = CodecParams(order_n=2, block_size=8)
    law, payload = [[0.6, 0.0, 0.8]], [[1.0, 2.0]]
    exponents = StoredExponents(pairs=[1], reals=[0], log_radius=[0.0], angle=[5],
                                log_magnitude=[], negative=[])
    for arrays, reason in (
        (dict(weights=[[0.6, 0.8]], payload=payload), "n \\+ 1 values per block"),
        (dict(weights=law, payload=payload, exponents=exponents), "as weights or as exponents"),
        (dict(weights=law, payload=[[1.0, 2.0, 3.0]]), "n values per block"),
        (dict(weights=law, payload=[[1.0, 2.0]] * 2), "n values per block"),
    ):
        with pytest.raises(ValueError, match=reason):
            CompressionArtifact(params=params, sample_rate=8000, **arrays)
    with pytest.raises(ValueError, match="exact palindromes"):
        CompressionArtifact(params=dataclasses.replace(params, symmetric=True), sample_rate=8000,
                            weights=law, payload=payload)


@pytest.mark.parametrize("rate", [8000.5, 8000.25, np.float32(44100.5), np.nan])
def test_artifact_rejects_a_sample_rate_that_is_not_whole(rate):
    with pytest.raises(ValueError, match="is not a whole number of Hz"):
        CompressionArtifact(params=CodecParams(order_n=1, block_size=8), sample_rate=rate)


@pytest.mark.parametrize("rate", [8000.0, np.float64(8000.0), np.int64(8000)])
def test_artifact_stores_a_whole_sample_rate_as_int(rate):
    params = CodecParams(order_n=1, block_size=8)
    artifact = CompressionArtifact(params=params, sample_rate=rate)
    assert type(artifact.sample_rate) is int
    assert serialize(artifact) == serialize(CompressionArtifact(params=params, sample_rate=8000))


@pytest.mark.parametrize("fields, message", [
    ({"order_n": 65536, "block_size": 131072}, "order_n 65536 does not fit its 16-bit"),
    ({"order_n": 1, "block_size": 65537, "stride": 65536}, "stride 65536 does not fit its 16-bit"),
    ({"order_n": 1, "block_size": 2**32}, "block_size 4294967296 does not fit its 32-bit"),
], ids=["order_n", "stride", "block_size"])
def test_codec_params_reject_settings_a_header_cannot_store(fields, message):
    with pytest.raises(ValueError, match=f"^{message} header field$"):
        CodecParams(**fields)


def test_artifact_rejects_a_sample_rate_a_header_cannot_store():
    # block count and tail length have the same 32-bit rule; an artifact
    # that breaks it needs 2^32 stored values, too large to build here
    with pytest.raises(ValueError, match="^sample_rate 4294967296 does not fit its 32-bit"):
        CompressionArtifact(params=CodecParams(order_n=1, block_size=8), sample_rate=2**32)


# sizes on both sides of the 16-bit and 32-bit header edges
_SMALL_SIZES = st.one_of(st.integers(1, 8), st.integers(2**16 - 3, 2**16 + 3))
_BLOCK_SIZES = st.one_of(st.integers(1, 2**17 + 8), st.integers(2**32 - 3, 2**32 + 3))


@settings(max_examples=300, deadline=None)
@given(n=_SMALL_SIZES, block=_BLOCK_SIZES, stride=_SMALL_SIZES,
       mode=st.sampled_from([AMPLITUDES, INITIAL_CONDITIONS]),
       symmetric=st.sampled_from([False, True, np.True_, np.False_, 0, 1, 2, 3, "yes", None]))
@example(n=2, block=64, stride=1, mode=AMPLITUDES, symmetric=3)
@example(n=1, block=2**32, stride=1, mode=AMPLITUDES, symmetric=False)
def test_every_codec_params_that_constructs_round_trips_through_a_file(n, block, stride, mode,
                                                                       symmetric):
    try:
        params = CodecParams(order_n=n, block_size=block, stride=stride, fit_mode=mode,
                             symmetric=symmetric)
    except ValueError:
        return
    assert type(params.symmetric) is bool
    back = deserialize(serialize(CompressionArtifact(params=params, sample_rate=8000)))
    assert back.params == params


def test_artifact_accepts_the_widest_header_fields():
    for params, rate in ((CodecParams(order_n=65535, block_size=131070), 8000),
                         (CodecParams(order_n=1, block_size=65536, stride=65535), 2**32 - 1),
                         (CodecParams(order_n=1, block_size=2**32 - 1), 8000)):
        back = deserialize(serialize(CompressionArtifact(params=params, sample_rate=rate)))
        assert (back.params, back.sample_rate) == (params, rate)


@pytest.mark.parametrize("rate, message", [
    (5e9, "sample_rate 5000000000 does not fit its 32-bit"),
    (8000.4, "sample_rate 8000.4 is not a whole number of Hz"),
], ids=["too-wide", "not-whole"])
def test_compress_at_a_rate_the_header_cannot_store_raises_value_error(rate, message):
    series = TimeSeries(samples=np.sin(np.arange(64.0)), sample_rate=rate)
    for encode in (compress, reference_codec.compress):
        with pytest.raises(ValueError, match=message):
            encode(series, CodecParams(order_n=2, block_size=16))


def _tiny_artifact(mode=AMPLITUDES):
    series = synthesize(
        SynthSpec(kind="sine", length=32, sample_rate=6.0, frequencies=(1.0,))
    )
    return compress(series, CodecParams(order_n=2, block_size=16, fit_mode=mode))


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
        n_grid=(0, 4, 9),
        stride_grid=(1, 4),
        block_size=16,
    )
    reasons = {(n, s): why for n, s, why in report.skipped}
    assert reasons[0, 1] == "order_n must be >= 1"
    assert reasons[9, 1] == "block_size must be >= 2 * order_n (rate >= 1)"
    assert (9, 4) in reasons
    assert reasons[4, 4] == "stride * order_n must stay below block_size"
    assert {(r.n, r.stride) for r in report.rows} == {(4, 1)}


def test_sweep_skips_a_point_that_is_not_an_integer():
    series = two_tone()
    report = sweep(series, (2.5, 2), (1,), 64)
    assert report.skipped == ((2.5, 1, "order_n must be an integer, not 2.5"),)
    assert report.rows == sweep(series, (2,), (1,), 64).rows and len(report.rows) == 1


def test_sweep_reports_numpy_grid_values_as_python_numbers():
    series = TimeSeries(np.sin(np.arange(512) * 0.3), 8000.0)
    report = sweep(series, np.array([2, 4, 300]), np.array([1]), np.int64(64))
    plain = sweep(series, [2, 4, 300], [1], 64)
    assert report.to_csv() == plain.to_csv()
    assert report.skipped == plain.skipped
    assert [type(v) for v in report.skipped[0][:2]] == [int, int]
    row = json.loads(json.dumps(dataclasses.asdict(report.rows[0])))
    assert row == dataclasses.asdict(plain.rows[0])


def test_sweep_skips_a_point_whose_stride_a_header_cannot_store():
    # compress refuses this point, so sweep does not measure it
    tone = np.cos(2 * np.pi * 440.0 * np.arange(65537) / 8000.0)
    report = sweep(TimeSeries(tone, 8000.0), (1,), (1, 65536), 65537)
    assert report.skipped == ((1, 65536, "stride 65536 does not fit its 16-bit header field"),)
    assert [(row.n, row.stride) for row in report.rows] == [(1, 1)]


def test_sweep_skips_every_point_of_a_symmetric_flag_that_is_not_a_bool():
    report = sweep(two_tone(), (2, 3), (1,), 64, symmetric="yes")
    assert report.rows == ()
    assert report.skipped == tuple((n, 1, "symmetric must be a bool, not 'yes'") for n in (2, 3))


def test_sweep_measures_a_series_slower_than_a_header_can_store():
    # a file stores a whole number of Hz, at least 1; A does not depend on the rate
    series = two_tone()
    slow = TimeSeries(series.samples, sample_rate=0.5)
    assert sweep(slow, (2,), (1,), 64) == sweep(series, (2,), (1,), 64)


def test_random_baseline_refuses_a_length_that_is_not_an_integer():
    with pytest.raises(ValueError, match="^length must be an integer, not 2048.0$"):
        random_baseline(2048.0, 0, (2,), 64)


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
    # one rate twice: no slope, and no 0/0 warning
    assert np.isnan(rate_accuracy_slope([rows[0], Row(np.exp(1), np.exp(-3)), rows[2]]))


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
    for value in (2.5, 2.0, np.float64(2.0), True):
        for name in ("order_n", "block_size", "stride"):
            fields = {"order_n": 2, "block_size": 64, "stride": 1, name: value}
            with pytest.raises(ValueError, match=f"{name} must be an integer, not"):
                CodecParams(**fields)
    for value in (0, 1, 3, "yes", None, np.int64(1)):
        with pytest.raises(ValueError) as info:
            CodecParams(order_n=2, block_size=64, symmetric=value)
        assert str(info.value) == f"symmetric must be a bool, not {value!r}"
    params = CodecParams(order_n=np.int64(2), block_size=np.int32(64), stride=np.uint8(2),
                         symmetric=np.True_)
    assert params.rate == 16.0
    assert [type(v) for v in (params.order_n, params.block_size, params.stride)] == [int] * 3
    assert params.symmetric is True
    assert CodecParams(order_n=4, block_size=160).rate == 20.0


@pytest.mark.parametrize("block", [0, -64, 64.0, True])
def test_sweep_and_baseline_refuse_a_block_size_that_is_not_a_positive_integer(block, monkeypatch):
    with pytest.raises(ValueError, match="^block_size must be (>= 1|an integer, not)"):
        sweep(TimeSeries(_tone(512), 8000.0), (2,), (1,), block)

    def refuse(spec):
        raise AssertionError(f"made {spec.length} samples of noise for a block it refuses")

    # the block is refused before any noise is made: 10^8 samples would take 800 MB
    monkeypatch.setattr(dynlaw.codec, "synthesize", refuse)
    with pytest.raises(ValueError, match="^block_size must be (>= 1|an integer, not)"):
        random_baseline(10**8, 0, (2,), block)


def test_compress_and_sweep_reject_short_or_silent_input():
    with pytest.raises(SeriesTooShort):
        compress(two_tone(length=100), CodecParams(order_n=2, block_size=128))
    with pytest.raises(SeriesTooShort):
        sweep(two_tone(length=100), (2,), (1,), block_size=128)
    silent = TimeSeries(samples=np.zeros(64), sample_rate=1.0)
    with pytest.raises(ValueError):
        sweep(silent, (2,), (1,), block_size=32)
