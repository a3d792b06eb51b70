"""Block-at-a-time reference for the codec.

The codec encodes and decodes all blocks of a file in one pass of
stacked arrays.  This module does the same work one block after
another, composed from the public single-block functions, and raises
at the first block that fails.  The batched codec must give the same
bytes, samples, sweep figures and errors.
"""

import numpy as np

from dynlaw.codec import AMPLITUDES, INITIAL_CONDITIONS, CompressionArtifact
from dynlaw.embedding import EmbeddingConfig, TimeSeries, embed
from dynlaw.errors import SingularNormalMatrix, UnstableBasis, UnstableOverflow, ZeroRoot
from dynlaw.fitting import accuracy, least_squares, mode_basis
from dynlaw.lawforms import conjugate_pairs, impulse_basis, roots_to_weights, weights_to_roots
from dynlaw.spectral import correlation, eigendecompose, extract_law, extract_symmetric_law

F32_MAX = float(np.finfo(np.float32).max)


def unit(weights32):
    w = weights32.astype(np.float64)
    return w / np.linalg.norm(w)


def per_sample_roots(q, stride):
    if np.any(np.abs(q) < 1e-300):
        raise ZeroRoot("cannot take a fractional power of a zero root")
    p = np.empty_like(q)
    pairs, reals = conjugate_pairs(q)
    for i, j in pairs:
        p[i] = np.exp(np.log(q[i]) / stride)
        p[j] = np.conj(p[i])
    for i in reals:
        x = q[i].real
        p[i] = np.sign(x) * abs(x) ** (1.0 / stride)
    return p[np.lexsort((p.imag, p.real))]


def recursion_basis(weights, count):
    try:
        return impulse_basis(weights, count)
    except ValueError as exc:
        if abs(weights[0]) <= 1e-12:
            raise ZeroRoot(f"law has a root at the origin: {exc}") from exc
        raise


def block_basis(weights, params, count):
    if params.fit_mode == INITIAL_CONDITIONS and params.stride == 1:
        return recursion_basis(weights, count)
    try:
        roots = weights_to_roots(weights)
    except ValueError:  # no root: the law has no weight past lag 0
        if params.fit_mode == AMPLITUDES:
            return np.zeros((count, 0))
        return recursion_basis(weights, count)
    if params.stride > 1:
        roots = per_sample_roots(roots.roots, params.stride)
    if params.fit_mode == AMPLITUDES:
        return mode_basis(roots, count)
    w = roots_to_weights(roots, 1.0)
    return recursion_basis(w / np.linalg.norm(w), count)


def generate(basis, coef):
    with np.errstate(over="ignore", invalid="ignore"):
        y = basis @ coef
    bad = ~(np.abs(y) <= 1e100)
    if bad.any():
        raise UnstableOverflow(f"generated sample beyond 1e100 at step {int(bad.argmax())}")
    return y


def encode_block(segment, params, quantize):
    cfg = EmbeddingConfig(n=params.order_n, stride=params.stride)
    with np.errstate(over="ignore", invalid="ignore"):
        c = correlation(embed(TimeSeries(segment), cfg))
    if not np.all(np.isfinite(c.entries)):
        raise UnstableOverflow("correlation beyond float range")
    if params.symmetric:
        law = extract_symmetric_law(c, cfg)
    else:
        law = extract_law(eigendecompose(c), cfg)
    weights = unit(law.weights.astype(np.float32)) if quantize else law.weights
    basis = block_basis(weights, params, segment.size)
    if params.fit_mode == AMPLITUDES:
        if not np.all(np.isfinite(basis)):
            raise SingularNormalMatrix("mode basis overflowed; roots too far from the unit circle")
    elif not np.all(np.abs(basis) <= 1e100):
        raise UnstableBasis("impulse-response basis overflowed")
    return law, basis, least_squares(basis, segment)


def compress(series, params):
    y = series.samples
    block = params.block_size
    count = y.size // block
    weights = np.empty((count, params.order_n + 1), dtype=np.float32)
    payload = np.zeros((count, params.order_n), dtype=np.float32)
    for b in range(count):
        law, _, coef = encode_block(y[b * block : (b + 1) * block], params, quantize=True)
        if not np.all(np.abs(coef) <= F32_MAX):
            raise UnstableOverflow("payload coefficient beyond float32 range")
        weights[b] = law.weights
        payload[b, : coef.size] = coef
    tail = y[count * block :]
    if not np.all(np.abs(tail) <= F32_MAX):
        raise UnstableOverflow("tail sample beyond float32 range")
    return CompressionArtifact(
        params=params,
        sample_rate=int(round(series.sample_rate)),
        weights=weights,
        payload=payload,
        tail=tail,
    )


def decompress(artifact):
    params = artifact.params
    block = params.block_size
    out = np.empty(artifact.decompressed_length)
    for b, (weights, payload) in enumerate(zip(artifact.weights, artifact.payload)):
        basis = block_basis(unit(weights), params, block)
        out[b * block : (b + 1) * block] = generate(basis, payload[: basis.shape[1]].astype(np.float64))
    out[len(artifact.weights) * block :] = artifact.tail
    return out


def measure_point(y, params):
    """(A, mean lambda_min) of one sweep point, as ``sweep`` reports it."""
    block = params.block_size
    weights_sum = 0.0
    acc_sum = 0.0
    lambdas = []
    for b in range(y.size // block):
        segment = y[b * block : (b + 1) * block]
        with np.errstate(over="ignore"):
            energy = float(segment @ segment)
        if energy == 0.0:
            lambdas.append(0.0)
            continue
        law, basis, coef = encode_block(segment, params, quantize=False)
        lambdas.append(law.eigenvalue)
        with np.errstate(over="ignore", invalid="ignore"):
            acc = accuracy(segment, generate(basis, coef))
        if not np.isfinite(acc):  # a sample past ~1e154 that no window saw
            raise UnstableOverflow("block norm beyond float range")
        acc_sum += energy * acc
        weights_sum += energy
    if weights_sum == 0.0:
        raise ValueError("every full block is identically zero")
    return acc_sum / weights_sum, float(np.mean(lambdas))
