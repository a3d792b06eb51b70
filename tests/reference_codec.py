"""Block-at-a-time reference for the codec.

The codec encodes and decodes all blocks of a file in one pass of
stacked arrays.  This module does the same work one block after
another, composed from the public single-block functions, and raises
at the first block that fails.  The batched codec must give the same
bytes (DLAW v1 and v2), samples, sweep figures and errors; a sweep
point measures the decode of what ``compress`` stores.
"""

import numpy as np

from dynlaw.codec import AMPLITUDES, INITIAL_CONDITIONS, CompressionArtifact, StoredExponents
from dynlaw.embedding import EmbeddingConfig, TimeSeries, embed
from dynlaw.errors import SingularNormalMatrix, UnstableBasis, UnstableOverflow, ZeroRoot
from dynlaw.fitting import accuracy, exponent_basis, least_squares, mode_basis
from dynlaw.lawforms import conjugate_pairs, roots_to_weights, weights_to_roots
from dynlaw.spectral import correlation, eigendecompose, extract_law, extract_symmetric_law

F32_MAX = float(np.finfo(np.float32).max)
ANGLE_UNIT = np.pi / 2**32  # a v2 file stores a pair angle as a u32 multiple of this


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
    """Impulse responses (count, n) of one law's recursion, stepped one
    sample at a time: row k is the step's weights times rows k-n .. k-1.
    A root at the origin (|w_0| <= 1e-12) fails as ZeroRoot."""
    w = np.asarray(weights, dtype=np.float64)
    if abs(w[0]) <= 1e-12:
        raise ZeroRoot("law has a root at the origin: recursion needs |w_0| > 1e-12")
    if not np.all(np.isfinite(w)):
        raise ValueError("recursion needs finite weights")
    n = w.size - 1
    basis = np.zeros((count, n))
    head = np.arange(min(count, n))
    basis[head, head] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        step = -w[:0:-1] / w[0]  # weights of y_{k-n} .. y_{k-1}
        for k in range(n, count):
            np.matmul(step, basis[k - n : k], out=basis[k])
    return basis


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


def stores_exponents(params):
    """Whether a file stores the laws as exponents (DLAW v2)."""
    return params.fit_mode == AMPLITUDES and not params.symmetric


def law_exponents(weights, stride):
    """(pair exponents, real exponents) of a law's per-sample roots:
    ln rho / stride + i |theta| / stride of each pair's lead root, and
    ln|q| / stride + i pi [q < 0] of each real root, in root order."""
    try:
        q = weights_to_roots(weights).roots
    except ValueError:  # no root: the law has no weight past lag 0
        return [], []
    if stride > 1 and np.any(np.abs(q) < 1e-300):
        raise ZeroRoot("cannot take a fractional power of a zero root")
    pairs, reals = conjugate_pairs(q)
    with np.errstate(divide="ignore"):
        pair_u = [complex(np.log(np.hypot(q[i].real, q[i].imag)) / stride,
                          np.arctan2(np.abs(q[i].imag), q[i].real) / stride) for i, _ in sorted(pairs)]
        real_u = [complex(np.log(np.abs(q[i].real)) / stride, np.pi if q[i].real < 0 else 0.0)
                  for i in reals]
    return pair_u, real_u


def quantize_exponents(pair_u, real_u):
    """Exponents as a v2 file stores them: float32 logs, pair angles as
    u32 multiples of pi / 2^32 in 1 .. 2^32 - 1."""
    codes = [min(max(np.rint(u.imag / ANGLE_UNIT), 1), 2**32 - 1) for u in pair_u]
    pair_u = [complex(float(np.float32(u.real)), c * ANGLE_UNIT) for u, c in zip(pair_u, codes)]
    real_u = [complex(float(np.float32(u.real)), u.imag) for u in real_u]
    return pair_u, real_u, codes


def generate(basis, coef):
    with np.errstate(over="ignore", invalid="ignore"):
        y = basis @ coef
    bad = ~(np.abs(y) <= 1e100)
    if bad.any():
        raise UnstableOverflow(f"generated sample beyond 1e100 at step {int(bad.argmax())}")
    return y


def encode_block(segment, params):
    """(law, stored law, float32 payload) of one block, as a file of
    these params stores it: exponents (``quantize_exponents``) when the
    file stores them, else float32 weights."""
    cfg = EmbeddingConfig(n=params.order_n, stride=params.stride)
    with np.errstate(over="ignore", invalid="ignore"):
        c = correlation(embed(TimeSeries(segment), cfg))
    if not np.all(np.isfinite(c.entries)):
        raise UnstableOverflow("correlation beyond float range")
    if params.symmetric:
        law = extract_symmetric_law(c, cfg)
    else:
        law = extract_law(eigendecompose(c), cfg)
    if stores_exponents(params):
        stored = quantize_exponents(*law_exponents(law.weights, params.stride))
        basis = exponent_basis(stored[0], stored[1], segment.size)
    else:
        stored = law.weights.astype(np.float32)
        basis = block_basis(unit(stored), params, segment.size)
    if params.fit_mode == AMPLITUDES:
        if not np.all(np.isfinite(basis)):
            raise SingularNormalMatrix("mode basis overflowed; roots too far from the unit circle")
    elif not np.all(np.abs(basis) <= 1e100):
        raise UnstableBasis("impulse-response basis overflowed")
    coef = least_squares(basis, segment)
    if not np.all(np.abs(coef) <= F32_MAX):
        raise UnstableOverflow("payload coefficient beyond float32 range")
    return law, stored, coef.astype(np.float32)


def to_artifact(params, rate, encoded, tail):
    """The artifact of blocks encoded by ``encode_block``, in order."""
    payload = np.zeros((len(encoded), params.order_n), dtype=np.float32)
    for b, (_, _, coef) in enumerate(encoded):
        payload[b, : coef.size] = coef
    laws = [stored for _, stored, _ in encoded]
    if not stores_exponents(params):
        weights = np.reshape(laws, (len(laws), params.order_n + 1))
        return CompressionArtifact(params=params, sample_rate=rate, weights=weights,
                                   payload=payload, tail=tail)
    exponents = StoredExponents(
        pairs=[len(pair_u) for pair_u, _, _ in laws],
        reals=[len(real_u) for _, real_u, _ in laws],
        log_radius=[u.real for pair_u, _, _ in laws for u in pair_u],
        angle=[c for _, _, codes in laws for c in codes],
        log_magnitude=[u.real for _, real_u, _ in laws for u in real_u],
        negative=[u.imag != 0.0 for _, real_u, _ in laws for u in real_u],
    )
    return CompressionArtifact(params=params, sample_rate=rate, payload=payload, tail=tail,
                               exponents=exponents)


def compress(series, params):
    y = series.samples
    block = params.block_size
    # the header check, before any block is encoded
    rate = CompressionArtifact(params=params, sample_rate=series.sample_rate).sample_rate
    encoded = [encode_block(y[b * block : (b + 1) * block], params) for b in range(y.size // block)]
    tail = y[len(encoded) * block :]
    if not np.all(np.abs(tail) <= F32_MAX):
        raise UnstableOverflow("tail sample beyond float32 range")
    return to_artifact(params, rate, encoded, tail)


def stored_exponents(exponents):
    """Per block, the (pair exponents, real exponents) a v2 artifact stores."""
    e = exponents
    pair_at, real_at = 0, 0
    for p, r in zip(e.pairs, e.reals):
        pair_u = [complex(float(e.log_radius[i]), float(e.angle[i]) * ANGLE_UNIT)
                  for i in range(pair_at, pair_at + p)]
        real_u = [complex(float(e.log_magnitude[i]), np.pi if e.negative[i] else 0.0)
                  for i in range(real_at, real_at + r)]
        pair_at, real_at = pair_at + p, real_at + r
        yield pair_u, real_u


def decompress(artifact):
    params = artifact.params
    block = params.block_size
    out = np.empty(artifact.decompressed_length)
    if artifact.exponents is None:
        bases = (block_basis(unit(weights), params, block) for weights in artifact.weights)
    else:
        bases = (exponent_basis(pair_u, real_u, block)
                 for pair_u, real_u in stored_exponents(artifact.exponents))
    for b, (basis, payload) in enumerate(zip(bases, artifact.payload)):
        out[b * block : (b + 1) * block] = generate(basis, payload[: basis.shape[1]].astype(np.float64))
    out[len(artifact.payload) * block :] = artifact.tail
    return out


def measure_point(y, params):
    """(A, mean lambda_min) of one sweep point, as ``sweep`` reports it:
    the energy-weighted accuracy of the reference decode of each
    nonzero block's reference encode."""
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
        encoded = encode_block(segment, params)
        lambdas.append(encoded[0].eigenvalue)
        decoded = decompress(to_artifact(params, 1, [encoded], np.zeros(0)))
        with np.errstate(over="ignore", invalid="ignore"):
            acc = accuracy(segment, decoded)
        if not np.isfinite(acc):  # a sample past ~1e154 that no window saw
            raise UnstableOverflow("block norm beyond float range")
        acc_sum += energy * acc
        weights_sum += energy
    if weights_sum == 0.0:
        raise ValueError("every full block is identically zero")
    return acc_sum / weights_sum, float(np.mean(lambdas))
