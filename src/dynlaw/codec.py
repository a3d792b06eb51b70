"""Law-based block compression and rate/accuracy measurement.

Each full block of ``block_size`` samples is reduced to one extracted
law (n + 1 weights, or the half vector when palindromic) plus n payload
reals: either mode-amplitude coefficients or recursion seed values.
The leftover tail ships verbatim.  The nominal rate of this scheme is

    R = block_size / (2 n),

counting 2n stored reals per block against block_size original ones.

Binary layout (DLAW, version 1, little-endian)::

    offset  size  field
    0       4     magic  b"DLAW"
    4       2     version, u16 = 1
    6       2     flags, u16: bit 0 = symmetric weights,
                             bit 1 = payload holds recursion seeds
                             (clear = amplitude coefficients)
    8       4     sample_rate, u32 (Hz)
    12      4     block_size, u32
    16      2     n, u16
    18      2     stride, u16
    20      4     block_count, u32
    24      4     tail_length, u32
    28      4     reserved, u32 = 0
    32      ...   per block: weights as f32 (n + 1 values, or
                  ceil((n+1)/2) leading values when symmetric),
                  then n payload f32
    ...     ...   tail samples as f32

All stored reals are f32; compression quantizes before fitting, so a
decode of an in-memory artifact and a decode after a serialize round
trip are bit-identical.

Laws extracted at stride s > 1 live on a coarse lattice.  For full-rate
reconstruction their roots are mapped to per-sample roots via the
principal s-th root, which assumes the content sits below the lattice
Nyquist frequency, sample_rate / (2 s); negative real roots keep their
sign.  Measurement (sweep / random_baseline) runs in float64 without
quantization: it reports what the laws can do, not what a file stores.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .embedding import EmbeddingConfig, TimeSeries, embed
from .errors import (
    BadMagic,
    InvariantViolation,
    NumericalError,
    SeriesTooShort,
    TruncatedPayload,
    UnsupportedVersion,
    ZeroRoot,
)
from .fitting import (
    AmplitudeFit,
    accuracy,
    fit_amplitudes,
    fit_initial_conditions,
    mode_basis,
    reconstruct,
)
from .lawforms import RootSet, conjugate_pairs, roots_to_weights, run_recursion, weights_to_roots
from .signal_io import SynthSpec, synthesize
from .spectral import (
    LinearLaw,
    correlation,
    eigendecompose,
    extract_law,
    extract_symmetric_law,
)

__all__ = [
    "CodecParams",
    "CompressedBlock",
    "CompressionArtifact",
    "SweepRow",
    "SweepReport",
    "compress",
    "decompress",
    "serialize",
    "deserialize",
    "sweep",
    "random_baseline",
]

_MAGIC = b"DLAW"
_VERSION = 1
_HEADER = "<4sHHIIHHIII"
_HEADER_SIZE = struct.calcsize(_HEADER)

AMPLITUDES = "amplitudes"
INITIAL_CONDITIONS = "initial_conditions"


@dataclass(frozen=True)
class CodecParams:
    """Knobs of the block codec.

    ``block_size >= 2 * order_n`` keeps the nominal rate at or above 1
    (equality is the lossless point where the correlation matrix is
    rank deficient), and ``stride * order_n < block_size`` keeps at
    least one embedding window inside a block.
    """

    order_n: int
    block_size: int
    stride: int = 1
    fit_mode: str = AMPLITUDES
    symmetric: bool = False
    eigen_index: int = 0

    def __post_init__(self):
        if self.order_n < 1:
            raise ValueError("order_n must be >= 1")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.fit_mode not in (AMPLITUDES, INITIAL_CONDITIONS):
            raise ValueError(f"unknown fit_mode {self.fit_mode!r}")
        if self.block_size < 2 * self.order_n:
            raise ValueError("block_size must be >= 2 * order_n (rate >= 1)")
        if self.stride * self.order_n >= self.block_size:
            raise ValueError("stride * order_n must stay below block_size")
        if not 0 <= self.eigen_index <= self.order_n:
            raise ValueError("eigen_index out of range")

    @property
    def rate(self) -> float:
        return self.block_size / (2.0 * self.order_n)


@dataclass(frozen=True)
class CompressedBlock:
    """Stored weights (float32, full palindrome when symmetric) and the
    n float32 payload values of one block."""

    weights: np.ndarray
    payload: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float32))
        object.__setattr__(self, "payload", np.asarray(self.payload, dtype=np.float32))


@dataclass(frozen=True)
class CompressionArtifact:
    """Everything a decoder needs: params, stored blocks, raw tail."""

    params: CodecParams
    sample_rate: int
    blocks: tuple[CompressedBlock, ...] = ()
    tail: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float32))

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "tail", np.asarray(self.tail, dtype=np.float32))
        if self.sample_rate < 1:
            raise ValueError("sample_rate must be >= 1")
        n = self.params.order_n
        for blk in self.blocks:
            if blk.weights.size != n + 1:
                raise ValueError("block weights must hold n + 1 values")
            if blk.payload.size != n:
                raise ValueError("block payload must hold n values")

    @property
    def decompressed_length(self) -> int:
        return len(self.blocks) * self.params.block_size + int(self.tail.size)


@dataclass(frozen=True)
class SweepRow:
    n: int
    stride: int
    R: float
    A: float
    lambda_min: float


@dataclass(frozen=True)
class SweepReport:
    """Grid measurements plus the points that could not be measured."""

    rows: tuple[SweepRow, ...]
    skipped: tuple[tuple[int, int, str], ...] = ()
    metadata: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["n,stride,R,A,lambda_min"]
        for row in self.rows:
            lines.append(
                f"{row.n},{row.stride},{row.R!r},{row.A!r},{row.lambda_min!r}"
            )
        return "\n".join(lines) + "\n"


def _stored_weight_count(n: int, symmetric: bool) -> int:
    return (n + 2) // 2 if symmetric else n + 1


def _mirror_half(half: np.ndarray, n: int) -> np.ndarray:
    """Rebuild the full palindrome from its leading half, bit for bit."""
    lags = np.arange(n + 1)
    return np.asarray(half, dtype=np.float32)[np.minimum(lags, n - lags)]


def _law_from_stored(weights32: np.ndarray, params: CodecParams) -> LinearLaw:
    w = weights32.astype(np.float64)
    w = w / np.linalg.norm(w)
    return LinearLaw(
        weights=w,
        eigenvalue=0.0,
        stride=params.stride,
        symmetric_flag=bool(params.symmetric),
    )


def _per_sample_roots(roots: RootSet, stride: int) -> RootSet:
    """Map lattice roots q to per-sample roots q^{1/stride}.

    Principal branch for conjugate pairs (alias-free below the lattice
    Nyquist); real roots keep their sign, matching the odd-stride exact
    root and documented as the convention otherwise.
    """
    q = roots.roots
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
    p = p[np.lexsort((p.imag, p.real))]
    return RootSet(roots=p, residual_bound=roots.residual_bound)


def _block_machinery(law: LinearLaw, params: CodecParams):
    """Derive the fit machinery a block needs from its law.

    Returns (kind, obj): ("amp", per-sample RootSet) for amplitude
    payloads, ("ic", per-sample LinearLaw) for seed payloads.  At
    stride 1 the law's own roots / the law itself are used directly.
    A law with no weight past lag 0 beyond the trim of
    ``weights_to_roots`` (an all-zero block gives one) states y = 0: it
    has no modes in amplitude mode, and in IC mode its own recursion
    yields zeros after the seeds at any stride.
    """
    if params.fit_mode == INITIAL_CONDITIONS and params.stride == 1:
        return "ic", law
    try:
        roots = weights_to_roots(law)
    except ValueError:  # no root: the law has no weight past lag 0
        if params.fit_mode == AMPLITUDES:
            return "amp", RootSet(roots=np.zeros(0))
        return "ic", law
    if params.stride > 1:
        roots = _per_sample_roots(roots, params.stride)
    if params.fit_mode == AMPLITUDES:
        return "amp", roots
    w = roots_to_weights(roots, 1.0)
    w = w / np.linalg.norm(w)
    effective = LinearLaw(weights=w, eigenvalue=law.eigenvalue, stride=1)
    return "ic", effective


def _block_law(segment: np.ndarray, params: CodecParams, rate: float) -> LinearLaw:
    ts = TimeSeries(samples=segment, sample_rate=rate)
    cfg = EmbeddingConfig(n=params.order_n, stride=params.stride)
    c = correlation(embed(ts, cfg))
    if params.symmetric:
        return extract_symmetric_law(c, cfg)
    return extract_law(eigendecompose(c), cfg, params.eigen_index)


def _encode_block(segment: np.ndarray, params: CodecParams, rate: float, quantize: bool):
    """Extract one block's law and fit its payload.

    Returns (law, fit): the extracted float64 law and an AmplitudeFit or
    InitialConditionFit.  With ``quantize`` the fit is made against the
    float32 weights a file stores, so the payload belongs to exactly
    the law a decoder sees; a palindromic law stays palindromic under
    that rounding.  Without it everything stays float64.
    """
    law = _block_law(segment, params, rate)
    fit_law = _law_from_stored(law.weights.astype(np.float32), params) if quantize else law
    kind, obj = _block_machinery(fit_law, params)
    if kind == "amp":
        return law, fit_amplitudes(obj, segment, dt=1.0 / rate)
    return law, fit_initial_conditions(obj, segment)


def compress(series: TimeSeries, params: CodecParams) -> CompressionArtifact:
    """Extract one law per block and fit its payload.

    Weights are quantized to float32 before the payload fit, so the
    stored coefficients belong to exactly the law a decoder will see.
    """
    y = series.samples
    if y.size < params.block_size:
        raise SeriesTooShort(
            f"series of {y.size} samples is shorter than one block ({params.block_size})"
        )
    rate = int(round(series.sample_rate))
    if rate < 1:
        raise ValueError("sample rate rounds below 1")
    n = params.order_n
    block_count = y.size // params.block_size
    blocks = []
    for b in range(block_count):
        segment = y[b * params.block_size : (b + 1) * params.block_size]
        law, fit = _encode_block(segment, params, series.sample_rate, quantize=True)
        coef = fit.coefficients if isinstance(fit, AmplitudeFit) else fit.initial
        payload = np.zeros(n, dtype=np.float64)
        payload[: coef.size] = coef
        blocks.append(
            CompressedBlock(weights=law.weights.astype(np.float32), payload=payload)
        )
    tail = y[block_count * params.block_size :].astype(np.float32)
    return CompressionArtifact(
        params=params, sample_rate=rate, blocks=tuple(blocks), tail=tail
    )


def decompress(artifact: CompressionArtifact) -> TimeSeries:
    """Regenerate every block from its stored law and payload, then
    append the verbatim tail."""
    params = artifact.params
    block = params.block_size
    out = np.empty(artifact.decompressed_length, dtype=np.float64)
    for b, blk in enumerate(artifact.blocks):
        law = _law_from_stored(blk.weights, params)
        kind, obj = _block_machinery(law, params)
        payload = blk.payload.astype(np.float64)
        if kind == "amp":
            basis = mode_basis(obj, block)
            y = basis @ payload[: basis.shape[1]]
        else:
            y = run_recursion(obj, payload[: obj.order], block)
        out[b * block : (b + 1) * block] = y
    out[len(artifact.blocks) * block :] = artifact.tail.astype(np.float64)
    return TimeSeries(samples=out, sample_rate=float(artifact.sample_rate))


def serialize(artifact: CompressionArtifact) -> bytes:
    """Encode an artifact in the DLAW byte layout."""
    params = artifact.params
    flags = (1 if params.symmetric else 0) | (
        2 if params.fit_mode == INITIAL_CONDITIONS else 0
    )
    head = struct.pack(
        _HEADER,
        _MAGIC,
        _VERSION,
        flags,
        artifact.sample_rate,
        params.block_size,
        params.order_n,
        params.stride,
        len(artifact.blocks),
        int(artifact.tail.size),
        0,
    )
    count = _stored_weight_count(params.order_n, params.symmetric)
    parts = [head]
    for blk in artifact.blocks:
        parts.append(blk.weights[:count].astype("<f4").tobytes())
        parts.append(blk.payload.astype("<f4").tobytes())
    parts.append(artifact.tail.astype("<f4").tobytes())
    return b"".join(parts)


def deserialize(data: bytes) -> CompressionArtifact:
    """Decode and validate a DLAW byte string.

    Raises BadMagic / UnsupportedVersion / TruncatedPayload /
    InvariantViolation as appropriate; all of them are CorruptArtifact.
    """
    if data[:4] != _MAGIC:
        raise BadMagic("missing DLAW signature")
    if len(data) < _HEADER_SIZE:
        raise TruncatedPayload("header cut short")
    (_, version, flags, rate, block_size, n, stride, block_count, tail_len, reserved) = (
        struct.unpack(_HEADER, data[:_HEADER_SIZE])
    )
    if version != _VERSION:
        raise UnsupportedVersion(f"version {version}; this reader handles {_VERSION}")
    if flags & ~0b11:
        raise InvariantViolation(f"unknown flag bits 0x{flags:04x}")
    if reserved != 0:
        raise InvariantViolation("reserved header field must be zero")
    symmetric = bool(flags & 1)
    fit_mode = INITIAL_CONDITIONS if flags & 2 else AMPLITUDES
    if n < 1 or stride < 1 or rate < 1:
        raise InvariantViolation("n, stride, and sample_rate must be positive")
    if block_size < 2 * n or stride * n >= block_size:
        raise InvariantViolation("block_size incompatible with n and stride")
    count = _stored_weight_count(n, symmetric)
    expected = _HEADER_SIZE + 4 * (block_count * (count + n) + tail_len)
    if len(data) < expected:
        raise TruncatedPayload(f"need {expected} bytes, got {len(data)}")
    if len(data) > expected:
        raise InvariantViolation(f"{len(data) - expected} trailing bytes")
    params = CodecParams(
        order_n=n,
        block_size=block_size,
        stride=stride,
        fit_mode=fit_mode,
        symmetric=symmetric,
    )
    pos = _HEADER_SIZE
    blocks = []
    for _ in range(block_count):
        stored = np.frombuffer(data, dtype="<f4", count=count, offset=pos).copy()
        pos += 4 * count
        payload = np.frombuffer(data, dtype="<f4", count=n, offset=pos).copy()
        pos += 4 * n
        weights = _mirror_half(stored, n) if symmetric else stored
        if not np.all(np.isfinite(weights)) or not np.all(np.isfinite(payload)):
            raise InvariantViolation("non-finite stored values")
        norm = float(np.linalg.norm(weights.astype(np.float64)))
        if abs(norm - 1.0) > 1e-3:
            raise InvariantViolation(f"stored weights have norm {norm:.6f}, not 1")
        blocks.append(CompressedBlock(weights=weights, payload=payload))
    tail = np.frombuffer(data, dtype="<f4", count=tail_len, offset=pos).copy()
    if tail.size and not np.all(np.isfinite(tail)):
        raise InvariantViolation("non-finite tail values")
    return CompressionArtifact(
        params=params, sample_rate=rate, blocks=tuple(blocks), tail=tail
    )


def _measure_point(
    y: np.ndarray, rate: float, params: CodecParams
) -> tuple[float, float]:
    """Energy-weighted accuracy and mean smallest eigenvalue over all
    full blocks, in float64 end to end."""
    block = params.block_size
    block_count = y.size // block
    weights_sum = 0.0
    acc_sum = 0.0
    lambdas = []
    for b in range(block_count):
        segment = y[b * block : (b + 1) * block]
        energy = float(segment @ segment)
        if energy == 0.0:
            lambdas.append(0.0)  # a silent block's correlation matrix is zero
            continue
        law, fit = _encode_block(segment, params, rate, quantize=False)
        lambdas.append(law.eigenvalue)
        acc_sum += energy * accuracy(segment, reconstruct(fit, block))
        weights_sum += energy
    if weights_sum == 0.0:
        raise ValueError("every full block is identically zero")
    return acc_sum / weights_sum, float(np.mean(lambdas))


def sweep(
    series: TimeSeries,
    n_grid,
    stride_grid,
    block_size: int,
    fit_mode: str = AMPLITUDES,
    symmetric: bool = False,
    eigen_index: int = 0,
) -> SweepReport:
    """Measure accuracy across an (n, stride) grid at one block size.

    Infeasible grid points and points where a numerical step fails are
    recorded under ``skipped`` with a reason instead of aborting the
    sweep.  Block accuracies are averaged weighted by block energy,
    matching a concatenated-signal Euclidean accuracy when block errors
    are comparable.
    """
    y = series.samples
    if y.size < block_size:
        raise SeriesTooShort(
            f"series of {y.size} samples is shorter than one block ({block_size})"
        )
    if np.linalg.norm(y) == 0.0:
        raise ValueError("sweep needs a nonzero signal")
    rows = []
    skipped = []
    for n in n_grid:
        for s in stride_grid:
            if block_size < 2 * n:
                skipped.append((n, s, "block shorter than 2n (rate below 1)"))
                continue
            if s * n >= block_size:
                skipped.append((n, s, "no window fits: stride * n >= block_size"))
                continue
            params = CodecParams(
                order_n=n,
                block_size=block_size,
                stride=s,
                fit_mode=fit_mode,
                symmetric=symmetric,
                eigen_index=eigen_index,
            )
            try:
                acc, lam = _measure_point(y, series.sample_rate, params)
            except NumericalError as exc:
                skipped.append((n, s, f"{type(exc).__name__}: {exc}"))
                continue
            rows.append(
                SweepRow(n=n, stride=s, R=params.rate, A=acc, lambda_min=lam)
            )
    return SweepReport(rows=tuple(rows), skipped=tuple(skipped))


def rate_accuracy_slope(rows) -> float:
    """Least-squares slope of log A versus log R over the given rows.

    Rows with R < 2 or A <= 0 are excluded; returns nan when fewer than
    two usable points remain.
    """
    pts = [(np.log(r.R), np.log(r.A)) for r in rows if r.R >= 2.0 and r.A > 0.0]
    if len(pts) < 2:
        return float("nan")
    x = np.array([p[0] for p in pts])
    z = np.array([p[1] for p in pts])
    x = x - x.mean()
    return float((x @ (z - z.mean())) / (x @ x))


def random_baseline(
    length: int,
    seed: int,
    n_grid,
    block_size: int,
    fit_mode: str = AMPLITUDES,
) -> tuple[SweepReport, float]:
    """Accuracy-versus-rate baseline on seeded uniform noise.

    Returns the stride-1 sweep over ``n_grid`` plus the least-squares
    slope of log A against log R over the rows with R >= 2.  Structured
    signals are judged against this reference curve.  Tracing the full
    reference trend means holding n fixed and growing the block: calling
    this once per block size and pooling the rows keeps each R estimate
    free of order effects.
    """
    noise = synthesize(
        SynthSpec(kind="uniform_noise", length=length, sample_rate=1.0, seed=seed)
    )
    report = sweep(noise, n_grid, (1,), block_size, fit_mode=fit_mode)
    slope = rate_accuracy_slope(report.rows)
    report.metadata.update(seed=seed, slope=slope)
    return report, slope
