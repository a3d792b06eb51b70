"""Law-based block compression and rate/accuracy measurement.

Each full block of ``block_size`` samples is reduced to one extracted
law (n + 1 weights, or the half vector when palindromic) plus n payload
reals.  The law fixes a per-sample basis of the block and the payload
holds the block's coefficients in it, ``block = basis @ payload``: the
basis is the law's exponential modes in amplitude mode and its
recursion's impulse responses in initial-condition mode, where the
payload is the n seed values.  An artifact keeps all blocks as two
arrays, ``weights`` (blocks x (n + 1)) and ``payload`` (blocks x n).
The leftover tail ships verbatim.  The nominal rate of this scheme is

    R = block_size / (2 n),

counting 2n stored reals per block against block_size original ones.

``compress``, ``decompress`` and each ``sweep`` point make one pass over
all blocks of a file: the windows of every block form one stacked
array, and correlations, eigensolves, companion roots, bases and
least-squares solves run as stacked numpy/LAPACK calls, grouped where
blocks need different shapes (a trimmed degree, the zero law).  A
block that fails drops out of the later stages with its first error
kept (``_stack.Failures``), and the file raises the error of its
lowest-index failed block, as a pass block by block would.

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
    32      ...   block_count rows of f32: the weights (n + 1
                  values, or ceil((n+1)/2) leading values when
                  symmetric), then the n payload values
    ...     ...   tail samples as f32

All stored reals are f32; compression quantizes before fitting, so a
decode of an in-memory artifact and a decode after a serialize round
trip are bit-identical.

Laws extracted at stride s > 1 live on a coarse lattice.  For full-rate
reconstruction their roots are mapped to per-sample roots via the
principal s-th root, which assumes the content sits below the lattice
Nyquist frequency, sample_rate / (2 s); negative real roots keep their
sign.  Measurement (sweep / random_baseline) runs in float64 without
quantization and always in amplitude mode: it reports what the laws can
do, not what a file stores.  Initial-condition mode is a storage mode
of ``compress`` only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._stack import Failures, norms
from .embedding import TimeSeries, _delay_windows
from .errors import (
    BadMagic,
    InvariantViolation,
    NumericalError,
    SeriesTooShort,
    SingularNormalMatrix,
    TruncatedPayload,
    UnstableBasis,
    UnstableOverflow,
    UnsupportedVersion,
    ZeroRoot,
)
from .fitting import _least_squares, _mode_bases
from .lawforms import _degrees, _expand, _impulse_bases, _pairs, _roots
from .signal_io import SynthSpec, synthesize
# eigendecompose is unused here; perfbench's tracer test reads dynlaw.codec.eigendecompose
from .spectral import _block_laws, _correlations, eigendecompose  # noqa: F401

__all__ = [
    "CodecParams",
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

_F32_MAX = float(np.finfo(np.float32).max)


def _in_f32_range(values: np.ndarray, axis=None) -> np.ndarray:
    """Whether values are finite and within float32 range (NaN is not)."""
    return np.all(np.abs(values) <= _F32_MAX, axis=axis)


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

    @property
    def rate(self) -> float:
        return self.block_size / (2.0 * self.order_n)


@dataclass(frozen=True)
class CompressionArtifact:
    """Everything a decoder needs: params, stored blocks, raw tail.

    Block b is stored as ``weights[b]``, its law (n + 1 float32 values,
    the full palindrome when symmetric), and ``payload[b]``, its n
    float32 coefficients.  Omitted arrays mean no blocks.  Every value
    must be finite and within float32 range.
    """

    params: CodecParams
    sample_rate: int
    weights: np.ndarray | None = None
    payload: np.ndarray | None = None
    tail: np.ndarray | None = None

    def __post_init__(self):
        n = self.params.order_n
        for name, empty in (("weights", (0, n + 1)), ("payload", (0, n)), ("tail", 0)):
            value = getattr(self, name)
            value = np.zeros(empty) if value is None else np.asarray(value)
            if not _in_f32_range(value):
                raise ValueError(f"{name} must be finite and within float32 range")
            object.__setattr__(self, name, np.asarray(value, dtype=np.float32))
        if self.sample_rate < 1:
            raise ValueError("sample_rate must be >= 1")
        if self.weights.ndim != 2 or self.weights.shape[1] != n + 1:
            raise ValueError("weights must hold n + 1 values per block")
        if self.payload.shape != (len(self.weights), n):
            raise ValueError("payload must hold n values per block")
        if self.params.symmetric and not np.array_equal(self.weights, self.weights[:, ::-1]):
            raise ValueError("symmetric weights must be exact palindromes")

    @property
    def decompressed_length(self) -> int:
        return len(self.weights) * self.params.block_size + int(self.tail.size)


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

    def to_csv(self) -> str:
        lines = ["n,stride,R,A,lambda_min"]
        for row in self.rows:
            lines.append(
                f"{row.n},{row.stride},{row.R!r},{row.A!r},{row.lambda_min!r}"
            )
        return "\n".join(lines) + "\n"


def _stored_weight_count(n: int, symmetric: bool) -> int:
    return (n + 2) // 2 if symmetric else n + 1


def _unit(weights32: np.ndarray) -> np.ndarray:
    """Stored laws (blocks x (n + 1)) as the float64 unit vectors both
    coder ends use."""
    w = weights32.astype(np.float64)
    return w / norms(w)[:, None]


def _per_sample_roots(q: np.ndarray, stride: int):
    """Map the lattice roots q of each block (g, d) to per-sample roots
    q^{1/stride}.

    Principal branch for conjugate pairs (alias-free below the lattice
    Nyquist); real roots keep their sign, matching the odd-stride exact
    root and documented as the convention otherwise.  Returns the
    sorted roots of the blocks that map, plus ``{position: error}``.
    """
    fail = Failures()
    pos = np.arange(len(q))
    ok = fail.record(pos, {int(i): ZeroRoot("cannot take a fractional power of a zero root")
                           for i in np.flatnonzero(np.any(np.abs(q) < 1e-300, axis=-1))})
    pos, q = pos[ok], q[ok]
    partner, lead, errors = _pairs(q)
    q = q[fail.record(pos, errors)]
    real = partner == np.arange(q.shape[1])
    p = np.empty_like(q)
    first = lead & ~real
    p[first] = np.exp(np.log(q[first]) / stride)
    p[~lead] = np.conj(np.take_along_axis(p, partner, axis=-1)[~lead])
    x = q.real[real]
    # float_power rounds as C pow, like x ** y on one float; np.power on
    # an array can take a vector path that differs in the last bit
    p[real] = np.sign(x) * np.float_power(np.abs(x), 1.0 / stride)
    return np.take_along_axis(p, np.lexsort((p.imag, p.real), axis=-1), axis=-1), fail.first


def _block_bases(weights: np.ndarray, params: CodecParams, count: int):
    """Per-sample basis of each block from its law's float64 unit
    weights (blocks x (n + 1)).

    Amplitude mode gives the modes of the per-sample roots
    (``mode_basis``), initial-condition mode the impulse responses of
    the per-sample law (``impulse_basis``); at stride 1 that law is the
    stored one.  Either way the block is ``basis @ payload``, with one
    column per root, so a law whose degree trims below n uses only the
    leading payload values.  A law with no weight past lag 0 beyond
    the trim of ``weights_to_roots`` (an all-zero block gives one)
    states y = 0: it has no modes in amplitude mode, and in IC mode its
    own recursion yields zeros after the seeds at any stride.

    Returns ``[(positions, bases)]``, one entry per group of blocks
    whose bases were built together (same degree), plus
    ``{position: error}`` for the blocks that have no basis.
    """
    fail = Failures()
    pos = np.arange(len(weights))
    if params.fit_mode == INITIAL_CONDITIONS and params.stride == 1:
        basis, errors = _impulse_bases(weights, count)
        return [(pos[fail.record(pos, errors)], basis)], fail.first
    degrees = _degrees(weights)
    groups = []
    at = pos[degrees < 1]
    if at.size and params.fit_mode == AMPLITUDES:
        groups.append((at, np.zeros((at.size, count, 0))))
    elif at.size:
        basis, errors = _impulse_bases(weights[at], count)
        groups.append((at[fail.record(at, errors)], basis))
    for d in np.unique(degrees[degrees >= 1]).tolist():
        at = pos[degrees == d]
        roots, _, errors = _roots(weights[at, : d + 1])
        at = at[fail.record(at, errors)]
        if params.stride > 1:
            roots, errors = _per_sample_roots(roots, params.stride)
            at = at[fail.record(at, errors)]
        if params.fit_mode == AMPLITUDES:
            basis, errors = _mode_bases(roots, count)
        else:
            w, errors = _expand(roots, 1.0)
            at = at[fail.record(at, errors)]
            basis, errors = _impulse_bases(w / norms(w)[:, None], count)
        groups.append((at[fail.record(at, errors)], basis))
    return groups, fail.first


def _generate(basis: np.ndarray, coef: np.ndarray):
    """Samples ``basis @ coef`` of each block of a stack, for the blocks
    whose samples all stay within 1e100 and finite, plus
    ``{position: UnstableOverflow}`` for the others."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = (basis @ coef[..., None])[..., 0]
    bad = ~(np.abs(y) <= 1e100)
    failed = np.flatnonzero(bad.any(axis=-1))
    errors = {
        int(i): UnstableOverflow(f"generated sample beyond 1e100 at step {int(bad[i].argmax())}")
        for i in failed
    }
    return (np.delete(y, failed, axis=0) if failed.size else y), errors


def _encode(blocks: np.ndarray, params: CodecParams, quantize: bool):
    """Extract the law of every block of a stack and fit its coefficients.

    Returns (laws, eigenvalues, fits, failures): the float64 laws and
    their eigenvalues of the blocks that have one, in block order;
    ``[(blocks, bases, coefs)]`` for the blocks fitted, one entry per
    group of equal degree; and the per-block failure status.  With
    ``quantize`` the bases are built from the float32 weights a file
    stores, so the payload belongs to exactly the law a decoder sees; a
    palindromic law stays palindromic under that rounding.  Without it
    everything stays float64.
    """
    fail = Failures()
    c = _correlations(_delay_windows(blocks, params.order_n, params.stride))
    laws, lam, errors = _block_laws(c, params.symmetric)
    pos = np.flatnonzero(fail.record(np.arange(len(blocks)), errors))
    fitted = _unit(laws.astype(np.float32)) if quantize else laws
    groups, errors = _block_bases(fitted, params, blocks.shape[1])
    fail.record(pos, errors)
    fits = []
    for at, basis in groups:
        rows = pos[at]
        if params.fit_mode == AMPLITUDES:
            errors = {int(i): SingularNormalMatrix(
                "mode basis overflowed; roots too far from the unit circle"
            ) for i in np.flatnonzero(~np.all(np.isfinite(basis), axis=(1, 2)))}
        else:
            errors = {int(i): UnstableBasis("impulse-response basis overflowed")
                      for i in np.flatnonzero(~np.all(np.abs(basis) <= 1e100, axis=(1, 2)))}
        if errors:
            ok = fail.record(rows, errors)
            rows, basis = rows[ok], basis[ok]
        coef, errors = _least_squares(basis, blocks[rows])
        ok = fail.record(rows, errors)
        fits.append((rows[ok], basis[ok] if errors else basis, coef))
    return laws, lam, fits, fail


def compress(series: TimeSeries, params: CodecParams) -> CompressionArtifact:
    """Extract one law per block and fit its payload, all blocks at once.

    Weights are quantized to float32 before the payload fit, so the
    stored coefficients belong to exactly the law a decoder will see.
    A block whose payload leaves float32 range fails with
    UnstableOverflow.  When blocks fail, the error of the lowest-index
    one is raised; a tail sample beyond float32 range raises
    UnstableOverflow after that.
    """
    y = series.samples
    block = params.block_size
    if y.size < block:
        raise SeriesTooShort(
            f"series of {y.size} samples is shorter than one block ({block})"
        )
    rate = int(round(series.sample_rate))
    if rate < 1:
        raise ValueError("sample rate rounds below 1")
    block_count = y.size // block
    laws, _, fits, fail = _encode(
        y[: block_count * block].reshape(block_count, block), params, quantize=True
    )
    payload = np.zeros((block_count, params.order_n), dtype=np.float32)
    for rows, _, coef in fits:
        ok = fail.record(rows, {int(i): UnstableOverflow("payload coefficient beyond float32 range")
                                for i in np.flatnonzero(~_in_f32_range(coef, axis=-1))})
        payload[rows[ok], : coef.shape[1]] = coef[ok]
    fail.raise_first()
    tail = y[block_count * block :]
    if not _in_f32_range(tail):
        raise UnstableOverflow("tail sample beyond float32 range")
    return CompressionArtifact(
        params=params,
        sample_rate=rate,
        weights=laws.astype(np.float32),
        payload=payload,
        tail=tail,
    )


def decompress(artifact: CompressionArtifact) -> TimeSeries:
    """Regenerate every block as its basis times its payload, all blocks
    at once, then append the verbatim tail.

    Raises UnstableOverflow when a generated sample is beyond 1e100 or
    not finite; when blocks fail, the error of the lowest-index one.
    """
    params = artifact.params
    block = params.block_size
    block_count = len(artifact.weights)
    out = np.empty(artifact.decompressed_length, dtype=np.float64)
    blocks = out[: block_count * block].reshape(block_count, block)
    groups, errors = _block_bases(_unit(artifact.weights), params, block)
    fail = Failures()
    fail.record(np.arange(block_count), errors)
    for rows, basis in groups:
        coef = artifact.payload[rows, : basis.shape[-1]].astype(np.float64)
        y, errors = _generate(basis, coef)
        blocks[rows[fail.record(rows, errors)]] = y
    fail.raise_first()
    out[block_count * block :] = artifact.tail
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
        len(artifact.weights),
        int(artifact.tail.size),
        0,
    )
    count = _stored_weight_count(params.order_n, params.symmetric)
    rows = np.hstack([artifact.weights[:, :count], artifact.payload])
    return head + rows.astype("<f4").tobytes() + artifact.tail.astype("<f4").tobytes()


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
    values = np.frombuffer(data, dtype="<f4", offset=_HEADER_SIZE).astype(np.float32)
    if not np.all(np.isfinite(values)):
        raise InvariantViolation("non-finite stored values")
    rows = values[: block_count * (count + n)].reshape(block_count, count + n)
    weights = rows[:, :count]
    if symmetric:
        lags = np.arange(n + 1)
        weights = weights[:, np.minimum(lags, n - lags)]
    off = np.abs(np.linalg.norm(weights.astype(np.float64), axis=1) - 1.0)
    if np.any(off > 1e-3):
        raise InvariantViolation(f"stored weights have a norm off 1 by {off.max():.6f}")
    return CompressionArtifact(
        params=params,
        sample_rate=rate,
        weights=weights,
        payload=rows[:, count:],
        tail=values[block_count * (count + n) :],
    )


def _measure_point(y: np.ndarray, params: CodecParams) -> tuple[float, float]:
    """Energy-weighted accuracy and mean smallest eigenvalue over all
    full blocks, in float64 end to end, all blocks at once."""
    block = params.block_size
    block_count = y.size // block
    blocks = y[: block_count * block].reshape(block_count, block)
    energy = (blocks[:, None, :] @ blocks[:, :, None])[:, 0, 0]
    live = np.flatnonzero(energy != 0.0)  # a silent block's correlation matrix is zero
    _, lam, fits, fail = _encode(blocks[live], params, quantize=False)
    acc = np.empty(live.size)
    for rows, basis, coef in fits:
        simulated, errors = _generate(basis, coef)
        rows = rows[fail.record(rows, errors)]
        segment = blocks[live[rows]]
        acc[rows] = 1.0 - norms(segment - simulated) / norms(segment)
    fail.raise_first()
    if live.size == 0:
        raise ValueError("every full block is identically zero")
    lambdas = np.zeros(block_count)
    lambdas[live] = lam
    # block by block in order, as a running Python sum adds them
    weighted = np.add.accumulate(energy[live] * acc)[-1]
    return float(weighted / np.add.accumulate(energy[live])[-1]), float(np.mean(lambdas))


def sweep(series: TimeSeries, n_grid, stride_grid, block_size: int,
          symmetric: bool = False) -> SweepReport:
    """Measure accuracy across an (n, stride) grid at one block size.

    Each point fits its blocks in amplitude mode, in float64.
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
            params = CodecParams(order_n=n, block_size=block_size, stride=s, symmetric=symmetric)
            try:
                acc, lam = _measure_point(y, params)
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


def random_baseline(length: int, seed: int, n_grid, block_size: int) -> tuple[SweepReport, float]:
    """Accuracy-versus-rate baseline on seeded uniform noise.

    Returns the stride-1 amplitude-mode sweep over ``n_grid`` plus the
    least-squares slope of log A against log R over the rows with
    R >= 2.  Structured signals are judged against this reference
    curve.  Tracing the full reference trend means holding n fixed and
    growing the block: calling this once per block size and pooling the
    rows keeps each R estimate free of order effects.
    """
    noise = synthesize(
        SynthSpec(kind="uniform_noise", length=length, sample_rate=1.0, seed=seed)
    )
    report = sweep(noise, n_grid, (1,), block_size)
    return report, rate_accuracy_slope(report.rows)
