"""Law-based block compression and rate/accuracy measurement.

Each full block of ``block_size`` samples is reduced to one extracted
law plus n payload reals.  The law fixes a per-sample basis of the
block and the payload holds the block's coefficients in it,
``block = basis @ payload``: the basis is the law's exponential modes
in amplitude mode and its recursion's impulse responses in
initial-condition (IC) mode, where the payload is the n seed values.
An amplitude-mode file that is not symmetric stores each law as the
exponents of its per-sample roots (DLAW v2, ``StoredExponents``); IC
and symmetric files store its weights (DLAW v1, an artifact's
``weights``, blocks x (n + 1)).  The payload is ``payload``
(blocks x n).  The leftover tail ships verbatim.  The nominal rate of
this scheme is

    R = block_size / (2 n),

counting 2n stored reals per block against block_size original ones.

``compress`` and ``decompress`` make one pass over all blocks of a
file, and ``sweep`` one pass over all blocks at every point of its grid
(a long file, one pass per point): the windows of every block form one
stacked array, and correlations, eigensolves, companion roots, bases
and least-squares solves run as stacked numpy/LAPACK calls.  A stage
splits by shape only at a BLAS or LAPACK call that needs one operand
shape: the windows and correlations per point, the eigensolves per
order, the companion eigensolves and their residual gates per degree,
and a fit's peak-scaled columns and their products, Cholesky factors,
solves and generated samples per degree, on bases split by shape
(``_stack.runs``).  The rest runs once per pass, on (rows, n) stacks
padded past each row's degree: the root pairing, the exponents and
their rounding, one basis build over every used column, the gates, the
Gram scaling and the accuracy, so a pass of several orders costs about
what its rows cost.  A block that fails drops out of the later stages
with its first error kept (``_stack.Failures``), and the file, or the
sweep point, raises the error of its lowest-index failed block, as a
pass block by block would.  A block whose correlation leaves float
range (a sample beyond about 1e154) fails with UnstableOverflow before
it yields a law.

Binary layout (DLAW, little-endian).  Both versions share the header::

    offset  size  field
    0       4     magic  b"DLAW"
    4       2     version, u16 = 1 or 2
    6       2     flags, u16: bit 0 = symmetric weights,
                             bit 1 = payload holds recursion seeds
                             (clear = amplitude coefficients);
                             both clear in v2
    8       4     sample_rate, u32 (Hz)
    12      4     block_size, u32
    16      2     n, u16
    18      2     stride, u16
    20      4     block_count, u32
    24      4     tail_length, u32
    28      4     reserved, u32 = 0

Version 1 follows with block_count rows of f32: the weights (n + 1
values, or ceil((n+1)/2) leading values when symmetric), then the n
payload values; then the tail samples as f32.  A row is 8n + 4 bytes
(4n + 4 ceil((n+1)/2) when symmetric).

Version 2 follows with five sections, then the tail samples as f32:

    size                    field
    4 block_count           root structure of each block, u32:
                            pairs p_b (bits 0-15), real roots r_b
                            (bits 16-31), 2 p_b + r_b <= n
    8 sum p_b               each pair: ln rho as f32, then theta as
                            u32 t, theta = pi t / 2^32, 0 < t < 2^32
    4 sum r_b               each real root q: ln|q| as f32
    4 ceil(sum r_b / 32)    sign bits, q < 0, one per real root in
                            order (bit i of byte i // 8 for root i),
                            zero past the last root
    4 sum (2 p_b + r_b)     each block's payload, one f32 per basis
                            column: each pair's cosine and sine
                            coefficients, then each real root's

Roots are per-sample (already mapped from the stride lattice) and in
block order: a block's columns are ``mode_basis``'s columns of its
per-sample roots, with the pairs moved first.  A block whose n roots
are all in pairs takes 8n + 4 bytes, as in v1; one whose n roots are
all real takes 8n + 4 bytes plus n sign bits; a block with fewer roots
stores fewer payload values.

All stored reals are f32 and angles u32; compression rounds the law to
what the file stores before fitting, so a decode of an in-memory
artifact and a decode after a serialize round trip are bit-identical.

Laws extracted at stride s > 1 live on a coarse lattice.  For full-rate
reconstruction their roots are mapped to per-sample roots via the
principal s-th root, ln q / s, which assumes the content sits below the
lattice Nyquist frequency, sample_rate / (2 s); negative real roots
keep their sign, and a root at the origin fails its block as ZeroRoot.
A v2 decoder builds each basis straight from the stored exponents; a v1
decoder finds the roots of the stored weights and maps each on its own.
Measurement (sweep / random_baseline) runs the encode of ``compress``
in amplitude mode and generates each block from its float32 payload:
a sweep row's accuracy is that of its decoded file (v2, or v1 when
symmetric).  Initial-condition mode is a storage mode of ``compress`` only.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
from dataclasses import dataclass

import numpy as np

from ._stack import Failures, drop, norms, runs, survivors, with_cause
from .embedding import TimeSeries, _delay_windows, _integer
from .errors import (
    BadMagic,
    InvariantViolation,
    NumericalError,
    SeriesTooShort,
    TruncatedPayload,
    UnstableBasis,
    UnstableOverflow,
    UnsupportedVersion,
    ZeroRoot,
)
from .fitting import _exponent_bases, _least_squares, _mode_bases, _mode_exponents
from .lawforms import _degrees, _expand, _generate, _impulse_bases, _pair_limit, _roots
from .signal_io import SynthSpec, synthesize
# eigendecompose is unused here; perfbench's tracer test reads dynlaw.codec.eigendecompose
from .spectral import _correlations, _laws, _palindromic_basis, eigendecompose  # noqa: F401

__all__ = [
    "CodecParams",
    "CompressionArtifact",
    "StoredExponents",
    "SweepRow",
    "SweepReport",
    "compress",
    "decompress",
    "serialize",
    "deserialize",
    "sweep",
    "random_baseline",
    "rate_accuracy_slope",
    "AMPLITUDES",
    "INITIAL_CONDITIONS",
]

_MAGIC = b"DLAW"
_VERSIONS = (1, 2)
_HEADER = "<4sHHIIHHIII"
_HEADER_SIZE = struct.calcsize(_HEADER)

AMPLITUDES = "amplitudes"
INITIAL_CONDITIONS = "initial_conditions"

_F32_MAX = float(np.finfo(np.float32).max)
_ANGLE_UNIT = np.pi / 2**32  # a stored pair angle theta is this times a u32 in 1 .. 2^32 - 1


def _in_f32_range(values: np.ndarray, axis=None) -> np.ndarray:
    """Whether values are finite and within float32 range (NaN is not)."""
    return (np.abs(values) <= _F32_MAX).all(axis=axis)


def _check_widths(fields: dict) -> None:
    """ValueError unless each ``name: (value, bits)`` fits its header field."""
    for name, (value, bits) in fields.items():
        if value >= 1 << bits:
            raise ValueError(f"{name} {value} does not fit its {bits}-bit header field")


@dataclass(frozen=True)
class CodecParams:
    """Knobs of the block codec, each as a DLAW header stores it.

    ``order_n``, ``block_size`` and ``stride`` are integers (Python or
    numpy; not bool), stored as Python ints, and ``symmetric`` a bool
    (Python or numpy), stored as a Python bool.  ``block_size >= 2 *
    order_n`` keeps the nominal rate at or above 1 (equality is the
    lossless point where the correlation matrix is rank deficient),
    ``stride * order_n < block_size`` keeps at least one embedding window
    inside a block, and ``order_n`` and ``stride`` stay below 2^16 and
    ``block_size`` below 2^32, their header widths.  ValueError otherwise.
    """

    order_n: int
    block_size: int
    stride: int = 1
    fit_mode: str = AMPLITUDES
    symmetric: bool = False

    def __post_init__(self):
        object.__setattr__(self, "order_n", _integer("order_n", self.order_n, 1))
        object.__setattr__(self, "block_size", _integer("block_size", self.block_size))
        object.__setattr__(self, "stride", _integer("stride", self.stride, 1))
        if not isinstance(self.symmetric, (bool, np.bool_)):
            raise ValueError(f"symmetric must be a bool, not {self.symmetric!r}")
        object.__setattr__(self, "symmetric", bool(self.symmetric))
        if self.fit_mode not in (AMPLITUDES, INITIAL_CONDITIONS):
            raise ValueError(f"unknown fit_mode {self.fit_mode!r}")
        if self.block_size < 2 * self.order_n:
            raise ValueError("block_size must be >= 2 * order_n (rate >= 1)")
        if self.stride * self.order_n >= self.block_size:
            raise ValueError("stride * order_n must stay below block_size")
        _check_widths({"order_n": (self.order_n, 16), "stride": (self.stride, 16),
                       "block_size": (self.block_size, 32)})

    @property
    def rate(self) -> float:
        return self.block_size / (2.0 * self.order_n)


def _check_header(sample_rate, block_count: int = 0, tail_length: int = 0) -> int:
    """The sample rate as the int a DLAW header stores; ValueError unless
    the header can store what a file adds to its ``CodecParams``: a
    sample rate that is a whole number of Hz, at least 1, and a rate,
    block count and tail length that each fit 32 bits."""
    if sample_rate < 1:
        raise ValueError("sample_rate must be >= 1")
    if not float(sample_rate).is_integer():  # NaN and inf fail here too
        raise ValueError(f"sample_rate {sample_rate} is not a whole number of Hz")
    rate = int(sample_rate)
    _check_widths({"sample_rate": (rate, 32), "block count": (block_count, 32),
                   "tail length": (tail_length, 32)})
    return rate


@dataclass(frozen=True)
class StoredExponents:
    """The per-sample roots of every block of a DLAW v2 file, stored as
    exponents u = ln q, the paper's differential-equation form of a law.

    Block b has ``pairs[b]`` conjugate pairs and ``reals[b]`` real
    roots; its payload holds one coefficient per column of
    ``exponent_basis``: each pair's cosine and sine columns, then each
    real root's column.  The values are flat arrays in block order:

    * ``log_radius`` (float32) and ``angle`` (u32) of each pair: the
      pair rho e^(+-i theta) has ln rho = log_radius and
      theta = pi * angle / 2^32, so 0 < theta < pi;
    * ``log_magnitude`` (float32) and ``negative`` (bool) of each real
      root q: ln|q| and q < 0.

    Counts must fit 16 bits, logs must be finite and within float32
    range, and angles must be integers in 1 .. 2^32 - 1; ValueError
    otherwise.
    """

    pairs: np.ndarray
    reals: np.ndarray
    log_radius: np.ndarray
    angle: np.ndarray
    log_magnitude: np.ndarray
    negative: np.ndarray

    def __post_init__(self):
        pairs = _whole(self.pairs, 0, 0xFFFF, "root counts")
        reals = _whole(self.reals, 0, 0xFFFF, "root counts")
        if pairs.ndim != 1 or pairs.shape != reals.shape:
            raise ValueError("pairs and reals must hold one count per block")
        p, r = int(pairs.sum()), int(reals.sum())
        values = {"log_radius": (p, "pair"), "angle": (p, "pair"),
                  "log_magnitude": (r, "real root"), "negative": (r, "real root")}
        for name, (count, kind) in values.items():
            if np.shape(getattr(self, name)) != (count,):
                raise ValueError(f"{name} must hold one value per {kind}")
        for name in ("log_radius", "log_magnitude"):
            value = np.asarray(getattr(self, name))
            if not _in_f32_range(value):
                raise ValueError(f"{name} must be finite and within float32 range")
            object.__setattr__(self, name, value.astype(np.float32, copy=False))
        angle = _whole(self.angle, 1, 2**32 - 1, "pair angles")
        object.__setattr__(self, "pairs", pairs.astype(np.int64, copy=False))
        object.__setattr__(self, "reals", reals.astype(np.int64, copy=False))
        object.__setattr__(self, "angle", angle.astype(np.uint32, copy=False))
        object.__setattr__(self, "negative", np.asarray(self.negative, dtype=bool))

    @functools.cached_property  # the checks, the reader, the writer and the decoder all read it
    def degrees(self) -> np.ndarray:
        """The number of basis columns, and payload values, of each block."""
        return 2 * self.pairs + self.reals

    def columns(self, n: int):
        """The float64 column layout (blocks x n) of ``_exponent_bases``:
        log radius, angle, and the real-root and cosine-column masks;
        columns past a block's degree are unused."""
        j = np.arange(n)
        pair = j < 2 * self.pairs[:, None]
        real = ~pair & (j < self.degrees[:, None])
        log_radius = np.zeros((len(self.pairs), n))
        angle = np.zeros((len(self.pairs), n))
        log_radius[pair] = np.repeat(self.log_radius, 2)
        angle[pair] = np.repeat(self.angle * _ANGLE_UNIT, 2)
        log_radius[real] = self.log_magnitude
        angle[real] = np.where(self.negative, np.pi, 0.0)
        return log_radius, angle, real, pair & (j % 2 == 0)


def _stores_exponents(params: CodecParams) -> bool:
    """Whether a file of these params stores its laws as exponents (v2)."""
    return params.fit_mode == AMPLITUDES and not params.symmetric


def _whole(values, low: int, high: int, what: str) -> np.ndarray:
    """``values`` as an array; ValueError unless each is a whole number
    in low .. high."""
    values = np.asarray(values)
    if values.size and not (values.dtype.kind in "iuf" and low <= values.min()
                            and values.max() <= high
                            and (values.dtype.kind != "f" or np.all(values == np.rint(values)))):
        raise ValueError(f"{what} must be whole numbers in {low} .. {high}")
    return values


def _stored(columns) -> StoredExponents:
    """The exponents of a stored column layout (``_law_exponents``)."""
    log_radius, angle, real, cosine = columns
    return StoredExponents(pairs=cosine.sum(axis=1), reals=real.sum(axis=1),
                           log_radius=log_radius[cosine].astype(np.float32),
                           angle=np.rint(angle[cosine] / _ANGLE_UNIT).astype(np.uint32),
                           log_magnitude=log_radius[real].astype(np.float32),
                           negative=angle[real] != 0.0)


@dataclass(frozen=True)
class CompressionArtifact:
    """Everything a decoder needs: params, stored blocks, raw tail.

    Block b is stored as its law plus ``payload[b]``, its n float32
    coefficients.  The law is either ``weights[b]`` (n + 1 float32
    values, the full palindrome when symmetric; DLAW v1) or, for an
    amplitude-mode artifact that is not symmetric, the block's share of
    ``exponents`` (DLAW v2), whose payload values past the block's
    degree are zero.  Omitted arrays mean no blocks.  Every value must be
    finite and within float32 range, each row of ``weights`` must have a
    norm within 1e-3 of 1, and the header fields beyond ``params`` must
    fit their widths.  ``sample_rate`` must be a whole number of Hz; it
    is kept as an int, so 8000.0 becomes 8000.
    """

    params: CodecParams
    sample_rate: int
    weights: np.ndarray | None = None
    payload: np.ndarray | None = None
    tail: np.ndarray | None = None
    exponents: StoredExponents | None = None

    def __post_init__(self):
        n = self.params.order_n
        for name, empty in (("weights", (0, n + 1)), ("payload", (0, n)), ("tail", 0)):
            value = getattr(self, name)
            if value is None:  # no values to check
                value = np.zeros(empty, dtype=np.float32)
            elif not _in_f32_range(value := np.asarray(value)):
                raise ValueError(f"{name} must be finite and within float32 range")
            object.__setattr__(self, name, np.asarray(value, dtype=np.float32))
        if self.weights.ndim != 2 or self.weights.shape[1] != n + 1:
            raise ValueError("weights must hold n + 1 values per block")
        laws = len(self.weights)
        if self.exponents is not None:
            if not _stores_exponents(self.params):
                raise ValueError("only amplitude-mode laws that are not symmetric store exponents")
            if laws:
                raise ValueError("an artifact stores its laws as weights or as exponents, not both")
            laws = len(self.exponents.pairs)
            if laws and self.exponents.degrees.max() > n:
                raise ValueError("a block's roots must fit in n payload columns")
        if self.payload.shape != (laws, n):
            raise ValueError("payload must hold n values per block")
        if self.exponents is not None and self.payload[self._unused].any():
            raise ValueError("payload values past a block's degree must be zero")
        if self.params.symmetric and not np.array_equal(self.weights, self.weights[:, ::-1]):
            raise ValueError("symmetric weights must be exact palindromes")
        rate = _check_header(self.sample_rate, laws, self.tail.size)
        object.__setattr__(self, "sample_rate", rate)
        if len(self.weights):
            off = np.abs(np.linalg.norm(self.weights.astype(np.float64), axis=1) - 1.0)
            if (off > 1e-3).any():
                raise ValueError(f"stored weights have a norm off 1 by {off.max():.6f}")

    @functools.cached_property  # read by the check above and by serialize
    def _unused(self) -> np.ndarray:
        """Mask (blocks x n) of the payload values past each block's degree."""
        return np.arange(self.params.order_n) >= self.exponents.degrees[:, None]

    @property
    def version(self) -> int:
        """The DLAW version ``serialize`` writes: 2 when the laws are
        stored as exponents, else 1."""
        return 1 if self.exponents is None else 2

    @property
    def decompressed_length(self) -> int:
        return len(self.payload) * self.params.block_size + int(self.tail.size)


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
        lines = [",".join(field.name for field in dataclasses.fields(SweepRow))]
        lines += [",".join(map(repr, dataclasses.astuple(row))) for row in self.rows]
        return "\n".join(lines) + "\n"


def _stored_weight_count(n: int, symmetric: bool) -> int:
    return (n + 2) // 2 if symmetric else n + 1


def _unit(weights32: np.ndarray) -> np.ndarray:
    """Stored laws (blocks x (n + 1)) as the float64 unit vectors both
    coder ends use."""
    w = weights32.astype(np.float64)
    return w / norms(w)[:, None]


def _lattice_roots(w: np.ndarray, degrees: np.ndarray, stride: np.ndarray, fail: Failures):
    """The lattice roots (``_roots``) of the laws of a stack (blocks x
    (n + 1)) of the given degrees, padded with +inf past each degree
    (blocks x n): ``_pairs`` takes a pad as a real root and ``_columns``
    puts it last.  The companion eigensolves and their residual gates run
    once per degree d >= 1, on the laws of that degree alone.  At stride
    > 1 (per block) a root at the origin, which has no fractional power,
    fails its block as ZeroRoot; failures go to ``fail`` by block index,
    and the roots of a failed block are not to be used."""
    q = np.full((len(w), w.shape[1] - 1), np.inf, dtype=np.complex128)
    for d in sorted(set(degrees.tolist()) - {0}):
        at = np.flatnonzero(degrees == d)
        roots, _, errors = _roots(w[at, : d + 1])
        q[at[fail.record(at, errors)], :d] = roots
    far = stride > 1
    if far.any():
        zero = far & np.any(np.abs(q) < 1e-300, axis=-1)
        fail.record(np.arange(len(q)), {int(i): ZeroRoot("cannot take a fractional power of a zero root")
                                        for i in np.flatnonzero(zero)})
    return q


def _per_sample_roots(q: np.ndarray, stride: np.ndarray) -> np.ndarray:
    """Map the lattice roots q of each block (g, d), none at the origin,
    to per-sample roots q^{1/stride}, at each block's stride (g,), every
    one above 1, each root on its own; sorted by (real, imag).

    A near-real root (``_pair_limit``) keeps its sign, matching the
    odd-stride exact root and documented as the convention otherwise.
    Any other takes the principal branch, exp(ln q / stride), alias-free
    below the lattice Nyquist, which maps an exact conjugate pair, as
    companion roots come, to an exact conjugate pair.
    """
    s = np.broadcast_to(stride[:, None], q.shape)
    real = np.abs(q.imag) <= _pair_limit(q)
    p = np.empty_like(q)
    p[~real] = np.exp(np.log(q[~real]) / s[~real])
    x = q.real[real]
    # float_power rounds as C pow, like x ** y on one float; np.power on
    # an array can take a vector path that differs in the last bit
    p[real] = np.sign(x) * np.float_power(np.abs(x), 1.0 / s[real])
    return p[np.arange(len(p))[:, None], np.lexsort((p.imag, p.real), axis=-1)]


def _block_bases(weights: np.ndarray, stride, modes: bool, count: int):
    """Per-sample basis of each block from its law's float64 unit
    weights (blocks x (n + 1); in amplitude mode a law of lower order may
    come padded with zero weights) and its stride (one for all blocks, or
    one per block), in amplitude mode (``modes``) or IC mode.

    Amplitude mode gives the modes of the per-sample roots
    (``mode_basis``), initial-condition mode the impulse responses of
    the per-sample law (``impulse_basis``).  Either way the block is
    ``basis @ payload``, with one column per root, so a law whose degree
    trims below n uses only the leading payload values.

    The stored law is itself the per-sample law of the ``direct``
    blocks: those of a law with no weight past lag 0 beyond the trim of
    ``weights_to_roots`` (an all-zero block gives one), which states
    y = 0, and in IC mode at stride 1 every block.  They take no roots:
    a y = 0 law has no modes in amplitude mode, and in IC mode a direct
    block's basis is the stored law's own recursion, with one seed per
    lag of the stored width n, which for y = 0 yields zeros after the
    seeds at any stride.  A direct IC block whose recursion cannot step
    (``_impulse_bases``), a stored law with w_0 ~ 0, fails as ZeroRoot.
    The other blocks take their lattice roots from ``_lattice_roots``;
    only those at stride > 1 are mapped (``_per_sample_roots``):
    exp(ln q / 1) is not q to the last bit.  In IC mode such a block
    steps the per-sample law its mapped roots expand to, unit-scaled as
    a stored law is; where that law leaves float range or cannot step,
    the block fails as UnstableBasis.

    Returns the positions of the blocks that have a basis and their
    bases split by shape (``_generate``), one stack per group of blocks
    whose bases were built together (direct, or of one degree), plus
    ``{position: error}`` for the blocks that have no basis.
    """
    fail = Failures()
    pos = np.arange(len(weights))
    stride = np.full(len(weights), stride)
    # the degree of the roots each basis needs: none in IC mode at stride 1,
    # where no block takes roots and the trim is not computed
    rooted = modes | (stride > 1)
    degrees = np.where(rooted, _degrees(weights), 0) if rooted.any() else np.zeros_like(pos)
    groups = []
    at = pos[degrees < 1]  # the direct blocks
    if at.size and modes:
        groups.append((at, np.zeros((at.size, 0, count))))
    elif at.size:
        basis, errors = _impulse_bases(weights[at], count)
        errors = _relabel(errors, ZeroRoot, "law has a root at the origin")
        groups.append((at[fail.record(at, errors)], basis))
    if degrees.any():
        q = _lattice_roots(weights, degrees, stride, fail)
        alive = survivors(len(q), fail.first)
        far = alive & (stride > 1)
        if far.any():
            q[far] = _per_sample_roots(q[far], stride[far])
        for d in sorted(set(degrees[alive].tolist()) - {0}):
            at = np.flatnonzero(alive & (degrees == d))
            if modes:
                basis, errors = _mode_bases(q[at, :d], count)
            else:
                # the law of the mapped roots may leave float range, or have a
                # w_0 too small against its norm to step
                text = "per-sample law of the stride map cannot be stepped"
                with np.errstate(over="ignore", invalid="ignore"):
                    w, errors = _expand(q[at, :d], 1.0)
                    at = at[fail.record(at, _relabel(errors, UnstableBasis, text))]
                    basis, errors = _impulse_bases(_unit(w), count)
                errors = _relabel(errors, UnstableBasis, text)
            groups.append((at[fail.record(at, errors)], basis))
    rows = np.concatenate([pos[:0]] + [at for at, _ in groups])
    return (rows, [basis for _, basis in groups] or [np.zeros((0, 0, count))]), fail.first


def _relabel(errors: dict, kind, text: str) -> dict:
    """``errors`` raised again as ``kind``, each prefixed by ``text``."""
    return {pos: with_cause(kind(f"{text}: {exc}"), exc) for pos, exc in errors.items()}


def _law_exponents(w: np.ndarray, stride):
    """Per-sample exponents of the law of each block, from its float64
    weights (blocks x (n + 1)) and its stride (one for all blocks, or one
    per block), as a v2 file stores them, in the column layout of
    ``StoredExponents.columns``.

    The exponents of a block's lattice roots (``_lattice_roots``) are
    those of ``_mode_exponents``, mapped to the principal stride-th root
    as ``_per_sample_roots`` maps roots, then the pairs moved first in
    the order of their lead roots.  Logs are rounded to float32 and pair
    angles to the nearest multiple of pi / 2^32 inside (0, pi).  A law
    with no weight past lag 0 (``_degrees``) has no columns, and at
    stride > 1 a root at the origin fails as ZeroRoot.  Past the
    companion eigensolves, every step runs once over all blocks, on
    roots padded past each degree.

    Returns the layout (log_radius, angle, real, cosine), each
    (blocks x n) and empty in the rows of failed blocks, plus
    ``{position: error}``.
    """
    fail = Failures()
    g, n = w.shape[0], w.shape[1] - 1
    stride, degrees = np.full(g, stride), _degrees(w)
    q = _lattice_roots(w, degrees, stride, fail)
    at, q = drop(fail.first, np.arange(g), q)
    (u, theta, single, cos), source, errors = _mode_exponents(q)
    at = at[fail.record(at, errors)]
    s = stride[at, None]  # dividing by 1 leaves a stride-1 block's exponents as they are
    u, theta = u / s, np.where(single, theta, theta / s)
    # pairs first, each at its lead root, then the real roots, then the
    # pads; a pair's cosine column stays before its sine column
    order = np.arange(len(u))[:, None], np.argsort(source + n * single, axis=-1, kind="stable")
    u, theta, single, cos = u[order], theta[order], single[order], cos[order]
    code = np.clip(np.rint(theta / _ANGLE_UNIT), 1, 2**32 - 1)
    used = np.arange(n) < degrees[at, None]
    log_radius, angle = np.zeros((g, n)), np.zeros((g, n))
    real, cosine = np.zeros((g, n), dtype=bool), np.zeros((g, n), dtype=bool)
    log_radius[at] = np.where(used, u.astype(np.float32), 0.0)
    angle[at] = np.where(single, theta, code * _ANGLE_UNIT)  # a pad's angle is 0
    real[at], cosine[at] = used & single, cos
    return (log_radius, angle, real, cosine), fail.first


def _exponent_groups(columns, degrees: np.ndarray, count: int, rows: np.ndarray):
    """Per-sample bases of the given rows (sorted) of a column layout (the
    first output of ``_law_exponents``, or ``StoredExponents.columns``)
    whose blocks have the given degrees, built straight from the
    exponents by one ``_exponent_bases`` call over every used column.
    Returns the rows ordered by degree (stably) and their bases split by
    shape (``_generate``), one stack per degree."""
    degrees = degrees[rows]
    if np.all(degrees == degrees[:1]):  # one degree, as in most files: views, not gathers
        d = int(degrees[0]) if degrees.size else 0
        sel = slice(None) if rows.size == len(columns[0]) else rows
        return rows, [_exponent_bases(*(column[sel, :d] for column in columns), count)]
    order = np.argsort(degrees, kind="stable")
    rows, degrees = rows[order], degrees[order]
    used = np.arange(columns[0].shape[1]) < degrees[:, None]
    flat = _exponent_bases(*(column[rows][used][None] for column in columns), count)[0]
    degree, size = np.unique(degrees, return_counts=True)
    return rows, [flat[cols].reshape(at.stop - at.start, d, count)
                  for at, cols, d in runs(zip(size.tolist(), degree.tolist()))]


def _encode(blocks: np.ndarray, points):
    """Encode every block of a stack at each grid point of ``points``
    (``CodecParams`` that share the block size, the fit mode and the
    symmetric flag) as a file of that point stores it: extract its law,
    round the law to what the file stores, fit the payload against
    exactly that law, and round the payload to float32.

    Row i * blocks + b of the pass is block b at ``points[i]``, and
    carries that point's order and stride.  An IC pass holds one point
    (``compress``): ``_block_bases`` steps a direct IC row's recursion at
    the stored width, which is then that point's order.  Windows and
    correlations are taken point by point and laws order by order; each
    law is stored at its own width and only then padded with zero
    weights to the widest order, which leaves its degree, and so its
    roots, as they are.  Every later stage runs once over all rows,
    split by degree only at its BLAS and LAPACK calls.

    Returns (stored, eigenvalues, fit, failures): the stored laws of
    the rows that have one, in row order (the ``_law_exponents`` column
    layout when the file stores exponents, else float32 weights; a
    palindromic law stays palindromic under the rounding), padded to the
    widest order; the eigenvalue of each row's law (0 for a row with
    none); ``(rows, bases, payload)`` for the rows that have a basis, in
    the order of their bases, split by shape (``_generate``), and their
    float32 payload, zero past each row's degree and in a failed row;
    and the per-row failure status.  A block whose payload leaves
    float32 range fails with UnstableOverflow.
    """
    count, first = len(blocks), points[0]
    exponents, modes = _stores_exponents(first), first.fit_mode == AMPLITUDES
    size, width = len(points) * count, max(p.order_n for p in points) + 1
    stride = np.repeat([p.stride for p in points], count)
    fail = Failures()
    eigenvalues = np.zeros(size)
    laws = np.zeros((size, width))  # float64; in v1, the unit weights of the stored law
    weights = None if exponents else np.zeros((size, width), dtype=np.float32)  # v1 stores these
    for n in dict.fromkeys(p.order_n for p in points):
        at = [i for i, p in enumerate(points) if p.order_n == n]
        with np.errstate(over="ignore", invalid="ignore"):
            c = np.concatenate([_correlations(_delay_windows(blocks, n, points[i].stride))
                                for i in at])
        rows = (np.array(at)[:, None] * count + np.arange(count)).ravel()
        # a finite (c + c^T) / 2 is exactly symmetric, so finiteness is all eigh needs
        errors = {int(i): UnstableOverflow("correlation beyond float range")
                  for i in np.flatnonzero(~np.all(np.isfinite(c), axis=(1, 2)))}
        fail.record(rows, errors)
        rows, c = drop(errors, rows, c)
        w, lam, errors = _laws(c, _palindromic_basis(n) if first.symmetric else None)
        rows = rows[fail.record(rows, errors)]
        eigenvalues[rows] = lam
        if exponents:
            laws[rows, : n + 1] = w
        else:
            weights[rows, : n + 1] = w = w.astype(np.float32)
            laws[rows, : n + 1] = _unit(w)  # a norm over the law's own width
    pos = np.flatnonzero(survivors(size, fail.first))
    if exponents:
        stored, errors = _law_exponents(laws[pos], stride[pos])
        _, _, real, cosine = stored
        at, bases = _exponent_groups(stored, real.sum(axis=1) + 2 * cosine.sum(axis=1),
                                     blocks.shape[1], np.flatnonzero(fail.record(pos, errors)))
    else:
        stored = weights[pos]
        (at, bases), errors = _block_bases(laws[pos], stride[pos], modes, blocks.shape[1])
        fail.record(pos, errors)
    rows = pos[at]
    coef, errors = _least_squares(bases, blocks[rows % count], modes)
    if errors:  # a failed row keeps zero coefficients
        coef, solved = np.zeros((rows.size, coef.shape[1])), coef
        coef[fail.record(rows, errors)] = solved
    wide = ~_in_f32_range(coef, axis=-1)
    if wide.any():
        text = "payload coefficient beyond float32 range"
        fail.record(rows, {int(i): UnstableOverflow(text) for i in np.flatnonzero(wide)})
        coef[wide] = 0.0
    return stored, eigenvalues, (rows, bases, coef.astype(np.float32)), fail


def _full_blocks(y: np.ndarray, block: int) -> np.ndarray:
    """The full blocks of a series as rows (a view); SeriesTooShort if none."""
    if y.size < block:
        raise SeriesTooShort(f"series of {y.size} samples is shorter than one block ({block})")
    return y[: y.size // block * block].reshape(-1, block)


def compress(series: TimeSeries, params: CodecParams) -> CompressionArtifact:
    """Extract one law per block and fit its payload, all blocks at once.

    Amplitude-mode artifacts that are not symmetric store each law as
    its per-sample exponents (``StoredExponents``, DLAW v2), the others
    as float32 weights (DLAW v1); ``_encode`` fits each payload to the
    law as stored, so it belongs to exactly the law a decoder will see.
    A block whose correlation or payload leaves float range fails with
    UnstableOverflow.  When blocks fail, the error of the lowest-index
    one is raised; a tail sample beyond float32 range raises
    UnstableOverflow after that.  A header the file cannot store (a
    sample rate that is not a whole number of Hz, say) raises
    ValueError before any block is encoded.
    """
    blocks = _full_blocks(series.samples, params.block_size)
    rate = _check_header(series.sample_rate)
    stored, _, (rows, _, coef), fail = _encode(blocks, [params])
    payload = np.zeros((len(blocks), params.order_n), dtype=np.float32)
    payload[rows, : coef.shape[1]] = coef
    fail.raise_first()
    tail = series.samples[blocks.size :]
    if not _in_f32_range(tail):
        raise UnstableOverflow("tail sample beyond float32 range")
    if _stores_exponents(params):
        return CompressionArtifact(params=params, sample_rate=rate, payload=payload, tail=tail,
                                   exponents=_stored(stored))
    return CompressionArtifact(params=params, sample_rate=rate, weights=stored, payload=payload,
                               tail=tail)


def decompress(artifact: CompressionArtifact) -> TimeSeries:
    """Regenerate every block as its basis times its payload, all blocks
    at once, then append the verbatim tail.

    Raises UnstableOverflow when a generated sample is beyond 1e100 or
    not finite; when blocks fail, the error of the lowest-index one.
    """
    params = artifact.params
    block = params.block_size
    block_count = len(artifact.payload)
    out = np.empty(artifact.decompressed_length, dtype=np.float64)
    blocks = out[: block_count * block].reshape(block_count, block)
    fail = Failures()
    if artifact.exponents is None:
        (rows, bases), errors = _block_bases(_unit(artifact.weights), params.stride,
                                             params.fit_mode == AMPLITUDES, block)
        fail.record(np.arange(block_count), errors)
    else:
        exponents = artifact.exponents
        rows, bases = _exponent_groups(exponents.columns(params.order_n), exponents.degrees, block,
                                       np.arange(block_count))
    y, errors = _generate(bases, artifact.payload[rows].astype(np.float64))
    blocks[rows[fail.record(rows, errors)]] = y
    fail.raise_first()
    out[block_count * block :] = artifact.tail
    return TimeSeries(samples=out, sample_rate=float(artifact.sample_rate))


def serialize(artifact: CompressionArtifact) -> bytes:
    """Encode an artifact in the DLAW byte layout of its version."""
    params = artifact.params
    flags = params.symmetric | 2 * (params.fit_mode == INITIAL_CONDITIONS)
    head = struct.pack(
        _HEADER,
        _MAGIC,
        artifact.version,
        flags,
        artifact.sample_rate,
        params.block_size,
        params.order_n,
        params.stride,
        len(artifact.payload),
        int(artifact.tail.size),
        0,
    )
    tail = artifact.tail.astype("<f4").tobytes()
    if artifact.exponents is None:
        count = _stored_weight_count(params.order_n, params.symmetric)
        rows = np.hstack([artifact.weights[:, :count], artifact.payload])
        return head + rows.astype("<f4").tobytes() + tail
    e = artifact.exponents
    pairs = np.stack([e.log_radius.astype("<f4").view("<u4"), e.angle.astype("<u4")], axis=-1)
    signs = np.packbits(e.negative, bitorder="little").tobytes()
    return b"".join([
        head, (e.pairs | e.reals << 16).astype("<u4").tobytes(), pairs.tobytes(),
        e.log_magnitude.astype("<f4").tobytes(), signs.ljust(-(-len(signs) // 4) * 4, b"\0"),
        artifact.payload[~artifact._unused].astype("<f4").tobytes(), tail,
    ])


def deserialize(data: bytes) -> CompressionArtifact:
    """Decode a DLAW byte string, version 1 or 2.

    The reader checks the layout: magic, version, flag bits, reserved
    field, lengths, and a v2 file's root counts and sign-bit padding.
    ``CodecParams``, ``StoredExponents`` and ``CompressionArtifact``
    validate the values (a v1 file's unit weight norm; a v2 file must be
    in amplitude mode and not symmetric); their ValueError becomes
    InvariantViolation.  Raises BadMagic / UnsupportedVersion /
    TruncatedPayload / InvariantViolation; all are CorruptArtifact.
    """
    if data[:4] != _MAGIC:
        raise BadMagic("missing DLAW signature")
    if len(data) < _HEADER_SIZE:
        raise TruncatedPayload("header cut short")
    (_, version, flags, rate, block_size, n, stride, block_count, tail_len, reserved) = (
        struct.unpack(_HEADER, data[:_HEADER_SIZE])
    )
    if version not in _VERSIONS:
        raise UnsupportedVersion(f"version {version}; this reader handles 1 and 2")
    if flags & ~0b11:
        raise InvariantViolation(f"unknown flag bits 0x{flags:04x}")
    if reserved != 0:
        raise InvariantViolation("reserved header field must be zero")
    reader = _read_v1 if version == 1 else _read_v2
    try:
        params = CodecParams(n, block_size, stride, INITIAL_CONDITIONS if flags & 2 else AMPLITUDES,
                             bool(flags & 1))
        return reader(data, params, rate, block_count, tail_len)
    except ValueError as exc:
        raise InvariantViolation(str(exc)) from exc


def _check_length(data: bytes, expected: int) -> None:
    if len(data) < expected:
        raise TruncatedPayload(f"need {expected} bytes, got {len(data)}")
    if len(data) > expected:
        raise InvariantViolation(f"{len(data) - expected} trailing bytes")


def _read_v1(data: bytes, params: CodecParams, rate: int, block_count: int, tail_len: int):
    n, symmetric = params.order_n, params.symmetric
    count = _stored_weight_count(n, symmetric)
    _check_length(data, _HEADER_SIZE + 4 * (block_count * (count + n) + tail_len))
    values = np.frombuffer(data, dtype="<f4", offset=_HEADER_SIZE)
    rows = values[: block_count * (count + n)].reshape(block_count, count + n)
    weights = rows[:, :count]
    if symmetric:
        lags = np.arange(n + 1)
        weights = weights[:, np.minimum(lags, n - lags)]
    return CompressionArtifact(params=params, sample_rate=rate, weights=weights,
                               payload=rows[:, count:], tail=values[block_count * (count + n) :])


def _read_v2(data: bytes, params: CodecParams, rate: int, block_count: int, tail_len: int):
    offset = _HEADER_SIZE + 4 * block_count
    if len(data) < offset:
        raise TruncatedPayload(f"need {offset} bytes for the root structure, got {len(data)}")
    structure = np.frombuffer(data, dtype="<u4", count=block_count,
                              offset=_HEADER_SIZE).astype(np.int64)
    pairs, reals = structure & 0xFFFF, structure >> 16
    if (2 * pairs + reals > params.order_n).any():
        raise InvariantViolation(f"a block's roots exceed its n = {params.order_n} columns")
    p, r = int(pairs.sum()), int(reals.sum())
    words = -(-r // 32)
    sections = (8 * p, 4 * r, 4 * words, 4 * (2 * p + r), 4 * tail_len)
    _check_length(data, offset + sum(sections))
    pair_words = np.frombuffer(data, dtype="<u4", count=2 * p, offset=offset).reshape(p, 2)
    offset += sections[0]
    log_magnitude = np.frombuffer(data, dtype="<f4", count=r, offset=offset)
    offset += sections[1]
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, count=4 * words, offset=offset),
                         bitorder="little")
    if bits[r:].any():
        raise InvariantViolation("sign bits past the last real root must be zero")
    offset += sections[2]
    values = np.frombuffer(data, dtype="<f4", offset=offset)
    exponents = StoredExponents(pairs=pairs, reals=reals, log_radius=pair_words[:, 0].view("<f4"),
                                angle=pair_words[:, 1], log_magnitude=log_magnitude,
                                negative=bits[:r].astype(bool))
    payload = np.zeros((block_count, params.order_n), dtype=np.float32)
    payload[np.arange(params.order_n) < exponents.degrees[:, None]] = values[: 2 * p + r]
    return CompressionArtifact(params=params, sample_rate=rate, payload=payload,
                               tail=values[2 * p + r :], exponents=exponents)


# rows one sweep pass stacks: grid points share a pass while their rows
# fit.  Stacking pays while the fixed cost of each stage's numpy calls
# dominates, as on a short clip, and stops paying past a few hundred
# rows; a long file takes a pass per point, so its peak memory does not
# grow with the size of the grid
_ROW_BUDGET = 256


def _measure(blocks: np.ndarray, energy: np.ndarray, points) -> list:
    """Energy-weighted accuracy and mean smallest eigenvalue over the
    full blocks of a series, of energy ``energy``, at each grid point of
    ``points``, in one ``_encode`` pass over all of them.  Each block is
    encoded as ``compress`` encodes it and generated from its float32
    payload as ``decompress`` generates it, so the accuracy is the
    decoded file's.

    Returns per point (A, lambda_min), or the error of its lowest-index
    failed block; a failure at one point leaves the others measured."""
    live = np.flatnonzero(energy != 0.0)  # a silent block's correlation matrix is zero
    _, lam, (rows, bases, coef), fail = _encode(blocks[live], points)
    simulated, errors = _generate(bases, coef.astype(np.float64))
    rows = rows[fail.record(rows, errors)]
    at = live[rows % live.size]
    acc = np.empty(len(lam))
    with np.errstate(over="ignore", invalid="ignore"):  # a sample past ~1e154 no window saw
        acc[rows] = 1.0 - norms(blocks[at] - simulated) / np.sqrt(energy[at])
    fail.record(rows, {int(i): UnstableOverflow("block norm beyond float range")
                       for i in np.flatnonzero(~np.isfinite(acc[rows]))})
    failed = {}  # point index: the error of its lowest-index failed block
    for row in sorted(fail.first):
        failed.setdefault(row // live.size, fail.first[row])
    lambdas = np.zeros(len(blocks))
    total = np.add.accumulate(energy[live])[-1]
    out = []
    for i in range(len(points)):
        if i in failed:
            out.append(failed[i])
            continue
        at = slice(i * live.size, (i + 1) * live.size)
        lambdas[live] = lam[at]
        # block by block in order, as a running Python sum adds them
        weighted = np.add.accumulate(energy[live] * acc[at])[-1]
        out.append((float(weighted / total), float(np.mean(lambdas))))
    return out


def sweep(series: TimeSeries, n_grid, stride_grid, block_size: int,
          symmetric: bool = False) -> SweepReport:
    """Measure accuracy across an (n, stride) grid at one block size.

    Each point encodes its blocks in amplitude mode as ``compress``
    does and measures the decoded file: the law and the float32 payload
    the file stores.  The whole grid is one pass, unless the file is
    long: a pass stacks grid points only while their rows stay within a
    fixed budget.  Grid points ``CodecParams`` rejects and points where
    a numerical step fails are recorded under ``skipped`` with the
    error's text as the reason, instead of aborting the sweep; a failure
    at one point leaves the other points measured.  Block accuracies are
    averaged weighted by block energy, matching a concatenated-signal
    Euclidean accuracy when block errors are comparable.  A
    ``block_size`` that is not a positive integer raises ValueError, as
    does a series whose full blocks are all zero, or all so small that
    their energy underflows float64.  Rows and skipped points give
    integer grid values as Python ints, numpy grids included.
    """
    _integer("block_size", block_size, 1)
    blocks = _full_blocks(series.samples, block_size)
    if not series.samples.any():
        raise ValueError("sweep needs a nonzero signal")
    with np.errstate(over="ignore"):  # inf beside a sample past ~1e154; _encode fails that block
        energy = (blocks[:, None, :] @ blocks[:, :, None])[:, 0, 0]
    points = {}  # (n, stride): its CodecParams, or why it has none
    for n in n_grid:
        for s in stride_grid:
            try:
                points[n, s] = CodecParams(order_n=n, block_size=block_size, stride=s,
                                           symmetric=symmetric)
            except ValueError as exc:
                points[n, s] = exc
    feasible = [key for key, params in points.items() if isinstance(params, CodecParams)]
    if feasible and not energy.any():
        if blocks.any():
            raise ValueError("the energy of every full block underflows float64 "
                             "(every sample lies below about 1.6e-162)")
        raise ValueError("every full block is identically zero")
    per_pass = max(1, _ROW_BUDGET // max(np.count_nonzero(energy), 1))
    measured = {}
    for i in range(0, len(feasible), per_pass):
        keys = feasible[i : i + per_pass]
        measured.update(zip(keys, _measure(blocks, energy, [points[key] for key in keys])))
    rows = []
    skipped = []
    for n in n_grid:
        for s in stride_grid:
            params, result = points[n, s], measured.get((n, s))
            if isinstance(params, ValueError):
                skipped.append((_plain(n), _plain(s), str(params)))
            elif isinstance(result, NumericalError):
                reason = f"{type(result).__name__}: {result}"
                skipped.append((params.order_n, params.stride, reason))
            else:
                rows.append(SweepRow(n=params.order_n, stride=params.stride, R=params.rate,
                                     A=result[0], lambda_min=result[1]))
    return SweepReport(rows=tuple(rows), skipped=tuple(skipped))


def _plain(value):
    """A numpy integer grid value as a Python int; any other value as it is."""
    return int(value) if isinstance(value, np.integer) else value


def rate_accuracy_slope(rows) -> float:
    """Least-squares slope of log A versus log R over the given rows.

    Rows with R < 2 or A <= 0 are excluded; returns nan, with no
    warning, when the usable rows hold fewer than two distinct rates.
    """
    pts = [(np.log(r.R), np.log(r.A)) for r in rows if r.R >= 2.0 and r.A > 0.0]
    x = np.array([p[0] for p in pts])
    z = np.array([p[1] for p in pts])
    if np.unique(x).size < 2:
        return float("nan")
    x = x - x.mean()
    return float((x @ (z - z.mean())) / (x @ x))


def random_baseline(length: int, seed: int, n_grid, block_size: int) -> tuple[SweepReport, float]:
    """Accuracy-versus-rate baseline on seeded uniform noise.

    Returns the stride-1 amplitude-mode sweep over ``n_grid`` plus the
    least-squares slope of log A against log R over the rows with
    R >= 2.  Structured signals are judged against this reference
    curve.  Tracing the full reference trend means holding n fixed and
    growing the block: calling this once per block size and pooling the
    rows keeps each R estimate free of order effects.  A ``block_size``
    that is not a positive integer raises ValueError, as in ``sweep``,
    before any noise is made.
    """
    _integer("block_size", block_size, 1)
    noise = synthesize(
        SynthSpec(kind="uniform_noise", length=length, sample_rate=1.0, seed=seed)
    )
    report = sweep(noise, n_grid, (1,), block_size)
    return report, rate_accuracy_slope(report.rows)
