"""Seeded workloads of the dynlaw benchmark and the loop that measures them.

One caller runs one workload in one process, closed loop: each call
starts when the previous one has returned.  A run builds its corpus
from the seed ``SETUP_REPEATS`` times (``setup_s`` is the median of
program import plus corpus build), then passes over the corpus until
``seconds`` have elapsed, finishing at least one whole pass.  Quality
figures (accuracy, bits per sample) come from the first pass;
throughput covers every call.  Later passes must reproduce the first
pass's bytes exactly.

Every workload is built so that no operation fails on the code the
benchmark was written against: a failed call would make throughput
measure error paths and vary with how many clips happen to fail.  The
inputs on which the codec fails today are reproduced, as data, by
``probe_defects.py``.

Workloads:

``stream-n2``
    1-second 8 kHz damped tones (random frequency and phase, decay
    0.5 to 2 per second) with LCG noise at no noise / 40 dB / 30 dB
    SNR, stored as 16-bit WAV and run through ``dynlaw compress --n 2
    --block 64`` and ``dynlaw decompress`` via ``dynlaw.cli.run``;
    clips alternate ``--mode amp`` and ``--mode ic``.  125 blocks per
    clip make the per-block overhead the cost.  Faster decay or more
    noise leaves late blocks near the noise floor, where IC mode
    sometimes raises.
``highorder``
    Multi-tone clips at (n, block) = (16, 256) and (32, 1024) in both
    fit modes, through the library.  Each clip holds n/2 tones (exact
    order), one in each of n/2 equal bands of 100 to 3800 Hz, so no
    two tones crowd each other.  Over-ordered clips and crowded tones
    make the codec raise today.  Clips are short (2048 samples) to
    fit many of them in a run.
``analysis``
    ``sweep`` over n in {2,4,6} x stride in {1,2} at block 128 on a
    3-tone clip (one tone in each third of 100 to 1900 Hz, below the
    stride-2 lattice Nyquist), plus ``random_baseline`` on seeded noise
    for n in {2,4,6,8} at block 64: the float64 measurement path.
    Clips are short (2048 samples) so that a run holds many calls.
    Points are skipped today at n = 8 on 3 tones, and where a law has
    a root so small that its mode basis overflows within the block:
    on noise at block 256, and now and then under-ordered at stride 2
    and block 256.  Shorter blocks push that limit far out.

The two throughput metrics name both meanings they carry: encode and
decode on the codec workloads, sweep and random_baseline on
``analysis``.  Encode counts the samples of clips that encoded over the
time of every attempt, failed ones included.  Decode weights each
(order, fit mode) stratum equally (``_stratified_rate``).

Times are reported in reference seconds.  A shared host slows this
process by up to 2x for seconds at a time, and the slowdown hits
interpreter-bound code and the small-array numpy work the codec does
alike.  So after every timed call the benchmark times a fixed kernel of
the same kind of work (``_kernel``); a call's wall time is scaled by
``KERNEL_REF_S`` over the time-weighted mean kernel time, which is the
time the call would take at the speed the kernel has on an uncontended
core of the reference host (2-core x86-64 VM, Python 3.11, numpy 2.4).
The raw wall figures and the speed factor are printed beside them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import resource
import statistics
import struct
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from dynlaw import cli, codec, signal_io
from dynlaw.codec import CodecParams
from dynlaw.embedding import TimeSeries
from dynlaw.signal_io import SynthSpec

from tracing import ENTRY_POINTS, LAYER_FUNCTIONS, SPLIT_FUNCTIONS, Tracer

SAMPLE_RATE = 8000.0
SETUP_REPEATS = 11

ENCODE = "encode_or_sweep_samples_per_s"
DECODE = "decode_or_baseline_samples_per_s"

# name -> (unit, better); the order is the print order
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    ENCODE: ("samples/s", "higher"),
    DECODE: ("samples/s", "higher"),
    "accuracy_A": ("ratio", "higher"),
    "bits_per_sample": ("bits/sample", "lower"),
}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better), in print order."""
    spec = {}
    for module_name, func_name in LAYER_FUNCTIONS:
        name = f"{module_name}.{func_name}"
        spec[f"{name}.calls"] = ("count", "lower")
        spec[f"{name}.self_s"] = ("s", "lower")
        spec[f"{name}.failed"] = ("count", "lower")
        if name in SPLIT_FUNCTIONS:
            for entry in ENTRY_POINTS:
                spec[f"{name}.self_s.{entry}"] = ("s", "lower")
    spec["embedding.embed.rows"] = ("count", "lower")
    spec["lawforms.run_recursion.samples"] = ("count", "lower")
    spec["cli.run.exit_nonzero"] = ("count", "lower")
    spec["codec.blocks"] = ("count", "higher")
    spec["codec.useful_block_share"] = ("ratio", "higher")
    spec["codec.compress.clip_ms_p50"] = ("ms", "lower")
    spec["codec.compress.clip_ms_tail"] = ("ms", "lower")
    spec["codec.compress.clip_tail_pct"] = ("%", "higher")
    spec["codec.compress.clip_count"] = ("count", "higher")
    spec["trace.overhead_share"] = ("ratio", "lower")
    spec["trace.unattributed_share"] = ("ratio", "lower")
    spec["trace.absent_names"] = ("count", "lower")
    return spec


# -- timing ---------------------------------------------------------------------


KERNEL_REF_S = 1.0e-3


def _kernel() -> float:
    """Seconds taken by a fixed slice of loop-and-small-array work."""
    a = np.eye(6)
    v = np.ones(6)
    acc = 0.0
    t0 = perf_counter()
    for i in range(400):
        col = a[:, i % 6].copy()
        a[:, (i + 1) % 6] = 0.5 * col + v
        acc += float(col @ v)
    return perf_counter() - t0


def step_kernel_s() -> float:
    """Kernel seconds right after one set-up step: the median of five runs."""
    return statistics.median(_kernel() for _ in range(5))


@dataclass
class Clock:
    """Wall time of timed calls and the samples they delivered, with the
    kernel time sampled after each call."""

    wall_s: float = 0.0
    weighted_kernel: float = 0.0
    samples: int = 0

    def add(self, elapsed: float, samples: int) -> None:
        self.wall_s += elapsed
        self.weighted_kernel += elapsed * _kernel()
        self.samples += samples

    @property
    def reference_s(self) -> float:
        """Wall time times the reference kernel time over the
        time-weighted mean kernel time."""
        return self.wall_s * _ratio(KERNEL_REF_S * self.wall_s, self.weighted_kernel)


def _stratified_rate(clocks: dict, seconds) -> float:
    """Samples per second with each stratum weighted equally: the inverse
    of the mean over strata of ``seconds(clock)`` per sample.  Decode
    cost differs several-fold between fit modes and orders, so weighting
    by which clips happened to encode would move the figure by seed."""
    per_sample = [seconds(c) / c.samples for c in clocks.values() if c.samples]
    return _ratio(len(per_sample), sum(per_sample))


# -- measurement state --------------------------------------------------------


@dataclass
class Tally:
    """What one pass loop observed."""

    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    violations: list = field(default_factory=list)
    encode: Clock = field(default_factory=Clock)
    decode: defaultdict = field(default_factory=lambda: defaultdict(Clock))
    # first pass only
    energy: float = 0.0
    weighted_a: float = 0.0
    stored_bits: float = 0.0
    stored_samples: int = 0
    digests: dict = field(default_factory=dict)

    def fail(self, kind: str, count: int = 1) -> None:
        self.failed += count
        self.failures[kind] += count

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.violations) < 20:
            self.violations.append(message)

    def same_as_first(self, key, digest: str, first: bool) -> None:
        if first:
            self.digests[key] = digest
        else:
            self.check(self.digests.get(key) == digest, f"{key}: output differs between passes")


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _energy_accuracy(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    energy = float(x @ x)
    return energy, 1.0 - float(np.linalg.norm(x - y)) / math.sqrt(energy)


def _pcm16(data: bytes) -> np.ndarray:
    """Samples of a canonical mono 16-bit WAV (44-byte header), as read_wav scales them."""
    if data[:4] != b"RIFF" or data[36:40] != b"data":
        raise ValueError("not a canonical 16-bit WAV")
    (size,) = struct.unpack("<I", data[40:44])
    return np.frombuffer(data, dtype="<i2", count=size // 2, offset=44) / 32768.0


# -- stream-n2 -----------------------------------------------------------------


@dataclass
class StreamClip:
    ident: int
    mode: str
    wav: str
    dlaw: str
    out: str
    samples: np.ndarray


class StreamN2:
    """Tiny blocks through the command line, WAV in and out."""

    count = 96
    length = 8000
    snr_db = (None, 40.0, 30.0)

    def build(self, seed: int, count: int, workdir: Path) -> list:
        rng = np.random.default_rng([seed, 1])
        clips = []
        for i in range(count):
            spec = SynthSpec(
                kind="damped_sine", length=self.length, sample_rate=SAMPLE_RATE,
                amplitudes=(0.7,), frequencies=(rng.uniform(100.0, 3500.0),),
                phases=(rng.uniform(0.0, 2 * np.pi),), decay=rng.uniform(0.5, 2.0),
            )
            y = signal_io.synthesize(spec).samples
            noise_seed = int(rng.integers(2**63))
            snr = self.snr_db[i % len(self.snr_db)]
            if snr is not None:
                noise = signal_io.synthesize(
                    SynthSpec(kind="uniform_noise", length=self.length, seed=noise_seed)
                ).samples
                # uniform noise on [-1, 1) has rms 1/sqrt(3)
                rms = math.sqrt(float(y @ y) / y.size)
                y = y + noise * (rms * 10.0 ** (-snr / 20.0) * math.sqrt(3.0))
            data = signal_io.write_wav(TimeSeries(samples=y, sample_rate=SAMPLE_RATE))
            stem = workdir / f"stream-{i}"
            Path(f"{stem}.wav").write_bytes(data)
            clips.append(StreamClip(i, ("amp", "ic")[i % 2], f"{stem}.wav", f"{stem}.dlaw",
                                    f"{stem}.out.wav", _pcm16(data)))
        return clips

    def attempt(self, clip: StreamClip, tally: Tally, first: bool, tracer) -> None:
        x = clip.samples
        _count_clip(tally, x, first)
        ok = _cli(["compress", "--input", clip.wav, "--output", clip.dlaw, "--n", "2",
                   "--block", "64", "--mode", clip.mode], tally, tally.encode, x.size, clip.ident)
        if not ok:
            return
        ok = _cli(["decompress", "--input", clip.dlaw, "--output", clip.out],
                  tally, tally.decode[clip.mode], x.size, clip.ident)
        if not ok:
            return
        stored = Path(clip.dlaw).read_bytes()
        decoded_wav = Path(clip.out).read_bytes()
        try:
            decoded = _pcm16(decoded_wav)
        except ValueError as exc:
            tally.check(False, f"clip {clip.ident}: {exc}")
            return
        tally.check(decoded.size == x.size, f"clip {clip.ident}: decoded {decoded.size} of {x.size} samples")
        tally.same_as_first(clip.ident, _digest(stored, decoded_wav), first)
        if first and decoded.size == x.size:
            _record_quality(tally, x, decoded, len(stored))


def _cli(argv: list, tally: Tally, clock: Clock, samples: int, ident: int) -> bool:
    """One timed ``dynlaw`` command; True when it exited 0."""
    sink = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stderr(sink):
            code = cli.run(argv)
    except Exception as exc:  # a real process would die with a traceback here
        clock.add(perf_counter() - t0, 0)
        tally.fail(type(exc).__name__)
        tally.check(False, f"clip {ident}: {argv[0]} raised {type(exc).__name__} instead of exiting")
        return False
    clock.add(perf_counter() - t0, samples if code == 0 else 0)
    tally.check(code in (0, 3), f"clip {ident}: {argv[0]} exit code {code}")
    if code != 0:
        tally.fail(f"{argv[0]} exit {code}")
    return code == 0


def _count_clip(tally: Tally, x: np.ndarray, first: bool) -> None:
    """Weigh a first-pass clip in before trying it: a failed clip then
    counts as silence, accuracy 0."""
    tally.attempted += 1
    if first:
        tally.energy += float(x @ x)


def _record_quality(tally: Tally, x: np.ndarray, decoded: np.ndarray, nbytes: int) -> None:
    energy, a = _energy_accuracy(x, decoded)
    tally.weighted_a += energy * a
    tally.stored_bits += 8.0 * nbytes
    tally.stored_samples += x.size


# -- highorder -----------------------------------------------------------------


@dataclass
class LibraryClip:
    ident: int
    series: TimeSeries
    params: CodecParams


class HighOrder:
    """Large orders through the library: Jacobi-bound."""

    count = 64
    length = 2048
    configs = ((16, 256), (32, 1024))
    modes = (codec.AMPLITUDES, codec.INITIAL_CONDITIONS)

    def build(self, seed: int, count: int, workdir: Path) -> list:
        rng = np.random.default_rng([seed, 2])
        clips = []
        for i in range(count):
            n, block = self.configs[i % 2]
            mode = self.modes[(i // 2) % 2]
            tones = n // 2
            spec = SynthSpec(
                kind="multi_sine", length=self.length, sample_rate=SAMPLE_RATE,
                amplitudes=tuple(rng.uniform(0.5, 1.0, tones)),
                frequencies=_banded(rng, 100.0, 3800.0, tones),
                phases=tuple(rng.uniform(0.0, 2 * np.pi, tones)),
            )
            y = signal_io.synthesize(spec).samples
            # equal energy per clip, so the energy-weighted A is a clip mean
            y = y * (0.25 / math.sqrt(float(y @ y) / y.size))
            clips.append(LibraryClip(
                i, TimeSeries(samples=y, sample_rate=SAMPLE_RATE),
                CodecParams(order_n=n, block_size=block, fit_mode=mode),
            ))
        return clips

    def attempt(self, clip: LibraryClip, tally: Tally, first: bool, tracer) -> None:
        x = clip.series.samples
        _count_clip(tally, x, first)
        t0 = perf_counter()
        try:
            artifact = codec.compress(clip.series, clip.params)
            stored = codec.serialize(artifact)
        except Exception as exc:  # any failure on a clip is that clip's failure
            tally.encode.add(perf_counter() - t0, 0)
            tally.fail(type(exc).__name__)
            return
        tally.encode.add(perf_counter() - t0, x.size)
        clock = tally.decode[f"n{clip.params.order_n}-{clip.params.fit_mode}"]
        t0 = perf_counter()
        try:
            decoded = codec.decompress(codec.deserialize(stored)).samples
        except Exception as exc:
            clock.add(perf_counter() - t0, 0)
            tally.fail(type(exc).__name__)
            return
        clock.add(perf_counter() - t0, x.size)
        with _paused(tracer):
            direct = codec.decompress(artifact).samples
        tally.check(decoded.size == x.size, f"clip {clip.ident}: decoded {decoded.size} of {x.size} samples")
        tally.check(bool(np.all(np.isfinite(decoded))), f"clip {clip.ident}: non-finite decode")
        tally.check(decoded.tobytes() == direct.tobytes(),
                    f"clip {clip.ident}: file decode differs from in-memory decode")
        tally.same_as_first(clip.ident, _digest(stored, decoded.tobytes()), first)
        if first and decoded.size == x.size:
            _record_quality(tally, x, decoded, len(stored))


def _banded(rng, low: float, high: float, tones: int) -> tuple:
    """One frequency in the middle half of each of ``tones`` equal bands."""
    edges = np.linspace(low, high, tones + 1)
    return tuple(edges[:-1] + (edges[1] - edges[0]) * rng.uniform(0.25, 0.75, tones))


@contextlib.contextmanager
def _paused(tracer):
    """Run checks that call the program without recording spans."""
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


# -- analysis ------------------------------------------------------------------


@dataclass
class AnalysisUnit:
    ident: int
    series: TimeSeries
    noise_seed: int


class Analysis:
    """The float64 measurement path: sweep grid plus noise baseline."""

    count = 36
    length = 2048
    block = 128
    n_grid = (2, 4, 6)
    stride_grid = (1, 2)
    baseline_block = 64
    baseline_n_grid = (2, 4, 6, 8)

    def build(self, seed: int, count: int, workdir: Path) -> list:
        rng = np.random.default_rng([seed, 3])
        units = []
        for i in range(count):
            spec = SynthSpec(
                kind="multi_sine", length=self.length, sample_rate=SAMPLE_RATE,
                amplitudes=tuple(rng.uniform(0.3, 0.6, 3)),
                frequencies=_banded(rng, 100.0, 1900.0, 3),
                phases=tuple(rng.uniform(0.0, 2 * np.pi, 3)),
            )
            units.append(AnalysisUnit(i, signal_io.synthesize(spec), int(rng.integers(2**62))))
        return units

    @staticmethod
    def _feasible(n_grid, strides, block) -> set:
        return {(n, s) for n in n_grid for s in strides if block >= 2 * n and s * n < block}

    def _timed(self, unit, tally, call, feasible, label):
        tally.attempted += len(feasible)
        t0 = perf_counter()
        try:
            report = call()
        except Exception as exc:
            elapsed = perf_counter() - t0
            tally.fail(type(exc).__name__, len(feasible))
            return elapsed, feasible, None
        elapsed = perf_counter() - t0
        seen = [(r.n, r.stride) for r in report.rows] + [(s[0], s[1]) for s in report.skipped]
        tally.check(sorted(seen) == sorted(feasible),
                    f"{label} {unit.ident}: grid points {sorted(seen)} != {sorted(feasible)}")
        for r in report.rows:
            tally.check(math.isfinite(r.A) and r.A <= 1.0, f"{label} {unit.ident}: row A = {r.A!r}")
        for _, _, reason in report.skipped:
            tally.fail(reason.split(":", 1)[0])
        return elapsed, feasible, report

    def attempt(self, unit: AnalysisUnit, tally: Tally, first: bool, tracer) -> None:
        samples = unit.series.samples.size
        elapsed, feasible, report = self._timed(
            unit, tally,
            lambda: codec.sweep(unit.series, self.n_grid, self.stride_grid, self.block),
            self._feasible(self.n_grid, self.stride_grid, self.block), "sweep",
        )
        tally.encode.add(elapsed, samples * len(feasible))
        rows = report.rows if report is not None else ()
        elapsed_b, feasible_b, report_b = self._timed(
            unit, tally,
            lambda: codec.random_baseline(self.length, unit.noise_seed, self.baseline_n_grid,
                                          self.baseline_block)[0],
            self._feasible(self.baseline_n_grid, (1,), self.baseline_block), "baseline",
        )
        tally.decode["baseline"].add(elapsed_b, self.length * len(feasible_b))
        rows_b = report_b.rows if report_b is not None else ()
        tally.same_as_first(unit.ident, _digest(repr(rows).encode(), repr(rows_b).encode()), first)
        if first:
            # mean sweep row A, a skipped point counting as 0
            tally.weighted_a += sum(r.A for r in rows)
            tally.energy += len(feasible)
            # nominal: 2n 32-bit reals per block of 2R samples
            tally.stored_bits += sum(32.0 / r.R for r in rows + rows_b)
            tally.stored_samples += len(rows) + len(rows_b)


WORKLOADS = {"stream-n2": StreamN2(), "highorder": HighOrder(), "analysis": Analysis()}


# -- the run ---------------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    failures: dict
    violations: list
    layers: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    tracer: Tracer | None = None


def _passes(wl, corpus, seconds: float, tracer: Tracer | None) -> tuple[Tally, Tally | None]:
    """Pass over the corpus until ``seconds`` elapse; one whole pass at least.

    With a tracer, each item also runs untraced right before or after
    its traced run (the order alternates), into a reference tally that
    gives the tracing overhead and must match the traced outputs.
    """
    tally = Tally()
    reference = Tally() if tracer is not None else None
    start = perf_counter()
    passes = 0
    while True:
        first = passes == 0
        for item in corpus:
            if tracer is None:
                wl.attempt(item, tally, first, None)
            else:
                tracer.clip = item.ident
                for traced in ((True, False) if item.ident % 2 else (False, True)):
                    if traced:
                        tracer.install()
                        wl.attempt(item, tally, first, tracer)
                        tracer.uninstall()
                    else:
                        wl.attempt(item, reference, first, None)
            if not first and perf_counter() - start >= seconds:
                break
        passes += 1
        if perf_counter() - start >= seconds:
            break
    if reference is not None:
        tally.check(tally.digests == reference.digests, "traced outputs differ from untraced ones")
    return tally, reference


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _tail(values: list[float]) -> tuple[float, float, int]:
    """Median, the highest percentile with at least 10 values beyond it, and that percentile."""
    if not values:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    n = len(ordered)
    pct = max(50, math.floor(100 * (n - 10) / n)) if n >= 20 else 50
    index = min(n - 1, max(0, math.ceil(pct / 100 * n) - 1))
    return statistics.median(ordered), ordered[index], pct


def _wall_s(tally: Tally) -> float:
    return tally.encode.wall_s + sum(c.wall_s for c in tally.decode.values())


def _reference_s(tally: Tally) -> float:
    return tally.encode.reference_s + sum(c.reference_s for c in tally.decode.values())


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        import_times=((0.0, KERNEL_REF_S),) * SETUP_REPEATS, count: int | None = None,
        functions=LAYER_FUNCTIONS) -> RunResult:
    """Build the workload's corpus from ``seed`` and measure it.

    ``import_times`` holds one (program import seconds, kernel seconds
    after it) pair per set-up repeat.  A repeat's set-up time is that
    import plus the corpus build, scaled to reference seconds by the
    mean of the kernel times taken right after each of the two steps;
    ``setup_s`` is the median over repeats.
    """
    wl = WORKLOADS[name]
    count = wl.count if count is None else count
    tracer = Tracer(functions) if trace else None
    builds = []
    if tracer is not None:
        tracer.install()
        tracer.category = "setup"
    _kernel()  # the first run pays for warming numpy's code paths
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        corpus = wl.build(seed, count, workdir)
        builds.append((perf_counter() - t0, step_kernel_s()))
    if tracer is not None:
        tracer.uninstall()
        tracer.category = "other"
    tally, reference = _passes(wl, corpus, seconds, tracer)
    result = RunResult(
        correct=not tally.violations,
        attempted=tally.attempted,
        failed=tally.failed,
        metrics={},
        failures=dict(tally.failures),
        violations=list(tally.violations),
        digests=dict(tally.digests),
        tracer=tracer,
    )
    result.raw = {
        "setup_wall_s": statistics.median(i + b for (i, _), (b, _) in zip(import_times, builds)),
        "encode_or_sweep_wall_samples_per_s": _ratio(tally.encode.samples, tally.encode.wall_s),
        "decode_or_baseline_wall_samples_per_s": _stratified_rate(tally.decode, lambda c: c.wall_s),
        "speed_factor": _ratio(_reference_s(tally), _wall_s(tally)),
    }
    if tracer is None:
        values = {
            "setup_s": statistics.median((i + b) * KERNEL_REF_S * 2.0 / (ki + kb)
                                         for (i, ki), (b, kb) in zip(import_times, builds)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            ENCODE: _ratio(tally.encode.samples, tally.encode.reference_s),
            DECODE: _stratified_rate(tally.decode, lambda c: c.reference_s),
            "accuracy_A": _ratio(tally.weighted_a, tally.energy),
            "bits_per_sample": _ratio(tally.stored_bits, tally.stored_samples),
        }
        result.metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in END_TO_END.items()}
    else:
        result.metrics = _layer_metrics(tracer, tally, reference)
        result.layers = tracer.summary()
    return result


def _layer_metrics(tracer: Tracer, tally: Tally, reference: Tally) -> dict:
    values = {}
    for module_name, func_name in LAYER_FUNCTIONS:
        name = f"{module_name}.{func_name}"
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.self_s"] = tracer.function_self(name)
        values[f"{name}.failed"] = sum(tracer.failed[name].values())
        if name in SPLIT_FUNCTIONS:
            for entry in ENTRY_POINTS:
                values[f"{name}.self_s.{entry}"] = tracer.function_self(name, entry)
    values["embedding.embed.rows"] = tracer.counts["embedding.embed"]["rows"]
    values["lawforms.run_recursion.samples"] = tracer.counts["lawforms.run_recursion"]["samples"]
    values["cli.run.exit_nonzero"] = tracer.counts["cli.run"]["exit_nonzero"]
    values["codec.blocks"] = tracer.blocks_fitted
    values["codec.useful_block_share"] = _ratio(tracer.blocks_useful, tracer.blocks_fitted)
    p50, tail, pct = _tail(tracer.compress_durations_ms())
    values["codec.compress.clip_ms_p50"] = p50
    values["codec.compress.clip_ms_tail"] = tail
    values["codec.compress.clip_tail_pct"] = pct
    values["codec.compress.clip_count"] = len(tracer.compress_durations_ms())
    traced = _reference_s(tally)
    values["trace.overhead_share"] = _ratio(traced - _reference_s(reference), traced)
    traced_wall = _wall_s(tally)
    values["trace.unattributed_share"] = _ratio(traced_wall - tracer.self_total(), traced_wall)
    values["trace.absent_names"] = len(tracer.absent)
    return {k: {"value": values[k], "unit": unit} for k, (unit, _) in per_layer_spec().items()}


def environment(blas_thread_vars) -> dict:
    """Interpreter, numpy and BLAS versions, BLAS thread setting, cores, threads."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    task_dir = Path("/proc/self/task")
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in blas_thread_vars},
        "nproc": cores,
        "os_threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
    }

