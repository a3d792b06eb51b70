"""Release gate: the documented behavioral guarantees, one test each.

Every test prints a single verdict line (visible with ``pytest -s`` or
in the captured output of a failure) and then asserts, so a run of this
module reads as a checklist.  Tolerances and runtime budgets are pinned
here and nowhere else.
"""

import struct
import time

import numpy as np
import pytest

from dynlaw.codec import (
    AMPLITUDES,
    CodecParams,
    CompressionArtifact,
    deserialize,
    random_baseline,
    rate_accuracy_slope,
    serialize,
    sweep,
)
from dynlaw.embedding import EmbeddingConfig, TimeSeries, embed
from dynlaw.errors import (
    BadMagic,
    CorruptArtifact,
    InvariantViolation,
    TruncatedPayload,
    UnsupportedVersion,
)
from dynlaw.lawforms import (
    companion_matrix,
    evaluate_model,
    roots_to_model,
    roots_to_weights,
    run_recursion,
    weights_to_roots,
)
from dynlaw.signal_io import SynthSpec, lcg_uniform, synthesize
from dynlaw.spectral import (
    LinearLaw,
    correlation,
    eigendecompose,
    extract_law,
    extract_symmetric_law,
)


def verdict(num: int, label: str, problems: list) -> None:
    state = "PASS" if not problems else "FAIL"
    print(f"criterion {num:02d} {state}  {label}")
    assert not problems, f"criterion {num:02d} ({label}): " + "; ".join(problems)


def embed_series(series: TimeSeries, n: int, stride: int = 1):
    cfg = EmbeddingConfig(n=n, stride=stride)
    dataset = embed(series, cfg)
    return dataset, correlation(dataset), cfg


def sine_series(length=600, phase=0.0):
    k = np.arange(length)
    return TimeSeries(samples=np.sin(np.pi / 3 * k + phase), sample_rate=1.0)


def two_tone_series(length=600):
    return synthesize(
        SynthSpec(
            kind="multi_sine",
            length=length,
            sample_rate=1.0,
            amplitudes=(1.0, 0.6),
            frequencies=(1.0 / 6.0, 1.0 / 10.0),
            phases=(0.2, 1.1),
        )
    )


def harmonic_series(length=2560, noise=0.01, seed=2024):
    """Five harmonics with a gentle amplitude taper plus additive noise."""
    f0 = 0.031
    tone = synthesize(
        SynthSpec(
            kind="multi_sine",
            length=length,
            sample_rate=1.0,
            amplitudes=(1.0, 0.6, 0.45, 0.3, 0.2),
            frequencies=tuple(f0 * h for h in range(1, 6)),
            phases=(0.0, 0.7, 1.9, 2.6, 0.4),
        )
    )
    if noise == 0.0:
        return tone
    rms = float(np.sqrt(np.mean(tone.samples**2)))
    rough = noise * rms * lcg_uniform(seed, length) / np.sqrt(1.0 / 3.0)
    return TimeSeries(samples=tone.samples + rough, sample_rate=1.0)


def test_criterion_01_single_sine_law():
    problems = []
    t0 = time.perf_counter()
    _, c, cfg = embed_series(sine_series(), n=2)
    law = extract_law(eigendecompose(c), cfg)
    elapsed = time.perf_counter() - t0
    target = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
    err = min(
        float(np.max(np.abs(law.weights - target))),
        float(np.max(np.abs(law.weights + target))),
    )
    if err >= 1e-6:
        problems.append(f"weights off by {err:.2e}")
    bound = 1e-10 * float(np.trace(c.entries))
    if not law.eigenvalue < bound:
        problems.append(f"lambda_min {law.eigenvalue:.2e} >= {bound:.2e}")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f} s")
    verdict(1, "single-sine law is (1,-1,1)/sqrt(3) with a null eigenvalue", problems)


def test_criterion_02_two_sine_composite_law():
    problems = []
    t0 = time.perf_counter()
    series = two_tone_series()
    _, c, cfg = embed_series(series, n=4)
    law = extract_law(eigendecompose(c), cfg)
    sym = extract_symmetric_law(c, cfg)
    elapsed = time.perf_counter() - t0
    z1 = -2.0 * np.cos(np.pi / 3.0)
    z2 = -2.0 * np.cos(np.pi / 5.0)
    target = np.array([1.0, z1 + z2, 2.0 + z1 * z2, z1 + z2, 1.0])
    target /= np.linalg.norm(target)
    err = min(
        float(np.max(np.abs(law.weights - target))),
        float(np.max(np.abs(law.weights + target))),
    )
    if err >= 1e-6:
        problems.append(f"weights off by {err:.2e}")
    if not (sym.weights[0] == sym.weights[4] and sym.weights[1] == sym.weights[3]):
        problems.append("symmetric extraction is not bit-palindromic")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f} s")
    verdict(2, "two-sine law matches the product polynomial", problems)


def test_criterion_03_variance_identity():
    problems = []
    datasets = [
        synthesize(SynthSpec(kind="uniform_noise", length=400, sample_rate=1.0, seed=s))
        for s in range(10)
    ]
    datasets += [
        sine_series(400),
        two_tone_series(400),
        synthesize(SynthSpec(kind="damped_sine", length=400, sample_rate=1.0,
                             frequencies=(0.05,), decay=0.002)),
        synthesize(SynthSpec(kind="poly_exp", length=400, sample_rate=1.0,
                             amplitudes=(2.0,), degree=2, decay=0.05)),
        harmonic_series(length=400),
    ]
    for idx, series in enumerate(datasets):
        dataset, c, _ = embed_series(series, n=4)
        spectrum = eigendecompose(c)
        trace = float(np.trace(c.entries))
        for a in range(5):
            v = spectrum.eigenvectors[:, a]
            xi = dataset.rows @ v
            msq = float(xi @ xi) / dataset.rows.shape[0]
            lam = float(spectrum.eigenvalues[a])
            if abs(msq - lam) > 1e-9 * abs(lam) + 1e-14 * trace:
                problems.append(
                    f"dataset {idx} pair {a}: msq {msq:.3e} vs lambda {lam:.3e}"
                )
    verdict(3, "mean-square residual equals the eigenvalue for every pair", problems)


def random_conjugate_roots(rng, pairs, real_count):
    roots = []
    for _ in range(pairs):
        r = rng.uniform(0.9, 1.1)
        theta = rng.uniform(0.3, 2.8)
        roots.extend([r * np.exp(1j * theta), r * np.exp(-1j * theta)])
    for _ in range(real_count):
        roots.append(complex(rng.choice([-1, 1]) * rng.uniform(0.9, 1.1)))
    return np.array(roots)


def test_criterion_04_representation_round_trips():
    problems = []
    rng = np.random.default_rng(41)
    for trial in range(25):
        degree = int(rng.integers(2, 9))
        half = rng.standard_normal(degree // 2 + 1)
        w = np.concatenate([half, half[: (degree + 1) // 2][::-1]])
        w[0] += np.sign(w[0]) + (w[0] == 0)  # keep the ends solidly nonzero
        w[-1] = w[0]
        roots = weights_to_roots(w)
        back = roots_to_weights(roots, float(w[-1]))
        err = float(np.max(np.abs(back - w))) / float(np.max(np.abs(w)))
        if err >= 1e-8:
            problems.append(f"trial {trial} degree {degree}: round trip off {err:.2e}")
    for trial in range(20):
        roots = random_conjugate_roots(rng, pairs=int(rng.integers(1, 3)), real_count=1)
        n = roots.size
        amps = []
        for z in roots:
            if z.imag > 0:
                amps.append(complex(rng.standard_normal(), rng.standard_normal()))
            elif z.imag < 0:
                amps.append(0j)  # filled by conjugate pairing
            else:
                amps.append(complex(rng.standard_normal()))
        model = roots_to_model(roots, np.array(amps), dt=1.0)
        sampled = np.array([evaluate_model(model, float(k)) for k in range(50)])
        w = roots_to_weights(roots, 1.0)
        w = w / np.linalg.norm(w)
        law = LinearLaw(weights=w, eigenvalue=0.0)
        replay = run_recursion(law, sampled[:n], 50)
        err = float(np.max(np.abs(replay - sampled)))
        if err >= 1e-8 * max(1.0, float(np.max(np.abs(sampled)))):
            problems.append(f"trial {trial}: recursion vs model off {err:.2e}")
    verdict(4, "weights/roots/recursion/model stay mutually consistent", problems)


def test_criterion_05_companion_matrix():
    problems = []
    laws = []
    # the eigen-identity routes through P(1/q), so it needs root sets
    # closed under inversion; symmetric extraction pins that bit-exactly
    for series, n in ((sine_series(), 2), (two_tone_series(), 4),
                      (harmonic_series(length=800, noise=0.0), 10)):
        _, c, cfg = embed_series(series, n=n)
        laws.append(extract_symmetric_law(c, cfg).weights)
    rng = np.random.default_rng(17)
    for _ in range(10):
        roots = random_conjugate_roots(rng, pairs=int(rng.integers(1, 4)), real_count=0)
        inv = np.concatenate([roots, 1.0 / roots])  # inversion-closed multiset
        laws.append(roots_to_weights(inv, 1.0))
    for idx, w in enumerate(laws):
        m = companion_matrix(w)
        n = w.size - 1
        for q in weights_to_roots(np.asarray(w, dtype=float)).roots:
            v = q ** np.arange(n - 1, -1, -1)
            gap = float(np.max(np.abs(m @ v - q * v)))
            if gap >= 1e-8:
                problems.append(f"law {idx}, root {q:.4f}: |Mv - qv| = {gap:.2e}")
    fib = np.array([1.0, -1.0, -1.0]) / np.sqrt(3.0)
    m = companion_matrix(fib)
    state = np.array([8.0, 5.0])  # consecutive Fibonacci numbers, newest first
    stepped = m @ state
    law = LinearLaw(weights=fib, eigenvalue=0.0)
    if not np.array_equal(stepped, np.array([13.0, 8.0])):
        problems.append("matrix step disagrees with the recursion")
    if run_recursion(law, [5.0, 8.0], 3)[2] != stepped[0]:
        problems.append("recursion output differs from M @ state")
    verdict(5, "companion matrix has the roots as eigenvalues and steps states",
            problems)


def test_criterion_06_exact_class_compression():
    problems = []
    t0 = time.perf_counter()
    freqs = (1.0 / 6.0, 1.0 / 10.0, 0.137)
    for R in (1, 2, 5, 10, 20, 40):
        block = 12 * R
        series = synthesize(
            SynthSpec(kind="multi_sine", length=max(4 * block, 480), sample_rate=1.0,
                      amplitudes=(1.0, 0.7, 0.4), frequencies=freqs,
                      phases=(0.1, 0.9, 2.0))
        )
        report = sweep(series, (6,), (1,), block)
        if not report.rows:
            problems.append(f"R={R}: {report.skipped}")
            continue
        row = report.rows[0]
        if row.R != float(R):
            problems.append(f"R={R}: row reports R={row.R}")
        if not row.A >= 0.999:
            problems.append(f"R={R}: A={row.A:.6f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f} s")
    verdict(6, "noiseless three-tone signal compresses at A >= 0.999 up to R=40",
            problems)


def test_criterion_07_rate_one_losslessness():
    problems = []
    signals = {
        "noise seed 0": synthesize(SynthSpec(kind="uniform_noise", length=512,
                                             sample_rate=1.0, seed=0)),
        "noise seed 1": synthesize(SynthSpec(kind="uniform_noise", length=512,
                                             sample_rate=1.0, seed=1)),
        "noise seed 2": synthesize(SynthSpec(kind="uniform_noise", length=512,
                                             sample_rate=1.0, seed=2)),
        "two tones": two_tone_series(512),
        "damped sine": synthesize(SynthSpec(kind="damped_sine", length=512,
                                            sample_rate=1.0, frequencies=(0.05,),
                                            decay=0.002)),
        "noisy harmonics": harmonic_series(),
    }
    for name, series in signals.items():
        report = sweep(series, (8,), (1,), 16)
        row = report.rows[0]
        if row.R != 1.0:
            problems.append(f"{name}: R={row.R}")
        if not row.A >= 1.0 - 1e-6:
            problems.append(f"{name}: A={row.A!r}")
    verdict(7, "every signal class is near-lossless at R=1", problems)


def test_criterion_08_noise_baseline_slope():
    problems = []
    t0 = time.perf_counter()
    slopes = []
    for seed in range(10):
        rows = []
        for R in (2, 4, 8, 16, 32, 40):
            block = 8 * R
            report, _ = random_baseline(
                max(1280, 4 * block), seed, n_grid=(4,), block_size=block
            )
            rows.extend(report.rows)
        slopes.append(rate_accuracy_slope(rows))
    median = float(np.median(slopes))
    elapsed = time.perf_counter() - t0
    if not -1.8 <= median <= -1.2:
        problems.append(f"median slope {median:.3f} outside [-1.8, -1.2]")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f} s")
    verdict(8, f"noise accuracy falls as R^{median:.2f} (target ~ R^-1.5)", problems)


def test_criterion_09_noisy_harmonics_stand_in():
    problems = []
    series = harmonic_series()
    report = sweep(series, (16, 32), (1, 2), 640)
    high_rate = [row for row in report.rows if row.R >= 10.0]
    if not high_rate:
        problems.append("no grid point reaches R >= 10")
    else:
        best = max(high_rate, key=lambda row: row.A)
        if not best.A >= 0.9:
            problems.append(
                f"best A at R >= 10 is {best.A:.4f} (n={best.n}, stride={best.stride})"
            )
    lossless = sweep(series, (8,), (1,), 16).rows[0]
    if not (lossless.R <= 1.5 and lossless.A >= 0.999):
        problems.append(f"near-lossless point R={lossless.R} A={lossless.A!r}")
    verdict(9, "noisy harmonic tone: A >= 0.9 at R >= 10 and ~1 at R <= 1.5",
            problems)


def test_criterion_10_time_reversal_symmetry():
    problems = []
    _, c, cfg = embed_series(two_tone_series(), n=4)
    sym = extract_symmetric_law(c, cfg)
    w = sym.weights
    if not all(w[i] == w[4 - i] for i in range(5)):
        problems.append("symmetric law is not bit-palindromic")
    law = LinearLaw(weights=np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0), eigenvalue=0.0)
    forward = np.sin(np.pi / 3 * np.arange(100) + 0.3)
    reversed_seq = forward[::-1]
    replay = run_recursion(law, reversed_seq[:2], 100)
    err = float(np.max(np.abs(replay - reversed_seq)))
    if err >= 1e-9:
        problems.append(f"backward replay off by {err:.2e}")
    verdict(10, "palindromic laws run the dynamics backward unchanged", problems)


def test_criterion_11_scaling_symmetry():
    problems = []
    base = harmonic_series(length=600)
    scaled = TimeSeries(samples=1e3 * base.samples, sample_rate=1.0)
    _, c1, cfg = embed_series(base, n=4)
    _, c2, _ = embed_series(scaled, n=4)
    s1, s2 = eigendecompose(c1), eigendecompose(c2)
    lam1, lam2 = s1.eigenvalues, s2.eigenvalues
    rel = np.max(np.abs(lam2 - 1e6 * lam1) / np.maximum(1e6 * np.abs(lam1), 1e-300))
    if not rel < 1e-6:
        problems.append(f"eigenvalues scale off by {rel:.2e} relative")
    w1 = extract_law(s1, cfg).weights
    w2 = extract_law(s2, cfg).weights
    gap = min(float(np.max(np.abs(w1 - w2))), float(np.max(np.abs(w1 + w2))))
    if not gap < 1e-9:
        problems.append(f"weights moved by {gap:.2e}")
    verdict(11, "scaling input by 1e3 scales eigenvalues by 1e6, laws fixed",
            problems)


def _random_artifact(rng) -> CompressionArtifact:
    n = int(rng.integers(1, 9))
    stride = int(rng.integers(1, 4))
    block = max(2 * n, stride * n + 1) + int(rng.integers(0, 17))
    symmetric = bool(rng.integers(0, 2))
    mode = AMPLITUDES if rng.integers(0, 2) else "initial_conditions"
    params = CodecParams(order_n=n, block_size=block, stride=stride,
                         fit_mode=mode, symmetric=symmetric)
    weights, payload = [], []
    for _ in range(int(rng.integers(0, 4))):
        if symmetric:
            half = rng.standard_normal(n // 2 + 1)
            w = np.array([half[min(i, n - i)] for i in range(n + 1)])
        else:
            w = rng.standard_normal(n + 1)
        weights.append(w / np.linalg.norm(w))
        payload.append(rng.standard_normal(n))
    tail = rng.standard_normal(int(rng.integers(0, 6)))
    return CompressionArtifact(
        params=params,
        sample_rate=int(rng.integers(1, 50000)),
        weights=np.reshape(weights, (-1, n + 1)),
        payload=np.reshape(payload, (-1, n)),
        tail=tail,
    )


def test_criterion_12_artifact_format():
    problems = []
    rng = np.random.default_rng(123)
    for trial in range(100):
        art = _random_artifact(rng)
        data = serialize(art)
        back = deserialize(data)
        same = (
            back.params == art.params
            and back.sample_rate == art.sample_rate
            and len(back.weights) == len(art.weights)
            and np.array_equal(back.weights, art.weights)
            and np.array_equal(back.payload, art.payload)
            and np.array_equal(back.tail, art.tail)
        )
        if not same or serialize(back) != data:
            problems.append(f"trial {trial}: round trip not bit-exact")
            break
    sample = serialize(_random_artifact(rng))

    def expect(exc, mutate):
        buf = bytearray(sample)
        mutate(buf)
        try:
            deserialize(bytes(buf))
        except exc:
            return
        except CorruptArtifact as other:
            problems.append(f"{exc.__name__} expected, got {type(other).__name__}")
        else:
            problems.append(f"{exc.__name__} expected, nothing raised")

    expect(BadMagic, lambda b: b.__setitem__(slice(0, 4), b"JUNK"))
    expect(UnsupportedVersion, lambda b: struct.pack_into("<H", b, 4, 9))
    expect(InvariantViolation, lambda b: struct.pack_into("<H", b, 6, 0x10))
    expect(InvariantViolation, lambda b: struct.pack_into("<I", b, 28, 5))
    expect(InvariantViolation, lambda b: struct.pack_into("<H", b, 16, 0))
    expect(TruncatedPayload, lambda b: b.__delitem__(slice(len(b) - 2, len(b))))
    expect(InvariantViolation, lambda b: b.extend(b"xx"))
    verdict(12, "byte format round-trips bit-exactly and rejects corruption",
            problems)
