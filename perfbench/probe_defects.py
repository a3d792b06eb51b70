"""Probe of the inputs on which the codec fails today, kept out of the timed workloads.

Usage, from the root of a checkout::

    python3 perfbench/probe_defects.py [--seed N]

The timed workloads are built so that no operation fails; this probe
runs the neighbouring inputs that do fail and prints, as one JSON
object, what happens on each:

``highorder``
    2048-sample multi-tone clips at (n, block) = (16, 256) and
    (32, 1024) in both fit modes, tone frequencies drawn freely from
    100 to 3800 Hz (so tones may crowd), half at exact order (n/2
    tones) and half over-ordered (fewer tones).  Clips whose compress
    raises, by order, mode and exact/over-ordered, and by class.
``analysis``
    ``sweep`` at n = 8 (over-ordered for 3 tones), strides 1 and 2,
    block 256, and ``random_baseline`` for n in {2,4,6,8} at block 256
    instead of 64.  Skipped points by class.
``stream``
    1-second n=2 block 64 clips in IC mode with decay 4 per second at
    20 dB SNR, whose late blocks sit near the noise floor.  Clips whose
    compress raises, by class.
``ic_silence``
    A 48,000-sample, 300 Hz damped sine (decay 1/s) at n = 6, block
    256: IC mode decodes every block to near-silence without raising,
    amplitude mode reproduces the tone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter

import run


def _failure(call) -> str | None:
    try:
        call()
    except Exception as exc:  # any exception is the defect being counted
        return type(exc).__name__
    return None


def highorder(seed: int, count: int = 32) -> dict:
    import numpy as np

    from dynlaw import codec, signal_io
    from dynlaw.signal_io import SynthSpec

    rng = np.random.default_rng([seed, 12])
    tried, failed, classes = Counter(), Counter(), Counter()
    for i in range(count):
        n, block = ((16, 256), (32, 1024))[i % 2]
        mode = (codec.AMPLITUDES, codec.INITIAL_CONDITIONS)[(i // 2) % 2]
        exact = (i // 4) % 2 == 0
        tones = n // 2 if exact else 1 + (i // 8) % (n // 2 - 1)
        spec = SynthSpec(
            kind="multi_sine", length=2048, sample_rate=8000.0,
            amplitudes=tuple(rng.uniform(0.2, 1.0, tones)),
            frequencies=tuple(np.sort(rng.uniform(100.0, 3800.0, tones))),
            phases=tuple(rng.uniform(0.0, 2 * np.pi, tones)),
        )
        series = signal_io.synthesize(spec)
        params = codec.CodecParams(order_n=n, block_size=block, fit_mode=mode)
        key = f"n{n}-{mode}-{'exact' if exact else 'over-ordered'}"
        tried[key] += 1
        kind = _failure(lambda: codec.compress(series, params))
        if kind is not None:
            failed[key] += 1
            classes[kind] += 1
    return {"clips_failed": {k: f"{failed[k]} of {tried[k]}" for k in sorted(tried)},
            "by_class": dict(classes)}


def analysis(seed: int, count: int = 8) -> dict:
    import numpy as np

    from dynlaw import codec, signal_io
    from dynlaw.signal_io import SynthSpec

    rng = np.random.default_rng([seed, 13])
    sweep_skipped, base_skipped = Counter(), Counter()
    for _ in range(count):
        spec = SynthSpec(
            kind="multi_sine", length=2048, sample_rate=8000.0,
            amplitudes=tuple(rng.uniform(0.2, 0.6, 3)),
            frequencies=tuple(np.sort(rng.uniform(100.0, 1900.0, 3))),
            phases=tuple(rng.uniform(0.0, 2 * np.pi, 3)),
        )
        report = codec.sweep(signal_io.synthesize(spec), (8,), (1, 2), 256)
        sweep_skipped.update(reason.split(":", 1)[0] for _, _, reason in report.skipped)
        report, _ = codec.random_baseline(2048, int(rng.integers(2**62)), (2, 4, 6, 8), 256)
        base_skipped.update(reason.split(":", 1)[0] for _, _, reason in report.skipped)
    return {
        "sweep_n8_points": 2 * count,
        "sweep_n8_skipped": dict(sweep_skipped),
        "baseline_block256_points": 4 * count,
        "baseline_block256_skipped": dict(base_skipped),
    }


def stream(seed: int, count: int = 64) -> dict:
    import numpy as np

    from dynlaw import codec, signal_io
    from dynlaw.embedding import TimeSeries
    from dynlaw.signal_io import SynthSpec

    rng = np.random.default_rng([seed, 11])
    classes = Counter()
    for _ in range(count):
        spec = SynthSpec(kind="damped_sine", length=8000, sample_rate=8000.0, amplitudes=(0.7,),
                         frequencies=(rng.uniform(100.0, 3500.0),),
                         phases=(rng.uniform(0.0, 2 * np.pi),), decay=4.0)
        y = signal_io.synthesize(spec).samples
        noise = signal_io.synthesize(SynthSpec(kind="uniform_noise", length=8000,
                                               seed=int(rng.integers(2**63)))).samples
        y = y + noise * (math.sqrt(float(y @ y) / y.size) * 0.1 * math.sqrt(3.0))
        # the 16-bit WAV round trip the command line would apply
        pcm = signal_io.read_wav(signal_io.write_wav(TimeSeries(samples=y, sample_rate=8000.0)))
        params = codec.CodecParams(order_n=2, block_size=64, fit_mode=codec.INITIAL_CONDITIONS)
        kind = _failure(lambda: codec.compress(pcm, params))
        if kind is not None:
            classes[kind] += 1
    return {"clips": count, "clips_failed": sum(classes.values()), "by_class": dict(classes)}


def ic_silence() -> dict:
    import numpy as np

    from dynlaw import codec, signal_io
    from dynlaw.signal_io import SynthSpec

    spec = SynthSpec(kind="damped_sine", length=48000, sample_rate=8000.0,
                     frequencies=(300.0,), decay=1.0)
    x = signal_io.synthesize(spec)
    out = {"signal": "damped_sine 300 Hz, decay 1/s, 48000 samples at 8 kHz; n=6, block 256"}
    for mode in (codec.INITIAL_CONDITIONS, codec.AMPLITUDES):
        params = codec.CodecParams(order_n=6, block_size=256, fit_mode=mode)
        stored = codec.serialize(codec.compress(x, params))
        y = codec.decompress(codec.deserialize(stored)).samples
        out[mode] = {
            "A": 1.0 - float(np.linalg.norm(y - x.samples) / np.linalg.norm(x.samples)),
            "decoded_peak": float(np.max(np.abs(y))),
            "input_peak": float(np.max(np.abs(x.samples))),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    run._import_program()
    print(json.dumps({
        "seed": args.seed,
        "highorder": highorder(args.seed),
        "analysis": analysis(args.seed),
        "stream": stream(args.seed),
        "ic_silence": ic_silence(),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
