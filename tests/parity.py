"""Parity check: the outcomes of one fixed, seeded grid, one line each.

    python tests/parity.py                # print this tree's outcomes
    python tests/parity.py --against DIR  # compare with the tree in DIR

DIR is an unpacked copy of another commit (``git archive``).  The grid
runs once per side, each in its own process with that side's ``src``
first on the path and BLAS pinned to one thread.  The tool prints each
outcome that differs and their count, and exits 1 if any differ.

An outcome is one of:

* ``compress`` of a signal at one ``CodecParams``: the sha256 of the
  file bytes and of the decoded samples, and whether the decode of the
  file equals the decode of the in-memory artifact;
* a ``sweep`` or ``random_baseline`` report: the sha256 of its CSV
  and of its skipped points (and the slope);
* a golden file in ``tests/data``, and seeded single-byte mutations of
  it: the sha256 of the re-serialized bytes and of the decode.

A step that raises gives ``ClassName: message`` instead.  A
RuntimeWarning is an error, as in the tier-1 tests.  The grid uses only
API that every compared tree has, through the modules, not the
package's own exports.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

# numpy loads later, inside the grid, and each side's process inherits
# this: one BLAS thread gives the same sums on both sides
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
LENGTH, RATE = 4096, 8000.0
LAWS = ((1, 16), (2, 64), (4, 128), (6, 256), (16, 256), (32, 1024))  # (n, block)
STRIDES = (1, 2, 3)
SWEEP_BLOCKS = (64, 128, 256)
SWEEP_N = (1, 2, 3, 4, 6, 8, 16)
MUTATIONS = 200  # per golden file
# a mutated block_size field passes every length check, so a mutant can
# claim billions of samples; decodes past this many are not run
DECODE_BUDGET = 1 << 20


def _signals():
    import numpy as np
    from dynlaw.signal_io import lcg_uniform

    t = np.arange(LENGTH) / RATE
    tone = 0.9 * np.sin(2 * np.pi * 440.0 * t)
    silent_block = tone.copy()
    silent_block[1024:2048] = 0.0
    spike = tone.copy()
    spike[1000] = 1e200
    click = np.where(np.arange(LENGTH) < 3072, tone, 0.0)
    click[-1] = 0.9  # one nonzero sample closes an otherwise silent last block
    return {
        "damped": np.exp(-30.0 * t) * tone,
        "three_tones": 0.3 * sum(np.sin(2 * np.pi * f * t) for f in (220.0, 630.0, 1500.0)),
        "noise": 0.9 * lcg_uniform(7, LENGTH),
        "ramp": 0.0004 * np.arange(LENGTH) - 0.8,
        "silent_block": silent_block,
        "spike": spike,
        "click": click,
    }


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _attempt(step):
    """(result, None), or (None, "ClassName: message") when ``step`` raises."""
    try:
        return step(), None
    except Exception as exc:  # every failure is an outcome to compare
        return None, f"{type(exc).__name__}: {exc}".replace("\n", "\\n")


def _decode(artifact) -> str:
    from dynlaw.codec import decompress

    if artifact.decompressed_length > DECODE_BUDGET:
        return f"decode not run: {artifact.decompressed_length} samples"
    samples, error = _attempt(lambda: decompress(artifact).samples)
    return error or f"decode={_digest(samples.tobytes())}"


def _compress_outcome(series, params) -> str:
    from dynlaw.codec import compress, decompress, deserialize, serialize

    artifact, error = _attempt(lambda: compress(series, params))
    if error:
        return error
    data = serialize(artifact)
    memory, error = _attempt(lambda: decompress(artifact).samples)
    if error:
        return f"file={_digest(data)} {error}"
    file, error = _attempt(lambda: decompress(deserialize(data)).samples)
    same = error is None and memory.tobytes() == file.tobytes()
    return f"file={_digest(data)} decode={_digest(memory.tobytes())} file_decode_same={same}"


def _report(report) -> str:
    skipped = "\n".join(f"{n},{s},{reason}" for n, s, reason in report.skipped)
    return f"rows={len(report.rows)} csv={_digest(report.to_csv().encode())} " \
           f"skipped={len(report.skipped)}:{_digest(skipped.encode())}"


def outcomes():
    """Yield (key, outcome) over the whole grid."""
    import numpy as np
    from dynlaw.codec import (AMPLITUDES, INITIAL_CONDITIONS, CodecParams, deserialize,
                              random_baseline, serialize, sweep)
    from dynlaw.embedding import TimeSeries

    modes = {"amp": AMPLITUDES, "ic": INITIAL_CONDITIONS}
    for name, samples in _signals().items():
        series = TimeSeries(samples=samples, sample_rate=RATE)
        for n, block in LAWS:
            for stride in STRIDES:
                for mode, fit_mode in modes.items():
                    for symmetric in (False, True):
                        key = f"compress {name} n={n} block={block} stride={stride} {mode} " \
                              f"symmetric={int(symmetric)}"
                        params, error = _attempt(lambda: CodecParams(n, block, stride, fit_mode,
                                                                     symmetric))
                        yield key, error or _compress_outcome(series, params)
        for block in SWEEP_BLOCKS:
            for symmetric in (False, True):
                report, error = _attempt(lambda: sweep(series, SWEEP_N, STRIDES, block,
                                                       symmetric=symmetric))
                yield f"sweep {name} block={block} symmetric={int(symmetric)}", \
                    error or _report(report)
    for seed in (0, 1):
        result, error = _attempt(lambda: random_baseline(LENGTH, seed, SWEEP_N, 256))
        yield f"random_baseline seed={seed} block=256", \
            error or f"{_report(result[0])} slope={result[1]!r}"
    rng = np.random.default_rng(2026)
    for path in sorted((HERE / "data").glob("*.dlaw")):
        data = path.read_bytes()
        variants = {"": data}  # a mutation drawn twice is one outcome
        for _ in range(MUTATIONS):
            at, flip = int(rng.integers(len(data))), int(rng.integers(1, 256))
            mutated = bytearray(data)
            mutated[at] ^= flip
            variants[f" byte {at} ^ {flip}"] = bytes(mutated)
        for label, variant in variants.items():
            artifact, error = _attempt(lambda: deserialize(variant))
            outcome = error or f"bytes={_digest(serialize(artifact))} {_decode(artifact)}"
            yield f"golden {path.stem}{label}", outcome


def _print_outcomes(src: Path) -> None:
    sys.path.insert(0, str(src))
    warnings.simplefilter("error", RuntimeWarning)
    for key, outcome in outcomes():
        print(f"{key}: {outcome}")


def _side(src: Path):
    """Start this script on the tree whose package sits in ``src``."""
    return subprocess.Popen([sys.executable, __file__, "--src", str(src)],
                            stdout=subprocess.PIPE, text=True)


def _collect(process, what: str) -> dict:
    out, _ = process.communicate()
    if process.returncode:
        raise SystemExit(f"error: the grid on {what} exited {process.returncode}")
    return dict(line.split(": ", 1) for line in out.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="DIR", type=Path,
                        help="compare with the tree unpacked in DIR")
    parser.add_argument("--src", type=Path, default=HERE.parent / "src",
                        help="print the outcomes of the dynlaw package in SRC "
                             "(default: this tree's)")
    args = parser.parse_args(argv)
    if args.against is None:
        _print_outcomes(args.src)
        return 0
    other = args.against / "src"
    if not (other / "dynlaw").is_dir():
        parser.error(f"{other} holds no dynlaw package")
    ours, theirs = _side(args.src), _side(other)  # the two sides run at once
    mine, base = _collect(ours, str(args.src)), _collect(theirs, str(other))
    differ = [key for key in base.keys() | mine.keys() if base.get(key) != mine.get(key)]
    for key in sorted(differ):
        print(f"{key}\n  {args.against}: {base.get(key)}\n  this tree: {mine.get(key)}")
    print(f"{len(mine)} outcomes here, {len(base)} in {args.against}, {len(differ)} differing")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
