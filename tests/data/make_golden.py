"""Write the golden DLAW v1 files and their decoded samples.

Each case is a short synthetic clip compressed with one setting of the
codec; ``<name>.dlaw`` holds the serialized artifact and ``<name>.npy``
the float64 samples ``decompress`` gave for it.  ``test_golden.py``
checks that later code still reads these files and decodes them to the
stored samples.  The point of the files is to pin what an earlier writer
wrote, so rerun this script only on purpose: it overwrites them with
what the current code writes.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_golden.py
"""

from pathlib import Path

import numpy as np

from dynlaw.codec import AMPLITUDES, INITIAL_CONDITIONS, CodecParams, compress, decompress, serialize
from dynlaw.embedding import TimeSeries

HERE = Path(__file__).resolve().parent
RATE = 8000.0


def _tones(length: int) -> np.ndarray:
    """Two damped tones at 440 and 1210 Hz, on 16-bit steps."""
    t = np.arange(length) / RATE
    y = np.exp(-3.0 * t) * (0.6 * np.sin(2 * np.pi * 440.0 * t + 0.3)
                            + 0.3 * np.sin(2 * np.pi * 1210.0 * t + 1.1))
    return np.round(y * 32767.0) / 32767.0


def _gap(length: int) -> np.ndarray:
    """A 440 Hz tone whose second block of 64 is silent."""
    y = _tones(length)
    y[64:128] = 0.0
    return y


CASES = {
    "amp_stride1": (_tones(200), CodecParams(order_n=4, block_size=64)),
    "amp_stride2": (_tones(200), CodecParams(order_n=4, block_size=64, stride=2)),
    "ic_stride1": (_tones(200), CodecParams(order_n=4, block_size=64,
                                            fit_mode=INITIAL_CONDITIONS)),
    "ic_stride2": (_tones(200), CodecParams(order_n=4, block_size=64, stride=2,
                                            fit_mode=INITIAL_CONDITIONS)),
    "amp_symmetric": (_tones(200), CodecParams(order_n=4, block_size=64, symmetric=True,
                                               fit_mode=AMPLITUDES)),
    "ic_zero_block": (_gap(210), CodecParams(order_n=2, block_size=64, stride=2,
                                             fit_mode=INITIAL_CONDITIONS)),
}


def main() -> None:
    for name, (samples, params) in CASES.items():
        artifact = compress(TimeSeries(samples, RATE), params)
        (HERE / f"{name}.dlaw").write_bytes(serialize(artifact))
        np.save(HERE / f"{name}.npy", decompress(artifact).samples)


if __name__ == "__main__":
    main()
