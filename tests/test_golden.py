"""Golden DLAW v1 files still read, re-serialize and decode as written.

``tests/data/make_golden.py`` describes the inputs and settings.  The
stored samples came from the writer's own decode; another numpy/LAPACK
build may differ in the last bits, so they are compared to 1e-12 of the
peak rather than bit for bit.
"""

from pathlib import Path

import numpy as np
import pytest

from dynlaw.codec import INITIAL_CONDITIONS, decompress, deserialize, serialize

DATA = Path(__file__).resolve().parent / "data"
NAMES = sorted(path.stem for path in DATA.glob("*.dlaw"))


def test_golden_set_covers_each_stored_kind():
    assert NAMES == ["amp_stride1", "amp_stride2", "amp_symmetric",
                     "ic_stride1", "ic_stride2", "ic_zero_block"]
    params = {name: deserialize((DATA / f"{name}.dlaw").read_bytes()).params for name in NAMES}
    assert {(p.fit_mode == INITIAL_CONDITIONS, p.stride) for p in params.values()} >= {
        (False, 1), (False, 2), (True, 1), (True, 2)}
    assert params["amp_symmetric"].symmetric


@pytest.mark.parametrize("name", NAMES)
def test_golden_file_reserializes_to_the_same_bytes(name):
    data = (DATA / f"{name}.dlaw").read_bytes()
    assert serialize(deserialize(data)) == data


@pytest.mark.parametrize("name", NAMES)
def test_golden_file_decodes_to_the_stored_samples(name):
    expected = np.load(DATA / f"{name}.npy")
    got = decompress(deserialize((DATA / f"{name}.dlaw").read_bytes())).samples
    assert got.shape == expected.shape
    peak = float(np.max(np.abs(expected)))
    assert np.max(np.abs(got - expected)) <= 1e-12 * peak


def test_golden_zero_block_decodes_to_zeros():
    samples = np.load(DATA / "ic_zero_block.npy")
    got = decompress(deserialize((DATA / "ic_zero_block.dlaw").read_bytes())).samples
    assert np.all(samples[64:128] == 0.0) and np.all(got[64:128] == 0.0)
