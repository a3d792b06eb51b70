"""Golden DLAW files (v1 and v2) still read, re-serialize and decode as
written.

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
                     "ic_stride1", "ic_stride2", "ic_zero_block",
                     "v2_amp_stride1", "v2_amp_stride2"]
    artifacts = {name: deserialize((DATA / f"{name}.dlaw").read_bytes()) for name in NAMES}
    params = {name: artifact.params for name, artifact in artifacts.items()}
    assert {(p.fit_mode == INITIAL_CONDITIONS, p.stride) for p in params.values()} >= {
        (False, 1), (False, 2), (True, 1), (True, 2)}
    assert params["amp_symmetric"].symmetric
    versions = {name: artifact.version for name, artifact in artifacts.items()}
    assert versions == {name: 2 if name.startswith("v2_") else 1 for name in NAMES}
    assert {params[name].stride for name in NAMES if versions[name] == 2} == {1, 2}
    # stored exponents of every kind: pairs, and real roots of both signs
    stride1 = artifacts["v2_amp_stride1"].exponents
    assert stride1.pairs.all() and stride1.negative.any() and not stride1.negative.all()


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
