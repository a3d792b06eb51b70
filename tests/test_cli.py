"""End-to-end command-line behavior, driven through run(argv)."""

import json

import numpy as np
import pytest

from dynlaw.cli import run
from dynlaw.codec import (
    AMPLITUDES,
    INITIAL_CONDITIONS,
    CodecParams,
    CompressionArtifact,
    serialize,
)
from dynlaw.embedding import TimeSeries
from dynlaw.fitting import accuracy
from dynlaw.signal_io import read_wav, write_wav


def synth_sine(tmp_path, name="sine.wav", length=300):
    path = tmp_path / name
    code = run(
        [
            "synth", "--kind", "sine", "--length", str(length),
            "--rate", "6", "--freq", "1", "--output", str(path),
        ]
    )
    assert code == 0
    return path


def test_synth_writes_playable_wav(tmp_path):
    path = synth_sine(tmp_path)
    series = read_wav(path.read_bytes())
    assert series.sample_rate == 6.0
    assert series.samples.size == 300
    np.testing.assert_allclose(
        series.samples, np.sin(np.pi / 3 * np.arange(300)), atol=1.1 / 32768.0
    )


def test_extract_reports_all_four_representations(tmp_path):
    wav = synth_sine(tmp_path)
    out = tmp_path / "law.json"
    code = run(["extract", "--input", str(wav), "--n", "2", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["eigenvalue"] < 1e-8
    w = np.array(doc["weights"])
    np.testing.assert_allclose(np.abs(w), 1.0 / np.sqrt(3.0), atol=1e-4)
    assert w[0] > 0 and w[1] < 0 and w[2] > 0
    np.testing.assert_allclose(doc["recursion"], [1.0, -1.0], atol=1e-4)
    roots = np.array([complex(re, im) for re, im in doc["roots"]])
    np.testing.assert_allclose(np.abs(roots), 1.0, atol=1e-4)
    np.testing.assert_allclose(sorted(r.real for r in roots), [0.5, 0.5], atol=1e-4)
    # 1 Hz tone: continuous exponents are +-2 pi i per second
    exps = np.array([complex(re, im) for re, im in doc["exponents_per_second"]])
    np.testing.assert_allclose(sorted(e.imag for e in exps),
                               [-2.0 * np.pi, 2.0 * np.pi], atol=1e-3)
    assert doc["roundtrip_relative_error"] < 1e-6
    # --index shows another eigenpair of the spectrum
    assert run(["extract", "--input", str(wav), "--n", "2", "--index", "1",
                "--output", str(out)]) == 0
    assert json.loads(out.read_text())["eigenvalue"] > doc["eigenvalue"]


def test_extract_csv_cells_are_plain_numbers(tmp_path):
    # numpy 2 reprs scalars as np.float64(...); the writer must cast first
    wav = synth_sine(tmp_path)
    out = tmp_path / "law.csv"
    code = run(["extract", "--input", str(wav), "--n", "2",
                "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,index,real,imag"
    kinds = set()
    for line in lines[1:]:
        kind, index, re, im = line.split(",")
        kinds.add(kind)
        int(index)
        float(re)
        float(im)
    assert kinds == {"weight", "recursion", "root", "exponent"}


def test_spectrum_lists_ascending_eigenvalues(tmp_path):
    wav = synth_sine(tmp_path)
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--input", str(wav), "--n", "2", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 3
    assert values == sorted(values)
    assert values[0] < 1e-8 < values[-1]


def test_compress_decompress_round_trip(tmp_path):
    wav = synth_sine(tmp_path, length=320)
    art = tmp_path / "law.dlaw"
    back = tmp_path / "back.wav"
    assert run(["compress", "--input", str(wav), "--output", str(art),
                "--n", "2", "--block", "64"]) == 0
    assert art.read_bytes()[:4] == b"DLAW"
    assert run(["decompress", "--input", str(art), "--output", str(back)]) == 0
    original = read_wav(wav.read_bytes())
    rebuilt = read_wav(back.read_bytes())
    assert rebuilt.samples.size == original.samples.size
    assert accuracy(original.samples, rebuilt.samples) > 0.999


@pytest.mark.parametrize("mode", ["amp", "ic"])
@pytest.mark.parametrize("stride", ["1", "2"])
def test_silent_block_compresses(tmp_path, mode, stride):
    t = np.arange(1024) / 8000.0
    y = np.sin(2 * np.pi * 440.0 * t)
    y[256:512] = 0.0
    wav = tmp_path / "gap.wav"
    wav.write_bytes(write_wav(TimeSeries(samples=y, sample_rate=8000.0)))
    art = tmp_path / "gap.dlaw"
    back = tmp_path / "back.wav"
    assert run(["compress", "--input", str(wav), "--output", str(art), "--n", "2",
                "--block", "256", "--mode", mode, "--stride", stride]) == 0
    assert run(["decompress", "--input", str(art), "--output", str(back)]) == 0
    assert np.all(read_wav(back.read_bytes()).samples[256:512] == 0.0)


def test_sweep_csv_is_deterministic(tmp_path, capsys):
    wav = synth_sine(tmp_path, length=320)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = run(["sweep", "--input", str(wav), "--grid-n", "2,4,40",
                    "--block", "64", "--output", str(out)])
        assert code == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[0] == "n,stride,R,A,lambda_min"
    assert len(outs[0].splitlines()) == 3  # n=40 cannot fit the block
    err = capsys.readouterr().err
    assert "skipped n=40" in err


def test_baseline_reports_slope(tmp_path, capsys):
    out = tmp_path / "base.json"
    code = run(["baseline", "--length", "512", "--seed", "3",
                "--grid-n", "4,8", "--block", "64",
                "--format", "json", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert {row["n"] for row in doc["rows"]} == {4, 8}
    assert np.isfinite(doc["slope"])
    assert "slope:" in capsys.readouterr().err


def test_grid_syntax_variants(tmp_path):
    wav = synth_sine(tmp_path, length=320)
    a = tmp_path / "range.csv"
    b = tmp_path / "list.csv"
    assert run(["sweep", "--input", str(wav), "--grid-n", "2:6:2",
                "--block", "64", "--output", str(a)]) == 0
    assert run(["sweep", "--input", str(wav), "--grid-n", "2,4,6",
                "--block", "64", "--output", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_usage_errors_exit_1(capsys):
    assert run(["synth", "--kind", "sine"]) == 1  # missing --length
    assert run(["no-such-command"]) == 1
    assert run(["sweep", "--grid-n", "4:2:1", "--block", "8"]) == 1
    # measurement is amplitude mode only, and compress always stores the
    # smallest-eigenvalue law: these flags do not exist
    assert run(["sweep", "--grid-n", "2", "--block", "64", "--mode", "ic"]) == 1
    assert run(["baseline", "--length", "256", "--grid-n", "2", "--block", "64",
                "--mode", "amp"]) == 1
    assert run(["compress", "--n", "2", "--block", "64", "--index", "1"]) == 1
    capsys.readouterr()  # swallow argparse noise


def test_bad_input_exits_2(tmp_path, capsys):
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"this is not audio, not even close")
    assert run(["spectrum", "--input", str(garbage), "--n", "2"]) == 2
    assert run(["decompress", "--input", str(garbage)]) == 2
    missing = tmp_path / "absent.wav"
    assert run(["spectrum", "--input", str(missing), "--n", "2"]) == 2
    wav = synth_sine(tmp_path, length=12)
    assert run(["compress", "--input", str(wav), "--n", "2", "--block", "64",
                "--output", str(tmp_path / "x.dlaw")]) == 2
    bigger = synth_sine(tmp_path, name="long.wav")
    assert run(["extract", "--input", str(bigger), "--n", "2", "--index", "99"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", [AMPLITUDES, INITIAL_CONDITIONS])
@pytest.mark.parametrize("growth, block", [(2.0, 512), (10.0, 300), (50.0, 512)],
                         ids=["grow2-block512", "grow10-block300", "grow50-block512"])
def test_numerical_failure_exits_3(tmp_path, capsys, growth, block, mode):
    # a stored law y_k = growth * y_{k-1} passes 1e100 or float range long
    # before the block ends, so decoding must stop with the overflow guard
    # in either fit mode rather than emit clipped or non-finite junk
    w = np.array([1.0, -growth]) / np.hypot(1.0, growth)
    art = CompressionArtifact(
        params=CodecParams(order_n=1, block_size=block, fit_mode=mode),
        sample_rate=8000,
        weights=w[None, :],
        payload=np.array([[1.0]]),
    )
    path = tmp_path / "explosive.dlaw"
    path.write_bytes(serialize(art))
    assert run(["decompress", "--input", str(path),
                "--output", str(tmp_path / "boom.wav")]) == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_stdout_streaming(capsysbinary):
    code = run(["synth", "--kind", "constant", "--length", "4",
                "--value", "0.5", "--rate", "10", "--output", "-"])
    assert code == 0
    series = read_wav(capsysbinary.readouterr().out)
    np.testing.assert_allclose(series.samples, 0.5, atol=1.0 / 32768.0)


def test_aliased_tone_rejected(capsys):
    assert run(["synth", "--kind", "sine", "--length", "10",
                "--rate", "8000", "--freq", "4000"]) == 2
    assert "error:" in capsys.readouterr().err
