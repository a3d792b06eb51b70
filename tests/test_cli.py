"""End-to-end command-line behavior, driven through run(argv)."""

import json
import os
import warnings

import numpy as np
import pytest

from dynlaw.cli import _build_parser, run
from dynlaw.codec import (
    AMPLITUDES,
    INITIAL_CONDITIONS,
    CodecParams,
    CompressionArtifact,
    compress,
    decompress,
    deserialize,
    serialize,
    sweep,
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
    # --amp defaults to 0.9 per tone
    np.testing.assert_allclose(
        series.samples, 0.9 * np.sin(np.pi / 3 * np.arange(300)), atol=1.1 / 32768.0
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


def test_extract_symmetric_reports_a_palindromic_law(tmp_path):
    wav = synth_sine(tmp_path)
    out = tmp_path / "law.json"
    assert run(["extract", "--input", str(wav), "--n", "4", "--symmetric",
                "--output", str(out)]) == 0
    w = json.loads(out.read_text())["weights"]
    assert len(w) == 5 and w == w[::-1]


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
    out = tmp_path / "spec.json"
    assert run(["spectrum", "--input", str(wav), "--n", "2", "--format", "json",
                "--output", str(out)]) == 0
    assert json.loads(out.read_text())["eigenvalues"] == values


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


@pytest.mark.parametrize("amp", [1.5, 0.5])
def test_decompress_reports_clamped_samples(tmp_path, capsys, amp):
    # a decode past full scale is clamped into the 16-bit file and counted
    # on one stderr line, and the command still succeeds; a decode within
    # full scale prints nothing
    t = np.arange(1024) / 8000.0
    series = TimeSeries(samples=amp * np.sin(2 * np.pi * 440.0 * t), sample_rate=8000.0)
    art = tmp_path / "tone.dlaw"
    art.write_bytes(serialize(compress(series, CodecParams(order_n=2, block_size=64))))
    back = tmp_path / "back.wav"
    capsys.readouterr()
    assert run(["decompress", "--input", str(art), "--output", str(back)]) == 0
    decoded = decompress(deserialize(art.read_bytes())).samples
    # a sample is clamped when the file holds it more than half a step off
    clamped = np.count_nonzero(np.abs(read_wav(back.read_bytes()).samples - decoded) > 0.5 / 32768)
    assert (clamped > 0) == (amp > 1.0)
    err = capsys.readouterr().err
    assert err == (f"clamped {clamped} of 1024 samples to 16-bit full scale\n" if clamped else "")


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
    # measurement is amplitude mode only, and compress and extract always
    # take the smallest-eigenvalue law: these flags do not exist
    assert run(["sweep", "--grid-n", "2", "--block", "64", "--mode", "ic"]) == 1
    assert run(["baseline", "--length", "256", "--grid-n", "2", "--block", "64",
                "--mode", "amp"]) == 1
    assert run(["compress", "--n", "2", "--block", "64", "--index", "1"]) == 1
    assert run(["extract", "--n", "2", "--index", "1"]) == 1
    capsys.readouterr()  # swallow argparse noise
    assert run(["baseline", "--length", "256", "--grid-n", "1:5", "--block", "64"]) == 1
    assert "grid '1:5' is not a:b:step" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "baseline"])
def test_a_block_that_is_not_positive_exits_2(tmp_path, capsys, command):
    source = {"sweep": ["--input", str(synth_sine(tmp_path))], "baseline": ["--length", "256"]}
    assert run([command, *source[command], "--grid-n", "2", "--block", "0"]) == 2
    assert capsys.readouterr().err == "error: block_size must be >= 1\n"


def test_reused_parser_leaks_nothing_between_calls(tmp_path, capsys):
    # one parser serves every call of a process: neither the flags of an
    # earlier command nor a failed parse may reach a later one
    assert _build_parser() is _build_parser()
    wav = synth_sine(tmp_path, length=320)
    series = read_wav(wav.read_bytes())

    def written(*flags):
        out = tmp_path / "out.dlaw"
        assert run(["compress", "--input", str(wav), "--output", str(out),
                    "--n", "2", "--block", "64", *flags]) == 0
        return out.read_bytes()

    ic = serialize(compress(series, CodecParams(order_n=2, block_size=64, symmetric=True,
                                                fit_mode=INITIAL_CONDITIONS)))
    amp = serialize(compress(series, CodecParams(order_n=2, block_size=64)))
    assert written("--symmetric", "--mode", "ic") == ic
    assert written() == amp
    assert run(["compress", "--input", str(wav), "--n", "2", "--block", "64",
                "--symmetric", "--mode", "bogus"]) == 1
    assert written() == amp
    assert run(["compress", "--n", "2", "--mode", "ic"]) == 1  # missing --block
    assert written("--symmetric", "--mode", "ic") == ic
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
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err

    def exits_2_with_one_error_line(argv):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    # header fields that do not fit the DLAW or WAV layout
    flat = tmp_path / "flat.wav"
    assert run(["synth", "--kind", "constant", "--length", "140002", "--value", "0.5",
                "--output", str(flat)]) == 0
    exits_2_with_one_error_line(["compress", "--input", str(flat), "--n", "1", "--stride", "70000",
                                 "--block", "70001", "--output", str(tmp_path / "wide.dlaw")])
    fast = tmp_path / "fast.dlaw"
    fast.write_bytes(serialize(CompressionArtifact(params=CodecParams(order_n=1, block_size=8),
                                                   sample_rate=3_000_000_000, tail=[0.5])))
    exits_2_with_one_error_line(["decompress", "--input", str(fast),
                                 "--output", str(tmp_path / "fast.wav")])
    exits_2_with_one_error_line(["synth", "--kind", "constant", "--length", "4", "--rate", "3e9",
                                 "--output", str(tmp_path / "fast_synth.wav")])


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


def test_ic_law_with_a_root_at_the_origin_exits_3(tmp_path, capsys):
    # 63 samples of 0.25, then one of 0.75: at n = 2 the law is about
    # (0, 1, -1)/sqrt(2), whose root at the origin the recursion cannot step
    wav = tmp_path / "step.wav"
    wav.write_bytes(write_wav(TimeSeries(np.r_[np.full(63, 0.25), 0.75], 8000.0)))
    assert run(["compress", "--input", str(wav), "--n", "2", "--block", "64", "--mode", "ic",
                "--output", str(tmp_path / "step.dlaw")]) == 3
    assert "law has a root at the origin" in capsys.readouterr().err
    crafted = tmp_path / "zero_w0.dlaw"
    crafted.write_bytes(serialize(CompressionArtifact(
        params=CodecParams(order_n=2, block_size=64, fit_mode=INITIAL_CONDITIONS),
        sample_rate=8000,
        weights=np.array([[0.0, 1.0, -1.0]]) / np.sqrt(2.0),
        payload=[[1.0, 2.0]],
    )))
    assert run(["decompress", "--input", str(crafted),
                "--output", str(tmp_path / "zero_w0.wav")]) == 3
    assert "law has a root at the origin" in capsys.readouterr().err


def _eight_tones(tmp_path):
    wav = tmp_path / "tones.wav"
    assert run(["synth", "--kind", "multi_sine", "--length", "4096", "--rate", "8000",
                "--freq", "150,386,621,857,1093,1329,1564,1800", "--amp", "0.1",
                "--output", str(wav)]) == 0
    return wav


@pytest.mark.parametrize("n, block", [(64, 1024), (700, 2048)])
def test_ic_stride_map_that_cannot_step_exits_3_as_unstable_basis(tmp_path, capsys, n, block):
    # the lattice roots of eight tones lie on the unit circle, but the
    # per-sample law they expand to has a w_0 far below 1e-12 of its
    # norm (n = 64), or leaves float range (n = 700): no root is at the
    # origin, and no RuntimeWarning may escape
    wav = _eight_tones(tmp_path)
    capsys.readouterr()
    assert run(["compress", "--input", str(wav), "--n", str(n), "--block", str(block),
                "--stride", "2", "--mode", "ic", "--output", str(tmp_path / "out.dlaw")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: per-sample law of the stride map cannot be stepped")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("warn", ["error", "ignore"])
@pytest.mark.parametrize("mode", ["amp", "ic"])
def test_correlation_overflow_exits_3(tmp_path, capsys, monkeypatch, mode, warn):
    # 16-bit WAV cannot carry a sample beyond 1e154, so the reader is
    # replaced by one that returns such a series
    y = np.sin(0.3 * np.arange(350))
    y[150] = 1e300
    monkeypatch.setattr("dynlaw.cli.read_wav", lambda data: TimeSeries(y, 8000.0))
    path = tmp_path / "in.wav"
    path.write_bytes(b"")
    with warnings.catch_warnings():
        warnings.simplefilter(warn, RuntimeWarning)
        assert run(["compress", "--input", str(path), "--output", str(tmp_path / "out.dlaw"),
                    "--n", "3", "--block", "100", "--mode", mode]) == 3
    assert "correlation beyond float range" in capsys.readouterr().err
    assert not (tmp_path / "out.dlaw").exists()


def test_stdout_streaming(capsysbinary):
    code = run(["synth", "--kind", "constant", "--length", "4",
                "--value", "0.5", "--rate", "10", "--output", "-"])
    assert code == 0
    series = read_wav(capsysbinary.readouterr().out)
    np.testing.assert_allclose(series.samples, 0.5, atol=1.0 / 32768.0)


@pytest.mark.parametrize("stale", ["longer", "shorter"])
def test_an_existing_output_ends_holding_exactly_the_new_bytes(tmp_path, stale):
    # each output file already holds other bytes, 1 MiB more or half as many
    wav = synth_sine(tmp_path, length=320)
    series = read_wav(wav.read_bytes())
    dlaw = serialize(compress(series, CodecParams(order_n=2, block_size=64)))
    expected = {
        "law.dlaw": dlaw,
        "back.wav": write_wav(decompress(deserialize(dlaw))),
        "sweep.csv": sweep(series, (2, 4), (1,), 64).to_csv().encode(),
    }
    for name, data in expected.items():
        size = len(data) + 2**20 if stale == "longer" else len(data) // 2
        (tmp_path / name).write_bytes(b"\xa5" * size)
    assert run(["compress", "--input", str(wav), "--output", str(tmp_path / "law.dlaw"),
                "--n", "2", "--block", "64"]) == 0
    assert run(["decompress", "--input", str(tmp_path / "law.dlaw"),
                "--output", str(tmp_path / "back.wav")]) == 0
    assert run(["sweep", "--input", str(wav), "--grid-n", "2,4", "--block", "64",
                "--format", "csv", "--output", str(tmp_path / "sweep.csv")]) == 0
    for name, data in expected.items():
        assert (tmp_path / name).read_bytes() == data, name


def test_output_to_a_device_is_written_without_truncation(tmp_path):
    # a device cannot be truncated; writing to it still succeeds
    art = tmp_path / "law.dlaw"
    assert run(["compress", "--input", str(synth_sine(tmp_path, length=320)),
                "--output", str(art), "--n", "2", "--block", "64"]) == 0
    assert run(["decompress", "--input", str(art), "--output", os.devnull]) == 0


def test_an_existing_output_is_opened_without_truncating_it(tmp_path, monkeypatch):
    # truncating a file to zero and rewriting it frees and reallocates its
    # blocks; the writer overwrites it in place and cuts it to length instead
    out = tmp_path / "tone.wav"
    out.write_bytes(b"\0" * 100_000)
    opened = []
    real_open = os.open

    def record(path, flags, *rest, **kwargs):
        if os.fspath(path) == str(out):
            opened.append(flags)
        return real_open(path, flags, *rest, **kwargs)

    monkeypatch.setattr(os, "open", record)
    assert run(["synth", "--kind", "sine", "--length", "300", "--rate", "6", "--freq", "1",
                "--output", str(out)]) == 0
    monkeypatch.undo()
    assert len(opened) == 1
    assert opened[0] & os.O_CREAT and opened[0] & os.O_WRONLY
    assert not opened[0] & os.O_TRUNC
    assert out.read_bytes() == synth_sine(tmp_path).read_bytes()


def test_synth_refuses_a_signal_past_full_scale(tmp_path, capsys):
    # two tones at the default 0.9 each peak near 1.8, which a 16-bit WAV
    # would clip to 1
    out = tmp_path / "loud.wav"
    assert run(["synth", "--kind", "multi_sine", "--length", "4096", "--rate", "8000",
                "--freq", "440,1200", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: signal peak 1.78") and "--amp" in err
    assert len(err.splitlines()) == 1 and not out.exists()
    assert run(["synth", "--kind", "multi_sine", "--length", "4096", "--rate", "8000",
                "--freq", "440,1200", "--amp", "0.5,0.4", "--output", str(out)]) == 0


@pytest.mark.parametrize("argv", [
    ["--kind", "sine", "--length", "4096", "--rate", "8000", "--freq", "440"],
    ["--kind", "poly_exp", "--length", "16"],
], ids=["sine", "poly_exp"])
def test_synth_writes_its_default_amplitude(tmp_path, argv):
    # a unit tone or a constant 1 would clip; the default 0.9 does not
    out = tmp_path / "default.wav"
    assert run(["synth", *argv, "--output", str(out)]) == 0
    series = read_wav(out.read_bytes())
    assert series.samples.size == int(argv[3])
    assert 0.8 < np.max(np.abs(series.samples)) <= 0.9 + 0.5 / 32768


@pytest.mark.parametrize("argv", [
    ["--kind", "poly_exp", "--length", "16"],
    ["--kind", "sine", "--length", "16", "--rate", "8000", "--freq", "440"],
], ids=["poly_exp", "sine"])
def test_synth_refuses_an_empty_amplitude_list(tmp_path, capsys, argv):
    out = tmp_path / "silent.wav"
    assert run(["synth", *argv, "--amp", "", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: kind {argv[1]!r} needs at least one amplitude\n"
    assert not out.exists()


def test_synth_refuses_a_constant_at_exactly_full_scale(tmp_path, capsys):
    # 1.0 is code 32768, one past the largest 16-bit code: write_wav would
    # clamp every sample to 32767/32768
    out = tmp_path / "full.wav"
    assert run(["synth", "--kind", "constant", "--length", "4", "--value", "1",
                "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: signal peak 1 clips 4 of 4 samples") and "--value" in err
    assert len(err.splitlines()) == 1 and not out.exists()
    assert run(["synth", "--kind", "constant", "--length", "4", "--value", "0.99",
                "--output", str(out)]) == 0
    np.testing.assert_allclose(read_wav(out.read_bytes()).samples, 0.99, atol=1.0 / 32768.0)


def test_aliased_tone_rejected(capsys):
    assert run(["synth", "--kind", "sine", "--length", "10",
                "--rate", "8000", "--freq", "4000"]) == 2
    assert "error:" in capsys.readouterr().err
