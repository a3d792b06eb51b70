"""Command-line front end.

Subcommands: synth, spectrum, extract, compress, decompress, sweep,
baseline.  Audio moves as 16-bit PCM WAV; ``-`` means stdin/stdout.

Exit codes: 0 success, 1 usage error, 2 malformed or inconsistent
input, 3 numerical failure.  Diagnostics go to stderr as single lines.

An existing ``--output`` file is overwritten in place and cut to the
new length.  As with any plain write, it is neither atomic nor synced
to disk: a failed write can leave the file partly rewritten.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import stat
import sys

import numpy as np

from .codec import (
    AMPLITUDES,
    INITIAL_CONDITIONS,
    CodecParams,
    compress,
    decompress,
    deserialize,
    random_baseline,
    serialize,
    sweep,
)
from .embedding import EmbeddingConfig, embed
from .errors import DataError, NumericalError
from .lawforms import weights_to_roots, roots_to_weights
from .signal_io import _KINDS, SynthSpec, _wav, read_wav, synthesize
from .spectral import correlation, eigendecompose, extract_law, extract_symmetric_law

_MODES = {"amp": AMPLITUDES, "ic": INITIAL_CONDITIONS}


def _parse_grid(text: str) -> tuple[int, ...]:
    """Accept 'a:b:step' (inclusive), a comma list, or one integer."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"grid {text!r} is not a:b:step")
        a, b, step = (int(p) for p in parts)
        if step < 1 or b < a:
            raise argparse.ArgumentTypeError(f"grid {text!r} is empty")
        return tuple(range(a, b + 1, step))
    if "," in text:
        return tuple(int(p) for p in text.split(",") if p)
    return (int(text),)


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to stdout (``-``) or to ``path``.  An existing
    regular file is overwritten in place and, if it was longer, cut to
    the new length: the same bytes as truncating it to zero first,
    without freeing and reallocating its blocks (about 80 µs a call on
    ext4).  A device or FIFO is only written, as it cannot be truncated."""
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        old = os.fstat(fd)
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _command(sub, name: str, handler, text: str, reads=True, law=False, table=None):
    """A subcommand parser bound to ``handler``, with the options commands
    share: --input if it ``reads``, --n and --stride for a ``law``, --format
    (default ``table``) and --output, each declared anew so no default leaks."""
    parser = sub.add_parser(name, help=text)
    parser.set_defaults(handler=handler)
    if reads:
        parser.add_argument("--input", default="-")
    if law:
        parser.add_argument("--n", type=int, required=True)
        parser.add_argument("--stride", type=int, default=1)
    if table:
        parser.add_argument("--format", choices=["csv", "json"], default=table)
    parser.add_argument("--output", default="-")
    return parser


@functools.cache  # built once per process; parse_args leaves the tree unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynlaw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = _command(sub, "synth", _cmd_synth, "generate a test signal as WAV", reads=False)
    synth.add_argument("--kind", required=True, choices=_KINDS)
    synth.add_argument("--length", type=int, required=True)
    synth.add_argument("--rate", type=float, default=8000.0)
    synth.add_argument("--amp", default="0.9",
                       help="amplitude or comma list (default %(default)s per tone)")
    synth.add_argument("--freq", default="", help="frequency in Hz or comma list")
    synth.add_argument("--phase", default="", help="phase in radians or comma list")
    synth.add_argument("--decay", type=float, default=0.0)
    synth.add_argument("--degree", type=int, default=0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--value", type=float, default=0.0)

    _command(sub, "spectrum", _cmd_spectrum, "eigenvalues of the correlation matrix", law=True,
             table="csv")

    extract = _command(sub, "extract", _cmd_extract, "best law in all representations", law=True,
                       table="json")
    extract.add_argument("--symmetric", action="store_true")

    comp = _command(sub, "compress", _cmd_compress, "WAV in, DLAW artifact out", law=True)
    comp.add_argument("--block", type=int, required=True)
    comp.add_argument("--mode", choices=sorted(_MODES), default="amp")
    comp.add_argument("--symmetric", action="store_true")

    _command(sub, "decompress", _cmd_decompress, "DLAW artifact in, WAV out")

    swp = _command(sub, "sweep", _cmd_sweep, "accuracy vs rate over an (n, stride) grid",
                   table="csv")
    swp.add_argument("--grid-n", type=_parse_grid, required=True)
    swp.add_argument("--grid-stride", type=_parse_grid, default=(1,))
    swp.add_argument("--block", type=int, required=True)
    swp.add_argument("--symmetric", action="store_true")

    base = _command(sub, "baseline", _cmd_baseline, "noise baseline with log-log slope",
                    reads=False, table="csv")
    base.add_argument("--length", type=int, required=True)
    base.add_argument("--seed", type=int, default=0)
    base.add_argument("--grid-n", type=_parse_grid, required=True)
    base.add_argument("--block", type=int, required=True)
    return parser


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        kind=args.kind,
        length=args.length,
        sample_rate=args.rate,
        amplitudes=_floats(args.amp),
        frequencies=_floats(args.freq),
        phases=_floats(args.phase),
        decay=args.decay,
        degree=args.degree,
        seed=args.seed,
        value=args.value,
    )
    series = synthesize(spec)
    data, clamped = _wav(series)
    # a lossy decode's overshoot is clamped (and reported); a synthesized signal may not clip
    if clamped:
        peak = float(np.max(np.abs(series.samples)))
        raise ValueError(f"signal peak {peak:g} clips {clamped} of {series.samples.size} samples "
                         "at 16-bit WAV full scale (32767/32768); lower --amp or --value")
    _write_bytes(args.output, data)
    return 0


def _series_law(args):
    series = read_wav(_read_bytes(args.input))
    cfg = EmbeddingConfig(n=args.n, stride=args.stride)
    c = correlation(embed(series, cfg))
    return series, cfg, c


def _cmd_spectrum(args) -> int:
    _, _, c = _series_law(args)
    spectrum = eigendecompose(c)
    if args.format == "json":
        text = json.dumps({"eigenvalues": [float(v) for v in spectrum.eigenvalues]},
                          indent=2) + "\n"
    else:
        lines = ["index,eigenvalue"]
        lines += [f"{i},{float(v)!r}" for i, v in enumerate(spectrum.eigenvalues)]
        text = "\n".join(lines) + "\n"
    _write_bytes(args.output, text.encode())
    return 0


def _cmd_extract(args) -> int:
    series, cfg, c = _series_law(args)
    if args.symmetric:
        law = extract_symmetric_law(c, cfg)
    else:
        law = extract_law(eigendecompose(c), cfg)
    roots = weights_to_roots(law)
    rebuilt = np.zeros_like(law.weights)
    rebuilt[: roots.degree + 1] = roots_to_weights(roots, float(law.weights[roots.degree]))
    scale = float(np.max(np.abs(law.weights)))
    roundtrip = float(np.max(np.abs(rebuilt - law.weights))) / scale
    dt = args.stride / series.sample_rate
    exponents = np.log(roots.roots) / dt
    payload = {
        "n": args.n,
        "stride": args.stride,
        "eigenvalue": law.eigenvalue,
        "weights": [float(w) for w in law.weights],
        "recursion": [float(-w / law.weights[0]) for w in law.weights[1:]],
        "roots": [[float(z.real), float(z.imag)] for z in roots.roots],
        "exponents_per_second": [[float(z.real), float(z.imag)] for z in exponents],
        "roundtrip_relative_error": roundtrip,
    }
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["kind,index,real,imag"]
        for kind, values in (
            ("weight", [(w, 0.0) for w in payload["weights"]]),
            ("recursion", [(v, 0.0) for v in payload["recursion"]]),
            ("root", payload["roots"]),
            ("exponent", payload["exponents_per_second"]),
        ):
            lines += [f"{kind},{i},{re!r},{im!r}" for i, (re, im) in enumerate(values)]
        text = "\n".join(lines) + "\n"
    _write_bytes(args.output, text.encode())
    return 0


def _cmd_compress(args) -> int:
    series = read_wav(_read_bytes(args.input))
    params = CodecParams(
        order_n=args.n,
        block_size=args.block,
        stride=args.stride,
        fit_mode=_MODES[args.mode],
        symmetric=args.symmetric,
    )
    _write_bytes(args.output, serialize(compress(series, params)))
    return 0


def _cmd_decompress(args) -> int:
    series = decompress(deserialize(_read_bytes(args.input)))
    data, clamped = _wav(series)
    _write_bytes(args.output, data)
    if clamped:  # a lossy decode may overshoot full scale
        print(f"clamped {clamped} of {series.samples.size} samples to 16-bit full scale",
              file=sys.stderr)
    return 0


def _report_text(report, fmt: str, extra: dict | None = None) -> str:
    if fmt == "json":
        doc = {"rows": [dataclasses.asdict(row) for row in report.rows],
               "skipped": [list(s) for s in report.skipped], **(extra or {})}
        return json.dumps(doc, indent=2) + "\n"
    return report.to_csv()


def _cmd_sweep(args) -> int:
    series = read_wav(_read_bytes(args.input))
    report = sweep(series, args.grid_n, args.grid_stride, args.block, symmetric=args.symmetric)
    for n, s, reason in report.skipped:
        print(f"skipped n={n} stride={s}: {reason}", file=sys.stderr)
    _write_bytes(args.output, _report_text(report, args.format).encode())
    return 0


def _cmd_baseline(args) -> int:
    report, slope = random_baseline(args.length, args.seed, args.grid_n, args.block)
    print(f"slope: {slope!r}", file=sys.stderr)
    _write_bytes(args.output, _report_text(report, args.format, {"slope": slope}).encode())
    return 0


def run(argv) -> int:
    """Execute one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except (DataError, ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
