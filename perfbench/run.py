"""Benchmark of the dynlaw codec: one seeded workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-n2 --seed 1 --seconds 30 --trace 0

Workloads: stream-n2, highorder, analysis (see workloads.py).  The
program is imported from ``src/`` of the checkout, never from an
installed copy; without it the command exits with code 2 and prints no
result.  One process, one caller, BLAS pinned to one thread.

Standard output: one line per metric (name, value, unit, which
direction is better), the environment, then as the last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports
per-layer metrics from spans recorded at each module's public
functions.  A fuller report (failures by class, check violations,
per-function breakdown, and the spans of a traced run) is written
under ``.perfbench/`` in the checkout.  Exit code 0 when every
correctness check held, 1 when one was violated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("stream-n2", "highorder", "analysis")
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


SRC = ROOT / "src"
# Run in a fresh interpreter: time the program import.
_TIME_IMPORT = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import dynlaw
print(time.perf_counter() - t)
"""


def _import_program() -> None:
    """Import dynlaw from the checkout's src/, never from an installed copy."""
    if not (SRC / "dynlaw" / "__init__.py").is_file():
        raise SystemExit(f"error: no dynlaw sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import dynlaw

    if Path(dynlaw.__file__).resolve().parent != SRC / "dynlaw":
        raise SystemExit(f"error: imported dynlaw from {dynlaw.__file__}, not {SRC}")


def _import_times(repeats: int) -> list[tuple[float, float]]:
    """(seconds, kernel seconds) of each of ``repeats`` imports of dynlaw,
    one after another, each in a fresh interpreter and followed by the
    calibration kernel in this process (see workloads.py)."""
    import workloads

    workloads._kernel()  # warm the kernel's code paths
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _TIME_IMPORT, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append((float(proc.stdout), workloads.step_kernel_s()))
    return times


def format_lines(result, trace: bool) -> list[str]:
    """Human-readable lines: each metric with unit and direction, then
    failures by class, violated checks and absent layer functions."""
    import workloads

    spec = workloads.per_layer_spec() if trace else workloads.END_TO_END
    lines = [f"{name} = {m['value']!r} {m['unit']}  ({spec[name][1]} is better)"
             for name, m in result.metrics.items()]
    lines.append("raw wall figures: " + json.dumps(result.raw, sort_keys=True))
    lines += [f"failed: {count} x {kind}" for kind, count in sorted(result.failures.items())]
    lines += [f"check violated: {message}" for message in result.violations]
    if result.tracer is not None and result.tracer.absent:
        lines.append("absent: " + ", ".join(result.tracer.absent))
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        _import_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    import workloads

    import_times = _import_times(workloads.SETUP_REPEATS)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               workdir, import_times=import_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = workloads.environment(BLAS_THREAD_VARS)
    for line in format_lines(result, bool(args.trace)):
        print(line)
    print("environment: " + json.dumps(env, sort_keys=True))

    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": env,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures_by_class": result.failures,
        "violations": result.violations,
        "metrics": result.metrics,
        "raw": result.raw,
        "layers": result.layers,
        "absent": result.tracer.absent if result.tracer is not None else [],
    }
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    if result.tracer is not None:
        result.tracer.dump(f"{stem}.spans.json")

    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
