"""Median, quartiles and relative spread of saved benchmark results.

Usage::

    python3 perfbench/summarize.py RESULTS/highorder-1.txt RESULTS/highorder-2.txt ...

Each file holds the standard output of one ``run.py`` invocation; its
last line is the result object.  Files group by name with a trailing
``-<seed>`` removed, so save them as ``<workload>-<seed>.txt``.  Prints
one JSON object: per group and metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread (third
minus first quartile, as a share of the median) and the run count, plus
the summed attempted and failed counts and whether every run was
correct.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path


def load(path) -> dict:
    lines = Path(path).read_text().strip().splitlines()
    return json.loads(lines[-1])


def summarize(results: list[dict]) -> dict:
    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        metrics[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "runs": len(values),
        }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(paths) -> int:
    groups: dict[str, list[dict]] = {}
    for path in paths:
        key = re.sub(r"-\d+$", "", Path(path).stem)
        groups.setdefault(key, []).append(load(path))
    print(json.dumps({k: summarize(v) for k, v in sorted(groups.items())}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
