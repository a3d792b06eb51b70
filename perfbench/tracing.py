"""Outside-in layer tracing for the dynlaw benchmark.

The tracer wraps the public functions of each dynlaw module at every
module attribute that refers to them, so a call is recorded whichever
module resolves it: ``dynlaw.codec.eigendecompose``,
``dynlaw.fitting.run_recursion``, ``dynlaw.cli.read_wav`` and so on.
Nothing inside the program changes; uninstalling restores every
attribute.

Each call becomes a span (name, start, end, parent span, clip id) held
in memory and written out by ``dump``.  Per function the tracer counts
calls, failures by exception class and self time: the span's duration
minus the time its child spans cover.  Self time is also split by the
outermost codec entry point on the stack (compress, decompress, sweep
or random_baseline), or ``setup`` / ``other`` when none is.

A listed function that the program no longer defines is reported as
absent instead of raising, so the benchmark keeps running after a
change that removes or renames one.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs of the public functions the workloads reach.
LAYER_FUNCTIONS = (
    ("embedding", "embed"),
    ("spectral", "correlation"),
    ("spectral", "eigendecompose"),
    ("spectral", "extract_law"),
    ("lawforms", "weights_to_roots"),
    ("lawforms", "roots_to_weights"),
    ("lawforms", "run_recursion"),
    ("fitting", "mode_basis"),
    ("fitting", "fit_amplitudes"),
    ("fitting", "fit_initial_conditions"),
    ("fitting", "reconstruct"),
    ("fitting", "accuracy"),
    ("codec", "compress"),
    ("codec", "decompress"),
    ("codec", "serialize"),
    ("codec", "deserialize"),
    ("codec", "sweep"),
    ("codec", "random_baseline"),
    ("signal_io", "synthesize"),
    ("signal_io", "read_wav"),
    ("signal_io", "write_wav"),
    ("cli", "run"),
)

# Self time of these is split by entry point: the library's inner layers.
SPLIT_FUNCTIONS = tuple(
    f"{m}.{f}" for m, f in LAYER_FUNCTIONS if m in ("embedding", "spectral", "lawforms", "fitting")
)
ENTRY_POINTS = ("compress", "decompress", "sweep", "random_baseline")
FIT_FUNCTIONS = ("fitting.fit_amplitudes", "fitting.fit_initial_conditions")

PACKAGE = "dynlaw"


def _result_count(name: str, result) -> tuple[str, int] | None:
    """Work counted from a call's result, where the layer has one."""
    if name == "embedding.embed":
        return "rows", len(getattr(result, "rows", ()))
    if name == "lawforms.run_recursion":
        return "samples", len(result)
    if name == "cli.run":
        return "exit_nonzero", int(result != 0)
    return None


class _Frame:
    __slots__ = ("name", "start", "child", "span", "fits")

    def __init__(self, name: str, start: float, span: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span
        self.fits = 0


class Tracer:
    """Span recorder with install/uninstall of the attribute wrappers."""

    def __init__(self, functions=LAYER_FUNCTIONS):
        self.functions = tuple(functions)
        self.absent: list[str] = []
        self.paused = False
        self.clip = -1
        self.category = "other"
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[_Frame] = []
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        # spans as parallel columns: name index, start, end, id, parent id,
        # clip; ids count span entries, so a parent's id precedes its children's
        self.spans: tuple[list, ...] = ([], [], [], [], [], [])
        self._next_id = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.failed: defaultdict = defaultdict(Counter)
        self.counts: defaultdict = defaultdict(Counter)
        self.blocks_fitted = 0
        self.blocks_useful = 0

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever a dynlaw module binds it."""
        if self._patched:
            return
        self.absent = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, func_name in self.functions:
            name = f"{module_name}.{func_name}"
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            target = getattr(home, func_name, None)
            if not callable(target):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        self._patched.append((module, attr, target))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, name: str, fn):
        index = self._name_index.setdefault(name, len(self._names))
        if index == len(self._names):
            self._names.append(name)
        entry = name.split(".", 1)[1] if name.startswith("codec.") else None
        if entry not in ENTRY_POINTS:
            entry = None
        fit = name in FIT_FUNCTIONS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            outer_category = tracer.category
            if entry is not None and tracer.category in ("other", "setup"):
                tracer.category = entry
            frame = _Frame(name, 0.0, tracer._next_id)
            tracer._next_id += 1
            stack.append(frame)
            ok = False
            result = None
            frame.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except BaseException as exc:
                tracer.failed[name][type(exc).__name__] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame.start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.child += duration
                category = tracer.category
                tracer.calls[name] += 1
                tracer.self_s[name, category] += duration - frame.child
                cols = tracer.spans
                cols[0].append(index)
                cols[1].append(frame.start)
                cols[2].append(end)
                cols[3].append(frame.span)
                cols[4].append(parent.span if parent is not None else -1)
                cols[5].append(tracer.clip)
                if ok:
                    counted = _result_count(name, result)
                    if counted is not None:
                        tracer.counts[name][counted[0]] += counted[1]
                if fit and ok and category == "compress":
                    for outer in stack:
                        if outer.name == "codec.compress":
                            outer.fits += 1
                            break
                if name == "codec.compress":
                    tracer.blocks_fitted += frame.fits
                    if ok:
                        tracer.blocks_useful += frame.fits
                tracer.category = outer_category

        return wrapper

    # -- results ---------------------------------------------------------

    def self_total(self) -> float:
        """Self time of every span outside set-up."""
        return sum(v for (_, cat), v in self.self_s.items() if cat != "setup")

    def function_self(self, name: str, category: str | None = None) -> float:
        return sum(v for (n, cat), v in self.self_s.items()
                   if n == name and (category is None or cat == category))

    def compress_durations_ms(self) -> list[float]:
        index = self._name_index.get("codec.compress")
        names, starts, ends = self.spans[0], self.spans[1], self.spans[2]
        return [1e3 * (ends[i] - starts[i]) for i in range(len(names)) if names[i] == index]

    def summary(self) -> dict:
        """Every per-function statistic, including all self-time splits."""
        out = {}
        for module_name, func_name in self.functions:
            name = f"{module_name}.{func_name}"
            row = {
                "absent": name in self.absent,
                "calls": self.calls[name],
                "self_s": self.function_self(name),
                "failed": sum(self.failed[name].values()),
                "failed_by_class": dict(self.failed[name]),
                "self_s_by_entry": {cat: v for (n, cat), v in sorted(self.self_s.items()) if n == name},
            }
            row.update(self.counts[name])
            out[name] = row
        return out

    def dump(self, path) -> None:
        """Write the recorded spans as JSON columns."""
        names, starts, ends, ids, parents, clips = self.spans
        base = min(starts) if starts else 0.0
        doc = {
            "names": self._names,
            "name": names,
            "start_s": [s - base for s in starts],
            "end_s": [e - base for e in ends],
            "id": ids,
            "parent": parents,
            "clip": clips,
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)
