"""Span recording around the public functions of the loopfiber modules.

The recorder wraps every public (non-underscore) function defined in one of
the seven layer modules and installs the wrapper under every name that binds
the function in any loopfiber module namespace, so calls across modules
(`decomp` calling `loopgroup.loop_from_subspace` through its own import) are
caught too.  Each call becomes a span (name, start, end, parent, iteration);
spans stay in memory until the run writes them out.  The forms returned by the
connection presets are wrapped in a counter instead of a span, because the
transport calls them thousands of times per loop.

This module also parses `python -X importtime` output into per-layer import
times.
"""

import dataclasses
import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "fourier", "subspaces", "loopgroup", "transport",
          "twistbundle", "decomp")
PRESETS = ("flat", "abelian2d", "monopole", "su2sample")
FORM_EVALS = "transport.form_evals"


class Tracer:
    """In-memory span recorder; `iteration` tags every span opened."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, iteration]
        self.form_evals = Counter()  # iteration -> connection-form calls
        self.iteration = None
        self._stack = []
        self._installed = []     # (namespace, name, original)

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.iteration])
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        return wrapper

    def _counting_preset(self, preset):
        counts = self.form_evals

        @functools.wraps(preset)
        def wrapper(*args, **kwargs):
            spec = preset(*args, **kwargs)
            form = spec.form

            def counted(x, v):
                counts[self.iteration] += 1
                return form(x, v)

            return dataclasses.replace(spec, form=counted)

        return wrapper

    def install(self):
        """Wrap the public functions of every layer module in place."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "loopfiber" or name.startswith("loopfiber.")}
        wrapped = {}
        for layer in LAYERS:
            mod = modules[f"loopfiber.{layer}"]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                inner = obj
                if layer == "transport" and name in PRESETS:
                    inner = self._counting_preset(obj)
                wrapped[id(obj)] = self._span(f"{layer}.{name}", inner)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._installed.append((mod, name, obj))
                    setattr(mod, name, wrapped[id(obj)])

    def uninstall(self):
        for mod, name, original in reversed(self._installed):
            setattr(mod, name, original)
        self._installed.clear()

    def absorb(self, spans, form_evals, iteration):
        """Append spans recorded in a child process under `iteration`."""
        offset = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1,
                               iteration])
        self.form_evals[iteration] += form_evals


def per_iteration_totals(spans, form_evals):
    """Self time and call count per function and per layer, per iteration.

    A span's self time is its duration minus the durations of its child
    spans; the recorder is single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(Counter)
    for (name, start, end, _, iteration), inner in zip(spans, child_time):
        own = end - start - inner
        layer = name.split(".", 1)[0]
        bucket = totals[iteration]
        bucket[f"{layer}.self_s"] += own
        bucket[f"{name}.self_s"] += own
        bucket[f"{name}.calls"] += 1
    for iteration, count in form_evals.items():
        totals[iteration][FORM_EVALS] += count
    return totals


def median_per_iteration(totals, iterations, key):
    """Median over `iterations` of one total; 0 where it was never recorded."""
    return statistics.median(totals[i][key] if i in totals else 0
                             for i in iterations)


def import_breakdown(stderr_text):
    """Seconds spent importing each layer, from `-X importtime` output.

    Every imported module is charged to its nearest loopfiber ancestor in
    the import tree (itself when it is a layer module), so a third-party
    package counts toward the loopfiber module that first pulled it in and
    nested loopfiber modules are not counted twice.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header row
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(fields[0])))
    seconds = Counter()
    ancestors = []  # (depth, owning layer) from the root down
    # importtime prints children before their parent; reversed, every row
    # follows its parent, as in a pre-order walk.
    for depth, name, self_us in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        layer = name[len("loopfiber."):] if name.startswith("loopfiber.") else None
        owner = layer if layer in LAYERS else (
            ancestors[-1][1] if ancestors and not name.startswith("loopfiber")
            else None)
        ancestors.append((depth, owner))
        if owner is not None:
            seconds[owner] += self_us * 1e-6
    return {layer: seconds[layer] for layer in LAYERS}
