"""In-memory spans around the public functions of the hydropde modules.

Each public function and public method defined in a layer module is replaced
by a wrapper that records a span: name, start, end and the index of the span
that was open when it started.  A function is replaced under every name it
is bound to in the package, so `from .nonlinear import F` in `evolution`
calls the wrapper too.  Spans stay in memory until `write` at the end of the
run.
"""

import importlib
import inspect
import sys
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

LAYERS = ("config", "grid", "fields", "projection", "stokes", "nonlinear",
          "evolution", "diagnostics", "io", "cli")


class Tracer:
    def __init__(self):
        self.names = []      # per span
        self.starts = []
        self.ends = []
        self.parents = []    # index of the enclosing span, -1 at the top
        self._open = []

    def _enter(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _exit(self, idx):
        self.ends[idx] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name, fn):
        enter, leave = self._enter, self._exit

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return traced

    def instrument(self, package="hydropde"):
        """Wrap every public function and method of the layer modules.

        Returns the span names installed.
        """
        originals = {}   # id(function) -> (function, wrapper)
        installed = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    span = f"{layer}.{name}"
                    originals[id(obj)] = (obj, self.wrap(span, obj))
                    installed.append(span)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            span = f"{layer}.{name}.{mname}"
                            setattr(obj, mname, self.wrap(span, meth))
                            installed.append(span)
        # rebind each function wherever the package looks it up
        for mname, mod in list(sys.modules.items()):
            if mname != package and not mname.startswith(package + "."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        return installed

    def aggregate(self):
        """{span name: {calls, ms, self_ms}}.

        ms counts only the outermost span of a name, so a function that
        reaches itself again is not counted twice; self_ms is a span's
        duration minus the durations of its direct child spans.
        """
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {}
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            agg = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            agg["calls"] += 1
            agg["self_ms"] += 1e3 * (dur - child[i])
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                agg["ms"] += 1e3 * dur
        return out

    def write(self, path):
        """All spans as CSV: name, start and end in ms from the first span, parent."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_ms,end_ms,parent\n")
            for name, s, e, p in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(f"{name},{1e3 * (s - t0)!r},{1e3 * (e - t0)!r},{p}\n")
