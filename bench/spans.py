"""Spans recorded from outside the library, and their self-time arithmetic.

``Tracer.install`` replaces every reference to a chosen set of enrichkit
functions (module globals and class attributes alike, since the modules bind
one another's functions with ``from .x import f``) with a wrapper that keeps
an in-memory span: name, start, end and parent.  ``uninstall`` puts the
originals back.

Two kinds of wrapper exist:

* span wrappers, for the coarse public functions.  A generator function gets
  one span per resumption, so the consumer's work between two yields is not
  charged to the generator; together the segments cover its whole iteration.
* light wrappers, for the finite-set primitives that run about a million
  times per colimit pass.  They count calls and add up time but record no
  span.  The wrapped function runs with a private copy of its module's
  globals, so its calls to sibling primitives are neither wrapped nor
  counted: only calls entering the layer from outside pay for tracing.
"""

import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict

ROOT = -1


def self_times(spans):
    """Self time per span name.

    spans: list of (name, start, end, parent, light) where parent is the
    index of the enclosing span or ROOT, and light is the time light-wrapped
    calls took inside the span's interval, its children's included.  A
    span's self time is its duration minus the part of its interval that
    child spans cover, minus the light time not already inside a child.
    """
    children = defaultdict(list)
    for _, start, end, parent, light in spans:
        if parent != ROOT:
            children[parent].append((start, end, light))
    out = defaultdict(float)
    for i, (name, start, end, _, light) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce, clight in sorted(children.get(i, ())):
            light -= clight
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[name] += (end - start) - covered - light
    return dict(out)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # Light wrappers close over these lists and update them in place:
        # the running light time, and [calls, seconds] per light function.
        self._light_total = [0.0]
        self._light_cells = {}
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []
        self.stack = [ROOT]
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = {}
        self._light_total[0] = 0.0
        for _, cell in self._light_cells.values():
            cell[:] = [0, 0.0]

    # -- span bookkeeping
    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self.stack[-1],
                           self._light_total[0]])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = self.clock()
        span[4] = self._light_total[0] - span[4]
        self.stack.pop()

    def call_count(self, name):
        light = self._light_cells.get(name)
        return self.calls[name] + (light[1][0] if light else 0)

    def light_seconds(self, layer):
        return sum(cell[1] for lay, cell in self._light_cells.values() if lay == layer)

    def parent_name(self):
        top = self.stack[-1]
        return None if top == ROOT else self.spans[top][0]

    def count(self, name, k=1):
        self.counts[name] += k

    def maximum(self, name, value):
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def self_times(self):
        """Self time per span name, plus the summed time per light layer."""
        out = self_times(self.spans)
        for layer, _ in self._light_cells.values():
            out[layer] = self.light_seconds(layer)
        return out

    def dump(self, path):
        """Write the spans recorded since the last reset as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "light"],
                       "spans": self.spans}, fh)

    # -- wrappers
    def span_wrapper(self, name, fn, after=None, before=None):
        """before(tracer, args, kwargs) -> state runs ahead of the call;
        after(tracer, result, args, kwargs, state) runs on its result, or on
        each item a generator yields."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    if after:
                        after(tracer, item, args, kwargs, None)
                    yield item
        else:
            def traced(*args, **kwargs):
                tracer.calls[name] += 1
                state = before(tracer, args, kwargs) if before else None
                idx = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if after:
                    after(tracer, result, args, kwargs, state)
                return result
        traced.__wrapped__ = fn
        return traced

    def light_wrappers(self, layer, module):
        """{function: wrapper} for the public functions of ``module``."""
        private_globals = dict(vars(module))
        out = {}
        for fname, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not fname.startswith("_")):
                inner = types.FunctionType(fn.__code__, private_globals, fname,
                                           fn.__defaults__, fn.__closure__)
                inner.__kwdefaults__ = fn.__kwdefaults__
                out[fn] = self._light_wrapper(layer, f"{layer}.{fname}", fn, inner)
        return out

    def _light_wrapper(self, layer, name, fn, inner):
        cell = [0, 0.0]
        self._light_cells[name] = (layer, cell)
        total = self._light_total
        clock = self.clock
        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                cell[0] += 1
                it = inner(*args, **kwargs)
                while True:
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        cell[1] += dt
                        total[0] += dt
                    yield item
        else:
            def traced(*args, **kwargs):
                cell[0] += 1
                t0 = clock()
                try:
                    return inner(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    cell[1] += dt
                    total[0] += dt
        traced.__wrapped__ = fn
        return traced

    # -- installation
    def install(self, package, replacements):
        """Replace each original function by its wrapper everywhere it is
        bound inside ``package``: module namespaces and class dicts.

        replacements: {original function: wrapper}.
        """
        by_id = {id(fn): wrapper for fn, wrapper in replacements.items()}
        for holder in _holders(package):
            for attr, value in list(vars(holder).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, value in reversed(self._patches):
            setattr(holder, attr, value)
        self._patches = []


def _holders(package):
    """The package's modules and every class defined in them."""
    prefix = package + "."
    out = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(prefix)):
            continue
        out.append(module)
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == modname:
                out.append(value)
    return out
