"""Span tracer that wraps library functions from outside the library.

Each wrapped function records a span (name, start, end, parent) while the
tracer is active.  The benchmark switches the tracer on only around the
timed calls, so input generation and correctness checks leave no spans.
Spans stay in memory until the run ends; self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "stablebetti"


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.calls = Counter()
        self.counts = Counter()  # extra per-layer counts, e.g. search candidates
        self._patches = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        """A stand-in for fn that records spans under name."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's time between
            # yields is not charged to the generator
            def gen_wrapper(*args, **kwargs):
                if tracer.active:
                    tracer.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name) if tracer.active else None
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if idx is not None:
                            tracer._close(idx)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            return out

        return wrapper

    def install(self, targets):
        """Replace every attribute of a stablebetti module that is one of
        the target functions, including names other modules imported.

        targets: (span name, function, what the span wraps) triples; the
        last is the function itself or a wrapper around it.
        """
        mods = [m for key, m in list(sys.modules.items())
                if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, fn, impl in targets:
            stand_in = self.wrap(name, impl)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, stand_in)
                        self._patches.append((mod, attr, fn))

    def install_init(self, name, cls):
        """Record a span under name for every construction of cls."""
        fn = cls.__init__
        cls.__init__ = self.wrap(name, fn)
        self._patches.append((cls, "__init__", fn))

    def uninstall(self):
        while self._patches:
            obj, attr, fn = self._patches.pop()
            setattr(obj, attr, fn)

    def self_times(self):
        """Map span name -> total self time in seconds, plus the total
        duration of top-level spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        top = 0.0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
            if parent < 0:
                top += end - start
        return out, top

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "names": names,
                    "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
