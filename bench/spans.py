"""In-memory span recorder used by the traced benchmark run.

A span is ``[name, start, end, parent, items]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``items`` is the count of work items
the call handled (images, planes, calls), recorded where the work happens so
per-item ratios come from the same boundary as the time.

Spans are taken from outside the library: the benchmark wraps its own calls
into the public API and, for the duration of a traced unit, shadows layer
``forward``/``backward`` and module functions with recording wrappers.  The
library itself carries no tracing code.
"""

from __future__ import annotations

import contextlib
import json
import time

NAME, START, END, PARENT, ITEMS = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str, items: int = 1):
        rec = [name, time.perf_counter(), 0.0,
               self._open[-1] if self._open else -1, items]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name, items=None):
        """``fn`` recording one span per call.

        ``name`` is a string or a function of the call's arguments returning
        the span name, or None to call through without a span; ``items``
        maps the arguments to the item count.
        """
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if label is None:
                return fn(*args, **kwargs)
            count = items(*args, **kwargs) if items else 1
            with self.span(label, count):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patch(self, owner, attr: str, name, items=None):
        """Shadow ``owner.attr`` with a recording wrapper, restoring it on exit.

        Works for module functions (looked up at call time by the library)
        and for bound methods of one object (an instance attribute shadows the
        class method until it is deleted again).
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, items))
        try:
            yield
        finally:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def totals(self) -> dict:
        """name -> [seconds, items, calls] summed over all spans of that name."""
        out = {}
        for s in self.spans:
            acc = out.setdefault(s[NAME], [0.0, 0, 0])
            acc[0] += s[END] - s[START]
            acc[1] += s[ITEMS]
            acc[2] += 1
        return out

    def self_seconds(self) -> dict:
        """name -> summed self time: each span's duration less its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = {}
        for s, c in zip(self.spans, child):
            out[s[NAME]] = out.get(s[NAME], 0.0) + (s[END] - s[START]) - c
        return out

    def dump(self, path, origin: float) -> None:
        rows = [{"name": s[NAME], "start": s[START] - origin,
                 "end": s[END] - origin, "parent": s[PARENT], "items": s[ITEMS]}
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


class NullTracer:
    """Stand-in for untimed or untraced runs: no spans, no patching."""

    def span(self, name, items=1):
        return contextlib.nullcontext()

    def patch(self, owner, attr, name, items=None):
        return contextlib.nullcontext()
