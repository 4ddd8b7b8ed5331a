"""In-memory span tracer installed around the program's layer entry points.

The program is not changed: ``patch_function`` and ``patch_method`` replace
an entry point, at every module that binds it by name, with a wrapper that
records a span (layers.py lists the entry points).  A span has a name,
start, end and parent span; a layer's self time is its span's duration
minus the time covered by its direct child spans.

Two kinds of wrapped calls:

* layer entry points (``keep=True``) store their span and count per phase;
* exact-arithmetic operations, called millions of times per census, are
  folded into per-name call counts and self times at span end instead of
  being stored, which keeps the trace to tens of thousands of spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        # stored spans: [name, start, end, parent index or -1, phase]
        self.spans: list[list] = []
        # root frame of the call stack; see ``enter`` for the layout
        self.stack: list[list] = [[0.0, -1, None, False, 0.0]]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.phase = "setup"
        self.phase_calls: defaultdict = defaultdict(Counter)
        self.phase_total_s: defaultdict = defaultdict(lambda: defaultdict(float))

    def enter(self, name: str, keep: bool) -> list:
        """Open a span; returns the frame that ``leave`` closes."""
        parent = self.stack[-1]
        if keep:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent[1], self.phase])
        else:
            index = parent[1]
        # [child time, kept span index, parent frame, kept, start]
        frame = [0.0, index, parent, keep, 0.0]
        self.stack.append(frame)
        frame[4] = perf_counter()
        return frame

    def leave(self, name: str, frame: list) -> float:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[4]
        frame[2][0] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - frame[0]
        self.total_s[name] += duration
        if frame[3]:
            span = self.spans[frame[1]]
            span[1], span[2] = frame[4], end
            self.phase_calls[self.phase][name] += 1
            self.phase_total_s[self.phase][name] += duration
        return duration

    def wrap(self, name: str, fn, keep: bool = True, observe=None):
        """Wrapper recording one span per call of fn.

        ``observe(args, result, duration)`` runs after the span closes and
        may add derived counts; its own time is not charged to the span.
        """
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = leave(name, frame)
            if observe is not None:
                observe(args, result, duration)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """One stored span around a block."""
        frame = self.enter(name, True)
        try:
            yield
        finally:
            self.leave(name, frame)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
        }


def patch_function(tracer: Tracer, name: str, original, keep: bool = True,
                   observe=None) -> int:
    """Replace ``original`` at every srgfusion module that binds it by name.

    Functions imported with ``from .fusion import bm_check`` are separate
    bindings; wrapping only the defining module would miss every call made
    through the others.  Returns the number of bindings replaced.
    """
    wrapper = tracer.wrap(name, original, keep=keep, observe=observe)
    replaced = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "srgfusion"
                                  or modname.startswith("srgfusion.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                replaced += 1
    return replaced


def patch_method(tracer: Tracer, name: str, cls, attr: str, keep: bool = False,
                 observe=None) -> None:
    setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), keep=keep,
                                   observe=observe))
