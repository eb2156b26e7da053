"""In-memory spans around calls into the program, and their per-layer sums.

A span is `[name, start, end, parent, counts]`: `parent` is the index of the
enclosing span in the same list (-1 at top level) and `counts` a dict of the
numbers taken from the call's arguments and result. Times are
`time.monotonic()` seconds, which on Linux is one clock for every process, so
a child's spans line up with the parent's spawn and exit times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

# counts that are averaged or maxed over calls instead of summed
COMBINE = {"acceptance": "mean", "offsets_kept_frac": "mean", "peak_mb": "max"}


class Tracer:
    """Records one span per wrapped call; single-threaded callers only.

    A target with `memory` set records the tracemalloc peak of its first
    call only: tracemalloc slows every allocation while it runs, and on
    chaos-sweep tracing every `solve_k1` call made the traced child half as
    slow again, against 2% without it.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._memory_done = set()

    def wrap(self, fn, span, count=None, memory=False):
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [span, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            own_trace = (memory and span not in self._memory_done
                         and not tracemalloc.is_tracing())
            if own_trace:
                self._memory_done.add(span)
                tracemalloc.start()
            rec[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic()
                self._stack.pop()
                if own_trace:
                    rec[4]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4].update(count(bound.arguments, result))
            return result
        return wrapper

    def install(self, targets) -> None:
        """Wrap each target where it is defined and wherever it was imported.

        Modules such as `hsgas.cli` and `hsgas.bg` bind layer functions at
        import time, so every loaded `hsgas` module attribute that is the
        original function is replaced by the wrapper too. Methods are
        wrapped on their class.
        """
        for t in targets:
            mod_name, _, cls_name = t.owner.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, t.attr)
            wrapper = self.wrap(original, t.span, t.count, t.memory)
            setattr(owner, t.attr, wrapper)
            for name, mod in list(sys.modules.items()):
                if name == "hsgas" or name.startswith("hsgas."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for name, lo, hi, parent, _ in spans:
        if parent >= 0:
            children[parent].append((lo, hi))
    return [(s[2] - s[1]) - _covered(children[i]) for i, s in enumerate(spans)]


def _outermost_of_name(spans) -> list:
    """Whether no ancestor of a span carries the same name (no double count)."""
    out = []
    for s in spans:
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        out.append(p < 0)
    return out


def aggregate(spans, names) -> dict:
    """Per span name: `.s`, `.self_s`, `.calls` and every combined count.

    Names that recorded no span read 0, so every workload reports the same
    metric set.
    """
    out = {}
    for n in names:
        out[f"{n}.s"] = out[f"{n}.self_s"] = 0.0
        out[f"{n}.calls"] = 0
    seen = {}
    for s, self_s, outer in zip(spans, self_times(spans),
                                _outermost_of_name(spans)):
        name = s[0]
        if outer:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (s[2] - s[1])
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for key, value in s[4].items():
            seen.setdefault(f"{name}.{key}", []).append(value)
    for key, values in seen.items():
        rule = COMBINE.get(key.rsplit(".", 1)[1], "sum")
        if rule == "mean":
            out[key] = sum(values) / len(values)
        elif rule == "max":
            out[key] = max(values)
        else:
            out[key] = sum(values)
    return out


def coverage(spans, lo: float, hi: float) -> float:
    """Share of [lo, hi] covered by top-level spans."""
    if hi <= lo:
        return 0.0
    parts = [(max(s[1], lo), min(s[2], hi)) for s in spans if s[3] < 0]
    return _covered([p for p in parts if p[1] > p[0]]) / (hi - lo)
