"""In-memory spans recorded from outside the solver, and their self times.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span in the same list, or -1.  Spans are appended when a wrapped
call begins, so a parent always precedes its children.
"""

import time
from collections import Counter, defaultdict


class Tracer:
    """Wraps callables so that each call records one span.

    The solver runs in one thread, so a plain stack gives each span its
    parent.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def counts(self):
        """Number of spans per name."""
        return Counter(s[0] for s in self.spans)


def self_times(spans):
    """Per-span self time: duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping children
    count once, so a self time is never negative.
    """
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(idx, ()), key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans, within=None):
    """Sum of self times per span name.

    With ``within`` set, only spans strictly below a span of that name
    count.
    """
    selfs = self_times(spans)
    inside = [False] * len(spans)
    if within is not None:
        for idx, span in enumerate(spans):
            p = span[3]
            inside[idx] = p >= 0 and (spans[p][0] == within or inside[p])
    totals = defaultdict(float)
    for idx, span in enumerate(spans):
        if within is None or inside[idx]:
            totals[span[0]] += selfs[idx]
    return dict(totals)
