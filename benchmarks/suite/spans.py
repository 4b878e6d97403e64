"""In-memory spans recorded from the harness, around calls into a layer.

:meth:`SpanRecorder.wrap` turns a function into one that records a span
(name, start, end, parent) each time it runs while the recorder is
``active``; :func:`install` / :func:`remove` swap such wrappers in and
out of class and module attributes, so nothing under ``src/`` changes.

A layer's **self time** is its spans' duration minus the part their
child spans cover.  Totals are accumulated per name as spans close
(the relay workload closes millions); the first ``keep`` spans are also
kept whole and dumped as a chrome trace when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class SpanRecorder:
    def __init__(self, keep: int = 200_000, clock=perf_counter_ns) -> None:
        #: Spans are recorded only while True (the meter raises it for
        #: the length of each timed call).
        self.active = False
        self.clock = clock
        self.keep = keep
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.child_ns: list[int] = []
        #: Duration of spans with no parent: what the trace accounts for.
        self.top_ns = 0
        self.spans = 0
        #: Open spans, innermost last: [child_ns so far, span index].
        self._stack: list[list[int]] = []
        #: (name id, start ns, end ns, span index, parent index or -1).
        self.kept: list[tuple[int, int, int, int, int]] = []
        #: Counts and maxima taken at the same boundaries as the spans.
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.maxima: defaultdict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.child_ns.append(0)
        return nid

    def wrap(self, fn, name: str, after=None):
        """``fn`` recording one ``name`` span per call while active.

        ``after(recorder, args, result)`` runs once the span has closed
        and takes the boundary's counts (bytes out, hits, drops).
        """
        rec = self
        nid = self._name_id(name)
        clock = self.clock
        stack = self._stack
        calls, total_ns, child_ns = self.calls, self.total_ns, self.child_ns
        kept, keep = self.kept, self.keep

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            index = rec.spans
            rec.spans = index + 1
            parent = stack[-1] if stack else None
            frame = [0, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                calls[nid] += 1
                total_ns[nid] += duration
                child_ns[nid] += frame[0]
                if parent is None:
                    rec.top_ns += duration
                else:
                    parent[0] += duration
                if index < keep:
                    kept.append((
                        nid, t0, t1, index,
                        -1 if parent is None else parent[1],
                    ))
            if after is not None:
                after(rec, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- Reading the totals ---------------------------------------------------

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_ns(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.total_ns[nid] - self.child_ns[nid]

    def chrome_trace(self) -> dict:
        """The kept spans as chrome://tracing complete ("X") events."""
        if not self.kept:
            return {"traceEvents": []}
        origin = min(span[1] for span in self.kept)
        events = [
            {
                "name": self.names[nid],
                "cat": self.names[nid].split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent},
            }
            for nid, start, end, index, parent in self.kept
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "spans_recorded": self.spans,
                "spans_kept": len(self.kept),
            },
        }

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            json.dump(self.chrome_trace(), out)


def install(recorder: SpanRecorder, specs) -> list:
    """Swap wrappers in; returns what :func:`remove` needs to undo it.

    Each spec is ``(owner, attribute, span name, after hook)`` where
    ``owner`` is a class or a module.  A function imported by name
    (``from x import f``) lives in the *importing* module's namespace,
    so that module is the owner to patch.
    """
    undo = []
    for owner, attribute, name, after in specs:
        original = vars(owner)[attribute]
        if isinstance(original, classmethod):
            wrapper = classmethod(
                recorder.wrap(original.__func__, name, after)
            )
        else:
            wrapper = recorder.wrap(original, name, after)
        setattr(owner, attribute, wrapper)
        undo.append((owner, attribute, original))
    return undo


def remove(undo: list) -> None:
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)
