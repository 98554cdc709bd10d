"""Span tracing for the benchmark, applied from outside the program.

`Tracer.wrap` replaces a module-level function (or a class attribute) with
a wrapper that records one span per call: name, start, end, the span that
was open when it started (its parent), a sample id and an optional work
count. Callers inside the package look functions up through their module's
globals or through module attributes, so a replaced attribute is seen by
every caller. `Tracer.restore` puts the originals back, so untraced passes
run the unmodified program.

Self time of a span is its duration minus the durations of its direct
children; spans of one layer never nest inside each other here, so the sum
of self times per name is that layer's busy time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

_NAME, _START, _END, _PARENT, _SAMPLE, _COUNT = range(6)


class Tracer:
    """Records spans in memory while wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, *, sample=None, count=None) -> None:
        """Replace `owner.attr` with a span-recording wrapper.

        `sample(args, kwargs)` may return a sample id for the span (otherwise
        it inherits its parent's); `count(args, kwargs, result)` may return a
        work count (instances parsed, IoU pairs, segments, bytes).
        """
        original = getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sample_id = sample(args, kwargs) if sample is not None else None
            if sample_id is None and parent >= 0:
                sample_id = spans[parent][_SAMPLE]
            record = [name, clock(), 0.0, parent, sample_id, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
            if count is not None:
                record[_COUNT] = count(args, kwargs, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def span(self, name: str, sample_id=None) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, sample_id)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self, roots: str) -> dict[str, dict]:
        """Per-name totals: calls, total and self seconds, summed counts.

        The entry under `roots` also gets `root_s`, the summed duration of
        the top-level spans of that name (the denominator for shares).
        """
        child_s = [0.0] * len(self.spans)
        for record in self.spans:
            if record[_PARENT] >= 0:
                child_s[record[_PARENT]] += record[_END] - record[_START]
        table: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}
        )
        root_s = 0.0
        for index, record in enumerate(self.spans):
            duration = record[_END] - record[_START]
            row = table[record[_NAME]]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_s[index]
            if record[_COUNT] is not None:
                row["count"] += record[_COUNT]
            if record[_NAME] == roots and record[_PARENT] < 0:
                root_s += duration
        table[roots]["root_s"] = root_s
        return dict(table)

    def write(self, path: Path, extra: dict) -> None:
        """Write spans (times in µs from the first span) plus `extra`."""
        origin = self.spans[0][_START] if self.spans else 0.0
        rows = [
            [
                r[_NAME],
                round((r[_START] - origin) * 1e6, 1),
                round((r[_END] - origin) * 1e6, 1),
                r[_PARENT],
                r[_SAMPLE],
                r[_COUNT],
            ]
            for r in self.spans
        ]
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_us", "end_us", "parent", "sample_id", "count"]
        doc["spans"] = rows
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


class _Span:
    def __init__(self, tracer: Tracer, name: str, sample_id) -> None:
        self._tracer = tracer
        self._record = [name, 0.0, 0.0, -1, sample_id, None]

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack
        self._record[_PARENT] = stack[-1] if stack else -1
        stack.append(len(tracer.spans))
        tracer.spans.append(self._record)
        self._record[_START] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._record[_END] = time.perf_counter()
        self._tracer._stack.pop()
