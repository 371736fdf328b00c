"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, query id) plus layer counts. Spans are
recorded from the benchmark's own files: around the calls it makes itself,
and around library functions it swaps for timed wrappers while the traced
phase runs (``Tracer.patched``), so the program under test is unchanged.
"""
from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """Stands in for a tracer in the untraced run."""

    qid = None

    def span(self, name, **attrs):
        return nullcontext({})


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.qid: int | None = None
        #: last value returned by each wrapped function, by span name
        self.last: dict[str, object] = {}

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "qid": self.qid,
            **attrs,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(args, result)`` adds layer counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if count is not None:
                    rec.update(count(args, out))
            self.last[name] = out
            return out

        return traced

    @contextmanager
    def patched(self, targets):
        """Swap ``owner.attr`` for a traced wrapper, for each
        ``(owner, attr, span_name, count)``; restore them on exit. A missing
        attribute raises, so a moved layer cannot silently drop its spans."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, count))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec, default=str) + "\n")

    # -- derived per-layer figures ----------------------------------------
    def per_query(self, name: str, field: str | None = None) -> dict[int, float]:
        """Query id -> summed duration (or summed ``field``) of ``name`` spans."""
        out: dict[int, float] = {}
        for rec in self.spans:
            if rec["name"] != name or rec["qid"] is None:
                continue
            v = rec["end"] - rec["start"] if field is None else rec.get(field, 0)
            out[rec["qid"]] = out.get(rec["qid"], 0.0) + v
        return out

    def median_time(self, name: str, scale: float = 1.0) -> float:
        vals = self.per_query(name).values()
        return statistics.median(vals) * scale if vals else 0.0

    def median_diff(self, name: str, minus: str, fallback: str | None = None) -> float:
        """Median over queries of (``name`` time - ``minus`` time), taking
        ``fallback`` in place of ``minus`` for queries without it."""
        a, b = self.per_query(name), self.per_query(minus)
        if fallback is not None:
            b = {**self.per_query(fallback), **b}
        diffs = [a[q] - b[q] for q in a if q in b]
        return statistics.median(diffs) if diffs else 0.0

    def mean_count(self, name: str, field: str, qids) -> float:
        """Mean per query in ``qids`` of ``field`` summed over ``name`` spans."""
        qids = list(qids)
        if not qids:
            return 0.0
        got = self.per_query(name, field)
        return sum(got.get(q, 0.0) for q in qids) / len(qids)
