"""In-memory span tracing for the traced benchmark run.

A span records one call into a layer: name, start, end, parent span and run
id. Spans are kept in a list and written out when the benchmark ends. Calls
nested inside a public driver (``DDPG.update`` inside ``train_policy``,
``write_event_files`` inside ``run_streaming_estimate``) are reached by
temporarily replacing that public function or method with a wrapper; the
replacement exists only inside ``Tracer.patched`` and only in the traced run.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager

__all__ = ["Tracer"]


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
        )
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets: list[tuple[object, str, str]]):
        """Trace calls to each ``(owner, attribute, span name)``.

        A module-level function is replaced in every ``repro`` module that
        binds it, so callers that imported it by name are traced too. A
        method is replaced on its class. Everything is restored on exit."""
        saved: list[tuple[object, str, object]] = []
        try:
            for owner, attr, name in targets:
                fn = getattr(owner, attr)
                wrapper = self._wrap(fn, name)
                if isinstance(owner, type):
                    holders = [owner]
                else:
                    holders = [
                        m
                        for k, m in list(sys.modules.items())
                        if k.split(".")[0] == "repro" and getattr(m, attr, None) is fn
                    ]
                for h in holders:
                    saved.append((h, attr, fn))
                    setattr(h, attr, wrapper)
            yield self
        finally:
            for h, attr, fn in reversed(saved):
                setattr(h, attr, fn)

    # -- summaries ---------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Count, total time and self time of the spans of each name.

        Self time is a span's duration minus the part its child spans cover
        (children of one span never overlap: tracing is single-threaded)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            d = s["end"] - s["start"]
            agg = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += d
            agg["self_s"] += d - child[i]
        return out

    def _stat(self, name: str, key: str) -> float:
        return self.summary().get(name, {}).get(key, 0)

    def total(self, name: str) -> float:
        return self._stat(name, "total_s")

    def count(self, name: str) -> int:
        return self._stat(name, "count")

    def self_time(self, name: str) -> float:
        return self._stat(name, "self_s")
