"""Self-time spans around each layer's public entry points.

The traced run replaces entry points on the live program objects (and a
few module-level functions) with timing wrappers, from this file only.
A span's *self time* is its duration minus the part of it covered by
wrapped children.  Spans nest per thread.

The shard router scatters a read to its shards on a thread pool.  Spans
that open on such a thread have no parent there; they are gathered by
the router span that was open on the client thread.  That span's self
time loses the union of their intervals, and because shard spans of one
scatter overlap in time (they share the interpreter lock), their self
times are scaled by ``union / sum`` of their durations, so every instant
of an operation is charged once.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["LayerTracer"]

_clock = time.perf_counter_ns


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


class LayerTracer:
    """Collects per-layer self time and call counts, per operation."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._client = threading.get_ident()
        #: Current operation: layer key -> self ns / calls.
        self.self_ns: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Client-thread spans with no wrapped parent (what an op covers).
        self.root_ns = 0
        #: One entry per shard reply holding at least one record (appends
        #: are atomic across the scatter threads).
        self._useful: list[int] = []
        #: Spans closed on other threads: (key, self, start, end, is_root).
        self._foreign: list[tuple[str, int, int, int, bool]] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- installing -----------------------------------------------------
    def install(self, points: list[tuple[Any, str, str]]) -> None:
        for owner, attr, key in points:
            original = getattr(owner, attr)
            own = isinstance(owner, type) or attr in getattr(owner, "__dict__", {})
            self._patches.append((owner, attr, original if own else None, own))
            setattr(owner, attr, self._wrap(original, key))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _wrap(self, fn: Callable, key: str) -> Callable:
        tracer = self
        local = self._local
        client = self._client
        gathers = key.startswith("sharding.router")
        worker = key == "sharding.worker"

        def span(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            mark = len(tracer._foreign) if gathers else 0
            frame = [0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if threading.get_ident() == client:
                    if gathers:
                        own -= tracer._absorb(mark)
                    tracer.self_ns[key] += own
                    tracer.calls[key] += 1
                    if not stack:
                        tracer.root_ns += duration
                else:
                    tracer._foreign.append((key, own, start, end, not stack))
            if worker and result.ok and result.value:
                tracer._useful.append(1)
            return result

        return span

    def _absorb(self, mark: int) -> int:
        """Fold spans closed on other threads since ``mark`` into the
        current operation; returns the time they covered."""
        foreign = self._foreign[mark:]
        del self._foreign[mark:]
        roots = [(s, e) for _, _, s, e, root in foreign if root]
        if not roots:
            return 0
        covered = _union_ns(roots)
        scale = covered / sum(e - s for s, e in roots)
        for key, own, _, _, _ in foreign:
            self.self_ns[key] += own * scale
            self.calls[key] += 1
        return covered

    # -- per-operation bookkeeping --------------------------------------
    def take(self) -> tuple[dict[str, float], dict[str, int], int, int]:
        """Return and reset the current operation's figures."""
        out = (self.self_ns, self.calls, self.root_ns, len(self._useful))
        self.self_ns = defaultdict(float)
        self.calls = defaultdict(int)
        self.root_ns = 0
        self._useful = []
        return out
