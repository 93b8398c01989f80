"""Brute-force answer oracle, independent of the program under test.

The oracle keeps its own numpy arrays of every live record (closed boxes
in two dimensions, indexed by record id) and answers the four read
predicates by a full vectorised scan.  It never touches the program's
``Rect`` or geometry code, so a fault there cannot hide in both sides.

Predicates, on closed boxes ``r`` (record) and ``q`` (query):

* intersects: ``r.lo <= q.hi and r.hi >= q.lo`` in every dimension;
* within:     ``q.lo <= r.lo and r.hi <= q.hi`` in every dimension;
* containing: ``r.lo <= q.lo and r.hi >= q.hi`` in every dimension;
* stab(p):    containing the degenerate box ``[p, p]``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Oracle", "compare", "self_check"]


class Oracle:
    """Live record set keyed by record id, with brute-force queries."""

    def __init__(self, capacity: int = 1024) -> None:
        self._lo = np.zeros((capacity, 2))
        self._hi = np.zeros((capacity, 2))
        self._payload = np.full(capacity, -1, dtype=np.int64)
        self._alive = np.zeros(capacity, dtype=bool)
        # Live ids in a dense list (swap-remove) for O(1) random picks.
        self._live: list[int] = []
        self._slot: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._live)

    def _grow(self, rid: int) -> None:
        size = len(self._alive)
        if rid < size:
            return
        new = max(2 * size, rid + 1)
        for name in ("_lo", "_hi"):
            old = getattr(self, name)
            arr = np.zeros((new, 2))
            arr[:size] = old
            setattr(self, name, arr)
        payload = np.full(new, -1, dtype=np.int64)
        payload[:size] = self._payload
        self._payload = payload
        alive = np.zeros(new, dtype=bool)
        alive[:size] = self._alive
        self._alive = alive

    def add(self, rid: int, lo: tuple[float, float], hi: tuple[float, float], payload: int) -> None:
        if rid < 0:
            raise ValueError(f"negative record id {rid}")
        self._grow(rid)
        if self._alive[rid]:
            raise ValueError(f"record id {rid} issued twice")
        self._lo[rid] = lo
        self._hi[rid] = hi
        self._payload[rid] = payload
        self._alive[rid] = True
        self._slot[rid] = len(self._live)
        self._live.append(rid)

    def add_many(self, rids: list[int], lo: np.ndarray, hi: np.ndarray) -> None:
        """Add records ``rids[i]`` with payload ``i``."""
        for i, rid in enumerate(rids):
            self.add(rid, tuple(lo[i]), tuple(hi[i]), i)

    def remove(self, rid: int) -> None:
        self._alive[rid] = False
        slot = self._slot.pop(rid)
        last = self._live.pop()
        if last != rid:
            self._live[slot] = last
            self._slot[last] = slot

    def pick(self, rng: np.random.Generator) -> int:
        """A uniformly random live record id."""
        return self._live[int(rng.integers(len(self._live)))]

    def box(self, rid: int) -> tuple[tuple[float, float], tuple[float, float]]:
        lo, hi = self._lo[rid], self._hi[rid]
        return (float(lo[0]), float(lo[1])), (float(hi[0]), float(hi[1]))

    def payload(self, rid: int) -> int:
        return int(self._payload[rid])

    def live(self) -> dict[int, tuple[tuple[float, float], tuple[float, float]]]:
        return {rid: self.box(rid) for rid in self._live}

    # -- queries --------------------------------------------------------
    def _ids(self, mask: np.ndarray) -> set[int]:
        return set(np.flatnonzero(mask & self._alive).tolist())

    def search(self, qlo, qhi) -> set[int]:
        lo, hi = self._lo, self._hi
        return self._ids(
            (lo[:, 0] <= qhi[0]) & (hi[:, 0] >= qlo[0])
            & (lo[:, 1] <= qhi[1]) & (hi[:, 1] >= qlo[1])
        )

    def stab(self, point) -> set[int]:
        return self.containing(point, point)

    def within(self, qlo, qhi) -> set[int]:
        lo, hi = self._lo, self._hi
        return self._ids(
            (lo[:, 0] >= qlo[0]) & (hi[:, 0] <= qhi[0])
            & (lo[:, 1] >= qlo[1]) & (hi[:, 1] <= qhi[1])
        )

    def containing(self, qlo, qhi) -> set[int]:
        lo, hi = self._lo, self._hi
        return self._ids(
            (lo[:, 0] <= qlo[0]) & (hi[:, 0] >= qhi[0])
            & (lo[:, 1] <= qlo[1]) & (hi[:, 1] >= qhi[1])
        )


def compare(oracle: Oracle, expected: set[int], answer) -> str | None:
    """Judge one program answer (a list of ``(rid, payload)``) against the
    oracle's expected id set; returns a description of the divergence, or
    ``None`` when the answer is exactly right."""
    got = [rid for rid, _ in answer]
    got_set = set(got)
    if len(got_set) != len(got):
        return f"duplicate ids in answer ({len(got) - len(got_set)} repeats)"
    if got_set != expected:
        missing = sorted(expected - got_set)[:5]
        extra = sorted(got_set - expected)[:5]
        return f"missing {missing} extra {extra}"
    for rid, payload in answer:
        if payload != oracle.payload(rid):
            return f"record {rid}: payload {payload!r} != {oracle.payload(rid)}"
    return None


def self_check() -> list[str]:
    """Check the oracle and :func:`compare` on hand-made cases.

    Covers boundary-touching boxes, zero-length intervals and points, and
    planted wrong answers (one dropped id, one extra id, a duplicate, a
    wrong payload).  Returns the list of failures (empty when all pass).
    """
    o = Oracle(capacity=4)
    o.add(1, (0.0, 5.0), (10.0, 5.0), 101)   # segment [0, 10] at y = 5
    o.add(2, (10.0, 5.0), (20.0, 5.0), 102)  # touches record 1 at x = 10
    o.add(3, (3.0, 4.0), (3.0, 4.0), 103)    # zero-length: a point
    o.add(7, (0.0, 0.0), (30.0, 9.0), 107)   # a box around everything
    cases = [
        ("touching search", o.search((10.0, 5.0), (15.0, 5.0)), {1, 2, 7}),
        ("gap search", o.search((10.5, 6.0), (11.0, 8.0)), {7}),
        ("stab on shared end", o.stab((10.0, 5.0)), {1, 2, 7}),
        ("stab on point record", o.stab((3.0, 4.0)), {3, 7}),
        ("stab just off point", o.stab((3.0, 4.000001)), {7}),
        ("within exact bounds", o.within((0.0, 5.0), (10.0, 5.0)), {1}),
        ("within point", o.within((3.0, 4.0), (3.0, 4.0)), {3}),
        ("within misses by an ulp",
         o.within((np.nextafter(0.0, 1.0), 5.0), (10.0, 5.0)), set()),
        ("containing zero-length query", o.containing((10.0, 5.0), (10.0, 5.0)), {1, 2, 7}),
        ("containing exact", o.containing((0.0, 5.0), (10.0, 5.0)), {1, 7}),
        ("containing overhang", o.containing((0.0, 5.0), (10.5, 5.0)), {7}),
    ]
    failures = [
        f"{name}: oracle says {sorted(got)}, expected {sorted(want)}"
        for name, got, want in cases
        if got != want
    ]
    o.remove(2)
    if o.search((10.0, 5.0), (15.0, 5.0)) != {1, 7}:
        failures.append("removed record still answered")
    right = [(1, 101), (7, 107)]
    expected = {1, 7}
    if compare(o, expected, right) is not None:
        failures.append("correct answer rejected")
    planted = {
        "dropped id": right[:1],
        "extra id": right + [(3, 103)],
        "dropped and extra id": [(1, 101), (3, 103)],
        "duplicate id": right + [(1, 101)],
        "wrong payload": [(1, 101), (7, 999)],
    }
    for name, answer in planted.items():
        if compare(o, expected, answer) is None:
            failures.append(f"planted wrong answer not caught: {name}")
    return failures
