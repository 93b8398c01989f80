"""Workload inputs and the serving stacks they drive.

Inputs are generated here from the run's seed, with numpy only: the
record distributions follow the paper's Section 5 (I4: exponential Y with
beta 7 000, exponential lengths with beta 2 000; R1: uniform centroids,
uniform edge lengths over [0, 100]; domain [0, 100 000]^2), and the
search rectangles are the paper's QAR sweep (13 aspect ratios x 100
rectangles of area 10^6).  The program receives them as ``Rect`` values
through its public API only.

Each stack exposes one client surface -- ``search``, ``stab``,
``search_within``, ``search_containing``, ``insert``, ``delete`` -- plus
the counters the metrics need and the entry points the traced run wraps.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import IndexConfig, Rect, SRTree, batch_insert
from repro.concurrency import ConcurrentIndex, Snapshot
from repro.core import rtree as rtree_module
from repro.sharding import build_router
from repro.storage import FileDisk, StorageManager, WriteAheadLog
from repro.storage import pager as pager_module
from repro.storage.pager import recover_tree
from repro.storage.wal import wal_directory_for

DOMAIN = 100_000.0
QARS = (0.0001, 0.001, 0.01, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1000.0, 10000.0)
QUERY_AREA = 1_000_000.0
RECTS_PER_QAR = 100
#: Side of the square ``search_within`` windows, centred on a record, per
#: distribution (see README.md for the R1 size).
WITHIN_SIDE = {"I4": 1_000.0, "R1": 20_000.0}
#: Precomputed stab points, within windows and containing boxes (each).
QUERY_POOL = 1024
#: Fresh records are drawn in blocks of this many.
FRESH_BLOCK = 512


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def draw_records(rng: np.random.Generator, n: int, dist: str) -> tuple[np.ndarray, np.ndarray]:
    """``n`` records as (lows, highs) arrays of shape (n, 2)."""
    if dist == "I4":
        centers = rng.uniform(0.0, DOMAIN, n)
        lengths = np.minimum(rng.exponential(2_000.0, n), DOMAIN)
        ys = np.minimum(rng.exponential(7_000.0, n), DOMAIN)
        lo = np.column_stack([np.clip(centers - lengths / 2, 0.0, DOMAIN), ys])
        hi = np.column_stack([np.clip(centers + lengths / 2, 0.0, DOMAIN), ys])
    elif dist == "R1":
        c = rng.uniform(0.0, DOMAIN, (n, 2))
        w = rng.uniform(0.0, 100.0, (n, 2))
        lo = np.clip(c - w / 2, 0.0, DOMAIN)
        hi = np.clip(c + w / 2, 0.0, DOMAIN)
    else:
        raise ValueError(f"unknown distribution {dist!r}")
    return lo, hi


def stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` points uniform over the domain, one in each cell of a
    square grid (jittered stratification): the same distribution as iid
    uniform draws, with far less seed-to-seed variation in coverage."""
    side = math.isqrt(count)
    if side * side != count:
        raise ValueError("count must be a square")
    cells = np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1).reshape(-1, 2)
    points = (cells + rng.uniform(0.0, 1.0, (count, 2))) * (DOMAIN / side)
    return points[rng.permutation(count)]


def systematic(rng: np.random.Generator, key: np.ndarray, count: int) -> np.ndarray:
    """``count`` record indices spread evenly over the order of ``key``
    (systematic sampling from one random offset), in random order."""
    order = np.argsort(key, kind="stable")
    picks = order[((np.arange(count) + rng.uniform()) * (len(key) / count)).astype(int)]
    return picks[rng.permutation(count)]


def qar_rects(rng: np.random.Generator) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """The QAR sweep, interleaved: entry ``k`` has aspect ratio
    ``QARS[k % 13]``, so any 13 consecutive entries cover every ratio."""
    per_qar = []
    for qar in QARS:
        w, h = math.sqrt(QUERY_AREA * qar), math.sqrt(QUERY_AREA / qar)
        c = stratified(rng, RECTS_PER_QAR)
        lo = np.clip(c - (w / 2, h / 2), 0.0, DOMAIN)
        hi = np.clip(c + (w / 2, h / 2), 0.0, DOMAIN)
        per_qar.append(list(zip(map(tuple, lo.tolist()), map(tuple, hi.tolist()))))
    return [per_qar[k % len(QARS)][k // len(QARS)] for k in range(len(QARS) * RECTS_PER_QAR)]


@dataclass
class Inputs:
    """Everything a run feeds the program, generated from one seed."""

    lo: np.ndarray
    hi: np.ndarray
    searches: list
    stabs: list
    withins: list
    containings: list

    @classmethod
    def generate(cls, seed: int, n: int, dist: str) -> "Inputs":
        rng = np.random.default_rng([seed, 0])
        lo, hi = draw_records(rng, n, dist)
        searches = qar_rects(np.random.default_rng([seed, 1]))
        q = np.random.default_rng([seed, 2])
        # Stab points lie on records; within windows are centred on
        # records; containing boxes are random sub-boxes of records.  The
        # records are sampled evenly along Y, where I4's density varies.
        pool = min(QUERY_POOL, n)
        pick = [systematic(q, lo[:, 1] + hi[:, 1], pool) for _ in range(3)]
        t = q.uniform(0.0, 1.0, (pool, 2))
        stabs = lo[pick[0]] + t * (hi[pick[0]] - lo[pick[0]])
        centers = (lo[pick[1]] + hi[pick[1]]) / 2
        w_lo = np.clip(centers - WITHIN_SIDE[dist] / 2, 0.0, DOMAIN)
        w_hi = np.clip(centers + WITHIN_SIDE[dist] / 2, 0.0, DOMAIN)
        a = q.uniform(0.0, 1.0, (pool, 2, 2))
        a.sort(axis=1)
        span = hi[pick[2]] - lo[pick[2]]
        c_lo = lo[pick[2]] + a[:, 0] * span
        c_hi = np.maximum(lo[pick[2]] + a[:, 1] * span, c_lo)
        return cls(
            lo,
            hi,
            searches,
            [tuple(p) for p in stabs.tolist()],
            list(zip(map(tuple, w_lo.tolist()), map(tuple, w_hi.tolist()))),
            list(zip(map(tuple, c_lo.tolist()), map(tuple, c_hi.tolist()))),
        )


class FreshRecords:
    """Records for inserts, drawn lazily in seeded blocks."""

    def __init__(self, seed: int, dist: str) -> None:
        self._rng = np.random.default_rng([seed, 3])
        self._dist = dist
        self._block: list = []

    def next(self) -> tuple[tuple[float, float], tuple[float, float]]:
        if not self._block:
            lo, hi = draw_records(self._rng, FRESH_BLOCK, self._dist)
            self._block = list(zip(map(tuple, lo.tolist()), map(tuple, hi.tolist())))[::-1]
        return self._block.pop()


# ----------------------------------------------------------------------
# Serving stacks
# ----------------------------------------------------------------------
class Stack:
    """Common surface; subclasses fill in the program objects."""

    tree: SRTree
    #: The serving object the client calls (``ConcurrentIndex`` or
    #: ``ShardRouter``).  Methods are looked up on every call, so the
    #: traced run's wrappers on it take effect.
    client: Any
    #: Pass the record's rectangle to ``delete`` as a search hint.
    delete_hint = True

    def search(self, rect):
        return self.client.search(rect)

    def stab(self, x, y):
        return self.client.stab(x, y)

    def search_within(self, rect):
        return self.client.search_within(rect)

    def search_containing(self, rect):
        return self.client.search_containing(rect)

    def insert(self, rect, payload):
        return self.client.insert(rect, payload)

    def delete(self, rid, rect):
        if self.delete_hint:
            return self.client.delete(rid, hint=rect)
        return self.client.delete(rid)

    def trees(self) -> list:
        return [self.tree]

    def read_node_accesses(self) -> int:
        """Nodes (or pages) visited so far; the runner samples it around
        each read."""
        return sum(t.stats.search_node_accesses for t in self.trees())

    def index_bytes(self) -> int:
        return sum(t.total_index_bytes() for t in self.trees())

    def records(self) -> int:
        return sum(len(t) for t in self.trees())

    def counters(self) -> dict[str, int]:
        """Program counters sampled around each traced operation."""
        return {"splits": sum(t.stats.splits for t in self.trees())}

    def trace_points(self) -> list[tuple[Any, str, str]]:
        """(owner, attribute, layer key) for every wrapped entry point."""
        return GLOBAL_POINTS + self.stack_points()

    def stack_points(self) -> list[tuple[Any, str, str]]:
        return []

    def describe(self) -> dict[str, Any]:
        return {}

    def close(self) -> None:
        pass


def _tree_points(tree: Any) -> list[tuple[Any, str, str]]:
    points = [(tree, m, "core.read") for m in ("search", "stab", "search_within", "search_containing")]
    points += [(tree, m, "core.write") for m in ("insert", "delete")]
    return points


def _engine_points(engine: Any) -> list[tuple[Any, str, str]]:
    points = [(engine, m, "concurrency.read") for m in ("search", "stab", "search_within", "search_containing")]
    points += [(engine, m, "concurrency.write") for m in ("insert", "delete")]
    return points


def _storage_points(tree: Any, storage: Any) -> list[tuple[Any, str, str]]:
    return [
        (tree, "_storage_hook", "storage.hook"),
        (storage.pool, "touch", "storage.buffer"),
        (storage.disk, "read_page", "storage.disk"),
    ]


#: Module-level entry points shared by every tree and pager.
GLOBAL_POINTS: list[tuple[Any, str, str]] = [
    (rtree_module, "split_rects", "core.split"),
    (pager_module, "serialize_node", "storage.serialize"),
] + [(Snapshot, m, "concurrency.snapshot_read") for m in ("search", "stab", "search_within", "search_containing")]


def build_tree(inputs: Inputs) -> tuple[SRTree, list[int]]:
    """Bulk-load the first half of the records with the program's
    ``batch_insert``, then insert the second half one at a time; returns
    the rids.  A tree grown only by one-at-a-time inserts in random order
    differs in shape from seed to seed by more than its reads' noise, and
    one only bulk-loaded splits in a wave under the run's inserts (README.md,
    Inputs and seeds)."""
    tree = SRTree(IndexConfig())
    items = [(Rect(lo, hi), i) for i, (lo, hi) in enumerate(_boxes(inputs))]
    half = len(items) // 2
    rids = batch_insert(tree, items[:half])
    rids += [tree.insert(rect, payload=i) for rect, i in items[half:]]
    return tree, rids


def _boxes(inputs: Inputs) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    return list(zip(map(tuple, inputs.lo.tolist()), map(tuple, inputs.hi.tolist())))


class LatchedStack(Stack):
    """qar-read: SR-Tree + StorageManager (small pool) + ConcurrentIndex."""

    def __init__(self, inputs: Inputs, pool_fraction: float) -> None:
        self.tree, self.rids = build_tree(inputs)
        self.index_bytes_at_build = self.tree.total_index_bytes()
        self.pool_bytes = max(4096, int(self.index_bytes_at_build * pool_fraction))
        self.storage = StorageManager(self.tree, buffer_bytes=self.pool_bytes)
        self.engine = ConcurrentIndex(self.tree)
        self.client = self.engine

    def counters(self) -> dict[str, int]:
        b = self.storage.pool.stats
        return {"splits": self.tree.stats.splits, "buffer_hits": b.hits, "buffer_misses": b.misses}

    def stack_points(self):
        return _engine_points(self.engine) + _tree_points(self.tree) + _storage_points(self.tree, self.storage)

    def describe(self):
        return {
            "records": len(self.tree),
            "index_bytes": self.index_bytes_at_build,
            "buffer_pool_bytes": self.pool_bytes,
        }

    def close(self) -> None:
        self.engine.detach()
        self.storage.detach()


class DurableStack(Stack):
    """durable-churn: SR-Tree + FileDisk + WAL + ConcurrentIndex(mvcc)."""

    def __init__(self, inputs: Inputs, pool_multiple: float, workdir: Path) -> None:
        self.tree, self.rids = build_tree(inputs)
        self.index_bytes_at_build = self.tree.total_index_bytes()
        self.pool_bytes = int(self.index_bytes_at_build * pool_multiple)
        self.workdir = Path(tempfile.mkdtemp(prefix="store-", dir=workdir))
        self.path = self.workdir / "index.db"
        self.disk = FileDisk(self.path)
        self.wal = WriteAheadLog(wal_directory_for(self.path))
        self.storage = StorageManager(self.tree, buffer_bytes=self.pool_bytes, disk=self.disk, wal=self.wal)
        self.engine = ConcurrentIndex(self.tree, storage=self.storage, mvcc=True)
        self.versions = self.storage.versions
        # Snapshot reads never touch the tree's own access counter; count
        # page reads at the version cache instead.  Version GC reads pages
        # there too, on the write path; the runner's per-read sampling
        # leaves those out.
        self._page_reads = 0
        read = self.versions.read

        def counted_read(page_id, epoch):
            self._page_reads += 1
            return read(page_id, epoch)

        self.versions.read = counted_read
        self.client = self.engine

    def read_node_accesses(self) -> int:
        return self._page_reads

    def counters(self) -> dict[str, int]:
        w = self.wal.stats
        return {
            "splits": self.tree.stats.splits,
            "pages_logged": w.full_images + w.deltas,
            "wal_bytes": w.bytes_appended,
            "wal_fsyncs": w.fsyncs,
        }

    def stack_points(self):
        s, v = self.storage, self.versions
        return (
            _engine_points(self.engine)
            + _tree_points(self.tree)
            + _storage_points(self.tree, s)
            + [
                (s, "begin_logged_write", "storage.capture"),
                (s, "end_logged_write", "storage.capture"),
                (self.wal, "log_commit", "storage.wal_append"),
                (self.wal, "commit", "storage.wal_commit"),
                (v, "publish", "storage.version_publish"),
                (v, "trim", "storage.version_gc"),
                (v, "mark_sweep", "storage.version_gc"),
                (v, "read", "storage.version_read"),
                (v, "decode", "storage.decode"),
            ]
        )

    def describe(self):
        return {
            "records": len(self.tree),
            "index_bytes": self.index_bytes_at_build,
            "buffer_pool_bytes": self.pool_bytes,
        }

    def check_recovery(self, expected: dict) -> str | None:
        """Recover from a copy of the store's files (the live store stays
        open) and compare with the acknowledged live set."""
        copy = self.workdir.with_name(self.workdir.name + "-copy")
        shutil.copytree(self.workdir, copy)
        try:
            disk = FileDisk(copy / "index.db")
            try:
                tree, _ = recover_tree(disk, wal_directory_for(copy / "index.db"))
            finally:
                disk.close(sync=False)
        finally:
            shutil.rmtree(copy, ignore_errors=True)
        boxes: dict[int, list] = {}
        for rid, rect, _ in tree.items():
            box = boxes.setdefault(rid, [list(rect.lows), list(rect.highs)])
            box[0] = [min(a, b) for a, b in zip(box[0], rect.lows)]
            box[1] = [max(a, b) for a, b in zip(box[1], rect.highs)]
        got = {rid: (tuple(lo), tuple(hi)) for rid, (lo, hi) in boxes.items()}
        missing = sorted(set(expected) - set(got))
        back = sorted(set(got) - set(expected))
        moved = sorted(r for r in set(got) & set(expected) if got[r] != expected[r])
        if missing or back or moved:
            return (
                f"recovered store: {len(missing)} acknowledged records missing {missing[:5]}, "
                f"{len(back)} deleted records back {back[:5]}, {len(moved)} changed {moved[:5]}"
            )
        return None

    def close(self) -> None:
        self.engine.detach()
        self.storage.detach()
        self.wal.close()
        self.disk.close(sync=False)
        shutil.rmtree(self.workdir, ignore_errors=True)


class ShardStack(Stack):
    """shard-scatter: ShardRouter over 2 shards, R-Tree workers."""

    def __init__(self, inputs: Inputs, shards: int, transport: str = "local", worker_threads: int = 1) -> None:
        lows, highs = (0.0, 0.0), (DOMAIN, DOMAIN)
        self.transport = transport
        self.router = build_router(
            shards, bounds=Rect(lows, highs), transport=transport, worker_threads=worker_threads
        )
        r = self.router
        try:
            self.rids = [
                r.insert(Rect(lo, hi), payload=i)
                for i, (lo, hi) in enumerate(zip(map(tuple, inputs.lo.tolist()), map(tuple, inputs.hi.tolist())))
            ]
        except BaseException:
            r.close()
            raise
        self.workers = [c.worker for c in r._clients.values()] if transport == "local" else []
        self.index_bytes_at_build = self.index_bytes() if self.workers else 0
        self.client = r
        self.delete_hint = False

    def trees(self):
        return [w.tree for w in self.workers]

    def read_node_accesses(self) -> int:
        if self.workers:
            return super().read_node_accesses()
        # Across processes only the workers' buffer-pool accesses are
        # visible (one stats request per sample, outside the timed call).
        return sum(s.get("buffer_hits", 0) + s.get("buffer_misses", 0) for s in self.router.shard_stats().values())

    def index_bytes(self) -> int:
        return super().index_bytes() if self.workers else 0

    def records(self) -> int:
        return len(self.router)

    def counters(self) -> dict[str, int]:
        out = {"splits": 0, "buffer_hits": 0, "buffer_misses": 0}
        for w in self.workers:
            out["splits"] += w.tree.stats.splits
            out["buffer_hits"] += w.storage.pool.stats.hits
            out["buffer_misses"] += w.storage.pool.stats.misses
        return out

    def stack_points(self):
        r = self.router
        points = [(r, m, "sharding.router_read") for m in ("search", "stab", "search_within", "search_containing")]
        points += [(r, m, "sharding.router_write") for m in ("insert", "delete")]
        for w in self.workers:
            points.append((w, "handle", "sharding.worker"))
            points += _engine_points(w.engine) + _tree_points(w.tree) + _storage_points(w.tree, w.storage)
        return points

    def describe(self):
        d = {"records": len(self.router), "shards": len(self.router.shard_ids), "transport": self.transport}
        if self.workers:
            d["index_bytes"] = self.index_bytes_at_build
            d["buffer_pool_bytes"] = sum(w.storage.pool.capacity_bytes for w in self.workers)
        return d

    def close(self) -> None:
        self.router.close()


@dataclass(frozen=True)
class Workload:
    """A record distribution, a size, a stack and a fixed round of ops."""

    name: str
    dist: str
    records: int
    make: Callable[[Inputs, Path], Stack]
    #: One round of operation kinds, run in this order.
    round: tuple[str, ...]
    warm_rounds: int


def spread(counts: dict[str, int]) -> tuple[str, ...]:
    """One round with each kind's operations spread evenly through it."""
    slots = [((i + 0.5) / n, kind) for kind, n in counts.items() for i in range(n)]
    return tuple(kind for _, kind in sorted(slots))


# Mixes are chosen to keep percentiles off the steps between operation
# classes (see README.md): the QAR sweep's share of reads puts the 99th
# read percentile inside the slowest QAR class, and 3 inserts to 2
# deletes put the median write inside the plain inserts and the 99th
# inside the inserts that split a node.
WORKLOADS: dict[str, Workload] = {
    "qar-read": Workload(
        "qar-read", "I4", 10_000,
        lambda inputs, wd: LatchedStack(inputs, pool_fraction=0.25),
        spread({"search": 26, "stab": 24, "within": 20, "containing": 20, "insert": 3, "delete": 2}),
        warm_rounds=10,
    ),
    "durable-churn": Workload(
        "durable-churn", "I4", 10_000,
        lambda inputs, wd: DurableStack(inputs, pool_multiple=4.0, workdir=wd),
        # Writes in one block, then reads with ``within`` first: it walks
        # every page, so it alone pays the lazy decode of the pages the
        # block republished, and the other reads' medians do not straddle
        # a varying number of decodes.
        ("insert", "delete") * 6
        + ("within",)
        + ("search", "stab", "containing") * 3
        + ("search", "stab"),
        warm_rounds=10,
    ),
    "shard-scatter": Workload(
        "shard-scatter", "R1", 10_000,
        lambda inputs, wd: ShardStack(inputs, shards=2),
        spread({"search": 13, "stab": 18, "within": 6, "containing": 12, "insert": 3, "delete": 2}),
        warm_rounds=20,
    ),
}

SMOKE_RECORDS = 600


def workdir_for(root: Path) -> Path:
    """Scratch space for stores, inside the checkout (gitignored)."""
    path = root / ".perfbench_run"
    path.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=path))
